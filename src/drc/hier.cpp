// Hierarchical DRC: prove each unique cell once, re-verify only the seams.
//
// An assembled-by-construction chip instantiates the same cells dozens of
// times, so flat checking mostly re-derives verdicts it already knows. The
// decomposition here is exact up to the halo contract (see drc.hpp):
//
//   * Every unique cell's verdict (violations in cell-local coordinates)
//     is computed once — recursively, so a chip's PLA is itself taken
//     apart — and cached by content hash in the VerdictCache, where a
//     compile_many batch shares it across designs.
//
//   * Seams are the windows where instance bounding boxes, inflated by
//     the max rule distance, overlap each other or the parent's own
//     wiring. Outside the seams, all geometry within one rule-reach of a
//     point belongs to a single instance (or to the parent wiring pool),
//     so the isolated verdicts are exact there; inside them, the engine
//     re-runs over the full local geometry (unclipped windowed soup with
//     global connectivity labels) and its findings replace the isolated
//     ones. The two keep-filters are exact complements, so nothing is
//     reported twice or dropped.
#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/cancel.hpp"
#include "drc/drc.hpp"
#include "drc/rules.hpp"
#include "fault/fault.hpp"

namespace silc::drc {

namespace {

using geom::Coord;
using geom::Rect;
using geom::RectSet;
using layout::Cell;
using layout::Instance;
using layout::Shape;
using tech::Tech;

class HierChecker {
 public:
  HierChecker(const Tech& t, VerdictCache* cache)
      : tech_(t), engine_(t), cache_(cache != nullptr ? cache : &local_) {}

  Result check_top(const Cell& top) {
    Result r;
    r.violations = *verdict_of(top);  // already canonical
    return r;
  }

 private:
  std::shared_ptr<const std::vector<Violation>> verdict_of(const Cell& c) {
    const auto seen = by_cell_.find(&c);
    if (seen != by_cell_.end()) return seen->second;
    const VerdictCache::Key key = VerdictCache::key_for(c, tech_);
    auto v = cache_->find(key);
    if (v == nullptr) {
      Result r = check_cell(c);
      v = cache_->store(key, std::move(r.violations));
    }
    by_cell_.emplace(&c, v);
    return v;
  }

  Result check_cell(const Cell& cell) {
    SILC_OBS_SPAN("drc.cell:" + cell.name(), "drc");
    SILC_OBS_COUNT("drc.cells", 1);
    core::check_cancel("drc.hier.cell");
    SILC_FAULT_POINT("drc.hier.cell");
    Result out;
    if (cell.instances().empty()) {
      LayerTable t(cell.shapes(), tech_);
      engine_.run(t, out);
      out.canonicalize();
      return out;
    }
    const Coord h = engine_.halo() + tech_.lambda;

    // Unique-cell verdicts, replicated through each instance transform.
    std::vector<Violation> inherited;
    std::vector<Rect> inst_bbox;
    inst_bbox.reserve(cell.instances().size());
    for (const Instance& i : cell.instances()) {
      const auto v = verdict_of(*i.cell);
      for (const Violation& viol : *v) {
        inherited.push_back({viol.rule, i.transform.apply(viol.where),
                             viol.detail, i.transform.apply(viol.anchor)});
      }
      inst_bbox.push_back(i.transform.apply(i.cell->bbox()));
    }

    // Interaction seams.
    RectSet seams;
    for (std::size_t i = 0; i < inst_bbox.size(); ++i) {
      const Rect bi = inst_bbox[i].inflated(h);
      for (std::size_t j = i + 1; j < inst_bbox.size(); ++j) {
        const Rect w = bi.intersect(inst_bbox[j].inflated(h));
        if (!w.empty()) seams.add(w);
      }
      for (const Shape& s : cell.shapes()) {
        const Rect w = bi.intersect(s.rect.inflated(h));
        if (!w.empty()) seams.add(w);
      }
    }

    // The parent's own wiring, checked as one pool (wiring-to-wiring
    // interactions never span a seam the pool cannot see: any wiring
    // within rule-reach of an instance is in a seam and re-checked there).
    // The pool verdict depends only on the cell's own shapes, so it is
    // cached by their content hash: a child edit re-enters check_cell
    // (the cell's whole-content key changed) but skips the pool engine
    // run when the parent's wiring itself is untouched.
    Result pool;
    {
      Rect ob;
      for (const Shape& s : cell.shapes()) ob = ob.bound(s.rect);
      const VerdictCache::Key pkey{tech_.drc_signature(), own_shapes_hash(cell),
                                   cell.shapes().size(), ob};
      auto pv = cache_->find(pkey);
      if (pv == nullptr) {
        LayerTable t(cell.shapes(), tech_);
        engine_.run(t, pool);
        pv = cache_->store(pkey, std::move(pool.violations));
      }
      pool.violations = *pv;
    }

    SILC_OBS_COUNT("drc.windows", seams.rects().size());
    SILC_OBS_COUNT("drc.window_area", seams.area());

    // Re-verify the seams against the full local geometry (which may grow
    // them), then keep the isolated verdicts outside the final seams.
    if (!seams.empty()) {
      SILC_OBS_SPAN("drc.seams:" + cell.name(), "drc");
      LayerTable full(layout::flatten(cell), tech_);
      check_seams(full, seams, h, engine_, out.violations);
    }
    for (Violation& v : inherited) {
      if (!in_seams(seams, v)) out.violations.push_back(std::move(v));
    }
    for (Violation& v : pool.violations) {
      if (!in_seams(seams, v)) out.violations.push_back(std::move(v));
    }
    out.canonicalize();
    return out;
  }

  /// Content hash of the cell's own shapes (layer + rect, stored order),
  /// ignoring instances. Salted so a pool key can never collide with a
  /// whole-cell key in the shared VerdictCache.
  static std::uint64_t own_shapes_hash(const Cell& cell) {
    std::uint64_t x = 0x9001f00d5a17ed00ULL;  // pool-domain salt
    const auto mix = [&x](std::uint64_t v) {
      x ^= v;
      x *= 1099511628211ULL;
    };
    for (const Shape& s : cell.shapes()) {
      mix(static_cast<std::uint64_t>(tech::index(s.layer)) + 1);
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.rect.x0)));
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.rect.y0)));
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.rect.x1)));
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.rect.y1)));
    }
    return x;
  }

  const Tech& tech_;
  RuleEngine engine_;
  VerdictCache* cache_;
  VerdictCache local_;
  std::map<const Cell*, std::shared_ptr<const std::vector<Violation>>> by_cell_;
};

}  // namespace

void check_seams(LayerTable& full, RectSet& seams, Coord h,
                 const RuleEngine& engine, std::vector<Violation>& out) {
  const Coord lambda = engine.tech().lambda;
  for (;;) {
    std::vector<Violation> found;
    RectSet grow;
    const RectSet dilated = seams.dilated(h);
    for (const auto& comp : dilated.components()) {
      core::check_cancel("drc.hier.seam");
      SILC_FAULT_POINT("drc.hier.seam");
      const RectSet win(comp);
      LayerTable soup = [&] {
        SILC_OBS_SPAN("drc.window.soup", "drc");
        return full.window(win, h);
      }();
      Result sr;
      {
        SILC_OBS_SPAN("drc.window.check", "drc");
        engine.run(soup, sr);
      }
      // A window owns only its own seams: its soup is exact within reach
      // of them, not near another window's seams, where a truncated soup
      // can invent offences (a channel missing the buried window that
      // trims it). Within lambda of its seams every derived region is
      // exact, so a region rect reaching further may be one the soup's
      // edge cut short: grow the seams by it and check again.
      if (sr.violations.empty()) continue;
      const RectSet own = seams.intersect(win);
      const RectSet exact = own.dilated(lambda);
      for (Violation& v : sr.violations) {
        if (!in_seams(own, v)) continue;
        if (engine.reports_region_rect(v) &&
            !exact.covers(v.where.inflated(1))) {
          grow.add(v.where.inflated(1));
        }
        found.push_back(std::move(v));
      }
    }
    if (grow.empty()) {
      out.insert(out.end(), std::make_move_iterator(found.begin()),
                 std::make_move_iterator(found.end()));
      return;
    }
    SILC_OBS_COUNT("drc.seams.regrown", 1);
    seams = seams.unite(grow);
  }
}

Result check_hier(const Cell& top, const Tech& technology,
                  VerdictCache* cache) {
  HierChecker checker(technology, cache);
  return checker.check_top(top);
}

}  // namespace silc::drc
