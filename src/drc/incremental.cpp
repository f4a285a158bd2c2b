// Incremental DRC: serve one edit by the cheapest exact path — baseline
// verbatim, whole-top cache hit, footprint re-check, or a full cold run
// (see check_incremental in drc.hpp for the contract).
#include <algorithm>
#include <exception>
#include <iterator>
#include <set>
#include <tuple>
#include <vector>

#include "core/cancel.hpp"
#include "drc/drc.hpp"
#include "drc/rules.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"

namespace silc::drc {

namespace {

using core::IncrPath;
using geom::Rect;
using geom::RectSet;

/// RectSet's canonical order.
bool canon_less(const Rect& a, const Rect& b) {
  return std::tie(a.y0, a.x0, a.y1, a.x1) < std::tie(b.y0, b.x0, b.y1, b.x1);
}

/// Walk two canonical rect lists: `common(i, j)` for a rect on both sides,
/// `one_side(r)` for a rect on one side only.
template <typename Common, typename OneSide>
void walk_rects(const std::vector<Rect>& b, const std::vector<Rect>& a,
                Common common, OneSide one_side) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < b.size() || j < a.size()) {
    if (j == a.size() || (i < b.size() && canon_less(b[i], a[j]))) {
      one_side(b[i++]);
    } else if (i == b.size() || canon_less(a[j], b[i])) {
      one_side(a[j++]);
    } else {
      common(i++, j++);
    }
  }
}

/// Grow `zone` by every label-reading-layer rect present in one
/// decomposition only, then run the net guard: return the mask (bit
/// tech::index) of those layers whose net partition broke outside the
/// zone. The spacing rules' same-net exemption reads full-layout labels, so
/// outside the zone the rects of each such layer must group into nets the
/// same way before and after the edit. Where they do not, a net's labelling
/// broke: a before-net whose rects outside the zone now lie on several
/// after-nets (a split), or an after-net gathering several before-nets (a
/// join), and a spacing verdict may flip anywhere along it.
std::uint32_t splice_zone(LayerTable& before, LayerTable& after,
                          const tech::Tech& t, std::uint32_t changed,
                          RectSet& zone) {
  std::vector<tech::Layer> layers;
  for (const tech::Layer l : label_read_layers(t)) {
    if ((changed >> tech::index(l) & 1u) != 0) layers.push_back(l);
  }
  for (const tech::Layer l : layers) {
    walk_rects(before.mask(l).rects(), after.mask(l).rects(),
               [](std::size_t, std::size_t) {},
               [&zone](const Rect& r) { zone.add(r); });
  }
  const Rect zb = zone.bbox();
  std::uint32_t broken = 0;
  for (const tech::Layer l : layers) {
    const std::vector<Rect>& b = before.mask(l).rects();
    const std::vector<Rect>& a = after.mask(l).rects();
    const std::vector<int>& bl = before.labels(l);
    const std::vector<int>& al = after.labels(l);
    // Per net, the one net on the other side its rects outside the zone
    // lie on; a second one breaks it.
    constexpr int kUnseen = -1;
    std::vector<int> b2a(b.size(), kUnseen);
    std::vector<int> a2b(a.size(), kUnseen);
    bool split_or_join = false;
    const auto meet = [&split_or_join](int& seen, int other) {
      if (seen == kUnseen) seen = other;
      split_or_join = split_or_join || seen != other;
    };
    walk_rects(b, a,
               [&](std::size_t i, std::size_t j) {
                 if (zb.contains(b[i]) && zone.covers(b[i])) return;
                 meet(b2a[static_cast<std::size_t>(bl[i])], al[j]);
                 meet(a2b[static_cast<std::size_t>(al[j])], bl[i]);
               },
               [](const Rect&) {});
    if (split_or_join) broken |= 1u << tech::index(l);
  }
  return broken;
}

/// The footprint path: splice a re-check of the edit's zone into the
/// baseline verdict. Every rule re-checks the zone in one windowed run,
/// except the spacing rules of a layer whose nets broke: those run once
/// over the whole patched layer and replace all their baseline reports.
/// `guarded` reports whether the net guard found such a layer.
Result footprint_check(const layout::Cell& top, const tech::Tech& t,
                       const core::EditSet& edits, Baseline& base,
                       std::size_t& rects, bool& guarded) {
  SILC_OBS_SPAN("drc.footprint", "drc");
  const RuleEngine engine(t);
  const geom::Coord h = engine.halo() + t.lambda;
  auto fresh = std::make_shared<LayerTable>(*base.table, top,
                                            edits.geometry_layers,
                                            edits.geometry_footprint);
  RectSet zone = edits.geometry_footprint.dilated(h);
  const std::uint32_t broken =
      splice_zone(*base.table, *fresh, t, edits.geometry_layers, zone);
  guarded = broken != 0;
  const std::vector<bool> whole = engine.spacing_rules(broken);
  std::vector<bool> windowed = whole;
  windowed.flip();
  Result out;
  check_seams(*fresh, zone, h, engine, windowed, out.violations);
  if (guarded) {
    SILC_OBS_SPAN("drc.guard.spacing", "drc");
    engine.run(*fresh, out, whole);
  }
  for (const Violation& v : base.result->violations) {
    if (!in_seams(zone, v) && !engine.reports(whole, v.rule)) {
      out.violations.push_back(v);
    }
  }
  out.canonicalize();
  rects = zone.rects().size();
  base.table = std::move(fresh);
  return out;
}

/// Cells under the top whose geometry the edit changed.
std::size_t edited_cells(const std::vector<const layout::Cell*>& cells,
                         const core::EditSet& edits) {
  std::set<std::string> edited;
  for (const core::CellEdit& e : edits.cells) {
    if (e.geometry_changed) edited.insert(e.cell);
  }
  return static_cast<std::size_t>(
      std::count_if(cells.begin(), cells.end(), [&](const layout::Cell* c) {
        return edited.count(c->name()) != 0;
      }));
}

}  // namespace

void check_seams(LayerTable& full, RectSet& seams, geom::Coord h,
                 const RuleEngine& engine, const std::vector<bool>& rules,
                 std::vector<Violation>& out) {
  for (;;) {
    core::check_cancel("drc.hier.seam");
    SILC_FAULT_POINT("drc.hier.seam");
    LayerTable soup = [&] {
      SILC_OBS_SPAN("drc.window.soup", "drc");
      return full.window(seams.dilated(h), h);
    }();
    Result sr;
    {
      SILC_OBS_SPAN("drc.window.check", "drc");
      engine.run(soup, sr, rules);
    }
    // Within lambda of the seams every derived region is exact, so a
    // region rect reaching further may be one the soup's edge cut short:
    // grow the seams by it and check again.
    std::vector<Violation> found;
    RectSet grow;
    const RectSet exact = seams.dilated(engine.tech().lambda);
    for (Violation& v : sr.violations) {
      if (!in_seams(seams, v)) continue;
      if (engine.reports_region_rect(v) && !exact.covers(v.where.inflated(1))) {
        grow.add(v.where.inflated(1));
      }
      found.push_back(std::move(v));
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

Result check_incremental(const layout::Cell& top, const tech::Tech& technology,
                         VerdictCache& cache, const core::EditSet& edits,
                         Baseline& baseline, IncrStats* stats) {
  SILC_OBS_SPAN("incr.drc", "drc");
  IncrStats local;
  IncrStats& st = stats != nullptr ? *stats : local;
  st = IncrStats{};
  const std::vector<const layout::Cell*> cells = layout::dependency_order(top);
  st.cells_total = cells.size();
  const auto served = [&](IncrPath path, std::size_t reproved) {
    st.path = path;
    st.cells_reproved = std::min(reproved, st.cells_total);
    st.cells_reused = st.cells_total - st.cells_reproved;
    SILC_OBS_COUNT("incr.cells_reused",
                   static_cast<std::int64_t>(st.cells_reused));
    SILC_OBS_COUNT("incr.cells_reproved",
                   static_cast<std::int64_t>(st.cells_reproved));
  };
  const bool warm = baseline.result.has_value() && !edits.tech_drc_changed;
  // The next baseline's table: spliced from this one when the edit says
  // where the geometry moved, otherwise built (lazily) from scratch.
  const auto next_table = [&] {
    baseline.table =
        warm && edits.has_footprint && baseline.table != nullptr
            ? std::make_shared<LayerTable>(*baseline.table, top,
                                           edits.geometry_layers,
                                           edits.geometry_footprint)
            : std::make_shared<LayerTable>(layout::flatten(top), technology);
  };

  if (warm && (edits.empty() || edits.naming_only() ||
               (edits.has_footprint && edits.geometry_footprint.empty()))) {
    served(IncrPath::Verbatim, 0);
    return *baseline.result;
  }

  try {
    SILC_FAULT_POINT("incr.drc");
    if (const auto hit = cache.find(VerdictCache::key_for(top, technology))) {
      baseline.result = Result{*hit};
      next_table();
      served(IncrPath::TopHit, 0);
      return *baseline.result;
    }
    if (warm && edits.has_footprint && baseline.table != nullptr) {
      bool guarded = false;
      baseline.result = footprint_check(top, technology, edits, baseline,
                                        st.footprint_rects, guarded);
      if (guarded) SILC_OBS_COUNT("incr.drc.guard", 1);
      served(guarded ? IncrPath::Guard : IncrPath::Footprint,
             edited_cells(cells, edits));
      return *baseline.result;
    }
    const obs::CacheStats before = cache.stats();
    baseline.result = check_hier(top, technology, &cache);
    next_table();
    const obs::CacheStats after = cache.stats();
    served(IncrPath::Full,
           static_cast<std::size_t>(after.misses - before.misses));
    return *baseline.result;
  } catch (const core::Cancelled&) {
    throw;  // deadlines win; retrying on the slower flat path would be worse
  } catch (const std::exception&) {
    SILC_OBS_COUNT("incr.fallback_flat", 1);
    std::vector<layout::Shape> flat = layout::flatten(top);
    baseline.result = check_flat(flat, technology);
    baseline.table = std::make_shared<LayerTable>(flat, technology);
    served(IncrPath::FlatFallback, st.cells_total);
    return *baseline.result;
  }
}

}  // namespace silc::drc
