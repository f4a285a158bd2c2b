#include "core/incremental.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "geom/fnv.hpp"
#include "obs/obs.hpp"

namespace silc::core {

namespace {

using geom::Point;
using geom::Rect;

/// Own ports folded into the naming fingerprint (layout::naming_hash
/// leaves them out on purpose: it keys the per-cell netlist cache, and
/// ports only name nodes at the top).
std::uint64_t ports_hash(const layout::Cell& c, std::uint64_t h) {
  geom::Fnv f{h};
  f.mix(c.ports().size());
  for (const layout::Port& p : c.ports()) {
    f.mix_str(p.name);
    f.mix(static_cast<std::uint64_t>(p.layer));
    f.mix(static_cast<std::uint64_t>(p.rect.x0));
    f.mix(static_cast<std::uint64_t>(p.rect.y0));
    f.mix(static_cast<std::uint64_t>(p.rect.x1));
    f.mix(static_cast<std::uint64_t>(p.rect.y1));
  }
  return f.h;
}

}  // namespace

LibrarySnapshot snapshot(const layout::Library& lib, const tech::Tech& tech) {
  LibrarySnapshot snap;
  snap.drc_signature = tech.drc_signature();
  snap.extract_signature = tech.extract_signature();
  for (const layout::Cell* c : lib.cells()) {
    CellRecord rec;
    rec.fp.geometry = layout::geometry_hash(*c);
    rec.fp.naming = ports_hash(*c, layout::naming_hash(*c));
    rec.fp.flat_shapes = c->flat_shape_count();
    rec.fp.bbox = c->bbox();
    rec.shapes = c->shapes();
    rec.labels = c->labels();
    rec.ports = c->ports();
    rec.instances.reserve(c->instances().size());
    for (const layout::Instance& i : c->instances()) {
      rec.instances.push_back({i.cell->name(), i.transform, i.name});
    }
    snap.cells.emplace(c->name(), std::move(rec));
  }
  return snap;
}

bool EditSet::naming_only() const {
  if (empty()) return false;
  if (tech_drc_changed || tech_extract_changed) return false;
  for (const CellEdit& e : cells) {
    if (e.added || e.removed || e.geometry_changed) return false;
  }
  return true;
}

std::string EditSet::summary() const {
  if (empty()) return "no edits";
  std::ostringstream os;
  std::size_t geo = 0;
  std::size_t naming = 0;
  std::size_t added = 0;
  std::size_t removed = 0;
  for (const CellEdit& e : cells) {
    if (e.added) ++added;
    if (e.removed) ++removed;
    if (e.geometry_changed) ++geo;
    if (e.naming_changed) ++naming;
  }
  os << cells.size() << " cell(s) edited";
  if (geo != 0) os << ", " << geo << " geometry";
  if (naming != 0) os << ", " << naming << " naming";
  if (added != 0) os << ", " << added << " added";
  if (removed != 0) os << ", " << removed << " removed";
  if (tech_drc_changed) os << ", drc rules changed";
  if (tech_extract_changed) os << ", extract rules changed";
  if (has_footprint) {
    os << ", footprint " << geometry_footprint.rects().size() << " geometry + "
       << naming_footprint.rects().size() << " naming rect(s)";
  }
  return os.str();
}

namespace {

/// Walk two lists sorted by `less` as multisets: equal elements pair up
/// (`both`), the rest go to `only_b` / `only_a`.
template <typename T, typename Less, typename Both, typename OnlyB,
          typename OnlyA>
void match_sorted(const std::vector<T>& b, const std::vector<T>& a, Less less,
                  Both both, OnlyB only_b, OnlyA only_a) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < b.size() || j < a.size()) {
    if (j == a.size() || (i < b.size() && less(b[i], a[j]))) {
      only_b(b[i++]);
    } else if (i == b.size() || less(a[j], b[i])) {
      only_a(a[j++]);
    } else {
      both(b[i++], a[j++]);
    }
  }
}

template <typename T, typename Less>
std::vector<T> sorted(std::vector<T> v, Less less) {
  std::sort(v.begin(), v.end(), less);
  return v;
}

/// A label point as a region (RectSet holds only rects with interior).
Rect point_rect(Point p) { return {p.x - 1, p.y - 1, p.x + 1, p.y + 1}; }

bool shape_less(const layout::Shape& a, const layout::Shape& b) {
  return std::tie(a.layer, a.rect.x0, a.rect.y0, a.rect.x1, a.rect.y1) <
         std::tie(b.layer, b.rect.x0, b.rect.y0, b.rect.x1, b.rect.y1);
}
bool label_less(const layout::TextLabel& a, const layout::TextLabel& b) {
  return std::tie(a.text, a.layer, a.at.x, a.at.y) <
         std::tie(b.text, b.layer, b.at.x, b.at.y);
}
bool port_less(const layout::Port& a, const layout::Port& b) {
  return std::tie(a.name, a.layer, a.rect.x0, a.rect.y0, a.rect.x1,
                  a.rect.y1) < std::tie(b.name, b.layer, b.rect.x0, b.rect.y0,
                                        b.rect.x1, b.rect.y1);
}
/// Placement identity for geometry: child and transform.
bool place_less(const InstanceRecord& a, const InstanceRecord& b) {
  return std::tie(a.child, a.transform.orient, a.transform.offset.x,
                  a.transform.offset.y) < std::tie(b.child, b.transform.orient,
                                                   b.transform.offset.x,
                                                   b.transform.offset.y);
}
/// Placement identity for naming: child, transform and instance name.
bool named_less(const InstanceRecord& a, const InstanceRecord& b) {
  if (place_less(a, b)) return true;
  if (place_less(b, a)) return false;
  return a.name < b.name;
}

struct Footprint {
  std::vector<Rect> geometry;
  std::uint32_t layers = 0;  // mask layers under `geometry`
  std::vector<Rect> naming;
};

std::uint32_t layer_bit(tech::Layer l) { return 1u << tech::index(l); }

/// The footprint of one cell between two snapshots, in the cell's own
/// coordinates; memoized per cell name, bottom-up through matched
/// placements.
class FootprintDiff {
 public:
  FootprintDiff(const LibrarySnapshot& before, const LibrarySnapshot& after,
                std::string top)
      : before_(before), after_(after), top_(std::move(top)) {}

  const Footprint& of(const std::string& name) {
    const auto seen = memo_.find(name);
    if (seen != memo_.end()) return seen->second;
    Footprint fp = compute(name);
    return memo_.emplace(name, std::move(fp)).first->second;
  }

 private:
  Footprint compute(const std::string& name) {
    Footprint fp;
    const CellRecord& b = before_.cells.at(name);
    const CellRecord& a = after_.cells.at(name);
    const bool geometry = b.fp.geometry != a.fp.geometry ||
                          b.fp.flat_shapes != a.fp.flat_shapes ||
                          !(b.fp.bbox == a.fp.bbox);
    const bool naming = b.fp.naming != a.fp.naming;
    if (!geometry && !naming) return fp;

    const auto shape_rect = [&fp](const layout::Shape& s) {
      fp.geometry.push_back(s.rect);
      fp.layers |= layer_bit(s.layer);
    };
    match_sorted(sorted(b.shapes, shape_less), sorted(a.shapes, shape_less),
                 shape_less, [](const auto&, const auto&) {}, shape_rect,
                 shape_rect);
    const auto label_point = [&fp](const layout::TextLabel& l) {
      fp.naming.push_back(point_rect(l.at));
    };
    match_sorted(sorted(b.labels, label_less), sorted(a.labels, label_less),
                 label_less, [](const auto&, const auto&) {}, label_point,
                 label_point);
    if (name == top_) {
      // Only the top's ports reach extraction (they name nodes there).
      const auto port_point = [&fp](const layout::Port& p) {
        fp.naming.push_back(point_rect(p.rect.center()));
      };
      match_sorted(sorted(b.ports, port_less), sorted(a.ports, port_less),
                   port_less, [](const auto&, const auto&) {}, port_point,
                   port_point);
    }

    // Placements: matched by (child, transform, name) they contribute the
    // child's own footprint; matched by (child, transform) only, they were
    // renamed; unmatched, they were added or removed outright.
    std::vector<InstanceRecord> b_rest;
    std::vector<InstanceRecord> a_rest;
    match_sorted(
        sorted(b.instances, named_less), sorted(a.instances, named_less),
        named_less,
        [&](const InstanceRecord& ib, const InstanceRecord&) {
          const Footprint& child = of(ib.child);
          for (const Rect& r : child.geometry) {
            fp.geometry.push_back(ib.transform.apply(r));
          }
          fp.layers |= child.layers;
          for (const Rect& r : child.naming) {
            fp.naming.push_back(ib.transform.apply(r));
          }
        },
        [&](const InstanceRecord& i) { b_rest.push_back(i); },
        [&](const InstanceRecord& i) { a_rest.push_back(i); });
    const auto placed = [&](const LibrarySnapshot& s, Extents& extents,
                            const InstanceRecord& i, bool geometry_too) {
      const Extent& e = extent(s, extents, i.child);
      if (geometry_too) {
        fp.geometry.push_back(i.transform.apply(s.cells.at(i.child).fp.bbox));
        fp.layers |= e.layers;
      }
      if (!e.labels.empty()) fp.naming.push_back(i.transform.apply(e.labels));
    };
    match_sorted(
        b_rest, a_rest, place_less,
        [&](const InstanceRecord& ib, const InstanceRecord& ia) {
          const Footprint& child = of(ib.child);
          for (const Rect& r : child.geometry) {
            fp.geometry.push_back(ib.transform.apply(r));
          }
          fp.layers |= child.layers;
          placed(before_, before_extents_, ib, false);
          placed(after_, after_extents_, ia, false);
        },
        [&](const InstanceRecord& i) {
          placed(before_, before_extents_, i, true);
        },
        [&](const InstanceRecord& i) {
          placed(after_, after_extents_, i, true);
        });
    return fp;
  }

  /// What a placement of a cell can touch: the bounding box of every
  /// label point in its subtree (empty without labels) and the mask layers
  /// its subtree draws on.
  struct Extent {
    Rect labels;
    std::uint32_t layers = 0;
  };
  using Extents = std::map<std::string, Extent>;

  static const Extent& extent(const LibrarySnapshot& s, Extents& memo,
                              const std::string& name) {
    const auto seen = memo.find(name);
    if (seen != memo.end()) return seen->second;
    const CellRecord& c = s.cells.at(name);
    Extent e;
    for (const layout::TextLabel& l : c.labels) {
      e.labels = e.labels.bound(point_rect(l.at));
    }
    for (const layout::Shape& sh : c.shapes) e.layers |= layer_bit(sh.layer);
    for (const InstanceRecord& i : c.instances) {
      const Extent& ce = extent(s, memo, i.child);
      if (!ce.labels.empty()) {
        e.labels = e.labels.bound(i.transform.apply(ce.labels));
      }
      e.layers |= ce.layers;
    }
    return memo.emplace(name, e).first->second;
  }

  const LibrarySnapshot& before_;
  const LibrarySnapshot& after_;
  std::string top_;
  std::map<std::string, Footprint> memo_;
  Extents before_extents_;
  Extents after_extents_;
};

}  // namespace

EditSet diff(const LibrarySnapshot& before, const LibrarySnapshot& after,
             const std::string& top) {
  EditSet edits;
  edits.tech_drc_changed = before.drc_signature != after.drc_signature;
  edits.tech_extract_changed =
      before.extract_signature != after.extract_signature;

  auto b = before.cells.begin();
  auto a = after.cells.begin();
  while (b != before.cells.end() || a != after.cells.end()) {
    if (a == after.cells.end() ||
        (b != before.cells.end() && b->first < a->first)) {
      edits.cells.push_back({b->first, /*added=*/false, /*removed=*/true,
                             /*geometry_changed=*/true,
                             /*naming_changed=*/true});
      ++b;
    } else if (b == before.cells.end() || a->first < b->first) {
      edits.cells.push_back({a->first, /*added=*/true, /*removed=*/false,
                             /*geometry_changed=*/true,
                             /*naming_changed=*/true});
      ++a;
    } else {
      const CellFingerprint& fb = b->second.fp;
      const CellFingerprint& fa = a->second.fp;
      CellEdit e;
      e.cell = a->first;
      e.geometry_changed = fb.geometry != fa.geometry ||
                           fb.flat_shapes != fa.flat_shapes ||
                           !(fb.bbox == fa.bbox);
      e.naming_changed = fb.naming != fa.naming;
      if (e.geometry_changed || e.naming_changed) edits.cells.push_back(e);
      ++b;
      ++a;
    }
  }

  if (!top.empty() && before.cells.count(top) != 0 &&
      after.cells.count(top) != 0) {
    SILC_OBS_SPAN("incr.footprint", "incr");
    FootprintDiff fd(before, after, top);
    const Footprint& fp = fd.of(top);
    edits.has_footprint = true;
    edits.geometry_footprint = geom::RectSet(fp.geometry);
    edits.geometry_layers = fp.layers;
    edits.naming_footprint = geom::RectSet(fp.naming);
  }
  return edits;
}

const char* to_string(IncrPath p) {
  switch (p) {
    case IncrPath::Verbatim: return "verbatim";
    case IncrPath::TopHit: return "top-hit";
    case IncrPath::Footprint: return "footprint";
    case IncrPath::Full: return "full";
    case IncrPath::Guard: return "guard";
    case IncrPath::FlatFallback: return "flat-fallback";
  }
  return "?";
}

}  // namespace silc::core
