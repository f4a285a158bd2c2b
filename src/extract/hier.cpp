// Hierarchical extraction entry point: a whole-cell netlist cache in front
// of one flat connectivity solve, plus the windowed re-stitch the
// incremental footprint path uses.
//
// A cold extraction flattens the cell once and solves it whole (solve), then
// files the partial netlist (CellNet) under the cell's key. It does not
// extract cell by cell: on an assembled chip the interaction windows
// between instances cover most of the area, and stitching them costs more
// than the flat solve. The reuse that pays is whole-design: a session's
// undo, or its store replay.
//
// The footprint path (stitch_windows) re-solves only where an edit changed
// the chip, carrying the baseline top's CellNet over everywhere else:
//
//   * Windows grow to a *fixpoint*: any transistor channel (poly ∩ diff −
//     buried), contact-cut group or buried-window group that reaches a
//     window — the baseline's own or one recomputed from the live geometry
//     near the windows — is pulled in whole. After the fixpoint, every such
//     component is either wholly inside the window region (with halo) or a
//     full halo away from it, so the window solve sees whole transistors
//     and whole contacts, and the baseline verdicts it displaces were
//     decided entirely outside.
//
//   * Baseline nodes are carried over as geometry, not trusted as nodes:
//     a node the windows cut leaves its region minus the windows,
//     re-labelled into connected fragments per layer and re-joined by its
//     contact/buried groups that survive outside the windows. Fragments
//     meet the window's freshly solved pieces along the window boundary (a
//     shared cut edge), and a union-find over fragments + window nodes
//     rebuilds exactly the connectivity flat extraction computes.
//
//   * Identity is by intrinsic geometry. Node anchors (extract.hpp) are
//     decomposition-independent, so fragments and clipped window pieces —
//     two different rectangle covers — yield the same canonical netlist as
//     one flat solve.
#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cancel.hpp"
#include "extract/connect.hpp"
#include "extract/extract.hpp"
#include "extract/hier.hpp"
#include "fault/fault.hpp"
#include "geom/fnv.hpp"
#include "store/store.hpp"

namespace silc::extract {

using detail::AnchorTable;
using detail::Connectivity;
using detail::RawLayers;
using detail::Warning;
using geom::Coord;
using geom::Point;
using geom::Rect;
using geom::RectSet;
using geom::Transform;
using layout::Cell;
using layout::Instance;
using tech::Tech;

/// One unique cell's partial extraction, in cell-local coordinates. The
/// pieces are an exact disjoint rectangle cover of every conducting node's
/// region (including all descendants), which is all a parent needs to
/// stitch: regions, not decompositions, carry the contract.
struct CellNet {
  struct Piece {
    std::uint8_t cls = 0;  // detail::kDiff / kPoly / kMetal
    Rect rect{};
    int node = -1;
  };
  struct Label {
    std::string text;  // hierarchical within this cell ("bit3.out")
    tech::Layer layer{};
    Point at{};
    int node = -1;  // -1: not over any conductor here (parent may re-bind)
  };

  std::vector<Piece> pieces;
  int node_count = 0;
  /// Transistors stay protos (per-side candidate node sets) until the
  /// top-level finalize: axis priority and candidate tie-breaks are
  /// frame-dependent, so they must be decided once, in the global frame.
  std::vector<detail::ProtoTransistor> transistors;
  std::vector<detail::Junction> junctions;  // contact/buried groups (subtree)
  std::vector<Warning> warnings; // structured, local coordinates
  std::vector<Label> labels;
};

// ------------------------------------------------------------ the cache --

bool operator<(const NetlistKey& a, const NetlistKey& b) {
  if (a.geometry != b.geometry) return a.geometry < b.geometry;
  if (a.naming != b.naming) return a.naming < b.naming;
  if (a.shapes != b.shapes) return a.shapes < b.shapes;
  if (a.tech_sig != b.tech_sig) return a.tech_sig < b.tech_sig;
  return std::tie(a.bbox.x0, a.bbox.y0, a.bbox.x1, a.bbox.y1) <
         std::tie(b.bbox.x0, b.bbox.y0, b.bbox.x1, b.bbox.y1);
}

std::uint64_t NetlistTraits::bytes(const CellNet& n) {
  std::uint64_t b = sizeof(CellNet);
  b += n.pieces.size() * sizeof(CellNet::Piece);
  b += n.transistors.size() * sizeof(detail::ProtoTransistor);
  b += n.junctions.size() * sizeof(detail::Junction);
  for (const Warning& w : n.warnings) b += sizeof(Warning) + w.text.size();
  for (const CellNet::Label& l : n.labels) {
    b += sizeof(CellNet::Label) + l.text.size();
  }
  return b;
}

/// Content hash over the stable fields of a partial netlist (never raw
/// struct bytes — padding is indeterminate). FNV-1a; it need not cover
/// every field byte-perfectly, only be deterministic for a given entry, so
/// a flipped stored checksum is always detected on hit.
std::uint64_t NetlistTraits::checksum(const CellNet& n) {
  geom::Fnv f;
  f.mix(n.pieces.size());
  for (const CellNet::Piece& p : n.pieces) {
    f.mix(p.cls);
    f.mix(static_cast<std::uint64_t>(p.rect.x0));
    f.mix(static_cast<std::uint64_t>(p.rect.y0));
    f.mix(static_cast<std::uint64_t>(p.rect.x1));
    f.mix(static_cast<std::uint64_t>(p.rect.y1));
    f.mix(static_cast<std::uint64_t>(p.node));
  }
  f.mix(static_cast<std::uint64_t>(n.node_count));
  f.mix(n.transistors.size());
  f.mix(n.junctions.size());
  f.mix(n.warnings.size());
  for (const Warning& w : n.warnings) f.mix_str(w.text);
  f.mix(n.labels.size());
  for (const CellNet::Label& l : n.labels) {
    f.mix_str(l.text);
    f.mix(static_cast<std::uint64_t>(l.at.x));
    f.mix(static_cast<std::uint64_t>(l.at.y));
    f.mix(static_cast<std::uint64_t>(l.node));
  }
  return f.h;
}

// Persistence: field-by-field serialization of the full CellNet (never
// raw structs). Every field a re-stitch consumes must round-trip — the
// per-side candidate vectors of the proto transistors included, or a warm
// top would finalize its devices differently than a cold one.

void NetlistTraits::encode_key(store::Writer& w, const Key& k) {
  w.u64(k.tech_sig);
  w.u64(k.geometry);
  w.u64(k.naming);
  w.u64(k.shapes);
  w.rect(k.bbox);
}

NetlistKey NetlistTraits::decode_key(store::Reader& r) {
  Key k;
  k.tech_sig = r.u64();
  k.geometry = r.u64();
  k.naming = r.u64();
  k.shapes = r.u64();
  k.bbox = r.rect();
  return k;
}

std::string NetlistTraits::encode(const CellNet& n) {
  store::Writer w;
  w.u64(n.pieces.size());
  for (const CellNet::Piece& p : n.pieces) {
    w.u8(p.cls);
    w.rect(p.rect);
    w.i32(p.node);
  }
  w.i32(n.node_count);
  const auto candidates = [&w](const std::vector<int>& c) {
    w.u64(c.size());
    for (const int v : c) w.i32(v);
  };
  w.u64(n.transistors.size());
  for (const detail::ProtoTransistor& t : n.transistors) {
    w.rect(t.channel);
    w.u8(static_cast<std::uint8_t>(t.type));
    candidates(t.gate);
    candidates(t.left);
    candidates(t.right);
    candidates(t.bottom);
    candidates(t.top);
  }
  w.u64(n.junctions.size());
  for (const detail::Junction& j : n.junctions) {
    w.rect(j.bbox);
    w.u8(j.buried ? 1 : 0);
  }
  w.u64(n.warnings.size());
  for (const Warning& wn : n.warnings) {
    w.u8(static_cast<std::uint8_t>(wn.kind));
    w.rect(wn.where);
    w.str(wn.text);
    w.u8(static_cast<std::uint8_t>(wn.layer));
  }
  w.u64(n.labels.size());
  for (const CellNet::Label& l : n.labels) {
    w.str(l.text);
    w.u8(static_cast<std::uint8_t>(l.layer));
    w.point(l.at);
    w.i32(l.node);
  }
  return w.take();
}

std::shared_ptr<const CellNet> NetlistTraits::decode(
    const std::string& payload) {
  store::Reader r(payload);
  auto n = std::make_shared<CellNet>();
  const std::uint64_t pieces = r.u64();
  if (!r.ok() || pieces > r.remaining()) return nullptr;
  n->pieces.reserve(pieces);
  for (std::uint64_t i = 0; i < pieces; ++i) {
    CellNet::Piece p;
    p.cls = r.u8();
    p.rect = r.rect();
    p.node = r.i32();
    n->pieces.push_back(p);
  }
  n->node_count = r.i32();
  const auto candidates = [&r](std::vector<int>& c) {
    const std::uint64_t k = r.u64();
    if (!r.ok() || k > r.remaining()) return false;
    c.reserve(k);
    for (std::uint64_t i = 0; i < k; ++i) c.push_back(r.i32());
    return true;
  };
  const std::uint64_t transistors = r.u64();
  if (!r.ok() || transistors > r.remaining()) return nullptr;
  n->transistors.reserve(transistors);
  for (std::uint64_t i = 0; i < transistors; ++i) {
    detail::ProtoTransistor t;
    t.channel = r.rect();
    t.type = static_cast<Device>(r.u8());
    if (!candidates(t.gate) || !candidates(t.left) || !candidates(t.right) ||
        !candidates(t.bottom) || !candidates(t.top)) {
      return nullptr;
    }
    n->transistors.push_back(std::move(t));
  }
  const std::uint64_t junctions = r.u64();
  if (!r.ok() || junctions > r.remaining()) return nullptr;
  n->junctions.reserve(junctions);
  for (std::uint64_t i = 0; i < junctions; ++i) {
    detail::Junction j;
    j.bbox = r.rect();
    j.buried = r.u8() != 0;
    n->junctions.push_back(j);
  }
  const std::uint64_t warnings = r.u64();
  if (!r.ok() || warnings > r.remaining()) return nullptr;
  n->warnings.reserve(warnings);
  for (std::uint64_t i = 0; i < warnings; ++i) {
    Warning wn;
    wn.kind = static_cast<Warning::Kind>(r.u8());
    wn.where = r.rect();
    wn.text = r.str();
    wn.layer = static_cast<tech::Layer>(r.u8());
    n->warnings.push_back(std::move(wn));
  }
  const std::uint64_t labels = r.u64();
  if (!r.ok() || labels > r.remaining()) return nullptr;
  n->labels.reserve(labels);
  for (std::uint64_t i = 0; i < labels; ++i) {
    CellNet::Label l;
    l.text = r.str();
    l.layer = static_cast<tech::Layer>(r.u8());
    l.at = r.point();
    l.node = r.i32();
    n->labels.push_back(std::move(l));
  }
  if (!r.done()) return nullptr;  // malformed record: skip it
  return n;
}

// ------------------------------------------------------------ the engine --

namespace {

/// The stitch halo: how far a window reaches for the components it must
/// hold whole.
Coord halo(const Tech& t) { return std::max<Coord>(t.lambda, 2); }

/// Bind labels against a stitched piece list: smallest-anchor node whose
/// piece on the label's layer contains the point, or -1. Appends the bound
/// labels to `out_labels`. One pass over the pieces, each visiting the
/// labels inside its x range.
void resolve_against(const std::vector<CellNet::Piece>& pieces,
                     const std::vector<NodeAnchor>& anchors,
                     std::vector<CellNet::Label> labels,
                     std::vector<CellNet::Label>& out_labels) {
  if (labels.empty()) return;
  std::vector<std::size_t> by_x(labels.size());
  std::iota(by_x.begin(), by_x.end(), std::size_t{0});
  std::sort(by_x.begin(), by_x.end(), [&](std::size_t a, std::size_t b) {
    return labels[a].at.x < labels[b].at.x;
  });
  std::vector<std::vector<int>> cands(labels.size());
  for (const CellNet::Piece& p : pieces) {
    auto it = std::lower_bound(
        by_x.begin(), by_x.end(), p.rect.x0,
        [&](std::size_t i, Coord x) { return labels[i].at.x < x; });
    for (; it != by_x.end() && labels[*it].at.x <= p.rect.x1; ++it) {
      const CellNet::Label& l = labels[*it];
      if (detail::class_of(l.layer) != p.cls || !p.rect.contains(l.at)) {
        continue;
      }
      std::vector<int>& c = cands[*it];
      if (std::find(c.begin(), c.end(), p.node) == c.end()) c.push_back(p.node);
    }
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i].node = detail::pick_candidate(cands[i], anchors);
    out_labels.push_back(std::move(labels[i]));
  }
}

/// One connectivity solve over flattened geometry: the partial netlist of
/// `flat`, each label bound to the least-anchored node under its point
/// (-1 when it sits over no conductor).
CellNet solve(const layout::Flattened& flat) {
  const Connectivity cx = connect(RawLayers::from_shapes(flat.shapes));
  CellNet out;
  out.node_count = cx.node_count;
  for (int cls = 0; cls < detail::kClasses; ++cls) {
    for (std::size_t i = 0; i < cx.rects[cls].size(); ++i) {
      out.pieces.push_back({static_cast<std::uint8_t>(cls), cx.rects[cls][i],
                            cx.node_of[cls][i]});
    }
  }
  out.transistors = cx.protos;
  out.junctions = cx.junctions;
  out.warnings = cx.warnings;
  std::vector<CellNet::Label> labels;
  labels.reserve(flat.labels.size());
  for (const layout::FlatLabel& l : flat.labels) {
    labels.push_back({l.text, l.layer, l.at, -1});
  }
  resolve_against(out.pieces, cx.anchors, std::move(labels), out.labels);
  return out;
}

/// Bounding box (grown by one unit) of every label point in a cell's
/// subtree; empty when the subtree carries no labels.
Rect label_extent(const Cell& c, std::map<const Cell*, Rect>& memo) {
  const auto seen = memo.find(&c);
  if (seen != memo.end()) return seen->second;
  Rect e;
  for (const layout::TextLabel& l : c.labels()) {
    e = e.bound({l.at.x - 1, l.at.y - 1, l.at.x + 1, l.at.y + 1});
  }
  for (const Instance& i : c.instances()) {
    const Rect ce = label_extent(*i.cell, memo);
    if (!ce.empty()) e = e.bound(i.transform.apply(ce));
  }
  memo.emplace(&c, e);
  return e;
}

/// Append every label of `c`'s subtree whose point lies in `wx`, named as
/// layout::flatten_with_labels names it (the top's ports are not labels
/// here: finalize adds them).
void live_labels(const Cell& c, const RectSet& wx,
                 std::vector<CellNet::Label>& out) {
  std::map<const Cell*, Rect> extents;
  const Rect wb = wx.bbox();
  const auto walk = [&](const auto& self, const Cell& cell, const Transform& t,
                        const std::string& prefix) -> void {
    for (const layout::TextLabel& l : cell.labels()) {
      const Point p = t.apply(l.at);
      if (wx.contains(p)) out.push_back({prefix + l.text, l.layer, p, -1});
    }
    for (const Instance& i : cell.instances()) {
      const Rect e = label_extent(*i.cell, extents);
      if (e.empty()) continue;
      const Transform ct = t * i.transform;
      const Rect placed = ct.apply(e);
      if (!wb.touches(placed) || !wx.touches(placed)) continue;
      self(self, *i.cell, ct, prefix + i.name + ".");
    }
  };
  walk(walk, c, Transform{}, "");
}

/// Grow the base windows `wx` to the fixpoint: pull whole semantic
/// components (transistor channels, contact and buried groups, of `base`
/// and of the live geometry near the windows) into the window region until
/// everything within the halo of it is wholly inside it. Returns the live
/// raw layers near the final windows. Soup collection and component
/// labelling are the expensive part, so the loop is split: the outer level
/// refreshes the soup, the inner level re-tests the (unchanging) candidate
/// bboxes against the growing windows until no pull fires, and only then
/// is the soup refreshed to verify — the same least fixpoint as
/// recollecting every round, with the fewest collections.
RawLayers grow_windows(const Cell& c, const CellNet& base, Coord h,
                       RectSet& wx) {
  SILC_OBS_SPAN("extract.stitch.fixpoint:" + c.name(), "extract");
  std::vector<Rect> candidates;
  for (const detail::ProtoTransistor& t : base.transistors) {
    candidates.push_back(t.channel);
  }
  for (const detail::Junction& j : base.junctions) candidates.push_back(j.bbox);
  const std::size_t fixed_candidates = candidates.size();
  RawLayers raw;
  for (;;) {
    core::check_cancel("extract.hier.window");
    SILC_FAULT_POINT("extract.hier.window");
    std::vector<layout::Shape> soup;
    layout::collect_shapes_near(c, Transform{}, wx.dilated(h), soup);
    raw = RawLayers::from_shapes(soup);
    candidates.resize(fixed_candidates);
    const RectSet pullable[] = {raw.channels(), raw.contact, raw.buried};
    for (const RectSet& set : pullable) {
      for (const auto& comp : set.components()) {
        Rect bb;
        for (const Rect& r : comp) bb = bb.bound(r);
        candidates.push_back(bb);
      }
    }
    bool outer_grew = false;
    for (;;) {
      RectSet added;
      for (const Rect& bb : candidates) {
        const Rect grown = bb.inflated(h);
        if (!wx.touches(grown) || wx.covers(grown)) continue;
        added.add(grown);
      }
      if (added.empty()) break;
      outer_grew = true;
      wx = wx.unite(added);
    }
    if (!outer_grew) return raw;
  }
}

/// The footprint path (see detail::restitch). Inside the grown windows
/// connectivity is re-solved over the live geometry; outside, `base` is
/// carried over as geometry: a node no window reaches keeps its pieces as
/// one element, a node a window cuts leaves per-layer fragments that its
/// surviving contact and buried groups re-join. A global union-find over
/// window nodes and base elements rebuilds exactly the connectivity flat
/// extraction computes: node anchors (extract.hpp) are intrinsic, so the
/// window's clipped pieces and the cut fragments — two different covers
/// of one region — finalize to the same canonical netlist.
CellNet stitch_windows(const Cell& c, const CellNet& base, RectSet wx, Coord h) {
  const RawLayers raw = grow_windows(c, base, h, wx);
  SILC_OBS_COUNT("extract.windows", wx.rects().size());
  SILC_OBS_COUNT("extract.window_area", wx.area());
  SILC_OBS_SPAN("extract.stitch:" + c.name(), "extract");

  // Inside the windows: a fresh connectivity solve over the true combined
  // geometry, clipped to the window region.
  const Connectivity wc = [&] {
    SILC_OBS_SPAN("extract.stitch.connect:" + c.name(), "extract");
    return connect(raw.clipped(wx));
  }();
  detail::UnionFind dsu;  // window nodes first, then base elements
  for (int i = 0; i < wc.node_count; ++i) dsu.add();

  struct FragRect {
    std::uint8_t cls = 0;
    Rect rect{};
    int elem = -1;
    int node = -1;  // the base node it was cut from
  };
  constexpr int kEmpty = -2;
  constexpr int kSplit = -1;
  const auto nodes = static_cast<std::size_t>(base.node_count);
  std::vector<int> whole(nodes, kEmpty);  // element id, kSplit or kEmpty
  std::vector<FragRect> split;            // every split node's fragments
  std::vector<Rect> split_rects;          // parallel to `split`
  CellNet out;

  {
    SILC_OBS_SPAN("extract.stitch.frags:" + c.name(), "extract");
    // Each node is tested against the windows once, by its bbox; only a
    // node whose bbox a window reaches has its pieces tested one by one.
    std::vector<Rect> box(nodes);
    for (const CellNet::Piece& p : base.pieces) {
      Rect& b = box[static_cast<std::size_t>(p.node)];
      b = b.bound(p.rect);
    }
    std::vector<char> reached(nodes);
    for (std::size_t n = 0; n < nodes; ++n) {
      reached[n] = !box[n].empty() && wx.touches(box[n]);
    }
    std::vector<std::vector<std::size_t>> cut_pieces(nodes);
    for (std::size_t i = 0; i < base.pieces.size(); ++i) {
      const auto n = static_cast<std::size_t>(base.pieces[i].node);
      if (reached[n] != 0) cut_pieces[n].push_back(i);
    }
    for (std::size_t n = 0; n < nodes; ++n) {
      const std::vector<std::size_t>& mine = cut_pieces[n];
      if (std::any_of(mine.begin(), mine.end(), [&](std::size_t i) {
            return wx.touches(base.pieces[i].rect);
          })) {
        whole[n] = kSplit;
      } else if (!box[n].empty()) {
        whole[n] = dsu.add();
      }
    }
    // Untouched nodes: their pieces carried over in bulk.
    out.pieces.reserve(base.pieces.size());
    for (const CellNet::Piece& p : base.pieces) {
      const int w = whole[static_cast<std::size_t>(p.node)];
      if (w >= 0) out.pieces.push_back({p.cls, p.rect, w});  // node settled below
    }
    // Split nodes: per layer, region minus windows re-labelled into
    // connected fragments (the baseline's node-level unions are not
    // trusted across the window boundary — its surviving contact/buried
    // groups re-join them below). Only the pieces the windows reach are
    // cut; the rest stay as they are, so the fragments are one disjoint
    // cover of the region outside. Each cut subtracts only the window
    // rects that reach it.
    for (std::size_t n = 0; n < nodes; ++n) {
      if (whole[n] != kSplit) continue;
      for (int cls = 0; cls < detail::kClasses; ++cls) {
        std::vector<Rect> rem;
        std::vector<Rect> cut;
        std::vector<Rect> nwx;
        for (const std::size_t i : cut_pieces[n]) {
          const CellNet::Piece& p = base.pieces[i];
          if (p.cls != cls) continue;
          const std::vector<Rect> near = wx.overlapping(p.rect);
          (near.empty() ? rem : cut).push_back(p.rect);
          nwx.insert(nwx.end(), near.begin(), near.end());
        }
        if (rem.empty() && cut.empty()) continue;
        if (!cut.empty()) {
          const RectSet left =
              RectSet(std::move(cut)).subtract(RectSet(std::move(nwx)));
          rem.insert(rem.end(), left.rects().begin(), left.rects().end());
        }
        const std::vector<int> labels = geom::label_components(rem);
        const int comps = labels.empty()
                              ? 0
                              : *std::max_element(labels.begin(), labels.end()) + 1;
        std::vector<int> elem_of(static_cast<std::size_t>(comps));
        for (int& e : elem_of) e = dsu.add();
        for (std::size_t i = 0; i < rem.size(); ++i) {
          const int elem = elem_of[static_cast<std::size_t>(labels[i])];
          split.push_back({static_cast<std::uint8_t>(cls), rem[i], elem,
                           static_cast<int>(n)});
          split_rects.push_back(rem[i]);
          out.pieces.push_back({static_cast<std::uint8_t>(cls), rem[i], elem});
        }
      }
    }
  }
  const geom::RectGrid sgrid(split_rects);

  // Surviving junctions re-join the split fragments they overlap (each
  // junction's pieces all belong to one base node, so this only
  // reconnects within a node — exactly the unions the subtraction
  // discarded but the windows did not displace).
  for (const detail::Junction& j : base.junctions) {
    if (wx.touches(j.bbox)) continue;  // displaced: the window re-owns it
    int first = -1;
    sgrid.for_touching(split_rects, j.bbox, [&](int i) {
      const FragRect& fr = split[static_cast<std::size_t>(i)];
      if (!j.joins(fr.cls) || !fr.rect.overlaps(j.bbox)) return;
      if (first < 0) {
        first = fr.elem;
      } else {
        dsu.unite(first, fr.elem);
      }
    });
  }

  // Window pieces into the result, and boundary stitching: a window piece
  // and a fragment that share a cut edge on the same layer are one net
  // (their regions partition the global conducting region, so the shared
  // edge is exactly where flat extraction sees one region).
  for (int cls = 0; cls < detail::kClasses; ++cls) {
    for (std::size_t i = 0; i < wc.rects[cls].size(); ++i) {
      const Rect& wr = wc.rects[cls][i];
      const int welem = wc.node_of[cls][i];
      out.pieces.push_back({static_cast<std::uint8_t>(cls), wr, welem});
      sgrid.for_touching(split_rects, wr, [&](int bi) {
        const FragRect& fr = split[static_cast<std::size_t>(bi)];
        if (fr.cls == cls && fr.rect.edge_connected(wr)) {
          dsu.unite(welem, fr.elem);
        }
      });
    }
  }

  SILC_OBS_SPAN("extract.stitch.tail:" + c.name(), "extract");
  // Transistors: base protos whose channel the windows never reach are
  // carried over (side candidates re-bound to elements); the window solve
  // re-derives every channel the windows touch. All stay protos — axis and
  // terminals resolve in finalize.
  std::vector<detail::ProtoTransistor> pending;
  pending.reserve(base.transistors.size() + wc.protos.size());
  for (const detail::ProtoTransistor& lt : base.transistors) {
    if (wx.touches(lt.channel)) continue;  // the window re-owns this channel
    const auto rebind = [&](const std::vector<int>& ns, int cls,
                            const Rect& probe) {
      std::vector<int> elems;
      bool any_split = false;
      for (const int n : ns) {
        const int w = whole[static_cast<std::size_t>(n)];
        if (w >= 0) elems.push_back(w);
        any_split = any_split || w == kSplit;
      }
      if (any_split) {
        sgrid.for_touching(split_rects, probe, [&](int i) {
          const FragRect& fr = split[static_cast<std::size_t>(i)];
          if (fr.cls == cls && fr.rect.overlaps(probe) &&
              std::find(ns.begin(), ns.end(), fr.node) != ns.end()) {
            elems.push_back(fr.elem);
          }
        });
      }
      return elems;
    };
    const Rect& ch = lt.channel;
    detail::ProtoTransistor p;
    p.channel = ch;
    p.type = lt.type;
    p.gate = rebind(lt.gate, detail::kPoly, ch);
    p.left = rebind(lt.left, detail::kDiff, {ch.x0 - 1, ch.y0, ch.x0, ch.y1});
    p.right = rebind(lt.right, detail::kDiff, {ch.x1, ch.y0, ch.x1 + 1, ch.y1});
    p.bottom = rebind(lt.bottom, detail::kDiff, {ch.x0, ch.y0 - 1, ch.x1, ch.y0});
    p.top = rebind(lt.top, detail::kDiff, {ch.x0, ch.y1, ch.x1, ch.y1 + 1});
    pending.push_back(std::move(p));
  }
  // Window protos: wc node ids are already union-find element ids.
  pending.insert(pending.end(), wc.protos.begin(), wc.protos.end());

  // Settle the union-find into dense final nodes (deterministic: element
  // ids were assigned in deterministic order).
  std::vector<int> final_of_root(dsu.parent.size(), -1);
  std::vector<int> final_of_elem(dsu.parent.size());
  for (std::size_t e = 0; e < dsu.parent.size(); ++e) {
    int& f = final_of_root[static_cast<std::size_t>(dsu.find(static_cast<int>(e)))];
    if (f < 0) f = out.node_count++;
    final_of_elem[e] = f;
  }
  for (CellNet::Piece& p : out.pieces) {
    p.node = final_of_elem[static_cast<std::size_t>(p.node)];
  }

  // Final anchors over the stitched pieces (label binding needs them;
  // transistor candidate sets just renumber into final node ids).
  AnchorTable at(static_cast<std::size_t>(out.node_count));
  for (const CellNet::Piece& p : out.pieces) at.add(p.node, p.cls, p.rect);
  const std::vector<NodeAnchor> anchors = at.take();
  for (detail::ProtoTransistor& p : pending) {
    for (std::vector<int>* side : {&p.gate, &p.left, &p.right, &p.bottom, &p.top}) {
      for (int& e : *side) e = final_of_elem[static_cast<std::size_t>(e)];
      std::sort(side->begin(), side->end());
      side->erase(std::unique(side->begin(), side->end()), side->end());
    }
  }
  out.transistors = std::move(pending);

  // Junctions: the surviving base groups plus the window's own — together,
  // every contact/buried group of the chip, each exactly once.
  for (const detail::Junction& j : base.junctions) {
    if (!wx.touches(j.bbox)) out.junctions.push_back(j);
  }
  out.junctions.insert(out.junctions.end(), wc.junctions.begin(),
                       wc.junctions.end());

  // Warnings: ownership follows the same window test as the geometry that
  // produced them.
  for (const Warning& w : base.warnings) {
    if (!wx.touches(w.where)) out.warnings.push_back(w);
  }
  out.warnings.insert(out.warnings.end(), wc.warnings.begin(),
                      wc.warnings.end());

  // Labels: outside the windows, carried over against their element; inside
  // them, read from the live layout and resolved against the stitched
  // pieces (the edit may have re-bound — or carved away — the conductor
  // under them).
  std::vector<CellNet::Label> retry;
  for (const CellNet::Label& l : base.labels) {
    if (wx.contains(l.at)) continue;
    if (l.node < 0) {
      retry.push_back(l);
      continue;
    }
    CellNet::Label kept = l;
    const auto n = static_cast<std::size_t>(l.node);
    if (whole[n] >= 0) {
      kept.node = final_of_elem[static_cast<std::size_t>(whole[n])];
    } else {
      // The node's first fragment (in cut order) holding the point.
      const int cls = detail::class_of(l.layer);
      int first = -1;
      sgrid.for_touching(split_rects, {l.at.x, l.at.y, l.at.x, l.at.y},
                         [&](int i) {
        const FragRect& fr = split[static_cast<std::size_t>(i)];
        if (fr.node == l.node && fr.cls == cls && fr.rect.contains(l.at) &&
            (first < 0 || i < first)) {
          first = i;
        }
      });
      kept.node = first < 0 ? -1
                            : final_of_elem[static_cast<std::size_t>(
                                  split[static_cast<std::size_t>(first)].elem)];
    }
    out.labels.push_back(std::move(kept));
  }
  live_labels(c, wx, retry);
  resolve_against(out.pieces, anchors, std::move(retry), out.labels);
  return out;
}

}  // namespace

Netlist extract_hier(const Cell& top, const Tech& technology,
                     NetlistCache* cache) {
  return detail::finalize(top, *detail::hier_net(top, technology, cache));
}

NetlistCache::Key NetlistCache::key_for(const Cell& c, const Tech& technology) {
  return {technology.extract_signature(), layout::geometry_hash(c),
          layout::naming_hash(c), c.flat_shape_count(), c.bbox()};
}

namespace detail {

std::shared_ptr<const CellNet> hier_net(const Cell& top, const Tech& technology,
                                        NetlistCache* cache) {
  // With no cache there is nothing to look up or keep: no key, no
  // checksummed store, only the miss a cold run still counts.
  NetlistCache::Key key;
  if (cache == nullptr) {
    SILC_OBS_COUNT("extract.cache.misses", 1);
  } else {
    key = NetlistCache::key_for(top, technology);
    if (auto hit = cache->find(key)) return hit;
  }
  SILC_OBS_SPAN("extract.cell:" + top.name(), "extract");
  SILC_OBS_COUNT("extract.cells", 1);
  core::check_cancel("extract.hier.cell");
  SILC_FAULT_POINT("extract.hier.cell");
  layout::Flattened flat = layout::flatten_with_labels(top);
  // The top's ports come last; finalize binds them, and the key omits them.
  flat.labels.resize(flat.labels.size() - top.ports().size());
  auto net = std::make_shared<const CellNet>(solve(flat));
  return cache != nullptr ? cache->store(key, std::move(net)) : net;
}

std::shared_ptr<const CellNet> restitch(const Cell& top,
                                        const Tech& technology,
                                        const CellNet& base,
                                        const RectSet& geometry,
                                        const RectSet& naming) {
  SILC_OBS_SPAN("extract.footprint", "extract");
  return std::make_shared<const CellNet>(
      stitch_windows(top, base, geometry.unite(naming), halo(technology)));
}

Netlist finalize(const Cell& top, const CellNet& cn) {
  Netlist out;
  const auto n = static_cast<std::size_t>(cn.node_count);
  out.node_names.assign(n, "");
  out.node_aliases.assign(n, {});
  AnchorTable at(n);
  for (const CellNet::Piece& p : cn.pieces) at.add(p.node, p.cls, p.rect);
  out.node_anchors = at.take();
  // Protos resolve here, in the global frame — the same axis priority and
  // anchor tie-breaks the flat extractor applies.
  out.transistors.reserve(cn.transistors.size());
  for (const detail::ProtoTransistor& p : cn.transistors) {
    out.transistors.push_back(detail::resolve_proto(p, out.node_anchors));
  }
  for (const Warning& w : cn.warnings) out.warnings.push_back(w.render());

  // The top's ports join in as labels, exactly as
  // layout::flatten_with_labels feeds them to the flat extractor.
  std::vector<CellNet::Label> all = cn.labels;
  if (!top.ports().empty()) {
    std::vector<CellNet::Label> ports;
    for (const layout::Port& p : top.ports()) {
      ports.push_back({p.name, p.layer, p.rect.center(), -1});
    }
    resolve_against(cn.pieces, out.node_anchors, std::move(ports), all);
  }
  for (const CellNet::Label& l : all) {
    if (l.node < 0) {
      out.warnings.push_back(
          Warning{Warning::Kind::LabelMiss, {}, l.text, l.layer}.render());
      continue;
    }
    out.node_aliases[static_cast<std::size_t>(l.node)].push_back(l.text);
  }
  out.canonicalize();
  return out;
}

}  // namespace detail

}  // namespace silc::extract
