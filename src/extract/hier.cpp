// Hierarchical windowed extraction: extract each unique cell once, re-solve
// connectivity only inside interaction windows, stitch the rest.
//
// The decomposition mirrors hierarchical DRC (drc/hier.cpp) but the
// invariant it must preserve is global — electrical connectivity — so the
// machinery is different in three ways:
//
//   * Windows grow to a *fixpoint*. The base windows are where instance
//     bounding boxes, inflated by a small halo, meet each other or the
//     parent's own wiring (all cross-contributor geometry effects —
//     abutment, overlap, parent poly carving a channel out of child diff,
//     parent buried windows un-carving one — live inside them). Then any
//     semantic component that reaches a window is pulled in whole:
//     transistor channels (poly ∩ diff − buried), contact-cut groups, and
//     buried-window groups, both the globally recomputed components near
//     the windows and every cached contributor's own component bboxes.
//     After the fixpoint, every such component is either wholly inside the
//     window region (with halo) or a full halo away from it — so the
//     window analysis sees whole transistors and whole contacts, and the
//     cached verdicts it displaces were decided entirely outside.
//
//   * Cached per-cell netlists are carried over as *fragments*, not nodes.
//     Inside the windows a child's interpretation can be wrong (its diff
//     may globally be a channel), so a cached node is only trusted as
//     geometry: its region minus the windows, re-labelled into connected
//     fragments per layer, re-joined by the cell's own contact/buried
//     groups that survive outside the windows. Fragments meet the
//     window's freshly-solved pieces along the window boundary (a shared
//     cut edge), and a global union-find over fragments + window nodes
//     rebuilds exactly the connectivity flat extraction computes.
//
//   * Identity is by intrinsic geometry. Node anchors (extract.hpp) are
//     decomposition-independent, so transformed child pieces, subtraction
//     fragments, and clipped window pieces — three different rectangle
//     covers — yield the same canonical netlist as one flat solve.
//
// The per-cell results (CellNet: pieces, transistors, junction bboxes,
// labels, structured warnings — everything a parent stitch needs) are
// cached in the NetlistCache by content hash of geometry + labelling, so
// assembled chips stop re-extracting the standard cells they tile, and a
// compile_many batch shares one cache across designs.
#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cancel.hpp"
#include "extract/connect.hpp"
#include "extract/extract.hpp"
#include "extract/hier.hpp"
#include "fault/fault.hpp"
#include "store/store.hpp"

namespace silc::extract {

using detail::AnchorTable;
using detail::Connectivity;
using detail::RawLayers;
using detail::RectGrid;
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

bool operator<(const NetlistCache::Key& a, const NetlistCache::Key& b) {
  if (a.geometry != b.geometry) return a.geometry < b.geometry;
  if (a.naming != b.naming) return a.naming < b.naming;
  if (a.shapes != b.shapes) return a.shapes < b.shapes;
  if (a.tech_sig != b.tech_sig) return a.tech_sig < b.tech_sig;
  return std::tie(a.bbox.x0, a.bbox.y0, a.bbox.x1, a.bbox.y1) <
         std::tie(b.bbox.x0, b.bbox.y0, b.bbox.x1, b.bbox.y1);
}

namespace {

std::uint64_t cellnet_bytes(const CellNet& n) {
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
std::uint64_t cellnet_checksum(const CellNet& n) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t x) {
    h = (h ^ x) * 1099511628211ULL;
  };
  const auto mix_str = [&](const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
  };
  mix(n.pieces.size());
  for (const CellNet::Piece& p : n.pieces) {
    mix(p.cls);
    mix(static_cast<std::uint64_t>(p.rect.x0));
    mix(static_cast<std::uint64_t>(p.rect.y0));
    mix(static_cast<std::uint64_t>(p.rect.x1));
    mix(static_cast<std::uint64_t>(p.rect.y1));
    mix(static_cast<std::uint64_t>(p.node));
  }
  mix(static_cast<std::uint64_t>(n.node_count));
  mix(n.transistors.size());
  mix(n.junctions.size());
  mix(n.warnings.size());
  for (const Warning& w : n.warnings) mix_str(w.text);
  mix(n.labels.size());
  for (const CellNet::Label& l : n.labels) {
    mix_str(l.text);
    mix(static_cast<std::uint64_t>(l.at.x));
    mix(static_cast<std::uint64_t>(l.at.y));
    mix(static_cast<std::uint64_t>(l.node));
  }
  return h;
}

}  // namespace

std::shared_ptr<const CellNet> NetlistCache::find(const Key& k) const {
  const std::lock_guard<std::mutex> lock(m_);
  const auto it = map_.find(k);
  if (it == map_.end()) {
    ++misses_;
    SILC_OBS_COUNT("extract.cache.misses", 1);
    SILC_OBS_INSTANT("extract.cache.miss", "cache");
    return nullptr;
  }
  const std::uint64_t want =
      it->second.net != nullptr ? cellnet_checksum(*it->second.net) : 0;
  if (want != it->second.checksum) {
    // Poisoned entry (memory corruption or an injected fault): evict and
    // report a miss, so the caller re-extracts — degradation is a slower
    // extraction, never a wrong netlist.
    ++poisoned_;
    ++misses_;
    bytes_ -= it->second.bytes;
    SILC_OBS_COUNT("extract.cache.poisoned", 1);
    SILC_OBS_COUNT("extract.cache.bytes",
                   -static_cast<long long>(it->second.bytes));
    SILC_OBS_COUNT("extract.cache.misses", 1);
    SILC_OBS_INSTANT("extract.cache.poisoned", "cache");
    map_.erase(it);
    return nullptr;
  }
  ++hits_;
  it->second.last_use = ++clock_;
  SILC_OBS_COUNT("extract.cache.hits", 1);
  SILC_OBS_INSTANT("extract.cache.hit", "cache");
  return it->second.net;
}

std::shared_ptr<const CellNet> NetlistCache::store(
    const Key& k, std::shared_ptr<const CellNet> net) {
  const std::uint64_t bytes = net != nullptr ? cellnet_bytes(*net) : 0;
  std::uint64_t checksum = net != nullptr ? cellnet_checksum(*net) : 0;
  if (SILC_FAULT_CORRUPT_AT("extract.cache.store")) {
    // Injected poisoning flips the stored checksum (never the payload —
    // concurrent readers may hold it); find() must detect and evict.
    checksum ^= 0x5a5a5a5a5a5a5a5aULL;
  }
  const std::lock_guard<std::mutex> lock(m_);
  const auto [it, fresh] =
      map_.emplace(k, Entry{std::move(net), bytes, checksum, ++clock_});
  if (fresh) {
    bytes_ += bytes;
    SILC_OBS_COUNT("extract.cache.bytes", bytes);
    evict_overflow_locked();
  }
  return it->second.net;  // first writer wins on a race
}

void NetlistCache::set_capacity(std::size_t max_entries) {
  const std::lock_guard<std::mutex> lock(m_);
  capacity_ = max_entries;
  evict_overflow_locked();
}

void NetlistCache::evict_overflow_locked() {
  while (capacity_ > 0 && map_.size() > capacity_) {
    auto victim = map_.begin();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    bytes_ -= victim->second.bytes;
    SILC_OBS_COUNT("extract.cache.bytes",
                   -static_cast<long long>(victim->second.bytes));
    map_.erase(victim);
    ++evictions_;
    SILC_OBS_COUNT("extract.cache.evictions", 1);
  }
}

obs::CacheStats NetlistCache::stats() const {
  const std::lock_guard<std::mutex> lock(m_);
  return {hits_, misses_, evictions_, map_.size(), bytes_};
}

std::size_t NetlistCache::size() const {
  const std::lock_guard<std::mutex> lock(m_);
  return map_.size();
}

std::uint64_t NetlistCache::hits() const {
  const std::lock_guard<std::mutex> lock(m_);
  return hits_;
}

std::uint64_t NetlistCache::misses() const {
  const std::lock_guard<std::mutex> lock(m_);
  return misses_;
}

std::uint64_t NetlistCache::poisoned() const {
  const std::lock_guard<std::mutex> lock(m_);
  return poisoned_;
}

// Persistence: field-by-field serialization of the full CellNet (never
// raw structs). Every field a parent stitch consumes must round-trip —
// the per-side candidate vectors of the proto transistors included, or a
// warm cell would finalize its devices differently than a cold one. Any
// encoding change here requires a store::kSchemaVersion bump.

namespace {

std::string encode_cellnet(const CellNet& n) {
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

std::shared_ptr<const CellNet> decode_cellnet(const std::string& payload) {
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

}  // namespace

void NetlistCache::save_to(store::Store& s) const {
  const std::lock_guard<std::mutex> lock(m_);
  for (const auto& [k, e] : map_) {
    if (e.net == nullptr) continue;
    store::Writer kw;
    kw.u64(k.tech_sig);
    kw.u64(k.geometry);
    kw.u64(k.naming);
    kw.u64(k.shapes);
    kw.rect(k.bbox);
    s.put("extract", kw.take(), encode_cellnet(*e.net));
  }
}

void NetlistCache::load_from(const store::Store& s) {
  s.for_each("extract",
             [this](const std::string& key, const std::string& payload) {
               store::Reader kr(key);
               Key k;
               k.tech_sig = kr.u64();
               k.geometry = kr.u64();
               k.naming = kr.u64();
               k.shapes = kr.u64();
               k.bbox = kr.rect();
               if (!kr.done()) return;
               std::shared_ptr<const CellNet> net = decode_cellnet(payload);
               if (net == nullptr) return;
               store(k, std::move(net));
             });
}

// ------------------------------------------------------------ the engine --

namespace {

/// Fast closed-touch test against a fixed region via a rect grid.
class RegionIndex {
 public:
  explicit RegionIndex(const RectSet& region)
      : rects_(region.rects()), grid_(rects_) {}

  [[nodiscard]] bool touches(const Rect& r) const {
    return grid_.any_touching(r);
  }

 private:
  const std::vector<Rect>& rects_;
  RectGrid grid_;
};

/// Transform a proto transistor into parent coordinates: the channel rect
/// transforms and the four side-candidate sets permute with the
/// orientation (local "bottom" may become global "left", and so on);
/// candidate node ids are untouched.
detail::ProtoTransistor transform_proto(const detail::ProtoTransistor& p,
                                        const Transform& tr) {
  detail::ProtoTransistor o;
  o.channel = tr.apply(p.channel);
  o.type = p.type;
  o.gate = p.gate;
  const std::vector<int>* sides[4] = {&p.left, &p.right, &p.bottom, &p.top};
  const Point dirs[4] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
  for (int k = 0; k < 4; ++k) {
    const Point d = geom::apply(tr.orient, dirs[k]);
    if (d.x < 0) {
      o.left = *sides[k];
    } else if (d.x > 0) {
      o.right = *sides[k];
    } else if (d.y < 0) {
      o.bottom = *sides[k];
    } else {
      o.top = *sides[k];
    }
  }
  return o;
}

class HierExtractor {
 public:
  HierExtractor(const Tech& t, NetlistCache* cache)
      : tech_(t),
        h_(std::max<Coord>(t.lambda, 2)),
        cache_(cache != nullptr ? cache : &local_) {}

  /// The cell's partial netlist: memoized, then cached, then built.
  std::shared_ptr<const CellNet> net_of(const Cell& c) {
    const auto seen = by_cell_.find(&c);
    if (seen != by_cell_.end()) return seen->second;
    const NetlistCache::Key key = NetlistCache::key_for(c, tech_);
    auto net = cache_->find(key);
    if (net == nullptr) {
      net = cache_->store(
          key, std::make_shared<const CellNet>(build(c)));
    }
    by_cell_.emplace(&c, net);
    return net;
  }

 private:
  CellNet build(const Cell& c) {
    SILC_OBS_SPAN("extract.cell:" + c.name(), "extract");
    SILC_OBS_COUNT("extract.cells", 1);
    core::check_cancel("extract.hier.cell");
    SILC_FAULT_POINT("extract.hier.cell");
    if (c.instances().empty()) return own_net(c);
    return stitch(c);
  }

  /// Extraction over a cell's *own* shapes and labels only (a leaf cell,
  /// or the parent-wiring pool contributor of a stitch).
  CellNet own_net(const Cell& c) const {
    const Connectivity cx = connect(RawLayers::from_shapes(c.shapes()));
    CellNet out;
    out.node_count = cx.node_count;
    for (int cls = 0; cls < detail::kClasses; ++cls) {
      for (std::size_t i = 0; i < cx.rects[cls].size(); ++i) {
        out.pieces.push_back({static_cast<std::uint8_t>(cls),
                              cx.rects[cls][i], cx.node_of[cls][i]});
      }
    }
    out.transistors = cx.protos;
    out.junctions = cx.junctions;
    out.warnings = cx.warnings;
    for (const layout::TextLabel& l : c.labels()) {
      const int cls = detail::class_of(l.layer);
      const int node =
          cls < 0 ? -1 : detail::pick_candidate(cx.nodes_at(cls, l.at),
                                                cx.anchors);
      out.labels.push_back({l.text, l.layer, l.at, node});
    }
    return out;
  }

  struct Contrib {
    const CellNet* net = nullptr;
    Transform t;
    std::string prefix;
  };

  CellNet stitch(const Cell& c) {
    // Contributors: the parent's own wiring as one pool, plus each
    // instance's cached subtree.
    const CellNet pool = [&] {
      SILC_OBS_SPAN("extract.stitch.pool:" + c.name(), "extract");
      return own_net(c);
    }();
    std::vector<std::shared_ptr<const CellNet>> owned;
    std::vector<Contrib> contribs;
    contribs.push_back({&pool, Transform{}, ""});
    std::vector<Rect> ibox;
    for (const Instance& i : c.instances()) {
      owned.push_back(net_of(*i.cell));
      contribs.push_back({owned.back().get(), i.transform, i.name + "."});
      ibox.push_back(i.transform.apply(i.cell->bbox()));
    }

    // Base interaction windows: inflated instance bboxes against each
    // other and against the parent's own shapes. Inflating both sides
    // keeps exact abutment (the standard connection-by-abutment case) a
    // non-degenerate window.
    RectSet wx;
    for (std::size_t i = 0; i < ibox.size(); ++i) {
      const Rect bi = ibox[i].inflated(h_);
      for (std::size_t j = i + 1; j < ibox.size(); ++j) {
        const Rect w = bi.intersect(ibox[j].inflated(h_));
        if (!w.empty()) wx.add(w);
      }
      for (const layout::Shape& s : c.shapes()) {
        const Rect w = bi.intersect(s.rect.inflated(h_));
        if (!w.empty()) wx.add(w);
      }
    }
    if (wx.empty()) return concat(contribs);
    return stitch_windows(c, contribs, std::move(wx), /*relabel=*/false);
  }

 public:
  /// The footprint path: `base` is the top's partial netlist before the
  /// edit, `c` the live top. It is the one contributor (identity
  /// transform, no prefix), and the edit's footprints are the base
  /// windows as they are. They need no halo: every footprint rect has an
  /// interior (label points are 2x2 squares), the fixpoint pulls in each
  /// channel, contact and buried group within `h_` of the windows, and a
  /// wire crossing a window edge is cut there into fragments that re-join
  /// the window's pieces along the cut.
  CellNet restitch(const Cell& c, const CellNet& base,
                   const RectSet& geometry, const RectSet& naming) {
    SILC_OBS_SPAN("extract.footprint", "extract");
    return stitch_windows(c, {{&base, Transform{}, ""}},
                          geometry.unite(naming), /*relabel=*/true);
  }

 private:
  /// Stitch `contribs`, whose geometry is the live subtree of `c`: grow
  /// the base windows `wx` to the fixpoint, re-solve connectivity inside
  /// them, and carry every contributor over as fragments outside. With
  /// `relabel`, contributor labels inside the windows are dropped and the
  /// live labels of `c` there are read instead.
  CellNet stitch_windows(const Cell& c, const std::vector<Contrib>& contribs,
                         RectSet wx, bool relabel) {
    // Fixpoint: pull whole semantic components into the window region
    // until everything near it is wholly inside it. Soup collection and
    // component labeling are the expensive part, so the loop is split:
    // the outer level refreshes the soup, the inner level re-tests the
    // (unchanging) candidate bboxes against the growing windows until no
    // pull fires, and only then is the soup refreshed to verify — the
    // same least fixpoint as recollecting every round, reached with the
    // minimum number of collections.
    RawLayers raw;
    {
    SILC_OBS_SPAN("extract.stitch.fixpoint:" + c.name(), "extract");
    std::vector<Rect> candidates;
    for (const Contrib& k : contribs) {
      for (const detail::ProtoTransistor& t : k.net->transistors) {
        candidates.push_back(k.t.apply(t.channel));
      }
      for (const detail::Junction& j : k.net->junctions) {
        candidates.push_back(k.t.apply(j.bbox));
      }
    }
    const std::size_t fixed_candidates = candidates.size();
    for (;;) {
      core::check_cancel("extract.hier.window");
      SILC_FAULT_POINT("extract.hier.window");
      std::vector<layout::Shape> soup;
      layout::collect_shapes_near(c, Transform{}, wx.dilated(h_), soup);
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
        RegionIndex wix(wx);
        RectSet added;
        bool grew = false;
        for (const Rect& bb : candidates) {
          const Rect grown = bb.inflated(h_);
          if (!wix.touches(grown)) continue;
          if (wx.covers(grown)) continue;
          added.add(grown);
          grew = true;
        }
        if (!grew) break;
        outer_grew = true;
        wx = wx.unite(added);
      }
      if (!outer_grew) break;
    }
    }

    SILC_OBS_COUNT("extract.windows", wx.rects().size());
    SILC_OBS_COUNT("extract.window_area", wx.area());
    SILC_OBS_SPAN("extract.stitch:" + c.name(), "extract");

    // Inside the windows: a fresh connectivity solve over the true
    // combined geometry, clipped to the window region.
    const Connectivity wc = [&] {
      SILC_OBS_SPAN("extract.stitch.connect:" + c.name(), "extract");
      return connect(raw.clipped(wx));
    }();
    RegionIndex wix(wx);

    detail::UnionFind dsu;  // window nodes first, then fragments
    for (int i = 0; i < wc.node_count; ++i) dsu.add();

    // Outside: every contributor node carried over as geometry fragments.
    struct FragRect {
      std::uint8_t cls = 0;
      Rect rect{};
      int elem = -1;
      int node = -1;  // the contributor node it was cut from
    };
    struct ContribFrags {
      std::vector<int> whole;  // element id, or -1 when split, -2 when empty
      std::vector<FragRect> split;  // every split node's fragments, by node
      std::vector<Rect> split_rects;  // parallel to `split`, for `grid`
      std::unique_ptr<RectGrid> grid;
    };
    std::vector<ContribFrags> frags(contribs.size());
    CellNet out;

    {
    SILC_OBS_SPAN("extract.stitch.frags:" + c.name(), "extract");
    // Window rects indexed once: each split group below subtracts only the
    // windows that can actually reach it (subtracting a rect that touches
    // nothing is a no-op, and the narrowed operand turns the per-node
    // subtraction from O(all windows) into O(nearby windows)).
    RectGrid wgrid(wx.rects());
    for (std::size_t k = 0; k < contribs.size(); ++k) {
      const CellNet& cn = *contribs[k].net;
      const Transform& tr = contribs[k].t;
      ContribFrags& f = frags[k];
      f.whole.assign(static_cast<std::size_t>(cn.node_count), -2);

      // Transformed pieces, grouped by node.
      std::vector<std::vector<std::pair<std::uint8_t, Rect>>> by_node(
          static_cast<std::size_t>(cn.node_count));
      for (const CellNet::Piece& p : cn.pieces) {
        by_node[static_cast<std::size_t>(p.node)].emplace_back(p.cls,
                                                               tr.apply(p.rect));
      }
      for (std::size_t n = 0; n < by_node.size(); ++n) {
        const auto& prs = by_node[n];
        if (prs.empty()) continue;
        bool touch = false;
        for (const auto& [cls, r] : prs) touch = touch || wix.touches(r);
        if (!touch) {
          // Untouched node: one fragment, verdict carried over whole.
          const int elem = dsu.add();
          f.whole[n] = elem;
          for (const auto& [cls, r] : prs) {
            out.pieces.push_back({cls, r, elem});  // node rewritten later
          }
          continue;
        }
        // Split node: per layer, region minus windows re-labelled into
        // connected fragments (the cached node-level unions are not
        // trusted across the window boundary — the cell's surviving
        // contact/buried groups re-join them below). Only the pieces the
        // windows reach are cut; the rest stay as they are, so the
        // fragments are one disjoint cover of the region outside.
        f.whole[n] = -1;
        for (int cls = 0; cls < detail::kClasses; ++cls) {
          std::vector<Rect> rem;
          std::vector<Rect> cut;
          std::vector<int> near;
          for (const auto& [pc, r] : prs) {
            if (pc != cls) continue;
            const std::size_t before = near.size();
            wgrid.for_touching(r, [&](int wi) { near.push_back(wi); });
            (near.size() == before ? rem : cut).push_back(r);
          }
          if (rem.empty() && cut.empty()) continue;
          if (!cut.empty()) {
            std::sort(near.begin(), near.end());
            near.erase(std::unique(near.begin(), near.end()), near.end());
            std::vector<Rect> nwx;
            nwx.reserve(near.size());
            for (const int wi : near) {
              nwx.push_back(wx.rects()[static_cast<std::size_t>(wi)]);
            }
            const RectSet left =
                RectSet(std::move(cut)).subtract(RectSet(std::move(nwx)));
            rem.insert(rem.end(), left.rects().begin(), left.rects().end());
          }
          const std::vector<int> labels = geom::label_components(rem);
          int max_label = -1;
          for (const int l : labels) max_label = std::max(max_label, l);
          std::vector<int> elem_of(static_cast<std::size_t>(max_label + 1));
          for (int& e : elem_of) e = dsu.add();
          for (std::size_t i = 0; i < rem.size(); ++i) {
            const int elem = elem_of[static_cast<std::size_t>(labels[i])];
            f.split.push_back({static_cast<std::uint8_t>(cls), rem[i], elem,
                               static_cast<int>(n)});
            f.split_rects.push_back(rem[i]);
            out.pieces.push_back(
                {static_cast<std::uint8_t>(cls), rem[i], elem});
          }
        }
      }
      if (f.split.empty()) continue;
      f.grid = std::make_unique<RectGrid>(f.split_rects);

      // Surviving junctions re-join the split fragments they overlap
      // (each junction's pieces all belong to one contributor node, so
      // this only reconnects within a node — exactly the unions the
      // subtraction discarded but the windows did not displace).
      for (const detail::Junction& j : cn.junctions) {
        const Rect jb = contribs[k].t.apply(j.bbox);
        if (wix.touches(jb)) continue;  // displaced: the window re-owns it
        int first = -1;
        f.grid->for_touching(jb, [&](int i) {
          const FragRect& fr = f.split[static_cast<std::size_t>(i)];
          if (!j.joins(fr.cls) || !fr.rect.overlaps(jb)) return;
          if (first < 0) {
            first = fr.elem;
          } else {
            dsu.unite(first, fr.elem);
          }
        });
      }
    }
    }

    // Window pieces into the result, and boundary stitching: a window
    // piece and a fragment that share a cut edge on the same layer are one
    // net (their regions partition the global conducting region, so the
    // shared edge is exactly where flat extraction sees one region).
    {
      std::vector<Rect> brects;
      std::vector<int> belems;
      std::vector<std::uint8_t> bcls;
      for (const ContribFrags& f : frags) {
        for (const FragRect& fr : f.split) {
          brects.push_back(fr.rect);
          belems.push_back(fr.elem);
          bcls.push_back(fr.cls);
        }
      }
      RectGrid bgrid(brects);
      for (int cls = 0; cls < detail::kClasses; ++cls) {
        for (std::size_t i = 0; i < wc.rects[cls].size(); ++i) {
          const Rect& wr = wc.rects[cls][i];
          const int welem = wc.node_of[cls][i];
          out.pieces.push_back(
              {static_cast<std::uint8_t>(cls), wr, welem});
          bgrid.for_touching(wr, [&](int bi) {
            if (bcls[static_cast<std::size_t>(bi)] != cls) return;
            if (!brects[static_cast<std::size_t>(bi)].edge_connected(wr)) return;
            dsu.unite(welem, belems[static_cast<std::size_t>(bi)]);
          });
        }
      }
    }

    SILC_OBS_SPAN("extract.stitch.tail:" + c.name(), "extract");
    // Transistors: contributor protos whose channel the windows never
    // reach are carried over (side candidates re-bound to fragments); the
    // window solve re-derives every channel the windows touch. All stay
    // protos — axis and terminals resolve at the top of the chip.
    std::vector<detail::ProtoTransistor> pending;
    for (std::size_t k = 0; k < contribs.size(); ++k) {
      const CellNet& cn = *contribs[k].net;
      ContribFrags& f = frags[k];
      for (const detail::ProtoTransistor& lt : cn.transistors) {
        const Rect ch = contribs[k].t.apply(lt.channel);
        if (wix.touches(ch)) continue;  // window re-owns this channel
        const detail::ProtoTransistor moved = transform_proto(lt, contribs[k].t);
        const auto candidates = [&](const std::vector<int>& nodes, int cls,
                                    const Rect& probe) {
          std::vector<int> elems;
          bool split = false;
          for (const int node : nodes) {
            const int w = f.whole[static_cast<std::size_t>(node)];
            if (w >= 0) elems.push_back(w);
            split = split || w == -1;
          }
          if (split) {
            f.grid->for_touching(probe, [&](int i) {
              const FragRect& fr = f.split[static_cast<std::size_t>(i)];
              if (fr.cls == cls && fr.rect.overlaps(probe) &&
                  std::find(nodes.begin(), nodes.end(), fr.node) !=
                      nodes.end()) {
                elems.push_back(fr.elem);
              }
            });
          }
          std::sort(elems.begin(), elems.end());
          elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
          return elems;
        };
        detail::ProtoTransistor p;
        p.channel = moved.channel;
        p.type = moved.type;
        const Rect& c2 = moved.channel;
        p.gate = candidates(moved.gate, detail::kPoly, c2);
        p.left = candidates(moved.left, detail::kDiff,
                            {c2.x0 - 1, c2.y0, c2.x0, c2.y1});
        p.right = candidates(moved.right, detail::kDiff,
                             {c2.x1, c2.y0, c2.x1 + 1, c2.y1});
        p.bottom = candidates(moved.bottom, detail::kDiff,
                              {c2.x0, c2.y0 - 1, c2.x1, c2.y0});
        p.top = candidates(moved.top, detail::kDiff,
                           {c2.x0, c2.y1, c2.x1, c2.y1 + 1});
        pending.push_back(std::move(p));
      }
    }
    // Window protos: wc node ids are already union-find element ids.
    for (const detail::ProtoTransistor& pr : wc.protos) pending.push_back(pr);

    // Settle the union-find into dense final nodes (deterministic: element
    // ids were assigned in deterministic order).
    std::map<int, int> node_of_root;
    std::vector<int> final_of_elem(dsu.parent.size());
    for (std::size_t e = 0; e < dsu.parent.size(); ++e) {
      const int root = dsu.find(static_cast<int>(e));
      const auto [it, fresh] =
          node_of_root.emplace(root, static_cast<int>(node_of_root.size()));
      final_of_elem[e] = it->second;
    }
    out.node_count = static_cast<int>(node_of_root.size());
    for (CellNet::Piece& p : out.pieces) {
      p.node = final_of_elem[static_cast<std::size_t>(p.node)];
    }

    // Final anchors over the stitched pieces (label binding needs them;
    // transistor candidate sets just renumber into final node ids).
    AnchorTable at(static_cast<std::size_t>(out.node_count));
    for (const CellNet::Piece& p : out.pieces) at.add(p.node, p.cls, p.rect);
    const std::vector<NodeAnchor> anchors = at.take();
    const auto to_final = [&](std::vector<int>& elems) {
      for (int& e : elems) e = final_of_elem[static_cast<std::size_t>(e)];
      std::sort(elems.begin(), elems.end());
      elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
    };
    for (detail::ProtoTransistor& p : pending) {
      to_final(p.gate);
      to_final(p.left);
      to_final(p.right);
      to_final(p.bottom);
      to_final(p.top);
      out.transistors.push_back(std::move(p));
    }

    // Junctions: the surviving contributor groups plus the window's own —
    // together, every contact/buried group of the subtree, each exactly
    // once.
    for (const Contrib& k : contribs) {
      for (const detail::Junction& j : k.net->junctions) {
        const Rect jb = k.t.apply(j.bbox);
        if (!wix.touches(jb)) out.junctions.push_back({jb, j.buried});
      }
    }
    for (const detail::Junction& j : wc.junctions) out.junctions.push_back(j);

    // Warnings: ownership follows the same window test as the geometry
    // that produced them.
    for (const Contrib& k : contribs) {
      for (const Warning& w : k.net->warnings) {
        Warning moved = w;
        moved.where = k.t.apply(w.where);
        if (!wix.touches(moved.where)) out.warnings.push_back(std::move(moved));
      }
    }
    for (const Warning& w : wc.warnings) out.warnings.push_back(w);

    // Labels: carried over against their fragment when the windows never
    // reach the point; re-resolved against the stitched pieces otherwise
    // (the window may have re-bound — or carved away — the conductor
    // under them). Relabelling reads the windows' labels from the live
    // layout instead of trusting the contributors'.
    std::vector<CellNet::Label> retry;
    for (std::size_t k = 0; k < contribs.size(); ++k) {
      const CellNet& cn = *contribs[k].net;
      ContribFrags& f = frags[k];
      for (const CellNet::Label& l : cn.labels) {
        CellNet::Label moved{contribs[k].prefix + l.text, l.layer,
                             contribs[k].t.apply(l.at), -1};
        const bool inside = wx.contains(moved.at);
        if (relabel && inside) continue;
        if (l.node >= 0 && !inside) {
          const auto ns = static_cast<std::size_t>(l.node);
          if (f.whole[ns] >= 0) {
            moved.node = final_of_elem[static_cast<std::size_t>(f.whole[ns])];
          } else {
            // The node's first fragment (in cut order) holding the point.
            const int cls = detail::class_of(l.layer);
            int first = -1;
            f.grid->for_touching({moved.at.x, moved.at.y, moved.at.x,
                                  moved.at.y},
                                 [&](int i) {
              const FragRect& fr = f.split[static_cast<std::size_t>(i)];
              if (fr.node == l.node && fr.cls == cls &&
                  fr.rect.contains(moved.at) && (first < 0 || i < first)) {
                first = i;
              }
            });
            if (first >= 0) {
              moved.node = final_of_elem[static_cast<std::size_t>(
                  f.split[static_cast<std::size_t>(first)].elem)];
            }
          }
          out.labels.push_back(std::move(moved));
          continue;
        }
        retry.push_back(std::move(moved));
      }
    }
    if (relabel) live_labels(c, wx, retry);
    resolve_against(out.pieces, anchors, std::move(retry), out.labels);
    return out;
  }

  /// Append every label of `c`'s subtree whose point lies in `wx`, named
  /// as layout::flatten_with_labels names it (the top's ports are not
  /// labels here: finalize adds them).
  static void live_labels(const Cell& c, const RectSet& wx,
                          std::vector<CellNet::Label>& out) {
    std::map<const Cell*, Rect> extents;
    const Rect wb = wx.bbox();
    const auto walk = [&](const auto& self, const Cell& cell,
                          const Transform& t, const std::string& prefix) -> void {
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

  /// Bounding box (grown by one unit) of every label point in a cell's
  /// subtree; empty when the subtree carries no labels.
  static Rect label_extent(const Cell& c, std::map<const Cell*, Rect>& memo) {
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

  /// The no-interaction fast path: offset node spaces and transform.
  CellNet concat(const std::vector<Contrib>& contribs) const {
    CellNet out;
    std::vector<CellNet::Label> retry;
    for (const Contrib& k : contribs) {
      const int off = out.node_count;
      for (const CellNet::Piece& p : k.net->pieces) {
        out.pieces.push_back({p.cls, k.t.apply(p.rect), p.node + off});
      }
      for (const detail::ProtoTransistor& t : k.net->transistors) {
        detail::ProtoTransistor o = transform_proto(t, k.t);
        for (std::vector<int>* side :
             {&o.gate, &o.left, &o.right, &o.bottom, &o.top}) {
          for (int& n : *side) n += off;
        }
        out.transistors.push_back(std::move(o));
      }
      for (const detail::Junction& j : k.net->junctions) {
        out.junctions.push_back({k.t.apply(j.bbox), j.buried});
      }
      for (const Warning& w : k.net->warnings) {
        Warning moved = w;
        moved.where = k.t.apply(w.where);
        out.warnings.push_back(std::move(moved));
      }
      for (const CellNet::Label& l : k.net->labels) {
        CellNet::Label moved{k.prefix + l.text, l.layer, k.t.apply(l.at),
                             l.node < 0 ? -1 : l.node + off};
        if (moved.node >= 0) {
          out.labels.push_back(std::move(moved));
        } else {
          // A label over no conductor of its own cell may still sit over
          // another contributor's geometry (flat binds it there).
          retry.push_back(std::move(moved));
        }
      }
      out.node_count += k.net->node_count;
    }
    if (!retry.empty()) {
      AnchorTable at(static_cast<std::size_t>(out.node_count));
      for (const CellNet::Piece& p : out.pieces) at.add(p.node, p.cls, p.rect);
      resolve_against(out.pieces, at.take(), std::move(retry), out.labels);
    }
    return out;
  }

  /// Bind labels against a stitched piece list: smallest-anchor node whose
  /// piece on the label's layer contains the point, or -1. Appends the
  /// bound labels to `out_labels`.
  static void resolve_against(const std::vector<CellNet::Piece>& pieces,
                              const std::vector<NodeAnchor>& anchors,
                              std::vector<CellNet::Label> labels,
                              std::vector<CellNet::Label>& out_labels) {
    if (labels.empty()) return;
    std::vector<Rect> rects;
    rects.reserve(pieces.size());
    for (const CellNet::Piece& p : pieces) rects.push_back(p.rect);
    RectGrid grid(rects);
    for (CellNet::Label& l : labels) {
      const int cls = detail::class_of(l.layer);
      std::vector<int> cands;
      if (cls >= 0) {
        const Rect probe{l.at.x, l.at.y, l.at.x, l.at.y};
        grid.for_touching(probe, [&](int i) {
          const CellNet::Piece& p = pieces[static_cast<std::size_t>(i)];
          if (p.cls != cls || !p.rect.contains(l.at)) return;
          if (std::find(cands.begin(), cands.end(), p.node) == cands.end()) {
            cands.push_back(p.node);
          }
        });
      }
      l.node = detail::pick_candidate(cands, anchors);
      out_labels.push_back(std::move(l));
    }
  }

 public:
  /// Top-of-chip finalization: the cached CellNet becomes a public
  /// canonical Netlist (the top cell's ports join in as labels, exactly as
  /// layout::flatten_with_labels feeds them to the flat extractor).
  static Netlist finalize(const Cell& top, const CellNet& cn) {
    Netlist out;
    const auto n = static_cast<std::size_t>(cn.node_count);
    out.node_names.assign(n, "");
    out.node_aliases.assign(n, {});
    AnchorTable at(n);
    for (const CellNet::Piece& p : cn.pieces) at.add(p.node, p.cls, p.rect);
    out.node_anchors = at.take();
    // Protos resolve here, in the global frame — the same axis priority
    // and anchor tie-breaks the flat extractor applies.
    out.transistors.reserve(cn.transistors.size());
    for (const detail::ProtoTransistor& p : cn.transistors) {
      out.transistors.push_back(detail::resolve_proto(p, out.node_anchors));
    }
    for (const Warning& w : cn.warnings) out.warnings.push_back(w.render());

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

 private:
  const Tech& tech_;
  Coord h_;
  NetlistCache* cache_;
  NetlistCache local_;
  std::map<const Cell*, std::shared_ptr<const CellNet>> by_cell_;
};

}  // namespace

Netlist extract_hier(const Cell& top, const Tech& technology,
                     NetlistCache* cache) {
  HierExtractor hx(technology, cache);
  return HierExtractor::finalize(top, *hx.net_of(top));
}

NetlistCache::Key NetlistCache::key_for(const Cell& c, const Tech& technology) {
  return {technology.extract_signature(), layout::geometry_hash(c),
          layout::naming_hash(c), c.flat_shape_count(), c.bbox()};
}

namespace detail {

std::shared_ptr<const CellNet> hier_net(const Cell& top, const Tech& technology,
                                        NetlistCache& cache) {
  HierExtractor hx(technology, &cache);
  return hx.net_of(top);
}

std::shared_ptr<const CellNet> restitch(const Cell& top,
                                        const Tech& technology,
                                        const CellNet& base,
                                        const RectSet& geometry,
                                        const RectSet& naming) {
  HierExtractor hx(technology, nullptr);
  return std::make_shared<const CellNet>(
      hx.restitch(top, base, geometry, naming));
}

Netlist finalize(const Cell& top, const CellNet& net) {
  return HierExtractor::finalize(top, net);
}

}  // namespace detail

}  // namespace silc::extract
