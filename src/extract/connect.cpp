#include "extract/connect.hpp"

#include <algorithm>
#include <cctype>
#include <map>

namespace silc::extract::detail {

int class_of(tech::Layer l) {
  switch (l) {
    case tech::Layer::Diff: return kDiff;
    case tech::Layer::Poly: return kPoly;
    case tech::Layer::Metal: return kMetal;
    default: return -1;
  }
}

tech::Layer layer_of(int cls) {
  switch (cls) {
    case kDiff: return tech::Layer::Diff;
    case kPoly: return tech::Layer::Poly;
    default: return tech::Layer::Metal;
  }
}

RawLayers RawLayers::from_shapes(const std::vector<layout::Shape>& shapes) {
  RawLayers out;
  for (const layout::Shape& s : shapes) {
    switch (s.layer) {
      case tech::Layer::Diff: out.diff.add(s.rect); break;
      case tech::Layer::Poly: out.poly.add(s.rect); break;
      case tech::Layer::Metal: out.metal.add(s.rect); break;
      case tech::Layer::Contact: out.contact.add(s.rect); break;
      case tech::Layer::Implant: out.implant.add(s.rect); break;
      case tech::Layer::Buried: out.buried.add(s.rect); break;
      default: break;
    }
  }
  return out;
}

RawLayers RawLayers::clipped(const RectSet& w) const {
  RawLayers out;
  out.diff = diff.intersect(w);
  out.poly = poly.intersect(w);
  out.metal = metal.intersect(w);
  out.contact = contact.intersect(w);
  out.implant = implant.intersect(w);
  out.buried = buried.intersect(w);
  return out;
}

RectSet RawLayers::channels() const {
  return poly.intersect(diff).subtract(buried);
}

std::string Warning::render() const {
  switch (kind) {
    case Kind::FloatingContact:
      return "floating contact at " + geom::to_string(where);
    case Kind::NonRectChannel:
      return "non-rectangular channel at " + geom::to_string(where);
    case Kind::NoGate:
      return "channel without gate poly at " + geom::to_string(where);
    case Kind::FewTerminals:
      return "channel with fewer than two diffusion terminals at " +
             geom::to_string(where);
    case Kind::LabelMiss:
      return "label '" + text + "' not over " + std::string(tech::name(layer));
  }
  return "?";
}

int pick_candidate(const std::vector<int>& candidates,
                   const std::vector<NodeAnchor>& anchors) {
  int best = -1;
  for (const int c : candidates) {
    if (best < 0 || anchors[static_cast<std::size_t>(c)] <
                        anchors[static_cast<std::size_t>(best)]) {
      best = c;
    }
  }
  return best;
}

Transistor resolve_proto(const ProtoTransistor& p,
                         const std::vector<NodeAnchor>& anchors) {
  Transistor t;
  t.type = p.type;
  t.channel = p.channel;
  t.vertical = !p.top.empty() && !p.bottom.empty();
  t.gate = pick_candidate(p.gate, anchors);
  t.source = pick_candidate(t.vertical ? p.bottom : p.left, anchors);
  t.drain = pick_candidate(t.vertical ? p.top : p.right, anchors);
  if (t.vertical) {
    t.width = p.channel.width();
    t.length = p.channel.height();
  } else {
    t.width = p.channel.height();
    t.length = p.channel.width();
  }
  return t;
}

AnchorTable::AnchorTable(std::size_t nodes) : best_(nodes * kClasses) {}

void AnchorTable::add(int node, int cls, const Rect& r) {
  if (r.empty()) return;
  Best& b = best_[static_cast<std::size_t>(node) * kClasses +
                  static_cast<std::size_t>(cls)];
  if (!b.set || r.y0 < b.y || (r.y0 == b.y && r.x0 < b.x)) {
    // Within one disjoint cover, the region's bottom band is exactly the
    // rects with minimal y0, and the leftmost of those starts at the
    // region's intrinsic corner — so (min y0, then min x0 at that y0) is
    // decomposition-independent.
    if (!b.set || r.y0 < b.y) {
      b.y = r.y0;
      b.x = r.x0;
    } else {
      b.x = std::min(b.x, r.x0);
    }
    b.set = true;
  }
}

std::vector<NodeAnchor> AnchorTable::take() const {
  const std::size_t n = best_.size() / kClasses;
  std::vector<NodeAnchor> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    bool any = false;
    for (int cls = 0; cls < kClasses; ++cls) {
      const Best& b = best_[i * kClasses + static_cast<std::size_t>(cls)];
      if (!b.set) continue;
      const NodeAnchor cand{b.y, b.x, static_cast<std::uint8_t>(cls)};
      if (!any || cand < out[i]) out[i] = cand;
      any = true;
    }
  }
  return out;
}

namespace {

/// Distinct values, ascending, preserving none of the input order.
void sort_unique(std::vector<int>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

Connectivity connect(const RawLayers& raw) {
  Connectivity out;
  const RectSet channels = raw.channels();
  const RectSet diffc = raw.diff.subtract(channels);
  out.rects[kDiff] = diffc.rects();
  out.rects[kPoly] = raw.poly.rects();
  out.rects[kMetal] = raw.metal.rects();

  // Global piece index space: diff pieces, then poly, then metal.
  int base[kClasses + 1] = {0, 0, 0, 0};
  for (int cls = 0; cls < kClasses; ++cls) {
    base[cls + 1] = base[cls] + static_cast<int>(out.rects[cls].size());
  }
  UnionFind uf(static_cast<std::size_t>(base[kClasses]));

  // Intra-layer connectivity (edge-shared rects).
  for (int cls = 0; cls < kClasses; ++cls) {
    const std::vector<int> labels = geom::label_components(out.rects[cls]);
    std::map<int, int> first_of;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const int id = base[cls] + static_cast<int>(i);
      auto [it, fresh] = first_of.emplace(labels[i], id);
      if (!fresh) uf.unite(id, it->second);
    }
  }

  const geom::RectGrid grids[kClasses] = {geom::RectGrid(out.rects[kDiff]),
                                          geom::RectGrid(out.rects[kPoly]),
                                          geom::RectGrid(out.rects[kMetal])};
  const auto overlapping_pieces = [&](int cls, const Rect& r,
                                      std::vector<int>& ids) {
    grids[cls].for_touching(out.rects[cls], r, [&](int i) {
      if (out.rects[cls][static_cast<std::size_t>(i)].overlaps(r)) {
        ids.push_back(base[cls] + i);
      }
    });
  };

  // Contacts join every conducting piece they overlap (butting contacts
  // join poly, diff and metal at once).
  for (const auto& comp : raw.contact.components()) {
    Rect cc;
    for (const Rect& r : comp) cc = cc.bound(r);
    std::vector<int> pieces;
    overlapping_pieces(kDiff, cc, pieces);
    overlapping_pieces(kPoly, cc, pieces);
    overlapping_pieces(kMetal, cc, pieces);
    for (std::size_t i = 1; i < pieces.size(); ++i) uf.unite(pieces[0], pieces[i]);
    out.junctions.push_back({cc, false});
    if (pieces.empty()) {
      out.warnings.push_back({Warning::Kind::FloatingContact, cc, "", {}});
    }
  }
  // Buried windows join poly and diffusion (never metal).
  for (const auto& comp : raw.buried.components()) {
    Rect bb;
    for (const Rect& r : comp) bb = bb.bound(r);
    std::vector<int> pieces;
    overlapping_pieces(kDiff, bb, pieces);
    overlapping_pieces(kPoly, bb, pieces);
    for (std::size_t i = 1; i < pieces.size(); ++i) uf.unite(pieces[0], pieces[i]);
    out.junctions.push_back({bb, true});
  }

  // Piece -> dense node ids, and intrinsic anchors over the pieces.
  std::map<int, int> node_of_root;
  for (int cls = 0; cls < kClasses; ++cls) {
    out.node_of[cls].resize(out.rects[cls].size());
    for (std::size_t i = 0; i < out.rects[cls].size(); ++i) {
      const int root = uf.find(base[cls] + static_cast<int>(i));
      auto [it, fresh] =
          node_of_root.emplace(root, static_cast<int>(node_of_root.size()));
      out.node_of[cls][i] = it->second;
    }
  }
  out.node_count = static_cast<int>(node_of_root.size());
  AnchorTable at(static_cast<std::size_t>(out.node_count));
  for (int cls = 0; cls < kClasses; ++cls) {
    for (std::size_t i = 0; i < out.rects[cls].size(); ++i) {
      at.add(out.node_of[cls][i], cls, out.rects[cls][i]);
    }
  }
  out.anchors = at.take();

  // Proto transistors, one per channel component.
  for (const auto& comp : channels.components()) {
    Rect ch;
    std::int64_t area = 0;
    for (const Rect& r : comp) {
      ch = ch.bound(r);
      area += r.area();
    }
    if (area != ch.area()) {
      out.warnings.push_back({Warning::Kind::NonRectChannel, ch, "", {}});
    }
    ProtoTransistor p;
    p.channel = ch;
    p.type = raw.implant.intersects(ch) ? Device::Depletion : Device::Enhancement;

    grids[kPoly].for_touching(out.rects[kPoly], ch, [&](int i) {
      if (out.rects[kPoly][static_cast<std::size_t>(i)].overlaps(ch)) {
        p.gate.push_back(out.node_of[kPoly][static_cast<std::size_t>(i)]);
      }
    });
    sort_unique(p.gate);
    if (p.gate.empty()) {
      out.warnings.push_back({Warning::Kind::NoGate, ch, "", {}});
      continue;
    }

    // Source/drain: diffusion regions abutting the channel, by side. The
    // test is *intrinsic* — does the diffusion region overlap a one-unit
    // strip along the side of the channel bbox — never "does a canonical
    // piece end exactly at the bbox edge", which would depend on how the
    // region happens to be decomposed (flat and windowed extraction slab
    // the same region differently).
    const Rect ls{ch.x0 - 1, ch.y0, ch.x0, ch.y1};
    const Rect rs{ch.x1, ch.y0, ch.x1 + 1, ch.y1};
    const Rect bs{ch.x0, ch.y0 - 1, ch.x1, ch.y0};
    const Rect ts{ch.x0, ch.y1, ch.x1, ch.y1 + 1};
    grids[kDiff].for_touching(out.rects[kDiff], ch.inflated(1), [&](int i) {
      const Rect& r = out.rects[kDiff][static_cast<std::size_t>(i)];
      const int node = out.node_of[kDiff][static_cast<std::size_t>(i)];
      if (r.overlaps(ls)) p.left.push_back(node);
      if (r.overlaps(rs)) p.right.push_back(node);
      if (r.overlaps(bs)) p.bottom.push_back(node);
      if (r.overlaps(ts)) p.top.push_back(node);
    });
    sort_unique(p.left);
    sort_unique(p.right);
    sort_unique(p.top);
    sort_unique(p.bottom);
    if ((p.top.empty() || p.bottom.empty()) &&
        (p.left.empty() || p.right.empty())) {
      out.warnings.push_back({Warning::Kind::FewTerminals, ch, "", {}});
      continue;
    }
    out.protos.push_back(std::move(p));
  }
  return out;
}

namespace {

std::string lower_last_component(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  std::string s = dot == std::string::npos ? name : name.substr(dot + 1);
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

bool is_vdd_name(const std::string& name) {
  const std::string s = lower_last_component(name);
  return s == "vdd" || s == "vcc";
}

bool is_gnd_name(const std::string& name) {
  const std::string s = lower_last_component(name);
  return s == "gnd" || s == "vss" || s == "ground";
}

}  // namespace silc::extract::detail
