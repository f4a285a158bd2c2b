// Internal extraction core shared by the flat extractor (extract.cpp) and
// the windowed hierarchical extractor (hier.cpp).
//
// connect() turns one soup of raw mask layers into the geometric netlist
// primitives: canonical conducting pieces per layer class with dense node
// labels (same-layer adjacency, contact cuts, buried windows), proto
// transistors whose terminals are *candidate node sets* (resolved later
// against whichever anchor table is in scope — flat resolves with global
// anchors, a window resolves with the stitched parent's), structured
// warnings carrying geometry (rendered to text only at finalization, so a
// cached cell's warnings can be transformed into chip coordinates first),
// and junction bboxes (contact/buried component bounds — the unions the
// hierarchical stitcher must re-own when a window reaches them).
#pragma once

#include <numeric>
#include <string>
#include <vector>

#include "extract/extract.hpp"
#include "geom/rectset.hpp"
#include "layout/layout.hpp"

namespace silc::extract::detail {

using geom::Coord;
using geom::Point;
using geom::Rect;
using geom::RectSet;

/// Conducting layer classes (also the NodeAnchor layer order).
inline constexpr int kDiff = 0;   // diffusion minus channels
inline constexpr int kPoly = 1;
inline constexpr int kMetal = 2;
inline constexpr int kClasses = 3;

/// Layer class of a conducting mask layer; -1 otherwise.
[[nodiscard]] int class_of(tech::Layer l);
[[nodiscard]] tech::Layer layer_of(int cls);

/// The six mask layers extraction reads, as regions.
struct RawLayers {
  RectSet diff, poly, metal, contact, implant, buried;

  [[nodiscard]] static RawLayers from_shapes(
      const std::vector<layout::Shape>& shapes);
  /// Every layer clipped to the window region `w`.
  [[nodiscard]] RawLayers clipped(const RectSet& w) const;
  /// Transistor channels: poly ∩ diff − buried.
  [[nodiscard]] RectSet channels() const;
};

/// A structured extraction warning: geometry plus enough context to render
/// the flat extractor's exact message after any coordinate transform.
struct Warning {
  enum class Kind : std::uint8_t {
    FloatingContact,   // contact cut group over no conductor
    NonRectChannel,    // channel component is not a rectangle
    NoGate,            // channel without gate poly
    FewTerminals,      // channel with < 2 diffusion terminals
    LabelMiss,         // label not over its layer
  };
  Kind kind{};
  Rect where{};        // component bbox (geometry kinds)
  std::string text;    // LabelMiss: the (hierarchical) label text
  tech::Layer layer{}; // LabelMiss: the label's layer

  [[nodiscard]] std::string render() const;
};

/// A transistor whose terminals are still per-side candidate node sets:
/// every distinct node whose poly overlaps the channel bbox (gate) or
/// whose diffusion region overlaps the one-unit strip along each channel
/// side. Terminal axis and source/drain are NOT chosen here — the
/// "terminals on top/bottom beat left/right" priority is frame-dependent,
/// so hierarchical extraction carries protos through every cached cell and
/// resolves them only in the top-level (global) frame, exactly where flat
/// extraction resolves its own. A proto exists iff (top && bottom) ||
/// (left && right); a channel failing that is a FewTerminals warning.
struct ProtoTransistor {
  Rect channel{};
  Device type{};
  std::vector<int> gate;  // distinct candidate nodes, ascending
  std::vector<int> left, right, bottom, top;  // per-side candidates
};

/// Pick the candidate whose anchor is least; -1 for an empty set.
[[nodiscard]] int pick_candidate(const std::vector<int>& candidates,
                                 const std::vector<NodeAnchor>& anchors);

/// Finish a proto transistor into a Transistor using `anchors` for
/// candidate ties (node ids stay in the proto's numbering): vertical when
/// top and bottom terminals exist (the flat extractor's priority, applied
/// in the caller's frame), source the bottom/left terminal, W/L from the
/// channel bbox and axis.
[[nodiscard]] Transistor resolve_proto(const ProtoTransistor& p,
                                       const std::vector<NodeAnchor>& anchors);

/// Incremental intrinsic-anchor computation over any exact disjoint
/// rectangle cover of each node's region.
class AnchorTable {
 public:
  explicit AnchorTable(std::size_t nodes);
  void add(int node, int cls, const Rect& r);
  /// Anchors for every node (nodes with no geometry keep a zero anchor —
  /// they cannot occur in extractor output).
  [[nodiscard]] std::vector<NodeAnchor> take() const;

 private:
  struct Best {
    Coord y = 0, x = 0;
    bool set = false;
  };
  std::vector<Best> best_;  // nodes * kClasses
};

/// A cross-layer join group: one contact or buried-window component.
/// Contacts join every conducting layer their bbox overlaps; buried
/// windows join poly and diffusion only — the hierarchical stitcher must
/// preserve that asymmetry when it re-applies surviving junctions.
struct Junction {
  Rect bbox{};
  bool buried = false;

  /// True when this junction may join pieces of layer class `cls`.
  [[nodiscard]] bool joins(int cls) const { return !buried || cls != kMetal; }
};

/// The connectivity solve over one soup.
struct Connectivity {
  std::vector<Rect> rects[kClasses];   // canonical conducting pieces
  std::vector<int> node_of[kClasses];  // dense node id per piece
  int node_count = 0;
  std::vector<ProtoTransistor> protos;
  std::vector<Junction> junctions;  // contact + buried component groups
  std::vector<Warning> warnings;
  std::vector<NodeAnchor> anchors;  // intrinsic, over this soup's pieces
};

[[nodiscard]] Connectivity connect(const RawLayers& raw);

/// Supply-rail name predicates (case-insensitive last path component).
[[nodiscard]] bool is_vdd_name(const std::string& name);
[[nodiscard]] bool is_gnd_name(const std::string& name);

/// Path-compressing union-find over dense int ids (growable via add()).
struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(std::size_t n = 0) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int add() {
    parent.push_back(static_cast<int>(parent.size()));
    return static_cast<int>(parent.size()) - 1;
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(a)] = b;
  }
};

}  // namespace silc::extract::detail
