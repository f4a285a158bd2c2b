// Disjoint rectangle sets: the polygon algebra used throughout the compiler.
//
// A RectSet represents a (possibly disconnected, possibly hole-y) Manhattan
// region of the plane as a canonical decomposition into disjoint rectangles.
// It supports the boolean and morphological operations that design-rule
// checking and circuit extraction are built from.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/geom.hpp"

namespace silc::geom {

class RectSet {
 public:
  RectSet() = default;
  explicit RectSet(const Rect& r);
  explicit RectSet(std::vector<Rect> rects);

  /// Add a rectangle to the region (normalized lazily).
  void add(const Rect& r);

  /// The canonical disjoint decomposition (maximal horizontal slabs, merged
  /// vertically where x-extents match). Equal regions yield equal vectors.
  [[nodiscard]] const std::vector<Rect>& rects() const;

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::int64_t area() const;
  [[nodiscard]] Rect bbox() const;
  [[nodiscard]] bool contains(Point p) const;
  /// True when `r` is entirely inside the region.
  [[nodiscard]] bool covers(const Rect& r) const;
  /// True when `r`'s interior meets the region's interior.
  [[nodiscard]] bool intersects(const Rect& r) const;
  /// True when `r`'s closed region meets the region's closed region (shared
  /// edges and corners count — the abutment test hierarchical extraction's
  /// window ownership rules are built on).
  [[nodiscard]] bool touches(const Rect& r) const;

  /// Windowed query: the canonical rects whose closed region meets the
  /// closed window `w`, unclipped, in canonical order. This is the query
  /// surface hierarchical DRC and future region-local analyses are
  /// built on — O(rects up to the window's top band) with no sweep.
  [[nodiscard]] std::vector<Rect> overlapping(const Rect& w) const;
  /// The region clipped to the window `w` (canonical).
  [[nodiscard]] RectSet clipped(const Rect& w) const;
  /// FNV-1a hash of the canonical decomposition: equal regions hash equal.
  [[nodiscard]] std::uint64_t hash() const;

  [[nodiscard]] RectSet unite(const RectSet& o) const;
  [[nodiscard]] RectSet intersect(const RectSet& o) const;
  [[nodiscard]] RectSet subtract(const RectSet& o) const;

  /// Minkowski sum with a [-d,d]^2 square (grow by d on every side).
  [[nodiscard]] RectSet dilated(Coord d) const;
  /// Morphological erosion by a [-d,d]^2 square (shrink by d on every side):
  /// a horizontal then a vertical segment erosion, one sweep each.
  [[nodiscard]] RectSet eroded(Coord d) const;
  /// All coordinates multiplied by k (k > 0).
  [[nodiscard]] RectSet scaled(Coord k) const;

  /// Groups of edge-connected rectangles (electrical connectivity on one
  /// layer). Corner-only contact does not connect. Memoized (like the
  /// lazy normalization, not thread-safe): the hierarchical engines query
  /// the same full-layout masks once per interaction window.
  [[nodiscard]] const std::vector<std::vector<Rect>>& components() const;

  friend bool operator==(const RectSet& a, const RectSet& b) {
    return a.rects() == b.rects();
  }

 private:
  void normalize() const;

  mutable std::vector<Rect> rects_;
  mutable bool dirty_ = false;
  mutable std::vector<std::vector<Rect>> comps_;
  mutable bool comps_done_ = false;
};

/// Union-find connectivity labelling over arbitrary rect lists: returns a
/// label per input rect such that edge-connected rects share a label.
/// Labels are dense, starting at 0, numbered by first appearance.
[[nodiscard]] std::vector<int> label_components(const std::vector<Rect>& rects);

}  // namespace silc::geom
