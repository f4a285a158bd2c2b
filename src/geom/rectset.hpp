// Disjoint rectangle sets: the polygon algebra used throughout the compiler.
//
// A RectSet represents a (possibly disconnected, possibly hole-y) Manhattan
// region of the plane as a canonical decomposition into disjoint rectangles.
// It supports the boolean and morphological operations that design-rule
// checking and circuit extraction are built from, and the point and region
// queries they ask of it, answered through one bucketed spatial index
// (RectGrid).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "geom/geom.hpp"

namespace silc::geom {

/// Bucketed spatial index over a rect list: a uniform grid of square cells
/// over the list's bbox, each cell listing the rects whose closed region
/// meets it (CSR form: one offsets array, one items array). The cell side
/// starts at 128 units and doubles until the grid has at most about four
/// cells per rect, so a sparse list allocates no cells nothing fills.
///
/// The grid holds indices only: every query takes the rect list the grid
/// was built over. Queries are const and keep no per-query state. A rect
/// spanning several cells is reported once, from the cell that holds the
/// lower-left corner of its intersection with the query, so a query costs
/// O(cells it meets + rects listed there).
class RectGrid {
 public:
  explicit RectGrid(const std::vector<Rect>& rects);

  /// Calls hit(i) once for each rect `rects[i]` whose closed region meets
  /// the closed rect `q`, in cell order, until it returns true; returns
  /// whether it did.
  template <typename Hit>
  bool find_touching(const std::vector<Rect>& rects, const Rect& q,
                     Hit&& hit) const {
    return visit(q, [&](Point cell, std::uint32_t i) {
      const Rect& s = rects[i];
      // s is listed here and q visits here, so both start before this
      // cell's right and top edges: the lower-left corner of s ∩ q lies
      // in this cell unless it is left of or below it.
      if (!s.touches(q) || std::max(s.x0, q.x0) < cell.x ||
          std::max(s.y0, q.y0) < cell.y) {
        return false;
      }
      return static_cast<bool>(hit(static_cast<int>(i)));
    });
  }

  /// Calls fn(i) once for each rect whose closed region meets `q`.
  template <typename Fn>
  void for_touching(const std::vector<Rect>& rects, const Rect& q,
                    Fn&& fn) const {
    find_touching(rects, q, [&](int i) {
      fn(i);
      return false;
    });
  }

 private:
  [[nodiscard]] Coord col_of(Coord x) const {
    return std::clamp<Coord>((x - box_.x0) / cell_, 0, cols_ - 1);
  }
  [[nodiscard]] Coord row_of(Coord y) const {
    return std::clamp<Coord>((y - box_.y0) / cell_, 0, rows_ - 1);
  }

  /// Calls stop(cell, i) for each rect i listed in a cell `q` meets (cell
  /// is that cell's lower-left corner), until it returns true; returns
  /// whether it did.
  template <typename Stop>
  bool visit(const Rect& q, Stop&& stop) const {
    if (items_.empty() || q.x0 > q.x1 || q.y0 > q.y1 || !box_.touches(q)) {
      return false;
    }
    const Coord c0 = col_of(q.x0), c1 = col_of(q.x1);
    for (Coord r = row_of(q.y0), r1 = row_of(q.y1); r <= r1; ++r) {
      for (Coord c = c0; c <= c1; ++c) {
        const Point cell{box_.x0 + c * cell_, box_.y0 + r * cell_};
        const auto at = static_cast<std::size_t>(r * cols_ + c);
        for (std::uint32_t k = offsets_[at]; k < offsets_[at + 1]; ++k) {
          if (stop(cell, items_[k])) return true;
        }
      }
    }
    return false;
  }

  Rect box_{};  // the rects' bbox; its lower-left corner is the grid's origin
  Coord cell_ = 128;
  Coord cols_ = 0, rows_ = 0;
  std::vector<std::uint32_t> offsets_;  // rows_ * cols_ + 1, row-major
  std::vector<std::uint32_t> items_;    // rect indices, by cell
};

/// A Manhattan region as its canonical rect decomposition. Const queries
/// fill memos lazily — the normalization, the RectGrid behind the point and
/// region queries, the component labels and groups — so a RectSet is not
/// thread-safe: query it from one thread at a time. A copy shares the index
/// and component memos built so far (immutable once built); add() drops
/// them.
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
  // Point and region queries run through the set's RectGrid, built on the
  // first query and memoized: O(grid cells the query meets + rects listed
  // there), whatever the set's size.
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
  /// closed window `w`, unclipped, in canonical order (an inverted window
  /// meets nothing). This is the query surface hierarchical DRC and the
  /// footprint stitch are built on — O(grid cells + hits + hits log hits)
  /// with no sweep.
  [[nodiscard]] std::vector<Rect> overlapping(const Rect& w) const;
  /// The region clipped to the window `w` (canonical).
  [[nodiscard]] RectSet clipped(const Rect& w) const;
  /// FNV-1a hash of the canonical decomposition: equal regions hash equal.
  [[nodiscard]] std::uint64_t hash() const;

  [[nodiscard]] RectSet unite(const RectSet& o) const;
  [[nodiscard]] RectSet intersect(const RectSet& o) const;
  [[nodiscard]] RectSet subtract(const RectSet& o) const;

  /// (this − zone) ∪ inside, for a region `inside` within `zone`: the
  /// region with its part in the zone replaced, built from the canonical
  /// rects near the zone. A canonical rect whose closed region misses the
  /// zone is still canonical in the result: its runs, and the
  /// cross-sections just past its ends, lie outside the zone, and removing
  /// other rects of a canonical list leaves it canonical. So only the rects
  /// that touch the zone are re-normalized, with `inside`, and the rest are
  /// copied. `from` receives, per result rect, the index in rects() it was
  /// copied from, or -1 when it was re-normalized. O(rects) scan of the
  /// zone test and copy plus the sweeps over the rects near the zone.
  [[nodiscard]] RectSet spliced(const RectSet& zone, const RectSet& inside,
                                std::vector<int>& from) const;
  /// Memoize the component labels of this set, which is
  /// base.spliced(zone, inside, from), from base's memoized ones (a no-op
  /// when base has none). A component of base whose rects were all copied
  /// kept its rects and their connections (a copied rect touches no
  /// re-normalized one unless its base component lost a rect), so it keeps
  /// its label. Only the rects of the other components are labelled afresh,
  /// and one pass renumbers by first appearance, so the labels equal
  /// label_components(rects()).
  void splice_labels(const RectSet& base, const std::vector<int>& from) const;

  /// Minkowski sum with a [-d,d]^2 square (grow by d on every side).
  [[nodiscard]] RectSet dilated(Coord d) const;
  /// Morphological erosion by a [-d,d]^2 square (shrink by d on every side):
  /// a horizontal then a vertical segment erosion, one sweep each.
  [[nodiscard]] RectSet eroded(Coord d) const;
  /// All coordinates multiplied by k (k > 0).
  [[nodiscard]] RectSet scaled(Coord k) const;

  /// Groups of edge-connected rectangles (electrical connectivity on one
  /// layer). Corner-only contact does not connect.
  [[nodiscard]] const std::vector<std::vector<Rect>>& components() const;
  /// label_components(rects()): the component of each canonical rect,
  /// numbered as components() orders its groups.
  [[nodiscard]] const std::vector<int>& component_labels() const;

  friend bool operator==(const RectSet& a, const RectSet& b) {
    return a.rects() == b.rects();
  }

 private:
  void normalize() const;
  [[nodiscard]] const RectGrid& grid() const;
  /// Indices, ascending, of the canonical rects whose closed region meets
  /// `zone`'s.
  [[nodiscard]] std::vector<std::size_t> touching(const RectSet& zone) const;

  mutable std::vector<Rect> rects_;
  mutable bool dirty_ = false;
  mutable std::shared_ptr<const RectGrid> grid_;
  mutable std::shared_ptr<const std::vector<int>> labels_;
  mutable std::shared_ptr<const std::vector<std::vector<Rect>>> comps_;
};

/// Union-find connectivity labelling over arbitrary rect lists: returns a
/// label per input rect such that edge-connected rects share a label.
/// Labels are dense, starting at 0, numbered by first appearance.
[[nodiscard]] std::vector<int> label_components(const std::vector<Rect>& rects);

}  // namespace silc::geom
