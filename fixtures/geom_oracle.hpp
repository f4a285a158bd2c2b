// Test-only oracle for src/geom's RectSet scanline: the original sweep that
// re-sorts every band's active list and the std::map band collector, kept
// verbatim so the linear-band production kernel can be checked against it
// (tests/test_geom_oracle.cpp). Also the original label_components pair
// scan, the oracle for the production sweep over disjoint rects, and the
// original four-sweep erosion through the complement, the oracle for the
// production's two separable passes. Also the linear prefix scans that
// answered RectSet's point and region queries before its spatial index
// (geom::RectGrid), the oracles for the indexed queries. The production
// contract is that every RectSet operation returns the same canonical rect
// vector, in the same order, and the same verdict, as its counterpart
// here. The operations are restated over plain rect vectors so that each
// oracle entry point stands alone.
#pragma once

#include <algorithm>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "geom/geom.hpp"

namespace silc_fixtures::geom_oracle {

using silc::geom::Coord;
using silc::geom::Point;
using silc::geom::Rect;

namespace detail {

struct Interval {
  Coord lo, hi;
};

// Merge a sorted-by-lo interval list into a disjoint, sorted union.
inline std::vector<Interval> merge_intervals(std::vector<Interval> in) {
  if (in.empty()) return in;
  std::sort(in.begin(), in.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> out;
  out.push_back(in.front());
  for (std::size_t i = 1; i < in.size(); ++i) {
    if (in[i].lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, in[i].hi);
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

// Set operations on disjoint sorted interval lists.
enum class Op { Union, Intersect, Subtract };

inline std::vector<Interval> combine(const std::vector<Interval>& a,
                                     const std::vector<Interval>& b, Op op) {
  switch (op) {
    case Op::Union: {
      std::vector<Interval> all = a;
      all.insert(all.end(), b.begin(), b.end());
      return merge_intervals(std::move(all));
    }
    case Op::Intersect: {
      std::vector<Interval> out;
      std::size_t i = 0, j = 0;
      while (i < a.size() && j < b.size()) {
        const Coord lo = std::max(a[i].lo, b[j].lo);
        const Coord hi = std::min(a[i].hi, b[j].hi);
        if (lo < hi) out.push_back({lo, hi});
        if (a[i].hi < b[j].hi) {
          ++i;
        } else {
          ++j;
        }
      }
      return out;
    }
    case Op::Subtract: {
      std::vector<Interval> out;
      std::size_t j = 0;
      for (const Interval& ia : a) {
        Coord cur = ia.lo;
        while (j < b.size() && b[j].hi <= cur) ++j;
        std::size_t k = j;
        while (k < b.size() && b[k].lo < ia.hi) {
          if (b[k].lo > cur) out.push_back({cur, b[k].lo});
          cur = std::max(cur, b[k].hi);
          ++k;
        }
        if (cur < ia.hi) out.push_back({cur, ia.hi});
      }
      return out;
    }
  }
  return {};
}

// Scanline slab decomposition over one or two rect lists: calls `emit` for
// each y-band with the op-combined interval list. Inputs need not be
// disjoint for Union; Intersect/Subtract require each input disjoint within
// any band, which holds for normalized sets.
template <typename Emit>
void sweep(const std::vector<Rect>& a, const std::vector<Rect>& b, Op op,
           Emit emit) {
  std::vector<Coord> ys;
  ys.reserve(2 * (a.size() + b.size()));
  for (const Rect& r : a) {
    ys.push_back(r.y0);
    ys.push_back(r.y1);
  }
  for (const Rect& r : b) {
    ys.push_back(r.y0);
    ys.push_back(r.y1);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  if (ys.size() < 2) return;

  // Event-driven active lists, sorted by y0.
  std::vector<Rect> sa = a, sb = b;
  std::sort(sa.begin(), sa.end(),
            [](const Rect& r, const Rect& s) { return r.y0 < s.y0; });
  std::sort(sb.begin(), sb.end(),
            [](const Rect& r, const Rect& s) { return r.y0 < s.y0; });
  std::size_t ia = 0, ib = 0;
  std::vector<Rect> act_a, act_b;

  for (std::size_t band = 0; band + 1 < ys.size(); ++band) {
    const Coord yl = ys[band], yh = ys[band + 1];
    while (ia < sa.size() && sa[ia].y0 <= yl) act_a.push_back(sa[ia++]);
    while (ib < sb.size() && sb[ib].y0 <= yl) act_b.push_back(sb[ib++]);
    std::erase_if(act_a, [yl](const Rect& r) { return r.y1 <= yl; });
    std::erase_if(act_b, [yl](const Rect& r) { return r.y1 <= yl; });

    std::vector<Interval> va, vb;
    va.reserve(act_a.size());
    vb.reserve(act_b.size());
    for (const Rect& r : act_a) va.push_back({r.x0, r.x1});
    for (const Rect& r : act_b) vb.push_back({r.x0, r.x1});
    va = merge_intervals(std::move(va));
    vb = merge_intervals(std::move(vb));
    emit(yl, yh, combine(va, vb, op));
  }
}

// Collect sweep output into canonical rects, merging vertically-adjacent
// bands whose x-extents match exactly.
class Collector {
 public:
  void band(Coord yl, Coord yh, const std::vector<Interval>& xs) {
    if (xs.empty()) {
      open_.clear();
      return;
    }
    std::map<std::pair<Coord, Coord>, std::size_t> next;
    for (const Interval& iv : xs) {
      auto it = open_.find({iv.lo, iv.hi});
      if (it != open_.end() && out_[it->second].y1 == yl) {
        out_[it->second].y1 = yh;
        next.emplace(std::pair{iv.lo, iv.hi}, it->second);
      } else {
        out_.push_back({iv.lo, yl, iv.hi, yh});
        next.emplace(std::pair{iv.lo, iv.hi}, out_.size() - 1);
      }
    }
    open_ = std::move(next);
  }
  std::vector<Rect> take() {
    std::sort(out_.begin(), out_.end(), [](const Rect& a, const Rect& b) {
      return std::tie(a.y0, a.x0, a.y1, a.x1) < std::tie(b.y0, b.x0, b.y1, b.x1);
    });
    return std::move(out_);
  }

 private:
  std::vector<Rect> out_;
  std::map<std::pair<Coord, Coord>, std::size_t> open_;
};

inline std::vector<Rect> run_op(const std::vector<Rect>& a,
                                const std::vector<Rect>& b, Op op) {
  Collector c;
  sweep(a, b, op, [&c](Coord yl, Coord yh, const std::vector<Interval>& xs) {
    c.band(yl, yh, xs);
  });
  return c.take();
}

}  // namespace detail

/// RectSet(soup).rects(): drop empty rects, then one Union sweep.
inline std::vector<Rect> normalize(std::vector<Rect> soup) {
  std::erase_if(soup, [](const Rect& r) { return r.empty(); });
  return detail::run_op(soup, {}, detail::Op::Union);
}

/// The boolean operations over canonical inputs (`a`, `b` = rects()).
inline std::vector<Rect> unite(const std::vector<Rect>& a,
                               const std::vector<Rect>& b) {
  return detail::run_op(a, b, detail::Op::Union);
}
inline std::vector<Rect> intersect(const std::vector<Rect>& a,
                                   const std::vector<Rect>& b) {
  return detail::run_op(a, b, detail::Op::Intersect);
}
inline std::vector<Rect> subtract(const std::vector<Rect>& a,
                                  const std::vector<Rect>& b) {
  return detail::run_op(a, b, detail::Op::Subtract);
}

/// RectSet::covers over a canonical `set`: sweep `r` minus the canonical
/// rects that overlap it.
inline bool covers(const std::vector<Rect>& set, const Rect& r) {
  if (r.empty()) return true;
  std::vector<Rect> local;
  for (const Rect& s : set) {
    if (s.y0 >= r.y1) break;
    if (s.overlaps(r)) local.push_back(s);
  }
  return detail::run_op({r}, local, detail::Op::Subtract).empty();
}

// The query scans over a canonical `set`: it is sorted by y0, so each scan
// ends at the first band past the query.

inline bool contains(const std::vector<Rect>& set, Point p) {
  for (const Rect& r : set) {
    if (r.contains(p)) return true;
  }
  return false;
}

inline bool intersects(const std::vector<Rect>& set, const Rect& r) {
  if (r.empty()) return false;
  for (const Rect& s : set) {
    if (s.y0 >= r.y1) break;
    if (s.overlaps(r)) return true;
  }
  return false;
}

inline bool touches(const std::vector<Rect>& set, const Rect& r) {
  if (r.x0 > r.x1 || r.y0 > r.y1) return false;
  for (const Rect& s : set) {
    if (s.y0 > r.y1) break;
    if (s.touches(r)) return true;
  }
  return false;
}

/// RectSet::overlapping: an inverted window meets nothing (as in touches).
inline std::vector<Rect> overlapping(const std::vector<Rect>& set,
                                     const Rect& w) {
  std::vector<Rect> out;
  if (w.x0 > w.x1 || w.y0 > w.y1) return out;
  for (const Rect& s : set) {
    if (s.y0 > w.y1) break;
    if (s.touches(w)) out.push_back(s);
  }
  return out;
}

inline std::vector<Rect> clipped(const std::vector<Rect>& set, const Rect& w) {
  std::vector<Rect> out;
  for (const Rect& s : set) {
    if (s.y0 >= w.y1) break;
    const Rect c = s.intersect(w);
    if (!c.empty()) out.push_back(c);
  }
  return normalize(std::move(out));
}

inline std::vector<Rect> dilated(const std::vector<Rect>& set, Coord d) {
  if (d == 0) return set;
  std::vector<Rect> grown;
  grown.reserve(set.size());
  for (const Rect& r : set) grown.push_back(r.inflated(d));
  return normalize(std::move(grown));
}

/// Erosion as the complement of the dilated complement, clipped to the set:
/// four sweeps over the complement within the bbox.
inline std::vector<Rect> eroded(const std::vector<Rect>& set, Coord d) {
  if (d == 0) return set;
  if (set.empty()) return {};
  Rect box;
  for (const Rect& r : set) box = box.bound(r);
  const std::vector<Rect> window = {box.inflated(2 * d)};
  const std::vector<Rect> complement = subtract(window, set);
  return intersect(subtract(window, dilated(complement, d)), set);
}

inline std::vector<Rect> scaled(const std::vector<Rect>& set, Coord k) {
  std::vector<Rect> out;
  out.reserve(set.size());
  for (const Rect& r : set) out.push_back({r.x0 * k, r.y0 * k, r.x1 * k, r.y1 * k});
  return out;
}

/// geom::label_components as first written: every pair whose x-extents
/// overlap or abut, in x0 order (quadratic under a wide rail).
inline std::vector<int> label_components(const std::vector<Rect>& rects) {
  const std::size_t n = rects.size();
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  const auto unite = [&parent, &find](int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(a)] = b;
  };
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&rects](int a, int b) {
    return rects[static_cast<std::size_t>(a)].x0 <
           rects[static_cast<std::size_t>(b)].x0;
  });
  for (std::size_t i = 0; i < n; ++i) {
    const Rect& ri = rects[static_cast<std::size_t>(order[i])];
    for (std::size_t j = i + 1; j < n; ++j) {
      const Rect& rj = rects[static_cast<std::size_t>(order[j])];
      if (rj.x0 > ri.x1) break;
      if (ri.edge_connected(rj)) unite(order[i], order[j]);
    }
  }
  std::vector<int> labels(n);
  std::vector<int> remap(n, -1);
  int next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int root = find(static_cast<int>(i));
    if (remap[static_cast<std::size_t>(root)] < 0) {
      remap[static_cast<std::size_t>(root)] = next++;
    }
    labels[i] = remap[static_cast<std::size_t>(root)];
  }
  return labels;
}

}  // namespace silc_fixtures::geom_oracle
