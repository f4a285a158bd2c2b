#include "geom/rectset.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <tuple>
#include <utility>

#include "geom/fnv.hpp"

namespace silc::geom {
namespace {

struct Interval {
  Coord lo, hi;
};

// Set operations on disjoint sorted interval lists.
enum class Op { Union, Intersect, Subtract };

// Append `iv` to a closed-interval union built in lo order: overlapping and
// abutting intervals merge.
void push_union(std::vector<Interval>& out, const Interval& iv) {
  if (!out.empty() && iv.lo <= out.back().hi) {
    out.back().hi = std::max(out.back().hi, iv.hi);
  } else {
    out.push_back(iv);
  }
}

// The union of an active list (sorted by x0) as disjoint sorted intervals.
void band_union(const std::vector<Rect>& act, std::vector<Interval>& out) {
  out.clear();
  for (const Rect& r : act) push_union(out, {r.x0, r.x1});
}

void combine(const std::vector<Interval>& a, const std::vector<Interval>& b,
             Op op, std::vector<Interval>& out) {
  out.clear();
  switch (op) {
    case Op::Union: {
      // Both inputs are sorted by lo: merge them in lo order, then union.
      std::size_t i = 0, j = 0;
      while (i < a.size() || j < b.size()) {
        const bool take_a = j == b.size() || (i < a.size() && a[i].lo <= b[j].lo);
        push_union(out, take_a ? a[i++] : b[j++]);
      }
      return;
    }
    case Op::Intersect: {
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
      return;
    }
    case Op::Subtract: {
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
      return;
    }
  }
}

bool by_y0_x0(const Rect& r, const Rect& s) {
  return r.y0 < s.y0 || (r.y0 == s.y0 && r.x0 < s.x0);
}

// One input's event list and its active list, kept sorted by x0.
class Active {
 public:
  // Canonical inputs are already in (y0, x0) order and are read in place.
  explicit Active(const std::vector<Rect>& in) : events_(&in) {
    if (!std::is_sorted(in.begin(), in.end(), by_y0_x0)) {
      sorted_ = in;
      std::sort(sorted_.begin(), sorted_.end(), by_y0_x0);
      events_ = &sorted_;
    }
  }

  // Enter the band starting at `yl`: merge the rects starting at or before
  // it (already in x0 order) after any active rect with an equal x0, then
  // drop rects ending at or before it — in that order, so a zero-height
  // rect enters and leaves in the same band.
  const std::vector<Rect>& advance(Coord yl) {
    const std::vector<Rect>& ev = *events_;
    const std::size_t first = next_;
    while (next_ < ev.size() && ev[next_].y0 <= yl) ++next_;
    spare_.clear();
    std::size_t i = 0, j = first;
    while (i < act_.size() || j < next_) {
      const bool take_act = j == next_ || (i < act_.size() && act_[i].x0 <= ev[j].x0);
      const Rect& r = take_act ? act_[i++] : ev[j++];
      if (r.y1 > yl) spare_.push_back(r);
    }
    act_.swap(spare_);
    return act_;
  }

 private:
  const std::vector<Rect>* events_;
  std::vector<Rect> sorted_;
  std::size_t next_ = 0;
  std::vector<Rect> act_, spare_;
};

// Scanline slab decomposition over one or two rect lists: calls `emit` for
// each y-band with the op-combined interval list. Inputs need not be
// disjoint for Union; Intersect/Subtract require each input disjoint within
// any band, which holds for normalized sets. Each band costs one linear
// pass over the active lists, with buffers reused across bands.
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

  Active act_a(a), act_b(b);
  // A plain normalize (Union with nothing) emits a's band union directly.
  const bool only_a = op == Op::Union && b.empty();
  std::vector<Interval> va, vb, xs;
  for (std::size_t band = 0; band + 1 < ys.size(); ++band) {
    const Coord yl = ys[band], yh = ys[band + 1];
    band_union(act_a.advance(yl), va);
    if (only_a) {
      emit(yl, yh, va);
      continue;
    }
    band_union(act_b.advance(yl), vb);
    combine(va, vb, op, xs);
    emit(yl, yh, xs);
  }
}

// Collect sweep output into canonical rects, merging vertically-adjacent
// bands whose x-extents match exactly. Each band's intervals are sorted and
// disjoint, and so are the previous band's open slabs, so one two-pointer
// pass matches them. Slabs are created in (y0, x0) order, which is the
// canonical order.
class Collector {
 public:
  void band(Coord yl, Coord yh, const std::vector<Interval>& xs) {
    next_.clear();
    std::size_t j = 0;
    for (const Interval& iv : xs) {
      while (j < open_.size() && open_[j].lo < iv.lo) ++j;
      if (j < open_.size() && open_[j].lo == iv.lo && open_[j].hi == iv.hi) {
        Rect& slab = out_[open_[j].slab];
        assert(slab.y1 == yl);  // open slabs end where this band starts
        slab.y1 = yh;
        next_.push_back(open_[j]);
      } else {
        out_.push_back({iv.lo, yl, iv.hi, yh});
        next_.push_back({iv.lo, iv.hi, out_.size() - 1});
      }
    }
    open_.swap(next_);
  }
  std::vector<Rect> take() {
    assert(std::is_sorted(out_.begin(), out_.end(), [](const Rect& a, const Rect& b) {
      return std::tie(a.y0, a.x0, a.y1, a.x1) < std::tie(b.y0, b.x0, b.y1, b.x1);
    }));
    return std::move(out_);
  }

 private:
  struct Open {
    Coord lo, hi;
    std::size_t slab;
  };
  std::vector<Rect> out_;
  std::vector<Open> open_, next_;
};

std::vector<Rect> run_op(const std::vector<Rect>& a, const std::vector<Rect>& b,
                         Op op) {
  Collector c;
  sweep(a, b, op, [&c](Coord yl, Coord yh, const std::vector<Interval>& xs) {
    c.band(yl, yh, xs);
  });
  return c.take();
}

}  // namespace

RectGrid::RectGrid(const std::vector<Rect>& rects) {
  if (rects.empty()) return;
  box_ = rects[0];
  for (const Rect& r : rects) {
    box_ = {std::min(box_.x0, r.x0), std::min(box_.y0, r.y0),
            std::max(box_.x1, r.x1), std::max(box_.y1, r.y1)};
  }
  // At most about four cells per rect: a sparse layout must not allocate
  // cells nothing fills.
  const Coord limit = 4 * static_cast<Coord>(rects.size()) + 64;
  for (;;) {
    cols_ = box_.width() / cell_ + 1;
    rows_ = box_.height() / cell_ + 1;
    if (cols_ <= limit && rows_ <= limit && cols_ * rows_ <= limit) break;
    cell_ *= 2;
  }
  // Counting pass, prefix sums, then a filling pass: each cell's items end
  // up in rect order.
  offsets_.assign(static_cast<std::size_t>(cols_ * rows_) + 1, 0);
  const auto each_cell = [this](const Rect& r, auto&& fn) {
    const Coord c0 = col_of(r.x0), c1 = col_of(r.x1);
    for (Coord row = row_of(r.y0), r1 = row_of(r.y1); row <= r1; ++row) {
      for (Coord col = c0; col <= c1; ++col) {
        fn(static_cast<std::size_t>(row * cols_ + col));
      }
    }
  };
  for (const Rect& r : rects) {
    each_cell(r, [this](std::size_t cell) { ++offsets_[cell + 1]; });
  }
  for (std::size_t cell = 1; cell < offsets_.size(); ++cell) {
    offsets_[cell] += offsets_[cell - 1];
  }
  items_.resize(offsets_.back());
  std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < rects.size(); ++i) {
    each_cell(rects[i], [&](std::size_t cell) {
      items_[fill[cell]++] = static_cast<std::uint32_t>(i);
    });
  }
}

RectSet::RectSet(const Rect& r) {
  if (!r.empty()) rects_.push_back(r);
}

RectSet::RectSet(std::vector<Rect> rects) : rects_(std::move(rects)), dirty_(true) {
  normalize();
}

void RectSet::add(const Rect& r) {
  if (r.empty()) return;
  rects_.push_back(r);
  dirty_ = true;
  grid_.reset();
  labels_.reset();
  comps_.reset();
}

void RectSet::normalize() const {
  if (!dirty_) return;
  std::erase_if(rects_, [](const Rect& r) { return r.empty(); });
  rects_ = run_op(rects_, {}, Op::Union);
  dirty_ = false;
}

const std::vector<Rect>& RectSet::rects() const {
  normalize();
  return rects_;
}

const RectGrid& RectSet::grid() const {
  normalize();
  if (grid_ == nullptr) grid_ = std::make_shared<const RectGrid>(rects_);
  return *grid_;
}

bool RectSet::empty() const { return rects().empty(); }

std::int64_t RectSet::area() const {
  std::int64_t total = 0;
  for (const Rect& r : rects()) total += r.area();
  return total;
}

Rect RectSet::bbox() const {
  Rect b;
  for (const Rect& r : rects()) b = b.bound(r);
  return b;
}

bool RectSet::contains(Point p) const {
  return grid().find_touching(rects_, {p.x, p.y, p.x, p.y},
                              [](int) { return true; });
}

bool RectSet::covers(const Rect& r) const {
  if (r.empty()) return true;
  // Canonical rects are disjoint, so they cover `r` exactly when their
  // overlaps with it add up to its area: no sweep is needed.
  std::int64_t covered = 0;
  return grid().find_touching(rects_, r, [&](int i) {
    const Rect& s = rects_[static_cast<std::size_t>(i)];
    if (s.overlaps(r)) covered += s.intersect(r).area();
    return covered == r.area();
  });
}

bool RectSet::intersects(const Rect& r) const {
  if (r.empty()) return false;
  return grid().find_touching(rects_, r, [&](int i) {
    return rects_[static_cast<std::size_t>(i)].overlaps(r);
  });
}

bool RectSet::touches(const Rect& r) const {
  return grid().find_touching(rects_, r, [](int) { return true; });
}

std::vector<Rect> RectSet::overlapping(const Rect& w) const {
  std::vector<int> hits;
  grid().for_touching(rects_, w, [&hits](int i) { hits.push_back(i); });
  std::sort(hits.begin(), hits.end());  // back into canonical order
  std::vector<Rect> out;
  out.reserve(hits.size());
  for (const int i : hits) out.push_back(rects_[static_cast<std::size_t>(i)]);
  return out;
}

RectSet RectSet::clipped(const Rect& w) const {
  RectSet out;
  grid().for_touching(rects_, w, [&](int i) {
    const Rect c = rects_[static_cast<std::size_t>(i)].intersect(w);
    if (!c.empty()) out.rects_.push_back(c);
  });
  out.dirty_ = true;  // clipping can expose vertical merges
  return out;
}

std::uint64_t RectSet::hash() const {
  Fnv f;
  for (const Rect& r : rects()) {
    f.mix(static_cast<std::uint64_t>(r.x0));
    f.mix(static_cast<std::uint64_t>(r.y0));
    f.mix(static_cast<std::uint64_t>(r.x1));
    f.mix(static_cast<std::uint64_t>(r.y1));
  }
  return f.h;
}

RectSet RectSet::unite(const RectSet& o) const {
  RectSet out;
  out.rects_ = run_op(rects(), o.rects(), Op::Union);
  return out;
}

RectSet RectSet::intersect(const RectSet& o) const {
  RectSet out;
  out.rects_ = run_op(rects(), o.rects(), Op::Intersect);
  return out;
}

RectSet RectSet::subtract(const RectSet& o) const {
  RectSet out;
  out.rects_ = run_op(rects(), o.rects(), Op::Subtract);
  return out;
}

std::vector<std::size_t> RectSet::touching(const RectSet& zone) const {
  const Rect zb = zone.bbox();
  const std::vector<Rect>& rs = rects();
  std::vector<std::size_t> near;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (zb.touches(rs[i]) && zone.touches(rs[i])) near.push_back(i);
  }
  return near;
}

RectSet RectSet::spliced(const RectSet& zone, const RectSet& inside,
                         std::vector<int>& from) const {
  const std::vector<std::size_t> near = touching(zone);
  // The rects near the zone are a subset of a canonical list, so they are
  // canonical as they stand.
  RectSet redo;
  for (const std::size_t i : near) redo.rects_.push_back(rects_[i]);
  const std::vector<Rect> local = redo.subtract(zone).unite(inside).rects();
  // Merge the copied runs between near rects with the re-normalized rects,
  // in canonical order (disjoint rects never share a lower-left corner, so
  // lower_bound places each re-normalized rect exactly).
  RectSet out;
  out.rects_.reserve(rects_.size() - near.size() + local.size());
  from.clear();
  from.reserve(out.rects_.capacity());
  std::size_t i = 0;
  std::size_t skip = 0;  // next entry of `near`
  const auto copy_until = [&](std::size_t end) {
    while (i < end) {
      while (skip < near.size() && near[skip] < i) ++skip;
      const std::size_t stop =
          skip < near.size() ? std::min(end, near[skip]) : end;
      out.rects_.insert(out.rects_.end(),
                        rects_.begin() + static_cast<std::ptrdiff_t>(i),
                        rects_.begin() + static_cast<std::ptrdiff_t>(stop));
      from.resize(from.size() + (stop - i));
      std::iota(from.end() - static_cast<std::ptrdiff_t>(stop - i), from.end(),
                static_cast<int>(i));
      i = stop;
      if (i < end) ++i;  // a near rect: dropped
    }
  };
  for (const Rect& q : local) {
    copy_until(static_cast<std::size_t>(
        std::lower_bound(rects_.begin(), rects_.end(), q, by_y0_x0) -
        rects_.begin()));
    out.rects_.push_back(q);
    from.push_back(-1);
  }
  copy_until(rects_.size());
  return out;
}

void RectSet::splice_labels(const RectSet& base,
                            const std::vector<int>& from) const {
  if (base.labels_ == nullptr) return;
  const std::vector<int>& bl = *base.labels_;
  int nb = 0;
  for (const int l : bl) nb = std::max(nb, l + 1);
  // A base component is hit when one of its rects was not copied over: the
  // copied indices ascend, so those are the gaps between them.
  std::vector<char> hit(static_cast<std::size_t>(nb), 0);
  std::size_t next_copied = 0;
  const auto hit_until = [&](std::size_t end) {
    for (; next_copied < end; ++next_copied) {
      hit[static_cast<std::size_t>(bl[next_copied])] = 1;
    }
  };
  for (const int f : from) {
    if (f < 0) continue;
    hit_until(static_cast<std::size_t>(f));
    next_copied = static_cast<std::size_t>(f) + 1;
  }
  hit_until(bl.size());
  // Copied rects of a component that was not hit keep its label; the rest
  // are labelled afresh, numbered after base's labels.
  const std::vector<Rect>& rs = rects();
  std::vector<int> raw(rs.size());
  std::vector<Rect> redo;
  std::vector<std::size_t> at;
  for (std::size_t k = 0; k < rs.size(); ++k) {
    const int f = from[k];
    if (f >= 0) {
      const int l = bl[static_cast<std::size_t>(f)];
      if (hit[static_cast<std::size_t>(l)] == 0) {
        raw[k] = l;
        continue;
      }
    }
    redo.push_back(rs[k]);
    at.push_back(k);
  }
  const std::vector<int> fresh = label_components(redo);
  for (std::size_t m = 0; m < at.size(); ++m) raw[at[m]] = nb + fresh[m];
  // Dense labels in order of first appearance, as label_components numbers.
  std::vector<int> remap(static_cast<std::size_t>(nb) + redo.size(), -1);
  int next = 0;
  for (int& l : raw) {
    int& to = remap[static_cast<std::size_t>(l)];
    if (to < 0) to = next++;
    l = to;
  }
  labels_ = std::make_shared<const std::vector<int>>(std::move(raw));
  comps_.reset();
}

RectSet RectSet::dilated(Coord d) const {
  if (d == 0) return *this;
  assert(d > 0);
  std::vector<Rect> grown;
  grown.reserve(rects().size());
  for (const Rect& r : rects()) grown.push_back(r.inflated(d));
  return RectSet(std::move(grown));
}

RectSet RectSet::eroded(Coord d) const {
  if (d == 0) return *this;
  assert(d > 0);
  // Erosion by the square is erosion by a horizontal segment of half-length
  // d, then by a vertical one. Every canonical rect spans a maximal x-run of
  // the region in each band it covers, so the horizontal pass shrinks each
  // rect by d in x; the vertical pass does the same in the transposed frame.
  // Each pass emits its rects transposed, and the normalize after it is the
  // sweep that makes the next frame's runs maximal.
  const auto shrink_transposed = [d](const std::vector<Rect>& in) {
    std::vector<Rect> out;
    out.reserve(in.size());
    for (const Rect& r : in) {
      if (r.x1 - r.x0 > 2 * d) out.push_back({r.y0, r.x0 + d, r.y1, r.x1 - d});
    }
    return RectSet(std::move(out));
  };
  return shrink_transposed(shrink_transposed(rects()).rects());
}

RectSet RectSet::scaled(Coord k) const {
  assert(k > 0);
  RectSet out;
  out.rects_.reserve(rects().size());
  for (const Rect& r : rects()) {
    out.rects_.push_back({r.x0 * k, r.y0 * k, r.x1 * k, r.y1 * k});
  }
  return out;  // scaling preserves canonical form
}

const std::vector<int>& RectSet::component_labels() const {
  if (labels_ == nullptr) {
    labels_ = std::make_shared<const std::vector<int>>(label_components(rects()));
  }
  return *labels_;
}

const std::vector<std::vector<Rect>>& RectSet::components() const {
  if (comps_ != nullptr) return *comps_;
  const std::vector<int>& labels = component_labels();
  int n = 0;
  for (int l : labels) n = std::max(n, l + 1);
  std::vector<std::vector<Rect>> out(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < rects_.size(); ++i) {
    out[static_cast<std::size_t>(labels[i])].push_back(rects_[i]);
  }
  comps_ = std::make_shared<const std::vector<std::vector<Rect>>>(std::move(out));
  return *comps_;
}

namespace {

/// Path-halving union-find over rect indices.
struct Components {
  std::vector<int> parent;

  explicit Components(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
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

/// Connectivity of pairwise-disjoint rects (every RectSet decomposition)
/// in O(n log n + touching pairs), given `order` sorted by (x0, y0): sweep
/// left to right, keeping the rects that span the sweep line sorted by y0.
/// Disjoint rects spanning one vertical line have disjoint y-ranges, so
/// the rects whose closed y-range meets a new rect's are one contiguous
/// run of that list. Returns false, with `cc` partly merged, on
/// overlapping or degenerate input.
bool sweep_disjoint(const std::vector<Rect>& rects,
                    const std::vector<int>& order, Components& cc) {
  const std::size_t n = rects.size();
  const auto at = [&rects](int i) -> const Rect& {
    return rects[static_cast<std::size_t>(i)];
  };
  // Rects leave the sweep in x1 order, which is known up front.
  std::vector<int> by_x1(order);
  std::sort(by_x1.begin(), by_x1.end(),
            [&](int a, int b) { return at(a).x1 < at(b).x1; });
  std::size_t gone = 0;
  std::vector<int> open;  // rects with x0 < sweep <= x1, by y0
  const auto y0_less = [&](int a, Coord y) { return at(a).y0 < y; };
  const auto evict = [&](Coord x, bool inclusive) {
    for (; gone < n; ++gone) {
      const Rect& r = at(by_x1[gone]);
      if (r.x1 > x || (r.x1 == x && !inclusive)) break;
      open.erase(std::lower_bound(open.begin(), open.end(), r.y0, y0_less));
    }
  };
  for (std::size_t g = 0; g < n;) {
    const Coord x = at(order[g]).x0;
    std::size_t e = g;
    while (e < n && at(order[e]).x0 == x) ++e;
    evict(x, false);
    for (std::size_t k = g; k < e; ++k) {
      const int i = order[k];
      const Rect& r = at(i);
      if (r.empty()) return false;
      if (k > g) {  // same x0, sorted by y0: only the previous can touch
        const Rect& p = at(order[k - 1]);
        if (p.y1 > r.y0) return false;
        if (p.y1 == r.y0) cc.unite(order[k - 1], i);
      }
      // Open rects with y0 <= r.y1, walked down while their y1 >= r.y0.
      auto it = std::upper_bound(
          open.begin(), open.end(), r.y1,
          [&](Coord y, int o) { return y < at(o).y0; });
      while (it != open.begin()) {
        --it;
        const Rect& o = at(*it);
        if (o.y1 < r.y0) break;
        if (o.x1 > x && o.y0 < r.y1 && r.y0 < o.y1) return false;
        if (o.edge_connected(r)) cc.unite(*it, i);
      }
    }
    evict(x, true);
    for (std::size_t k = g; k < e; ++k) {
      const int i = order[k];
      const Rect& r = at(i);
      const auto it = open.insert(
          std::lower_bound(open.begin(), open.end(), r.y0, y0_less), i);
      if (std::next(it) != open.end() && at(*std::next(it)).y0 < r.y1) {
        return false;
      }
      if (it != open.begin() && at(*std::prev(it)).y1 > r.y0) return false;
    }
    g = e;
  }
  return true;
}

}  // namespace

std::vector<int> label_components(const std::vector<Rect>& rects) {
  const std::size_t n = rects.size();
  const auto at = [&rects](int i) -> const Rect& {
    return rects[static_cast<std::size_t>(i)];
  };
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return std::tie(at(a).x0, at(a).y0) < std::tie(at(b).x0, at(b).y0);
  });
  // Decompositions are disjoint and take the sweep. Anything else falls
  // back to the pair scan over every pair whose x-extents overlap or abut
  // (the unions the sweep found before giving up stay valid).
  Components cc(n);
  if (!sweep_disjoint(rects, order, cc)) {
    for (std::size_t i = 0; i < n; ++i) {
      const Rect& ri = at(order[i]);
      for (std::size_t j = i + 1; j < n; ++j) {
        const Rect& rj = at(order[j]);
        if (rj.x0 > ri.x1) break;
        if (ri.edge_connected(rj)) cc.unite(order[i], order[j]);
      }
    }
  }

  // Dense labels in order of first appearance.
  std::vector<int> labels(n);
  std::vector<int> remap(n, -1);
  int next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int root = cc.find(static_cast<int>(i));
    if (remap[static_cast<std::size_t>(root)] < 0) {
      remap[static_cast<std::size_t>(root)] = next++;
    }
    labels[i] = remap[static_cast<std::size_t>(root)];
  }
  return labels;
}

}  // namespace silc::geom
