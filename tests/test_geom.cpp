// Geometry substrate tests: transform group properties, rect operations, and
// the RectSet boolean/morphological algebra.
#include <gtest/gtest.h>

#include <random>

#include "geom/geom.hpp"
#include "geom/rectset.hpp"

namespace silc::geom {
namespace {

const std::array<Orient, 8> kAllOrients = {
    Orient::R0, Orient::R90, Orient::R180, Orient::R270,
    Orient::MX, Orient::MY, Orient::MXR90, Orient::MYR90};

TEST(Rect, BasicPredicates) {
  const Rect r{0, 0, 10, 4};
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.width(), 10);
  EXPECT_EQ(r.height(), 4);
  EXPECT_EQ(r.area(), 40);
  EXPECT_EQ(r.min_dim(), 4);
  EXPECT_TRUE((Rect{5, 5, 5, 9}).empty());
  EXPECT_TRUE((Rect{5, 5, 9, 5}).empty());
  EXPECT_TRUE((Rect{7, 5, 3, 9}).empty());
}

TEST(Rect, OverlapVsTouch) {
  const Rect a{0, 0, 4, 4};
  EXPECT_TRUE(a.overlaps({2, 2, 6, 6}));
  EXPECT_FALSE(a.overlaps({4, 0, 8, 4}));  // shared edge only
  EXPECT_TRUE(a.touches({4, 0, 8, 4}));
  EXPECT_TRUE(a.touches({4, 4, 8, 8}));  // shared corner
  EXPECT_FALSE(a.overlaps({4, 4, 8, 8}));
  EXPECT_FALSE(a.touches({5, 0, 8, 4}));
}

TEST(Rect, EdgeConnected) {
  const Rect a{0, 0, 4, 4};
  EXPECT_TRUE(a.edge_connected({4, 0, 8, 4}));   // abutting edge
  EXPECT_TRUE(a.edge_connected({2, 2, 6, 6}));   // overlap
  EXPECT_FALSE(a.edge_connected({4, 4, 8, 8}));  // corner only
  EXPECT_FALSE(a.edge_connected({5, 0, 9, 4}));  // gap
  EXPECT_TRUE(a.edge_connected({0, 4, 4, 8}));   // abutting top edge
}

TEST(Rect, IntersectBoundInflate) {
  const Rect a{0, 0, 10, 10}, b{5, 5, 15, 15};
  EXPECT_EQ(a.intersect(b), (Rect{5, 5, 10, 10}));
  EXPECT_EQ(a.bound(b), (Rect{0, 0, 15, 15}));
  EXPECT_EQ(a.inflated(2), (Rect{-2, -2, 12, 12}));
  EXPECT_EQ(a.inflated(1, 3), (Rect{-1, -3, 11, 13}));
  EXPECT_TRUE(a.contains(Point{10, 10}));
  EXPECT_TRUE(a.contains(Rect{0, 0, 10, 10}));
  EXPECT_FALSE(a.contains(Rect{0, 0, 11, 10}));
}

TEST(Rect, BoundIgnoresEmpty) {
  const Rect a{2, 3, 7, 9};
  EXPECT_EQ(Rect{}.bound(a), a);
  EXPECT_EQ(a.bound(Rect{}), a);
}

class OrientTest : public ::testing::TestWithParam<Orient> {};

TEST_P(OrientTest, InverseComposesToIdentity) {
  const Orient o = GetParam();
  EXPECT_EQ(compose(inverse(o), o), Orient::R0) << to_string(o);
  EXPECT_EQ(compose(o, inverse(o)), Orient::R0) << to_string(o);
}

TEST_P(OrientTest, ActionPreservesRectArea) {
  const Orient o = GetParam();
  const Rect r{-3, 2, 7, 11};
  EXPECT_EQ(apply(o, r).area(), r.area()) << to_string(o);
}

TEST_P(OrientTest, ComposeMatchesSequentialApplication) {
  const Orient o = GetParam();
  const Point p{5, -7};
  for (const Orient q : kAllOrients) {
    EXPECT_EQ(apply(compose(q, o), p), apply(q, apply(o, p)))
        << to_string(q) << " * " << to_string(o);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrients, OrientTest, ::testing::ValuesIn(kAllOrients),
                         [](const auto& info) { return to_string(info.param); });

TEST(Orient, SpecificActions) {
  const Point p{3, 1};
  EXPECT_EQ(apply(Orient::R90, p), (Point{-1, 3}));
  EXPECT_EQ(apply(Orient::R180, p), (Point{-3, -1}));
  EXPECT_EQ(apply(Orient::R270, p), (Point{1, -3}));
  EXPECT_EQ(apply(Orient::MX, p), (Point{3, -1}));
  EXPECT_EQ(apply(Orient::MY, p), (Point{-3, 1}));
  EXPECT_EQ(apply(Orient::MXR90, p), (Point{-1, -3}));
  EXPECT_EQ(apply(Orient::MYR90, p), (Point{1, 3}));
}

TEST(Transform, ComposeAndInvertRoundTrip) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> coord(-50, 50);
  std::uniform_int_distribution<int> oi(0, 7);
  for (int trial = 0; trial < 200; ++trial) {
    const Transform a{kAllOrients[static_cast<std::size_t>(oi(rng))],
                      {coord(rng), coord(rng)}};
    const Transform b{kAllOrients[static_cast<std::size_t>(oi(rng))],
                      {coord(rng), coord(rng)}};
    const Point p{coord(rng), coord(rng)};
    EXPECT_EQ((a * b).apply(p), a.apply(b.apply(p)));
    EXPECT_EQ(a.inverted().apply(a.apply(p)), p);
    EXPECT_EQ((a * a.inverted()), Transform{});
  }
}

TEST(Transform, RectRoundTrip) {
  const Transform t{Orient::MXR90, {10, -4}};
  const Rect r{1, 2, 5, 9};
  EXPECT_EQ(t.inverted().apply(t.apply(r)), r);
}

// ------------------------------------------------------------- RectSet ----

TEST(RectSet, NormalizeMergesOverlaps) {
  RectSet s;
  s.add({0, 0, 10, 10});
  s.add({5, 0, 15, 10});
  EXPECT_EQ(s.rects().size(), 1u);
  EXPECT_EQ(s.rects()[0], (Rect{0, 0, 15, 10}));
  EXPECT_EQ(s.area(), 150);
}

TEST(RectSet, CanonicalFormIsRepresentationIndependent) {
  // The same L-shaped region built two different ways.
  RectSet a;
  a.add({0, 0, 4, 8});
  a.add({0, 0, 8, 4});
  RectSet b;
  b.add({0, 4, 4, 8});
  b.add({0, 0, 8, 4});
  b.add({1, 1, 3, 3});  // fully inside
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.area(), 8 * 4 + 4 * 4);
}

TEST(RectSet, SubtractMakesHole) {
  RectSet s(Rect{0, 0, 10, 10});
  const RectSet hole(Rect{4, 4, 6, 6});
  const RectSet with_hole = s.subtract(hole);
  EXPECT_EQ(with_hole.area(), 100 - 4);
  EXPECT_FALSE(with_hole.contains(Point{5, 5}));
  EXPECT_TRUE(with_hole.covers(Rect{0, 0, 10, 4}));
  EXPECT_FALSE(with_hole.covers(Rect{3, 3, 7, 7}));
  // Union with the hole restores the square.
  EXPECT_EQ(with_hole.unite(hole), s);
}

TEST(RectSet, IntersectIsContainedInBoth) {
  RectSet a;
  a.add({0, 0, 10, 4});
  a.add({0, 6, 10, 10});
  const RectSet b(Rect{5, 0, 20, 10});
  const RectSet i = a.intersect(b);
  EXPECT_EQ(i.area(), 5 * 4 + 5 * 4);
  for (const Rect& r : i.rects()) {
    EXPECT_TRUE(a.covers(r));
    EXPECT_TRUE(b.covers(r));
  }
}

TEST(RectSet, DilateErodeRestoresRectangle) {
  // Opening/closing a plain rectangle is the identity.
  const RectSet s(Rect{0, 0, 20, 8});
  EXPECT_EQ(s.dilated(2).eroded(2), s);
  EXPECT_EQ(s.eroded(2).dilated(2), s);
  EXPECT_EQ(s.eroded(2), RectSet(Rect{2, 2, 18, 6}));
}

TEST(RectSet, ErodeEliminatesThinFeatures) {
  RectSet s;
  s.add({0, 0, 20, 3});   // a 3-tall bar: erode by 2 kills it
  s.add({30, 0, 40, 20});  // a fat block survives
  const RectSet e = s.eroded(2);
  EXPECT_EQ(e, RectSet(Rect{32, 2, 38, 18}));
}

TEST(RectSet, DilateMergesNearbyShapes) {
  RectSet s;
  s.add({0, 0, 4, 4});
  s.add({6, 0, 10, 4});  // gap of 2
  EXPECT_EQ(s.components().size(), 2u);
  const RectSet d = s.dilated(1);
  EXPECT_EQ(d.components().size(), 1u);
}

TEST(RectSet, ComponentsSplitByCornerContact) {
  RectSet s;
  s.add({0, 0, 4, 4});
  s.add({4, 4, 8, 8});  // corner-only contact: electrically separate
  EXPECT_EQ(s.components().size(), 2u);
  s.add({0, 4, 4, 8});  // now bridges them
  EXPECT_EQ(s.components().size(), 1u);
}

TEST(RectSet, LabelComponentsDense) {
  const std::vector<Rect> rects = {
      {0, 0, 2, 2}, {10, 10, 12, 12}, {2, 0, 4, 2}, {20, 0, 22, 2}};
  const std::vector<int> labels = label_components(rects);
  ASSERT_EQ(labels.size(), 4u);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_NE(labels[0], labels[1]);
  EXPECT_NE(labels[1], labels[3]);
  EXPECT_NE(labels[0], labels[3]);
}

// Property sweep: random rect soups obey boolean-algebra identities.
class RectSetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RectSetPropertyTest, BooleanAlgebraIdentities) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> c(0, 40);
  std::uniform_int_distribution<int> w(1, 12);
  const auto soup = [&](int n) {
    RectSet s;
    for (int i = 0; i < n; ++i) {
      const int x = c(rng), y = c(rng);
      s.add({x, y, x + w(rng), y + w(rng)});
    }
    return s;
  };
  const RectSet a = soup(12), b = soup(12);

  const RectSet uni = a.unite(b);
  const RectSet inter = a.intersect(b);
  const RectSet a_minus_b = a.subtract(b);

  // |A u B| == |A| + |B| - |A n B|
  EXPECT_EQ(uni.area(), a.area() + b.area() - inter.area());
  // A = (A - B) u (A n B), disjointly.
  EXPECT_EQ(a_minus_b.unite(inter.intersect(a)), a);
  EXPECT_EQ(a_minus_b.intersect(inter).area(), 0);
  // (A - B) n B is empty.
  EXPECT_TRUE(a_minus_b.intersect(b).empty());
  // Union covers both.
  for (const Rect& r : a.rects()) EXPECT_TRUE(uni.covers(r));
  for (const Rect& r : b.rects()) EXPECT_TRUE(uni.covers(r));
  // Dilation is extensive, erosion anti-extensive.
  EXPECT_TRUE(a.dilated(2).intersect(a) == a);
  const RectSet er = a.eroded(1);
  EXPECT_TRUE(a.covers(er.bbox()) || er.empty() || a.intersect(er) == er);
  EXPECT_EQ(a.intersect(er), er);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectSetPropertyTest, ::testing::Range(0, 12));

// -------------------------------------- edge cases the windowed DRC leans on --

TEST(RectSet, ErosionLargerThanShapeIsEmpty) {
  const RectSet s(Rect{0, 0, 10, 6});
  EXPECT_TRUE(s.eroded(3).empty());   // 2d == height
  EXPECT_TRUE(s.eroded(5).empty());   // 2d > both dimensions
  EXPECT_FALSE(s.eroded(2).empty());  // a sliver survives
  EXPECT_TRUE(RectSet{}.eroded(7).empty());
}

TEST(RectSet, CoversAndIntersectsDegenerateRects) {
  const RectSet s(Rect{0, 0, 10, 10});
  // Degenerate (empty-interior) rects: vacuously covered, never
  // intersecting — the conventions windowed checks rely on.
  EXPECT_TRUE(s.covers(Rect{5, 5, 5, 9}));    // zero width
  EXPECT_TRUE(s.covers(Rect{50, 50, 50, 50}));  // zero area, outside
  EXPECT_FALSE(s.intersects(Rect{5, 5, 5, 9}));
  EXPECT_FALSE(s.intersects(Rect{8, 4, 2, 6}));  // inverted
  // Proper rects at the boundary: covers is closed, intersects is open.
  EXPECT_TRUE(s.covers(Rect{0, 0, 10, 10}));
  EXPECT_FALSE(s.covers(Rect{0, 0, 10, 11}));
  EXPECT_FALSE(s.intersects(Rect{10, 0, 20, 10}));  // shared edge only
  EXPECT_TRUE(s.intersects(Rect{9, 9, 20, 20}));
}

TEST(RectSet, LabelComponentsCornerTouchDoesNotConnect) {
  // A diagonal staircase of corner-touching rects: corner contact is not
  // electrical continuity, so every step is its own component.
  const std::vector<Rect> stairs{{0, 0, 4, 4}, {4, 4, 8, 8}, {8, 8, 12, 12}};
  const std::vector<int> sl = label_components(stairs);
  EXPECT_NE(sl[0], sl[1]);
  EXPECT_NE(sl[1], sl[2]);
  EXPECT_NE(sl[0], sl[2]);
  // An edge of positive length does connect; a bridger joins two corners.
  const std::vector<Rect> bridged{{0, 0, 4, 4}, {4, 4, 8, 8}, {4, 0, 8, 4}};
  const std::vector<int> bl = label_components(bridged);
  EXPECT_EQ(bl[0], bl[2]);
  EXPECT_EQ(bl[1], bl[2]);
}

TEST(RectSet, WindowedQueriesMatchWholeSetSemantics) {
  RectSet s;
  s.add({0, 0, 10, 4});
  s.add({20, 2, 30, 8});
  s.add({5, 10, 15, 14});
  const Rect w{8, 0, 22, 12};
  // overlapping: exactly the rects whose closed region meets the window.
  const std::vector<Rect> hits = s.overlapping(w);
  ASSERT_EQ(hits.size(), 3u);  // all three touch this window
  EXPECT_TRUE(s.overlapping(Rect{100, 100, 110, 110}).empty());
  // clipped == intersect with the window rect.
  EXPECT_EQ(s.clipped(w), s.intersect(RectSet(w)));
  // hash: equal regions hash equal regardless of construction.
  RectSet merged;
  merged.add({0, 0, 10, 8});
  RectSet halves;
  halves.add({0, 0, 10, 4});
  halves.add({0, 4, 10, 8});
  EXPECT_EQ(merged.hash(), halves.hash());
  EXPECT_NE(merged.hash(), s.hash());
}

// Tiled-vs-whole equivalence: any boolean result computed window by window
// over a partition (with clipping) reassembles into the whole-plane result.
class TiledOpEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(TiledOpEquivalence, PartitionedBooleansReassemble) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u + 3u);
  std::uniform_int_distribution<int> c(-30, 50);
  std::uniform_int_distribution<int> w(1, 15);
  const auto soup = [&](int n) {
    RectSet s;
    for (int i = 0; i < n; ++i) {
      const int x = c(rng), y = c(rng);
      s.add({x, y, x + w(rng), y + w(rng)});
    }
    return s;
  };
  const RectSet a = soup(20), b = soup(20);
  const Rect bb = a.bbox().bound(b.bbox()).inflated(2);

  const RectSet whole_u = a.unite(b);
  const RectSet whole_i = a.intersect(b);
  const RectSet whole_s = a.subtract(b);

  RectSet tiles_u, tiles_i, tiles_s;
  constexpr int kGrid = 3;
  for (int ix = 0; ix < kGrid; ++ix) {
    for (int iy = 0; iy < kGrid; ++iy) {
      const Rect tile{bb.x0 + bb.width() * ix / kGrid,
                      bb.y0 + bb.height() * iy / kGrid,
                      bb.x0 + bb.width() * (ix + 1) / kGrid,
                      bb.y0 + bb.height() * (iy + 1) / kGrid};
      const RectSet ca = a.clipped(tile), cb = b.clipped(tile);
      tiles_u = tiles_u.unite(ca.unite(cb));
      tiles_i = tiles_i.unite(ca.intersect(cb));
      tiles_s = tiles_s.unite(ca.subtract(cb).clipped(tile));
    }
  }
  EXPECT_EQ(tiles_u, whole_u);
  EXPECT_EQ(tiles_i, whole_i);
  EXPECT_EQ(tiles_s, whole_s);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TiledOpEquivalence, ::testing::Range(0, 8));

}  // namespace
}  // namespace silc::geom
