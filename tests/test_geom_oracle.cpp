// Differential fuzz of the RectSet scanline against its oracle
// (fixtures/geom_oracle.hpp: the original per-band sort and std::map
// collector, and the original erosion through the complement), of
// label_components against its original pair scan, of the width rule's
// per-component opening against the whole set's, and of the spatial index
// (RectGrid) behind RectSet's point and region queries against the linear
// scans it replaced and a brute-force scan; of RectSet::spliced and its
// spliced labels against a rebuild, with the property the splice rests on
// (a subset of a canonical list is canonical). The contract is
// exact: every operation returns the same canonical rects in the same
// order, because hash(), the verdict-cache keys, violation sets and
// netlists are all built from that vector. Inputs are
// random rect soups of 1..4k rects with duplicates, nested and abutting
// rects, zero-width and zero-height rects and negative coordinates.
//
// Honors fixtures/fuzz_env.hpp: SILC_FUZZ_TRIALS scales the sweep,
// SILC_FUZZ_SEED reruns one failing trial.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "fuzz_env.hpp"
#include "geom/rectset.hpp"
#include "geom_oracle.hpp"

namespace silc::geom {
namespace {

namespace oracle = silc_fixtures::geom_oracle;

std::string text(const std::vector<Rect>& rs) {
  std::string s;
  for (const Rect& r : rs) s += to_string(r) + " ";
  return s.empty() ? "<empty>" : s;
}

void expect_same(const RectSet& got, const std::vector<Rect>& want,
                 const char* what) {
  EXPECT_TRUE(got.rects() == want)
      << what << " differs from the oracle\n    oracle:  " << text(want)
      << "\n    current: " << text(got.rects());
}

Coord coord(std::mt19937& rng, Coord span) {
  return static_cast<Coord>(rng() % static_cast<unsigned>(2 * span + 1)) - span;
}

/// A rect with corners in [-span, span]^2; may be empty.
Rect random_rect(std::mt19937& rng, Coord span) {
  const Coord x0 = coord(rng, span), y0 = coord(rng, span);
  const Coord w = static_cast<Coord>(rng() % static_cast<unsigned>(span / 2 + 2));
  const Coord h = static_cast<Coord>(rng() % static_cast<unsigned>(span / 2 + 2));
  return {x0, y0, x0 + w, y0 + h};
}

/// A soup of `n` rects: fresh ones mixed with duplicates, nested copies,
/// edge-abutting neighbours and zero-width / zero-height slivers of
/// earlier ones.
std::vector<Rect> random_soup(std::mt19937& rng, std::size_t n, Coord span) {
  std::vector<Rect> soup;
  soup.reserve(n);
  while (soup.size() < n) {
    const unsigned kind = soup.empty() ? 0 : rng() % 8;
    const Rect p = soup.empty() ? Rect{} : soup[rng() % soup.size()];
    switch (kind) {
      case 1:  // duplicate
        soup.push_back(p);
        break;
      case 2: {  // nested (possibly degenerate when p is small)
        const Coord dx = p.width() / 3, dy = p.height() / 3;
        soup.push_back({p.x0 + dx, p.y0 + dy, p.x1 - dx, p.y1 - dy});
        break;
      }
      case 3: {  // abutting on the right or on top
        const Rect q = random_rect(rng, span);
        if (rng() % 2 == 0) {
          soup.push_back({p.x1, p.y0, p.x1 + q.width(), p.y1});
        } else {
          soup.push_back({p.x0, p.y1, p.x1, p.y1 + q.height()});
        }
        break;
      }
      case 4:  // zero width
        soup.push_back({p.x1, p.y0, p.x1, p.y1});
        break;
      case 5:  // zero height
        soup.push_back({p.x0, p.y1, p.x1, p.y1});
        break;
      default:
        soup.push_back(random_rect(rng, span));
        break;
    }
  }
  return soup;
}

/// Queries for covers(): the set's own rects, sub-rects of them, rects
/// spanning neighbours, random and empty rects.
std::vector<Rect> covers_queries(std::mt19937& rng, const std::vector<Rect>& set,
                                 Coord span) {
  std::vector<Rect> qs;
  for (int i = 0; i < 24; ++i) {
    if (set.empty() || i % 4 == 3) {
      qs.push_back(random_rect(rng, span));
      continue;
    }
    const Rect& s = set[rng() % set.size()];
    const Rect& t = set[rng() % set.size()];
    switch (i % 4) {
      case 0:
        qs.push_back(s);
        break;
      case 1:
        qs.push_back({s.x0 + s.width() / 4, s.y0, s.x1, s.y1 - s.height() / 4});
        break;
      default:
        qs.push_back(s.bound(t));
        break;
    }
  }
  qs.push_back({3, 3, 3, 9});
  return qs;
}

void check_trial(unsigned seed) {
  std::mt19937 rng(seed);
  // Sizes cycle 1..4, ..32, ..256, ..4096 rects; spans from a tiny grid
  // (heavy overlap and abutment) to a sparse one.
  static constexpr std::size_t kCaps[] = {4, 32, 256, 4096};
  static constexpr Coord kSpans[] = {3, 12, 60, 400};
  const std::size_t cap = kCaps[seed % 4];
  const Coord span = kSpans[(seed / 4) % 4];
  const std::vector<Rect> soup_a = random_soup(rng, 1 + rng() % cap, span);
  const std::vector<Rect> soup_b = random_soup(rng, 1 + rng() % cap, span);

  const RectSet a(soup_a);
  RectSet b;
  for (const Rect& r : soup_b) b.add(r);
  const std::vector<Rect> ca = oracle::normalize(soup_a);
  const std::vector<Rect> cb = oracle::normalize(soup_b);
  expect_same(a, ca, "normalize");
  expect_same(b, cb, "normalize(add)");

  expect_same(a.unite(b), oracle::unite(ca, cb), "unite");
  expect_same(a.intersect(b), oracle::intersect(ca, cb), "intersect");
  expect_same(a.subtract(b), oracle::subtract(ca, cb), "subtract");
  expect_same(b.subtract(a), oracle::subtract(cb, ca), "subtract(reversed)");
  expect_same(a.unite(RectSet()), oracle::unite(ca, {}), "unite(empty)");

  const Coord d = static_cast<Coord>(rng() % 4);
  expect_same(a.dilated(d), oracle::dilated(ca, d), "dilated");
  expect_same(a.eroded(d), oracle::eroded(ca, d), "eroded");
  expect_same(b.eroded(d + 1), oracle::eroded(cb, d + 1), "eroded(b)");
  const Coord k = 1 + static_cast<Coord>(rng() % 3);
  expect_same(a.scaled(k), oracle::scaled(ca, k), "scaled");

  for (int i = 0; i < 4; ++i) {
    const Rect w = random_rect(rng, span);
    expect_same(a.clipped(w), oracle::clipped(ca, w), "clipped");
  }
  for (const Rect& q : covers_queries(rng, ca, span)) {
    EXPECT_EQ(a.covers(q), oracle::covers(ca, q))
        << "covers(" << to_string(q) << ") differs from the oracle";
  }
}

/// label_components must reproduce the pair scan's labels exactly, on
/// canonical decompositions (the production inputs, taken by the sweep)
/// and on raw soups (overlapping and degenerate rects).
void check_labels(unsigned seed) {
  std::mt19937 rng(seed);
  static constexpr std::size_t kCaps[] = {4, 32, 256, 2048};
  static constexpr Coord kSpans[] = {3, 12, 60, 400};
  const std::vector<Rect> soup =
      random_soup(rng, 1 + rng() % kCaps[seed % 4], kSpans[(seed / 4) % 4]);
  const std::vector<Rect> canonical = RectSet(soup).rects();
  EXPECT_EQ(label_components(canonical), oracle::label_components(canonical))
      << "canonical: " << text(canonical);
  EXPECT_EQ(label_components(soup), oracle::label_components(soup))
      << "soup: " << text(soup);
  // A wide rail under many small rects: the shape the sweep exists for.
  std::vector<Rect> railed = canonical;
  railed.push_back({-1000, 1000, 1000, 1004});
  for (Coord x = -990; x < 990; x += 7) railed.push_back({x, 1004, x + 3, 1010});
  const std::vector<Rect> rc = RectSet(railed).rects();
  EXPECT_EQ(label_components(rc), oracle::label_components(rc));
}

/// Any subset of a canonical decomposition is canonical: it normalizes to
/// itself, rect for rect. LayerTable::labels' binary search of a window's
/// rects in the full list, and RectSet::spliced's copy of the rects away
/// from a zone, both rest on it.
void check_subsets(unsigned seed) {
  std::mt19937 rng(seed);
  static constexpr std::size_t kCaps[] = {4, 32, 256, 2048};
  static constexpr Coord kSpans[] = {3, 12, 60, 400};
  const std::vector<Rect> canonical =
      RectSet(random_soup(rng, 1 + rng() % kCaps[seed % 4],
                          kSpans[(seed / 4) % 4]))
          .rects();
  for (const unsigned keep_pct : {0u, 10u, 50u, 90u, 100u}) {
    std::vector<Rect> subset;
    for (const Rect& r : canonical) {
      if (rng() % 100 < keep_pct) subset.push_back(r);
    }
    EXPECT_TRUE(RectSet(subset).rects() == subset)
        << keep_pct << "% subset is not canonical: " << text(subset)
        << "\n    normalized: " << text(RectSet(subset).rects());
    EXPECT_TRUE(oracle::normalize(subset) == subset)
        << keep_pct << "% subset is not canonical to the oracle";
  }
  if (!canonical.empty()) {  // every rect but one
    std::vector<Rect> subset = canonical;
    subset.erase(subset.begin() +
                 static_cast<std::ptrdiff_t>(rng() % canonical.size()));
    EXPECT_TRUE(RectSet(subset).rects() == subset)
        << "a set less one rect is not canonical: " << text(subset);
  }
}

/// RectSet::spliced against the oracle's (set − zone) ∪ inside, and its
/// spliced labels against label_components of the result, on zones of one
/// to a few rects (some of them degenerate) over the soup's span.
void check_splice(unsigned seed) {
  std::mt19937 rng(seed);
  static constexpr std::size_t kCaps[] = {4, 32, 256, 2048};
  static constexpr Coord kSpans[] = {3, 12, 60, 400};
  const Coord span = kSpans[(seed / 4) % 4];
  const RectSet base(random_soup(rng, 1 + rng() % kCaps[seed % 4], span));
  (void)base.component_labels();
  std::vector<Rect> zs;
  for (std::size_t i = 0, n = 1 + rng() % 4; i < n; ++i) {
    zs.push_back(random_rect(rng, span));
  }
  const RectSet zone(zs);
  const RectSet inside =
      RectSet(random_soup(rng, 1 + rng() % kCaps[seed % 4], span))
          .intersect(zone);
  std::vector<int> from;
  const RectSet got = base.spliced(zone, inside, from);
  expect_same(got, oracle::unite(oracle::subtract(base.rects(), zone.rects()),
                                 inside.rects()),
              "spliced");
  ASSERT_EQ(from.size(), got.rects().size());
  for (std::size_t k = 0; k < from.size(); ++k) {
    if (from[k] >= 0) {
      EXPECT_TRUE(base.rects()[static_cast<std::size_t>(from[k])] ==
                  got.rects()[k])
          << "from[" << k << "] names another rect";
    }
  }
  got.splice_labels(base, from);
  EXPECT_EQ(got.component_labels(), oracle::label_components(got.rects()))
      << "spliced labels differ from a fresh labelling";
}

/// Separable erosion against the oracle's erosion through the complement,
/// at radii from one unit to past the soup's feature sizes; and the
/// property the width rule rests on: opening each connected component on
/// its own gives the whole set's opening, and the thin remainders' rects
/// are exactly the whole thin region's canonical rects.
void check_erosion(unsigned seed) {
  std::mt19937 rng(seed);
  static constexpr std::size_t kCaps[] = {4, 32, 256, 1024};
  static constexpr Coord kSpans[] = {3, 12, 60, 400};
  const Coord span = kSpans[(seed / 4) % 4];
  const std::vector<Rect> soup = random_soup(rng, 1 + rng() % kCaps[seed % 4], span);
  const RectSet s(soup);
  const std::vector<Rect> cs = oracle::normalize(soup);
  for (int i = 0; i < 3; ++i) {
    const Coord d = 1 + static_cast<Coord>(rng() % static_cast<unsigned>(span / 2 + 2));
    expect_same(s.eroded(d), oracle::eroded(cs, d), "eroded");

    const std::vector<Rect> open = oracle::dilated(oracle::eroded(cs, d), d);
    const std::vector<Rect> thin = oracle::subtract(cs, open);
    RectSet opened;
    std::vector<Rect> thins;
    for (const std::vector<Rect>& comp : s.components()) {
      const RectSet c(comp);
      const RectSet o = c.eroded(d).dilated(d);
      for (const Rect& r : o.rects()) opened.add(r);
      const RectSet t = c.subtract(o);
      thins.insert(thins.end(), t.rects().begin(), t.rects().end());
    }
    expect_same(opened, open, "per-component opening");
    std::sort(thins.begin(), thins.end(), [](const Rect& a, const Rect& b) {
      return std::tie(a.y0, a.x0, a.y1, a.x1) < std::tie(b.y0, b.x0, b.y1, b.x1);
    });
    EXPECT_TRUE(thins == thin)
        << "per-component thin rects differ from the whole thin region\n"
        << "    whole:         " << text(thin)
        << "\n    per component: " << text(thins);
  }
}

/// Queries for the index: near the set's rects and its cells (sub-rects,
/// neighbours' bounds, zero-width and zero-height slivers, points on rect
/// corners and edges), random ones, and ones far outside the bbox or
/// inverted.
std::vector<Rect> index_queries(std::mt19937& rng, const std::vector<Rect>& set,
                                Coord span) {
  std::vector<Rect> qs = covers_queries(rng, set, span);
  for (int i = 0; !set.empty() && i < 16; ++i) {
    const Rect& s = set[rng() % set.size()];
    switch (i % 4) {
      case 0: qs.push_back({s.x1, s.y0, s.x1, s.y1}); break;  // right edge
      case 1: qs.push_back({s.x0, s.y1, s.x1, s.y1}); break;  // top edge
      case 2: qs.push_back({s.x0, s.y0, s.x0, s.y0}); break;  // corner point
      default: qs.push_back(s.inflated(1 + static_cast<Coord>(rng() % 40))); break;
    }
  }
  qs.push_back({10 * span + 5, 10 * span + 5, 10 * span + 9, 10 * span + 9});
  qs.push_back({-10 * span - 9, -3, -10 * span - 5, 3});
  qs.push_back({-10 * span, -10 * span, 10 * span, 10 * span});  // everything
  qs.push_back({4, 0, 2, 6});                                     // inverted
  return qs;
}

/// Every RectSet query against its scan oracle over the set's canonical
/// rects, on `what` (a label for failure messages).
void expect_queries(std::mt19937& rng, const RectSet& set, Coord span,
                    const char* what) {
  const std::vector<Rect>& cs = set.rects();
  for (const Rect& q : index_queries(rng, cs, span)) {
    const std::string at = std::string(what) + " query " + to_string(q);
    EXPECT_EQ(set.covers(q), oracle::covers(cs, q)) << at << ": covers";
    EXPECT_EQ(set.intersects(q), oracle::intersects(cs, q)) << at << ": intersects";
    EXPECT_EQ(set.touches(q), oracle::touches(cs, q)) << at << ": touches";
    EXPECT_TRUE(set.overlapping(q) == oracle::overlapping(cs, q))
        << at << ": overlapping\n    oracle:  " << text(oracle::overlapping(cs, q))
        << "\n    current: " << text(set.overlapping(q));
    expect_same(set.clipped(q), oracle::clipped(cs, q), "clipped");
    for (const Point p : {q.ll(), q.ur(), Point{q.x0, q.y1}, q.center()}) {
      EXPECT_EQ(set.contains(p), oracle::contains(cs, p))
          << at << ": contains " << to_string(p);
    }
  }
}

/// The raw index over an arbitrary rect list (overlapping, duplicate and
/// degenerate rects, as extraction's fragment lists may be) against a
/// brute-force scan: each touching rect reported exactly once, early stop
/// honoured.
void expect_grid(std::mt19937& rng, const std::vector<Rect>& rects, Coord span) {
  const RectGrid grid(rects);
  for (const Rect& q : index_queries(rng, rects, span)) {
    std::vector<int> want;
    for (std::size_t i = 0; i < rects.size(); ++i) {
      if (q.x0 <= q.x1 && q.y0 <= q.y1 && rects[i].touches(q)) {
        want.push_back(static_cast<int>(i));
      }
    }
    std::vector<int> got;
    grid.for_touching(rects, q, [&got](int i) { got.push_back(i); });
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "grid query " << to_string(q);
    int seen = 0;
    const bool stopped = grid.find_touching(rects, q, [&seen](int) {
      return ++seen == 2;
    });
    EXPECT_EQ(stopped, want.size() >= 2) << "grid query " << to_string(q);
  }
}

/// A soup whose every coordinate is a multiple of 128 from a rect at the
/// origin: every grid cell size lines up with its edges, so hits touch
/// only at cell boundaries.
std::vector<Rect> aligned_soup(std::mt19937& rng, std::size_t n) {
  std::vector<Rect> soup = {{0, 0, 128, 128}};
  while (soup.size() < n) {
    const Coord x = 128 * static_cast<Coord>(rng() % 24);
    const Coord y = 128 * static_cast<Coord>(rng() % 24);
    const Coord w = 128 * static_cast<Coord>(rng() % 4);
    const Coord h = 128 * static_cast<Coord>(1 + rng() % 3);
    soup.push_back({x, y, x + w, y + h});
  }
  return soup;
}

void check_index(unsigned seed) {
  std::mt19937 rng(seed);
  static constexpr std::size_t kCaps[] = {4, 32, 256, 2048};
  static constexpr Coord kSpans[] = {12, 400, 3000};
  const std::size_t cap = kCaps[seed % 4];
  const Coord span = kSpans[(seed / 4) % 3];
  const bool aligned = seed % 5 == 4;
  std::vector<Rect> soup = aligned ? aligned_soup(rng, 1 + rng() % cap)
                                   : random_soup(rng, 1 + rng() % cap, span);
  // Rails spanning many cells (on the 128 grid for an aligned soup).
  for (int i = 0; i < 3; ++i) {
    if (aligned) {
      const Coord at = 128 * static_cast<Coord>(rng() % 24);
      soup.push_back({0, at, 3072, at + 128});
      soup.push_back({at, 0, at + 128, 3072});
      continue;
    }
    const Coord y = coord(rng, span);
    soup.push_back({-span, y, span, y + 1 + static_cast<Coord>(rng() % 3)});
    const Coord x = coord(rng, span);
    soup.push_back({x, -span, x + 2, span});
  }
  const Coord qspan = aligned ? 3072 : span;

  RectSet s(soup);
  expect_queries(rng, s, qspan, "fresh");
  expect_grid(rng, soup, qspan);
  expect_grid(rng, s.rects(), qspan);

  // A copy shares the index; add() after a query must drop it on the
  // mutated side only.
  RectSet copy = s;
  expect_queries(rng, copy, qspan, "copy");
  std::vector<Rect> grown = s.rects();
  for (int i = 0; i < 8; ++i) {
    const Rect r = random_rect(rng, 2 * span);
    copy.add(r);
    grown.push_back(r);
  }
  expect_same(copy, oracle::normalize(grown), "copy after add");
  expect_queries(rng, copy, qspan, "copy after add");
  expect_queries(rng, s, qspan, "original after the copy's add");
  s.add({-span - 50, -span - 50, -span - 10, -span - 10});
  expect_queries(rng, s, qspan, "after add");
}

TEST(GeomOracle, IndexedQueriesMatchScans) {
  silc_fixtures::fuzz_seeds("test_geom_oracle",
                            "GeomOracle.IndexedQueriesMatchScans", 1, 200,
                            check_index);
}

TEST(GeomOracle, SeparableErosionAndPerComponentOpening) {
  silc_fixtures::fuzz_seeds("test_geom_oracle",
                            "GeomOracle.SeparableErosionAndPerComponentOpening",
                            1, 200, check_erosion);
}

TEST(GeomOracle, CanonicalSubsetsAreCanonical) {
  silc_fixtures::fuzz_seeds("test_geom_oracle",
                            "GeomOracle.CanonicalSubsetsAreCanonical", 1, 200,
                            check_subsets);
}

TEST(GeomOracle, SplicedMatchesRebuild) {
  silc_fixtures::fuzz_seeds("test_geom_oracle",
                            "GeomOracle.SplicedMatchesRebuild", 1, 200,
                            check_splice);
}

TEST(GeomOracle, LabelComponentsMatchesPairScan) {
  silc_fixtures::fuzz_seeds("test_geom_oracle",
                            "GeomOracle.LabelComponentsMatchesPairScan", 1, 200,
                            check_labels);
}

TEST(GeomOracle, RandomSoupsMatchExactly) {
  silc_fixtures::fuzz_seeds("test_geom_oracle",
                            "GeomOracle.RandomSoupsMatchExactly", 1, 200,
                            check_trial);
}

}  // namespace
}  // namespace silc::geom
