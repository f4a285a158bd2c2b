// DRC negative tests: every rule family must catch a deliberately broken
// layout (the generator tests prove the absence of false positives; these
// prove the absence of false negatives rule by rule). Plus the engine
// contracts: flat and hierarchical modes report byte-identical violation
// sets; the width rule's per-component opening reports what one opening of
// the whole layer does; results are canonical (sorted, deduped); a cold
// check_hier files
// one whole-top verdict, which hits across libraries; and the rule table
// is data (a technology edit changes verdicts with no engine change).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <tuple>

#include "core/compiler.hpp"
#include "design_sources.hpp"
#include "drc/drc.hpp"
#include "fuzz_env.hpp"
#include "geom_oracle.hpp"
#include "layout/layout.hpp"

namespace silc::drc {
namespace {

using geom::Rect;
using layout::Cell;
using layout::Library;
using tech::Layer;

Result check_shapes(const std::vector<layout::Shape>& shapes) {
  return check_flat(shapes);
}

TEST(DrcRules, MinWidth) {
  // 2.5-lambda metal wire (needs 3).
  const Result r = check_shapes({{Layer::Metal, Rect{0, 0, 40, 5}}});
  EXPECT_EQ(r.count("metal.width"), 1u);
  // Exactly minimum width passes.
  EXPECT_TRUE(check_shapes({{Layer::Metal, Rect{0, 0, 40, 6}}}).ok());
}

TEST(DrcRules, WidthOfProtrusionsIsLocal) {
  // A wide rail with a wide tab: no violation even though the tab is short.
  const Result ok = check_shapes({{Layer::Metal, Rect{0, 0, 60, 6}},
                                  {Layer::Metal, Rect{10, 6, 22, 8}}});
  EXPECT_TRUE(ok.ok()) << ok.summary();
  // A 2-unit-wide spike off the rail is a violation.
  const Result bad = check_shapes({{Layer::Metal, Rect{0, 0, 60, 6}},
                                   {Layer::Metal, Rect{10, 6, 12, 20}}});
  EXPECT_GT(bad.count("metal.width"), 0u);
}

TEST(DrcRules, SpacingSameLayer) {
  // Two diffusion shapes 2.5 lambda apart (need 3).
  const Result r = check_shapes({{Layer::Diff, Rect{0, 0, 10, 4}},
                                 {Layer::Diff, Rect{0, 9, 10, 13}}});
  EXPECT_EQ(r.count("diff.space"), 1u);
  EXPECT_TRUE(check_shapes({{Layer::Diff, Rect{0, 0, 10, 4}},
                            {Layer::Diff, Rect{0, 10, 10, 14}}})
                  .ok());
}

TEST(DrcRules, SpacingDiagonal) {
  // Corner-to-corner closer than the rule in both axes.
  const Result r = check_shapes({{Layer::Poly, Rect{0, 0, 4, 4}},
                                 {Layer::Poly, Rect{6, 6, 10, 10}}});
  EXPECT_EQ(r.count("poly.space"), 1u);
  EXPECT_TRUE(check_shapes({{Layer::Poly, Rect{0, 0, 4, 4}},
                            {Layer::Poly, Rect{6, 8, 10, 12}}})
                  .ok());
}

TEST(DrcRules, NotchInsideOneNet) {
  // A U-shape whose slot is 2 units wide (metal needs 6).
  const Result r = check_shapes({{Layer::Metal, Rect{0, 0, 20, 6}},
                                 {Layer::Metal, Rect{0, 6, 8, 20}},
                                 {Layer::Metal, Rect{10, 6, 20, 20}}});
  EXPECT_GT(r.count("metal.notch"), 0u);
}

TEST(DrcRules, PolyToUnrelatedDiffusion) {
  const Result r = check_shapes({{Layer::Diff, Rect{0, 0, 10, 4}},
                                 {Layer::Poly, Rect{0, 5, 10, 9}}});
  EXPECT_EQ(r.count("poly.diff.space"), 1u);
  EXPECT_TRUE(check_shapes({{Layer::Diff, Rect{0, 0, 10, 4}},
                            {Layer::Poly, Rect{0, 6, 10, 10}}})
                  .ok());
}

TEST(DrcRules, GateOverhangExcusesPolyOnDiff) {
  // A proper transistor: poly crossing diffusion with full overhangs.
  const Result ok = check_shapes({{Layer::Diff, Rect{0, -8, 4, 12}},
                                  {Layer::Poly, Rect{-4, 0, 8, 4}}});
  EXPECT_TRUE(ok.ok()) << ok.summary();
  // Insufficient poly overhang (1 lambda instead of 2).
  const Result bad = check_shapes({{Layer::Diff, Rect{0, -8, 4, 12}},
                                   {Layer::Poly, Rect{-2, 0, 6, 4}}});
  EXPECT_EQ(bad.count("gate.overhang"), 1u);
}

TEST(DrcRules, ContactRules) {
  // Good: 2x2 cut with 1-lambda metal+diff surround.
  const Result ok = check_shapes({{Layer::Contact, Rect{0, 0, 4, 4}},
                                  {Layer::Metal, Rect{-2, -2, 6, 6}},
                                  {Layer::Diff, Rect{-2, -2, 6, 6}}});
  EXPECT_TRUE(ok.ok()) << ok.summary();
  // Wrong cut size.
  EXPECT_EQ(check_shapes({{Layer::Contact, Rect{0, 0, 6, 4}},
                          {Layer::Metal, Rect{-2, -2, 8, 6}},
                          {Layer::Diff, Rect{-2, -2, 8, 6}}})
                .count("contact.size"),
            1u);
  // Missing metal surround.
  EXPECT_EQ(check_shapes({{Layer::Contact, Rect{0, 0, 4, 4}},
                          {Layer::Metal, Rect{0, 0, 4, 4}},
                          {Layer::Diff, Rect{-2, -2, 6, 6}}})
                .count("contact.metal.surround"),
            1u);
  // Neither poly nor diffusion under the cut.
  EXPECT_EQ(check_shapes({{Layer::Contact, Rect{0, 0, 4, 4}},
                          {Layer::Metal, Rect{-2, -2, 6, 6}}})
                .count("contact.surround"),
            1u);
}

TEST(DrcRules, ContactToGateSpacing) {
  // Cut 1 lambda from a transistor channel (needs 2).
  const Result r = check_shapes({{Layer::Diff, Rect{0, -8, 4, 20}},
                                 {Layer::Poly, Rect{-4, 0, 8, 4}},
                                 {Layer::Contact, Rect{0, 6, 4, 10}},
                                 {Layer::Metal, Rect{-2, 4, 6, 12}},
                                 {Layer::Diff, Rect{-2, 4, 6, 12}}});
  EXPECT_GT(r.count("contact.gate.space"), 0u);
}

TEST(DrcRules, ImplantRules) {
  // Depletion gate with insufficient implant surround.
  const Result bad = check_shapes({{Layer::Diff, Rect{0, -8, 4, 12}},
                                   {Layer::Poly, Rect{-4, 0, 8, 4}},
                                   {Layer::Implant, Rect{0, 0, 4, 4}}});
  EXPECT_EQ(bad.count("implant.surround"), 1u);
  // Proper 1.5-lambda surround is clean.
  const Result ok = check_shapes({{Layer::Diff, Rect{0, -8, 4, 12}},
                                  {Layer::Poly, Rect{-4, 0, 8, 4}},
                                  {Layer::Implant, Rect{-3, -3, 7, 7}}});
  EXPECT_TRUE(ok.ok()) << ok.summary();
  // Implant grazing an enhancement gate.
  const Result graze = check_shapes({{Layer::Diff, Rect{0, -8, 4, 12}},
                                     {Layer::Poly, Rect{-4, 0, 8, 4}},
                                     {Layer::Implant, Rect{6, 0, 16, 10}}});
  EXPECT_EQ(graze.count("implant.gate.space"), 1u);
}

TEST(DrcRules, BuriedSurround) {
  // Buried window sticking out of the poly.
  const Result r = check_shapes({{Layer::Diff, Rect{0, 0, 12, 4}},
                                 {Layer::Poly, Rect{0, 0, 6, 4}},
                                 {Layer::Buried, Rect{4, 0, 8, 4}}});
  EXPECT_EQ(r.count("buried.surround"), 1u);
}

TEST(DrcRules, CleanEmptyLayout) {
  EXPECT_TRUE(check_shapes({}).ok());
}

TEST(DrcRules, SummaryFormatting) {
  const Result r = check_shapes({{Layer::Metal, Rect{0, 0, 40, 5}}});
  EXPECT_NE(r.summary().find("metal.width"), std::string::npos);
  EXPECT_EQ(check_shapes({}).summary(), "DRC clean");
}

// ------------------------------------------------------ engine contracts --

TEST(DrcResult, CanonicalizeSortsAndDedups) {
  Result r;
  const Violation a{"metal.width", {0, 0, 4, 4}, "x"};
  const Violation b{"diff.space", {2, 2, 6, 6}, "y"};
  r.violations = {a, b, a, a, b};
  r.canonicalize();
  ASSERT_EQ(r.violations.size(), 2u);
  EXPECT_TRUE(r.violations[0] == b);  // sorted by rule name first
  EXPECT_TRUE(r.violations[1] == a);
  EXPECT_FALSE(a == b);
}

/// A deliberately dirty hierarchy exercising every interaction the
/// decomposition has to get right: a dirty cell tiled under rotation, a
/// spacing violation across a seam, a cell-internal violation *cured* by
/// parent geometry (isolated check would report it; flat must win), and a
/// loose-wiring violation away from any instance.
const Cell& dirty_chip(Library& lib) {
  Cell& thin = lib.create("thin");  // 2.5-lambda metal (needs 3)
  thin.add_rect(Layer::Metal, {0, 0, 40, 5});

  Cell& edgy = lib.create("edgy");  // clean alone: metal up to the border
  edgy.add_rect(Layer::Metal, {0, 0, 10, 6});

  Cell& cured = lib.create("cured");  // cut lacking metal surround locally
  cured.add_rect(Layer::Contact, {0, 0, 4, 4});
  cured.add_rect(Layer::Diff, {-2, -2, 6, 6});
  cured.add_rect(Layer::Metal, {0, 0, 4, 4});

  Cell& chip = lib.create("dirty_chip");
  chip.add_instance(thin, {geom::Orient::R0, {0, 0}});
  chip.add_instance(thin, {geom::Orient::R90, {100, 0}});
  chip.add_instance(thin, {geom::Orient::MX, {0, 100}});
  // Two edgy cells 2 units apart: a metal.space offence only the seam sees.
  chip.add_instance(edgy, {geom::Orient::R0, {200, 0}});
  chip.add_instance(edgy, {geom::Orient::R0, {200, 8}});
  // The cure: parent metal completing the surround of the cell's cut.
  chip.add_instance(cured, {geom::Orient::R0, {300, 0}});
  chip.add_rect(Layer::Metal, {296, -4, 308, 8});
  // Loose wiring offence far from any instance: diffusion 2 apart (needs 6).
  chip.add_rect(Layer::Diff, {400, 400, 410, 404});
  chip.add_rect(Layer::Diff, {400, 406, 410, 410});
  return chip;
}

TEST(DrcModes, FlatHierAgreeOnDirtyHierarchy) {
  Library lib;
  const Cell& chip = dirty_chip(lib);
  const Result flat = check(chip);
  // The three tiled thin cells, the seam spacing, and the loose diff pair;
  // the cured contact must NOT be reported.
  EXPECT_EQ(flat.count("metal.width"), 3u);
  EXPECT_EQ(flat.count("metal.space"), 1u);
  EXPECT_EQ(flat.count("diff.space"), 1u);
  EXPECT_EQ(flat.count("contact"), 0u);

  VerdictCache cache;
  const Result hier = check_hier(chip, tech::nmos(), &cache);
  EXPECT_EQ(flat.violations, hier.violations)
      << "flat:\n" << flat.summary() << "\nhier:\n" << hier.summary();
}

TEST(DrcModes, FlatHierAgreeOnAssembledChip) {
  // A real assembled-by-construction chip (the committed traffic design):
  // clean in both modes, byte-identical violation sets.
  layout::Library lib;
  core::CompileOptions o;
  o.name = "traffic";
  o.stop_after = "assemble";
  const auto r = core::compile(lib, core::Flow::Behavioral,
                               silc_fixtures::kTrafficSource, o);
  ASSERT_NE(r.chip, nullptr);
  const Result flat = check_flat(layout::flatten(*r.chip));
  EXPECT_TRUE(flat.ok()) << flat.summary();
  const Result hier = check_hier(*r.chip);
  EXPECT_EQ(flat.violations, hier.violations) << hier.summary();
}

/// Randomized adversarial sweep of the mode contract: dense soups where
/// violations abound, split across two fully overlapping instances, and
/// random hierarchies with overlapping instances under every orientation.
/// A cold check_hier checks the flattened cell, so byte-identity holds
/// under transposing orientations too; per-rule offence presence is
/// compared as well.
TEST(DrcModes, FuzzedSoupsAndHierarchiesAgree) {
  const tech::Layer layers[] = {Layer::Diff,    Layer::Poly,
                                Layer::Contact, Layer::Metal,
                                Layer::Implant, Layer::Buried};
  silc_fixtures::fuzz_seeds(
      "test_drc", "DrcModes.FuzzedSoupsAndHierarchiesAgree", 0, 4,
      [&](unsigned seed) {
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> c(0, 400), w(1, 50), li(0, 5);
        layout::Library lib;
        layout::Cell* halves[] = {&lib.create("even"), &lib.create("odd")};
        for (int i = 0; i < 500; ++i) {
          const int x = c(rng), y = c(rng);
          halves[i % 2]->add_rect(layers[li(rng)],
                                  {x, y, x + w(rng), y + w(rng)});
        }
        layout::Cell& top = lib.create("soup");
        for (const layout::Cell* half : halves) {
          top.add_instance(*half, {geom::Orient::R0, {0, 0}});
        }
        const Result flat = check(top);
        EXPECT_FALSE(flat.ok());  // dense soup: the sweep must exercise rules
        EXPECT_EQ(flat.violations, check_hier(top).violations)
            << "soup seed " << seed;
      });
  const geom::Orient plain[] = {geom::Orient::R0, geom::Orient::R180,
                                geom::Orient::MX, geom::Orient::MY};
  silc_fixtures::fuzz_seeds(
      "test_drc", "DrcModes.FuzzedSoupsAndHierarchiesAgree", 0, 6,
      [&](unsigned hseed) {
        for (const bool transposing : {false, true}) {
          std::mt19937 rng(100 + hseed);
          std::uniform_int_distribution<int> c(0, 120), w(1, 30), li(0, 5),
              off(0, 200), ori(0, transposing ? 7 : 3);
          layout::Library lib;
          layout::Cell& leaf = lib.create("leaf");
          for (int i = 0; i < 25; ++i) {
            const int x = c(rng), y = c(rng);
            leaf.add_rect(layers[li(rng)], {x, y, x + w(rng), y + w(rng)});
          }
          layout::Cell& top = lib.create("top");
          for (int i = 0; i < 5; ++i) {
            const geom::Orient o = transposing
                                       ? static_cast<geom::Orient>(ori(rng))
                                       : plain[ori(rng)];
            top.add_instance(leaf, {o, {off(rng), off(rng)}});
          }
          for (int i = 0; i < 8; ++i) {
            const int x = off(rng), y = off(rng);
            top.add_rect(layers[li(rng)], {x, y, x + w(rng), y + w(rng)});
          }
          const Result flat = check(top);
          const Result hier = check_hier(top);
          EXPECT_EQ(flat.violations, hier.violations)
              << "hier seed " << hseed << ", transposing=" << transposing;
          std::set<std::string> fr, hr;
          for (const Violation& v : flat.violations) fr.insert(v.rule);
          for (const Violation& v : hier.violations) hr.insert(v.rule);
          EXPECT_EQ(fr, hr) << "offence presence, transposing=" << transposing
                            << " seed " << hseed;
        }
      });
}

/// The width rule opens each connected component on its own. Its reports
/// must be exactly the canonical rects of the whole layer's thin region,
/// computed here as it was before: one opening of the whole doubled layer
/// with the oracle's four-sweep erosion (fixtures/geom_oracle.hpp), halved
/// outward.
TEST(DrcRules, WidthFuzzMatchesWholeSetOpening) {
  namespace oracle = silc_fixtures::geom_oracle;
  const tech::Tech& t = tech::nmos();
  silc_fixtures::fuzz_seeds(
      "test_drc", "DrcRules.WidthFuzzMatchesWholeSetOpening", 0, 12,
      [&](unsigned seed) {
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> c(0, 300), w(1, 24), li(0, 3);
        const Layer layers[] = {Layer::Diff, Layer::Poly, Layer::Metal,
                                Layer::Buried};
        std::vector<layout::Shape> shapes;
        for (int i = 0; i < 400; ++i) {
          const int x = c(rng), y = c(rng);
          shapes.push_back({layers[li(rng)], {x, y, x + w(rng), y + w(rng)}});
        }
        // Isolated one-rect components on every layer, on both sides of
        // each width rule's minimum (the rule decides them without the
        // opening).
        std::uniform_int_distribution<int> d(1, 12);
        for (int l = 0; l < 4; ++l) {
          for (int k = 0; k < 24; ++k) {
            const int x = 1000 + 40 * k, y = 1000 + 40 * l;
            shapes.push_back({layers[l], {x, y, x + d(rng), y + d(rng)}});
          }
        }
        const Result got = check_flat(shapes, t);
        for (const tech::DrcRule& r : t.drc_rules) {
          if (r.kind != tech::DrcRule::Kind::Width) continue;
          std::vector<Rect> doubled;
          for (const layout::Shape& s : shapes) {
            if (tech::name(s.layer) != r.layer) continue;
            doubled.push_back({2 * s.rect.x0, 2 * s.rect.y0, 2 * s.rect.x1,
                               2 * s.rect.y1});
          }
          const std::vector<Rect> s2 = oracle::normalize(doubled);
          const std::vector<Rect> thin = oracle::subtract(
              s2, oracle::dilated(oracle::eroded(s2, r.dist - 1), r.dist - 1));
          std::vector<Rect> want;
          for (const Rect& q : thin) {
            want.push_back({q.x0 / 2, q.y0 / 2, (q.x1 + 1) / 2, (q.y1 + 1) / 2});
          }
          std::vector<Rect> reported;
          for (const Violation& v : got.violations) {
            if (v.rule == r.name + ".width") reported.push_back(v.where);
          }
          const auto less = [](const Rect& a, const Rect& b) {
            return std::tie(a.x0, a.y0, a.x1, a.y1) <
                   std::tie(b.x0, b.y0, b.x1, b.y1);
          };
          std::sort(want.begin(), want.end(), less);
          want.erase(std::unique(want.begin(), want.end()), want.end());
          EXPECT_EQ(reported, want) << r.layer << ", seed " << seed;
        }
      });
}

TEST(DrcModes, VerdictCacheHitsAcrossLibraries) {
  VerdictCache cache;
  Library a;
  (void)check_hier(dirty_chip(a), tech::nmos(), &cache);
  const std::size_t unique_cells = cache.size();
  EXPECT_GT(unique_cells, 0u);
  const auto misses_after_first = cache.misses();

  // The same chip rebuilt in a fresh library: the whole-chip verdict hits.
  Library b;
  const Result warm = check_hier(dirty_chip(b), tech::nmos(), &cache);
  EXPECT_EQ(cache.size(), unique_cells);
  EXPECT_EQ(cache.misses(), misses_after_first);
  EXPECT_GT(cache.hits(), 0u);

  Library c;
  EXPECT_EQ(warm.violations, check_hier(dirty_chip(c)).violations);
}

TEST(DrcModes, ColdHierCachesOnlyTheTop) {
  // A cold check_hier flattens the chip once and files one verdict, under
  // the top's key: no per-cell verdicts, no wiring-pool entries.
  layout::Library lib;
  core::CompileOptions o;
  o.name = "counter3";
  o.stop_after = "assemble";
  const auto r = core::compile(lib, core::Flow::Behavioral,
                               silc_fixtures::counter_source(3), o);
  ASSERT_NE(r.chip, nullptr);
  ASSERT_GT(r.chip->instances().size(), 1u);
  VerdictCache cache;
  const Result cold = check_hier(*r.chip, tech::nmos(), &cache);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cold.violations, check(*r.chip).violations);
  const Result warm = check_hier(*r.chip, tech::nmos(), &cache);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(warm.violations, cold.violations);
}

TEST(DrcRuleTable, TechnologiesAreData) {
  // A stricter process is a table edit, not an engine change: 5-lambda
  // metal makes the previously clean 3-lambda wire a violation.
  tech::Tech strict = tech::nmos();
  strict.name = "strict";
  strict.min_width[tech::index(Layer::Metal)] = strict.lam(5);
  strict.rebuild_drc_tables();
  const std::vector<layout::Shape> wire{{Layer::Metal, Rect{0, 0, 40, 6}}};
  EXPECT_TRUE(check_flat(wire).ok());
  EXPECT_EQ(check_flat(wire, strict).count("metal.width"), 1u);
  // Dropping every rule makes everything clean: the engine has no
  // hard-wired checks of its own.
  tech::Tech lax = tech::nmos();
  lax.drc_rules.clear();
  EXPECT_TRUE(check_flat({{Layer::Metal, Rect{0, 0, 40, 5}},
                          {Layer::Metal, Rect{0, 6, 40, 11}}},
                         lax)
                  .ok());
  // The halo tracks the table: a wider rule widens the interaction reach.
  EXPECT_GT(strict.max_rule_dist(), 0);
  tech::Tech wide = tech::nmos();
  wide.min_space[tech::index(Layer::Metal)] = wide.lam(40);
  wide.rebuild_drc_tables();
  EXPECT_GT(wide.max_rule_dist(), tech::nmos().max_rule_dist());
}

}  // namespace
}  // namespace silc::drc
