// The extraction mode contract: extract_flat and extract_hier produce
// byte-identical canonical netlists — on hand-built interaction cases
// (abutment stitching, transistors split across cell boundaries, devices
// formed only by parent-level poly crossing child diffusion), on random
// dense soups, and on random overlapping hierarchies under every Manhattan
// orientation (rotations *and* reflections; the anchors-based canonical
// form is intrinsic). Plus the cache contract: a cold extract_hier files
// one whole-top entry, which hits across libraries and never changes
// results.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "core/compiler.hpp"
#include "design_sources.hpp"
#include "extract/extract.hpp"
#include "fuzz_env.hpp"
#include "layout/layout.hpp"
#include "random_layout.hpp"

namespace silc::extract {
namespace {

using geom::Orient;
using geom::Rect;
using layout::Cell;
using layout::Library;
using tech::Layer;

/// First differing lines of the two renderings — a node-level diff.
std::string first_diff(const Netlist& a, const Netlist& b) {
  std::istringstream sa(to_text(a)), sb(to_text(b));
  std::string la, lb, out;
  int line = 0, shown = 0;
  while (shown < 8) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) break;
    ++line;
    if (!ga) la = "<eof>";
    if (!gb) lb = "<eof>";
    if (la != lb) {
      out += "line " + std::to_string(line) + ":\n  flat: " + la +
             "\n  hier: " + lb + "\n";
      ++shown;
    }
    if (!ga || !gb) break;
  }
  return out.empty() ? "(identical)" : out;
}

void expect_identical(const Cell& top, const std::string& context,
                      NetlistCache* cache = nullptr) {
  const Netlist flat = extract(top);
  const Netlist hier = extract_hier(top, tech::nmos(), cache);
  EXPECT_EQ(flat, hier) << context << "\n" << first_diff(flat, hier);
}

TEST(ExtractEquiv, AbuttingCellsStitchOneNet) {
  Library lib;
  Cell& half = lib.create("half");
  half.add_rect(Layer::Metal, {0, 0, 20, 6});
  Cell& top = lib.create("top");
  top.add_instance(half, {Orient::R0, {0, 0}});
  top.add_instance(half, {Orient::R0, {20, 0}});  // exact abutment
  expect_identical(top, "abutting metal");
  const Netlist hier = extract_hier(top);
  EXPECT_EQ(hier.node_count(), 1u);  // one rail, not two
}

TEST(ExtractEquiv, TransistorSplitAcrossCellBoundary) {
  // Each cell carries half the gate poly and half the diffusion; only the
  // stitched whole is a transistor.
  Library lib;
  Cell& half = lib.create("xhalf");
  half.add_rect(Layer::Diff, {0, -8, 2, 12});   // half channel width
  half.add_rect(Layer::Poly, {-4, 0, 2, 4});
  Cell& top = lib.create("top");
  top.add_instance(half, {Orient::R0, {0, 0}});
  top.add_instance(half, {Orient::MY, {4, 0}});  // mirrored right half
  expect_identical(top, "split transistor");
  const Netlist hier = extract_hier(top);
  ASSERT_EQ(hier.transistors.size(), 1u);
  EXPECT_EQ(hier.transistors[0].channel, (Rect{0, 0, 4, 4}));
  EXPECT_EQ(hier.transistors[0].width, 4);
  EXPECT_EQ(hier.transistors[0].length, 4);
}

TEST(ExtractEquiv, ParentPolyOverChildDiffFormsDevice) {
  // The child alone has no transistor at all; the parent's poly route
  // crosses the child's bare diffusion and creates one. The window
  // machinery must displace the child's cached single-net diffusion
  // verdict (the channel splits it into source and drain).
  Library lib;
  Cell& bar = lib.create("bar");
  bar.add_rect(Layer::Diff, {0, 0, 4, 30});
  ASSERT_TRUE(extract(bar).transistors.empty());
  Cell& top = lib.create("top");
  top.add_instance(bar, {Orient::R0, {10, 10}});
  top.add_rect(Layer::Poly, {0, 20, 30, 24});
  expect_identical(top, "parent poly over child diff");
  const Netlist hier = extract_hier(top);
  ASSERT_EQ(hier.transistors.size(), 1u);
  const Transistor& t = hier.transistors[0];
  EXPECT_EQ(t.channel, (Rect{10, 20, 14, 24}));
  EXPECT_NE(t.source, t.drain);  // the child net really did split

  // Same device under a transposing instance orientation.
  Library lib2;
  Cell& bar2 = lib2.create("bar");
  bar2.add_rect(Layer::Diff, {0, 0, 4, 30});
  Cell& top2 = lib2.create("top");
  top2.add_instance(bar2, {Orient::R90, {40, 10}});
  top2.add_rect(Layer::Poly, {20, 0, 24, 40});
  expect_identical(top2, "parent poly over rotated child diff");
  EXPECT_EQ(extract_hier(top2).transistors.size(), 1u);
}

TEST(ExtractEquiv, ParentMetalCuresChildFloatingContact) {
  // A contact with no conductor in the child is a warning — unless the
  // parent's metal covers it, in which case there is no warning and the
  // parent net reaches through it to the child diffusion below? No: the
  // cut joins whatever overlaps it. Flat decides; hier must agree on both
  // the join and the warning set.
  Library lib;
  Cell& orphan = lib.create("orphan");
  orphan.add_rect(Layer::Contact, {0, 0, 4, 4});
  const Netlist alone = extract(orphan);
  ASSERT_EQ(alone.warnings.size(), 1u);  // floating
  Cell& top = lib.create("top");
  top.add_instance(orphan, {Orient::R0, {100, 100}});
  top.add_rect(Layer::Metal, {96, 96, 108, 108});
  top.add_rect(Layer::Diff, {96, 96, 108, 108});
  expect_identical(top, "cured floating contact");
  const Netlist hier = extract_hier(top);
  EXPECT_TRUE(hier.warnings.empty())
      << "parent cover must cure the warning: " << hier.warnings.front();
  EXPECT_EQ(hier.node_count(), 1u);  // metal joined to diff through the cut
}

TEST(ExtractEquiv, RandomSoupLeaves) {
  silc_fixtures::fuzz_seeds(
      "test_extract_equiv", "ExtractEquiv.RandomSoupLeaves", 0, 6,
      [](unsigned seed) {
        Library lib;
        Cell& top = lib.create("soup");
        for (const layout::Shape& s : silc_fixtures::random_soup(seed, 300)) {
          top.add_shape(s);
        }
        top.add_label("a", Layer::Metal, {50, 50});
        top.add_label("b", Layer::Diff, {100, 100});
        expect_identical(top, "soup seed " + std::to_string(seed));
      });
}

TEST(ExtractEquiv, RandomHierarchiesAllOrientations) {
  silc_fixtures::fuzz_seeds(
      "test_extract_equiv", "ExtractEquiv.RandomHierarchiesAllOrientations",
      0, 8, [](unsigned seed) {
        for (const bool transposing : {false, true}) {
          Library lib;
          silc_fixtures::RandomHierarchyOptions o;
          o.transposing = transposing;
          const Cell& top = silc_fixtures::random_hierarchy(lib, seed, o);
          expect_identical(top, "hierarchy transposing=" +
                                    std::to_string(transposing) + " seed " +
                                    std::to_string(seed));
        }
      });
}

TEST(ExtractEquiv, DeepAndDenseHierarchies) {
  // Larger, heavily overlapping instances; and a two-level hierarchy
  // (a mid cell instantiating leaves, itself instantiated under rotation).
  silc_fixtures::fuzz_seeds(
      "test_extract_equiv", "ExtractEquiv.DeepAndDenseHierarchies", 100, 4,
      [](unsigned seed) {
        Library lib;
        silc_fixtures::RandomHierarchyOptions o;
        o.instances = 10;
        o.spread = 100;  // denser: more interaction area
        o.parent_wires = 10;
        const Cell& top = silc_fixtures::random_hierarchy(lib, seed, o);
        expect_identical(top, "dense seed " + std::to_string(seed));
      });
  for (unsigned seed = 200; seed < 203; ++seed) {
    Library lib;
    std::mt19937 rng(seed);
    Cell& leaf = lib.create("leaf");
    silc_fixtures::random_leaf_geometry(leaf, rng, 5, 50, true);
    Cell& mid = lib.create("mid");
    mid.add_instance(leaf, {Orient::R0, {0, 0}});
    mid.add_instance(leaf, {Orient::MX, {40, 30}});
    mid.add_rect(Layer::Poly, {0, 20, 80, 24});
    Cell& top = lib.create("top");
    top.add_instance(mid, {Orient::R0, {0, 0}});
    top.add_instance(mid, {Orient::R90, {150, 20}});
    top.add_instance(mid, {Orient::R270, {60, 120}});
    top.add_rect(Layer::Metal, {0, 60, 160, 66});
    top.add_rect(Layer::Diff, {30, 0, 34, 140});
    expect_identical(top, "two-level seed " + std::to_string(seed));
  }
}

TEST(ExtractEquiv, AssembledChipFlatVsHier) {
  layout::Library lib;
  core::CompileOptions o;
  o.name = "gray2";
  o.stop_after = "assemble";
  const auto r = core::compile(lib, core::Flow::Behavioral,
                               silc_fixtures::kGray2Source, o);
  ASSERT_NE(r.chip, nullptr);
  expect_identical(*r.chip, "assembled gray2 chip");
}

TEST(ExtractEquiv, ColdHierCachesOnlyTheTop) {
  // A cold extract_hier flattens the chip once and files one partial
  // netlist, under the top's key: no per-cell entries.
  layout::Library lib;
  core::CompileOptions o;
  o.name = "counter3";
  o.stop_after = "assemble";
  const auto r = core::compile(lib, core::Flow::Behavioral,
                               silc_fixtures::counter_source(3), o);
  ASSERT_NE(r.chip, nullptr);
  ASSERT_GT(r.chip->instances().size(), 1u);
  NetlistCache cache;
  const Netlist cold = extract_hier(*r.chip, tech::nmos(), &cache);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cold, extract(*r.chip)) << first_diff(extract(*r.chip), cold);
  const Netlist warm = extract_hier(*r.chip, tech::nmos(), &cache);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(warm, cold);
}

TEST(ExtractEquiv, NetlistCacheHitsAcrossLibraries) {
  NetlistCache cache;
  silc_fixtures::RandomHierarchyOptions o;
  const auto build = [&](Library& lib) -> const Cell& {
    return silc_fixtures::random_hierarchy(lib, 42, o);
  };
  Library a;
  const Netlist first = extract_hier(build(a), tech::nmos(), &cache);
  const std::size_t unique_cells = cache.size();
  EXPECT_GT(unique_cells, 0u);
  const auto misses_after_first = cache.misses();

  // The same hierarchy rebuilt in a fresh library: the whole top hits,
  // the result is bit-identical.
  Library b;
  const Netlist warm = extract_hier(build(b), tech::nmos(), &cache);
  EXPECT_EQ(cache.size(), unique_cells);
  EXPECT_EQ(cache.misses(), misses_after_first);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(first, warm);

  // A relabelled twin shares geometry but must NOT share netlists: the
  // naming hash keeps the keys apart.
  Library c;
  Cell& plain = c.create("plain");
  plain.add_rect(Layer::Metal, {0, 0, 20, 6});
  Library d;
  Cell& named = d.create("plain");
  named.add_rect(Layer::Metal, {0, 0, 20, 6});
  named.add_label("vdd", Layer::Metal, {10, 3});
  NetlistCache cache2;
  const Netlist p = extract_hier(plain, tech::nmos(), &cache2);
  const Netlist n = extract_hier(named, tech::nmos(), &cache2);
  EXPECT_TRUE(p.vdd_nodes.empty());
  ASSERT_EQ(n.vdd_nodes.size(), 1u);
  EXPECT_EQ(n.node_names[0], "vdd");
}

}  // namespace
}  // namespace silc::extract
