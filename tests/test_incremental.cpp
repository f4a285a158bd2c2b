// The incremental-recompilation contract: edit-then-incremental ==
// recompile-from-scratch, byte-identical — at every grain. The main
// harness drives randomized edit sequences (move/resize/delete shapes,
// relabel nets, add/remove instances, retech) through an
// IncrementalSession and diffs every verdict against cold flat and hier
// recomputes under both rule tables.
// Around it: the edge cases an interactive loop lives on (an edit that
// CURES a violation, an edit inside a seam window, a naming-only edit
// that must invalidate extraction but not DRC, the empty-EditSet no-op
// that reuses everything), the chaos leg sweeping the incr.* fault sites
// against the flat-recompute fallback, and the persistent-store baseline
// warm-up across sessions.
//
// The footprint tests pin core::diff's chip-coordinate footprint for each
// edit kind and the paths IncrementalSession serves each stage by: the
// long edit/undo chains, the distant net split that must trip the DRC
// net guard, the top-port edit that must rename nodes, and a verify
// cancelled mid-extraction that must leave the session unchanged. The
// splice fuzz compares the DRC layer table an edit or undo splices from
// the last one with a table rebuilt from the flattened chip.
//
// Every randomized test follows the fixtures/fuzz_env.hpp convention:
// SILC_FUZZ_TRIALS scales the sweep, SILC_FUZZ_SEED reruns one seed, and
// failures print a one-line repro command.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "assemble/assemble.hpp"
#include "core/cancel.hpp"
#include "core/incremental.hpp"
#include "core/incremental_session.hpp"
#include "design_sources.hpp"
#include "drc/drc.hpp"
#include "drc/rules.hpp"
#include "extract/extract.hpp"
#include "fault/fault.hpp"
#include "fuzz_env.hpp"
#include "layout/layout.hpp"
#include "net/net.hpp"
#include "obs/obs.hpp"
#include "random_edits.hpp"
#include "random_layout.hpp"
#include "rtl/rtl.hpp"
#include "synth/synth.hpp"
#include "tech/tech.hpp"

namespace silc {
namespace {

using core::IncrementalSession;
using core::IncrPath;
using core::IncrVerdict;
using layout::Cell;
using layout::Library;
using silc_fixtures::EditKind;
using silc_fixtures::EditLog;
using silc_fixtures::random_edit;
using silc_fixtures::retech_variant;
using tech::Layer;

struct DisarmOnExit {
  ~DisarmOnExit() { fault::Injector::global().disarm(); }
};

/// A scratch directory removed on scope exit.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const char* tag) {
    path = std::filesystem::temp_directory_path() /
           (std::string("silc_incr_test_") + tag + "_" +
            std::to_string(static_cast<unsigned long>(::getpid())));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// Small, dense, NON-transposing hierarchies: every DRC/extract mode is
/// byte-identical on these (no R90-family re-slabbing residual), which is
/// what lets the harness demand equality rather than equivalence.
const Cell& small_hierarchy(Library& lib, unsigned seed) {
  silc_fixtures::RandomHierarchyOptions o;
  o.leaves = 2;
  o.instances = 3;
  o.motifs = 3;
  o.extent = 40;
  o.spread = 80;
  o.transposing = false;
  o.parent_wires = 3;
  return silc_fixtures::random_hierarchy(lib, seed, o);
}

std::string drc_diff(const drc::Result& incr, const drc::Result& scratch) {
  return "incremental: " + incr.summary() + "\nscratch:     " +
         scratch.summary();
}

std::string netlist_diff(const extract::Netlist& incr,
                         const extract::Netlist& scratch) {
  return "incremental:\n" + to_text(incr) + "scratch:\n" + to_text(scratch);
}

// ------------------------------------------- randomized differential run --

TEST(Incremental, RandomizedEditSequencesMatchScratch) {
  silc_fixtures::fuzz_seeds(
      "test_incremental", "Incremental.RandomizedEditSequencesMatchScratch",
      0, 500, [](unsigned seed) {
        std::mt19937 rng(seed * 2654435761u + 12345u);
        Library lib;
        small_hierarchy(lib, seed);
        Cell& top = *lib.find("top");

        IncrementalSession sess;
        bool tight = false;
        const auto cur = [&]() -> const tech::Tech& {
          return tight ? retech_variant() : tech::nmos();
        };

        const IncrVerdict v0 = sess.verify(lib, top);
        EXPECT_TRUE(v0.cold);

        IncrVerdict last = v0;
        for (int e = 0; e < 2; ++e) {
          const EditLog log = random_edit(lib, top, rng);
          if (log.kind == EditKind::Retech) {
            tight = !tight;
            sess.set_tech(cur());
          }
          SCOPED_TRACE("edit " + std::to_string(e) + ": " + log.detail);
          last = sess.verify(lib, top);
          EXPECT_FALSE(last.cold);

          // The exhaustive flat baseline, recomputed from nothing.
          const drc::Result flat =
              drc::check_flat(layout::flatten(top), cur());
          EXPECT_EQ(last.drc.violations, flat.violations)
              << drc_diff(last.drc, flat);
          const extract::Netlist xflat = extract::extract(top, cur());
          EXPECT_EQ(last.netlist, xflat) << netlist_diff(last.netlist, xflat);
        }

        // Both modes on the final state: a cold hierarchical run and the
        // flat oracle over the same flatten.
        const drc::Result hier = drc::check_hier(top, cur());
        EXPECT_EQ(last.drc.violations, hier.violations)
            << drc_diff(last.drc, hier);
        const drc::Result flat = drc::check_flat(layout::flatten(top), cur());
        EXPECT_EQ(last.drc.violations, flat.violations)
            << drc_diff(last.drc, flat);
        const extract::Netlist xhier = extract::extract_hier(top, cur());
        EXPECT_EQ(last.netlist, xhier) << netlist_diff(last.netlist, xhier);
      });
}

// --------------------------------------------------------- edge cases --

TEST(Incremental, EditThatCuresAViolationClearsTheVerdict) {
  // nmos metal space is 3 lambda = 6 coords: a 4-coord gap violates.
  Library lib;
  Cell& top = lib.create("top");
  top.add_rect(Layer::Metal, {0, 0, 20, 6});
  top.add_rect(Layer::Metal, {0, 10, 20, 16});

  IncrementalSession sess;
  const IncrVerdict sick = sess.verify(lib, top);
  ASSERT_FALSE(sick.drc.ok()) << "fixture must start out violating";

  // Move the second rect out of range: the verdict must go clean — a
  // stale cached violation surviving the edit would be the classic
  // incremental bug.
  top.set_shape(1, {Layer::Metal, {0, 14, 20, 20}});
  const IncrVerdict cured = sess.verify(lib, top);
  EXPECT_FALSE(cured.cold);
  EXPECT_FALSE(cured.edits.empty());
  EXPECT_NE(cured.drc_stats.path, IncrPath::Verbatim);
  EXPECT_TRUE(cured.drc.ok()) << cured.drc.summary();
  const drc::Result scratch = drc::check_flat(layout::flatten(top));
  EXPECT_EQ(cured.drc.violations, scratch.violations);
}

TEST(Incremental, SeamEditReprovesInteractionWindows) {
  // Two clean instances far apart; the edit drops a parent wire into the
  // gap, violating against BOTH instances — offences that exist only in
  // the interaction windows, never inside any single cell.
  Library lib;
  Cell& leaf = lib.create("leaf");
  leaf.add_rect(Layer::Metal, {0, 0, 8, 6});
  Cell& top = lib.create("top");
  top.add_instance(leaf, {geom::Orient::R0, {0, 0}});
  top.add_instance(leaf, {geom::Orient::R0, {30, 0}});

  IncrementalSession sess;
  const IncrVerdict clean = sess.verify(lib, top);
  ASSERT_TRUE(clean.drc.ok()) << clean.drc.summary();

  top.add_rect(Layer::Metal, {12, 0, 25, 6});  // 4 to the left, 5 to the right
  const IncrVerdict seam = sess.verify(lib, top);
  EXPECT_FALSE(seam.drc.ok());
  const drc::Result scratch = drc::check_flat(layout::flatten(top));
  EXPECT_EQ(seam.drc.violations, scratch.violations)
      << drc_diff(seam.drc, scratch);
  EXPECT_EQ(seam.drc.count("metal.space"), 2u) << seam.drc.summary();

  // And the cure: deleting the wire re-proves the windows back to clean.
  top.remove_shape(top.shapes().size() - 1);
  const IncrVerdict cured = sess.verify(lib, top);
  EXPECT_TRUE(cured.drc.ok()) << cured.drc.summary();
  EXPECT_EQ(cured.drc.violations, clean.drc.violations);
}

TEST(Incremental, NamingOnlyEditInvalidatesExtractNotDrc) {
  Library lib;
  Cell& top = lib.create("top");
  top.add_rect(Layer::Metal, {0, 0, 30, 6});
  top.add_label("alpha", Layer::Metal, {10, 3});

  IncrementalSession sess;
  const IncrVerdict before = sess.verify(lib, top);
  ASSERT_EQ(before.netlist.node_names.size(), 1u);
  EXPECT_EQ(before.netlist.node_names[0], "alpha");

  top.set_label_text(0, "beta");
  const IncrVerdict after = sess.verify(lib, top);

  // The EditSet must classify this as naming-only; DRC (geometry-only
  // footprint) hands its baseline back verbatim, extraction re-runs and
  // sees the new name.
  EXPECT_TRUE(after.edits.naming_only()) << after.edits.summary();
  EXPECT_EQ(after.drc_stats.path, IncrPath::Verbatim);
  EXPECT_EQ(after.drc.violations, before.drc.violations);
  EXPECT_NE(after.extract_stats.path, IncrPath::Verbatim);
  ASSERT_EQ(after.netlist.node_names.size(), 1u);
  EXPECT_EQ(after.netlist.node_names[0], "beta");
  const extract::Netlist scratch = extract::extract(top);
  EXPECT_EQ(after.netlist, scratch) << netlist_diff(after.netlist, scratch);
}

TEST(Incremental, EmptyEditSetReusesEverything) {
  Library lib;
  small_hierarchy(lib, 11);
  Cell& top = *lib.find("top");

  IncrementalSession sess;
  const IncrVerdict first = sess.verify(lib, top);
  const IncrVerdict again = sess.verify(lib, top);

  EXPECT_TRUE(again.edits.empty()) << again.edits.summary();
  EXPECT_EQ(again.drc_stats.path, IncrPath::Verbatim);
  EXPECT_EQ(again.extract_stats.path, IncrPath::Verbatim);
  EXPECT_EQ(again.drc_stats.cells_reused, again.drc_stats.cells_total);
  EXPECT_EQ(again.extract_stats.cells_reused,
            again.extract_stats.cells_total);
  EXPECT_EQ(again.drc_stats.cells_reproved, 0u);
  EXPECT_EQ(again.extract_stats.cells_reproved, 0u);
  EXPECT_EQ(again.drc.violations, first.drc.violations);
  EXPECT_EQ(again.netlist, first.netlist);
}

TEST(Incremental, ChaosAtIncrSitesFallsBackFlatByteIdentical) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;

  for (const char* site : {"incr.drc", "incr.extract"}) {
    SCOPED_TRACE(site);
    Library lib;
    small_hierarchy(lib, 23);
    Cell& top = *lib.find("top");

    IncrementalSession sess;
    (void)sess.verify(lib, top);
    top.add_rect(Layer::Metal, {0, 0, 6, 6});  // force a geometry re-prove

    fault::Schedule s;
    s.triggers.push_back({site, fault::Kind::Throw, 0, true, 0, ""});
    fault::Injector::global().arm(s);
    const IncrVerdict v = sess.verify(lib, top);
    const std::uint64_t fired = fault::Injector::global().fired();
    fault::Injector::global().disarm();

    EXPECT_GE(fired, 1u) << "the armed site was never reached";
    if (std::string(site) == "incr.drc") {
      EXPECT_EQ(v.drc_stats.path, IncrPath::FlatFallback);
    } else {
      EXPECT_EQ(v.extract_stats.path, IncrPath::FlatFallback);
    }
    // Degraded, not wrong: the fallback's verdicts are byte-identical to
    // a scratch recompute.
    const drc::Result flat = drc::check_flat(layout::flatten(top));
    EXPECT_EQ(v.drc.violations, flat.violations) << drc_diff(v.drc, flat);
    const extract::Netlist xflat = extract::extract(top);
    EXPECT_EQ(v.netlist, xflat) << netlist_diff(v.netlist, xflat);
  }
}

TEST(Incremental, CancelledVerifyAdoptsNothing) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  // nmos metal space is 6 coords. The edit moves a rect to a 4-coord gap,
  // so the edited layout's DRC verdict differs from the baseline's.
  Library lib;
  Cell& top = lib.create("top");
  top.add_rect(Layer::Metal, {0, 0, 20, 6});
  top.add_rect(Layer::Metal, {0, 40, 20, 46});
  top.add_label("a", Layer::Metal, {10, 3});

  IncrementalSession sess;
  const IncrVerdict clean = sess.verify(lib, top);
  ASSERT_TRUE(clean.drc.ok()) << clean.drc.summary();

  // Cancel the verify of the edit once DRC has finished: extraction's
  // entry stalls until the token fires, then its window loop throws.
  top.set_shape(1, {Layer::Metal, {0, 10, 20, 16}});
  fault::Schedule s;
  s.triggers.push_back(
      {"incr.extract", fault::Kind::Delay, 0, false, 10000, ""});
  fault::Injector::global().arm(s);
  core::CancelToken token;
  std::thread killer([&token] {
    while (fault::Injector::global().fired() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    token.cancel();
  });
  {
    const core::CancelScope scope(&token);
    EXPECT_THROW((void)sess.verify(lib, top), core::Cancelled);
  }
  killer.join();
  fault::Injector::global().disarm();

  // Undo: the session must still describe the clean layout, so this is
  // the clean verdict, not the cancelled edit's.
  top.set_shape(1, {Layer::Metal, {0, 40, 20, 46}});
  const IncrVerdict undone = sess.verify(lib, top);
  const drc::Result flat = drc::check_flat(layout::flatten(top));
  EXPECT_EQ(undone.drc.violations, flat.violations)
      << drc_diff(undone.drc, flat);
  EXPECT_EQ(undone.netlist, extract::extract(top));

  // Redo: diffed against the clean baseline, the edit re-checks.
  top.set_shape(1, {Layer::Metal, {0, 10, 20, 16}});
  const IncrVerdict redone = sess.verify(lib, top);
  const drc::Result flat2 = drc::check_flat(layout::flatten(top));
  EXPECT_FALSE(redone.drc.ok());
  EXPECT_EQ(redone.drc.violations, flat2.violations)
      << drc_diff(redone.drc, flat2);
  EXPECT_EQ(redone.netlist, extract::extract(top));
}

TEST(Incremental, StoreBaselineWarmsAcrossSessions) {
  const TempDir dir("warm");
  const std::string cache_dir = dir.path.string();

  IncrVerdict first;
  {
    Library lib;
    small_hierarchy(lib, 7);
    IncrementalSession sess;
    first = sess.verify(lib, *lib.find("top"));
    ASSERT_TRUE(sess.save_store(cache_dir));
  }

  // A brand-new process-equivalent: fresh session, fresh library (same
  // content rebuilt from the seed), caches warmed from disk. Even the
  // COLD verify reuses every cell.
  Library lib;
  small_hierarchy(lib, 7);
  IncrementalSession sess;
  ASSERT_TRUE(sess.load_store(cache_dir));
  const IncrVerdict v = sess.verify(lib, *lib.find("top"));
  EXPECT_TRUE(v.cold);
  EXPECT_GT(v.cells_reused(), 0u);
  EXPECT_EQ(v.drc_stats.cells_reproved, 0u);
  EXPECT_EQ(v.extract_stats.cells_reproved, 0u);
  EXPECT_EQ(v.drc.violations, first.drc.violations);
  EXPECT_EQ(v.netlist, first.netlist);

  // Absent store: a clean cold start, not an error.
  IncrementalSession other;
  EXPECT_FALSE(other.load_store(cache_dir + "/nonexistent"));
}

// --------------------------------------------------------- footprints --

using geom::Orient;
using geom::Rect;
using geom::RectSet;
using geom::Transform;

/// Snapshot `lib`, apply `edit`, and diff the two snapshots for `top`.
core::EditSet diff_around(Library& lib, const std::string& top,
                          const std::function<void()>& edit) {
  const core::LibrarySnapshot before = core::snapshot(lib, tech::nmos());
  edit();
  return core::diff(before, core::snapshot(lib, tech::nmos()), top);
}

std::uint32_t bit(Layer l) { return 1u << tech::index(l); }

std::string rects_text(const RectSet& s) {
  std::string out;
  for (const Rect& r : s.rects()) out += geom::to_string(r) + " ";
  return out.empty() ? "<empty>" : out;
}

TEST(Footprint, LeafUnderFourOrientations) {
  Library lib;
  Cell& leaf = lib.create("leaf");
  leaf.add_rect(Layer::Metal, {0, 0, 10, 4});
  leaf.add_rect(Layer::Poly, {0, 8, 4, 12});
  Cell& top = lib.create("top");
  const Transform placements[] = {{Orient::R0, {100, 0}},
                                  {Orient::R180, {200, 50}},
                                  {Orient::MX, {300, 0}},
                                  {Orient::MY, {400, 0}}};
  for (const Transform& t : placements) top.add_instance(leaf, t);

  const Rect before{0, 0, 10, 4};
  const Rect after{0, 0, 13, 4};
  const core::EditSet e = diff_around(lib, "top", [&] {
    leaf.set_shape(0, {Layer::Metal, after});
  });
  RectSet want;
  for (const Transform& t : placements) {
    want.add(t.apply(before));
    want.add(t.apply(after));
  }
  ASSERT_TRUE(e.has_footprint);
  EXPECT_EQ(e.geometry_footprint, want)
      << "got " << rects_text(e.geometry_footprint) << "\nwant "
      << rects_text(want);
  EXPECT_EQ(e.geometry_layers, bit(Layer::Metal));
  EXPECT_TRUE(e.naming_footprint.empty());
}

TEST(Footprint, NestedLeafMapsThroughEveryPlacement) {
  // The PLA driver sits inside the PLA, which sits inside the chip: the
  // driver's edit lands under every composed placement.
  Library lib;
  const Cell& chip =
      *assemble::assemble_fsm_chip(
           lib,
           synth::tabulate(rtl::parse(silc_fixtures::counter_source(3))),
           {.name = "counter3"})
           .chip;
  Cell& drv = *lib.find("counter3_pla_drv");
  const layout::Shape old = drv.shapes()[0];
  layout::Shape moved = old;
  moved.rect = {old.rect.x0 + 2, old.rect.y0, old.rect.x1 + 2, old.rect.y1};
  const core::EditSet e =
      diff_around(lib, chip.name(), [&] { drv.set_shape(0, moved); });

  RectSet want;
  std::size_t placements = 0;
  const std::function<void(const Cell&, const Transform&)> walk =
      [&](const Cell& c, const Transform& t) {
        for (const layout::Instance& i : c.instances()) {
          const Transform ct = t * i.transform;
          if (i.cell == &drv) {
            ++placements;
            want.add(ct.apply(old.rect));
            want.add(ct.apply(moved.rect));
          } else {
            walk(*i.cell, ct);
          }
        }
      };
  walk(chip, Transform{});
  ASSERT_GT(placements, 1u);
  EXPECT_EQ(e.geometry_footprint, want)
      << "got " << rects_text(e.geometry_footprint) << "\nwant "
      << rects_text(want);
  EXPECT_EQ(e.geometry_layers, bit(old.layer));
}

TEST(Footprint, AddAndRemoveInstanceCoverTheChildBbox) {
  Library lib;
  Cell& leaf = lib.create("leaf");
  leaf.add_rect(Layer::Metal, {0, 0, 10, 4});
  leaf.add_rect(Layer::Diff, {0, 6, 6, 10});
  leaf.add_label("out", Layer::Metal, {20, 2});  // beyond the geometry
  Cell& top = lib.create("top");
  top.add_instance(leaf, {Orient::R0, {0, 0}});
  top.add_instance(leaf, {Orient::R0, {50, 0}});

  const Transform placed{Orient::MX, {30, 70}};
  const core::EditSet added =
      diff_around(lib, "top", [&] { top.add_instance(leaf, placed); });
  EXPECT_EQ(added.geometry_footprint, RectSet(placed.apply(leaf.bbox())));
  EXPECT_EQ(added.geometry_layers, bit(Layer::Metal) | bit(Layer::Diff));
  EXPECT_EQ(added.naming_footprint,
            RectSet(placed.apply(Rect{19, 1, 21, 3})));

  const core::EditSet removed =
      diff_around(lib, "top", [&] { top.remove_instance(1); });
  EXPECT_EQ(removed.geometry_footprint,
            RectSet(Transform{Orient::R0, {50, 0}}.apply(leaf.bbox())));
}

TEST(Footprint, RemovedInstanceCoversItsGrownChild) {
  // The child grows after the parent's bbox was cached; removing the
  // placement must then clear the grown extent too.
  Library lib;
  Cell& leaf = lib.create("leaf");
  leaf.add_rect(Layer::Diff, {0, 0, 10, 4});
  Cell& top = lib.create("top");
  top.add_instance(leaf, {Orient::R0, {0, 0}});
  top.add_instance(leaf, {Orient::R0, {100, 0}});
  ASSERT_EQ(top.bbox(), (Rect{0, 0, 110, 4}));

  IncrementalSession sess;
  (void)sess.verify(lib, top);
  leaf.set_shape(0, {Layer::Diff, {0, 0, 10, 40}});
  EXPECT_EQ(top.bbox(), (Rect{0, 0, 110, 40}));
  (void)sess.verify(lib, top);
  const core::EditSet e =
      diff_around(lib, "top", [&] { top.remove_instance(1); });
  EXPECT_EQ(e.geometry_footprint, RectSet(Rect{100, 0, 110, 40}));
  const IncrVerdict v = sess.verify(lib, top);
  EXPECT_EQ(v.netlist, extract::extract(top));
  EXPECT_EQ(v.drc.violations,
            drc::check_flat(layout::flatten(top)).violations);
}

TEST(Footprint, TopShapeEditCoversOldAndNewRect) {
  Library lib;
  Cell& leaf = lib.create("leaf");
  leaf.add_rect(Layer::Metal, {0, 0, 10, 4});
  Cell& top = lib.create("top");
  top.add_instance(leaf, {Orient::R0, {0, 0}});
  top.add_rect(Layer::Poly, {40, 40, 60, 44});
  const core::EditSet e = diff_around(lib, "top", [&] {
    top.set_shape(0, {Layer::Poly, {45, 40, 65, 44}});
  });
  EXPECT_EQ(e.geometry_footprint, RectSet(Rect{40, 40, 65, 44}));
  EXPECT_EQ(e.geometry_layers, bit(Layer::Poly));
  EXPECT_TRUE(e.naming_footprint.empty());
}

TEST(Footprint, RelabelIsNamingOnly) {
  Library lib;
  Cell& leaf = lib.create("leaf");
  leaf.add_rect(Layer::Metal, {0, 0, 10, 4});
  leaf.add_label("a", Layer::Metal, {5, 2});
  Cell& top = lib.create("top");
  top.add_instance(leaf, {Orient::R0, {0, 0}});
  top.add_instance(leaf, {Orient::R180, {100, 20}});

  IncrementalSession sess;
  (void)sess.verify(lib, top);
  const core::EditSet e =
      diff_around(lib, "top", [&] { leaf.set_label_text(0, "b"); });
  EXPECT_TRUE(e.geometry_footprint.empty());
  RectSet want;
  want.add(Rect{4, 1, 6, 3});
  want.add(Transform{Orient::R180, {100, 20}}.apply(Rect{4, 1, 6, 3}));
  EXPECT_EQ(e.naming_footprint, want);

  const IncrVerdict v = sess.verify(lib, top);
  EXPECT_EQ(v.drc_stats.path, IncrPath::Verbatim);
  EXPECT_EQ(v.extract_stats.path, IncrPath::Footprint);
  EXPECT_EQ(v.netlist, extract::extract(top));
}

TEST(Footprint, UnplacedCellIsEmpty) {
  Library lib;
  Cell& leaf = lib.create("leaf");
  leaf.add_rect(Layer::Metal, {0, 0, 10, 4});
  Cell& spare = lib.create("spare");
  spare.add_rect(Layer::Metal, {0, 0, 10, 4});
  Cell& top = lib.create("top");
  top.add_instance(leaf, {Orient::R0, {0, 0}});

  IncrementalSession sess;
  const IncrVerdict first = sess.verify(lib, top);
  const core::EditSet e = diff_around(lib, "top", [&] {
    spare.set_shape(0, {Layer::Metal, {0, 0, 3, 3}});
  });
  EXPECT_FALSE(e.empty());
  EXPECT_TRUE(e.has_footprint);
  EXPECT_TRUE(e.geometry_footprint.empty());
  EXPECT_TRUE(e.naming_footprint.empty());

  const IncrVerdict v = sess.verify(lib, top);
  EXPECT_EQ(v.drc_stats.path, IncrPath::Verbatim);
  EXPECT_EQ(v.extract_stats.path, IncrPath::Verbatim);
  EXPECT_EQ(v.drc.violations, first.drc.violations);
  EXPECT_EQ(v.netlist, first.netlist);
}

TEST(Incremental, TopPortEditRenamesNodes) {
  Library lib;
  Cell& top = lib.create("top");
  top.add_rect(Layer::Metal, {0, 0, 30, 6});

  IncrementalSession sess;
  const IncrVerdict before = sess.verify(lib, top);
  ASSERT_EQ(before.netlist.node_names.size(), 1u);
  EXPECT_EQ(before.netlist.node_names[0], "n0");

  top.add_port("vdd", Layer::Metal, {0, 0, 6, 6});
  const IncrVerdict after = sess.verify(lib, top);
  EXPECT_FALSE(after.edits.empty());
  EXPECT_EQ(after.drc_stats.path, IncrPath::Verbatim);
  EXPECT_NE(after.extract_stats.path, IncrPath::Verbatim);
  const extract::Netlist scratch = extract::extract(top);
  ASSERT_EQ(scratch.node_names.size(), 1u);
  EXPECT_EQ(scratch.node_names[0], "vdd");
  EXPECT_EQ(after.netlist, scratch) << netlist_diff(after.netlist, scratch);
}

TEST(Incremental, DistantNetSplitTripsTheGuard) {
  // A short stub sits 4 coords above a long wire (nmos metal spacing is
  // 6), tied to it by a loop whose far leg is 570 coords away. Same net:
  // the gap is a notch. Deleting the far leg splits the net, so the gap
  // becomes a spacing violation although no geometry near it moved. Only
  // the net guard can see that. The guard re-runs the metal spacing rule
  // over the whole layer and replaces its reports: an unrelated pair of
  // metal rects 4 apart keeps its spacing report, and a 4-wide spur on the
  // loop's far side, 300 coords from the edit and on the net that splits,
  // keeps its width report, which no label reads.
  Library lib;
  Cell& top = lib.create("top");
  top.add_rect(Layer::Metal, {0, 0, 600, 6});        // long wire
  top.add_rect(Layer::Metal, {0, 10, 20, 16});       // stub above its end
  top.add_rect(Layer::Metal, {0, 16, 6, 100});       // up from the stub
  top.add_rect(Layer::Metal, {0, 100, 600, 106});    // across
  top.add_rect(Layer::Metal, {594, 6, 600, 100});    // down to the wire
  top.add_rect(Layer::Metal, {300, 106, 304, 130});  // thin spur
  top.add_rect(Layer::Metal, {300, 200, 320, 206});  // unrelated pair,
  top.add_rect(Layer::Metal, {300, 210, 320, 216});  //   4 apart

  IncrementalSession sess;
  const IncrVerdict tied = sess.verify(lib, top);
  EXPECT_EQ(tied.drc.count("metal.notch"), 1u) << tied.drc.summary();
  EXPECT_EQ(tied.drc.count("metal.space"), 1u) << tied.drc.summary();
  EXPECT_EQ(tied.drc.count("metal.width"), 1u) << tied.drc.summary();

  top.remove_shape(4);
  const IncrVerdict split = sess.verify(lib, top);
  EXPECT_EQ(split.drc_stats.path, IncrPath::Guard);
  const drc::Result flat = drc::check_flat(layout::flatten(top));
  EXPECT_EQ(split.drc.violations, flat.violations)
      << drc_diff(split.drc, flat);
  EXPECT_EQ(split.drc.count("metal.notch"), 0u) << split.drc.summary();
  EXPECT_EQ(split.drc.count("metal.space"), 2u) << split.drc.summary();
  EXPECT_EQ(split.drc.count("metal.width"), 1u) << split.drc.summary();
  EXPECT_EQ(split.netlist, extract::extract(top));

  // A join back through a new leg at another x trips it again: the two
  // nets join (no geometry near the stub moved, and the chip is not one the
  // session has verified before), so the gap is a notch once more.
  top.add_rect(Layer::Metal, {500, 6, 506, 100});
  const IncrVerdict joined = sess.verify(lib, top);
  EXPECT_EQ(joined.drc_stats.path, IncrPath::Guard);
  const drc::Result rejoined = drc::check_flat(layout::flatten(top));
  EXPECT_EQ(joined.drc.violations, rejoined.violations)
      << drc_diff(joined.drc, rejoined);
  EXPECT_EQ(joined.drc.count("metal.notch"), 1u) << joined.drc.summary();
  EXPECT_EQ(joined.drc.count("metal.space"), 1u) << joined.drc.summary();
}

TEST(Incremental, GuardSeesASplitAndAJoinInOneEdit) {
  // Two loops 300 coords apart, each a long wire with a stub 4 coords
  // above its left end (nmos metal spacing is 6). The lower loop is closed
  // by a far leg, so its stub gap is a notch; the upper one is open, so
  // its stub gap is a spacing violation. One edit moves the far leg from
  // the lower loop to the upper one: the lower net splits, the upper two
  // join, and both gaps flip verdict 590 coords from the edit, one each
  // way. The metal spacing reports must all come from the after side.
  Library lib;
  Cell& top = lib.create("top");
  for (const int y : {0, 300}) {
    top.add_rect(Layer::Metal, {0, y, 600, y + 6});         // long wire
    top.add_rect(Layer::Metal, {0, y + 10, 20, y + 16});    // stub
    top.add_rect(Layer::Metal, {0, y + 16, 6, y + 100});    // up
    top.add_rect(Layer::Metal, {0, y + 100, 600, y + 106}); // across
  }
  top.add_rect(Layer::Metal, {594, 6, 600, 100});  // the far leg, below

  IncrementalSession sess;
  const IncrVerdict before = sess.verify(lib, top);
  EXPECT_EQ(before.drc.count("metal.notch"), 1u) << before.drc.summary();
  EXPECT_EQ(before.drc.count("metal.space"), 1u) << before.drc.summary();

  top.set_shape(8, {Layer::Metal, {594, 306, 600, 400}});
  const IncrVerdict after = sess.verify(lib, top);
  EXPECT_EQ(after.drc_stats.path, IncrPath::Guard);
  const drc::Result flat = drc::check_flat(layout::flatten(top));
  EXPECT_EQ(after.drc.violations, flat.violations)
      << drc_diff(after.drc, flat);
  EXPECT_EQ(after.drc.count("metal.notch"), 1u) << after.drc.summary();
  EXPECT_EQ(after.drc.count("metal.space"), 1u) << after.drc.summary();
  EXPECT_NE(after.drc.violations, before.drc.violations);
  EXPECT_EQ(after.netlist, extract::extract(top));

  // And back: the undo is a whole-top cache hit on the cold verdict.
  top.set_shape(8, {Layer::Metal, {594, 6, 600, 100}});
  const IncrVerdict undone = sess.verify(lib, top);
  EXPECT_EQ(undone.drc.violations, before.drc.violations)
      << drc_diff(undone.drc, before.drc);
}

TEST(Incremental, ChipWideRailSplitTripsTheGuard) {
  // counter3's ground rails run the length of the chip and are tied
  // together by a vertical metal leg at its edge. Removing the leg splits
  // the ground net: the rails' own rects stay as they were, so only the
  // guard sees the split, and the zone grows by the whole ground network.
  // The verdict still equals a flat check.
  Library lib;
  Cell& chip = *assemble::assemble_fsm_chip(
                    lib,
                    synth::tabulate(rtl::parse(
                        silc_fixtures::counter_source(3))),
                    {.name = "counter3"})
                    .chip;
  const std::size_t gnd_nets = extract::extract(chip).gnd_nodes.size();
  ASSERT_EQ(gnd_nets, 1u);
  // The first top-level vertical metal leg whose removal splits ground
  // (probed by shrinking it to a stub, which keeps the shape indices).
  std::size_t leg = chip.shapes().size();
  for (std::size_t i = 0; i < chip.shapes().size() && leg == chip.shapes().size();
       ++i) {
    const layout::Shape s = chip.shapes()[i];
    if (s.layer != Layer::Metal || s.rect.height() <= s.rect.width()) continue;
    chip.set_shape(i, {Layer::Metal, {s.rect.x0, s.rect.y0, s.rect.x1,
                                      s.rect.y0 + 1}});
    if (extract::extract(chip).gnd_nodes.size() > gnd_nets) leg = i;
    chip.set_shape(i, s);
  }
  ASSERT_LT(leg, chip.shapes().size()) << "no ground leg found";

  IncrementalSession sess;
  (void)sess.verify(lib, chip);
  chip.remove_shape(leg);
  const IncrVerdict cut = sess.verify(lib, chip);
  EXPECT_EQ(cut.drc_stats.path, IncrPath::Guard);
  const layout::Flattened flat = layout::flatten_with_labels(chip);
  const drc::Result fd = drc::check_flat(flat.shapes);
  EXPECT_EQ(cut.drc.violations, fd.violations) << drc_diff(cut.drc, fd);
  const extract::Netlist fx = extract::extract_flat(flat);
  EXPECT_EQ(cut.netlist, fx) << netlist_diff(cut.netlist, fx);
  EXPECT_GT(cut.netlist.gnd_nodes.size(), gnd_nets);
}

TEST(Incremental, RegionRectLeavingTheZoneIsRecheckedWhole) {
  // A thin metal wire runs from inside the edit's zone to far outside it,
  // where a wider wire abuts its end. The wire's width violation is one
  // canonical rect of the thin region, whose extent is decided where it
  // leaves the zone: the re-check must follow it there, not report it cut
  // short at the soup's edge.
  Library lib;
  Cell& leaf = lib.create("leaf");
  leaf.add_rect(Layer::Metal, {26, 19, 46, 27});
  leaf.add_rect(Layer::Diff, {0, 0, 4, 4});
  Cell& top = lib.create("top");
  top.add_rect(Layer::Metal, {7, 12, 11, 74});
  top.add_rect(Layer::Metal, {9, 27, 33, 31});
  top.add_rect(Layer::Metal, {11, 71, 31, 79});
  top.add_rect(Layer::Metal, {50, 81, 70, 89});
  top.add_instance(leaf, {Orient::R0, {22, -14}});

  IncrementalSession sess;
  const IncrVerdict before = sess.verify(lib, top);
  EXPECT_EQ(before.drc.violations,
            drc::check_flat(layout::flatten(top)).violations);
  top.remove_instance(0);
  const IncrVerdict after = sess.verify(lib, top);
  EXPECT_EQ(after.drc_stats.path, IncrPath::Footprint);
  const drc::Result flat = drc::check_flat(layout::flatten(top));
  EXPECT_EQ(after.drc.violations, flat.violations)
      << drc_diff(after.drc, flat);
}

TEST(Incremental, FootprintRunsTheRuleDeckOncePerZone) {
  // A leaf placed six times, 200 coords apart: an edit to it leaves a zone
  // of six disjoint windows. The re-check builds one soup over all of them
  // and runs the rule deck once (no region rect leaves the zone, so there
  // is no second pass), and the verdict is the flat one.
  Library lib;
  Cell& leaf = lib.create("leaf");
  leaf.add_rect(Layer::Metal, {0, 0, 20, 20});
  leaf.add_rect(Layer::Poly, {30, 0, 40, 20});
  Cell& top = lib.create("top");
  for (int i = 0; i < 6; ++i) top.add_instance(leaf, {Orient::R0, {200 * i, 0}});
  top.add_rect(Layer::Metal, {0, 40, 1100, 46});

  IncrementalSession sess;
  (void)sess.verify(lib, top);
  leaf.set_shape(1, {Layer::Poly, {32, 0, 42, 20}});
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable();
  const IncrVerdict v = sess.verify(lib, top);
  tracer.disable();
  EXPECT_EQ(v.drc_stats.path, IncrPath::Footprint);
  const drc::Result flat = drc::check_flat(layout::flatten(top));
  EXPECT_EQ(v.drc.violations, flat.violations) << drc_diff(v.drc, flat);
  if (obs::kEnabled) {
    std::map<std::string, int> spans;
    for (const obs::Tracer::ThreadEvents& te : tracer.drain()) {
      for (const obs::Event& e : te.events) ++spans[e.name];
    }
    EXPECT_EQ(spans["drc.window.soup"], 1);
    EXPECT_EQ(spans["drc.window.check"], 1);
  }
}

/// Everything an edit can change in one cell, for undo.
struct CellState {
  std::vector<layout::Shape> shapes;
  std::vector<std::string> labels;
  std::vector<layout::Instance> instances;
};

std::map<std::string, CellState> save_cells(const Library& lib) {
  std::map<std::string, CellState> all;
  for (const Cell* c : lib.cells()) {
    CellState& s = all[c->name()];
    s.shapes = c->shapes();
    for (const layout::TextLabel& l : c->labels()) s.labels.push_back(l.text);
    s.instances = c->instances();
  }
  return all;
}

void restore_cell(Cell& c, const CellState& s) {
  while (!c.shapes().empty()) c.remove_shape(c.shapes().size() - 1);
  for (const layout::Shape& sh : s.shapes) c.add_shape(sh);
  while (!c.instances().empty()) c.remove_instance(c.instances().size() - 1);
  for (const layout::Instance& i : s.instances) {
    c.add_instance(*i.cell, i.transform, i.name);
  }
  for (std::size_t i = 0; i < s.labels.size(); ++i) {
    c.set_label_text(i, s.labels[i]);
  }
}

/// Episodes of `edits` random edits then one undo of the whole episode,
/// every verify checked against the flat engines.
void run_chain(Library& lib, Cell& top, std::mt19937& rng, int episodes,
               int edits) {
  IncrementalSession sess;
  bool tight = false;
  const auto cur = [&]() -> const tech::Tech& {
    return tight ? retech_variant() : tech::nmos();
  };
  const auto check = [&](const std::string& what) {
    SCOPED_TRACE(what);
    const IncrVerdict v = sess.verify(lib, top);
    const layout::Flattened flat = layout::flatten_with_labels(top);
    const drc::Result fd = drc::check_flat(flat.shapes, cur());
    EXPECT_EQ(v.drc.violations, fd.violations)
        << "drc path " << core::to_string(v.drc_stats.path) << "\n"
        << drc_diff(v.drc, fd);
    const extract::Netlist fx = extract::extract_flat(flat, cur());
    EXPECT_EQ(v.netlist, fx)
        << "extract path " << core::to_string(v.extract_stats.path) << "\n"
        << netlist_diff(v.netlist, fx);
  };
  check("cold");
  for (int ep = 0; ep < episodes; ++ep) {
    std::vector<std::pair<std::string, CellState>> undo;
    for (int e = 0; e < edits; ++e) {
      const std::map<std::string, CellState> before = save_cells(lib);
      const EditLog log = random_edit(lib, top, rng);
      if (log.kind == EditKind::Retech) {
        tight = !tight;
        sess.set_tech(cur());
      } else {
        undo.emplace_back(log.cell, before.at(log.cell));
      }
      check("episode " + std::to_string(ep) + " edit " + std::to_string(e) +
            ": " + log.detail);
    }
    while (!undo.empty()) {
      restore_cell(*lib.find(undo.back().first), undo.back().second);
      undo.pop_back();
    }
    check("episode " + std::to_string(ep) + " undo");
  }
}

TEST(Incremental, LongEditChainsMatchFlat) {
  silc_fixtures::fuzz_seeds(
      "test_incremental", "Incremental.LongEditChainsMatchFlat", 0, 40,
      [](unsigned seed) {
        std::mt19937 rng(seed * 2246822519u + 7u);
        Library lib;
        small_hierarchy(lib, seed);
        run_chain(lib, *lib.find("top"), rng, 4, 3);
      });
}

TEST(Incremental, LongEditChainsOnAChipMatchFlat) {
  // An assembled chip: pads, a PLA with nested drivers, shift cells.
  silc_fixtures::fuzz_seeds(
      "test_incremental", "Incremental.LongEditChainsOnAChipMatchFlat", 0, 3,
      [](unsigned seed) {
        std::mt19937 rng(seed * 3266489917u + 11u);
        Library lib;
        Cell& chip = *assemble::assemble_fsm_chip(
                          lib,
                          synth::tabulate(rtl::parse(
                              silc_fixtures::counter_source(3))),
                          {.name = "counter3"})
                          .chip;
        run_chain(lib, chip, rng, 6, 3);
      });
}

// ------------------------------------------- the spliced DRC layer table --

/// Compute every derived layer and every component label of `t`, so the
/// next splice from it carries them all instead of leaving them lazy.
void warm_table(drc::LayerTable& t, const tech::Tech& technology) {
  for (int i = 0; i < tech::kNumLayers; ++i) {
    (void)t.labels(static_cast<Layer>(i));
  }
  for (const tech::DerivedLayer& d : technology.drc_derived) {
    (void)t.get(d.name).component_labels();
  }
}

void expect_same_set(const RectSet& spliced, const RectSet& rebuilt,
                     const std::string& what) {
  EXPECT_TRUE(spliced.rects() == rebuilt.rects())
      << what << "\n    spliced: " << rects_text(spliced)
      << "\n    rebuilt: " << rects_text(rebuilt);
  EXPECT_EQ(spliced.component_labels(), rebuilt.component_labels())
      << "labels of " << what;
}

void expect_same_table(drc::LayerTable& spliced, drc::LayerTable& rebuilt,
                       const tech::Tech& technology) {
  for (int i = 0; i < tech::kNumLayers; ++i) {
    const Layer l = static_cast<Layer>(i);
    expect_same_set(spliced.mask(l), rebuilt.mask(l),
                    std::string("mask ") + tech::name(l));
  }
  for (const tech::DerivedLayer& d : technology.drc_derived) {
    expect_same_set(spliced.get(d.name), rebuilt.get(d.name),
                    "derived " + d.name);
  }
}

/// Episodes of `edits` random edits then one undo of the whole episode.
/// After every step the table is spliced from the last one inside the
/// step's geometry footprint, as an incremental verify splices it, and
/// compared with a table built from the flattened chip.
void run_splice_chain(Library& lib, Cell& top, std::mt19937& rng,
                      int episodes, int edits) {
  const tech::Tech& t = tech::nmos();
  core::LibrarySnapshot snap = core::snapshot(lib, t);
  auto table = std::make_shared<drc::LayerTable>(layout::flatten(top), t);
  const auto step = [&](const std::string& what) {
    SCOPED_TRACE(what);
    core::LibrarySnapshot next = core::snapshot(lib, t);
    const core::EditSet es = core::diff(snap, next, top.name());
    snap = std::move(next);
    ASSERT_TRUE(es.has_footprint);
    warm_table(*table, t);
    table = std::make_shared<drc::LayerTable>(
        *table, top, es.geometry_layers, es.geometry_footprint);
    drc::LayerTable rebuilt(layout::flatten(top), t);
    expect_same_table(*table, rebuilt, t);
  };
  for (int ep = 0; ep < episodes; ++ep) {
    std::vector<std::pair<std::string, CellState>> undo;
    for (int e = 0; e < edits; ++e) {
      const std::map<std::string, CellState> before = save_cells(lib);
      const EditLog log = random_edit(lib, top, rng, /*allow_retech=*/false);
      undo.emplace_back(log.cell, before.at(log.cell));
      step("episode " + std::to_string(ep) + " edit " + std::to_string(e) +
           ": " + log.detail);
    }
    while (!undo.empty()) {
      restore_cell(*lib.find(undo.back().first), undo.back().second);
      undo.pop_back();
    }
    step("episode " + std::to_string(ep) + " undo");
  }
}

TEST(Incremental, SplicedTableMatchesRebuild) {
  // counter12's chip is built once: every episode ends in an undo, so each
  // seed starts from the same geometry.
  Library chip_lib;
  Cell& chip = *assemble::assemble_fsm_chip(
                    chip_lib,
                    synth::tabulate(
                        rtl::parse(silc_fixtures::counter_source(12))),
                    {.name = "counter12"})
                    .chip;
  silc_fixtures::fuzz_seeds(
      "test_incremental", "Incremental.SplicedTableMatchesRebuild", 0, 20,
      [&](unsigned seed) {
        std::mt19937 rng(seed * 2654435761u + 99u);
        Library lib;
        silc_fixtures::RandomHierarchyOptions o;
        o.transposing = true;  // leaves under all eight orientations
        silc_fixtures::random_hierarchy(lib, seed, o);
        run_splice_chain(lib, *lib.find("top"), rng, 3, 3);
        run_splice_chain(chip_lib, chip, rng, 1, 3);
      });
}

}  // namespace
}  // namespace silc
