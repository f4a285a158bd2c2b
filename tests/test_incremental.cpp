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
// against the flat-recompute fallback, the persistent-store baseline
// warm-up across sessions, and CompiledSim::update's tape-level version
// of the same invariant.
//
// Every randomized test follows the fixtures/fuzz_env.hpp convention:
// SILC_FUZZ_TRIALS scales the sweep, SILC_FUZZ_SEED reruns one seed, and
// failures print a one-line repro command.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "core/incremental_session.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "fault/fault.hpp"
#include "fuzz_env.hpp"
#include "layout/layout.hpp"
#include "net/net.hpp"
#include "random_edits.hpp"
#include "random_layout.hpp"
#include "random_netlist.hpp"
#include "sim/sim.hpp"
#include "tech/tech.hpp"

namespace silc {
namespace {

using core::IncrementalSession;
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
  EXPECT_FALSE(cured.drc_stats.verdict_reused);
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
  EXPECT_TRUE(after.drc_stats.verdict_reused);
  EXPECT_EQ(after.drc.violations, before.drc.violations);
  EXPECT_FALSE(after.extract_stats.netlist_reused);
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
  EXPECT_TRUE(again.drc_stats.verdict_reused);
  EXPECT_TRUE(again.extract_stats.netlist_reused);
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
      EXPECT_TRUE(v.drc_stats.fell_back_flat);
    } else {
      EXPECT_TRUE(v.extract_stats.fell_back_flat);
    }
    // Degraded, not wrong: the fallback's verdicts are byte-identical to
    // a scratch recompute.
    const drc::Result flat = drc::check_flat(layout::flatten(top));
    EXPECT_EQ(v.drc.violations, flat.violations) << drc_diff(v.drc, flat);
    const extract::Netlist xflat = extract::extract(top);
    EXPECT_EQ(v.netlist, xflat) << netlist_diff(v.netlist, xflat);
  }
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

// -------------------------------------------------- CompiledSim::update --

using net::GateKind;
using net::Netlist;
using sim::CompiledSim;
using sim::diff_traces;
using sim::IncrTapeStats;
using sim::Trace;
using sim::TraceDiff;
using sim::Vector;

/// The appended-gate edit: same netlist plus one new output gate, so the
/// old decomposition survives verbatim at its old indices.
Netlist with_extra_gate(const Netlist& nl) {
  Netlist out = nl;
  const int g = out.add_gate(GateKind::Nand,
                             {out.inputs()[0], out.inputs()[1]}, "extra");
  out.mark_output(g, "extra_out");
  return out;
}

std::vector<Trace> random_stimuli(const Netlist& nl, int lanes, int cycles,
                                  unsigned seed) {
  std::mt19937_64 vals(seed);
  std::vector<Trace> stimuli(static_cast<std::size_t>(lanes));
  for (Trace& t : stimuli) {
    t.resize(static_cast<std::size_t>(cycles));
    for (Vector& row : t) {
      for (const int in : nl.inputs()) row[nl.net_name(in)] = vals() & 1u;
    }
  }
  return stimuli;
}

void expect_tapes_identical(const CompiledSim& updated,
                            const CompiledSim& fresh,
                            const std::string& context) {
  EXPECT_EQ(updated.tape().ops, fresh.tape().ops) << context;
  EXPECT_EQ(updated.tape().level_begin, fresh.tape().level_begin) << context;
  EXPECT_EQ(updated.tape().dffs, fresh.tape().dffs) << context;
  EXPECT_EQ(updated.tape().slots, fresh.tape().slots) << context;
}

TEST(IncrementalSim, UpdateMatchesFreshBuildByteForByte) {
  silc_fixtures::fuzz_seeds(
      "test_incremental", "IncrementalSim.UpdateMatchesFreshBuildByteForByte",
      1, 4, [](unsigned seed) {
        const Netlist before = silc_fixtures::random_netlist(seed);
        const Netlist after = with_extra_gate(before);

        CompiledSim updated(before);
        IncrTapeStats st;
        updated.update(after, &st);
        CompiledSim fresh(after);

        // Tape-level byte identity. (An appended gate adds a net, which
        // shifts every temp-slot id, so reuse may legitimately be zero
        // here — the in-place edit test below is the reuse proof; this
        // one proves the worst case still lands byte-identical.)
        expect_tapes_identical(updated, fresh,
                               "seed " + std::to_string(seed));
        EXPECT_FALSE(st.identical);
        EXPECT_EQ(st.ops_reused + st.ops_relevelized, st.ops_total);

        // Behavioral identity from power-on — update leaves the sim in
        // the same state a fresh build starts in.
        const auto probes = silc_fixtures::output_probe_names(after);
        const auto stimuli = random_stimuli(after, 4, 24, seed * 7 + 1);
        const std::vector<Trace> got = updated.run(stimuli, probes);
        const std::vector<Trace> want = fresh.run(stimuli, probes);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t l = 0; l < got.size(); ++l) {
          const TraceDiff d = diff_traces(want[l], got[l]);
          EXPECT_TRUE(d.identical)
              << "seed " << seed << " lane " << l << ": " << d.to_string();
        }
      });
}

/// Two netlists identical except for the KIND of one mid-stream gate:
/// same nets, same slots, same op indices — the shape of an in-place
/// edit. Downstream logic splits into the edit's cone (re-levelized) and
/// independent gates (reused verbatim).
Netlist editable_netlist(GateKind edited_kind) {
  Netlist nl;
  std::vector<int> in;
  for (int i = 0; i < 4; ++i) {
    in.push_back(nl.add_input("in" + std::to_string(i)));
  }
  const int a = nl.add_gate(GateKind::And, {in[0], in[1]}, "a");
  const int b = nl.add_gate(GateKind::Or, {in[2], in[3]}, "b");
  const int c = nl.add_gate(GateKind::Xor, {a, b}, "c");
  const int e = nl.add_gate(edited_kind, {c, in[0]}, "edited");
  const int d0 = nl.add_gate(GateKind::Nand, {e, b}, "d0");
  const int d1 = nl.add_gate(GateKind::Not, {d0}, "d1");
  const int f0 = nl.add_gate(GateKind::Nor, {a, in[2]}, "f0");
  const int f1 = nl.add_gate(GateKind::Xnor, {f0, b}, "f1");
  const int q = nl.add_net("q");
  nl.add_gate_driving(GateKind::Dff, {f1}, q, "r0");
  nl.mark_output(d1, "out_edit_cone");
  nl.mark_output(f1, "out_independent");
  nl.mark_output(q, "out_state");
  return nl;
}

TEST(IncrementalSim, InPlaceGateEditReusesTheUntouchedCone) {
  const Netlist before = editable_netlist(GateKind::And);
  const Netlist after = editable_netlist(GateKind::Nand);

  CompiledSim updated(before);
  IncrTapeStats st;
  updated.update(after, &st);
  CompiledSim fresh(after);
  expect_tapes_identical(updated, fresh, "in-place edit");

  // Only the edited gate and its fanout cone paid; the independent
  // gates (and everything upstream of the edit) kept their levels.
  EXPECT_FALSE(st.identical);
  EXPECT_GT(st.ops_reused, 0u);
  EXPECT_GT(st.ops_relevelized, 0u);
  EXPECT_LT(st.ops_relevelized, st.ops_total);
  EXPECT_EQ(st.ops_reused + st.ops_relevelized, st.ops_total);

  const auto probes = silc_fixtures::output_probe_names(after);
  const auto stimuli = random_stimuli(after, 3, 20, 55);
  const std::vector<Trace> got = updated.run(stimuli, probes);
  const std::vector<Trace> want = fresh.run(stimuli, probes);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t l = 0; l < got.size(); ++l) {
    const TraceDiff d = diff_traces(want[l], got[l]);
    EXPECT_TRUE(d.identical) << "lane " << l << ": " << d.to_string();
  }
}

TEST(IncrementalSim, UpdateAcrossDisjointNetlistsStaysCorrect) {
  // The worst case: nothing survives the diff. Still byte-identical.
  const Netlist a = silc_fixtures::random_netlist(31);
  const Netlist b = silc_fixtures::random_netlist(
      32, {.inputs = 4, .gates = 80, .dffs = 4, .outputs = 4});
  CompiledSim updated(a);
  IncrTapeStats st;
  updated.update(b, &st);
  CompiledSim fresh(b);
  expect_tapes_identical(updated, fresh, "disjoint");

  const auto probes = silc_fixtures::output_probe_names(b);
  const auto stimuli = random_stimuli(b, 2, 16, 99);
  const std::vector<Trace> got = updated.run(stimuli, probes);
  const std::vector<Trace> want = fresh.run(stimuli, probes);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t l = 0; l < got.size(); ++l) {
    EXPECT_TRUE(diff_traces(want[l], got[l]).identical);
  }
}

TEST(IncrementalSim, IdenticalNetlistKeepsTapeVerbatim) {
  const Netlist nl = silc_fixtures::random_netlist(5);
  CompiledSim updated(nl);
  const std::vector<sim::TapeOp> ops_before = updated.tape().ops;

  IncrTapeStats st;
  updated.update(nl, &st);
  EXPECT_TRUE(st.identical);
  EXPECT_EQ(st.ops_reused, st.ops_total);
  EXPECT_EQ(st.ops_relevelized, 0u);
  EXPECT_EQ(updated.tape().ops, ops_before);

  CompiledSim fresh(nl);
  const auto probes = silc_fixtures::output_probe_names(nl);
  const auto stimuli = random_stimuli(nl, 2, 16, 123);
  const std::vector<Trace> got = updated.run(stimuli, probes);
  const std::vector<Trace> want = fresh.run(stimuli, probes);
  for (std::size_t l = 0; l < got.size(); ++l) {
    EXPECT_TRUE(diff_traces(want[l], got[l]).identical);
  }
}

TEST(IncrementalSim, UpdateChaosLeavesOldSimUsable) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;

  const Netlist before = silc_fixtures::random_netlist(8);
  const Netlist after = with_extra_gate(before);
  CompiledSim updated(before);

  fault::Schedule s;
  s.triggers.push_back({"incr.sim.update", fault::Kind::Throw, 0, true, 0, ""});
  fault::Injector::global().arm(s);
  EXPECT_THROW(updated.update(after), fault::InjectedFault);
  fault::Injector::global().disarm();

  // The fault fired before any member mutation: the old sim still runs
  // and still matches a fresh build of the ORIGINAL netlist.
  CompiledSim fresh(before);
  const auto probes = silc_fixtures::output_probe_names(before);
  const auto stimuli = random_stimuli(before, 2, 16, 77);
  const std::vector<Trace> got = updated.run(stimuli, probes);
  const std::vector<Trace> want = fresh.run(stimuli, probes);
  for (std::size_t l = 0; l < got.size(); ++l) {
    EXPECT_TRUE(diff_traces(want[l], got[l]).identical);
  }

  // And a disarmed retry of the same update succeeds normally.
  updated.update(after);
  CompiledSim fresh_after(after);
  expect_tapes_identical(updated, fresh_after, "post-chaos retry");
}

}  // namespace
}  // namespace silc
