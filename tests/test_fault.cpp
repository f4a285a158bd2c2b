// Robustness under fire: deadlines, cancellation, fault injection, cache
// poisoning, worker containment, and the chaos differential harness.
//
// The contract this file proves (see src/fault/fault.hpp):
//
//   * a compile with a deadline or a cancelled token returns promptly with
//     a Severity::Cancelled diagnostic — never a hang, never a throw, even
//     against an injected multi-second stall;
//   * an injected exception at any stage boundary becomes a structured
//     error diagnostic on that compile alone, and so does a gate-check or
//     pla-check prover failure (there is no second engine to fall back
//     to);
//   * hierarchical DRC / extraction failures degrade to the flat engines
//     with a warning, byte-identical artifacts (the fallback matrix in
//     drc/drc.hpp and extract/extract.hpp);
//   * a poisoned cache entry is detected by checksum, evicted, counted,
//     and recomputed — degradation is a slower run, never a wrong answer;
//   * one poisoned compile_many job fails alone; every other job's result
//     is bit-identical to a fault-free run — proved differentially over
//     dozens of seeded chaos schedules (the Chaos* tests, which ci.sh also
//     drives explicitly under a fixed seed);
//   * worker-thread exceptions in the batch crew are captured and
//     surfaced on the caller — never std::terminate, never a deadlock —
//     and a compiled model that cannot be built fails sim::crosscheck's
//     report instead of escaping it.
//
// Injection-dependent tests skip themselves under -DSILC_FAULT=OFF (the
// macros are compiled out, so nothing would fire); the cancellation and
// adversarial-input tests run in both builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.hpp"
#include "core/incremental_session.hpp"
#include "design_sources.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "fault/fault.hpp"
#include "fuzz_env.hpp"
#include "layout/layout.hpp"
#include "rtl/rtl.hpp"
#include "sim/sim.hpp"
#include "synth/synth.hpp"

namespace silc {
namespace {

using core::CancelToken;
using core::CompileOptions;
using core::CompileResult;
using core::Flow;
using core::Severity;
using fault::Injector;
using fault::Kind;
using fault::Schedule;
using fault::Trigger;

/// Every armed test disarms on exit, pass or fail, so one failure cannot
/// cascade injected faults into unrelated tests.
struct DisarmOnExit {
  ~DisarmOnExit() { Injector::global().disarm(); }
};

/// Compile options trimmed for harness speed: verification stages still
/// run (their containment is under test) but over few cycles. The 30s
/// deadline is the no-hang backstop every chaos compile carries.
CompileOptions quick(const std::string& name) {
  CompileOptions o;
  o.name = name;
  o.verify_cycles = 4;
  o.deadline_ms = 30000;
  return o;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool diag_mentions(const CompileResult& r, const std::string& needle) {
  return r.diag_text().find(needle) != std::string::npos;
}

/// The artifact view of "same result": everything same_outcome() compares
/// except the diagnostics stream — what graceful degradation must preserve
/// while it adds its fallback warning.
bool artifacts_equal(const CompileResult& a, const CompileResult& b) {
  return a.ok() == b.ok() && a.verified == b.verified && a.cif == b.cif &&
         a.transistors == b.transistors && a.rect_count == b.rect_count &&
         a.drc.violations == b.drc.violations &&
         a.verify_detail == b.verify_detail;
}

// ------------------------------------------------------------ cancellation --

TEST(Cancel, TokenFlagDeadlineAndParentChain) {
  CancelToken t;
  EXPECT_FALSE(t.cancelled());
  t.cancel();
  EXPECT_TRUE(t.cancelled());
  EXPECT_STREQ(t.reason(), "cancelled");

  CancelToken d;
  d.set_deadline_after(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(d.cancelled());
  EXPECT_STREQ(d.reason(), "deadline exceeded");

  CancelToken parent;
  CancelToken child;
  child.set_parent(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.cancel();
  EXPECT_TRUE(child.cancelled());

  // check_cancel honors the ambient scope and throws a named Cancelled.
  const core::CancelScope scope(&parent);
  EXPECT_TRUE(core::cancel_requested());
  try {
    core::check_cancel("unit.test");
    FAIL() << "check_cancel did not throw";
  } catch (const core::Cancelled& c) {
    EXPECT_NE(std::string(c.what()).find("unit.test"), std::string::npos);
  }
}

TEST(Cancel, PreCancelledTokenStopsTheCompileStructurally) {
  layout::Library lib("cancelled");
  CancelToken token;
  token.cancel();
  CompileOptions o = quick("gray2");
  o.deadline_ms = 0;
  o.cancel = &token;
  CompileResult r;
  EXPECT_NO_THROW(
      r = core::compile(lib, Flow::Behavioral, silc_fixtures::kGray2Source, o));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.cancelled());
  EXPECT_TRUE(r.has_errors());
  // Structured, not textual: a Severity::Cancelled diag is present, and
  // every stage slot still has its timing entry (none marked ran).
  bool saw_cancelled = false;
  for (const core::Diag& d : r.diags) {
    saw_cancelled |= d.severity == Severity::Cancelled;
  }
  EXPECT_TRUE(saw_cancelled) << r.diag_text();
  for (const core::StageTiming& t : r.timings) EXPECT_FALSE(t.ran) << t.stage;
}

TEST(Cancel, DeadlineBeatsAnInjectedStall) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  // A 10-second stall in hierarchical DRC vs a 300ms deadline: the stall
  // sleeps in 1ms slices polling the ambient token, so the compile must
  // return a structured cancellation within the deadline plus a modest
  // scheduling margin — not after 10 seconds.
  Schedule s;
  s.triggers.push_back({"drc.hier.cell", Kind::Delay, 0, true, 10000, ""});
  Injector::global().arm(s);

  layout::Library lib("stalled");
  CompileOptions o = quick("traffic");
  o.deadline_ms = 300;
  const auto t0 = std::chrono::steady_clock::now();
  CompileResult r;
  EXPECT_NO_THROW(r = core::compile(lib, Flow::Behavioral,
                                    silc_fixtures::kTrafficSource, o));
  const double elapsed = ms_since(t0);
  EXPECT_TRUE(r.cancelled()) << r.diag_text();
  EXPECT_FALSE(r.ok());
  EXPECT_LT(elapsed, 5000.0) << "stall outlived the deadline";
}

// -------------------------------------------------------- injected faults --

TEST(Inject, StageFaultBecomesAStructuredDiagnostic) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  Schedule s;
  s.triggers.push_back({"pipeline.stage.cif", Kind::Throw, 0, true, 0, ""});
  Injector::global().arm(s);

  layout::Library lib("faulted");
  CompileResult r;
  EXPECT_NO_THROW(r = core::compile(lib, Flow::Behavioral,
                                    silc_fixtures::kGray2Source,
                                    quick("gray2")));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.cancelled());
  EXPECT_TRUE(diag_mentions(r, "injected fault at pipeline.stage.cif"))
      << r.diag_text();
  EXPECT_GE(Injector::global().fired(), 1u);
}

TEST(Inject, HierDrcFailureFallsBackToFlatByteIdentical) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  layout::Library base_lib("base");
  const CompileResult base = core::compile(
      base_lib, Flow::Behavioral, silc_fixtures::kTrafficSource,
      quick("traffic"));
  ASSERT_TRUE(base.ok()) << base.diag_text();

  Schedule s;
  s.triggers.push_back({"drc.hier.cell", Kind::Throw, 0, true, 0, ""});
  Injector::global().arm(s);
  layout::Library lib("hier-drc-down");
  CompileResult r;
  EXPECT_NO_THROW(r = core::compile(lib, Flow::Behavioral,
                                    silc_fixtures::kTrafficSource,
                                    quick("traffic")));
  Injector::global().disarm();

  EXPECT_TRUE(diag_mentions(r, "falling back to flat")) << r.diag_text();
  EXPECT_TRUE(artifacts_equal(r, base)) << "fallback changed the artifacts";
  EXPECT_TRUE(r.ok()) << r.diag_text();  // a warning, not an error
}

TEST(Inject, PlaProverFailureIsAStructuredPlaCheckError) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  Schedule s;
  s.triggers.push_back({"sim.pla.prove", Kind::Throw, 0, true, 0, ""});
  Injector::global().arm(s);
  layout::Library lib("prover-down");
  CompileResult r;
  EXPECT_NO_THROW(r = core::compile(lib, Flow::Behavioral,
                                    silc_fixtures::kGray2Source,
                                    quick("gray2")));
  Injector::global().disarm();

  // The proof engine is down: there is no second engine to fall back to,
  // so pla-check fails with an error diag naming the fault, and the
  // pipeline stops before the artwork run.
  EXPECT_FALSE(r.ok()) << r.diag_text();
  const auto pla_error = std::find_if(
      r.diags.begin(), r.diags.end(), [](const core::Diag& d) {
        return d.stage == "pla-check" && d.severity == Severity::Error;
      });
  ASSERT_NE(pla_error, r.diags.end()) << r.diag_text();
  EXPECT_NE(pla_error->message.find("injected fault at sim.pla.prove"),
            std::string::npos)
      << pla_error->message;
  const auto artwork = std::find_if(
      r.timings.begin(), r.timings.end(),
      [](const core::StageTiming& t) { return t.stage == "artwork-check"; });
  ASSERT_NE(artwork, r.timings.end());
  EXPECT_FALSE(artwork->ran);
}

TEST(Inject, GateProverFailureIsAStructuredGateCheckError) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  Schedule s;
  s.triggers.push_back({"sim.gate.prove", Kind::Throw, 0, true, 0, ""});
  Injector::global().arm(s);
  layout::Library lib("gate-prover-down");
  CompileResult r;
  EXPECT_NO_THROW(r = core::compile(lib, Flow::Behavioral,
                                    silc_fixtures::kGray2Source,
                                    quick("gray2")));
  Injector::global().disarm();

  // pla-check's contract: no second engine, so gate-check fails with an
  // error diag naming the fault and no later verification stage runs.
  EXPECT_FALSE(r.ok()) << r.diag_text();
  const auto gate_error = std::find_if(
      r.diags.begin(), r.diags.end(), [](const core::Diag& d) {
        return d.stage == "gate-check" && d.severity == Severity::Error;
      });
  ASSERT_NE(gate_error, r.diags.end()) << r.diag_text();
  EXPECT_NE(gate_error->message.find("injected fault at sim.gate.prove"),
            std::string::npos)
      << gate_error->message;
  for (const core::StageTiming& t : r.timings) {
    if (t.stage == "pla-check" || t.stage == "artwork-check") {
      EXPECT_FALSE(t.ran) << t.stage;
    }
  }
}

TEST(Cancel, GateProofPollsTheAmbientToken) {
  const rtl::Design design =
      rtl::parse(silc_fixtures::counter_source(12));
  const synth::TabulatedFsm fsm = synth::tabulate(design);
  CancelToken token;
  token.cancel();
  const core::CancelScope scope(&token);
  try {
    (void)sim::prove_gates(design, fsm);
    FAIL() << "prove_gates ignored a cancelled token";
  } catch (const core::Cancelled& c) {
    EXPECT_NE(std::string(c.what()).find("sim.gate.prove"), std::string::npos)
        << c.what();
  }
}

TEST(Inject, HierExtractFailureFallsBackToFlatByteIdentical) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  layout::Library base_lib("base");
  const CompileResult base = core::compile(
      base_lib, Flow::Structural, silc_fixtures::kInvChainSource,
      quick("chain"));
  ASSERT_TRUE(base.ok()) << base.diag_text();

  Schedule s;
  s.triggers.push_back({"extract.hier.cell", Kind::Throw, 0, true, 0, ""});
  Injector::global().arm(s);
  layout::Library lib("hier-extract-down");
  CompileResult r;
  EXPECT_NO_THROW(r = core::compile(lib, Flow::Structural,
                                    silc_fixtures::kInvChainSource,
                                    quick("chain")));
  Injector::global().disarm();

  EXPECT_TRUE(diag_mentions(r, "falling back to flat extraction"))
      << r.diag_text();
  EXPECT_TRUE(artifacts_equal(r, base)) << "fallback changed the artifacts";
  EXPECT_TRUE(r.ok()) << r.diag_text();
}

// --------------------------------------------------------- cache poisoning --

TEST(Poison, VerdictCacheDetectsEvictsAndCounts) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  drc::VerdictCache cache;
  const drc::VerdictCache::Key key{1, 2, 3, {0, 0, 40, 40}};
  const std::vector<drc::Violation> verdict = {
      {"metal.width", {0, 0, 2, 2}, "too narrow", {1, 1}}};

  Schedule s;
  s.triggers.push_back({"drc.cache.store", Kind::Corrupt, 0, true, 0, ""});
  Injector::global().arm(s);
  cache.store(key, verdict);
  Injector::global().disarm();

  // The poisoned hit reads as a miss: entry evicted, poisoning counted.
  EXPECT_EQ(cache.find(key), nullptr);
  EXPECT_EQ(cache.poisoned(), 1u);
  EXPECT_EQ(cache.size(), 0u);

  // The recompute path stores a clean entry that verifies and hits.
  cache.store(key, verdict);
  const auto v = cache.find(key);
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->size(), 1u);
  EXPECT_EQ((*v)[0].rule, "metal.width");
  EXPECT_EQ(cache.poisoned(), 1u);  // no new poisonings
}

TEST(Poison, NetlistCachePoisoningReExtractsTheSameNetlist) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  layout::Library lib("poisoned");
  CompileOptions o = quick("gray2");
  o.stop_after = "assemble";
  const CompileResult r =
      core::compile(lib, Flow::Behavioral, silc_fixtures::kGray2Source, o);
  ASSERT_NE(r.chip, nullptr) << r.diag_text();
  const extract::Netlist base =
      extract::extract_flat(layout::flatten_with_labels(*r.chip));

  // Every store into the cache is poisoned; the second extraction's hit
  // must detect the bad checksum, evict, and re-extract — landing on the
  // same netlist as the flat engine.
  extract::NetlistCache cache;
  Schedule s;
  s.triggers.push_back({"extract.cache.store", Kind::Corrupt, 0, true, 0, ""});
  Injector::global().arm(s);
  const extract::Netlist first =
      extract::extract_hier(*r.chip, tech::nmos(), &cache);
  const extract::Netlist second =
      extract::extract_hier(*r.chip, tech::nmos(), &cache);
  Injector::global().disarm();

  EXPECT_EQ(first, base);
  EXPECT_EQ(second, base);
  EXPECT_EQ(cache.poisoned(), 1u)
      << "second extraction never tripped over the poisoned entry";
  EXPECT_EQ(cache.hits(), 0u);
}

// ------------------------------------------------------ worker containment --

TEST(Contain, CrosscheckSwallowsWorkerFaultsIntoTheReport) {
  // A compiled model that throws while it is built (a kept signal the
  // design does not have) must surface as a failed report, never escape
  // sim::crosscheck. Needs neither fault injection nor a second core.
  const rtl::Design design = rtl::parse(silc_fixtures::kGray2Source);
  sim::CrosscheckOptions o;
  o.cycles = 32;
  o.switch_cycles = 0;
  o.sim.keep = {"no_such_signal"};
  sim::CrosscheckReport r;
  EXPECT_NO_THROW(r = sim::crosscheck(design, o));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.detail.rfind("crosscheck error:", 0), 0u) << r.detail;
  EXPECT_NE(r.detail.find("no_such_signal"), std::string::npos) << r.detail;

  // The same options without the bad pin pass.
  o.sim.keep.clear();
  const sim::CrosscheckReport clean = sim::crosscheck(design, o);
  EXPECT_TRUE(clean.ok) << clean.detail;
}

TEST(Contain, BatchJobFaultFailsOnlyTheVictim) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  std::vector<core::BatchJob> jobs;
  jobs.push_back({Flow::Behavioral, silc_fixtures::counter_source(3),
                  quick("counter3")});
  jobs.push_back({Flow::Behavioral, silc_fixtures::kGray2Source,
                  quick("gray2")});
  jobs.push_back({Flow::Behavioral, silc_fixtures::kTrafficSource,
                  quick("traffic")});
  jobs.push_back({Flow::Structural, silc_fixtures::kInvChainSource,
                  quick("chain")});
  const core::BatchResult base = core::compile_many(jobs, 2);
  ASSERT_EQ(base.ok_count(), jobs.size());

  // Job 2 dies before its compile even starts — outside every stage
  // boundary, the worst containment case.
  Schedule s;
  s.triggers.push_back({"batch.job", Kind::Throw, 0, true, 0, "job:2"});
  Injector::global().arm(s);
  const core::BatchResult chaos = core::compile_many(jobs, 2);
  Injector::global().disarm();

  ASSERT_EQ(chaos.results.size(), jobs.size());
  EXPECT_FALSE(chaos.results[2].ok());
  EXPECT_TRUE(diag_mentions(chaos.results[2], "failed outside stage"))
      << chaos.results[2].diag_text();
  EXPECT_TRUE(diag_mentions(chaos.results[2], "injected fault at batch.job"));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(chaos.results[i].same_outcome(base.results[i]))
        << "job " << i << " was not isolated from the fault";
  }
}

TEST(Contain, RepeatsOfAFaultedFirstJobCompileOnTheirOwn) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  // Three copies of one job, the first degraded by a fault into a
  // warning-carrying result, which is never shared. Each repeat compiles
  // on its own, and the second pass never stores, so no repeat is served
  // from another repeat's result, whatever the thread count.
  const std::vector<core::BatchJob> jobs(
      3, {Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2")});
  layout::Library ref_lib("ref");
  const CompileResult ref = core::compile(
      ref_lib, Flow::Behavioral, silc_fixtures::kGray2Source, quick("gray2"));
  ASSERT_TRUE(ref.ok()) << ref.diag_text();

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    Schedule s;
    s.triggers.push_back({"drc.hier.cell", Kind::Throw, 0, true, 0, "job:0"});
    Injector::global().arm(s);
    const core::BatchResult br = core::compile_many(jobs, threads);
    Injector::global().disarm();
    ASSERT_EQ(br.results.size(), jobs.size());
    EXPECT_TRUE(diag_mentions(br.results[0], "falling back to flat"))
        << br.results[0].diag_text();
    EXPECT_TRUE(artifacts_equal(br.results[0], ref));
    for (std::size_t i = 1; i < jobs.size(); ++i) {
      EXPECT_FALSE(br.results[i].from_cache) << i;
      EXPECT_TRUE(br.results[i].same_outcome(ref))
          << i << "\n" << br.results[i].diag_text();
    }
    EXPECT_EQ(br.store.hits, 0u);
  }
}

// -------------------------------------------------- chaos differential run --

/// One scheduled chaos scenario: a fault site, what it injects, and what
/// the victim job is entitled to expect.
struct SitePlan {
  const char* site;
  Kind kind;
  enum Expect {
    kHardFail,  // victim fails with a structured "injected fault" diag
    kDegrade,   // victim's artifacts stay byte-identical (fallback path)
    kBenign,    // victim's whole outcome stays identical (a delay)
    // The prover sites (gate-check, pla-check) exist only on the
    // behavioral flow, so this expectation tolerates an unreached site
    // (fired == 0: the victim was structural and must be untouched).
    kVerifyHardFail,  // a verification prover down: structured failure
  } expect;
  int delay_ms = 0;
};

// A batch compile reaches every site below. The footprint-path sites
// (drc.hier.seam, extract.hier.window) run only inside an
// IncrementalSession's footprint verify, so Chaos.FootprintSitesInASession
// sweeps them instead; the whole-design caches that hold the
// drc.cache.store / extract.cache.store sites are a session's (a batch
// shares none), so Chaos.CacheStoreSitesInASession sweeps those.
constexpr SitePlan kSitePlans[] = {
    {"pipeline.stage.parse", Kind::Throw, SitePlan::kHardFail, 0},
    {"pipeline.stage.cif", Kind::Throw, SitePlan::kHardFail, 0},
    {"pipeline.stage.drc", Kind::Throw, SitePlan::kHardFail, 0},
    {"batch.job", Kind::Throw, SitePlan::kHardFail, 0},
    {"drc.hier.cell", Kind::Throw, SitePlan::kDegrade, 0},
    {"extract.hier.cell", Kind::Throw, SitePlan::kDegrade, 0},
    {"drc.hier.cell", Kind::Delay, SitePlan::kBenign, 5},
    {"extract.hier.cell", Kind::Delay, SitePlan::kBenign, 5},
    {"sim.gate.prove", Kind::Delay, SitePlan::kBenign, 5},
    {"sim.gate.prove", Kind::Throw, SitePlan::kVerifyHardFail, 0},
    {"sim.pla.prove", Kind::Delay, SitePlan::kBenign, 5},
    {"sim.pla.prove", Kind::Throw, SitePlan::kVerifyHardFail, 0},
    {"sim.pla.*", Kind::Throw, SitePlan::kVerifyHardFail, 0},
};

std::vector<core::BatchJob> chaos_jobs() {
  std::vector<core::BatchJob> jobs;
  for (int rep = 0; rep < 6; ++rep) {
    const std::string tag = ":" + std::to_string(rep);
    jobs.push_back({Flow::Behavioral, silc_fixtures::counter_source(3),
                    quick("counter3" + tag)});
    jobs.push_back({Flow::Behavioral, silc_fixtures::kGray2Source,
                    quick("gray2" + tag)});
    jobs.push_back({Flow::Behavioral, silc_fixtures::kTrafficSource,
                    quick("traffic" + tag)});
    jobs.push_back({Flow::Structural, silc_fixtures::kInvChainSource,
                    quick("chain" + tag)});
  }
  return jobs;
}

/// Run one seeded schedule against the 24-job batch and diff every job
/// against the fault-free baseline. Returns the number of expectation
/// failures (also recorded via gtest).
void run_chaos_round(const std::vector<core::BatchJob>& jobs,
                     const core::BatchResult& base, std::uint64_t seed,
                     int round) {
  const SitePlan& plan =
      kSitePlans[(seed + static_cast<std::uint64_t>(round)) %
                 std::size(kSitePlans)];
  const std::size_t victim =
      (seed / 7 + static_cast<std::uint64_t>(round) * 7) % jobs.size();
  const std::string label = "round " + std::to_string(round) + " site " +
                            plan.site + " kind " + to_string(plan.kind) +
                            " victim " + std::to_string(victim);

  Schedule s;
  s.seed = seed;
  s.triggers.push_back({plan.site, plan.kind, 0, true, plan.delay_ms,
                        "job:" + std::to_string(victim)});
  Injector::global().arm(s);
  const auto t0 = std::chrono::steady_clock::now();
  const core::BatchResult chaos = core::compile_many(jobs, 4);
  const double elapsed = ms_since(t0);
  const std::uint64_t fired = Injector::global().fired();
  Injector::global().disarm();

  ASSERT_EQ(chaos.results.size(), jobs.size()) << label;
  EXPECT_LT(elapsed, 60000.0) << label << ": batch hung";

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CompileResult& got = chaos.results[i];
    const CompileResult& want = base.results[i];
    if (i != victim) {
      EXPECT_TRUE(got.same_outcome(want))
          << label << ": non-victim job " << i << " drifted\n"
          << got.diag_text();
      continue;
    }
    switch (plan.expect) {
      case SitePlan::kHardFail:
        // Sticky throws at always-hit sites: the victim must fail with a
        // structured injected-fault diagnostic and nothing else crashes.
        EXPECT_GE(fired, 1u) << label;
        EXPECT_FALSE(got.ok()) << label;
        EXPECT_TRUE(diag_mentions(got, "injected fault"))
            << label << "\n" << got.diag_text();
        break;
      case SitePlan::kDegrade:
        // Hier engine down: flat fallback, artifacts byte-identical (the
        // diag stream additionally carries the fallback warning).
        EXPECT_TRUE(artifacts_equal(got, want))
            << label << "\n" << got.diag_text();
        break;
      case SitePlan::kBenign:
        // Delays only cost time: the whole outcome, diagnostics included,
        // is identical.
        EXPECT_TRUE(got.same_outcome(want))
            << label << "\n" << got.diag_text();
        break;
      case SitePlan::kVerifyHardFail:
        // A prover down (by exact site or prefix trigger):
        // behavioral victims fail structurally; structural victims never
        // reach the sites.
        if (fired == 0) {
          EXPECT_TRUE(got.same_outcome(want))
              << label << "\n" << got.diag_text();
          break;
        }
        EXPECT_FALSE(got.ok()) << label;
        EXPECT_TRUE(diag_mentions(got, "injected fault"))
            << label << "\n" << got.diag_text();
        break;
    }
  }
}

TEST(Chaos, DifferentialOverSeededSchedules) {
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  const std::vector<core::BatchJob> jobs = chaos_jobs();
  ASSERT_EQ(jobs.size(), 24u);
  const core::BatchResult base = core::compile_many(jobs, 4);
  ASSERT_EQ(base.ok_count(), jobs.size())
      << "baseline batch must be fault-free";

  // 50 deterministic rounds (SILC_FUZZ_TRIALS scales the sweep) cover
  // every site plan × a rotating victim; SILC_CHAOS_SEED (ci.sh sets it)
  // adds an extra seeded round on top, and is also the env var a failing
  // round's repro line names.
  const silc_fixtures::FuzzEnv fuzz = silc_fixtures::fuzz_env(50);
  std::uint64_t seed = 0x5113c0de2026ULL;
  for (int round = 0; round < fuzz.trials; ++round) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    SCOPED_TRACE(silc_fixtures::fuzz_repro("test_fault", "Chaos.*", seed,
                                           "SILC_CHAOS_SEED"));
    run_chaos_round(jobs, base, seed, round);
    if (HasFatalFailure()) return;
  }
  if (const char* env = std::getenv("SILC_CHAOS_SEED")) {
    const std::uint64_t pinned = std::strtoull(env, nullptr, 10) | 1ULL;
    SCOPED_TRACE(silc_fixtures::fuzz_repro("test_fault", "Chaos.*", pinned,
                                           "SILC_CHAOS_SEED"));
    run_chaos_round(jobs, base, pinned, fuzz.trials);
  }
}

/// counter3 assembled into `lib`, and its smallest leaf cell (the one the
/// session sweeps edit); leaf is null when the design did not assemble.
struct SessionChip {
  const layout::Cell* chip = nullptr;
  layout::Cell* leaf = nullptr;
};

SessionChip counter3_session_chip(layout::Library& lib) {
  CompileOptions o = quick("counter3");
  o.stop_after = "assemble";
  const CompileResult r = core::compile(lib, Flow::Behavioral,
                                        silc_fixtures::counter_source(3), o);
  SessionChip sc;
  sc.chip = r.chip;
  if (r.chip == nullptr) return sc;
  for (const layout::Cell* c : layout::dependency_order(*r.chip)) {
    if (c == r.chip || c->shapes().empty()) continue;
    if (sc.leaf == nullptr || c->shapes().size() < sc.leaf->shapes().size()) {
      sc.leaf = lib.find(c->name());
    }
  }
  return sc;
}

TEST(Chaos, FootprintSitesInASession) {
  // Seeded edits of counter3's smallest leaf through one session, each
  // verify with a throw or a delay armed at a footprint-path site. A throw
  // degrades that stage to a flat recompute, a delay only costs time; the
  // verdicts equal a flat check either way.
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  struct Plan {
    const char* site;
    Kind kind;
    bool drc;  // the site's stage
  };
  // Each throw is followed by a plan on the other stage, so the thrown
  // stage's next verify (a cold run) rebuilds its footprint baseline.
  constexpr Plan kPlans[] = {{"drc.hier.seam", Kind::Throw, true},
                             {"extract.hier.window", Kind::Delay, false},
                             {"extract.hier.window", Kind::Throw, false},
                             {"drc.hier.seam", Kind::Delay, true}};
  layout::Library lib;
  const SessionChip sc = counter3_session_chip(lib);
  ASSERT_NE(sc.leaf, nullptr);
  const layout::Cell& chip = *sc.chip;
  layout::Cell* leaf = sc.leaf;

  core::IncrementalSession sess;
  (void)sess.verify(lib, chip);
  const silc_fixtures::FuzzEnv fuzz = silc_fixtures::fuzz_env(8);
  for (int round = 0; round < fuzz.trials; ++round) {
    const Plan& plan = kPlans[static_cast<std::size_t>(round) % std::size(kPlans)];
    const std::string label = "round " + std::to_string(round) + " site " +
                              plan.site + " kind " + to_string(plan.kind);
    layout::Shape moved = leaf->shapes()[0];
    moved.rect = {moved.rect.x0 + 2, moved.rect.y0, moved.rect.x1 + 2,
                  moved.rect.y1};
    leaf->set_shape(0, moved);

    Schedule s;
    s.triggers.push_back({plan.site, plan.kind, 0, true, 2, ""});
    Injector::global().arm(s);
    const core::IncrVerdict v = sess.verify(lib, chip);
    const std::uint64_t fired = Injector::global().fired();
    Injector::global().disarm();

    EXPECT_GE(fired, 1u) << label << ": the armed site was never reached";
    const core::IncrPath path =
        plan.drc ? v.drc_stats.path : v.extract_stats.path;
    if (plan.kind == Kind::Throw) {
      EXPECT_EQ(path, core::IncrPath::FlatFallback) << label;
    } else {
      EXPECT_TRUE(path == core::IncrPath::Footprint ||
                  path == core::IncrPath::Guard)
          << label << ": " << core::to_string(path);
    }
    const layout::Flattened flat = layout::flatten_with_labels(chip);
    EXPECT_EQ(v.drc.violations, drc::check_flat(flat.shapes).violations)
        << label;
    EXPECT_EQ(v.netlist, extract::extract_flat(flat)) << label;
  }
}

TEST(Chaos, CacheStoreSitesInASession) {
  // The whole-design caches are filled by a session's full verify, and an
  // undo reads them back. Each store site is armed for the cold verify, so
  // its entry is poisoned; an edit moves the top away, and the undo back
  // must find the bad checksum, evict the entry and re-check the stage on
  // its footprint path. Every verdict equals a flat check.
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  const DisarmOnExit disarm;
  for (const bool drc_site : {true, false}) {
    const char* site = drc_site ? "drc.cache.store" : "extract.cache.store";
    SCOPED_TRACE(site);
    layout::Library lib;
    const SessionChip sc = counter3_session_chip(lib);
    ASSERT_NE(sc.leaf, nullptr);
    const layout::Cell& chip = *sc.chip;
    const auto expect_flat = [&](const core::IncrVerdict& v,
                                 const char* step) {
      const layout::Flattened flat = layout::flatten_with_labels(chip);
      EXPECT_EQ(v.drc.violations, drc::check_flat(flat.shapes).violations)
          << step;
      EXPECT_EQ(v.netlist, extract::extract_flat(flat)) << step;
    };

    core::IncrementalSession sess;
    Schedule s;
    s.triggers.push_back({site, Kind::Corrupt, 0, true, 0, ""});
    Injector::global().arm(s);
    const core::IncrVerdict cold = sess.verify(lib, chip);
    const std::uint64_t fired = Injector::global().fired();
    Injector::global().disarm();
    EXPECT_GE(fired, 1u) << "the cold verify never stored through the site";
    expect_flat(cold, "cold");

    const layout::Shape original = sc.leaf->shapes()[0];
    layout::Shape moved = original;
    moved.rect = {moved.rect.x0 + 2, moved.rect.y0, moved.rect.x1 + 2,
                  moved.rect.y1};
    sc.leaf->set_shape(0, moved);
    expect_flat(sess.verify(lib, chip), "edit");

    sc.leaf->set_shape(0, original);
    const core::IncrVerdict undo = sess.verify(lib, chip);
    expect_flat(undo, "undo");
    const std::uint64_t poisoned = drc_site ? sess.drc_cache().poisoned()
                                            : sess.extract_cache().poisoned();
    EXPECT_EQ(poisoned, 1u) << "the undo never read the poisoned entry";
    const core::IncrPath path =
        drc_site ? undo.drc_stats.path : undo.extract_stats.path;
    EXPECT_NE(path, core::IncrPath::TopHit) << core::to_string(path);
    const core::IncrPath other =
        drc_site ? undo.extract_stats.path : undo.drc_stats.path;
    EXPECT_EQ(other, core::IncrPath::TopHit) << core::to_string(other);
  }
}

// ------------------------------------------------------ adversarial corpus --

TEST(Adversarial, MalformedInputsDiagnoseNeverThrowNeverHang) {
  struct Case {
    const char* what;
    Flow flow;
    std::string source;
  };
  const Case corpus[] = {
      {"empty behavioral", Flow::Behavioral, ""},
      {"empty structural", Flow::Structural, ""},
      {"truncated processor", Flow::Behavioral,
       "processor t (input a; output q;) { reg"},
      {"garbage text", Flow::Behavioral, "%%% this is not a language @@@"},
      {"combinational cycle", Flow::Behavioral,
       "processor cyc (input a; output x;) { x = x ^ a; always { } }"},
      {"self-feeding wire pair", Flow::Behavioral,
       "processor loopy (input a; output p;) {"
       "  p = q ^ a; q = p; always { } }"},
      {"unknown builtin", Flow::Structural, "return frob(1);"},
      {"structural runtime error", Flow::Structural,
       "let c = cell(\"z\"); place(c, c, 0, 0); return c;"},
      {"unknown layer", Flow::Structural,
       "let c = cell(\"z\"); rect(c, \"bogus\", 0, 0, 4, 4); return c;"},
      {"no cell returned", Flow::Structural, "let x = 1;"},
  };
  for (const Case& c : corpus) {
    SCOPED_TRACE(c.what);
    layout::Library lib("adversarial");
    CompileOptions o = quick("bad");
    o.deadline_ms = 20000;  // the no-hang guard: malformed != unbounded
    const auto t0 = std::chrono::steady_clock::now();
    CompileResult r;
    EXPECT_NO_THROW(r = core::compile(lib, c.flow, c.source, o)) << c.what;
    EXPECT_LT(ms_since(t0), 20000.0) << c.what;
    EXPECT_FALSE(r.ok()) << c.what << " compiled cleanly:\n" << r.diag_text();
    EXPECT_TRUE(r.has_errors()) << c.what;
    EXPECT_FALSE(r.diags.empty()) << c.what;
  }

  // Degenerate geometry (a zero-area rect) must be handled, not crash:
  // whatever the verdict, the compile returns with structured diagnostics.
  layout::Library lib("degenerate");
  CompileOptions o = quick("zero-area");
  CompileResult r;
  EXPECT_NO_THROW(
      r = core::compile(lib, Flow::Structural,
                        "let c = cell(\"z\"); rect(c, \"metal\", 5, 5, 5, 9);"
                        " rect(c, \"metal\", 0, 0, 0, 0); return c;",
                        o));
  EXPECT_NO_THROW((void)r.diag_text());
}

}  // namespace
}  // namespace silc
