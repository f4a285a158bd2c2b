// The staged compile pipeline: stage ordering and timing, stop_after/skip
// policy, exception capture at stage boundaries, the extract-exactly-once
// guarantee, and compile_many's thread-count-independent determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "core/pipeline.hpp"
#include "design_sources.hpp"
#include "fault/fault.hpp"

namespace silc::core {
namespace {

const char* kGray2 = silc_fixtures::kGray2Source;
const char* kChain = silc_fixtures::kInvChainSource;

CompileOptions fast_verify(const std::string& name) {
  CompileOptions o;
  o.name = name;
  o.verify_cycles = 8;
  return o;
}

std::vector<std::string> ran_stages(const std::vector<StageTiming>& ts) {
  std::vector<std::string> out;
  for (const StageTiming& t : ts) {
    if (t.ran) out.push_back(t.stage);
  }
  return out;
}

TEST(Pipeline, BehavioralStageOrderIsTheContract) {
  const std::vector<std::string> want = {
      "parse", "tabulate", "assemble",   "cif",       "drc",
      "extract", "gate-check", "pla-check", "artwork-check"};
  EXPECT_EQ(Pipeline::behavioral().stage_names(), want);
  const std::vector<std::string> structural = {"parse", "cif", "drc",
                                               "extract"};
  EXPECT_EQ(Pipeline::structural().stage_names(), structural);
}

TEST(Pipeline, FullRunTimesEveryStage) {
  layout::Library lib;
  const CompileResult r =
      compile(lib, Flow::Behavioral, kGray2, fast_verify("gray2"));
  EXPECT_TRUE(r.ok()) << r.diag_text();
  EXPECT_TRUE(r.verified);
  // pla-check always decides every minterm: gray2's 2^3.
  EXPECT_NE(r.verify_detail.find("terms) == table: exhaustive proof over "
                                 "all 8 minterms"),
            std::string::npos)
      << r.verify_detail;
  // gate-check proves over every minterm: gray2 has 2 state bits and 1
  // input bit, so 2^3.
  const auto gate_note = std::find_if(
      r.diags.begin(), r.diags.end(),
      [](const Diag& d) { return d.stage == "gate-check"; });
  ASSERT_NE(gate_note, r.diags.end()) << r.diag_text();
  EXPECT_EQ(gate_note->severity, Severity::Note);
  EXPECT_NE(gate_note->message.find("proof"), std::string::npos)
      << gate_note->message;
  EXPECT_NE(gate_note->message.find("all 8 minterms"), std::string::npos)
      << gate_note->message;
  ASSERT_EQ(r.timings.size(), 9u);
  for (const StageTiming& t : r.timings) {
    EXPECT_TRUE(t.ran) << t.stage;
    EXPECT_TRUE(t.ok) << t.stage;
    EXPECT_GE(t.ms, 0.0) << t.stage;
  }
  // Every stage left a note in the diagnostics stream.
  for (const char* stage : {"parse", "tabulate", "assemble", "cif", "drc",
                            "extract", "gate-check", "pla-check",
                            "artwork-check"}) {
    EXPECT_FALSE(
        std::none_of(r.diags.begin(), r.diags.end(),
                     [&](const Diag& d) { return d.stage == stage; }))
        << "no diagnostic from stage " << stage;
  }
}

TEST(Pipeline, StopAfterProducesPartialArtifacts) {
  layout::Library lib;
  CompileOptions opt = fast_verify("gray2");
  opt.stop_after = "tabulate";
  DesignDB db(lib, Flow::Behavioral, kGray2, opt);
  EXPECT_TRUE(Pipeline::behavioral().run(db));
  EXPECT_TRUE(db.design.has_value());
  EXPECT_TRUE(db.fsm.has_value());
  EXPECT_EQ(db.chip, nullptr);
  EXPECT_FALSE(db.cif.has_value());
  EXPECT_EQ(ran_stages(db.timings),
            (std::vector<std::string>{"parse", "tabulate"}));
  // A partial compile is not a manufacturable result.
  EXPECT_FALSE(finish(db).ok());
}

TEST(Pipeline, SkipDropsAStageOthersStillRun) {
  layout::Library lib;
  CompileOptions opt = fast_verify("gray2");
  opt.skip = {"drc"};
  opt.stop_after = "extract";
  DesignDB db(lib, Flow::Behavioral, kGray2, opt);
  EXPECT_TRUE(Pipeline::behavioral().run(db));
  EXPECT_FALSE(db.drc.has_value());
  EXPECT_TRUE(db.has_netlist());
  EXPECT_EQ(ran_stages(db.timings),
            (std::vector<std::string>{"parse", "tabulate", "assemble", "cif",
                                      "extract"}));
}

TEST(Pipeline, StopAfterASkippedStageStillStops) {
  layout::Library lib;
  CompileOptions opt = fast_verify("gray2");
  opt.stop_after = "drc";
  opt.skip = {"drc"};
  DesignDB db(lib, Flow::Behavioral, kGray2, opt);
  EXPECT_TRUE(Pipeline::behavioral().run(db));
  EXPECT_EQ(ran_stages(db.timings),
            (std::vector<std::string>{"parse", "tabulate", "assemble", "cif"}));
  EXPECT_FALSE(db.has_netlist());  // nothing past the stop point ran
}

TEST(Pipeline, UnknownPolicyNamesAreErrors) {
  layout::Library lib;
  CompileOptions opt;
  opt.stop_after = "frobnicate";
  const CompileResult r = compile(lib, Flow::Behavioral, kGray2, opt);
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.diags.empty());
  EXPECT_EQ(r.diags[0].stage, "pipeline");
  EXPECT_EQ(r.diags[0].severity, Severity::Error);
  // Nothing ran under a bad policy.
  EXPECT_TRUE(ran_stages(r.timings).empty());
}

TEST(Pipeline, FailingCheapCheckSkipsExpensiveStages) {
  // The mechanism behind "gate-check fails -> artwork check skipped":
  // a stage returning false stops the pipeline, later stages are recorded
  // as not-run, and the failure is an error diagnostic.
  layout::Library lib;
  DesignDB db(lib, Flow::Behavioral, "", {});
  bool late_ran = false;
  Pipeline p;
  p.stage("cheap", [](DesignDB&) { return false; });
  p.stage("expensive", [&](DesignDB&) {
    late_ran = true;
    return true;
  });
  EXPECT_FALSE(p.run(db));
  EXPECT_FALSE(late_ran);
  ASSERT_EQ(db.timings.size(), 2u);
  EXPECT_TRUE(db.timings[0].ran);
  EXPECT_FALSE(db.timings[0].ok);
  EXPECT_FALSE(db.timings[1].ran);
  EXPECT_TRUE(db.diags.has_errors());  // auto-added "stage failed"
}

TEST(Pipeline, ExceptionsBecomeStageDiagnostics) {
  layout::Library lib;
  DesignDB db(lib, Flow::Behavioral, "", {});
  Pipeline p;
  p.stage("boom", [](DesignDB&) -> bool {
    throw std::runtime_error("kaboom");
  });
  p.stage("after", [](DesignDB&) { return true; });
  EXPECT_FALSE(p.run(db));
  ASSERT_EQ(db.diags.all().size(), 1u);
  EXPECT_EQ(db.diags.all()[0].severity, Severity::Error);
  EXPECT_EQ(db.diags.all()[0].stage, "boom");
  EXPECT_EQ(db.diags.all()[0].message, "kaboom");
  EXPECT_FALSE(db.timings[1].ran);
}

TEST(Pipeline, ExtractsAndFlattensExactlyOnce) {
  // Hier everywhere (the default): DRC and extraction both work cell by
  // cell, so a full compile never flattens the chip at all — and still
  // extracts at most once (transistor count + artwork check share it).
  layout::Library lib;
  DesignDB db(lib, Flow::Behavioral, kGray2, fast_verify("gray2"));
  EXPECT_TRUE(Pipeline::behavioral().run(db)) << db.diags.text();
  EXPECT_EQ(db.flatten_runs, 0);
  EXPECT_EQ(db.extract_runs, 1);
  EXPECT_TRUE(db.artwork_ok);
}

TEST(Pipeline, HierFailuresFallBackToFlatSharingOneFlatten) {
  // Both hier engines down: DRC and extraction each fall back to the flat
  // engine, the two fallbacks share exactly one flatten, and the
  // artifacts are what the flat engines compute.
  if (!fault::kEnabled) GTEST_SKIP() << "built with SILC_FAULT=OFF";
  fault::Schedule s;
  s.triggers.push_back({"drc.hier.cell", fault::Kind::Throw, 0, true, 0, ""});
  s.triggers.push_back(
      {"extract.hier.cell", fault::Kind::Throw, 0, true, 0, ""});
  fault::Injector::global().arm(s);
  layout::Library lib;
  DesignDB db(lib, Flow::Behavioral, kGray2, fast_verify("gray2"));
  const bool ran = Pipeline::behavioral().run(db);
  fault::Injector::global().disarm();

  EXPECT_TRUE(ran) << db.diags.text();
  EXPECT_NE(db.diags.stage_text("drc").find("falling back to flat"),
            std::string::npos)
      << db.diags.text();
  EXPECT_NE(db.diags.stage_text("extract").find(
                "falling back to flat extraction"),
            std::string::npos)
      << db.diags.text();
  EXPECT_EQ(db.flatten_runs, 1);
  EXPECT_EQ(db.extract_runs, 1);
  EXPECT_TRUE(db.artwork_ok);
  const layout::Flattened flat = layout::flatten_with_labels(*db.chip);
  ASSERT_TRUE(db.drc.has_value());
  EXPECT_EQ(db.drc->violations, drc::check_flat(flat.shapes).violations);
  EXPECT_EQ(db.netlist(), extract::extract_flat(flat));
}

TEST(Pipeline, MalformedBehavioralSourceIsAParseDiagnostic) {
  layout::Library lib;
  CompileResult r;
  ASSERT_NO_THROW(r = compile(lib, Flow::Behavioral, "processor x ("));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.chip, nullptr);
  ASSERT_FALSE(r.diags.empty());
  EXPECT_EQ(r.diags[0].stage, "parse");
  EXPECT_EQ(r.diags[0].severity, Severity::Error);
  EXPECT_NE(r.diags[0].message.find("line"), std::string::npos);
}

TEST(Pipeline, MalformedStructuralSourceIsAParseDiagnostic) {
  layout::Library lib;
  CompileResult r;
  ASSERT_NO_THROW(r = compile(lib, Flow::Structural, "let = nonsense ;;;"));
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.diags.empty());
  EXPECT_EQ(r.diags[0].stage, "parse");
  EXPECT_EQ(r.diags[0].severity, Severity::Error);
}

std::vector<BatchJob> demo_batch() {
  std::vector<BatchJob> jobs;
  jobs.push_back({Flow::Behavioral, kGray2, fast_verify("gray2")});
  for (int w = 2; w <= 3; ++w) {
    jobs.push_back({Flow::Behavioral, silc_fixtures::counter_source(w),
                    fast_verify("counter" + std::to_string(w))});
  }
  jobs.push_back({Flow::Structural, kChain, CompileOptions{.name = "chain"}});
  // One malformed design: the batch must carry its diagnostics, not die.
  jobs.push_back({Flow::Behavioral, "processor broken (", CompileOptions{}});
  return jobs;
}

TEST(Pipeline, CompileManyIsDeterministicAcrossThreadCounts) {
  const std::vector<BatchJob> jobs = demo_batch();
  const BatchResult one = compile_many(jobs, 1);
  const BatchResult four = compile_many(jobs, 4);
  EXPECT_EQ(one.threads, 1);
  // The ask for 4 workers is clamped to the machine: oversubscribing a
  // smaller core count was measurably slower than running serial.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(four.threads, hw >= 1 ? std::min(4, hw) : 4);
  ASSERT_EQ(one.results.size(), jobs.size());
  ASSERT_EQ(four.results.size(), jobs.size());
  EXPECT_EQ(one.ok_count(), 4u);  // all but the malformed job
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CompileResult& a = one.results[i];
    const CompileResult& b = four.results[i];
    EXPECT_TRUE(a.same_outcome(b)) << i << ": " << a.diag_text() << " vs "
                                   << b.diag_text();
    // Spot-check the fields same_outcome covers.
    EXPECT_EQ(a.cif, b.cif) << i;
    EXPECT_EQ(a.transistors, b.transistors) << i;
  }
}

TEST(Pipeline, BatchServesRepeatsFromItsResultCache) {
  // The batch's one cache tier: the first job of each fingerprint
  // compiles, and every repeat of a clean, notes-only result is served
  // from the batch's ResultCache. A repeated malformed source and a
  // repeated job whose result carries a warning are not eligible, so each
  // repeat compiles on its own, with its own diags.
  const std::string warned =
      "let c = cell(\"warned\"); rect(c, \"metal\", 0, 0, 8, 8);"
      " label(c, \"stray\", \"metal\", 100, 100); return c;";
  const std::vector<BatchJob> kinds = {
      {Flow::Behavioral, kGray2, fast_verify("gray2")},
      {Flow::Structural, kChain, CompileOptions{.name = "chain"}},
      {Flow::Behavioral, "processor broken (", CompileOptions{}},
      {Flow::Structural, warned, CompileOptions{.name = "warned"}},
  };
  // Each kind three times in a row, so at 4 threads a repeat is picked up
  // while its first is still compiling.
  constexpr std::size_t kCopies = 3;
  std::vector<BatchJob> jobs;
  for (const BatchJob& k : kinds) jobs.insert(jobs.end(), kCopies, k);

  // Each kind's serial, cache-less compile is the reference.
  std::vector<CompileResult> refs;
  std::vector<std::unique_ptr<layout::Library>> ref_libs;
  for (const BatchJob& k : kinds) {
    ref_libs.push_back(std::make_unique<layout::Library>());
    refs.push_back(compile(*ref_libs.back(), k.flow, k.source, k.options));
  }
  ASSERT_TRUE(refs[0].ok() && refs[1].ok()) << refs[0].diag_text()
                                            << refs[1].diag_text();
  ASSERT_FALSE(refs[2].ok());
  ASSERT_TRUE(refs[3].ok()) << refs[3].diag_text();
  ASSERT_EQ(std::count_if(refs[3].diags.begin(), refs[3].diags.end(),
                          [](const Diag& d) {
                            return d.severity == Severity::Warning;
                          }),
            1)
      << refs[3].diag_text();

  const BatchResult one = compile_many(jobs, 1);
  const BatchResult four = compile_many(jobs, 4);
  for (const BatchResult* br : {&one, &four}) {
    ASSERT_EQ(br->results.size(), jobs.size());
    // Two eligible kinds, two repeats each.
    EXPECT_EQ(br->store.hits, 4u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const CompileResult& r = br->results[i];
      const std::size_t kind = i / kCopies;
      EXPECT_TRUE(r.same_outcome(refs[kind]))
          << i << ": " << r.diag_text() << " vs " << refs[kind].diag_text();
      const bool served = i % kCopies != 0 && kind < 2;
      EXPECT_EQ(r.from_cache, served) << i;
      if (served) {
        EXPECT_EQ(r.chip, nullptr) << i;
        EXPECT_TRUE(r.timings.empty()) << i;
        EXPECT_EQ(r.pipeline_ms, 0.0) << i;
        EXPECT_EQ(br->libraries[i], nullptr) << i;
      } else if (kind != 2) {
        ASSERT_NE(r.chip, nullptr) << i;
        EXPECT_FALSE(r.timings.empty()) << i;
        EXPECT_NE(br->libraries[i], nullptr) << i;
      } else {
        EXPECT_FALSE(r.timings.empty()) << i << ": compiled on its own";
      }
    }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(one.results[i].same_outcome(four.results[i])) << i;
    EXPECT_EQ(one.results[i].from_cache, four.results[i].from_cache) << i;
  }

  // Engine cross-check at the batch level: each first job's chip,
  // extracted flat, gives the netlist the hier batch counted.
  for (std::size_t i = 0; i < jobs.size(); i += kCopies) {
    if (one.results[i].chip == nullptr) continue;  // the malformed job
    const extract::Netlist flat =
        extract::extract_flat(layout::flatten_with_labels(*one.results[i].chip));
    EXPECT_EQ(flat.transistors.size(), one.results[i].transistors) << i;
    EXPECT_EQ(flat, extract::extract_hier(*one.results[i].chip)) << i;
  }
}

TEST(Pipeline, CompileManyAggregatesAStageProfile) {
  std::vector<BatchJob> jobs = demo_batch();
  jobs.pop_back();  // drop the malformed one: every stage should run
  const BatchResult br = compile_many(jobs, 2);
  EXPECT_GT(br.wall_ms, 0.0);
  ASSERT_FALSE(br.profile.empty());
  // parse ran once per job; the structural flow has no tabulate.
  const auto find = [&](const char* s) {
    const auto it = std::find_if(
        br.profile.begin(), br.profile.end(),
        [&](const StageProfile& p) { return p.stage == s; });
    EXPECT_NE(it, br.profile.end()) << s;
    return it == br.profile.end() ? StageProfile{} : *it;
  };
  EXPECT_EQ(find("parse").runs, static_cast<int>(jobs.size()));
  EXPECT_EQ(find("tabulate").runs, static_cast<int>(jobs.size()) - 1);
  EXPECT_EQ(find("artwork-check").runs, static_cast<int>(jobs.size()) - 1);
  EXPECT_FALSE(br.profile_text().empty());
  // Chips stay alive: the batch owns the libraries the cells live in.
  for (std::size_t i = 0; i + 1 < jobs.size(); ++i) {
    ASSERT_NE(br.results[i].chip, nullptr) << i;
    EXPECT_GT(br.results[i].chip->flat_shape_count(), 0u) << i;
  }
}

TEST(Pipeline, TimingsCoverEverySlotWhateverThePolicy) {
  // Skipped and unreached stages still get a timing entry: the timings
  // are a complete per-slot account, not just a log of what ran.
  layout::Library lib;
  CompileOptions opt = fast_verify("gray2");
  opt.skip = {"drc"};
  opt.stop_after = "extract";
  DesignDB db(lib, Flow::Behavioral, kGray2, opt);
  EXPECT_TRUE(Pipeline::behavioral().run(db));
  ASSERT_EQ(db.timings.size(), 9u);
  for (const StageTiming& t : db.timings) {
    if (t.stage == "drc") {
      EXPECT_TRUE(t.skipped);
      EXPECT_FALSE(t.ran);
    } else if (t.stage == "gate-check" || t.stage == "pla-check" ||
               t.stage == "artwork-check") {
      EXPECT_FALSE(t.ran) << t.stage;  // past stop_after
      EXPECT_FALSE(t.skipped) << t.stage;
      EXPECT_EQ(t.ms, 0.0) << t.stage;
    } else {
      EXPECT_TRUE(t.ran) << t.stage;
      EXPECT_FALSE(t.skipped) << t.stage;
    }
  }
}

TEST(Pipeline, PolicyErrorStillEmitsEveryTimingSlot) {
  layout::Library lib;
  CompileOptions opt;
  opt.skip = {"no-such-stage"};
  const CompileResult r = compile(lib, Flow::Behavioral, kGray2, opt);
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.timings.size(), 9u);  // every slot, all unreached
  for (const StageTiming& t : r.timings) {
    EXPECT_FALSE(t.ran) << t.stage;
    EXPECT_FALSE(t.skipped) << t.stage;
  }
}

TEST(Pipeline, StageTimingsSumToThePipelineWallClock) {
  layout::Library lib;
  const CompileResult r =
      compile(lib, Flow::Behavioral, kGray2, fast_verify("gray2"));
  EXPECT_TRUE(r.ok()) << r.diag_text();
  EXPECT_GT(r.pipeline_ms, 0.0);
  double stage_sum = 0;
  for (const StageTiming& t : r.timings) stage_sum += t.ms;
  // The stage timings account for the whole run: nothing substantial
  // happens outside them (policy validation is the only other work).
  EXPECT_LE(stage_sum, r.pipeline_ms);
  EXPECT_GT(stage_sum, 0.9 * r.pipeline_ms);
}

TEST(Pipeline, CompileResultCarriesAMetricsSnapshot) {
  layout::Library lib;
  const CompileResult r =
      compile(lib, Flow::Behavioral, kGray2, fast_verify("gray2"));
  EXPECT_TRUE(r.ok()) << r.diag_text();
  if (!obs::kEnabled) {
    EXPECT_TRUE(r.metrics.empty());
    return;
  }
  // A full hier-mode compile must at least have touched the DRC and
  // extraction caches; nonzero entries only.
  EXPECT_FALSE(r.metrics.empty());
  const auto has = [&](const std::string& name) {
    return std::any_of(r.metrics.begin(), r.metrics.end(),
                       [&](const obs::MetricSample& s) {
                         return s.name == name && s.value != 0;
                       });
  };
  EXPECT_TRUE(has("drc.cache.misses"));
  EXPECT_TRUE(has("extract.cache.misses"));
  EXPECT_TRUE(has("drc.cells"));
  EXPECT_TRUE(has("extract.cells"));
  for (const obs::MetricSample& s : r.metrics) {
    EXPECT_NE(s.value, 0) << s.name;
  }
}

}  // namespace
}  // namespace silc::core
