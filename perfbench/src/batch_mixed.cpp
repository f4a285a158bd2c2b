// batch_mixed: back-to-back core::compile_many of the committed 24-job mix
// (counter3, gray2, traffic and struct_counter, six each, both flows) at
// default options, in a seeded job order, on min(4, nproc) threads with the
// batch-shared verdict and netlist caches and no store.
//
// Untraced: ops_per_s is designs per second of batch wall, op_p50_ms is
// the median per-job pipeline_ms inside the batches; the report line adds
// compile_tail_ms, their p90.
//
// Traced: untraced and traced (obs tracer on) batches alternate; the stage
// profile comes from BatchResult::profile, cache hit ratios from one
// single-thread batch (deterministic), and the gate-check split from
// replaying its stimulus through rtl::BehavioralSim and sim::CompiledSim.
#include <algorithm>
#include <map>
#include <memory>
#include <thread>

#include "core/compiler.hpp"
#include "designs.hpp"
#include "harness.hpp"
#include "lang/lang.hpp"
#include "sim/sim.hpp"

namespace perfbench {
namespace {

using silc::core::BatchJob;
using silc::core::BatchResult;
using silc::core::CompileResult;
using silc::core::Flow;

constexpr int kRepetitions = 6;
/// Tail windows of 110 samples: the tail is p90.
constexpr std::size_t kTailWindow = 110;

struct Mix {
  std::vector<BatchJob> jobs;
  std::vector<std::size_t> design;  // index into batch_designs()
};

Mix make_mix(unsigned seed) {
  const std::vector<Source> designs = batch_designs();
  std::vector<std::size_t> order;
  for (int r = 0; r < kRepetitions; ++r) {
    for (std::size_t i = 0; i < designs.size(); ++i) order.push_back(i);
  }
  Mix mix;
  mix.design = shuffled(order, seed);
  for (const std::size_t i : mix.design) {
    BatchJob job{designs[i].flow, designs[i].text, {}};
    job.options.name = designs[i].name;
    mix.jobs.push_back(std::move(job));
  }
  return mix;
}

/// Each job must match a serial, cache-less compile of the same source,
/// and be ok (and verified, for the behavioral flow).
void check_batch(const Mix& mix, const BatchResult& br,
                 const std::vector<CompileResult>& refs, Outcome& out) {
  const std::vector<Source> designs = batch_designs();
  for (std::size_t i = 0; i < mix.jobs.size(); ++i) {
    const CompileResult& r = br.results[i];
    const CompileResult& ref = refs[mix.design[i]];
    out.attempt();
    const bool verified =
        mix.jobs[i].flow == Flow::Structural || r.verified;
    out.check(r.ok() && verified && r.same_outcome(ref),
              "job " + std::to_string(i) + " (" + designs[mix.design[i]].name +
                  ") differs from its serial cache-less compile");
  }
}

/// The gate-check stage's stimulus (CompileOptions defaults, sim threads
/// pinned to 1 as in a batch) replayed through the compiled and the
/// behavioral simulators separately.
void replay_gate_check(const Source& d, double& behavioral_ms,
                       double& compiled_ms, Outcome& out) {
  namespace S = silc;
  const S::rtl::Design design = S::rtl::parse(d.text);
  const S::core::CompileOptions defaults;
  const auto outs = design.of_kind(S::rtl::SignalKind::Output);
  std::vector<S::sim::Trace> stimuli, compiled;
  compiled_ms += time_ms([&] {
    S::sim::SimConfig sc;
    sc.threads = 1;
    S::sim::CompiledSim cs(design, sc);
    const int lanes = std::min(defaults.gate_verify_lanes, cs.lanes());
    for (int l = 0; l < lanes; ++l) {
      stimuli.push_back(S::sim::random_stimulus(
          design, defaults.gate_verify_cycles, 1u + static_cast<unsigned>(l)));
    }
    compiled = cs.run(stimuli);
  });
  std::vector<S::sim::Trace> behavioral(stimuli.size());
  behavioral_ms += time_ms([&] {
    for (std::size_t l = 0; l < stimuli.size(); ++l) {
      S::rtl::BehavioralSim b(design);
      for (const S::sim::Vector& row : stimuli[l]) {
        for (const auto& [name, value] : row) b.set(name, value);
        b.tick();
        S::sim::Vector o;
        for (const S::rtl::Signal* s : outs) o[s->name] = b.get(s->name);
        behavioral[l].push_back(std::move(o));
      }
    }
  });
  for (std::size_t l = 0; l < stimuli.size(); ++l) {
    out.check(S::sim::diff_traces(behavioral[l], compiled[l]).identical,
              d.name + ": gate-check replay mismatch in lane " +
                  std::to_string(l));
  }
}

}  // namespace

void batch_mixed(const Args& args, Outcome& out) {
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  // References, outside any timed region: one serial cache-less compile of
  // each design of the mix.
  std::vector<CompileResult> refs;
  std::vector<std::unique_ptr<silc::layout::Library>> ref_libs;
  for (const Source& d : batch_designs()) {
    ref_libs.push_back(std::make_unique<silc::layout::Library>());
    silc::core::CompileOptions o;
    o.name = d.name;
    refs.push_back(silc::core::compile(*ref_libs.back(), d.flow, d.text, o));
  }

  // Set-up: the seeded mix and one warm-up batch, three times.
  std::vector<double> setups;
  Mix mix;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    mix = make_mix(args.seed);
    const BatchResult warm = silc::core::compile_many(mix.jobs, threads);
    setups.push_back(ms_since(t0) / 1000.0);
    check_batch(mix, warm, refs, out);
  }
  out.set("setup_s", median(setups));

  if (!args.trace) {
    std::vector<double> job_ms;
    double wall_ms = 0;
    std::size_t jobs = 0;
    const auto t_run = Clock::now();
    do {
      const auto t0 = Clock::now();
      const BatchResult br = silc::core::compile_many(mix.jobs, threads);
      wall_ms += ms_since(t0);
      jobs += br.results.size();
      for (const CompileResult& r : br.results) job_ms.push_back(r.pipeline_ms);
      check_batch(mix, br, refs, out);
    } while (ms_since(t_run) < args.seconds * 1000.0);
    const Tail t = tail(job_ms, kTailWindow);
    out.set("op_p50_ms", median(job_ms));
    out.set("ops_per_s", static_cast<double>(jobs) / (wall_ms / 1000.0));
    out.named("designs_per_s", static_cast<double>(jobs) / (wall_ms / 1000.0),
              "1/s");
    out.named("compile_p50_ms", median(job_ms), "ms");
    out.named("compile_tail_ms", t.value, "ms");
    out.named("compile_tail_percentile", t.percentile, "%");
    out.named("compile_samples", static_cast<double>(t.samples), "count");
    out.named("threads", threads, "count");
    return;
  }

  std::map<std::string, std::pair<double, int>> profile;  // total ms, runs
  double wall_ms = 0, traced_ms = 0, busy = 0, spans = 0;
  std::size_t batches = 0;
  const auto t_run = Clock::now();
  do {
    // Untraced and traced batches alternate which runs first.
    BatchResult br, traced;
    double wall = 0;
    const auto untraced_batch = [&] {
      const auto t0 = Clock::now();
      br = silc::core::compile_many(mix.jobs, threads);
      wall = ms_since(t0);
    };
    const auto traced_batch = [&] {
      silc::obs::Tracer::global().enable();
      const auto t1 = Clock::now();
      traced = silc::core::compile_many(mix.jobs, threads);
      traced_ms += ms_since(t1);
      silc::obs::Tracer::global().disable();
      spans += static_cast<double>(spans_recorded()) /
               static_cast<double>(mix.jobs.size());
    };
    if (batches % 2 == 0) {
      untraced_batch();
      traced_batch();
    } else {
      traced_batch();
      untraced_batch();
    }
    wall_ms += wall;
    check_batch(mix, br, refs, out);
    check_batch(mix, traced, refs, out);
    for (const auto& s : br.profile) {
      profile[s.stage].first += s.total_ms;
      profile[s.stage].second += s.runs;
    }
    double pipeline = 0;
    for (const CompileResult& r : br.results) pipeline += r.pipeline_ms;
    busy += pipeline / (threads * wall);
    ++batches;
  } while (ms_since(t_run) < args.seconds * 1000.0);

  for (const char* stage :
       {"parse", "tabulate", "assemble", "cif", "drc", "extract", "gate-check",
        "pla-check", "artwork-check"}) {
    const auto [total, runs] = profile[stage];
    out.set(std::string("core.stage.") + stage + "_ms_per_run",
            total / std::max(1, runs));
  }
  out.set("core.crew_busy_ratio", busy / static_cast<double>(batches));
  out.set("obs.trace_overhead_pct", 100.0 * (traced_ms / wall_ms - 1.0));
  out.set("obs.spans_per_op", spans / static_cast<double>(batches));

  // Cache traffic of one single-thread batch: with one worker the order of
  // lookups is fixed, so the hit counts repeat exactly.
  const Counters before = counters_now();
  const BatchResult serial = silc::core::compile_many(mix.jobs, 1);
  const Counters after = counters_now();
  check_batch(mix, serial, refs, out);
  out.set("drc.cache.hit_ratio", hit_ratio(before, after, "drc.cache"));
  out.set("extract.cache.hit_ratio", hit_ratio(before, after, "extract.cache"));

  // The gate-check split and the structural parse, three replays of each
  // design (the mix holds each design equally often).
  double behavioral_ms = 0, compiled_ms = 0, lang_ms = 0;
  int behavioral_runs = 0, lang_runs = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (const Source& d : batch_designs()) {
      if (d.flow == Flow::Behavioral) {
        replay_gate_check(d, behavioral_ms, compiled_ms, out);
        ++behavioral_runs;
      } else {
        silc::layout::Library lib;
        silc::lang::Interpreter interp(lib);
        lang_ms += time_ms([&] { (void)interp.run(d.text); });
        ++lang_runs;
      }
    }
  }
  out.set("rtl.behavioral_ms", behavioral_ms / behavioral_runs);
  out.set("sim.compiled_ms", compiled_ms / behavioral_runs);
  out.set("lang.parse_ms", lang_ms / lang_runs);
  out.named("batches", static_cast<double>(batches), "count");
}

}  // namespace perfbench
