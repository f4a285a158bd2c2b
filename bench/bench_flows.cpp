// E7 (paper claim C6): the "costs and benefits of placing emphasis on a
// structural or behavioral approach to silicon compilation". The same
// designs go through both flows; we also ablate the FSM state encoding
// (binary/gray/one-hot), a choice the behavioral flow makes for the
// designer and the structural flow exposes.
//
// Since the stage-pipeline refactor this bench also records the compile
// pipeline's own performance: per-stage wall clock (aggregated by
// core::compile_many over a mixed batch) and batch throughput in
// designs/sec at 1 thread and at hardware concurrency (both legs
// untraced, min over the same samples of the same laps), emitted as
// BENCH_compile.json so CI tracks the compile-path trajectory the same
// way BENCH_sim.json tracks the simulator.
//
// Since the observability layer (src/obs/) this bench is also its
// enforcement point:
//   * the serial batch is timed untraced and traced (min of 3 smoke or 6
//     full samples each) and the tracing overhead must stay under
//     --obs-overhead-limit percent (default 2%) on the full 24-job batch
//     — the "<2% when enabled" contract is verified by the bench itself,
//     not asserted;
//   * --budgets=FILE checks the measured smoke per-stage ms_per_run
//     against the checked-in latency-budget table (scripts/
//     latency_budgets.txt) and exits non-zero on any breach;
//   * --check-budgets=BENCH.json re-checks an existing bench JSON against
//     --budgets without re-running anything (the ci.sh self-test uses
//     this to prove the gate actually fails);
//   * --trace=FILE exports the traced runs as Chrome trace-event JSON.
// Every run also times the pla-check stage's exhaustive check against the
// interpreted replay oracle on the same designs, so its speedup stays
// measured against the engine it replaced.
//
// The bench also measures the warm-compile path: --cache-dir=DIR runs the
// same batch against an on-disk store (cold when DIR is empty, warm when a
// prior run — or a prior *process*, the case ci.sh drives — left a store
// behind). Emitted as the "persist" block in the JSON; a preloaded
// (second-process) run must serve every job from the store, byte-identical
// to the cache-less batch, or the bench exits non-zero.
// compile_many serves a batch's repeated jobs from its result cache, so a
// batch's per-stage profile holds one cold run per design; the stage_ms
// rows and the budgets read the mean over every untraced serial batch.
// --artifacts=FILE writes one deterministic line per job (content hashes,
// no wall clocks) for byte-identity diffs across processes.
// Flags: --json=PATH (default BENCH_compile.json), --smoke (fewer batch
// repetitions, skip the google-benchmark microbenches, report tracing
// overhead without gating it — a 8-job smoke batch is inside the noise
// floor), --trace=FILE, --budgets=FILE, --check-budgets=JSON,
// --obs-overhead-limit=PCT, --cache-dir=DIR, --artifacts=FILE.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/compiler.hpp"
#include "core/incremental_session.hpp"
#include "design_sources.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "obs/obs.hpp"
#include "store/store.hpp"
#include "synth/synth.hpp"

namespace {

const std::string kBehavioralCounter = silc_fixtures::counter_source(3);

// The equivalent design expressed structurally: the designer instantiates
// and places generators themselves (shift-register state + hand-wired
// increment is impractical by hand, so the honest structural equivalent is
// a ripple of toggle stages built from cells — more designer text, more
// designer knowledge, no behavioral verification for free).
const char* kStructuralCounter = R"(
  func toggle_bit(name) {
    -- master/slave stage pair wired as a toggle cell placeholder: the
    -- structural designer lays out stages and wiring explicitly.
    let c = cell(name);
    let s = shiftstage();
    place(c, s, 0, 0);
    place(c, s, 76, 0);
    return c;
  }
  let chip = cell("struct_counter");
  for b in 0 .. 2 { place(chip, toggle_bit("bit" + str(b)), 0, b * 90); }
  write_cif(chip);
  return chip;
)";

const char* kGray2 = silc_fixtures::kGray2Source;
const char* kTraffic = silc_fixtures::kTrafficSource;

void print_flow_table() {
  std::printf("=== E7a: behavioral vs structural flow on the same design ===\n");
  std::printf("%-12s %-12s %-12s %-10s %-12s %-10s\n", "flow", "input bytes",
              "area", "DRC", "verified", "transistors");

  silc::layout::Library lib;
  const auto b = silc::core::compile(lib, silc::core::Flow::Behavioral,
                                     kBehavioralCounter,
                                     {.name = "beh", .verify_cycles = 16});
  std::printf("%-12s %-12zu %-12lld %-10s %-12s %-10zu\n", "behavioral",
              std::string(kBehavioralCounter).size(),
              static_cast<long long>(b.stats.area()),
              b.drc.ok() ? "clean" : "FAIL", b.verified ? "yes" : "no",
              b.transistors);

  const auto s = silc::core::compile(lib, silc::core::Flow::Structural,
                                     kStructuralCounter);
  const auto sbb = s.chip != nullptr ? s.chip->bbox() : silc::geom::Rect{};
  std::printf("%-12s %-12zu %-12lld %-10s %-12s %-10zu\n", "structural",
              std::string(kStructuralCounter).size(),
              static_cast<long long>(sbb.area()),
              s.drc.ok() ? "clean" : "FAIL", "manual", s.transistors);
  std::printf("(structural: less tooling between designer and silicon; "
              "behavioral: automatic verification and feedback wiring)\n\n");
}

void print_encoding_table() {
  std::printf("=== E7b: state-encoding ablation (8-state ring FSM) ===\n");
  std::printf("%-8s %-12s %-8s %-10s\n", "code", "state bits", "terms",
              "crosspoints");
  silc::synth::Fsm fsm;
  fsm.num_states = 8;
  fsm.num_inputs = 1;
  fsm.num_outputs = 1;
  fsm.next.assign(8, std::vector<int>(2));
  fsm.out.assign(8, std::vector<std::uint32_t>(2));
  for (int st = 0; st < 8; ++st) {
    fsm.next[static_cast<std::size_t>(st)][0] = st;
    fsm.next[static_cast<std::size_t>(st)][1] = (st + 1) % 8;
    fsm.out[static_cast<std::size_t>(st)][0] = st == 7 ? 1u : 0u;
    fsm.out[static_cast<std::size_t>(st)][1] = st == 7 ? 1u : 0u;
  }
  for (const auto enc : {silc::synth::Encoding::Binary,
                         silc::synth::Encoding::Gray,
                         silc::synth::Encoding::OneHot}) {
    const auto f = silc::synth::encode(fsm, enc);
    silc::layout::Library lib;
    const auto p = silc::pla::generate(lib, f, {.name = "enc"});
    const char* name = enc == silc::synth::Encoding::Binary ? "binary"
                       : enc == silc::synth::Encoding::Gray ? "gray"
                                                            : "one-hot";
    std::printf("%-8s %-12d %-8d %-10zu\n", name,
                silc::synth::bits_for(8, enc), p.stats.num_terms,
                p.stats.crosspoints);
  }
  std::printf("\n");
}

// --------------------------------------------- compile pipeline tracking --

silc::core::CompileOptions bench_verify(const std::string& name) {
  silc::core::CompileOptions o;
  o.name = name;
  o.verify_cycles = 16;
  return o;
}

std::vector<silc::core::BatchJob> one_rep() {
  using silc::core::BatchJob;
  using silc::core::Flow;
  std::vector<BatchJob> jobs;
  jobs.push_back({Flow::Behavioral, kBehavioralCounter,
                  bench_verify("counter3")});
  jobs.push_back({Flow::Behavioral, kGray2, bench_verify("gray2")});
  jobs.push_back({Flow::Behavioral, kTraffic, bench_verify("traffic")});
  jobs.push_back({Flow::Structural, kStructuralCounter,
                  silc::core::CompileOptions{.name = "struct_counter"}});
  return jobs;
}

std::vector<silc::core::BatchJob> bench_jobs(int repetitions) {
  std::vector<silc::core::BatchJob> jobs;
  for (int r = 0; r < repetitions; ++r) {
    for (const silc::core::BatchJob& j : one_rep()) jobs.push_back(j);
  }
  return jobs;
}

bool same_results(const silc::core::BatchResult& a,
                  const silc::core::BatchResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (!a.results[i].same_outcome(b.results[i])) return false;
  }
  return true;
}

/// Per-stage (stage, ms_per_run) pairs of a profile — the shape the
/// budget checker consumes.
std::vector<std::pair<std::string, double>> profile_ms(
    const std::vector<silc::core::StageProfile>& profile) {
  std::vector<std::pair<std::string, double>> sm;
  for (const silc::core::StageProfile& s : profile) {
    sm.emplace_back(s.stage, s.runs > 0 ? s.total_ms / s.runs : 0.0);
  }
  return sm;
}

/// Serial-batch wall clocks with the tracer off vs on: `reps` samples of
/// each, interleaved in alternating order (U-T, T-U, U-T, ...) so slow
/// machine drift biases neither side, min-of-N against scheduler noise.
/// Each sample times `laps` back-to-back batches and reports the per-batch
/// mean: the 24-job batch takes only ~100 ms, where a 2% overhead (~2 ms)
/// sits inside one scheduler tick — stretching the measured work keeps
/// the contract resolvable instead of gating on jitter. The first untraced
/// batch's BatchResult is kept — results are deterministic, so any rep
/// would do. The stage profile sums every untraced batch: a batch compiles
/// each distinct design once and serves its repeats, so one batch holds a
/// single cold run per design, and the budgets read the mean over all of
/// them. The traced minimum stays 0 when the obs layer is compiled out.
struct SerialWalls {
  double untraced_ms = 0;
  double traced_ms = 0;
  std::vector<silc::core::StageProfile> profile;
};

/// Mean wall clock of `laps` back-to-back untraced batches at `threads`;
/// the first batch's result goes to `keep` and every batch's stage profile
/// adds into `profile`, each when non-null.
double mean_batch_ms(const std::vector<silc::core::BatchJob>& jobs,
                     int threads, int laps, silc::core::BatchResult* keep,
                     std::vector<silc::core::StageProfile>* profile) {
  double ms = 0;
  for (int l = 0; l < laps; ++l) {
    silc::core::BatchResult br = silc::core::compile_many(jobs, threads);
    ms += br.wall_ms;
    for (const silc::core::StageProfile& s : br.profile) {
      if (profile == nullptr) break;
      const auto it =
          std::find_if(profile->begin(), profile->end(),
                       [&](const auto& p) { return p.stage == s.stage; });
      if (it == profile->end()) {
        profile->push_back(s);
      } else {
        it->runs += s.runs;
        it->total_ms += s.total_ms;
      }
    }
    if (l == 0 && keep != nullptr) *keep = std::move(br);
  }
  return ms / laps;
}

SerialWalls serial_walls(const std::vector<silc::core::BatchJob>& jobs,
                         int reps, int laps, silc::core::BatchResult* keep) {
  SerialWalls w;
  const auto untraced = [&](int r) {
    const double ms =
        mean_batch_ms(jobs, 1, laps, r == 0 ? keep : nullptr, &w.profile);
    w.untraced_ms = r == 0 ? ms : std::min(w.untraced_ms, ms);
  };
  const auto traced = [&](int r) {
    if (!silc::obs::kEnabled) return;
    double ms = 0;
    for (int l = 0; l < laps; ++l) {
      silc::obs::Tracer::global().enable(1u << 16);
      const silc::core::BatchResult br = silc::core::compile_many(jobs, 1);
      silc::obs::Tracer::global().disable();
      ms += br.wall_ms;
    }
    ms /= laps;
    w.traced_ms = r == 0 ? ms : std::min(w.traced_ms, ms);
  };
  for (int r = 0; r < reps; ++r) {
    if (r % 2 == 0) {
      untraced(r);
      traced(r);
    } else {
      traced(r);
      untraced(r);
    }
  }
  return w;
}

/// Re-check an existing bench JSON's stage_ms rows against a budget table
/// without re-running anything — the ci.sh busted-budget self-test drives
/// this to prove the gate fails when it must.
int check_budgets_file(const std::string& json_path,
                       const std::string& budgets_path) {
  std::ifstream in(json_path);
  if (!in) {
    std::printf("ERROR: cannot read %s\n", json_path.c_str());
    return 1;
  }
  std::vector<std::pair<std::string, double>> sm;
  std::string line;
  while (std::getline(in, line)) {
    const auto sp = line.find("\"stage\": \"");
    if (sp == std::string::npos) continue;
    const auto sb = sp + 10;
    const auto se = line.find('"', sb);
    const auto mp = line.find("\"ms_per_run\": ");
    if (se == std::string::npos || mp == std::string::npos) continue;
    sm.emplace_back(line.substr(sb, se - sb),
                    std::strtod(line.c_str() + mp + 14, nullptr));
  }
  if (sm.empty()) {
    std::printf("ERROR: no stage_ms rows found in %s\n", json_path.c_str());
    return 1;
  }
  std::string err;
  const auto table = silc::obs::load_budgets(budgets_path, &err);
  if (!table) {
    std::printf("ERROR: %s\n", err.c_str());
    return 1;
  }
  const auto verdicts = silc::obs::check_budgets(*table, sm);
  std::printf("=== latency budgets: %s vs %s ===\n%s", json_path.c_str(),
              budgets_path.c_str(),
              silc::obs::budget_report(verdicts).c_str());
  if (!silc::obs::budgets_ok(verdicts)) {
    std::printf("ERROR: latency budget breached\n");
    return 1;
  }
  return 0;
}

// -------------------------------------------------- persistent-store leg --

double stage_total_ms(const silc::core::BatchResult& br, const char* stage) {
  for (const silc::core::StageProfile& s : br.profile) {
    if (s.stage == stage) return s.total_ms;
  }
  return 0.0;
}

double stage_per_run_ms(const silc::core::BatchResult& br, const char* stage) {
  for (const silc::core::StageProfile& s : br.profile) {
    if (s.stage == stage) return s.runs > 0 ? s.total_ms / s.runs : 0.0;
  }
  return 0.0;
}

/// The --cache-dir measurement: the batch against the on-disk store.
struct PersistReport {
  bool active = false;
  bool preloaded = false;  // a store file existed before this run
  silc::core::BatchResult batch;
  double warm_drc_extract_ms = 0;  // drc+extract totals under the store
  double cold_drc_extract_ms = 0;  // same totals from the store-less run
  bool identical = true;  // the batch matched the store-less results
};

PersistReport measure_persist(const std::vector<silc::core::BatchJob>& jobs,
                              const std::string& cache_dir,
                              const silc::core::BatchResult& cacheless) {
  using silc::core::BatchJob;
  PersistReport p;
  p.active = true;
  const std::string store_path = cache_dir + "/silc.store";
  p.preloaded = std::ifstream(store_path, std::ios::binary).good();

  std::vector<BatchJob> cached = jobs;
  cached[0].options.cache_dir = cache_dir;
  p.batch = silc::core::compile_many(cached, 1);
  p.warm_drc_extract_ms =
      stage_total_ms(p.batch, "drc") + stage_total_ms(p.batch, "extract");
  p.cold_drc_extract_ms =
      stage_total_ms(cacheless, "drc") + stage_total_ms(cacheless, "extract");
  p.identical = same_results(p.batch, cacheless);
  for (const silc::core::Diag& d : p.batch.store_diags) {
    std::printf("store warning: %s\n", d.message.c_str());
  }

  return p;
}

/// One deterministic line per job — content hashes and counts only, no
/// wall clocks and no from_cache marker — so two processes compiling the
/// same batch (one cold, one store-warm) must produce byte-identical
/// files. The ci.sh persistence leg diffs them.
bool write_artifacts(const std::string& path,
                     const std::vector<silc::core::BatchJob>& jobs,
                     const silc::core::BatchResult& br) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < br.results.size(); ++i) {
    const silc::core::CompileResult& r = br.results[i];
    std::fprintf(f,
                 "%s ok=%d verified=%d transistors=%zu rects=%zu "
                 "cif_bytes=%zu cif_fnv=%016llx verify_fnv=%016llx "
                 "diags=%zu\n",
                 jobs[i].options.name.c_str(), r.ok() ? 1 : 0,
                 r.verified ? 1 : 0, r.transistors, r.rect_count,
                 r.cif.size(),
                 static_cast<unsigned long long>(silc::store::fnv1a(r.cif)),
                 static_cast<unsigned long long>(
                     silc::store::fnv1a(r.verify_detail)),
                 r.diags.size());
  }
  std::fclose(f);
  return true;
}

struct PlaModeMs {
  const char* name;
  double ms_per_run;
};

/// pla-check cost per engine, so the JSON keeps the exhaustive engine's
/// win visible against the replay oracle. Exhaustive is the pipeline stage
/// itself, read from the serial batch's profile; the pipeline never runs
/// replay, so it is timed directly on each behavioral design's programmed
/// personality, at the 64 cycles x every lane the suite once verified
/// with.
std::vector<PlaModeMs> measure_pla_modes(const silc::core::BatchResult& serial,
                                         int reps) {
  using silc::sim::PlaCheckMode;
  double replay_ms = 0;
  int runs = 0;
  for (const silc::core::BatchJob& job : bench_jobs(reps)) {
    if (job.flow != silc::core::Flow::Behavioral) continue;
    silc::layout::Library lib;
    silc::core::CompileOptions o = job.options;
    o.stop_after = "assemble";
    silc::core::DesignDB db(lib, job.flow, job.source, o);
    if (!silc::core::Pipeline::behavioral().run(db)) continue;
    const auto t0 = std::chrono::steady_clock::now();
    (void)silc::sim::check_pla(*db.design, *db.fsm,
                               db.assembled->personality, 64, /*lanes=*/0,
                               /*seed=*/2u, {}, PlaCheckMode::Replay);
    replay_ms += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    ++runs;
  }
  return {{silc::sim::to_string(PlaCheckMode::Exhaustive),
           stage_per_run_ms(serial, "pla-check")},
          {silc::sim::to_string(PlaCheckMode::Replay),
           runs > 0 ? replay_ms / runs : 0.0}};
}

/// The incremental-recompilation measurement (PR 10): edit-to-verdict on
/// the enable-gated 12-bit counter — the same design and contract
/// bench_incremental owns, recorded here so BENCH_compile.json carries
/// the `incr` block next to the batch/persist numbers CI tracks. Cold is
/// a full batch recompile (what every edit costs without
/// incrementality); the edit leg nudges the smallest leaf cell one step
/// further each rep (cumulative, so no rep replays a cached top) and
/// re-verifies through a warm IncrementalSession. The
/// per-stage times feed the drc.incr/extract.incr latency-budget rows.
struct IncrMeasure {
  bool active = false;
  double cold_ms = 0;         // full batch recompile, best of samples
  double drc_incr_ms = 0;     // avg per edited verify — drc.incr budget
  double extract_incr_ms = 0; // avg — extract.incr budget
  double noop_ms = 0;
  std::size_t cells_reused = 0;
  bool identical = true;    // every edited verdict == scratch flat
  bool noop_reused = true;  // the no-op verify hit the verbatim path
  [[nodiscard]] double edit_ms() const { return drc_incr_ms + extract_incr_ms; }
  [[nodiscard]] double speedup() const {
    return cold_ms / std::max(edit_ms(), 1e-6);
  }
};

constexpr double kIncrSpeedupFloor = 10.0;

IncrMeasure measure_incr(bool smoke) {
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  IncrMeasure m;
  const std::string source = silc_fixtures::counter_source(12);
  const int cold_samples = smoke ? 1 : 2;
  const int reps = smoke ? 3 : 6;

  for (int i = 0; i < cold_samples; ++i) {
    silc::layout::Library scratch_lib;
    const auto t0 = Clock::now();
    const auto cr = silc::core::compile(
        scratch_lib, silc::core::Flow::Behavioral, source, {});
    const double t = ms_since(t0);
    if (cr.chip == nullptr) return m;  // inactive: design failed
    if (i == 0 || t < m.cold_ms) m.cold_ms = t;
  }

  silc::layout::Library lib;
  silc::core::CompileOptions o;
  o.stop_after = "assemble";
  const auto r =
      silc::core::compile(lib, silc::core::Flow::Behavioral, source, o);
  if (r.chip == nullptr) return m;
  silc::layout::Cell& top = *lib.find(r.chip->name());
  silc::layout::Cell* victim = nullptr;
  for (const silc::layout::Cell* c : silc::layout::dependency_order(top)) {
    if (c == &top || c->shapes().empty()) continue;
    if (victim == nullptr || c->shapes().size() < victim->shapes().size()) {
      victim = lib.find(c->name());
    }
  }
  if (victim == nullptr) return m;
  m.active = true;

  silc::core::IncrementalSession sess;
  (void)sess.verify(lib, top);  // baseline
  const auto nudge = [&] {
    const silc::layout::Shape s = victim->shapes()[0];
    silc::layout::Shape moved = s;
    moved.rect = {s.rect.x0 + 2, s.rect.y0, s.rect.x1 + 2, s.rect.y1};
    victim->set_shape(0, moved);
    return sess.verify(lib, top);
  };
  // One untimed nudge first: the first edit pays once for normalizing and
  // labelling the baseline's layer table, which is not a per-edit cost.
  (void)nudge();
  for (int rep = 0; rep < reps; ++rep) {
    const silc::core::IncrVerdict edited = nudge();
    m.drc_incr_ms += edited.drc_ms;
    m.extract_incr_ms += edited.extract_ms;
    m.cells_reused += edited.cells_reused();

    const auto t0 = Clock::now();
    const silc::core::IncrVerdict noop = sess.verify(lib, top);
    m.noop_ms += ms_since(t0);
    m.noop_reused = m.noop_reused &&
                    noop.drc_stats.path == silc::core::IncrPath::Verbatim &&
                    noop.extract_stats.path == silc::core::IncrPath::Verbatim;

    const silc::drc::Result scratch =
        silc::drc::check_flat(silc::layout::flatten(top));
    m.identical = m.identical && edited.drc.violations == scratch.violations &&
                  edited.netlist == silc::extract::extract(top);
  }
  m.drc_incr_ms /= reps;
  m.extract_incr_ms /= reps;
  m.noop_ms /= reps;
  return m;
}

/// Measure the compile pipeline, print the table, emit JSON. Returns 0 on
/// success, 1 when a design failed, thread counts disagreed, tracing cost
/// more than its limit on the full batch, or a latency budget broke.
int run_suite(const std::string& json_path, bool smoke,
              const std::string& trace_path, const std::string& budgets_path,
              double overhead_limit, const std::string& cache_dir,
              const std::string& artifacts_path) {
  using silc::core::BatchResult;
  using silc::core::compile_many;

  const int reps = smoke ? 2 : 6;
  // Full runs gate the tracing-overhead contract, so they sample harder:
  // each wall sample covers 4 consecutive batches (~400 ms of work) and
  // the min is taken over 6 samples per leg. The 24-job batch takes
  // only ~100 ms, where 2% (~2 ms) sits inside one scheduler tick — a
  // min-of-3 of single batches reads pure jitter as a contract breach.
  const int walls = smoke ? 3 : 6;
  const int laps = smoke ? 1 : 4;
  const std::vector<silc::core::BatchJob> designs = one_rep();
  const std::vector<silc::core::BatchJob> jobs = bench_jobs(reps);
  const unsigned hw = std::thread::hardware_concurrency();
  const int many = static_cast<int>(hw > 1 ? hw : 2);

  std::printf("=== compile pipeline: %zu jobs (%zu designs x %d reps) ===\n",
              jobs.size(), designs.size(), reps);
  BatchResult serial;
  const SerialWalls wallclocks = serial_walls(jobs, walls, laps, &serial);
  const double untraced_ms = wallclocks.untraced_ms;
  const double traced_ms = wallclocks.traced_ms;

  // The N-thread leg is timed like the serial one: untraced, the min over
  // the same samples of the mean over the same laps.
  double parallel_ms = 0;
  for (int r = 0; r < walls; ++r) {
    const double ms = mean_batch_ms(jobs, many, laps, nullptr, nullptr);
    parallel_ms = r == 0 ? ms : std::min(parallel_ms, ms);
  }
  // One more parallel batch runs traced, only for the exported timeline
  // of the crew and the identity check (each enable() restarts the trace:
  // the export holds exactly this batch).
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  if (silc::obs::kEnabled) silc::obs::Tracer::global().enable(1u << 16);
  const BatchResult parallel = compile_many(jobs, many);
  if (silc::obs::kEnabled) {
    silc::obs::Tracer::global().disable();
    trace_events = silc::obs::Tracer::global().total_events();
    trace_dropped = silc::obs::Tracer::global().dropped_events();
  }
  if (!trace_path.empty()) {
    if (silc::obs::write_chrome_trace(trace_path)) {
      std::printf("wrote %s (%llu events, %llu dropped)\n", trace_path.c_str(),
                  static_cast<unsigned long long>(trace_events),
                  static_cast<unsigned long long>(trace_dropped));
    } else {
      std::printf("ERROR: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  const double overhead_pct =
      silc::obs::kEnabled && untraced_ms > 0
          ? 100.0 * (traced_ms - untraced_ms) / untraced_ms
          : 0.0;

  const bool identical = same_results(serial, parallel);
  const bool all_ok = serial.ok_count() == jobs.size();

  PersistReport persist;
  if (!cache_dir.empty()) {
    persist = measure_persist(jobs, cache_dir, serial);
    // A result-tier warm run skips the stages entirely (0 ms); clamp so
    // the printed ratio stays finite.
    const double speedup = persist.cold_drc_extract_ms /
                           std::max(persist.warm_drc_extract_ms, 0.01);
    std::printf(
        "persist: %s store, %llu hits / %llu misses, drc+extract "
        "%.2f ms cold vs %.2f ms warm (%.1fx), store %llu bytes, "
        "load %.1f ms, save %.1f ms\n",
        persist.preloaded ? "preloaded" : "cold",
        static_cast<unsigned long long>(persist.batch.store.hits),
        static_cast<unsigned long long>(persist.batch.store.misses),
        persist.cold_drc_extract_ms, persist.warm_drc_extract_ms, speedup,
        static_cast<unsigned long long>(persist.batch.store.file_bytes),
        persist.batch.store.load_ms, persist.batch.store.save_ms);
  }
  if (!artifacts_path.empty()) {
    const silc::core::BatchResult& dump =
        persist.active ? persist.batch : serial;
    if (!write_artifacts(artifacts_path, jobs, dump)) {
      std::printf("ERROR: cannot write %s\n", artifacts_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", artifacts_path.c_str());
  }

  // The incremental edit-to-verdict leg: only on the primary
  // configuration — the persist CI legs re-run this suite and would pay
  // the counter12 cold compile again for numbers that cannot change with
  // their flags.
  IncrMeasure incr;
  if (cache_dir.empty()) {
    incr = measure_incr(smoke);
    if (!incr.active) {
      std::printf("ERROR: incremental leg could not assemble counter12\n");
      return 1;
    }
    std::printf(
        "incr: counter12 cold compile %.1f ms vs one-cell edit %.2f ms "
        "(drc %.2f + extract %.2f, %.1fx, floor %.0fx), no-op %.3f ms, "
        "%zu cells reused, scratch %s\n",
        incr.cold_ms, incr.edit_ms(), incr.drc_incr_ms, incr.extract_incr_ms,
        incr.speedup(), kIncrSpeedupFloor, incr.noop_ms, incr.cells_reused,
        incr.identical ? "identical" : "DIVERGED");
  }

  silc::core::BatchResult profiled;  // the summed profile, for its table
  profiled.profile = wallclocks.profile;
  std::printf("%s", profiled.profile_text().c_str());
  const std::vector<PlaModeMs> pla_modes =
      measure_pla_modes(serial, smoke ? 1 : reps);
  std::printf("pla-check per engine:");
  for (const PlaModeMs& m : pla_modes) {
    std::printf("  %s %.3f ms/run", m.name, m.ms_per_run);
  }
  std::printf("\n");
  const double serial_dps = 1000.0 * static_cast<double>(jobs.size()) /
                            untraced_ms;
  const double parallel_dps = 1000.0 * static_cast<double>(jobs.size()) /
                              parallel_ms;
  std::printf("batch: %7.2f designs/sec at 1 thread, %7.2f at %d threads "
              "(results %s)\n",
              serial_dps, parallel_dps, parallel.threads,
              identical ? "identical" : "DIVERGED");
  if (silc::obs::kEnabled) {
    std::printf("obs: traced %.1f ms vs untraced %.1f ms serial "
                "(min of %d, %d batch%s/sample) = %+.2f%% overhead%s\n\n",
                traced_ms, untraced_ms, walls, laps, laps == 1 ? "" : "es",
                overhead_pct,
                smoke ? " (smoke: reported, not gated)" : "");
  } else {
    std::printf("obs: compiled out (SILC_OBS=OFF)\n\n");
  }

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("ERROR: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"designs\": [");
  for (std::size_t i = 0; i < designs.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "",
                 designs[i].options.name.c_str());
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"jobs\": %zu,\n", jobs.size());
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hw);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"stage_ms\": [\n");
  const std::vector<silc::core::StageProfile>& profile = wallclocks.profile;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const silc::core::StageProfile& s = profile[i];
    std::fprintf(f,
                 "    {\"stage\": \"%s\", \"runs\": %d, \"total_ms\": %.2f, "
                 "\"ms_per_run\": %.3f}%s\n",
                 s.stage.c_str(), s.runs, s.total_ms,
                 s.runs > 0 ? s.total_ms / s.runs : 0.0,
                 i + 1 < profile.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f, "  \"pla_check_mode\": \"%s\",\n",
      silc::sim::to_string(silc::core::CompileOptions::pla_check_mode));
  std::fprintf(f, "  \"pla_check_mode_ms\": [");
  for (std::size_t i = 0; i < pla_modes.size(); ++i) {
    std::fprintf(f, "%s{\"mode\": \"%s\", \"ms_per_run\": %.3f}",
                 i > 0 ? ", " : "", pla_modes[i].name,
                 pla_modes[i].ms_per_run);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"batch\": [\n");
  std::fprintf(f,
               "    {\"threads\": 1, \"wall_ms\": %.1f, "
               "\"designs_per_sec\": %.2f},\n",
               untraced_ms, serial_dps);
  std::fprintf(f,
               "    {\"threads\": %d, \"wall_ms\": %.1f, "
               "\"designs_per_sec\": %.2f}\n",
               parallel.threads, parallel_ms, parallel_dps);
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"obs\": {\"enabled\": %s, \"untraced_wall_ms\": %.1f, "
               "\"traced_wall_ms\": %.1f, \"trace_overhead_pct\": %.2f, "
               "\"overhead_limit_pct\": %.2f, \"trace_events\": %llu, "
               "\"trace_dropped\": %llu},\n",
               silc::obs::kEnabled ? "true" : "false", untraced_ms, traced_ms,
               overhead_pct, overhead_limit,
               static_cast<unsigned long long>(trace_events),
               static_cast<unsigned long long>(trace_dropped));
  if (persist.active) {
    const double warm_dps = persist.batch.wall_ms > 0
                                ? 1000.0 * static_cast<double>(jobs.size()) /
                                      persist.batch.wall_ms
                                : 0.0;
    std::fprintf(
        f,
        "  \"persist\": {\"preloaded\": %s, \"store_hits\": %llu, "
        "\"store_misses\": %llu, \"store_poisoned\": %llu, "
        "\"loaded_records\": %llu, \"file_bytes\": %llu, "
        "\"load_ms\": %.2f, \"save_ms\": %.2f, "
        "\"cold_drc_extract_ms\": %.2f, \"warm_drc_extract_ms\": %.2f, "
        "\"cold_designs_per_sec\": %.2f, \"warm_designs_per_sec\": %.2f, "
        "\"identical_to_cacheless\": %s},\n",
        persist.preloaded ? "true" : "false",
        static_cast<unsigned long long>(persist.batch.store.hits),
        static_cast<unsigned long long>(persist.batch.store.misses),
        static_cast<unsigned long long>(persist.batch.store.poisoned),
        static_cast<unsigned long long>(persist.batch.store.loaded_records),
        static_cast<unsigned long long>(persist.batch.store.file_bytes),
        persist.batch.store.load_ms, persist.batch.store.save_ms,
        persist.cold_drc_extract_ms, persist.warm_drc_extract_ms, serial_dps, warm_dps, persist.identical ? "true" : "false");
  }
  if (incr.active) {
    std::fprintf(
        f,
        "  \"incr\": {\"design\": \"counter12\", \"cold_ms\": %.1f, "
        "\"edit_ms\": %.3f, \"drc_incr_ms\": %.3f, "
        "\"extract_incr_ms\": %.3f, \"noop_ms\": %.4f, "
        "\"speedup\": %.1f, \"speedup_floor\": %.1f, "
        "\"cells_reused\": %zu, \"identical\": %s, \"noop_reused\": %s},\n",
        incr.cold_ms, incr.edit_ms(), incr.drc_incr_ms, incr.extract_incr_ms,
        incr.noop_ms, incr.speedup(), kIncrSpeedupFloor, incr.cells_reused,
        incr.identical ? "true" : "false",
        incr.noop_reused ? "true" : "false");
  }
  std::fprintf(f, "  \"ok\": %zu,\n", serial.ok_count());
  std::fprintf(f, "  \"identical_across_threads\": %s\n",
               identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n\n", json_path.c_str());

  int rc = 0;
  if (!all_ok) {
    std::printf("ERROR: %zu/%zu designs failed to compile clean\n",
                jobs.size() - serial.ok_count(), jobs.size());
    rc = 1;
  }
  if (!identical) {
    std::printf("ERROR: batch results differ between 1 and %d threads\n",
                parallel.threads);
    rc = 1;
  }
  // The <2% tracing-overhead contract, enforced on the full 24-job batch
  // (the smoke batch is too small to measure 2% against scheduler noise).
  if (!smoke && silc::obs::kEnabled && overhead_pct > overhead_limit) {
    std::printf("ERROR: tracing overhead %.2f%% exceeds %.2f%% limit\n",
                overhead_pct, overhead_limit);
    rc = 1;
  }
  if (persist.active) {
    if (!persist.identical) {
      std::printf("ERROR: store-served results differ from cache-less\n");
      rc = 1;
    }
    if (persist.preloaded && persist.batch.store.poisoned == 0) {
      // The second-process contract: a cleanly loaded store serves every
      // job (so the warm run runs no stage at all). A poisoned store is
      // exempt — its contract is the graceful cold start, which
      // `identical` above already proved.
      if (persist.batch.store.hits < jobs.size()) {
        std::printf("ERROR: warm run served %llu/%zu jobs from the store\n",
                    static_cast<unsigned long long>(persist.batch.store.hits),
                    jobs.size());
        rc = 1;
      }
    }
  }
  if (incr.active) {
    if (!incr.identical) {
      std::printf("ERROR: incremental verdicts diverged from scratch\n");
      rc = 1;
    }
    if (!incr.noop_reused) {
      std::printf("ERROR: the no-op verify did not reuse its baseline\n");
      rc = 1;
    }
    if (incr.cells_reused == 0) {
      std::printf("ERROR: the edited verify reused no cells\n");
      rc = 1;
    }
    if (incr.speedup() < kIncrSpeedupFloor) {
      std::printf("ERROR: one-cell edit %.2f ms is not %.0fx under cold "
                  "compile %.1f ms (%.1fx)\n",
                  incr.edit_ms(), kIncrSpeedupFloor, incr.cold_ms,
                  incr.speedup());
      rc = 1;
    }
  }
  if (!budgets_path.empty()) {
    std::string err;
    const auto table = silc::obs::load_budgets(budgets_path, &err);
    if (!table) {
      std::printf("ERROR: %s\n", err.c_str());
      return 1;
    }
    std::vector<std::pair<std::string, double>> sm =
        profile_ms(wallclocks.profile);
    // The incremental edit path is budgeted like any pipeline stage: a
    // regression that makes an "incremental" verify quietly re-prove the
    // chip breaks the latency gate, not just the speedup floor.
    if (incr.active) {
      sm.emplace_back("drc.incr", incr.drc_incr_ms);
      sm.emplace_back("extract.incr", incr.extract_incr_ms);
    }
    const auto verdicts = silc::obs::check_budgets(*table, sm);
    std::printf("=== latency budgets (%s) ===\n%s", budgets_path.c_str(),
                silc::obs::budget_report(verdicts).c_str());
    if (!silc::obs::budgets_ok(verdicts)) {
      std::printf("ERROR: latency budget breached\n");
      rc = 1;
    }
  }
  return rc;
}

void BM_BehavioralFlow(benchmark::State& state) {
  for (auto _ : state) {
    silc::layout::Library lib;
    benchmark::DoNotOptimize(silc::core::compile(
        lib, silc::core::Flow::Behavioral, kBehavioralCounter,
        {.stop_after = "extract", .skip = {"drc"}}));
  }
}
BENCHMARK(BM_BehavioralFlow);

void BM_StructuralFlow(benchmark::State& state) {
  for (auto _ : state) {
    silc::layout::Library lib;
    benchmark::DoNotOptimize(silc::core::compile(
        lib, silc::core::Flow::Structural, kStructuralCounter,
        {.skip = {"drc"}}));
  }
}
BENCHMARK(BM_StructuralFlow);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_compile.json";
  std::string trace_path;
  std::string budgets_path;
  std::string check_budgets_path;
  std::string cache_dir;
  std::string artifacts_path;
  double overhead_limit = 2.0;
  bool smoke = false;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    else if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
    else if (std::strncmp(argv[i], "--budgets=", 10) == 0)
      budgets_path = argv[i] + 10;
    else if (std::strncmp(argv[i], "--check-budgets=", 16) == 0)
      check_budgets_path = argv[i] + 16;
    else if (std::strncmp(argv[i], "--obs-overhead-limit=", 21) == 0)
      overhead_limit = std::strtod(argv[i] + 21, nullptr);
    else if (std::strncmp(argv[i], "--cache-dir=", 12) == 0)
      cache_dir = argv[i] + 12;
    else if (std::strncmp(argv[i], "--artifacts=", 12) == 0)
      artifacts_path = argv[i] + 12;
    else if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else passthrough.push_back(argv[i]);
  }
  if (!check_budgets_path.empty()) {
    // Pure re-check of an existing bench JSON: no compiling, no benching.
    if (budgets_path.empty()) {
      std::printf("ERROR: --check-budgets requires --budgets=FILE\n");
      return 1;
    }
    return check_budgets_file(check_budgets_path, budgets_path);
  }
  print_flow_table();
  print_encoding_table();
  const int rc = run_suite(json_path, smoke, trace_path, budgets_path,
                           overhead_limit, cache_dir, artifacts_path);
  if (!smoke) {
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    benchmark::RunSpecifiedBenchmarks();
  }
  return rc;
}
