// The staged compile pipeline: an explicit, instrumented, resumable
// rendering of the paper's thesis — text in, verified layout out.
//
// Three pieces, layered:
//
//   * DesignDB — the per-design artifact store. Each stage's product
//     (parsed rtl::Design, synth::TabulatedFsm, assembled chip +
//     programmed personality, CIF text, drc::Result, extract::Netlist,
//     verification reports) lives here exactly once, with
//     compute-once/lookup-later accessors for the expensive shared
//     artifacts: the chip is extracted once for both the transistor count
//     and the artwork check. DRC and extraction run through
//     drc::check_hier and extract::extract_hier with no cache (each
//     flattens the chip and runs its flat engine once); only when that
//     fails does the stage fall back to the flat engine directly, and both
//     fallbacks share one flatten of the chip.
//     Callers that want the flat engines call drc::check_flat and
//     extract::extract_flat directly. The DB also carries the structured
//     diagnostics stream and the per-stage wall-clock timings.
//
//   * Pipeline — an ordered list of named Stages over a DesignDB. The
//     standard flows are Pipeline::behavioral() (parse -> tabulate ->
//     assemble -> cif -> drc -> extract -> gate-check -> pla-check ->
//     artwork-check) and Pipeline::structural() (parse -> cif -> drc ->
//     extract). Policy lives in CompileOptions: `stop_after` ends the run
//     after a named stage (partial artifacts remain in the DB), `skip`
//     drops stages by name. Every stage is timed; exceptions thrown by
//     lower layers (rtl::ParseError, lang::SilcError, net/assemble
//     runtime errors) are caught at the stage boundary and surfaced as
//     error diagnostics instead of crashing the caller. A stage returning
//     false stops the pipeline — the cheap gate-check failing skips the
//     expensive artwork run. The three verification stages each decide
//     one lowering: gate-check proves the bit-blasted gates equal to the
//     tabulated FSM over every minterm (sim::prove_gates), pla-check
//     proves the programmed NOR-NOR personality equal to it over the
//     whole care space (sim::check_pla), and artwork-check samples the
//     extracted transistors under the switch-level simulator.
//
//   * compile_many — the batch front end ("heavy traffic"): N independent
//     designs dispatched across a worker crew (an atomic cursor hands out
//     the next job), one layout::Library per design so jobs never share
//     mutable state. Its one cache tier is a core::ResultCache: the first
//     job of each fingerprint compiles, and every repeat of a clean result
//     is served from it. Results are deterministic and identical at any
//     thread count; the BatchResult aggregates a per-stage timing profile
//     across the compiled jobs.
//
// To add a stage: give it a name, append `p.stage("name", fn)` in the
// flow builder at the right point in the order, read your inputs from the
// DB (guard with an error diag when a prerequisite is missing), write
// your artifact back into the DB, and report through db.diags. Policy,
// timing, and exception capture come for free.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "assemble/assemble.hpp"
#include "core/cancel.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "lang/lang.hpp"
#include "layout/layout.hpp"
#include "obs/obs.hpp"
#include "rtl/rtl.hpp"
#include "sim/sim.hpp"
#include "synth/synth.hpp"

namespace silc::core {

// ------------------------------------------------------------ diagnostics --

/// Cancelled marks a compile cut short by CompileOptions::deadline_ms or
/// a CancelToken — structurally distinct from Error so a server can tell
/// "your design is broken" from "we ran out of time", but counted by
/// has_errors() so a cancelled compile is never ok().
enum class Severity : std::uint8_t { Note, Warning, Error, Cancelled };

[[nodiscard]] const char* to_string(Severity s);

/// One structured diagnostic: which stage said what, how seriously.
struct Diag {
  Severity severity = Severity::Note;
  std::string stage;
  std::string message;

  [[nodiscard]] std::string str() const;  // "error [drc] metal.width ..."
};

/// True when any diagnostic is an error (or a cancellation).
[[nodiscard]] bool has_errors(const std::vector<Diag>& diags);
/// All diagnostics rendered one per line (Diag::str() per entry).
[[nodiscard]] std::string render(const std::vector<Diag>& diags);

/// The ordered diagnostics a compile produced.
class DiagStream {
 public:
  void note(const std::string& stage, std::string message);
  void warning(const std::string& stage, std::string message);
  void error(const std::string& stage, std::string message);
  void cancelled(const std::string& stage, std::string message);

  [[nodiscard]] const std::vector<Diag>& all() const { return diags_; }
  [[nodiscard]] bool has_errors() const;
  [[nodiscard]] std::size_t count(Severity s) const;
  /// Every diagnostic, one per line (str() per entry).
  [[nodiscard]] std::string text() const;
  /// Messages of one stage's diagnostics joined with "; ".
  [[nodiscard]] std::string stage_text(const std::string& stage) const;

 private:
  std::vector<Diag> diags_;
};

// ---------------------------------------------------------------- policy --

enum class Flow : std::uint8_t { Behavioral, Structural };

[[nodiscard]] const char* to_string(Flow f);

struct CompileOptions {
  std::string name = "chip";
  /// Stage policy: run every stage not listed in `skip`, ending the run
  /// after the stage named by `stop_after` (empty = run to the end).
  /// Unknown stage names are diagnosed as errors, not ignored.
  std::string stop_after{};
  std::vector<std::string> skip{};
  int verify_cycles = 32;  // artwork-check: switch-level cycles on the
                           // extracted chip (slow, relaxation-based)
  /// The gate-check stage proves the gates against the tabulated FSM
  /// over every minterm (sim::prove_gates); it samples nothing. These
  /// size only the sampled oracle, sim::crosscheck (cycles per lane,
  /// behavioral stimulus lanes), which tests and benches run beside the
  /// stage; constants, not options, so no caller can set them.
  static constexpr int gate_verify_cycles = 512;
  static constexpr int gate_verify_lanes = 16;
  /// The pla-check stage's engine, fixed: the exhaustive check (see
  /// sim::PlaCheckMode) decides the programmed personality against the
  /// tabulated FSM on every minterm. If it throws, the stage fails with a
  /// structured error diag. The cycle count sizes only the sampling
  /// oracle, which the stage never runs; both are constants, not options,
  /// so no caller can set them.
  static constexpr sim::PlaCheckMode pla_check_mode =
      sim::PlaCheckMode::Exhaustive;
  static constexpr int pla_verify_cycles = 256;
  /// Threads for the compiled-simulator checks, fixed at 1: a
  /// sim::CompiledSim runs on the calling thread, so a compile's
  /// parallelism is across designs (compile_many), never inside one. A
  /// constant, not an option; perfbench still reads it.
  static constexpr int sim_threads = 1;
  /// Wall-clock budget for the whole compile (0 = none). When exceeded,
  /// the run stops at the next stage boundary or long-loop checkpoint
  /// (the DRC and extraction cache misses, sim eval cycles) and returns a
  /// CompileResult carrying a Severity::Cancelled diagnostic — promptly,
  /// never a hang, never a throw.
  int deadline_ms = 0;
  /// External kill switch (non-owning; must outlive the compile): cancel()
  /// it from any thread and the compile returns like a deadline miss.
  /// compile_many passes each job's token through, so a server can abort
  /// one job — or, by sharing a token, a whole batch.
  const CancelToken* cancel = nullptr;
  /// Directory of the persistent compile store ("" = none). compile()
  /// loads <cache_dir>/silc.store before running, consults its whole-result
  /// cache, and saves it back after; compile_many opens it once for the
  /// whole batch (the first job naming a cache_dir wins) — its result cache
  /// is loaded before the crew starts and saved after it joins. A missing
  /// file is a silent cold start; a corrupt/version-skewed one cold-starts
  /// with a warning diagnostic (see store/store.hpp). Never changes
  /// results — only how fast they arrive.
  std::string cache_dir{};
};

/// Wall-clock record of one stage slot in a run. Every stage of the flow
/// gets exactly one entry, always — stages dropped by `skip` carry
/// skipped == true, stages cut off by stop_after or an earlier failure
/// carry ran == false — so a run's timings are a complete account: the
/// ms of the ran entries sum to the pipeline wall clock (DesignDB /
/// CompileResult::pipeline_ms) minus policy-validation overhead.
struct StageTiming {
  std::string stage;
  double ms = 0;
  bool ran = false;
  bool ok = false;
  bool skipped = false;  // dropped by CompileOptions::skip
};

// ------------------------------------------------------------ artifact DB --

/// Everything the pipeline knows about one design. Stages read their
/// prerequisites from here and write their artifact back; the accessors at
/// the bottom compute the expensive shared artifacts at most once.
struct DesignDB {
  DesignDB(layout::Library& library, Flow f, std::string src,
           CompileOptions opts)
      : lib(&library),
        flow(f),
        source(std::move(src)),
        options(std::move(opts)) {}

  layout::Library* lib = nullptr;
  Flow flow = Flow::Behavioral;
  std::string source;
  CompileOptions options;

  // Stage artifacts, in pipeline order.
  std::optional<rtl::Design> design;               // parse (behavioral)
  std::optional<lang::RunResult> program;          // parse (structural)
  std::optional<synth::TabulatedFsm> fsm;          // tabulate
  std::optional<assemble::FsmChipResult> assembled;  // assemble
  layout::Cell* chip = nullptr;                    // assemble / parse
  std::optional<std::string> cif;                  // cif
  std::optional<drc::Result> drc;                  // drc
  std::optional<sim::GateProofReport> gate_check;    // gate-check
  std::optional<sim::PlaCheckReport> pla_check;      // pla-check
  bool artwork_ok = false;                         // artwork-check
  std::string artwork_detail;

  DiagStream diags;
  std::vector<StageTiming> timings;
  /// Total Pipeline::run wall clock (policy validation + every stage).
  double pipeline_ms = 0;

  /// Times the chip was actually flattened / extracted — the compile-once
  /// guarantee is testable: one full compile must leave both at <= 1.
  int flatten_runs = 0;
  int extract_runs = 0;

  /// Flattened geometry + labels of `chip`, computed on first use (the DRC
  /// and extraction flat fallbacks share one flatten). Requires
  /// chip != nullptr.
  [[nodiscard]] const layout::Flattened& flattened();
  /// Extracted transistor netlist of `chip`, computed on first use (the
  /// transistor count and the artwork check share one extraction):
  /// extract::extract_hier, falling back to extract_flat on a hier
  /// failure.
  [[nodiscard]] const extract::Netlist& netlist();
  [[nodiscard]] bool has_netlist() const { return netlist_.has_value(); }

  /// Per-cell fingerprint snapshot of the library under the NMOS rule set
  /// — the baseline an IncrementalSession (or any diff against a later
  /// compile) keys on. Cheap: a hash walk, not a compile.
  [[nodiscard]] LibrarySnapshot snapshot() const;

 private:
  std::optional<layout::Flattened> flat_;
  std::optional<extract::Netlist> netlist_;
};

// --------------------------------------------------------------- pipeline --

class Pipeline {
 public:
  /// A stage transforms the DB. Return false to stop the pipeline (later
  /// stages cannot or should not run — e.g. a failed equivalence check
  /// skips the artwork run). Findings that do not block later stages are
  /// reported through db.diags with the stage still returning true.
  using StageFn = std::function<bool(DesignDB&)>;

  Pipeline& stage(std::string name, StageFn fn);

  [[nodiscard]] std::vector<std::string> stage_names() const;
  [[nodiscard]] bool has_stage(const std::string& name) const;

  /// Run the stages in order under db.options' stop_after/skip policy.
  /// Each executed stage is wall-clock timed into db.timings (skipped or
  /// unreached slots are recorded with ran == false); any exception is
  /// caught at the stage boundary and becomes an error diagnostic. Returns
  /// true when every scheduled stage ran and succeeded.
  bool run(DesignDB& db) const;

  /// The standard flows. Stage order is part of the contract (tests pin it).
  [[nodiscard]] static Pipeline behavioral();
  [[nodiscard]] static Pipeline structural();

 private:
  struct Stage {
    std::string name;
    StageFn fn;
  };
  std::vector<Stage> stages_;
};

// ---------------------------------------------------------------- results --

/// What a compile hands back (API-stable across the pipeline refactor).
struct CompileResult {
  layout::Cell* chip = nullptr;
  std::string cif;
  drc::Result drc;
  bool verified = false;      // all equivalence checks ran and passed
  std::string verify_detail;  // human-readable verification summary
  assemble::FsmChipStats stats;  // behavioral flow only
  std::size_t transistors = 0;
  std::size_t rect_count = 0;
  std::vector<Diag> diags;
  std::vector<StageTiming> timings;
  /// Total pipeline wall clock — the number the per-stage timings account
  /// for (see StageTiming).
  double pipeline_ms = 0;
  /// Structured measurement of the run: the obs::Metrics registry delta
  /// across this compile (cache hits/misses, stage counters, ...),
  /// nonzero entries only. Exact when compiles don't overlap; under a
  /// concurrent compile_many batch the registry is process-wide, so an
  /// overlapping job's counts land in this delta too. Empty under
  /// SILC_OBS=OFF. Excluded from same_outcome(), like timings.
  std::vector<obs::MetricSample> metrics;
  /// True when this result was materialized from a ResultCache instead of
  /// a pipeline run. Cached results carry no chip pointer (the Library
  /// that owned the original is gone), so ok() accepts from_cache in
  /// place of chip != nullptr; everything same_outcome() compares is
  /// byte-identical to the compile that was memoized. A served result ran
  /// no stage: its timings are empty and its pipeline_ms is 0.
  bool from_cache = false;

  [[nodiscard]] bool ok() const;
  [[nodiscard]] bool has_errors() const;
  /// True when the run was cut short by a deadline or CancelToken (a
  /// Severity::Cancelled diagnostic is present). Implies !ok().
  [[nodiscard]] bool cancelled() const;
  /// All diagnostics, one per line.
  [[nodiscard]] std::string diag_text() const;
  /// Same compile outcome: ok/verified flags, CIF text, transistor and
  /// rect counts, verification summary, and every diagnostic (timings are
  /// excluded — they are wall-clock). The determinism checks' definition
  /// of "identical results".
  [[nodiscard]] bool same_outcome(const CompileResult& other) const;
};

/// Run the standard pipeline for `flow` over `source` and harvest the
/// result. Never throws for malformed input: parse errors come back as
/// stage diagnostics on a CompileResult with ok() == false.
[[nodiscard]] CompileResult compile(layout::Library& lib, Flow flow,
                                    const std::string& source,
                                    const CompileOptions& options = {});

/// Harvest a CompileResult from a DB the caller ran a pipeline over.
[[nodiscard]] CompileResult finish(DesignDB& db);

// ------------------------------------------------------------------ batch --

/// One design in a compile_many batch.
struct BatchJob {
  Flow flow = Flow::Behavioral;
  std::string source;
  CompileOptions options;
};

/// Aggregate wall-clock per stage across a batch.
struct StageProfile {
  std::string stage;
  int runs = 0;  // stage executions across all designs
  double total_ms = 0;
};

/// Result-cache counters of one batch: whole-result memoization traffic,
/// counted with or without a cache_dir, plus store I/O (zero unless a job
/// set cache_dir).
struct StoreCounters {
  std::uint64_t hits = 0;      // jobs served: repeats, or disk-warm
  std::uint64_t misses = 0;    // lookups that compiled (each fingerprint's
                               // first job, unless the store held it)
  std::uint64_t poisoned = 0;  // corrupt/skewed store file cold starts
  std::uint64_t loaded_records = 0;  // records read from the store file
  std::uint64_t file_bytes = 0;      // store file size after the batch:
                                     // bytes saved, or the untouched
                                     // file's size when nothing was new
  double load_ms = 0;
  double save_ms = 0;
};

struct BatchResult {
  /// Per-design results, index-parallel to the jobs, independent of the
  /// thread count the batch ran with.
  std::vector<CompileResult> results;
  /// One library per design: the cells results[i].chip points into live
  /// in libraries[i], so they outlive the batch. Null when the job was
  /// served from the result cache (it has no chip) or failed outside the
  /// stage boundaries.
  std::vector<std::unique_ptr<layout::Library>> libraries;
  /// Stage profile summed over all designs, in first-seen stage order.
  std::vector<StageProfile> profile;
  double wall_ms = 0;
  int threads = 1;
  /// Result-cache traffic and persistent-store I/O.
  StoreCounters store;
  /// Store-layer diagnostics — a corrupt file's cold-start warning, a
  /// failed save — kept OUT of the per-job diags so cached and fresh
  /// results stay byte-identical (same_outcome) to a cache-less run.
  std::vector<Diag> store_diags;

  [[nodiscard]] std::size_t ok_count() const;
  /// The profile as an aligned table, one stage per line.
  [[nodiscard]] std::string profile_text() const;
};

/// Compile N independent designs across a worker crew (threads = 0 picks
/// hardware concurrency, clamped to the job count). Each job gets a
/// private layout::Library, so results are bit-identical whatever the
/// thread count.
///
/// Repeated jobs: the batch owns one ResultCache (loaded from and saved to
/// the store only when a job names a cache_dir). The first job of each
/// ResultCache::fingerprint compiles in a first pass; the repeats run in a
/// second. A repeat of an eligible result (ResultCache::eligible: clean,
/// notes-only) is served from the cache: from_cache, no chip, no library,
/// empty timings, pipeline_ms 0. Any other repeat — its first failed,
/// warned, was cancelled — compiles on its own with its own diags. Either
/// way the result is same_outcome() to a serial cache-less compile of the
/// job, and which jobs are served does not depend on the thread count. A
/// served repeat is a finished answer: its deadline or token has nothing
/// left to cut short.
[[nodiscard]] BatchResult compile_many(const std::vector<BatchJob>& jobs,
                                       int threads = 0);

}  // namespace silc::core
