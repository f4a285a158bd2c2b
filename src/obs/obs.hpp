// Compiler observability: span tracing, metrics, and latency budgets.
//
// The CVC argument — fast compilers come from knowing precisely where the
// time goes — made concrete: every hot layer of the pipeline records what
// it did, cheaply enough to leave on, and exports it in forms both a human
// (Chrome trace viewer / Perfetto) and CI (the latency-budget gate) can
// act on. `pla-check` silently becoming 65% of a behavioral compile is the
// failure mode this layer exists to prevent.
//
// Three pieces:
//
//   * Tracer + Span — wall-clock span tracing. Each recording thread owns
//     a private append-only event buffer (registered once, touched by no
//     lock on the record path), so tracing a multi-threaded batch never
//     serializes the workers it is observing. `Span` is the RAII form
//     (records one complete event, with duration, at scope exit);
//     `Tracer::begin`/`end` are the explicit form for work items whose
//     lifetime is not a C++ scope. Tracing is off until
//     `Tracer::global().enable()` — a disabled tracer costs one relaxed
//     atomic load per span site. Export with `chrome_trace_json()` /
//     `write_chrome_trace()`: the output loads directly into
//     chrome://tracing and Perfetto.
//
//   * Metrics — a process-wide registry of named monotonic counters
//     (relaxed atomics; always on when the layer is compiled in). The
//     caches count hits/misses/bytes, the hierarchical engines count
//     interaction windows and their areas, the batch counts its jobs —
//     and `core::compile()` attaches the registry delta across each run
//     to `CompileResult::metrics`, so every compile
//     carries its own structured measurement. Snapshots are cheap;
//     `delta(before, after)` keeps only what changed.
//
//   * Budgets — a checked-in per-stage latency table (see
//     scripts/latency_budgets.txt) parsed by `load_budgets()` and enforced
//     by `check_budgets()` against a measured per-stage profile.
//     bench_flows wires it to BENCH_compile.json and scripts/ci.sh fails
//     the build when a stage overruns budget * margin — the next dominant
//     stage is always visible, never a surprise.
//
// Compile gate: build with -DSILC_OBS=OFF (CMake option) and every
// instrumentation macro below expands to `((void)0)` — zero code, zero
// data, zero dependencies in the hot paths — while these types still exist
// so exporters and tests compile. `obs::kEnabled` mirrors the gate for
// code that must know whether anything can be recorded.
//
// Instrumenting a new stage — the house conventions:
//
//   1. Wrap the unit of work in a span:
//        SILC_OBS_SPAN("mystage.cell:" + cell.name(), "mystage");
//      Span names are "subsystem.thing[:instance]"; the category (second
//      argument, a string literal) groups related spans in the viewer and
//      is one of "stage", "batch", "drc", "extract", "sim", "cache",
//      "incr", "pla" — add a new category only with a new subsystem.
//      Pipeline stages themselves are spanned by Pipeline::run; you get
//      those for free.
//   2. Count what the work did with literal-named counters:
//        SILC_OBS_COUNT("mystage.windows", windows.size());
//      Counter names are "subsystem.noun[.verb]" and values must be
//      monotonic deltas (they aggregate across threads and runs).
//   3. Mark point events worth seeing on the timeline (cache misses,
//      retries) with SILC_OBS_INSTANT("mystage.cache.miss", "cache").
//   4. Give the stage a line in scripts/latency_budgets.txt once it has a
//      smoke baseline, so CI owns its latency from day one.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#ifndef SILC_OBS_ENABLED
#define SILC_OBS_ENABLED 1
#endif

namespace silc::obs {

inline constexpr bool kEnabled = SILC_OBS_ENABLED != 0;

// ----------------------------------------------------------------- events --

struct Event {
  enum class Type : std::uint8_t { Complete, Begin, End, Instant, Counter };

  /// Names are stored inline (truncated, NUL-terminated) so recording
  /// never allocates; categories must be string literals (stored by
  /// pointer).
  static constexpr std::size_t kNameCap = 47;

  char name[kNameCap + 1] = {0};
  const char* cat = "";
  Type type = Type::Instant;
  std::uint64_t ts_ns = 0;   // relative to the tracer's enable() epoch
  std::uint64_t dur_ns = 0;  // Complete events only
  double value = 0;          // Counter events only
};

// ----------------------------------------------------------------- tracer --

/// Process-wide span tracer. One instance (global()); recording threads
/// register a private buffer on first use and append to it without any
/// cross-thread synchronization. Drain/export only when the traced work
/// has quiesced (workers joined): the buffers are single-writer and are
/// read raw.
class Tracer {
 public:
  static Tracer& global();

  /// Start (or restart) a capture: clears every thread's buffer and
  /// raises the recording flag. Events beyond `max_events_per_thread` on
  /// one thread are dropped (counted, never overwritten — a trace prefix
  /// is always well-formed). No-op when the layer is compiled out.
  void enable(std::size_t max_events_per_thread = 1u << 15);
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the last enable() (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Explicit begin/end for work items whose lifetime is not a C++ scope
  /// (queued work, cross-function phases). Both go to the calling
  /// thread's buffer; a begin and its end must land on the same thread —
  /// the well-nestedness tests enforce it.
  void begin(std::string_view name, const char* cat);
  void end(std::string_view name, const char* cat);
  /// A point event ("i" in the trace viewer).
  void instant(std::string_view name, const char* cat);
  /// A sampled counter track ("C" in the trace viewer).
  void counter(std::string_view name, const char* cat, double value);
  /// A span recorded after the fact (what Span's destructor calls).
  void complete(std::string_view name, const char* cat, std::uint64_t ts_ns,
                std::uint64_t dur_ns);

  /// Everything recorded so far, per thread (tids are registration-order
  /// ordinals). Call only when recording threads are quiesced.
  struct ThreadEvents {
    std::uint32_t tid = 0;
    std::uint64_t dropped = 0;
    std::vector<Event> events;
  };
  [[nodiscard]] std::vector<ThreadEvents> drain() const;

  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] std::uint64_t dropped_events() const;

 private:
  struct ThreadBuf;
  Tracer() = default;

  void record(Event::Type type, std::string_view name, const char* cat,
              std::uint64_t ts_ns, std::uint64_t dur_ns, double value);
  ThreadBuf& buf_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> epoch_ns_{0};
  std::size_t capacity_ = 1u << 15;
  mutable std::mutex reg_m_;  // guards registration + drain, not recording
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span: captures the start time at construction (when tracing is
/// enabled; one relaxed load otherwise) and records one complete event at
/// destruction. The category must be a string literal.
class Span {
 public:
  explicit Span(std::string_view name, const char* cat = "");
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t t0_ = 0;
  const char* cat_ = "";
  bool live_ = false;
  char name_[Event::kNameCap + 1] = {0};
};

// ---------------------------------------------------------------- metrics --

struct MetricSample {
  std::string name;
  long long value = 0;

  friend bool operator==(const MetricSample&, const MetricSample&) = default;
};

/// Process-wide registry of named monotonic counters. Registration (first
/// use of a name) takes a lock; increments through the returned atomic are
/// lock-free — cache the reference at the call site (SILC_OBS_COUNT does).
class Metrics {
 public:
  static Metrics& global();

  /// The counter registered under `name` (created at zero on first use).
  /// The reference stays valid for the life of the registry.
  std::atomic<long long>& counter(std::string_view name);
  /// Registry-lookup-per-call convenience for computed names.
  void add(std::string_view name, long long delta);

  /// Every counter's current value, sorted by name.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;
  /// Zero every counter (registrations and cached references stay valid).
  void reset();

 private:
  Metrics() = default;
  mutable std::mutex m_;
  std::map<std::string, std::unique_ptr<std::atomic<long long>>, std::less<>>
      counters_;
};

/// after - before, keeping only the samples that changed (counters born
/// after `before` count from zero).
[[nodiscard]] std::vector<MetricSample> delta(
    const std::vector<MetricSample>& before,
    const std::vector<MetricSample>& after);

/// The common shape the whole-design caches (drc::VerdictCache,
/// extract::NetlistCache) report themselves in — lifetime totals, plus
/// the current entry count and approximate payload bytes.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const CacheStats&, const CacheStats&) = default;
};

// ---------------------------------------------------------------- budgets --

/// One stage's latency budget: smoke-mode ms_per_run it may not exceed
/// (after the table-wide margin multiplier).
struct Budget {
  std::string stage;
  double ms_per_run = 0;
};

struct BudgetTable {
  double margin = 1.0;  // budgets are enforced at budget * margin
  std::vector<Budget> budgets;

  [[nodiscard]] const Budget* find(std::string_view stage) const;
};

/// Parse a budget table: one "<stage> <ms_per_run>" per line, an optional
/// "margin <x>" line, '#' comments. Returns nullopt (with *error set) on
/// malformed input.
[[nodiscard]] std::optional<BudgetTable> parse_budgets(std::string_view text,
                                                       std::string* error);
[[nodiscard]] std::optional<BudgetTable> load_budgets(const std::string& path,
                                                      std::string* error);

/// One measured stage vs the table.
struct BudgetVerdict {
  std::string stage;
  double ms = 0;        // measured ms_per_run
  double limit_ms = 0;  // budget * margin (0 when unbudgeted)
  bool unbudgeted = false;  // measured stage missing from the table — a
                            // failure: every stage must own a budget line
  bool over = false;

  [[nodiscard]] bool ok() const { return !over && !unbudgeted; }
};

/// Measured (stage, ms_per_run) pairs against the table. Budgeted stages
/// absent from the profile are ignored (flows differ); profiled stages
/// absent from the table come back unbudgeted = over.
[[nodiscard]] std::vector<BudgetVerdict> check_budgets(
    const BudgetTable& table,
    const std::vector<std::pair<std::string, double>>& stage_ms);

[[nodiscard]] bool budgets_ok(const std::vector<BudgetVerdict>& verdicts);

/// Aligned human-readable verdict table, one stage per line.
[[nodiscard]] std::string budget_report(
    const std::vector<BudgetVerdict>& verdicts);

// ----------------------------------------------------------------- export --

/// Chrome trace-event JSON ({"traceEvents": [...]}; loads in
/// chrome://tracing and Perfetto). Spans become "X" events, begin/end
/// "B"/"E", instants "i", counters "C"; tids are the tracer's thread
/// ordinals. The metrics snapshot rides along under "metrics".
[[nodiscard]] std::string chrome_trace_json(const Tracer& tracer,
                                            const std::vector<MetricSample>&
                                                metrics);
[[nodiscard]] std::string chrome_trace_json();  // global tracer + metrics

/// Write chrome_trace_json() to `path`; false when the file can't open.
bool write_chrome_trace(const std::string& path);

}  // namespace silc::obs

// ------------------------------------------------------------------ macros --
//
// The only things instrumented code should touch. All of them vanish
// entirely under -DSILC_OBS=OFF.

#if SILC_OBS_ENABLED

#define SILC_OBS_CAT2_(a, b) a##b
#define SILC_OBS_CAT_(a, b) SILC_OBS_CAT2_(a, b)

/// RAII span over the rest of the enclosing scope. `name` may be any
/// std::string / string_view expression (evaluated only when tracing is
/// enabled is NOT guaranteed — keep it cheap); `category` must be a
/// string literal.
#define SILC_OBS_SPAN(name, category) \
  ::silc::obs::Span SILC_OBS_CAT_(silc_obs_span_, __LINE__)((name), (category))

/// Bump the literal-named counter by `delta`. The registry lookup happens
/// once (function-local static); the increment is a relaxed atomic add.
#define SILC_OBS_COUNT(name, delta)                                        \
  do {                                                                     \
    static ::std::atomic<long long>& silc_obs_counter_ =                   \
        ::silc::obs::Metrics::global().counter(name);                      \
    silc_obs_counter_.fetch_add(static_cast<long long>(delta),             \
                                ::std::memory_order_relaxed);              \
  } while (0)

/// Point event on the trace timeline (no-op while tracing is disabled).
#define SILC_OBS_INSTANT(name, category) \
  ::silc::obs::Tracer::global().instant((name), (category))

#else  // SILC_OBS_ENABLED == 0

#define SILC_OBS_SPAN(name, category) ((void)0)
#define SILC_OBS_COUNT(name, delta) ((void)0)
#define SILC_OBS_INSTANT(name, category) ((void)0)

#endif  // SILC_OBS_ENABLED
