// Shared plumbing of the silc benchmark: arguments, clocks, statistics,
// the outcome every workload fills in, and the metric tables the final
// JSON line is checked against.
//
// Conventions every workload follows:
//   * Inputs come from Args::seed only.
//   * End-to-end numbers come from untraced runs (--trace 0). A traced run
//     (--trace 1) times the calls into each module's public entry points
//     from these files and harvests the counters the library already
//     exports; it reports per-layer rows only.
//   * Reference checks run outside the timed region; every mismatch is one
//     failed operation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Wall time of one call, in milliseconds.
template <class F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ms_since(t0);
}

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Private directory inside the checkout for files a workload writes.
  std::string scratch = ".";
  /// "site:ms" — arm a sticky fault::Kind::Delay at `site` around the
  /// traced replay of the layer that owns it (the delay-attribution test).
  std::string inject_delay;
};

// ------------------------------------------------------------ statistics --

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double geomean(const std::vector<double>& v);

/// The highest percentile with at least ten samples beyond it, taken over
/// consecutive windows of `window` samples in arrival order and reported as
/// the median over windows — so the percentile (100 * (window - 10) /
/// window) does not drift with how many operations a run completes, and
/// one stall moves one window. With fewer than `window` samples, the
/// highest such percentile of all samples (the maximum below eleven).
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(const std::vector<double>& v, std::size_t window);

// ---------------------------------------------------------------- outcome --

/// What one run reports: operations attempted and failed, and metrics by
/// name. Names must appear in end_to_end_metrics() / per_layer_metrics().
class Outcome {
 public:
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Count one failed or mismatching operation; the first few reasons go
  /// to stderr.
  void fail(const std::string& why);
  /// `ok` false counts a failure with `why`.
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }

  void set(const std::string& name, double value);
  /// A workload-specific figure (compile_tail_ms, ladder_s, ...), printed
  /// on the human-readable report line before the result (not part of the
  /// result JSON).
  void named(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, double>& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  named_lines() const {
    return named_;
  }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, double> metrics_;
  std::vector<std::pair<std::string, std::string>> named_;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, reported by every workload's untraced run.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer rows, reported by every workload's traced run. A row a
/// workload does not exercise reads 0.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

// --------------------------------------------------------------- helpers --

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Counter values by name, for deltas around a traced call.
using Counters = std::map<std::string, long long>;
[[nodiscard]] Counters counters_now();
/// after[name] - before[name] (0 for names in neither).
[[nodiscard]] long long counter_delta(const Counters& before,
                                      const Counters& after,
                                      const std::string& name);
/// hits / (hits + misses) of a cache's counters ("drc.cache"), 0 when the
/// cache was not consulted.
[[nodiscard]] double hit_ratio(const Counters& before, const Counters& after,
                               const std::string& cache);

/// Arms Args::inject_delay for its lifetime when the delay names `site`,
/// so a delay lands only in the traced replay of one layer. fired() is the
/// number of delays served while armed.
class DelayWindow {
 public:
  DelayWindow(const Args& args, const std::string& site);
  ~DelayWindow();
  DelayWindow(const DelayWindow&) = delete;
  DelayWindow& operator=(const DelayWindow&) = delete;
  [[nodiscard]] std::uint64_t fired() const;

 private:
  bool armed_ = false;
};

/// True when Args::inject_delay targets `site`; `delay_ms` receives the
/// delay.
[[nodiscard]] bool delay_targets(const Args& args, const std::string& site,
                                 int* delay_ms = nullptr);

/// Obs spans recorded since the tracer was last enabled (all threads).
[[nodiscard]] std::uint64_t spans_recorded();

// -------------------------------------------------------------- workloads --

void cold_ladder(const Args& args, Outcome& out);
void batch_mixed(const Args& args, Outcome& out);
void edit_verify(const Args& args, Outcome& out);

}  // namespace perfbench
