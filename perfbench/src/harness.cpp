#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

#include "fault/fault.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

Tail tail(const std::vector<double>& v, std::size_t window) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  const auto highest = [](std::vector<double> w) {
    std::sort(w.begin(), w.end());
    // Ten samples beyond index k means k = n - 11.
    return w.size() >= 11 ? w[w.size() - 11] : w.back();
  };
  if (v.size() < window) {
    t.value = highest(v);
    t.percentile = v.size() >= 11 ? 100.0 * static_cast<double>(v.size() - 10) /
                                        static_cast<double>(v.size())
                                  : 100.0;
    return t;
  }
  std::vector<double> per_window;
  for (std::size_t i = 0; i + window <= v.size(); i += window) {
    per_window.push_back(highest(std::vector<double>(
        v.begin() + static_cast<std::ptrdiff_t>(i),
        v.begin() + static_cast<std::ptrdiff_t>(i + window))));
  }
  t.value = median(per_window);
  t.percentile = 100.0 * static_cast<double>(window - 10) /
                 static_cast<double>(window);
  return t;
}

// ---------------------------------------------------------------- outcome --

void Outcome::fail(const std::string& why) {
  ++failed_;
  if (failed_ <= 5) std::fprintf(stderr, "MISMATCH: %s\n", why.c_str());
}

namespace {

bool known(const std::vector<MetricDef>& defs, const std::string& name) {
  return std::any_of(defs.begin(), defs.end(),
                     [&](const MetricDef& d) { return name == d.name; });
}

}  // namespace

void Outcome::set(const std::string& name, double value) {
  if (!known(end_to_end_metrics(), name) && !known(per_layer_metrics(), name)) {
    throw std::logic_error("metric not declared in the metric tables: " + name);
  }
  metrics_[name] = value;
}

void Outcome::named(const std::string& name, double value,
                    const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  named_.emplace_back(name, std::string(buf) + " " + unit);
}

// Keep these tables and BENCHMARK.json's "end_to_end" / "per_layer" lists
// identical; perfbench/selftest.py checks that they are.
const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"op_p50_ms", "ms"},
      {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // every workload
      {"error_rate", "ratio"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.spans_per_op", "count"},
      // cold_ladder: per ladder pass, summed over its seven designs
      {"core.compile_ms", "ms"},
      {"rtl.parse_ms", "ms"},
      {"synth.tabulate_ms", "ms"},
      {"assemble.ms", "ms"},
      {"cif.write_ms", "ms"},
      {"drc.hier_ms", "ms"},
      {"extract.hier_ms", "ms"},
      {"sim.crosscheck_ms", "ms"},
      {"logic.pla_check_ms", "ms"},
      {"swsim.artwork_ms", "ms"},
      {"core.residual_pct", "%"},
      {"assemble.rects", "count"},
      {"extract.transistors", "count"},
      {"drc.windows", "count"},
      {"drc.window_area", "count"},
      {"extract.windows", "count"},
      // cold_ladder and batch_mixed
      {"drc.cache.hit_ratio", "ratio"},
      {"extract.cache.hit_ratio", "ratio"},
      // batch_mixed
      {"core.stage.parse_ms_per_run", "ms"},
      {"core.stage.tabulate_ms_per_run", "ms"},
      {"core.stage.assemble_ms_per_run", "ms"},
      {"core.stage.cif_ms_per_run", "ms"},
      {"core.stage.drc_ms_per_run", "ms"},
      {"core.stage.extract_ms_per_run", "ms"},
      {"core.stage.gate-check_ms_per_run", "ms"},
      {"core.stage.pla-check_ms_per_run", "ms"},
      {"core.stage.artwork-check_ms_per_run", "ms"},
      {"core.crew_busy_ratio", "ratio"},
      {"rtl.behavioral_ms", "ms"},
      {"sim.compiled_ms", "ms"},
      {"lang.parse_ms", "ms"},
      // edit_verify: per verify step
      {"core.verify_ms", "ms"},
      {"core.snapshot_ms", "ms"},
      {"core.diff_ms", "ms"},
      {"drc.incr_ms", "ms"},
      {"extract.incr_ms", "ms"},
      {"core.verify_residual_ms", "ms"},
      {"incr.cells_reproved", "count"},
      {"incr.cells_reused", "count"},
      {"drc.window_reuse_ratio", "ratio"},
      {"incr.fallback_flat", "count"},
      {"store.load_ms", "ms"},
      {"store.save_ms", "ms"},
      {"store.file_bytes", "bytes"},
  };
  return defs;
}

// --------------------------------------------------------------- helpers --

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Counters counters_now() {
  Counters c;
  for (const auto& s : silc::obs::Metrics::global().snapshot()) {
    c[s.name] = s.value;
  }
  return c;
}

long long counter_delta(const Counters& before, const Counters& after,
                        const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

double hit_ratio(const Counters& before, const Counters& after,
                 const std::string& cache) {
  const double hits =
      static_cast<double>(counter_delta(before, after, cache + ".hits"));
  const double misses =
      static_cast<double>(counter_delta(before, after, cache + ".misses"));
  return hits + misses > 0 ? hits / (hits + misses) : 0;
}

bool delay_targets(const Args& args, const std::string& site, int* delay_ms) {
  const std::size_t colon = args.inject_delay.rfind(':');
  if (colon == std::string::npos || args.inject_delay.substr(0, colon) != site) {
    return false;
  }
  if (delay_ms != nullptr) {
    *delay_ms = std::atoi(args.inject_delay.c_str() + colon + 1);
  }
  return true;
}

DelayWindow::DelayWindow(const Args& args, const std::string& site) {
  int delay_ms = 0;
  if (!delay_targets(args, site, &delay_ms)) return;
  silc::fault::Schedule s;
  s.triggers.push_back({.site = site,
                        .kind = silc::fault::Kind::Delay,
                        .after_hits = 0,
                        .sticky = true,
                        .delay_ms = delay_ms,
                        .scope = ""});
  silc::fault::Injector::global().arm(std::move(s));
  armed_ = true;
}

DelayWindow::~DelayWindow() {
  if (armed_) silc::fault::Injector::global().disarm();
}

std::uint64_t DelayWindow::fired() const {
  return armed_ ? silc::fault::Injector::global().fired() : 0;
}

std::uint64_t spans_recorded() {
  const silc::obs::Tracer& t = silc::obs::Tracer::global();
  return t.total_events() + t.dropped_events();
}

}  // namespace perfbench
