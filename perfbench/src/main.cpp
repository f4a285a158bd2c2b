// silc_perf — the silc benchmark binary.
//
//   silc_perf --workload <cold_ladder|batch_mixed|edit_verify>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>] [--inject-delay <site>:<ms>]
//
// Prints a provenance line, a human-readable report line, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer rows with --trace 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "fault/fault.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "sim/sim.hpp"

namespace {

using perfbench::Args;
using perfbench::MetricDef;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "silc_perf: %s\nusage: silc_perf --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--inject-delay <site>:<ms>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
      have_seconds = a.seconds > 0;
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      have_trace = a.trace || std::strcmp(v, "0") == 0;
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--inject-delay") {
      a.inject_delay = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

void print_result(const Args& args, const Outcome& out) {
  const auto& defs = args.trace ? perfbench::per_layer_metrics()
                                : perfbench::end_to_end_metrics();
  std::string line;
  line += "{\"correct\": ";
  line += out.failed() == 0 && out.attempted() > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted());
  line += ", \"failed\": " + std::to_string(out.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = out.metrics().find(d.name);
    const double value = it == out.metrics().end() ? 0.0 : it->second;
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", value);
    line += first ? "" : ", ";
    line += "\"" + std::string(d.name) + "\": {\"value\": " + num +
            ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %u, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"silc_obs\": %d, \"silc_fault\": %d, \"widest_word\": \"%s\", "
      "\"inject_delay\": \"%s\"}}\n",
      args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      silc::obs::kEnabled ? 1 : 0, silc::fault::kEnabled ? 1 : 0,
      silc::sim::to_string(silc::sim::widest_word()),
      args.inject_delay.c_str());

  Outcome out;
  try {
    if (args.workload == "cold_ladder") {
      perfbench::cold_ladder(args, out);
    } else if (args.workload == "batch_mixed") {
      perfbench::batch_mixed(args, out);
    } else if (args.workload == "edit_verify") {
      perfbench::edit_verify(args, out);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "silc_perf: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (out.metrics().count("peak_rss_mb") == 0) {
    out.set("peak_rss_mb", perfbench::peak_rss_mb());
  }
  if (args.trace) {
    out.set("error_rate", static_cast<double>(out.failed()) /
                              static_cast<double>(std::max<std::size_t>(
                                  out.attempted(), 1)));
  }

  std::string report = "report " + args.workload + ":";
  for (const auto& [name, text] : out.named_lines()) {
    report += " " + name + "=" + text + ";";
  }
  std::printf("%s\n", report.c_str());
  print_result(args, out);
  std::fflush(stdout);
  return 0;
}
