// Batch compilation: core::compile_many drives N independent designs
// through the staged pipeline on a worker crew — the "heavy traffic"
// front end. The batch mixes flows and outcomes on purpose:
//
//   * traffic light, two counters, a gray-code unit — full behavioral
//     compiles, verified down to the extracted artwork;
//   * a structural SILC program — the other flow, same pipeline skeleton;
//   * the PDP-8 — far too much state to tabulate into one PLA, so it runs
//     with stop_after = "parse": the DB keeps the partial artifact (the
//     parsed design) and the result reports what did run;
//   * one malformed source — the parse stage turns the error into a
//     structured diagnostic instead of crashing the batch.
//
// Prints the per-design outcomes, every diagnostic, and the aggregate
// per-stage timing profile. With --trace=FILE the whole batch runs under
// the span tracer and exports Chrome trace-event JSON (load it in
// chrome://tracing or https://ui.perfetto.dev).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "design_sources.hpp"
#include "obs/obs.hpp"
#include "pdp8_model.hpp"

namespace {

using silc_fixtures::counter_source;
const char* kTraffic = silc_fixtures::kTrafficSource;
const char* kStructuralChain = silc_fixtures::kInvChainSource;

silc::core::CompileOptions verified(const std::string& name) {
  silc::core::CompileOptions o;
  o.name = name;
  o.verify_cycles = 16;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace silc::core;

  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) trace_path = argv[i] + 8;
  }
  if (!trace_path.empty()) silc::obs::Tracer::global().enable();

  std::vector<std::string> names;
  std::vector<BatchJob> jobs;
  const auto add = [&](std::string name, BatchJob job) {
    names.push_back(std::move(name));
    jobs.push_back(std::move(job));
  };
  add("traffic", {Flow::Behavioral, kTraffic, verified("traffic_chip")});
  add("counter2", {Flow::Behavioral, counter_source(2), verified("counter2")});
  add("counter3", {Flow::Behavioral, counter_source(3), verified("counter3")});
  add("chain", {Flow::Structural, kStructuralChain,
                CompileOptions{.name = "chain"}});
  add("pdp8", {Flow::Behavioral, silc_fixtures::kPdp8Source,
               CompileOptions{.name = "pdp8", .stop_after = "parse"}});
  add("broken", {Flow::Behavioral, "processor oops ( syntax error",
                 CompileOptions{.name = "broken"}});

  const BatchResult batch = compile_many(jobs);
  std::printf("compiled %zu designs on %d threads in %.1f ms "
              "(%.2f designs/sec)\n\n",
              jobs.size(), batch.threads, batch.wall_ms,
              1000.0 * static_cast<double>(jobs.size()) / batch.wall_ms);

  std::printf("%-10s %-11s %-5s %-9s %-8s %-7s %-7s\n", "design", "flow",
              "ok", "verified", "trans.", "errors", "warns");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CompileResult& r = batch.results[i];
    std::size_t errors = 0, warns = 0;
    for (const Diag& d : r.diags) {
      errors += d.severity == Severity::Error;
      warns += d.severity == Severity::Warning;
    }
    std::printf("%-10s %-11s %-5s %-9s %-8zu %-7zu %-7zu\n", names[i].c_str(),
                to_string(jobs[i].flow), r.ok() ? "yes" : "no",
                r.verified ? "yes" : "-", r.transistors, errors, warns);
  }

  std::printf("\ndiagnostics (partial + failed designs):\n");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const CompileResult& r = batch.results[i];
    if (r.ok() && r.verified) continue;
    std::printf("--- %s ---\n%s", names[i].c_str(), r.diag_text().c_str());
  }

  std::printf("\naggregate stage profile:\n%s", batch.profile_text().c_str());

  if (!trace_path.empty()) {
    silc::obs::Tracer::global().disable();
    if (silc::obs::write_chrome_trace(trace_path)) {
      std::printf("\nwrote %s — open in chrome://tracing or "
                  "https://ui.perfetto.dev\n",
                  trace_path.c_str());
    } else {
      std::printf("\nERROR: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  // Four designs make it all the way to verified silicon; the PDP-8 stops
  // where asked and the malformed one fails with a diagnostic, not a crash.
  return batch.ok_count() == 4 ? 0 : 1;
}
