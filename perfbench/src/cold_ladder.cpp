// cold_ladder: serial behavioral core::compile at default options, each in
// a fresh layout::Library with no shared caches or store, over a seeded
// order of seven designs. Every stage runs cold.
//
// Untraced: op_p50_ms is the geomean over the designs of each design's
// median compile (every design weighs the same; DRC dominates it),
// ops_per_s is designs per second over whole passes (routing in counter12
// dominates it); the report line adds the slowest design's median.
//
// Traced: per pass and design, one untraced compile (harvesting its
// CompileResult metrics), one compile with the obs tracer on (the
// overhead), and a replay that calls each stage's public entry point in
// pipeline order. Rows are summed over a pass and reported as the median
// pass; core.residual_pct is the share of the compile wall the rows do
// not account for.
#include <algorithm>
#include <map>

#include "assemble/assemble.hpp"
#include "cif/cif.hpp"
#include "core/compiler.hpp"
#include "designs.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "harness.hpp"
#include "sim/sim.hpp"
#include "synth/synth.hpp"

namespace perfbench {
namespace {

using silc::core::CompileOptions;
using silc::core::CompileResult;

constexpr const char* kGoldenTraffic = "fixtures/golden/traffic.net";

/// A cold compile into `lib`, which must be fresh and outlive the result
/// (CompileResult::chip points into it).
CompileResult compile_cold(silc::layout::Library& lib, const Source& d) {
  CompileOptions o;
  o.name = d.name;
  return silc::core::compile(lib, d.flow, d.text, o);
}

/// Reference checks of one compile, outside the timed region: ok and
/// verified, the traffic netlist equal to the golden file, and the same
/// outcome as the design's first compile in this run.
class Checker {
 public:
  explicit Checker(std::string golden) : golden_(std::move(golden)) {}

  void check(const Source& d, const CompileResult& r, Outcome& out) {
    out.check(r.ok() && r.verified,
              d.name + ": compile not ok+verified: " + r.diag_text());
    if (d.name == "traffic" && r.chip != nullptr) {
      out.check(silc::extract::to_text(silc::extract::extract_hier(*r.chip)) ==
                    golden_,
                "traffic netlist differs from " + std::string(kGoldenTraffic));
    }
    const auto [it, fresh] = first_.try_emplace(d.name, r);
    out.check(fresh || it->second.same_outcome(r),
              d.name + ": outcome differs from its first compile");
  }

 private:
  std::string golden_;
  std::map<std::string, CompileResult> first_;
};

long long metric_of(const CompileResult& r, const std::string& name) {
  for (const auto& s : r.metrics) {
    if (s.name == name) return s.value;
  }
  return 0;
}

/// Per-pass sums of the traced rows.
struct PassRows {
  std::map<std::string, double> ms;  // stage rows
  double compile_ms = 0;
  double traced_compile_ms = 0;
  double rects = 0, transistors = 0;
  double drc_windows = 0, drc_window_area = 0, extract_windows = 0;
  double drc_hits = 0, drc_misses = 0, ex_hits = 0, ex_misses = 0;
  double spans = 0;
};

/// Call each stage's public entry point in pipeline order, timing each
/// into its row; the replayed artifacts are checked against the compile.
void replay(const Args& args, const Source& d, const CompileResult& ref,
            PassRows& rows, std::uint64_t& delays_fired, Outcome& out) {
  namespace S = silc;
  S::layout::Library lib;
  auto& ms = rows.ms;
  S::rtl::Design design;
  ms["rtl.parse_ms"] += time_ms([&] { design = S::rtl::parse(d.text); });
  S::synth::TabulatedFsm fsm;
  ms["synth.tabulate_ms"] += time_ms([&] { fsm = S::synth::tabulate(design); });
  S::assemble::FsmChipResult chip;
  ms["assemble.ms"] += time_ms([&] {
    chip = S::assemble::assemble_fsm_chip(lib, fsm, {.name = d.name});
  });
  std::string cif;
  ms["cif.write_ms"] += time_ms([&] { cif = S::cif::write(*chip.chip); });
  S::drc::Result drc;
  {
    DelayWindow delay(args, "drc.hier.cell");
    ms["drc.hier_ms"] += time_ms(
        [&] { drc = S::drc::check_hier(*chip.chip, S::tech::nmos(), nullptr); });
    delays_fired += delay.fired();
  }
  S::extract::Netlist net;
  ms["extract.hier_ms"] +=
      time_ms([&] { net = S::extract::extract_hier(*chip.chip); });
  const CompileOptions defaults;
  S::sim::CrosscheckReport gate;
  ms["sim.crosscheck_ms"] += time_ms([&] {
    S::sim::CrosscheckOptions co;
    co.cycles = defaults.gate_verify_cycles;
    co.lanes = defaults.gate_verify_lanes;
    co.switch_cycles = 0;
    co.sim.threads = defaults.sim_threads;
    gate = S::sim::crosscheck(design, co);
  });
  S::sim::PlaCheckReport pla;
  ms["logic.pla_check_ms"] += time_ms([&] {
    S::sim::SimConfig sc;
    sc.threads = defaults.sim_threads;
    pla = S::sim::check_pla(design, fsm, chip.personality,
                            defaults.pla_verify_cycles, 0, 2u, sc,
                            defaults.pla_check_mode);
  });
  bool artwork = false;
  std::string detail;
  ms["swsim.artwork_ms"] += time_ms([&] {
    artwork = S::core::verify_chip_against_rtl(
        net, design, defaults.verify_cycles, 1u, detail);
  });
  out.check(cif == ref.cif && drc.ok() && gate.ok && pla.ok && artwork &&
                net.transistors.size() == ref.transistors,
            d.name + ": stage replay disagrees with core::compile");
}

}  // namespace

void cold_ladder(const Args& args, Outcome& out) {
  // Set-up: the seeded ladder, the golden netlist, and one warm-up compile
  // of the smallest design (lazy process state fills here, not in the
  // first measured compile). Three times; the median is reported.
  std::vector<double> setups;
  std::vector<Source> ladder;
  std::string golden;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    ladder = shuffled(ladder_designs(), args.seed);
    golden = read_file(kGoldenTraffic);
    silc::layout::Library lib;
    const CompileResult warm = compile_cold(lib, ladder_designs().front());
    setups.push_back(ms_since(t0) / 1000.0);
    out.attempt();
    out.check(warm.ok() && warm.verified, "warm-up compile failed");
  }
  out.set("setup_s", median(setups));
  Checker checker(golden);

  if (!args.trace) {
    std::map<std::string, std::vector<double>> walls;
    double total_ms = 0;
    std::size_t compiled = 0;
    const auto t_run = Clock::now();
    do {
      for (const Source& d : ladder) {
        silc::layout::Library lib;
        const auto t0 = Clock::now();
        const CompileResult r = compile_cold(lib, d);
        const double wall = ms_since(t0);
        walls[d.name].push_back(wall);
        total_ms += wall;
        ++compiled;
        out.attempt();
        checker.check(d, r, out);
      }
    } while (ms_since(t_run) < args.seconds * 1000.0);

    std::vector<double> medians;
    double slowest = 0;
    for (const auto& [name, w] : walls) {
      medians.push_back(median(w));
      slowest = std::max(slowest, medians.back());
    }
    const double ladder_s = total_ms / 1000.0 /
                            static_cast<double>(compiled / ladder.size());
    out.set("op_p50_ms", geomean(medians));
    out.set("ops_per_s", static_cast<double>(compiled) / (total_ms / 1000.0));
    out.named("compile_geomean_ms", geomean(medians), "ms");
    out.named("ladder_s", ladder_s, "s");
    out.named("slowest_design_ms", slowest, "ms");
    out.named("passes", static_cast<double>(compiled / ladder.size()), "count");
    return;
  }

  std::vector<PassRows> passes;
  std::uint64_t delays_fired = 0;
  const auto t_run = Clock::now();
  do {
    PassRows rows;
    for (const Source& d : ladder) {
      silc::layout::Library lib;
      const auto t0 = Clock::now();
      const CompileResult r = compile_cold(lib, d);
      rows.compile_ms += ms_since(t0);
      out.attempt();
      checker.check(d, r, out);

      silc::obs::Tracer::global().enable();
      silc::layout::Library traced_lib;
      const auto t1 = Clock::now();
      const CompileResult traced = compile_cold(traced_lib, d);
      rows.traced_compile_ms += ms_since(t1);
      silc::obs::Tracer::global().disable();
      rows.spans += static_cast<double>(spans_recorded());
      out.check(traced.same_outcome(r), d.name + ": traced compile differs");

      replay(args, d, r, rows, delays_fired, out);
      rows.rects += static_cast<double>(r.rect_count);
      rows.transistors += static_cast<double>(r.transistors);
      rows.drc_windows += static_cast<double>(metric_of(r, "drc.windows"));
      rows.drc_window_area +=
          static_cast<double>(metric_of(r, "drc.window_area"));
      rows.extract_windows +=
          static_cast<double>(metric_of(r, "extract.windows"));
      rows.drc_hits += static_cast<double>(metric_of(r, "drc.cache.hits"));
      rows.drc_misses += static_cast<double>(metric_of(r, "drc.cache.misses"));
      rows.ex_hits += static_cast<double>(metric_of(r, "extract.cache.hits"));
      rows.ex_misses +=
          static_cast<double>(metric_of(r, "extract.cache.misses"));
    }
    passes.push_back(std::move(rows));
  } while (ms_since(t_run) < args.seconds * 1000.0);

  const auto per_pass = [&](auto field) {
    std::vector<double> v;
    for (const PassRows& p : passes) v.push_back(field(p));
    return median(v);
  };
  double rows_ms = 0;
  for (const auto& [row, unused] : passes.front().ms) {
    const double m = per_pass([&](const PassRows& p) { return p.ms.at(row); });
    out.set(row, m);
    rows_ms += m;
  }
  const double compile_ms =
      per_pass([](const PassRows& p) { return p.compile_ms; });
  out.set("core.compile_ms", compile_ms);
  out.set("core.residual_pct", 100.0 * (compile_ms - rows_ms) / compile_ms);
  out.set("obs.trace_overhead_pct",
          100.0 * (per_pass([](const PassRows& p) {
                     return p.traced_compile_ms / p.compile_ms;
                   }) - 1.0));
  out.set("obs.spans_per_op",
          per_pass([](const PassRows& p) { return p.spans; }) /
              static_cast<double>(ladder.size()));
  // Counts repeat exactly from pass to pass; the first pass stands for all.
  const PassRows& p = passes.front();
  out.set("assemble.rects", p.rects);
  out.set("extract.transistors", p.transistors);
  out.set("drc.windows", p.drc_windows);
  out.set("drc.window_area", p.drc_window_area);
  out.set("extract.windows", p.extract_windows);
  out.set("drc.cache.hit_ratio",
          p.drc_hits / std::max(1.0, p.drc_hits + p.drc_misses));
  out.set("extract.cache.hit_ratio",
          p.ex_hits / std::max(1.0, p.ex_hits + p.ex_misses));
  int delay_ms = 0;
  if (delay_targets(args, "drc.hier.cell", &delay_ms)) {
    out.named("injected_ms_per_pass",
              static_cast<double>(delays_fired) * delay_ms /
                  static_cast<double>(passes.size()),
              "ms");
  }
  out.named("passes", static_cast<double>(passes.size()), "count");
}

}  // namespace perfbench
