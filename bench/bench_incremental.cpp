// Incremental recompilation tracking: edit-to-verdict latency on an
// enable-gated 12-bit counter chip — large enough that the batch
// compiler's chip-wide stages (hierarchical DRC and extraction) dominate a
// cold compile while the incremental path stays proportional to the
// edit's footprint. Per rep: a single-cell edit re-verified through the
// warm IncrementalSession and a no-op verify (the baseline verbatim path,
// the "microseconds" claim); cold legs are sampled separately because a
// full recompile of this chip costs over a hundred milliseconds (~0.15 s
// on a 4-core x86 box), not tens. Every edit is
// cumulative (the victim shape only ever moves further), so no rep ever
// revisits a previously cached top — each measured verify is a genuinely
// novel edit, not a warm replay.
//
// Emits BENCH_incremental.json (with the box's hardware thread count) and
// enforces the contract itself with a non-zero exit: incremental ==
// scratch byte-for-byte, the edited verify
// reuses at least one cell, and the single-cell edit's drc+extract
// re-verify is at least 10x faster than a cold compile (the full batch
// pipeline — what a non-incremental flow re-runs after any edit; the
// hier-verify-only cold path is reported alongside as cold_verify_ms).
// The floor compares the best of 3 cold compiles with the median rep's
// edit, in full and smoke runs alike.
// Flags: --json=PATH (default BENCH_incremental.json), --smoke (fewer
// reps), --artifacts=DIR (dump incremental vs scratch renderings for an
// external byte-diff — ci.sh's incremental leg).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.hpp"
#include "core/incremental_session.hpp"
#include "design_sources.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "layout/layout.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Every violation on its own line — the full rendering, not summary()'s
/// collapsed one, so an artifact diff catches a single moved anchor.
std::string render_drc(const silc::drc::Result& r) {
  std::string out = "violations " + std::to_string(r.violations.size()) + "\n";
  for (const silc::drc::Violation& v : r.violations) {
    out += v.rule + " [" + std::to_string(v.where.x0) + "," +
           std::to_string(v.where.y0) + "," + std::to_string(v.where.x1) +
           "," + std::to_string(v.where.y1) + "] " + v.detail + "\n";
  }
  return out;
}

bool spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

struct IncrReport {
  std::size_t cells = 0;
  std::size_t rects = 0;
  double cold_ms = 0;         // full batch recompile (best of 3)
  double cold_verify_ms = 0;  // hier drc+extract from empty caches
  double edit_ms = 0;         // the median rep's edited verify
  double noop_ms = 0;
  std::size_t cells_reused = 0;    // on the edited verify (both stages)
  std::size_t cells_reproved = 0;  // drc + extract
  bool identical = true;           // every verdict == scratch flat
  bool noop_reused = true;         // the no-op hit the verbatim path
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_incremental.json";
  std::string artifacts_dir;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    else if (std::strncmp(argv[i], "--artifacts=", 12) == 0)
      artifacts_dir = argv[i] + 12;
    else if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int reps = smoke ? 4 : 10;
  constexpr int kColdSamples = 3;
  constexpr double kSpeedupFloor = 10.0;
  const std::string source = silc_fixtures::counter_source(12);

  // Cold: the full batch pipeline, source to verdict — what every edit
  // costs without incrementality. Best of 3 in both modes, so a scheduler
  // hiccup can't inflate the baseline the floor is measured against.
  double cold_best = 0;
  for (int i = 0; i < kColdSamples; ++i) {
    silc::layout::Library scratch_lib;
    silc::core::CompileOptions co;
    const auto t0 = Clock::now();
    const auto cr = silc::core::compile(scratch_lib, silc::core::Flow::Behavioral,
                                        source, co);
    const double t = ms_since(t0);
    if (cr.chip == nullptr) {
      std::printf("ERROR: counter12 did not compile\n");
      return 1;
    }
    if (i == 0 || t < cold_best) cold_best = t;
  }

  silc::layout::Library lib;
  silc::core::CompileOptions o;
  o.stop_after = "assemble";
  const auto r =
      silc::core::compile(lib, silc::core::Flow::Behavioral, source, o);
  if (r.chip == nullptr) {
    std::printf("ERROR: counter12 chip did not assemble\n");
    return 1;
  }
  silc::layout::Cell& top = *lib.find(r.chip->name());

  // The edit target: the smallest leaf under top that owns geometry — the
  // representative interactive edit (tweak one gate, not the register
  // array). Its shape 0 is nudged one step further every rep.
  silc::layout::Cell* victim = nullptr;
  for (const silc::layout::Cell* c : silc::layout::dependency_order(top)) {
    if (c == &top || c->shapes().empty()) continue;
    if (victim == nullptr || c->shapes().size() < victim->shapes().size()) {
      victim = lib.find(c->name());
    }
  }
  if (victim == nullptr) {
    std::printf("ERROR: no editable leaf cell under the chip\n");
    return 1;
  }

  IncrReport m;
  m.cold_ms = cold_best;
  m.cells = silc::layout::dependency_order(top).size();
  m.rects = silc::layout::flatten(top).size();

  // Cold verify: hier drc+extract from empty caches — the incremental
  // surface's own from-scratch cost, reported for context.
  {
    silc::core::IncrementalSession cold;
    const auto t0 = Clock::now();
    (void)cold.verify(lib, top);
    m.cold_verify_ms = ms_since(t0);
  }

  silc::core::IncrementalSession sess;
  (void)sess.verify(lib, top);  // establish the baseline
  silc::drc::Result last_drc;
  silc::extract::Netlist last_net;
  std::vector<double> edit_samples;
  for (int rep = 0; rep < reps; ++rep) {
    // Edit: nudge the victim's first shape one step further (cumulative,
    // so the geometry is novel every rep), re-verify warm.
    const silc::layout::Shape s = victim->shapes()[0];
    silc::layout::Shape moved = s;
    moved.rect = {s.rect.x0 + 2, s.rect.y0, s.rect.x1 + 2, s.rect.y1};
    victim->set_shape(0, moved);
    const auto t1 = Clock::now();
    const silc::core::IncrVerdict edited = sess.verify(lib, top);
    edit_samples.push_back(ms_since(t1));
    m.cells_reused += edited.cells_reused();
    m.cells_reproved +=
        edited.drc_stats.cells_reproved + edited.extract_stats.cells_reproved;

    // No-op: nothing moved, both stages must hand the baseline back.
    const auto t2 = Clock::now();
    const silc::core::IncrVerdict noop = sess.verify(lib, top);
    m.noop_ms += ms_since(t2);
    m.noop_reused = m.noop_reused &&
                    noop.drc_stats.path == silc::core::IncrPath::Verbatim &&
                    noop.extract_stats.path == silc::core::IncrPath::Verbatim;

    // Byte-identity against scratch, every rep.
    const silc::drc::Result scratch =
        silc::drc::check_flat(silc::layout::flatten(top));
    const silc::extract::Netlist xscratch = silc::extract::extract(top);
    m.identical = m.identical && edited.drc.violations == scratch.violations &&
                  edited.netlist == xscratch;
    last_drc = edited.drc;
    last_net = edited.netlist;
  }
  // The edit is the median rep, so one slow verify can't sink the floor.
  std::sort(edit_samples.begin(), edit_samples.end());
  const std::size_t mid = edit_samples.size() / 2;
  m.edit_ms = edit_samples.size() % 2 == 1
                  ? edit_samples[mid]
                  : (edit_samples[mid - 1] + edit_samples[mid]) / 2;
  m.noop_ms /= reps;
  const double speedup = m.cold_ms / std::max(m.edit_ms, 1e-6);

  std::printf("=== incremental recompilation: counter12 chip (%d rep%s) ===\n",
              reps, reps == 1 ? "" : "s");
  std::printf("%zu cells, %zu rects\n", m.cells, m.rects);
  std::printf("cold compile       %8.3f ms  (full batch pipeline)\n",
              m.cold_ms);
  std::printf("cold verify        %8.3f ms  (hier drc+extract, empty caches)\n",
              m.cold_verify_ms);
  std::printf("one-cell edit      %8.3f ms  (median; %.1fx vs cold compile, "
              "%zu cells reused, %zu reproved over %d reps)\n",
              m.edit_ms, speedup, m.cells_reused, m.cells_reproved, reps);
  std::printf("no-op verify       %8.3f ms  (baseline %s)\n", m.noop_ms,
              m.noop_reused ? "reused verbatim" : "NOT reused");
  std::printf("incremental == scratch: %s\n", m.identical ? "yes" : "NO");

  if (!artifacts_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(artifacts_dir, ec);
    const silc::drc::Result scratch =
        silc::drc::check_flat(silc::layout::flatten(top));
    const silc::extract::Netlist xscratch = silc::extract::extract(top);
    const bool wrote =
        spit(artifacts_dir + "/incremental_drc.txt", render_drc(last_drc)) &&
        spit(artifacts_dir + "/scratch_drc.txt", render_drc(scratch)) &&
        spit(artifacts_dir + "/incremental_netlist.txt", to_text(last_net)) &&
        spit(artifacts_dir + "/scratch_netlist.txt", to_text(xscratch));
    if (!wrote) {
      std::printf("ERROR: cannot write artifacts under %s\n",
                  artifacts_dir.c_str());
      return 1;
    }
    std::printf("wrote %s/{incremental,scratch}_{drc,netlist}.txt\n",
                artifacts_dir.c_str());
  }

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("ERROR: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"smoke\": %s,\n  \"hardware_threads\": %u,\n"
               "  \"design\": \"counter12\",\n"
               "  \"cells\": %zu,\n  \"rects\": %zu,\n"
               "  \"cold_ms\": %.3f,\n  \"cold_verify_ms\": %.3f,\n"
               "  \"edit_ms\": %.3f,\n"
               "  \"noop_ms\": %.4f,\n  \"speedup\": %.1f,\n"
               "  \"speedup_floor\": %.1f,\n  \"cells_reused\": %zu,\n"
               "  \"cells_reproved\": %zu,\n  \"identical\": %s,\n"
               "  \"noop_reused\": %s\n}\n",
               smoke ? "true" : "false", std::thread::hardware_concurrency(),
               m.cells, m.rects, m.cold_ms,
               m.cold_verify_ms, m.edit_ms, m.noop_ms, speedup, kSpeedupFloor,
               m.cells_reused, m.cells_reproved, m.identical ? "true" : "false",
               m.noop_reused ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  int rc = 0;
  if (!m.identical) {
    std::printf("ERROR: incremental verdicts diverged from scratch\n");
    rc = 1;
  }
  if (!m.noop_reused) {
    std::printf("ERROR: the no-op verify did not reuse its baseline\n");
    rc = 1;
  }
  if (m.cells_reused == 0) {
    std::printf("ERROR: the edited verify reused no cells\n");
    rc = 1;
  }
  if (speedup < kSpeedupFloor) {
    std::printf("ERROR: edit re-verify %.3f ms is not %.0fx under cold "
                "compile %.3f ms (%.1fx)\n",
                m.edit_ms, kSpeedupFloor, m.cold_ms, speedup);
    rc = 1;
  }
  return rc;
}
