// Extraction engine tracking: flat vs hierarchical wall clock on real
// artwork — the committed traffic-light chip and a PDP-8 boot ROM.
//
// Emits BENCH_extract.json: the box's hardware thread count, per-design
// rect counts, per-mode ms (hier both cold and warm-cache), whether
// flat and hier produced byte-identical canonical netlists — the engine's
// core contract, enforced here with a non-zero exit on divergence or on
// any extraction warning (the generators must produce clean artwork) —
// and a store round-trip leg: the warmed NetlistCache through a file into
// a fresh cache, whose re-extraction must replay all-hits with an equal
// canonical netlist (the "store" block beside each design's "cache"
// block).
// Flags: --json=PATH (default BENCH_extract.json), --smoke (fewer reps).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/compiler.hpp"
#include "design_sources.hpp"
#include "extract/extract.hpp"
#include "layout/layout.hpp"
#include "mem/mem.hpp"
#include "store/store.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct ModeTimes {
  std::string design;
  std::size_t rects = 0;
  std::size_t transistors = 0;
  double flat_ms = 0;
  double hier_cold_ms = 0;
  double hier_warm_ms = 0;
  bool identical = true;
  bool clean = true;
  /// Netlist-cache counters over one cold + one warm hier extraction (the
  /// last rep's cache): the warm pass must be all hits.
  silc::obs::CacheStats cache;
  /// Store round-trip leg: the warmed cache through a file and back.
  double store_warm_ms = 0;       // re-extraction over the reloaded cache
  std::size_t store_records = 0;  // records saved for this design
  std::uint64_t store_file_bytes = 0;
  std::uint64_t store_replay_misses = 0;  // must be 0: all-hits replay
  bool store_identical = true;
};

/// The PDP-8 RIM loader plus deterministic fill (same content as
/// bench_drc's workload).
std::vector<std::uint32_t> pdp8_boot_words(std::size_t total) {
  std::vector<std::uint32_t> words{
      06032, 06031, 05357, 06036, 07106, 07006, 07510, 05357,
      07006, 06031, 05367, 06034, 07420, 03776, 03376, 05356,
  };
  std::uint32_t x = 0777;
  while (words.size() < total) {
    x = (x * 01645 + 0157) & 07777;  // 12-bit LCG fill
    words.push_back(x);
  }
  return words;
}

ModeTimes measure(const std::string& name, const silc::layout::Cell& chip,
                  int reps) {
  using silc::extract::Netlist;
  ModeTimes m;
  m.design = name;
  m.rects = chip.flat_shape_count();

  Netlist flat, hier;
  for (int r = 0; r < reps; ++r) {
    auto t0 = Clock::now();
    flat = silc::extract::extract(chip);
    m.flat_ms += ms_since(t0);

    silc::extract::NetlistCache cache;
    t0 = Clock::now();
    hier = silc::extract::extract_hier(chip, silc::tech::nmos(), &cache);
    m.hier_cold_ms += ms_since(t0);
    t0 = Clock::now();
    (void)silc::extract::extract_hier(chip, silc::tech::nmos(), &cache);
    m.hier_warm_ms += ms_since(t0);
    m.cache = cache.stats();
  }
  m.flat_ms /= reps;
  m.hier_cold_ms /= reps;
  m.hier_warm_ms /= reps;
  m.transistors = flat.transistors.size();
  m.identical = flat == hier;
  m.clean = flat.warnings.empty();

  // Store round-trip: warm a fresh cache, push it through a file, and
  // re-extract against a cache that knows only what the file told it.
  {
    silc::extract::NetlistCache warmed;
    (void)silc::extract::extract_hier(chip, silc::tech::nmos(), &warmed);
    silc::store::Store out;
    warmed.save_to(out);
    const std::string path = name + ".extractstore.tmp";
    silc::store::Store in;
    if (out.save(path) && in.load(path)) {
      silc::extract::NetlistCache replay;
      replay.load_from(in);
      const auto t0 = Clock::now();
      const Netlist replayed =
          silc::extract::extract_hier(chip, silc::tech::nmos(), &replay);
      m.store_warm_ms = ms_since(t0);
      m.store_records = out.records();
      m.store_file_bytes = out.file_bytes();
      m.store_replay_misses = replay.misses();
      m.store_identical = replayed == hier && replay.misses() == 0 &&
                          replay.poisoned() == 0;
    } else {
      m.store_identical = false;
    }
    std::remove(path.c_str());
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_extract.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    else if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int reps = smoke ? 1 : 5;

  std::vector<ModeTimes> rows;
  {
    silc::layout::Library lib;
    silc::core::CompileOptions o;
    o.name = "traffic";
    o.stop_after = "assemble";
    const auto r = silc::core::compile(lib, silc::core::Flow::Behavioral,
                                       silc_fixtures::kTrafficSource, o);
    if (r.chip == nullptr) {
      std::printf("ERROR: traffic chip did not assemble\n");
      return 1;
    }
    rows.push_back(measure("traffic", *r.chip, reps));
  }
  {
    silc::layout::Library lib;
    const auto rom = silc::mem::generate_rom(
        lib, pdp8_boot_words(smoke ? 128 : 256), 12, {.name = "pdp8_rom"});
    rows.push_back(measure("pdp8_rom", *rom.cell, reps));
  }

  std::printf("=== extraction: flat vs hier (%d rep%s) ===\n", reps,
              reps == 1 ? "" : "s");
  std::printf("%-10s %8s %8s %9s %10s %10s %6s %11s\n", "design", "rects",
              "devs", "flat ms", "hier ms", "warm ms", "same", "cache h/m");
  bool all_identical = true;
  bool all_clean = true;
  for (const ModeTimes& m : rows) {
    char hm[32];
    std::snprintf(hm, sizeof hm, "%llu/%llu",
                  static_cast<unsigned long long>(m.cache.hits),
                  static_cast<unsigned long long>(m.cache.misses));
    std::printf("%-10s %8zu %8zu %9.2f %10.2f %10.3f %6s %11s\n",
                m.design.c_str(), m.rects, m.transistors, m.flat_ms,
                m.hier_cold_ms, m.hier_warm_ms, m.identical ? "yes" : "NO",
                hm);
    all_identical = all_identical && m.identical;
    all_clean = all_clean && m.clean;
  }

  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("ERROR: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"smoke\": %s,\n  \"hardware_threads\": %u,\n"
               "  \"designs\": [\n",
               smoke ? "true" : "false", std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ModeTimes& m = rows[i];
    std::fprintf(f,
                 "    {\"design\": \"%s\", \"rects\": %zu, "
                 "\"transistors\": %zu, \"flat_ms\": %.2f, "
                 "\"hier_cold_ms\": %.2f, \"hier_warm_ms\": %.3f, "
                 "\"identical_across_modes\": %s, "
                 "\"cache\": {\"hits\": %llu, \"misses\": %llu, "
                 "\"entries\": %llu, \"bytes\": %llu}, "
                 "\"store\": {\"records\": %zu, \"file_bytes\": %llu, "
                 "\"replay_warm_ms\": %.3f, \"replay_misses\": %llu, "
                 "\"identical\": %s}}%s\n",
                 m.design.c_str(), m.rects, m.transistors, m.flat_ms,
                 m.hier_cold_ms, m.hier_warm_ms,
                 m.identical ? "true" : "false",
                 static_cast<unsigned long long>(m.cache.hits),
                 static_cast<unsigned long long>(m.cache.misses),
                 static_cast<unsigned long long>(m.cache.entries),
                 static_cast<unsigned long long>(m.cache.bytes),
                 m.store_records,
                 static_cast<unsigned long long>(m.store_file_bytes),
                 m.store_warm_ms,
                 static_cast<unsigned long long>(m.store_replay_misses),
                 m.store_identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());

  bool store_ok = true;
  for (const ModeTimes& m : rows) store_ok = store_ok && m.store_identical;
  if (!store_ok) {
    std::printf("ERROR: store round-trip replay diverged or missed\n");
    return 1;
  }
  if (!all_identical) {
    std::printf("ERROR: netlists diverged across modes\n");
    return 1;
  }
  if (!all_clean) {
    std::printf("ERROR: generated artwork extracted with warnings\n");
    return 1;
  }
  return 0;
}
