// edit_verify: the interactive edit-verify loop. core::IncrementalSession
// on the counter12 chip, assembled and cold-verified in set-up, then a
// seeded stream of fixtures/random_edits.hpp edits (no retech), each
// followed by verify(). The stream is a run of episodes: kEpisodeEdits
// novel edits, then one undo step that restores every edited cell to its
// state before the episode — so a quarter of the steps are undos, which
// exercise the window-fingerprint hits novel edits miss, and every
// episode ends on the pristine chip. (With as many undos as edits the
// median would sit between the fast undo mode and the edit mode.)
//
// Untraced: op_p50_ms is the median verify() wall, ops_per_s is verifies
// per second of verify wall; the report line adds verify_tail_ms.
//
// Traced: direct core::snapshot / core::diff calls time what verify()
// does before the stage entry points; IncrVerdict gives the drc and
// extract times; the residual is what none of them accounts for. Counts
// are taken over the first kCountedSteps steps so they repeat exactly.
#include <filesystem>
#include <map>
#include <memory>
#include <random>

#include "assemble/assemble.hpp"
#include "core/incremental_session.hpp"
#include "designs.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "harness.hpp"
#include "random_edits.hpp"
#include "synth/synth.hpp"

namespace perfbench {
namespace {

namespace S = silc;

constexpr int kEpisodeEdits = 3;
constexpr std::size_t kCountedSteps = 48;
/// The per-cell caches grow with every novel edit, so peak memory is read
/// after a fixed number of steps, not after however many a run reaches.
constexpr std::size_t kRssSteps = 100;
/// Every kSampleEvery-th step is checked against the flat engines, at most
/// kMaxSamples times a run (each costs a flat DRC + extraction).
constexpr std::size_t kSampleEvery = 32;
constexpr std::size_t kMaxSamples = 6;

struct Chip {
  std::unique_ptr<S::layout::Library> lib;
  S::layout::Cell* top = nullptr;
};

Chip build_chip() {
  Chip c;
  c.lib = std::make_unique<S::layout::Library>();
  const S::rtl::Design design =
      S::rtl::parse(silc_fixtures::counter_source(12));
  c.top = S::assemble::assemble_fsm_chip(*c.lib, S::synth::tabulate(design),
                                         {.name = "counter12"})
              .chip;
  return c;
}

/// Everything a random edit can change in one cell.
struct CellState {
  std::vector<S::layout::Shape> shapes;
  std::vector<std::string> labels;
  std::vector<S::layout::Instance> instances;
};

std::map<std::string, CellState> save_all(const S::layout::Library& lib) {
  std::map<std::string, CellState> all;
  for (const S::layout::Cell* c : lib.cells()) {
    CellState& s = all[c->name()];
    s.shapes = c->shapes();
    for (const auto& l : c->labels()) s.labels.push_back(l.text);
    s.instances = c->instances();
  }
  return all;
}

void restore(S::layout::Cell& c, const CellState& s) {
  while (!c.shapes().empty()) c.remove_shape(c.shapes().size() - 1);
  for (const auto& sh : s.shapes) c.add_shape(sh);
  while (!c.instances().empty()) c.remove_instance(c.instances().size() - 1);
  for (const auto& inst : s.instances) {
    c.add_instance(*inst.cell, inst.transform, inst.name);
  }
  for (std::size_t i = 0; i < s.labels.size(); ++i) {
    c.set_label_text(i, s.labels[i]);
  }
}

struct Verdict {
  S::drc::Result drc;
  S::extract::Netlist net;
};

Verdict flat_reference(const S::layout::Cell& top) {
  const S::layout::Flattened flat = S::layout::flatten_with_labels(top);
  return {S::drc::check_flat(flat.shapes), S::extract::extract_flat(flat)};
}

bool same(const S::core::IncrVerdict& v, const Verdict& ref) {
  return v.drc.violations == ref.drc.violations && v.netlist == ref.net;
}

}  // namespace

void edit_verify(const Args& args, Outcome& out) {
  // A store left by an earlier run would make the first set-up warm and
  // the counts depend on that run; every run starts without one.
  const std::string store_dir = args.scratch + "/edit_verify_store";
  std::filesystem::remove_all(store_dir);
  std::filesystem::create_directories(store_dir);

  // Set-up: assemble the chip, open a session, load the store, cold-verify.
  // Three times; the first set-up has no store yet and writes one, the
  // later ones start warm from it. The last set-up's session runs the
  // stream.
  std::vector<double> setups;
  Chip chip;
  std::unique_ptr<S::core::IncrementalSession> session;
  Verdict pristine;
  double load_ms = 0;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    chip = build_chip();
    session = std::make_unique<S::core::IncrementalSession>();
    load_ms = time_ms([&] { (void)session->load_store(store_dir); });
    const S::core::IncrVerdict cold = session->verify(*chip.lib, *chip.top);
    setups.push_back(ms_since(t0) / 1000.0);
    out.attempt();
    if (i == 0) {
      out.check(session->save_store(store_dir), "cannot write the store");
      pristine = flat_reference(*chip.top);
    }
    out.check(same(cold, pristine), "cold verify differs from the flat engines");
  }
  out.set("setup_s", median(setups));

  std::mt19937 rng(args.seed);
  std::vector<std::pair<std::string, CellState>> undo;
  std::vector<double> walls, traced_walls, untraced_walls;
  std::vector<double> snapshot_ms, diff_ms, drc_ms, extract_ms;
  std::size_t undo_steps = 0, samples = 0;
  double reproved = 0, reused = 0, windows_reused = 0, windows_reproved = 0,
         fallbacks = 0, spans = 0;
  std::uint64_t delays_fired = 0;
  S::core::LibrarySnapshot last = session->last_snapshot();

  std::size_t episode = 0;
  const auto verify_step = [&](bool is_undo) {
    const std::size_t step = walls.size();
    const bool counted = step < kCountedSteps;
    if (args.trace) {
      S::core::LibrarySnapshot now;
      snapshot_ms.push_back(time_ms(
          [&] { now = S::core::snapshot(*chip.lib, session->tech()); }));
      diff_ms.push_back(time_ms([&] { (void)S::core::diff(last, now); }));
      last = std::move(now);
    }
    // Whole episodes alternate between traced and untraced, so both sides
    // see the same mix of edits and undos.
    const bool traced = args.trace && episode % 2 == 1;
    if (traced) S::obs::Tracer::global().enable();
    const Counters before = args.trace ? counters_now() : Counters{};
    S::core::IncrVerdict v;
    double wall = 0;
    {
      DelayWindow delay(args, "incr.drc");
      wall = time_ms([&] { v = session->verify(*chip.lib, *chip.top); });
      delays_fired += delay.fired();
    }
    if (traced) {
      S::obs::Tracer::global().disable();
      spans += static_cast<double>(spans_recorded());
    }
    walls.push_back(wall);
    if (walls.size() == kRssSteps) out.set("peak_rss_mb", peak_rss_mb());
    out.attempt();
    undo_steps += is_undo ? 1 : 0;
    if (args.trace) {
      (traced ? traced_walls : untraced_walls).push_back(wall);
      drc_ms.push_back(v.drc_ms);
      extract_ms.push_back(v.extract_ms);
      if (counted) {
        const Counters after = counters_now();
        reproved += static_cast<double>(v.drc_stats.cells_reproved +
                                        v.extract_stats.cells_reproved);
        reused += static_cast<double>(v.cells_reused());
        windows_reused += static_cast<double>(
            counter_delta(before, after, "drc.window.reused"));
        windows_reproved += static_cast<double>(
            counter_delta(before, after, "drc.window.reproved"));
        fallbacks += static_cast<double>(
            counter_delta(before, after, "incr.fallback_flat"));
      }
    }
    if (undo.empty()) {
      out.check(same(v, pristine),
                "step " + std::to_string(step) +
                    ": verdict on the restored chip differs from pristine");
    } else if (step % kSampleEvery == kSampleEvery - 1 &&
               samples < kMaxSamples) {
      ++samples;
      out.check(same(v, flat_reference(*chip.top)),
                "step " + std::to_string(step) +
                    ": incremental verdict differs from the flat engines");
    }
  };

  const auto t_run = Clock::now();
  do {
    for (int j = 0; j < kEpisodeEdits; ++j) {
      std::map<std::string, CellState> before = save_all(*chip.lib);
      const silc_fixtures::EditLog log = silc_fixtures::random_edit(
          *chip.lib, *chip.top, rng, /*allow_retech=*/false);
      undo.emplace_back(log.cell, std::move(before.at(log.cell)));
      verify_step(false);
    }
    while (!undo.empty()) {
      restore(*chip.lib->find(undo.back().first), undo.back().second);
      undo.pop_back();
    }
    verify_step(true);
    ++episode;
  } while (ms_since(t_run) < args.seconds * 1000.0 ||
           walls.size() < std::max(kCountedSteps, kRssSteps));

  if (!args.trace) {
    // The tail is read over all of a run's steps (one window): verify
    // walls have a body of one-cell edits and a heavy mode of about a tenth
    // of the steps that tops out near a full re-verify, and only the far
    // end of that mode repeats from run to run — p90 sits on the boundary
    // between the modes.
    const Tail t = tail(walls, walls.size());
    double total = 0;
    for (const double w : walls) total += w;
    out.set("op_p50_ms", median(walls));
    out.set("ops_per_s", static_cast<double>(walls.size()) / (total / 1000.0));
    out.named("verify_p50_ms", median(walls), "ms");
    out.named("verify_tail_ms", t.value, "ms");
    out.named("verify_tail_percentile", t.percentile, "%");
    out.named("verify_samples", static_cast<double>(t.samples), "count");
    out.named("undo_share",
              static_cast<double>(undo_steps) / static_cast<double>(walls.size()),
              "ratio");
    return;
  }

  const double verify = mean(walls);
  out.set("core.verify_ms", verify);
  out.set("core.snapshot_ms", mean(snapshot_ms));
  out.set("core.diff_ms", mean(diff_ms));
  out.set("drc.incr_ms", mean(drc_ms));
  out.set("extract.incr_ms", mean(extract_ms));
  out.set("core.verify_residual_ms", verify - mean(snapshot_ms) -
                                         mean(diff_ms) - mean(drc_ms) -
                                         mean(extract_ms));
  out.set("incr.cells_reproved", reproved);
  out.set("incr.cells_reused", reused);
  out.set("drc.window_reuse_ratio",
          windows_reused / std::max(1.0, windows_reused + windows_reproved));
  out.set("incr.fallback_flat", fallbacks);
  out.set("obs.trace_overhead_pct",
          100.0 * (median(traced_walls) / median(untraced_walls) - 1.0));
  out.set("obs.spans_per_op",
          spans / static_cast<double>(std::max<std::size_t>(
                      traced_walls.size(), 1)));
  out.set("store.load_ms", load_ms);
  out.set("store.save_ms",
          time_ms([&] { (void)session->save_store(store_dir); }));
  out.set("store.file_bytes", static_cast<double>(std::filesystem::file_size(
                                  store_dir + "/silc.store")));
  int delay_ms = 0;
  if (delay_targets(args, "incr.drc", &delay_ms)) {
    out.named("injected_ms_per_step",
              static_cast<double>(delays_fired) * delay_ms /
                  static_cast<double>(walls.size()),
              "ms");
  }
  out.named("steps", static_cast<double>(walls.size()), "count");
}

}  // namespace perfbench
