// The interactive edit-verify loop: an IncrementalSession owns warm
// whole-cell caches (drc::VerdictCache, extract::NetlistCache — the only
// owner of either; a compile batch memoizes whole results instead), the
// last library snapshot, and each stage's baseline (the last verdicts plus what
// the footprint paths need: a DRC layer table, the top's partial netlist).
// Each verify() diffs the library against the snapshot (core::EditSet,
// footprints included), hands the edit set and baselines to the stages'
// incremental entry points, and keeps the results as the next baselines —
// so an unedited verify is a verbatim baseline return, an edit re-checks
// only the chip region it changed, and the verdict is byte-identical to a
// recompile from scratch at every step (tests/test_incremental.cpp).
//
// The persistent store doubles as a cross-process baseline: load_store()
// warms the caches from the "drc" and "extract" streams of a silc.store
// that an earlier session saved, so the FIRST verify of a session is a top
// hit when that session verified the same top. save_store() writes a fresh
// file holding just those two streams.
#pragma once

#include <memory>
#include <string>

#include "core/incremental.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"

namespace silc::core {

/// One verify() outcome: the verdicts plus how much of the baseline
/// survived the edit.
struct IncrVerdict {
  drc::Result drc;
  extract::Netlist netlist;
  EditSet edits;
  drc::IncrStats drc_stats;
  extract::IncrStats extract_stats;
  /// Wall time each stage's incremental entry point took inside this
  /// verify() — the numbers the drc.incr/extract.incr latency budgets
  /// watch (bench_flows feeds them into the budget gate).
  double drc_ms = 0;
  double extract_ms = 0;
  /// First verify of this top (no baseline existed yet).
  bool cold = false;

  /// Cells not re-proved, summed over both stages.
  [[nodiscard]] std::size_t cells_reused() const {
    return drc_stats.cells_reused + extract_stats.cells_reused;
  }
};

class IncrementalSession {
 public:
  explicit IncrementalSession(const tech::Tech& technology = tech::nmos());
  // The DRC baseline's layer table points at tech_, so a session stays
  // where it was built.
  IncrementalSession(const IncrementalSession&) = delete;
  IncrementalSession& operator=(const IncrementalSession&) = delete;

  /// Swap the rule set (the "retech" edit): the next verify() sees the
  /// signature change through the snapshot diff and re-proves whatever
  /// the new signatures invalidate — no special casing here.
  void set_tech(const tech::Tech& technology);
  [[nodiscard]] const tech::Tech& tech() const { return tech_; }

  /// Diff `lib` against the last snapshot, re-verify `top` incrementally,
  /// and adopt the result as the next baseline. Changing `top` (by name)
  /// drops the result baseline but keeps the warm caches, so switching
  /// back to a top verified before is a top hit. All or nothing:
  /// a verify that throws (core::Cancelled) adopts neither the snapshot
  /// nor either baseline, so the next verify diffs against the last one
  /// that returned.
  IncrVerdict verify(const layout::Library& lib, const layout::Cell& top);

  /// Warm the caches from `cache_dir`/silc.store (see
  /// store/store.hpp). False when the file is absent or poisoned — the
  /// session just starts cold, exactly like the batch compiler.
  bool load_store(const std::string& cache_dir);
  /// Persist the caches to `cache_dir`/silc.store. False when
  /// the file can't be written (a warning-grade event, never fatal).
  bool save_store(const std::string& cache_dir) const;

  [[nodiscard]] drc::VerdictCache& drc_cache() { return *drc_cache_; }
  [[nodiscard]] extract::NetlistCache& extract_cache() {
    return *extract_cache_;
  }
  [[nodiscard]] const LibrarySnapshot& last_snapshot() const { return snap_; }

 private:
  tech::Tech tech_;
  std::unique_ptr<drc::VerdictCache> drc_cache_;
  std::unique_ptr<extract::NetlistCache> extract_cache_;
  LibrarySnapshot snap_;
  std::string top_name_;
  drc::Baseline base_drc_;
  extract::Baseline base_net_;
};

}  // namespace silc::core
