#include "core/incremental_session.hpp"

#include <chrono>

#include "obs/obs.hpp"
#include "store/store.hpp"

namespace silc::core {

IncrementalSession::IncrementalSession(const tech::Tech& technology)
    : tech_(technology),
      drc_cache_(std::make_unique<drc::VerdictCache>()),
      extract_cache_(std::make_unique<extract::NetlistCache>()) {}

void IncrementalSession::set_tech(const tech::Tech& technology) {
  tech_ = technology;
}

IncrVerdict IncrementalSession::verify(const layout::Library& lib,
                                       const layout::Cell& top) {
  SILC_OBS_SPAN("incr.verify", "incr");
  IncrVerdict v;
  LibrarySnapshot after = snapshot(lib, tech_);
  // Both stages run on copies of the baselines, committed together with
  // the snapshot only once both have returned: a stage that throws (a
  // cancelled deadline) leaves the session exactly as the last verify
  // left it, so the next diff is taken against the state the baselines
  // describe. The copies are verdicts and shared pointers, not layouts.
  drc::Baseline drc_base;
  extract::Baseline net_base;
  if (top_name_ == top.name() && base_drc_.result.has_value()) {
    v.edits = diff(snap_, after, top.name());
    drc_base = base_drc_;
    net_base = base_net_;
  } else {
    v.cold = true;
  }

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  v.drc = drc::check_incremental(top, tech_, *drc_cache_, v.edits, drc_base,
                                 &v.drc_stats);
  const auto t1 = Clock::now();
  v.netlist = extract::extract_incremental(top, tech_, *extract_cache_,
                                           v.edits, net_base,
                                           &v.extract_stats);
  const auto t2 = Clock::now();
  v.drc_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  v.extract_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();

  snap_ = std::move(after);
  top_name_ = top.name();
  base_drc_ = std::move(drc_base);
  base_net_ = std::move(net_base);
  return v;
}

bool IncrementalSession::load_store(const std::string& cache_dir) {
  store::Store persist;
  if (!persist.load(cache_dir + "/silc.store")) return false;
  drc_cache_->load_from(persist);
  extract_cache_->load_from(persist);
  return true;
}

bool IncrementalSession::save_store(const std::string& cache_dir) const {
  store::Store out;
  drc_cache_->save_to(out);
  extract_cache_->save_to(out);
  return out.save(cache_dir + "/silc.store");
}

}  // namespace silc::core
