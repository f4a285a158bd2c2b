// Incremental extraction: serve one edit by the cheapest exact path —
// baseline verbatim, whole-top cache hit, footprint re-stitch, or a full
// cold run (see extract_incremental in extract.hpp).
#include <algorithm>
#include <exception>
#include <set>

#include "core/cancel.hpp"
#include "extract/extract.hpp"
#include "extract/hier.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"

namespace silc::extract {

namespace {

/// Cells under the top whose geometry or naming the edit changed.
std::size_t edited_cells(const std::vector<const layout::Cell*>& cells,
                         const core::EditSet& edits) {
  std::set<std::string> edited;
  for (const core::CellEdit& e : edits.cells) edited.insert(e.cell);
  return static_cast<std::size_t>(
      std::count_if(cells.begin(), cells.end(), [&](const layout::Cell* c) {
        return edited.count(c->name()) != 0;
      }));
}

}  // namespace

Netlist extract_incremental(const layout::Cell& top,
                            const tech::Tech& technology, NetlistCache& cache,
                            const core::EditSet& edits, Baseline& baseline,
                            IncrStats* stats) {
  using core::IncrPath;
  SILC_OBS_SPAN("incr.extract", "extract");
  IncrStats local;
  IncrStats& st = stats != nullptr ? *stats : local;
  st = IncrStats{};
  const std::vector<const layout::Cell*> cells = layout::dependency_order(top);
  st.cells_total = cells.size();
  const auto served = [&](IncrPath path, std::size_t reproved) {
    st.path = path;
    st.cells_reproved = std::min(reproved, st.cells_total);
    st.cells_reused = st.cells_total - st.cells_reproved;
    SILC_OBS_COUNT("incr.cells_reused",
                   static_cast<std::int64_t>(st.cells_reused));
    SILC_OBS_COUNT("incr.cells_reproved",
                   static_cast<std::int64_t>(st.cells_reproved));
  };

  const bool warm =
      baseline.netlist.has_value() && !edits.tech_extract_changed;
  if (warm && (edits.empty() ||
               (edits.has_footprint && edits.geometry_footprint.empty() &&
                edits.naming_footprint.empty()))) {
    served(IncrPath::Verbatim, 0);
    return *baseline.netlist;
  }

  try {
    SILC_FAULT_POINT("incr.extract");
    if (auto hit = cache.find(NetlistCache::key_for(top, technology))) {
      baseline.netlist = detail::finalize(top, *hit);
      baseline.top = std::move(hit);
      served(IncrPath::TopHit, 0);
      return *baseline.netlist;
    }
    if (warm && edits.has_footprint && baseline.top != nullptr) {
      auto net = detail::restitch(top, technology, *baseline.top,
                                  edits.geometry_footprint,
                                  edits.naming_footprint);
      st.footprint_rects = edits.geometry_footprint.rects().size() +
                           edits.naming_footprint.rects().size();
      baseline.netlist = detail::finalize(top, *net);
      baseline.top = std::move(net);
      served(IncrPath::Footprint, edited_cells(cells, edits));
      return *baseline.netlist;
    }
    const obs::CacheStats before = cache.stats();
    baseline.top = detail::hier_net(top, technology, &cache);
    baseline.netlist = detail::finalize(top, *baseline.top);
    const obs::CacheStats after = cache.stats();
    served(IncrPath::Full,
           static_cast<std::size_t>(after.misses - before.misses));
    return *baseline.netlist;
  } catch (const core::Cancelled&) {
    throw;  // deadlines win; retrying on the slower flat path would be worse
  } catch (const std::exception&) {
    SILC_OBS_COUNT("incr.fallback_flat", 1);
    baseline.netlist =
        extract_flat(layout::flatten_with_labels(top), technology);
    baseline.top = nullptr;
    served(IncrPath::FlatFallback, st.cells_total);
    return *baseline.netlist;
  }
}

}  // namespace silc::extract
