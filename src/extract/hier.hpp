// Internal: the hierarchical extractor's hooks for the incremental entry
// point (extract/incremental.cpp). CellNet, the per-cell partial netlist,
// stays opaque outside extract/.
#pragma once

#include <memory>

#include "extract/extract.hpp"
#include "geom/rectset.hpp"

namespace silc::extract::detail {

/// Extract `top` hierarchically through `cache` and return its partial
/// netlist (what extract_hier finalizes).
[[nodiscard]] std::shared_ptr<const CellNet> hier_net(
    const layout::Cell& top, const tech::Tech& technology, NetlistCache& cache);

/// The footprint path: re-extract the live `top` inside the edit's
/// footprints (chip coordinates, inflated here by the stitch halo and
/// grown to the window fixpoint), carrying `base` — the top's partial
/// netlist before the edit — over as fragments everywhere else. Labels in
/// the windows are read from the live layout.
[[nodiscard]] std::shared_ptr<const CellNet> restitch(
    const layout::Cell& top, const tech::Tech& technology, const CellNet& base,
    const geom::RectSet& geometry, const geom::RectSet& naming);

/// The canonical public netlist of a top's partial netlist (the top's
/// ports join as labels).
[[nodiscard]] Netlist finalize(const layout::Cell& top, const CellNet& net);

}  // namespace silc::extract::detail
