// Internal: the hierarchical extractor's hooks for the incremental entry
// point (extract/incremental.cpp). CellNet, a cell's partial netlist,
// stays opaque outside extract/.
#pragma once

#include <memory>

#include "extract/extract.hpp"
#include "geom/rectset.hpp"

namespace silc::extract::detail {

/// The partial netlist extract_hier finalizes: `cache`'s entry for the
/// whole `top`, or on a miss one connectivity solve over the flattened
/// top, stored under the top's key (with no cache, the solve alone).
[[nodiscard]] std::shared_ptr<const CellNet> hier_net(
    const layout::Cell& top, const tech::Tech& technology, NetlistCache* cache);

/// The footprint path: re-extract the live `top` inside the edit's
/// footprints (chip coordinates), carrying `base` — the top's partial
/// netlist before the edit — over as fragments everywhere else. Labels in
/// the windows are read from the live layout. The footprints need no halo:
/// every footprint rect has an interior (label points are 2x2 squares),
/// the window fixpoint pulls in each channel, contact and buried group
/// within the stitch halo of the windows, and a wire crossing a window
/// edge is cut there into fragments that re-join the window's pieces
/// along the cut.
[[nodiscard]] std::shared_ptr<const CellNet> restitch(
    const layout::Cell& top, const tech::Tech& technology, const CellNet& base,
    const geom::RectSet& geometry, const geom::RectSet& naming);

/// The canonical public netlist of a top's partial netlist (the top's
/// ports join as labels).
[[nodiscard]] Netlist finalize(const layout::Cell& top, const CellNet& net);

}  // namespace silc::extract::detail
