// Edit tracking for incremental recompilation.
//
// A LibrarySnapshot is a per-cell record of a library under a tech: the
// fingerprint the per-cell verdict/netlist caches key on (geometry hash,
// naming hash, flat shape count, bbox) plus the cell's own content (shapes,
// labels, ports, instance list). Diffing two snapshots yields an EditSet:
// which cells changed, how (geometry vs naming), whether the tech's rule
// tables moved underneath everything, and — for one named top cell — the
// edit's *footprint*: where in chip coordinates the flattened geometry or
// labelling actually changed.
//
// == How a stage declares its invalidation footprint ==
//
// Every verification stage with an incremental entry point declares, in
// its own header next to that entry point, which EditSet axes it reads.
// The convention:
//
//   1. Geometry axis (`CellEdit::geometry_changed`,
//      `EditSet::geometry_footprint`): invalidates any stage that consumes
//      shapes. DRC is purely geometric — `drc::check_flat` never sees a
//      label — so DRC reads geometry + drc-signature only.
//   2. Naming axis (`CellEdit::naming_changed`, `EditSet::naming_footprint`):
//      labels, instance names (which prefix flattened labels) and the top
//      cell's ports (which name nodes). Extraction reads geometry + naming
//      + extract-signature, so a naming-only edit re-runs extraction but
//      hands the DRC baseline back verbatim.
//   3. Tech axis (`tech_drc_changed` / `tech_extract_changed`): a changed
//      rule-table signature invalidates that stage for EVERY cell; the
//      caches key on the signature, so the stage degrades to a cold run,
//      not a wrong answer.
//
// A stage reuses its baseline verbatim when its footprint axes are empty
// and its tech axis is clean. Otherwise an IncrementalSession serves each
// stage by the first of these paths that applies (core::IncrPath):
//
//   verbatim   nothing the stage reads changed;
//   top hit    the stage's cache already holds the whole edited top (an
//              undo back to a state a full run proved);
//   footprint  re-verify only the footprint (DRC dilates it by the seam
//              halo; extraction's stitch fixpoint grows it by the
//              components within its halo) against the live layout and
//              splice the result into the baseline — no cell below the
//              top is re-proved;
//   guard      the footprint path, where the edit split or joined a net on
//              a layer DRC's spacing rules label: those rules re-run over
//              the whole layer instead (see drc::check_incremental);
//   full       a cold check_hier / extract_hier of the top (a cold
//              verify, a tech change or a switched top);
//   flat       the exhaustive engine, when anything above throws.
//
// Footprint results live only as the session baseline; they never enter
// the caches. The house invariant holds on every path:
// edit-then-incremental == recompile-from-scratch, byte-identical
// (tests/test_incremental.cpp enforces it over randomized edit sequences
// and long edit/undo chains).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geom/geom.hpp"
#include "geom/rectset.hpp"
#include "layout/layout.hpp"
#include "tech/tech.hpp"

namespace silc::core {

/// Content fingerprint of one cell, as seen through `top` (hashes are
/// hierarchical: a leaf edit changes every ancestor's fingerprint too,
/// which is exactly the invalidation the per-cell caches need).
struct CellFingerprint {
  std::uint64_t geometry = 0;
  /// layout::naming_hash plus the cell's own ports (naming_hash leaves
  /// ports out because the per-cell netlist cache must not key on them;
  /// the snapshot must see them, since the top's ports name nodes).
  std::uint64_t naming = 0;
  std::size_t flat_shapes = 0;
  geom::Rect bbox{};
};

/// One placement in a snapshot: the child by name, so two snapshots of
/// different libraries compare by content.
struct InstanceRecord {
  std::string child;
  geom::Transform transform{};
  std::string name;
};

/// One cell in a snapshot: its fingerprint and its own content.
struct CellRecord {
  CellFingerprint fp;
  std::vector<layout::Shape> shapes;
  std::vector<layout::TextLabel> labels;
  std::vector<layout::Port> ports;
  std::vector<InstanceRecord> instances;
};

/// Every cell of a library plus the tech signatures the verification
/// stages key on. Taking one costs a hash walk and a copy of each cell's
/// own content — microseconds, not a compile.
struct LibrarySnapshot {
  std::map<std::string, CellRecord> cells;
  std::uint64_t drc_signature = 0;
  std::uint64_t extract_signature = 0;

  [[nodiscard]] bool empty() const { return cells.empty(); }
};

[[nodiscard]] LibrarySnapshot snapshot(const layout::Library& lib,
                                       const tech::Tech& tech);

/// One cell's delta between two snapshots.
struct CellEdit {
  std::string cell;
  bool added = false;            ///< present in `after` only
  bool removed = false;          ///< present in `before` only
  bool geometry_changed = false; ///< geometry hash / shape count / bbox moved
  bool naming_changed = false;   ///< labels, instance names or ports moved
};

/// The delta between two snapshots: the invalidation gate every
/// incremental entry point consults (see the conventions block above).
struct EditSet {
  std::vector<CellEdit> cells;
  bool tech_drc_changed = false;
  bool tech_extract_changed = false;

  /// True when diff() was given a top present in both snapshots; the two
  /// footprints below are then exact, otherwise they are empty and
  /// meaningless.
  bool has_footprint = false;
  /// Where the top's flattened geometry changed, in chip coordinates: the
  /// multiset difference of each reached cell's own shapes and the bbox of
  /// every placement present on one side only, mapped through the
  /// placements down from the top.
  geom::RectSet geometry_footprint;
  /// Mask layers (bit tech::index(layer)) the geometry footprint may
  /// touch; layers outside it are flattened identically before and after.
  std::uint32_t geometry_layers = 0;
  /// Where the top's flattened labelling changed: label and top-port points
  /// added, removed or changed, plus the extent of every renamed, added or
  /// removed placement.
  geom::RectSet naming_footprint;

  /// Nothing moved on any axis: every stage may reuse its baseline.
  [[nodiscard]] bool empty() const {
    return cells.empty() && !tech_drc_changed && !tech_extract_changed;
  }
  /// Only the naming axis moved: stages with a geometry-only footprint
  /// (DRC) may reuse their baseline; label-consuming stages may not.
  [[nodiscard]] bool naming_only() const;
  /// One-line human summary for spans and diagnostics.
  [[nodiscard]] std::string summary() const;
};

/// Diff two snapshots. With a non-empty `top` present in both, also compute
/// that top's geometry and naming footprints (memoized per cell, bottom-up;
/// cells the top does not reach contribute nothing).
[[nodiscard]] EditSet diff(const LibrarySnapshot& before,
                           const LibrarySnapshot& after,
                           const std::string& top = "");

/// Which path served one stage of one incremental verify (see the
/// conventions block above). Guard is the footprint path on an edit that
/// tripped the stage's net guard: DRC's spacing rules on each layer whose
/// nets split or joined ran once over that whole layer.
enum class IncrPath : std::uint8_t {
  Verbatim,
  TopHit,
  Footprint,
  Full,
  Guard,
  FlatFallback,
};

[[nodiscard]] const char* to_string(IncrPath p);

}  // namespace silc::core
