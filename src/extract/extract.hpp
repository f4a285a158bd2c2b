// Circuit extraction: NMOS layout -> transistor netlist.
//
// The extractor recovers the electrical circuit a fab would build:
//   * transistor channels are poly-over-diffusion (minus buried contacts);
//     a channel under implant is a depletion device, otherwise enhancement;
//   * conducting regions are diffusion-minus-channels, poly, and metal;
//     regions on one layer connect where they share an edge, and across
//     layers through contact cuts (metal<->poly/diff, including butting
//     contacts) and buried windows (poly<->diff);
//   * nodes are named from hierarchical labels; nets labelled Vdd/GND (any
//     case, also VCC/VSS/ground) are recognized as supply rails.
//
// Extraction + switch-level simulation (swsim) is how the compiler verifies
// that generated artwork implements the behavioral description — it closes
// the silicon-compilation loop by independently re-deriving the circuit
// from the manufacturing geometry, so its correctness is the trust anchor
// of the whole pipeline.
//
// Two entry points, one contract — byte-identical *canonical* netlists:
//
//   * extract_flat: the exhaustive baseline — the whole chip flattened,
//     one global connectivity solve. It is the test oracle and the engine
//     the compiler falls back to when extract_hier fails.
//
//   * extract_hier: an optional whole-cell cache lookup in front of the
//     same solve. The NetlistCache is keyed by a content hash of the
//     cell's geometry *and* labelling plus the technology's
//     extract_signature(), so an identical design hits across libraries
//     and, through the persistent store, across processes. Only an
//     IncrementalSession passes one (its undo top hit and load_store warm
//     start); a compile passes none, since a batch serves repeated jobs
//     whole from core::ResultCache. A miss flattens the cell once,
//     solves it, and files the partial netlist (CellNet) under the cell's
//     key; the incremental footprint path re-stitches that partial netlist
//     inside an edit's windows (extract_incremental below). A miss solves
//     the whole cell, not cell by cell: on an assembled chip the
//     interaction windows between instances cover most of the area, and
//     stitching them costs more than the flat solve.
//
// The comparison contract is the canonical form (Netlist::canonicalize):
// every node carries an intrinsic geometric anchor — the lowest-then-
// leftmost point of its conducting region, with a fixed layer order as the
// tiebreaker — which is a property of the region itself, not of any
// particular rectangle decomposition, so flat and hierarchical extraction
// number nodes identically however they sliced the geometry. Every other
// potentially frame- or decomposition-dependent decision is likewise made
// intrinsic: transistor terminals are "does the diffusion region overlap
// the one-unit strip along this channel side" (never "does a canonical
// piece end exactly at the bbox edge"), the terminal axis and the
// source/drain order (source = bottom/left) are chosen once in the global
// frame — cached cells carry per-side candidate sets, not choices — and
// candidate ties resolve to the smallest node anchor in both modes. Node
// names re-derive from sorted label aliases (shortest, then
// lexicographically least, wins), transistors sort by channel geometry,
// warnings render from geometry in chip coordinates. After canonicalize(),
// operator== is byte-for-byte equality of the electrical content; the
// differential fuzz harness (tests/test_extract_equiv.cpp) enforces it
// over random soups and random overlapping hierarchies under every
// instance orientation, rotated and reflected. One documented residual:
// a label point lying on the shared boundary of several electrically
// distinct nets binds inside the cell that resolves it, so if later
// stitching reorders those nets' anchors the picked net can differ from
// flat's — degenerate placement no generator emits (labels sit on shape
// interiors).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "geom/geom.hpp"
#include "layout/layout.hpp"
#include "store/memo.hpp"
#include "tech/tech.hpp"

namespace silc::extract {

enum class Device { Enhancement, Depletion };

struct Transistor {
  Device type{};
  int gate = -1;
  int source = -1;
  int drain = -1;
  geom::Coord width = 0;   // channel W, half-lambda units
  geom::Coord length = 0;  // channel L
  geom::Rect channel{};
  /// Terminal axis: true when source/drain abut the channel's bottom/top
  /// edges, false when they abut left/right. In a canonical netlist the
  /// source is always the bottom (vertical) or left (horizontal) terminal,
  /// whatever orientation the owning cell was instantiated under.
  bool vertical = true;

  friend bool operator==(const Transistor&, const Transistor&) = default;
};

/// Intrinsic geometric anchor of an electrical node: the lowest-then-
/// leftmost point of its conducting region, per layer, with diffusion <
/// poly < metal breaking cross-layer ties. A property of the region as a
/// point set — any exact disjoint rectangle cover computes the same anchor
/// — which is what lets flat and hierarchical extraction agree on node
/// numbering byte for byte.
struct NodeAnchor {
  geom::Coord y = 0;
  geom::Coord x = 0;
  std::uint8_t layer = 0;  // 0 diffusion, 1 poly, 2 metal

  friend bool operator==(const NodeAnchor&, const NodeAnchor&) = default;
  friend bool operator<(const NodeAnchor& a, const NodeAnchor& b) {
    if (a.y != b.y) return a.y < b.y;
    if (a.x != b.x) return a.x < b.x;
    return a.layer < b.layer;
  }
};

struct Netlist {
  /// Primary name per node ("n<id>" when unlabeled).
  std::vector<std::string> node_names;
  /// All labels seen per node (aliases), parallel to node_names.
  std::vector<std::vector<std::string>> node_aliases;
  /// Intrinsic anchor per node (parallel to node_names); filled by the
  /// extractors, empty on hand-built netlists (sim::to_switch_level).
  std::vector<NodeAnchor> node_anchors;
  std::vector<Transistor> transistors;
  std::vector<std::string> warnings;
  /// Nodes recognized as supply rails (possibly several disconnected
  /// pieces each, e.g. unconnected cell rails).
  std::vector<int> vdd_nodes;
  std::vector<int> gnd_nodes;

  [[nodiscard]] std::size_t node_count() const { return node_names.size(); }
  /// Node id carrying `name` as primary name or alias; -1 when absent.
  [[nodiscard]] int find_node(const std::string& name) const;
  [[nodiscard]] bool is_vdd(int node) const;
  [[nodiscard]] bool is_gnd(int node) const;
  [[nodiscard]] std::size_t enhancement_count() const;
  [[nodiscard]] std::size_t depletion_count() const;
  /// One-line census ("N nodes, T transistors (E enh + D dep), W warnings")
  /// for reports and the compiler's diagnostics stream.
  [[nodiscard]] std::string summary() const;

  /// Rewrite into the canonical form flat and hierarchical extraction are
  /// compared in: nodes renumbered by ascending anchor, aliases sorted
  /// with the primary name re-derived as the shortest (then
  /// lexicographically least) alias or "n<id>", supply lists re-derived
  /// from the aliases and sorted, transistors sorted by channel geometry,
  /// warnings sorted. No-op when node_anchors was never filled (netlists
  /// built outside the extractors). Both extract entry points return
  /// canonical netlists.
  void canonicalize();

  /// Byte-for-byte equality of the canonical electrical content (names,
  /// aliases, anchors, transistors, supplies, warnings).
  friend bool operator==(const Netlist&, const Netlist&) = default;
};

/// Stable text rendering of a canonical netlist — the golden-fixture
/// format (fixtures/golden/*.net): one header, one line per node, one per
/// transistor, one per warning. Diffable line by line.
[[nodiscard]] std::string to_text(const Netlist& nl);

/// A cell's partial extraction (hier.cpp): conducting pieces, proto
/// transistors, junctions, warnings and bound labels; opaque to the
/// public API.
struct CellNet;

/// The key a whole-cell partial netlist is filed under: the technology's
/// extract_signature() plus content hashes of the cell's geometry *and*
/// labelling (layout::geometry_hash + layout::naming_hash), with shape
/// count and bbox folded in as collision insurance, so an identical design
/// rebuilt in a different library hits.
struct NetlistKey {
  std::uint64_t tech_sig = 0;
  std::uint64_t geometry = 0;
  std::uint64_t naming = 0;
  std::uint64_t shapes = 0;
  geom::Rect bbox;

  friend bool operator<(const NetlistKey& a, const NetlistKey& b);
};

/// What a NetlistCache stores (store::Memo's Traits): a cell's CellNet, in
/// the store's "extract" stream, counted as extract.cache.*, poisoned at
/// fault site "extract.cache.store". Implemented in hier.cpp, where
/// CellNet lives. The payload round-trips every field a re-stitch reads —
/// pieces, proto-transistor candidate sets, junctions, structured
/// warnings, labels.
struct NetlistTraits {
  using Key = NetlistKey;
  using Value = CellNet;
  static constexpr const char* kStream = "extract";
  static constexpr const char* kCounters = "extract.cache";
  static constexpr const char* kCorruptSite = "extract.cache.store";
  static std::uint64_t checksum(const Value& n);
  static std::uint64_t bytes(const Value& n);
  static void encode_key(store::Writer& w, const Key& k);
  static Key decode_key(store::Reader& r);
  static std::string encode(const Value& n);
  static std::shared_ptr<const Value> decode(const std::string& payload);
};

/// Whole-cell partial netlists: an IncrementalSession's undo top hit and
/// its load_store warm start, and the optional cache argument of
/// extract_hier. Thread-safe; see store/memo.hpp for poison detection
/// (checksum on hit, evicted and re-extracted, counted as
/// extract.cache.poisoned) and persistence.
class NetlistCache : public store::Memo<NetlistTraits> {
 public:
  using Key = NetlistKey;

  /// The key extract_hier files a cell's partial netlist under.
  [[nodiscard]] static Key key_for(const layout::Cell& c,
                                   const tech::Tech& technology);
};

/// Extract a cell, flattened internally (the exhaustive baseline).
[[nodiscard]] Netlist extract(const layout::Cell& top,
                              const tech::Tech& technology = tech::nmos());
/// Extract pre-flattened geometry exhaustively.
[[nodiscard]] Netlist extract_flat(const layout::Flattened& flat,
                                   const tech::Tech& technology = tech::nmos());
/// Extract through the whole-cell cache: `cache`'s entry for `top`, or on
/// a miss one connectivity solve over the flattened `top`, stored under its
/// key. With no cache it is that solve alone (no key is hashed and nothing
/// is stored), still counted as an `extract.cache.misses`. Canonically
/// byte-identical to extract_flat on the same cell.
///
/// Fallback matrix (enforced by core::DesignDB::netlist() and proved
/// byte-identical by tests/test_fault.cpp):
///
///   failure inside extract_hier      | what happens
///   ---------------------------------+------------------------------------
///   any std::exception on the miss   | caught at the artifact getter,
///     path (incl. an injected fault  |   warned in diags, re-run as
///     at site "extract.hier.cell")   |   extract_flat — same canonical
///                                    |   Netlist, byte for byte
///   poisoned NetlistCache entry      | detected by checksum inside find(),
///                                    |   evicted + re-extracted — no
///                                    |   fallback needed, same Netlist
///   core::Cancelled                  | NEVER degraded — rethrown so the
///                                    |   deadline wins (retrying on the
///                                    |   flat path would only repeat it)
[[nodiscard]] Netlist extract_hier(const layout::Cell& top,
                                   const tech::Tech& technology = tech::nmos(),
                                   NetlistCache* cache = nullptr);

/// What the incremental entry point did with one edit: which path served
/// it and how much of the baseline survived. Mirrored as incr.* counters.
struct IncrStats {
  std::size_t cells_total = 0;    ///< unique cells under top
  std::size_t cells_reused = 0;   ///< cells_total - cells_reproved
  std::size_t cells_reproved = 0; ///< edited cells, or cache misses (full)
  core::IncrPath path = core::IncrPath::Full;
  std::size_t footprint_rects = 0; ///< base windows, canonical rects
};

/// What an incremental session carries from one extraction to the next:
/// the last netlist and the top's partial netlist it was finalized from
/// (null after a flat fallback). Default-constructed means no baseline.
struct Baseline {
  std::optional<Netlist> netlist;
  std::shared_ptr<const CellNet> top;
};

/// Invalidation footprint (see src/core/incremental.hpp conventions):
/// extraction reads GEOMETRY, NAMING (labels, instance names, the top's
/// ports) and the EXTRACT RULE SIGNATURE. With a baseline, the first
/// matching path serves the extraction:
///
///   * verbatim — both footprints empty and no rule change;
///   * top hit — `cache` already holds the edited top's partial netlist
///     (an undo back to a state a full run proved);
///   * footprint — the footprints are the base windows of a re-stitch of
///     the baseline top's partial netlist (the window fixpoint grows them
///     by whatever lies within its halo): inside the grown windows
///     connectivity is re-solved on the live layout and labels are read
///     from it; outside, the baseline is carried as fragments and nets
///     re-merge through a union-find. The result is not stored in `cache`
///     ("extract.hier.window" is its fault and cancellation site);
///   * full — extract_hier against `cache` (a cold verify or a rule
///     change).
///
/// `baseline` is updated in place. Byte-identity with a cold
/// extract_hier/extract_flat holds on every path; the randomized and
/// long-chain harnesses in tests/test_incremental.cpp re-prove it.
///
/// Fallback matrix: same as extract_hier's, applied locally — any
/// std::exception (incl. fault::InjectedFault at site "incr.extract")
/// degrades to a flat re-extract of the same netlist; core::Cancelled is
/// rethrown.
[[nodiscard]] Netlist extract_incremental(const layout::Cell& top,
                                          const tech::Tech& technology,
                                          NetlistCache& cache,
                                          const core::EditSet& edits,
                                          Baseline& baseline,
                                          IncrStats* stats = nullptr);

}  // namespace silc::extract
