// Rule-table-driven lambda design-rule checker.
//
// Rules are data, not code: tech::Tech carries a table of DrcRule entries
// (width / spacing+notch / cross-layer spacing with excuses / surround /
// contact / overhang / implant kinds) over named layer expressions, and
// tech::DerivedLayer defines terms like the transistor channel
// (`poly ∩ diff − buried`) that a derived-layer cache computes once per
// checked region and shares across every rule that reads them. Adding a
// rule — or a whole technology — is a table edit (see
// tech::Tech::rebuild_drc_tables()); the engine (drc/rules.hpp) stays
// untouched.
//
// Two entry points share that one engine:
//
//   * check_flat: the exhaustive baseline — every rule against the full
//     flattened geometry, accelerated by the geometry kernel's windowed
//     queries (RectSet::covers/overlapping read only the rects the spatial
//     index lists near each probe instead of sweeping whole layers). It is
//     the test oracle and the engine the compiler falls back to when
//     check_hier fails.
//
//   * check_hier: an optional whole-cell verdict cache in front of
//     check_flat. The VerdictCache is keyed by a content hash of the
//     cell's geometry (layout::geometry_hash), so an identical design hits
//     across libraries and, through the persistent store, across
//     processes. Only an IncrementalSession passes one (its undo top hit
//     and load_store warm start); a compile passes none, since a batch
//     serves repeated jobs whole from core::ResultCache. A miss flattens
//     the cell once and runs the rule engine over all of it, not cell by
//     cell: on an assembled chip the seams between instances cover most of
//     the area, and re-checking them costs more than the flat run.
//
// The incremental footprint path (check_incremental) re-checks the zone an
// edit changed with check_seams (drc/rules.hpp): one windowed soup over the
// whole zone, one run of the rule deck. Its windowed checks reproduce the
// flat verdict byte for byte because violations are locally anchored —
// spacing reports the offending gap, area rules one canonical rect each,
// component rules a whole pulled component — so every report is decided by
// evidence the soup is guaranteed to hold; the randomized and
// long-chain harnesses of tests/test_incremental.cpp re-prove it. One
// documented residual, which cannot drop an offence: same-layer
// connectivity reaching a window only through chains of rects that never
// touch it (depth ≥ 2) can over-report — never under-report — width or
// spacing there.
// The checker stays conservative: a clean report is trustworthy on every
// path, and the generators must produce layouts that pass flat checking.
//
// Results are canonical: violations sorted by (rule, location, detail)
// with exact duplicates removed before the kMaxReported display cap.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/incremental.hpp"
#include "geom/rectset.hpp"
#include "layout/layout.hpp"
#include "store/memo.hpp"
#include "tech/tech.hpp"

namespace silc::drc {

struct Violation {
  std::string rule;     // e.g. "metal.width", "poly.space", "contact.size"
  geom::Rect where;     // location of the offence (spacing rules report the
                        // offending gap, area rules one canonical rect,
                        // component rules the component bbox)
  std::string detail;
  /// A deterministic point ON the offending geometry — every rule's
  /// decisive evidence lies within the technology halo of it (or belongs
  /// to a pulled component, see LayerTable::window). Windowed re-checks
  /// key on this, never on the `where` bbox, whose corners can be far
  /// from any geometry. Not part of identity.
  geom::Point anchor{};

  /// "rule at rect (detail)" — the one-line rendering summaries and the
  /// compiler's diagnostics stream share.
  [[nodiscard]] std::string str() const;

  friend bool operator==(const Violation& a, const Violation& b) {
    return a.rule == b.rule && a.where == b.where && a.detail == b.detail;
  }
  /// Canonical order: (rule, where, detail), anchor as a final
  /// tiebreaker so deduplication keeps a deterministic survivor.
  friend bool operator<(const Violation& a, const Violation& b);
};

struct Result {
  /// Violations listed individually by summary() and the compiler's
  /// diagnostics stream before collapsing to "... and N more".
  static constexpr std::size_t kMaxReported = 20;

  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string summary() const;
  /// Count of violations whose rule name starts with `prefix`.
  [[nodiscard]] std::size_t count(const std::string& prefix) const;
  /// Sort violations canonically and drop exact duplicates (overlapping
  /// interaction windows can find the same offence twice). Every
  /// check entry point returns a canonical Result.
  void canonicalize();
};

/// The key a whole-cell verdict is filed under: the rule set's signature
/// plus a content hash of the cell's geometry, with shape count and bbox
/// folded in as collision insurance, so an identical design rebuilt in a
/// different library hits.
struct VerdictKey {
  /// Identifies the rule set by content (tech::Tech::drc_signature()),
  /// not by the free-form technology name — editing a rule table
  /// invalidates cached verdicts even if the name is reused.
  std::uint64_t tech_sig = 0;
  std::uint64_t hash = 0;
  std::uint64_t shapes = 0;
  geom::Rect bbox;

  friend bool operator<(const VerdictKey& a, const VerdictKey& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    if (a.shapes != b.shapes) return a.shapes < b.shapes;
    if (a.tech_sig != b.tech_sig) return a.tech_sig < b.tech_sig;
    return std::tie(a.bbox.x0, a.bbox.y0, a.bbox.x1, a.bbox.y1) <
           std::tie(b.bbox.x0, b.bbox.y0, b.bbox.x1, b.bbox.y1);
  }
};

/// What a VerdictCache stores (store::Memo's Traits): a cell's violations
/// in its own coordinates, in the store's "drc" stream, counted as
/// drc.cache.*, poisoned at fault site "drc.cache.store".
struct VerdictTraits {
  using Key = VerdictKey;
  using Value = std::vector<Violation>;
  static constexpr const char* kStream = "drc";
  static constexpr const char* kCounters = "drc.cache";
  static constexpr const char* kCorruptSite = "drc.cache.store";
  static std::uint64_t checksum(const Value& v);
  static std::uint64_t bytes(const Value& v);
  static void encode_key(store::Writer& w, const Key& k);
  static Key decode_key(store::Reader& r);
  static std::string encode(const Value& v);
  static std::shared_ptr<const Value> decode(const std::string& payload);
};

/// Whole-cell DRC verdicts: an IncrementalSession's undo top hit and its
/// load_store warm start, and the optional cache argument of check_hier.
/// Thread-safe; see store/memo.hpp for poison detection (checksum on hit,
/// evicted and recomputed, counted as drc.cache.poisoned) and persistence.
class VerdictCache : public store::Memo<VerdictTraits> {
 public:
  using Key = VerdictKey;

  /// The whole-cell key check_hier files a cell's verdict under.
  [[nodiscard]] static Key key_for(const layout::Cell& c,
                                   const tech::Tech& technology);

  /// Insert and return the stored verdict (the first writer wins when two
  /// callers race on the same miss).
  std::shared_ptr<const std::vector<Violation>> store(
      const Key& k, std::vector<Violation> violations) {
    return Memo::store(k, std::make_shared<const std::vector<Violation>>(
                              std::move(violations)));
  }
};

/// Check a cell, flattened internally (the exhaustive baseline).
[[nodiscard]] Result check(const layout::Cell& top,
                           const tech::Tech& technology = tech::nmos());

/// Check pre-flattened geometry exhaustively.
[[nodiscard]] Result check_flat(const std::vector<layout::Shape>& shapes,
                                const tech::Tech& technology = tech::nmos());

/// Check a cell through the whole-cell cache: `cache`'s verdict for `top`,
/// or on a miss check_flat over the flattened `top`, stored under its key.
/// With no cache it is check_flat alone (no key is hashed and nothing is
/// stored), still counted as a `drc.cache.misses`.
///
/// Fallback matrix (enforced by core::stage_drc and proved byte-identical
/// by tests/test_fault.cpp):
///
///   failure inside check_hier        | what happens
///   ---------------------------------+------------------------------------
///   any std::exception on the miss   | caught at the compile stage, warned
///     path (incl. an injected fault  |   in diags, re-run as check_flat —
///     at site "drc.hier.cell")       |   same Result, byte for byte
///   poisoned VerdictCache entry      | detected by checksum inside find(),
///                                    |   evicted + recomputed — no
///                                    |   fallback needed, same Result
///   core::Cancelled                  | NEVER degraded — rethrown so the
///                                    |   deadline wins (retrying on the
///                                    |   flat path would only repeat it)
[[nodiscard]] Result check_hier(const layout::Cell& top,
                                const tech::Tech& technology = tech::nmos(),
                                VerdictCache* cache = nullptr);

/// What the incremental entry point did with one edit: which path served
/// it and how much of the baseline survived. Mirrored as incr.* counters.
struct IncrStats {
  std::size_t cells_total = 0;    ///< unique cells under top
  std::size_t cells_reused = 0;   ///< cells_total - cells_reproved
  std::size_t cells_reproved = 0; ///< edited cells, or cache misses (full)
  core::IncrPath path = core::IncrPath::Full;
  std::size_t footprint_rects = 0; ///< re-checked region, canonical rects
};

class LayerTable;  // drc/rules.hpp

/// What an incremental session carries from one DRC verify to the next:
/// the last verdict, and a layer table of the geometry it was proved on
/// (masks and component labels, built lazily — only a footprint verify
/// ever normalizes or labels it). Default-constructed means no baseline.
struct Baseline {
  std::optional<Result> result;
  std::shared_ptr<LayerTable> table;
};

/// Invalidation footprint (see src/core/incremental.hpp conventions): DRC
/// reads GEOMETRY and the DRC RULE SIGNATURE only — check_flat never sees
/// a label. With a baseline, the first matching path serves the check:
///
///   * verbatim — no geometry footprint and no rule change;
///   * top hit — `cache` already holds the edited top's whole verdict;
///   * footprint — Z is the geometry footprint dilated by the seam halo
///     (rule reach + lambda), grown by every spacing-layer rect the edit
///     re-slabbed (a canonical rect present on one side only: its spacing
///     pairs can report gaps far from the edit). Baseline violations
///     clear of Z are kept; check_seams re-checks Z on the live geometry
///     with one windowed run of the rule deck. The verdict is not stored in
///     `cache` ("drc.hier.seam" is its fault and cancellation site).
///     Net guard: only the Spacing rules on mask layers read labels — their
///     same-net exemption consults full-layout components — so a split or
///     join inside Z can flip one of their verdicts anywhere along the nets
///     involved. On each such layer the rects outside Z must group into
///     nets the same way before and after the edit. Where a net's grouping
///     broke (a before-net now on several after-nets, or an after-net
///     gathering several before-nets), that layer's Spacing rules leave the
///     windowed run: each runs once over the whole patched layer, with
///     full-layout labels, and its reports replace all of its baseline
///     reports (attributed by rule, RuleEngine::spacing_rules). Every other
///     rule reads no label and keeps the footprint zone. The path is
///     reported as `guard`;
///   * full — check_hier against `cache` (no baseline or a rule change).
///
/// `baseline` is updated in place to the new verdict. Byte-identity with a
/// cold check_hier/check_flat holds on every path; the randomized and
/// long-chain harnesses in tests/test_incremental.cpp re-prove it.
///
/// Fallback matrix: same as check_hier's, applied locally — any
/// std::exception (incl. fault::InjectedFault at site "incr.drc") degrades
/// to a flat recompute of the same verdict; core::Cancelled is rethrown.
[[nodiscard]] Result check_incremental(const layout::Cell& top,
                                       const tech::Tech& technology,
                                       VerdictCache& cache,
                                       const core::EditSet& edits,
                                       Baseline& baseline,
                                       IncrStats* stats = nullptr);

}  // namespace silc::drc
