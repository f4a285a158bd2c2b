// The data-driven DRC core: a rule table interpreter over named layer
// expressions.
//
// LayerTable is the geometry context one check runs against: the seven
// mask-layer RectSets plus a lazy, memoized cache of the technology's
// derived layers (tech::DerivedLayer) — `channel` = poly ∩ diff − buried
// is computed once and shared by the cross-spacing excuse, the contact
// cut-to-gate rule, the transistor overhang rule, and both implant rules.
//
// RuleEngine interprets tech::Tech::drc_rules entry by entry. Each
// DrcRule::Kind has one evaluator; the rule's layer names, distances, and
// violation-name prefix are data, so a new technology (or an extra rule in
// an existing one) is a table edit, not code. The engine itself is
// window-agnostic: flat checking and the incremental footprint re-check
// both build a LayerTable for their region of interest (the whole chip, an
// edit's zone), run the same engine, and apply their own ownership filter
// to the violations.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "drc/drc.hpp"
#include "geom/rectset.hpp"
#include "layout/layout.hpp"
#include "tech/tech.hpp"

namespace silc::drc {

/// Layer expressions whose rules judge whole components (from the rule
/// table: SurroundAll/ContactCut/GateOverhang layers, ImplantGates'
/// channel operand). Windowed checks pull these as complete components.
[[nodiscard]] std::vector<std::string> component_semantic_layers(
    const tech::Tech& t);

/// Mask layers whose rules read component labels (spacing rules on a mask
/// layer: their same-net exemption consults the full-layout partition).
[[nodiscard]] std::vector<tech::Layer> label_read_layers(const tech::Tech& t);

/// Geometry context for one engine run: mask layers + derived-layer cache.
class LayerTable {
 public:
  LayerTable(const std::vector<layout::Shape>& shapes, const tech::Tech& t);
  LayerTable(std::array<geom::RectSet, tech::kNumLayers> masks,
             const tech::Tech& t);
  /// The table of the edited layout `top`, from the table of its pre-edit
  /// version, when the edit changed only the mask layers whose bit
  /// (tech::index) is set in `changed` and only inside `region`. Each
  /// changed mask, and each derived layer base already computed that reads
  /// one, is base's spliced with its edited part inside the region
  /// (RectSet::spliced over the shapes layout::collect_shapes_near gathers
  /// there), and so are their component labels where base had them
  /// (RectSet::splice_labels). Every other layer is copied from base,
  /// sharing its index and labels. The work is proportional to the rects
  /// near the region, plus one copy of each spliced list.
  LayerTable(const LayerTable& base, const layout::Cell& top,
             std::uint32_t changed, const geom::RectSet& region);

  [[nodiscard]] const geom::RectSet& mask(tech::Layer l) const {
    return masks_[tech::index(l)];
  }
  /// Resolve a layer expression name: a mask layer name ("poly") or a
  /// derived layer from the technology's table, evaluated on demand and
  /// memoized. Unknown names throw std::runtime_error.
  const geom::RectSet& get(const std::string& name);

  /// Resolve a mask layer by expression name; false for derived names.
  [[nodiscard]] static bool mask_layer(const std::string& name,
                                       tech::Layer& out);

  /// Connectivity oracle for windowed runs: `ctx` is the table of the
  /// *full* geometry this one is a windowed subset of. Spacing rules then
  /// label shapes by their component in the full layout, so two shapes
  /// connected only through geometry outside the window are still
  /// recognized as one net. The context must outlive this table.
  void set_label_context(LayerTable* ctx) { label_ctx_ = ctx; }

  /// Component labels for this table's canonical rects of mask layer `l`:
  /// the mask's own RectSet::component_labels(), the one labelling sweep
  /// its components() share. With a label context, each rect is looked up
  /// in the full layer and tagged with its global component instead
  /// (memoized here).
  const std::vector<int>& labels(tech::Layer l);

  /// Windowed evidence table: every rect whose closed region meets `win`,
  /// plus one ring of same-layer neighbors (so features widened or
  /// connected by a rect just beyond the window edge keep their evidence),
  /// all unclipped — clipping would fabricate edges and with them phantom
  /// width violations. Component-semantic layers (contact cuts, buried
  /// windows) are pulled as whole components whenever their bbox meets the
  /// window — a truncated component would change meaning, not just extent
  /// — and every layer is then collected out to `halo` around the pulled
  /// region so their cover evidence is complete. The result's label
  /// context is this table, which must outlive it.
  [[nodiscard]] LayerTable window(const geom::RectSet& win, geom::Coord halo);

 private:
  const tech::Tech* tech_;
  std::array<geom::RectSet, tech::kNumLayers> masks_;
  std::map<std::string, geom::RectSet> derived_;
  LayerTable* label_ctx_ = nullptr;
  std::array<std::vector<int>, tech::kNumLayers> labels_;  // with label_ctx_
  std::array<bool, tech::kNumLayers> labels_done_{};
};

/// The rule-table interpreter. Construct once per technology; run against
/// as many LayerTables as needed (per chip, per footprint zone).
class RuleEngine {
 public:
  explicit RuleEngine(const tech::Tech& t);

  /// Evaluate every table rule against `g`, appending violations to `out`
  /// (unsorted; callers canonicalize via Result::canonicalize()).
  void run(LayerTable& g, Result& out) const;
  /// Evaluate only the rules whose index into tech().drc_rules is set in
  /// `rules`.
  void run(LayerTable& g, Result& out, const std::vector<bool>& rules) const;

  /// The Spacing rules on the mask layers whose bit (tech::index) is set in
  /// `layers`: the rules that read component labels there. A report is
  /// attributed to its rule by name only, so any rule that can report under
  /// one of theirs joins them (no stock table has such a pair).
  [[nodiscard]] std::vector<bool> spacing_rules(std::uint32_t layers) const;
  /// True when one of `rules` reports under the violation name `name`.
  [[nodiscard]] bool reports(const std::vector<bool>& rules,
                             const std::string& name) const;

  /// Layer expressions whose rules judge whole components (contact cuts,
  /// buried windows, transistor channels): windowed checks must pull these
  /// as complete components, never truncated.
  [[nodiscard]] std::vector<std::string> component_semantic_layers() const {
    return drc::component_semantic_layers(*tech_);
  }

  /// True when `v` is one rect of a computed region's canonical
  /// decomposition (width, cross-spacing): its extent follows the region
  /// along a whole horizontal run, so a windowed soup decides it exactly
  /// only when it lies well inside the window.
  [[nodiscard]] bool reports_region_rect(const Violation& v) const;

  /// Halo distance for windowed checking (tech::Tech::max_rule_dist()).
  [[nodiscard]] geom::Coord halo() const { return halo_; }
  [[nodiscard]] const tech::Tech& tech() const { return *tech_; }

 private:
  void eval(std::size_t rule, LayerTable& g, Result& out) const;
  void eval_width(const tech::DrcRule& r, LayerTable& g, Result& out) const;
  void eval_spacing(const tech::DrcRule& r, LayerTable& g, Result& out) const;
  void eval_cross_spacing(const tech::DrcRule& r, LayerTable& g,
                          Result& out) const;
  void eval_surround_all(const tech::DrcRule& r, LayerTable& g,
                         Result& out) const;
  void eval_contact_cut(const tech::DrcRule& r, LayerTable& g,
                        Result& out) const;
  void eval_gate_overhang(const tech::DrcRule& r, LayerTable& g,
                          Result& out) const;
  void eval_implant_gates(const tech::DrcRule& r, LayerTable& g,
                          Result& out) const;

  const tech::Tech* tech_;
  geom::Coord halo_;
  std::vector<std::vector<std::string>> names_;  // per rule, report names
  std::vector<std::string> region_rules_;  // violation rule names, sorted
};

/// The ownership test both sides of a zone split share: a violation
/// belongs to the re-checked region when its `where`, grown by one unit,
/// meets the seams' interior. Violations failing it keep their baseline
/// verdict; the rest come from check_seams — so callers filter against
/// the seams check_seams leaves behind.
[[nodiscard]] inline bool in_seams(const geom::RectSet& seams,
                                   const Violation& v) {
  return seams.intersects(v.where.inflated(1));
}

/// Re-verify `seams` against the full geometry `full`: one run of the
/// selected `rules` over one unclipped soup of the seams dilated by `h`
/// (LayerTable::window, labels from `full`). Appends every violation that
/// meets the seams (in_seams) to `out`. The soup is exact within reach of
/// every seam, so no report needs another owner. A region rect
/// (RuleEngine::reports_region_rect) reaching past the seams may be cut
/// short by the soup's edge, so `seams` grows by it and the check repeats
/// until none does. The incremental footprint path runs it over an edit's
/// zone.
void check_seams(LayerTable& full, geom::RectSet& seams, geom::Coord h,
                 const RuleEngine& engine, const std::vector<bool>& rules,
                 std::vector<Violation>& out);

}  // namespace silc::drc
