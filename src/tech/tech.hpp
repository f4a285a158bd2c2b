// Mead & Conway NMOS technology: mask layers and lambda design rules.
//
// The 1979-era silicon compilation target was the multi-project-chip NMOS
// process described in Mead & Conway, "Introduction to VLSI Systems" (the
// paper's reference [1]). All rules are expressed relative to the scale
// parameter lambda. We store coordinates in integer *half-lambda* units so
// the 1.5-lambda implant rules stay on-grid; tech.lambda == 2 coordinate
// units, and helpers below convert.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/geom.hpp"

namespace silc::tech {

using geom::Coord;

/// NMOS mask layers in drawing order. Glass (overglass cuts) is only used on
/// pads.
enum class Layer : std::uint8_t {
  Diff,     // ND: diffusion (green)
  Poly,     // NP: polysilicon (red)
  Contact,  // NC: contact cut (black)
  Metal,    // NM: metal (blue)
  Implant,  // NI: depletion-mode implant (yellow)
  Buried,   // NB: buried contact window (brown)
  Glass,    // NG: overglass cut
};

inline constexpr int kNumLayers = 7;

[[nodiscard]] constexpr std::size_t index(Layer l) {
  return static_cast<std::size_t>(l);
}
[[nodiscard]] const char* name(Layer l);
[[nodiscard]] const char* cif_name(Layer l);
/// Parse a CIF layer name ("ND", "NP", ...); returns false if unknown.
[[nodiscard]] bool layer_from_cif(const std::string& s, Layer& out);

/// True for layers that carry signal connectivity (diff/poly/metal).
[[nodiscard]] constexpr bool is_conductor(Layer l) {
  return l == Layer::Diff || l == Layer::Poly || l == Layer::Metal;
}

/// A named derived layer: `name = op(a, b)` where the operands are mask
/// layer names ("poly", "diff", ...) or derived names defined earlier in
/// the list. The DRC engine evaluates these lazily and memoizes them, so a
/// term like the transistor channel (`poly ∩ diff − buried`) is computed
/// once per checked region and shared by every rule that reads it.
struct DerivedLayer {
  enum class Op : std::uint8_t { Intersect, Subtract, Union };
  std::string name;
  Op op{};
  std::string a, b;
};

/// One entry of the design-rule table. Rules are data: a kind the engine
/// knows how to evaluate, layer-expression operand names, and distances in
/// coordinate units. Violation rule strings are `<name>.<sub>` where <sub>
/// depends on the kind (width, space, notch, surround, ...).
///
/// Operand conventions per kind:
///   Width        layer; dist = minimum drawn width
///   Spacing      layer; dist = minimum space between electrically
///                distinct shapes (also notch depth inside one shape)
///   CrossSpacing layer must stay dist away from operands[0], except
///                within excuse dilated by dist2
///   SurroundAll  every component of layer must be covered by each of
///                operands[...] inflated... i.e. each operand covers the
///                component bbox inflated by dist
///   ContactCut   layer components must be exactly dist x dist squares,
///                covered by operands[0] (metal) and by operands[1] or
///                operands[2] (poly/diff) inflated by dist2, and keep
///                Chebyshev distance dist3 from operands[3] (the channel)
///   GateOverhang layer (the channel) components must be rectangular with
///                operands[0] (poly) overhang dist and operands[1] (diff)
///                overhang dist2 in one of the two orientations
///   ImplantGates layer (implant) must surround operands[0] (channel)
///                components it meets by dist and stay dist2 away from
///                components it does not meet
struct DrcRule {
  enum class Kind : std::uint8_t {
    Width,
    Spacing,
    CrossSpacing,
    SurroundAll,
    ContactCut,
    GateOverhang,
    ImplantGates,
  };
  Kind kind{};
  std::string name;                   // violation prefix, e.g. "metal"
  std::string layer;                  // primary layer expression
  std::vector<std::string> operands;  // secondary expressions (see kinds)
  std::string excuse;                 // CrossSpacing: legalizing region
  geom::Coord dist = 0;
  geom::Coord dist2 = 0;
  geom::Coord dist3 = 0;
};

/// A technology: rule tables in half-lambda coordinate units.
struct Tech {
  std::string name;

  /// Lambda in coordinate units (always 2: coordinates are half-lambdas).
  Coord lambda = 2;
  /// CIF centimicrons per coordinate unit (lambda = 2.5 um -> 125).
  int cif_units_per_coord = 125;

  /// Minimum drawn width per layer (0 = no rule).
  std::array<Coord, kNumLayers> min_width{};
  /// Minimum same-layer spacing between electrically distinct shapes.
  std::array<Coord, kNumLayers> min_space{};

  // Cross-layer and structure rules.
  Coord poly_diff_space = 0;      // poly to unrelated diffusion
  Coord gate_poly_overhang = 0;   // poly extension past channel
  Coord gate_diff_overhang = 0;   // source/drain extension past channel
  Coord contact_size = 0;         // contact cut is square, exactly this size
  Coord contact_surround = 0;     // metal and poly/diff surround of a cut
  Coord contact_to_gate = 0;      // contact cut to transistor channel
  Coord implant_surround = 0;     // implant past depletion channel (1.5 lambda)
  Coord implant_to_gate = 0;      // implant to enhancement channel
  Coord buried_surround = 0;      // poly & diff surround of buried window

  /// The DRC rule table the engine interprets (see DrcRule). New
  /// technologies are data: fill the scalar fields above and call
  /// rebuild_drc_tables() for the standard NMOS-shaped rule set, or write
  /// custom entries directly.
  std::vector<DerivedLayer> drc_derived;
  std::vector<DrcRule> drc_rules;

  [[nodiscard]] Coord lam(int n) const { return n * lambda; }
  /// n half-lambdas (for 1.5-lambda rules: half_lam(3)).
  [[nodiscard]] static constexpr Coord half_lam(int n) { return n; }

  /// Regenerate drc_derived/drc_rules from the scalar rule fields: one
  /// width + spacing entry per layer, poly-to-unrelated-diffusion cross
  /// spacing (excused near gates and buried contacts), contact cut rules,
  /// transistor overhangs, implant rules, and buried-window surround.
  void rebuild_drc_tables();

  /// The largest interaction distance any rule can reach: geometry farther
  /// apart than this cannot affect one another's verdict. Hierarchical
  /// DRC uses it as the halo around interaction windows.
  [[nodiscard]] Coord max_rule_dist() const;

  /// Content hash of the DRC rule set (derived layers + rule table +
  /// lambda): two technologies check identically iff their signatures
  /// match. The verdict cache keys on this, so editing a table
  /// invalidates cached verdicts even under a reused name.
  [[nodiscard]] std::uint64_t drc_signature() const;

  /// Content hash of everything circuit extraction reads from the
  /// technology (today: lambda, which sets the halo of the footprint
  /// path's window fixpoint). The netlist cache keys on
  /// this — mirror of drc_signature() for the extract stage.
  [[nodiscard]] std::uint64_t extract_signature() const;
};

/// The canonical Mead & Conway NMOS rule set.
[[nodiscard]] const Tech& nmos();

}  // namespace silc::tech
