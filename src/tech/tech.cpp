#include "tech/tech.hpp"

#include "geom/fnv.hpp"

namespace silc::tech {

const char* name(Layer l) {
  switch (l) {
    case Layer::Diff: return "diff";
    case Layer::Poly: return "poly";
    case Layer::Contact: return "contact";
    case Layer::Metal: return "metal";
    case Layer::Implant: return "implant";
    case Layer::Buried: return "buried";
    case Layer::Glass: return "glass";
  }
  return "?";
}

const char* cif_name(Layer l) {
  switch (l) {
    case Layer::Diff: return "ND";
    case Layer::Poly: return "NP";
    case Layer::Contact: return "NC";
    case Layer::Metal: return "NM";
    case Layer::Implant: return "NI";
    case Layer::Buried: return "NB";
    case Layer::Glass: return "NG";
  }
  return "??";
}

bool layer_from_cif(const std::string& s, Layer& out) {
  for (int i = 0; i < kNumLayers; ++i) {
    const Layer l = static_cast<Layer>(i);
    if (s == cif_name(l)) {
      out = l;
      return true;
    }
  }
  return false;
}

void Tech::rebuild_drc_tables() {
  drc_derived.clear();
  drc_rules.clear();

  // Transistor channels: poly over diff, except where a buried contact
  // merges the two layers; the excuse region for poly near diffusion.
  drc_derived.push_back({"gate_overlap", DerivedLayer::Op::Intersect, "poly", "diff"});
  drc_derived.push_back({"channel", DerivedLayer::Op::Subtract, "gate_overlap", "buried"});
  drc_derived.push_back({"gate_excuse", DerivedLayer::Op::Union, "channel", "buried"});

  for (int i = 0; i < kNumLayers; ++i) {
    const Layer l = static_cast<Layer>(i);
    if (min_width[index(l)] > 0) {
      drc_rules.push_back({DrcRule::Kind::Width, tech::name(l), tech::name(l), {}, "",
                           min_width[index(l)], 0, 0});
    }
    if (min_space[index(l)] > 0) {
      drc_rules.push_back({DrcRule::Kind::Spacing, tech::name(l), tech::name(l), {}, "",
                           min_space[index(l)], 0, 0});
    }
  }
  if (poly_diff_space > 0) {
    drc_rules.push_back({DrcRule::Kind::CrossSpacing, "poly.diff", "poly",
                         {"diff"}, "gate_excuse", poly_diff_space,
                         poly_diff_space + lambda, 0});
  }
  if (contact_size > 0) {
    drc_rules.push_back({DrcRule::Kind::ContactCut, "contact", "contact",
                         {"metal", "poly", "diff", "channel"}, "",
                         contact_size, contact_surround, contact_to_gate});
  }
  if (gate_poly_overhang > 0 || gate_diff_overhang > 0) {
    drc_rules.push_back({DrcRule::Kind::GateOverhang, "gate", "channel",
                         {"poly", "diff"}, "", gate_poly_overhang,
                         gate_diff_overhang, 0});
  }
  if (implant_surround > 0 || implant_to_gate > 0) {
    drc_rules.push_back({DrcRule::Kind::ImplantGates, "implant", "implant",
                         {"channel"}, "", implant_surround, implant_to_gate,
                         0});
  }
  drc_rules.push_back({DrcRule::Kind::SurroundAll, "buried", "buried",
                       {"poly", "diff"}, "", buried_surround, 0, 0});
}

Coord Tech::max_rule_dist() const {
  Coord m = lambda;
  for (const DrcRule& r : drc_rules) {
    // Conservative per-rule reach: every distance the evaluator may add
    // on top of another (cross-spacing dilates the excuse by dist2 on top
    // of the dist-dilated proximity region).
    m = std::max(m, r.dist + r.dist2 + r.dist3);
  }
  return m + lambda;
}

std::uint64_t Tech::drc_signature() const {
  geom::Fnv f;
  f.mix(static_cast<std::uint64_t>(lambda));
  f.mix(drc_derived.size());
  for (const DerivedLayer& d : drc_derived) {
    f.mix_str(d.name);
    f.mix(static_cast<std::uint64_t>(d.op));
    f.mix_str(d.a);
    f.mix_str(d.b);
  }
  f.mix(drc_rules.size());
  for (const DrcRule& r : drc_rules) {
    f.mix(static_cast<std::uint64_t>(r.kind));
    f.mix_str(r.name);
    f.mix_str(r.layer);
    f.mix(r.operands.size());
    for (const std::string& o : r.operands) f.mix_str(o);
    f.mix_str(r.excuse);
    f.mix(static_cast<std::uint64_t>(r.dist));
    f.mix(static_cast<std::uint64_t>(r.dist2));
    f.mix(static_cast<std::uint64_t>(r.dist3));
  }
  return f.h;
}

std::uint64_t Tech::extract_signature() const {
  geom::Fnv f;
  f.mix(static_cast<std::uint64_t>(lambda));
  return f.h;
}

const Tech& nmos() {
  static const Tech t = [] {
    Tech t;
    t.name = "nmos-mead-conway";
    t.lambda = 2;
    t.cif_units_per_coord = 125;  // lambda = 2.5 um

    auto& w = t.min_width;
    auto& s = t.min_space;
    const auto lam = [&t](int n) { return t.lam(n); };

    w[index(Layer::Diff)] = lam(2);
    w[index(Layer::Poly)] = lam(2);
    w[index(Layer::Contact)] = lam(2);
    w[index(Layer::Metal)] = lam(3);
    w[index(Layer::Implant)] = lam(2);
    w[index(Layer::Buried)] = lam(2);
    w[index(Layer::Glass)] = lam(10);

    s[index(Layer::Diff)] = lam(3);
    s[index(Layer::Poly)] = lam(2);
    s[index(Layer::Contact)] = lam(2);
    s[index(Layer::Metal)] = lam(3);
    s[index(Layer::Implant)] = lam(2);
    s[index(Layer::Buried)] = lam(2);
    s[index(Layer::Glass)] = lam(10);

    t.poly_diff_space = lam(1);
    t.gate_poly_overhang = lam(2);
    t.gate_diff_overhang = lam(2);
    t.contact_size = lam(2);
    t.contact_surround = lam(1);
    t.contact_to_gate = lam(2);
    t.implant_surround = Tech::half_lam(3);  // 1.5 lambda
    t.implant_to_gate = Tech::half_lam(3);   // 1.5 lambda
    // Simplification of the asymmetric Mead & Conway buried rules: the
    // window itself must be fully covered by poly AND diffusion (surround
    // 0); the extraction treats buried poly-diff overlap as a connection,
    // not a channel. This keeps gate-source ties (PLA pullups) free of
    // parasitic sliver channels.
    t.buried_surround = 0;
    t.rebuild_drc_tables();
    return t;
  }();
  return t;
}

}  // namespace silc::tech
