#include "drc/rules.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <tuple>

#include "core/cancel.hpp"
#include "obs/obs.hpp"

namespace silc::drc {

using geom::Coord;
using geom::Rect;
using geom::RectSet;
using tech::DerivedLayer;
using tech::DrcRule;
using tech::Layer;
using tech::Tech;

std::vector<std::string> component_semantic_layers(const Tech& t) {
  std::vector<std::string> out;
  for (const DrcRule& r : t.drc_rules) {
    switch (r.kind) {
      case DrcRule::Kind::SurroundAll:
      case DrcRule::Kind::GateOverhang:
      case DrcRule::Kind::ContactCut:
        out.push_back(r.layer);
        break;
      case DrcRule::Kind::ImplantGates:
        out.push_back(r.operands.at(0));
        break;
      default: break;
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Layer> label_read_layers(const Tech& t) {
  std::vector<Layer> out;
  for (const DrcRule& r : t.drc_rules) {
    Layer l{};
    if (r.kind == DrcRule::Kind::Spacing && LayerTable::mask_layer(r.layer, l) &&
        std::find(out.begin(), out.end(), l) == out.end()) {
      out.push_back(l);
    }
  }
  return out;
}

// -------------------------------------------------------------- LayerTable --

LayerTable::LayerTable(const std::vector<layout::Shape>& shapes,
                       const Tech& t)
    : tech_(&t) {
  for (const layout::Shape& s : shapes) {
    masks_[tech::index(s.layer)].add(s.rect);
  }
}

LayerTable::LayerTable(std::array<RectSet, tech::kNumLayers> masks,
                       const Tech& t)
    : tech_(&t), masks_(std::move(masks)) {}

LayerTable::LayerTable(const LayerTable& base, const layout::Cell& top,
                       std::uint32_t changed, const RectSet& region)
    : tech_(base.tech_) {
  // Per spliced layer, RectSet::spliced's `from`.
  std::array<std::vector<int>, tech::kNumLayers> mask_from;
  std::map<std::string, std::vector<int>> derived_from;
  {
    SILC_OBS_SPAN("drc.splice", "drc");
    const auto dirty = [changed](Layer l) {
      return (changed >> tech::index(l) & 1u) != 0;
    };
    const DerivedLayer* none = nullptr;
    const auto def = [&](const std::string& name) {
      for (const DerivedLayer& d : tech_->drc_derived) {
        if (d.name == name) return &d;
      }
      return none;
    };
    const auto reads_dirty = [&](const auto& self,
                                 const std::string& name) -> bool {
      Layer l{};
      if (mask_layer(name, l)) return dirty(l);
      const DerivedLayer* d = def(name);
      return d == nullptr || self(self, d->a) || self(self, d->b);
    };
    // The edited geometry inside `region`, per layer expression: each mask
    // from the post-edit shapes that meet the region, each derived layer by
    // its boolean over those (derived layers are pointwise).
    std::vector<layout::Shape> near;
    layout::collect_shapes_near(top, {}, region, near);
    std::array<std::vector<Rect>, tech::kNumLayers> shapes;
    for (const layout::Shape& s : near) {
      shapes[tech::index(s.layer)].push_back(s.rect);
    }
    std::map<std::string, RectSet> local;
    const auto in_region = [&](const auto& self,
                               const std::string& name) -> const RectSet& {
      const auto seen = local.find(name);
      if (seen != local.end()) return seen->second;
      RectSet v;
      Layer l{};
      if (mask_layer(name, l)) {
        v = RectSet(shapes[tech::index(l)]).intersect(region);
      } else {
        const DerivedLayer& d = *def(name);
        const RectSet& a = self(self, d.a);
        const RectSet& b = self(self, d.b);
        switch (d.op) {
          case DerivedLayer::Op::Intersect: v = a.intersect(b); break;
          case DerivedLayer::Op::Subtract: v = a.subtract(b); break;
          case DerivedLayer::Op::Union: v = a.unite(b); break;
        }
      }
      return local.emplace(name, std::move(v)).first->second;
    };
    // The masks and derived layers changed only inside `region`: splice the
    // edited part into each one that reads a changed layer, copy the rest.
    for (int i = 0; i < tech::kNumLayers; ++i) {
      const Layer l = static_cast<Layer>(i);
      const std::size_t li = tech::index(l);
      masks_[li] = dirty(l) ? base.masks_[li].spliced(
                                  region, in_region(in_region, tech::name(l)),
                                  mask_from[li])
                            : base.masks_[li];
    }
    for (const auto& [name, set] : base.derived_) {
      if (!reads_dirty(reads_dirty, name)) {
        derived_.emplace(name, set);
      } else if (def(name) != nullptr) {
        derived_.emplace(name, set.spliced(region, in_region(in_region, name),
                                           derived_from[name]));
      }
    }
  }
  SILC_OBS_SPAN("drc.relabel", "drc");
  for (int i = 0; i < tech::kNumLayers; ++i) {
    const std::size_t li = tech::index(static_cast<Layer>(i));
    if (!mask_from[li].empty()) {
      masks_[li].splice_labels(base.masks_[li], mask_from[li]);
    }
  }
  for (const auto& [name, from] : derived_from) {
    derived_.at(name).splice_labels(base.derived_.at(name), from);
  }
}

const RectSet& LayerTable::get(const std::string& name) {
  for (int i = 0; i < tech::kNumLayers; ++i) {
    const Layer l = static_cast<Layer>(i);
    if (name == tech::name(l)) return masks_[tech::index(l)];
  }
  const auto cached = derived_.find(name);
  if (cached != derived_.end()) return cached->second;
  for (const DerivedLayer& d : tech_->drc_derived) {
    if (d.name != name) continue;
    const RectSet& a = get(d.a);
    const RectSet& b = get(d.b);
    RectSet v;
    switch (d.op) {
      case DerivedLayer::Op::Intersect: v = a.intersect(b); break;
      case DerivedLayer::Op::Subtract: v = a.subtract(b); break;
      case DerivedLayer::Op::Union: v = a.unite(b); break;
    }
    return derived_.emplace(name, std::move(v)).first->second;
  }
  throw std::runtime_error("drc: unknown layer expression '" + name + "'");
}

bool LayerTable::mask_layer(const std::string& name, Layer& out) {
  for (int i = 0; i < tech::kNumLayers; ++i) {
    const Layer l = static_cast<Layer>(i);
    if (name == tech::name(l)) {
      out = l;
      return true;
    }
  }
  return false;
}

const std::vector<int>& LayerTable::labels(Layer l) {
  const std::size_t li = tech::index(l);
  if (label_ctx_ == nullptr) return masks_[li].component_labels();
  if (labels_done_[li]) return labels_[li];
  // Tag each windowed rect with its component in the full layout. The
  // window's rects are an exact subset of the full canonical list (subset
  // normalization is stable), so binary search in canonical order finds
  // them; anything unmatched falls back to a fresh label.
  const std::vector<Rect>& rects = masks_[li].rects();
  const std::vector<Rect>& full = label_ctx_->mask(l).rects();
  const std::vector<int>& full_labels = label_ctx_->labels(l);
  const auto canon_less = [](const Rect& a, const Rect& b) {
    return std::tie(a.y0, a.x0, a.y1, a.x1) < std::tie(b.y0, b.x0, b.y1, b.x1);
  };
  labels_[li].assign(rects.size(), 0);
  int fresh = static_cast<int>(full.size());
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const auto it =
        std::lower_bound(full.begin(), full.end(), rects[i], canon_less);
    if (it != full.end() && *it == rects[i]) {
      labels_[li][i] = full_labels[static_cast<std::size_t>(it - full.begin())];
    } else {
      labels_[li][i] = fresh++;
    }
  }
  labels_done_[li] = true;
  return labels_[li];
}

LayerTable LayerTable::window(const geom::RectSet& win, Coord halo) {
  std::array<RectSet, tech::kNumLayers> soup;
  // Component-semantic layers first (from the rule table: cuts, buried
  // windows, channels): whole components whose bbox meets the window, so
  // no seam window ever judges a truncated component. A component that
  // does not meet the window is omitted entirely — a truncated variant
  // could anchor a phantom report. Pulled regions widen the collection
  // window by the halo so their cover evidence is complete too.
  std::array<bool, tech::kNumLayers> is_comp_mask{};
  const auto pull = [this, halo](const RectSet& full, const geom::RectSet& w,
                                 std::vector<Rect>& picked) {
    const Rect wb = w.bbox();
    for (const auto& comp : full.components()) {
      Rect bb;
      for (const Rect& r : comp) bb = bb.bound(r);
      bb = bb.inflated(1 + tech_->lambda);
      if (!wb.empty() && !wb.touches(bb)) continue;  // cheap bbox reject
      if (w.intersects(bb)) {
        picked.insert(picked.end(), comp.begin(), comp.end());
      }
    }
  };
  // Derived component layers (the channel) first: their pulled regions
  // widen the window for everything else...
  geom::RectSet pulled;
  for (const std::string& expr : component_semantic_layers(*tech_)) {
    Layer ml{};
    if (mask_layer(expr, ml)) continue;
    std::vector<Rect> picked;
    pull(get(expr), win, picked);
    for (const Rect& r : picked) pulled.add(r);
  }
  geom::RectSet win2 = pulled.empty() ? win : win.unite(pulled.dilated(halo));
  // ...then component mask layers (cuts, buried windows) against the
  // widened window, so e.g. a buried window shaving a pulled channel's far
  // end is present; these layers enter the soup only as whole components.
  for (const std::string& expr : component_semantic_layers(*tech_)) {
    Layer ml{};
    if (!mask_layer(expr, ml)) continue;
    is_comp_mask[tech::index(ml)] = true;
    std::vector<Rect> picked;
    pull(masks_[tech::index(ml)], win2, picked);
    if (!picked.empty()) {
      for (const Rect& r : picked) pulled.add(r);
      soup[tech::index(ml)] = RectSet(std::move(picked));
    }
  }
  if (!pulled.empty()) win2 = win.unite(pulled.dilated(halo));

  const Rect wb2 = win2.bbox().inflated(1);
  for (int i = 0; i < tech::kNumLayers; ++i) {
    if (is_comp_mask[static_cast<std::size_t>(i)]) continue;
    const std::vector<Rect>& full = masks_[static_cast<std::size_t>(i)].rects();
    std::vector<char> in(full.size(), 0);
    std::vector<Rect> picked;
    for (std::size_t j = 0; j < full.size(); ++j) {
      if (!wb2.touches(full[j])) continue;  // cheap bbox reject
      if (win2.intersects(full[j].inflated(1))) {
        in[j] = 1;
        picked.push_back(full[j]);
      }
    }
    if (picked.empty()) continue;
    if (picked.size() < full.size()) {
      const RectSet base(picked);
      const Rect bb = base.bbox().inflated(1);
      for (std::size_t j = 0; j < full.size(); ++j) {
        if (in[j] != 0 || !bb.touches(full[j])) continue;
        if (base.intersects(full[j].inflated(1))) {
          picked.push_back(full[j]);
        }
      }
    }
    soup[static_cast<std::size_t>(i)] = RectSet(std::move(picked));
  }
  LayerTable out(std::move(soup), *tech_);
  out.set_label_context(this);
  return out;
}

// -------------------------------------------------------------- RuleEngine --

namespace {

void add(Result& out, std::string rule, const Rect& where, std::string detail,
         geom::Point anchor) {
  out.violations.push_back(
      {std::move(rule), where, std::move(detail), anchor});
}

// Halving that commutes with translation and Manhattan transforms (plain
// `/ 2` truncates toward zero, which would make a width violation found in
// negative cell-local coordinates land one unit off after the instance
// transform back into chip coordinates).
constexpr Coord floor_div2(Coord a) { return a >= 0 ? a / 2 : -((-a + 1) / 2); }
constexpr Coord ceil_div2(Coord a) { return a >= 0 ? (a + 1) / 2 : -(-a / 2); }

/// Bounding box (and area) of one connected component.
Rect component_bbox(const std::vector<Rect>& comp, std::int64_t* area = nullptr) {
  Rect bb;
  std::int64_t a = 0;
  for (const Rect& r : comp) {
    bb = bb.bound(r);
    a += r.area();
  }
  if (area != nullptr) *area = a;
  return bb;
}

}  // namespace

RuleEngine::RuleEngine(const Tech& t) : tech_(&t), halo_(t.max_rule_dist()) {
  for (const DrcRule& r : t.drc_rules) {
    std::vector<std::string> suffixes;
    switch (r.kind) {
      case DrcRule::Kind::Width: suffixes = {".width"}; break;
      case DrcRule::Kind::Spacing: suffixes = {".space", ".notch"}; break;
      case DrcRule::Kind::CrossSpacing: suffixes = {".space"}; break;
      case DrcRule::Kind::SurroundAll: suffixes = {".surround"}; break;
      case DrcRule::Kind::ContactCut:
        suffixes = {".size", ".metal.surround", ".surround", ".gate.space"};
        break;
      case DrcRule::Kind::GateOverhang: suffixes = {".shape", ".overhang"}; break;
      case DrcRule::Kind::ImplantGates:
        suffixes = {".surround", ".gate.space"};
        break;
    }
    std::vector<std::string>& names = names_.emplace_back();
    for (const std::string& sfx : suffixes) names.push_back(r.name + sfx);
    if (r.kind == DrcRule::Kind::Width || r.kind == DrcRule::Kind::CrossSpacing) {
      region_rules_.push_back(names.front());
    }
  }
  std::sort(region_rules_.begin(), region_rules_.end());
}

bool RuleEngine::reports_region_rect(const Violation& v) const {
  return std::binary_search(region_rules_.begin(), region_rules_.end(), v.rule);
}

std::vector<bool> RuleEngine::spacing_rules(std::uint32_t layers) const {
  const std::vector<DrcRule>& rules = tech_->drc_rules;
  std::vector<bool> out(rules.size(), false);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    Layer l{};
    out[i] = rules[i].kind == DrcRule::Kind::Spacing &&
             LayerTable::mask_layer(rules[i].layer, l) &&
             (layers >> tech::index(l) & 1u) != 0;
  }
  for (bool grew = true; grew;) {
    grew = false;
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (out[i]) continue;
      for (const std::string& n : names_[i]) {
        if (reports(out, n)) {
          out[i] = grew = true;
          break;
        }
      }
    }
  }
  return out;
}

bool RuleEngine::reports(const std::vector<bool>& rules,
                         const std::string& name) const {
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i] && std::find(names_[i].begin(), names_[i].end(), name) !=
                        names_[i].end()) {
      return true;
    }
  }
  return false;
}

void RuleEngine::run(LayerTable& g, Result& out) const {
  for (std::size_t i = 0; i < tech_->drc_rules.size(); ++i) eval(i, g, out);
}

void RuleEngine::run(LayerTable& g, Result& out,
                     const std::vector<bool>& rules) const {
  for (std::size_t i = 0; i < tech_->drc_rules.size(); ++i) {
    if (rules[i]) eval(i, g, out);
  }
}

void RuleEngine::eval(std::size_t i, LayerTable& g, Result& out) const {
  // Rule granularity keeps a deadline responsive even on the flat
  // fallback path, where one run() covers the whole chip.
  core::check_cancel("drc.rule");
  const DrcRule& r = tech_->drc_rules[i];
  [[maybe_unused]] const std::size_t first = out.violations.size();
  switch (r.kind) {
    case DrcRule::Kind::Width: eval_width(r, g, out); break;
    case DrcRule::Kind::Spacing: eval_spacing(r, g, out); break;
    case DrcRule::Kind::CrossSpacing: eval_cross_spacing(r, g, out); break;
    case DrcRule::Kind::SurroundAll: eval_surround_all(r, g, out); break;
    case DrcRule::Kind::ContactCut: eval_contact_cut(r, g, out); break;
    case DrcRule::Kind::GateOverhang: eval_gate_overhang(r, g, out); break;
    case DrcRule::Kind::ImplantGates: eval_implant_gates(r, g, out); break;
  }
  // names_ must list every name a rule reports under: spacing_rules and
  // reports() attribute reports by it.
  assert(std::all_of(
      out.violations.begin() + static_cast<std::ptrdiff_t>(first),
      out.violations.end(), [&](const Violation& v) {
        return std::find(names_[i].begin(), names_[i].end(), v.rule) !=
               names_[i].end();
      }));
}

void RuleEngine::eval_width(const DrcRule& r, LayerTable& g,
                            Result& out) const {
  const Coord w = r.dist;
  const RectSet& s = g.get(r.layer);
  if (w <= 0 || s.empty()) return;
  // In doubled coordinates every feature has even width, so "width < w"
  // is exactly "width <= 2w - 2 in doubled space", which morphological
  // opening with radius w-1 detects with no boundary ambiguity.
  //
  // The opening runs one connected component at a time: an eroding square
  // inside the layer lies inside one component, so the opening never spans
  // two, and each component's sweeps see only its own bands. Components
  // share no edge, so the canonical rects of the whole thin region are the
  // union of each component's.
  for (const std::vector<Rect>& comp : s.components()) {
    // A one-rect component is its own opening or wholly thin: its
    // erosion is a rect (dilating back to it) or empty, so it is thin
    // exactly when narrower than w, and the report is the rect itself.
    if (comp.size() == 1) {
      const Rect& t = comp.front();
      if (t.min_dim() < w) {
        add(out, r.name + ".width", t, "feature narrower than minimum width",
            t.ll());
      }
      continue;
    }
    const RectSet c2 = RectSet(comp).scaled(2);
    const RectSet thin = c2.subtract(c2.eroded(w - 1).dilated(w - 1));
    // One violation per canonical rect of the thin region: thinness is a
    // w-local property, so each report (and its anchor, which lies on the
    // feature) is decided by geometry within the halo.
    for (const Rect& t : thin.rects()) {
      const Rect where{floor_div2(t.x0), floor_div2(t.y0), ceil_div2(t.x1),
                       ceil_div2(t.y1)};
      add(out, r.name + ".width", where, "feature narrower than minimum width",
          where.ll());
    }
  }
}

void RuleEngine::eval_spacing(const DrcRule& r, LayerTable& g,
                              Result& out) const {
  const Coord s = r.dist;
  const RectSet& set = g.get(r.layer);
  if (s <= 0 || set.empty()) return;
  const std::vector<Rect>& rects = set.rects();
  // Electrical connectivity: per-table labels, routed through the label
  // context (global components) when this table is a windowed subset.
  Layer ml{};
  const bool is_mask = LayerTable::mask_layer(r.layer, ml);
  std::vector<int> local_labels;
  if (!is_mask) local_labels = geom::label_components(rects);
  const std::vector<int>& labels = is_mask ? g.labels(ml) : local_labels;

  // Sweep by x: only rect pairs within `s` in x can violate.
  std::vector<int> order(rects.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&rects](int a, int b) {
    return rects[static_cast<std::size_t>(a)].x0 <
           rects[static_cast<std::size_t>(b)].x0;
  });
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Rect& a = rects[static_cast<std::size_t>(order[i])];
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      const Rect& b = rects[static_cast<std::size_t>(order[j])];
      if (b.x0 - a.x1 >= s) break;
      const Coord gx = std::max(a.x0, b.x0) - std::min(a.x1, b.x1);
      const Coord gy = std::max(a.y0, b.y0) - std::min(a.y1, b.y1);
      if (gx >= s || gy >= s) continue;
      const bool same = labels[static_cast<std::size_t>(order[i])] ==
                        labels[static_cast<std::size_t>(order[j])];
      // The offending gap: per axis, the overlap range when the rects
      // overlap, the separation range when they are apart. Every point of
      // it is within the rule distance of both rects, so the report (and
      // the anchor) stays local to the offence — a.bound(b) would not.
      const Rect gap = geom::rect_from_corners(
          {std::max(a.x0, b.x0), std::max(a.y0, b.y0)},
          {std::min(a.x1, b.x1), std::min(a.y1, b.y1)});
      if (!same) {
        if (gx >= 0 || gy >= 0) {  // disjoint regions too close
          add(out, r.name + ".space", gap, "separation below minimum",
              gap.ll());
        }
        continue;
      }
      // Same electrical shape: a parallel-edge gap must be filled by the
      // shape itself, otherwise it is a notch.
      if ((gx > 0 && gy < 0) || (gy > 0 && gx < 0)) {
        if (!set.covers(gap)) {
          add(out, r.name + ".notch", gap,
              "notch narrower than minimum spacing", gap.ll());
        }
      }
    }
  }
}

void RuleEngine::eval_cross_spacing(const DrcRule& r, LayerTable& g,
                                    Result& out) const {
  const Coord s = r.dist;
  const RectSet& a = g.get(r.layer);
  const RectSet& b = g.get(r.operands.at(0));
  if (s <= 0 || a.empty() || b.empty()) return;
  // `layer` within s of `other` is legal only inside the excuse region
  // (morphological form of the classic rule: overhang regions cross the
  // diffusion edge at distance zero by design).
  const RectSet excuse = g.get(r.excuse).dilated(r.dist2);
  const RectSet near = a.intersect(b.dilated(s)).subtract(a.intersect(b));
  const RectSet bad = near.subtract(excuse);
  // Per canonical rect (not per component): each report is decided by
  // geometry within dist + dist2 of itself, keeping it windowing-safe.
  for (const Rect& br : bad.rects()) {
    add(out, r.name + ".space", br,
        r.layer + " too close to unrelated " + r.operands.at(0), br.ll());
  }
}

void RuleEngine::eval_surround_all(const DrcRule& r, LayerTable& g,
                                   Result& out) const {
  const RectSet& set = g.get(r.layer);
  if (set.empty()) return;
  for (const auto& comp : set.components()) {
    const Rect bb = component_bbox(comp);
    bool covered = true;
    for (const std::string& cover : r.operands) {
      covered = covered && g.get(cover).covers(bb.inflated(r.dist));
    }
    if (!covered) {
      add(out, r.name + ".surround", bb,
          r.name + " window must be covered by " + r.operands.front() +
              " and " + r.operands.back(),
          comp.front().ll());
    }
  }
}

void RuleEngine::eval_contact_cut(const DrcRule& r, LayerTable& g,
                                  Result& out) const {
  const RectSet& cuts = g.get(r.layer);
  if (cuts.empty()) return;
  const Coord size = r.dist;
  const Coord sur = r.dist2;
  const RectSet& metal = g.get(r.operands.at(0));
  const RectSet& poly = g.get(r.operands.at(1));
  const RectSet& diff = g.get(r.operands.at(2));
  const RectSet& gates = g.get(r.operands.at(3));
  for (const auto& comp : cuts.components()) {
    std::int64_t area = 0;
    const Rect bb = component_bbox(comp, &area);
    const geom::Point anchor = comp.front().ll();
    if (bb.width() != size || bb.height() != size || area != size * size) {
      add(out, r.name + ".size", bb, "contact cut must be exactly 2x2 lambda",
          anchor);
      continue;
    }
    if (!metal.covers(bb.inflated(sur))) {
      add(out, r.name + ".metal.surround", bb,
          "metal must surround cut by 1 lambda", anchor);
    }
    const bool on_poly = poly.covers(bb.inflated(sur));
    const bool on_diff = diff.covers(bb.inflated(sur));
    if (!on_poly && !on_diff) {
      add(out, r.name + ".surround", bb,
          "cut must be surrounded by poly or diffusion by 1 lambda", anchor);
    }
    // Cut to transistor channel: Chebyshev distance below dist3. A channel
    // rect violates exactly when it overlaps the cut bbox inflated by the
    // rule distance, which the windowed query answers without scanning the
    // whole channel layer.
    for (const Rect& ch : gates.overlapping(bb.inflated(r.dist3))) {
      if (ch.overlaps(bb.inflated(r.dist3))) {
        add(out, r.name + ".gate.space", bb.bound(ch),
            "cut too close to a gate", anchor);
      }
    }
  }
}

void RuleEngine::eval_gate_overhang(const DrcRule& r, LayerTable& g,
                                    Result& out) const {
  const Coord ov_p = r.dist;
  const Coord ov_d = r.dist2;
  const RectSet& channels = g.get(r.layer);
  if (channels.empty()) return;
  const RectSet& poly = g.get(r.operands.at(0));
  const RectSet& diff = g.get(r.operands.at(1));
  for (const auto& comp : channels.components()) {
    std::int64_t area = 0;
    const Rect ch = component_bbox(comp, &area);
    const geom::Point anchor = comp.front().ll();
    if (area != ch.area()) {
      add(out, r.name + ".shape", ch, "non-rectangular transistor channel",
          anchor);
      continue;
    }
    const bool horizontal =  // poly runs left-right across a vertical strip
        poly.covers(ch.inflated(ov_p, 0)) && diff.covers(ch.inflated(0, ov_d));
    const bool vertical =
        poly.covers(ch.inflated(0, ov_p)) && diff.covers(ch.inflated(ov_d, 0));
    if (!horizontal && !vertical) {
      add(out, r.name + ".overhang", ch,
          "poly/diffusion must extend 2 lambda past the channel", anchor);
    }
  }
}

void RuleEngine::eval_implant_gates(const DrcRule& r, LayerTable& g,
                                    Result& out) const {
  const RectSet& implant = g.get(r.layer);
  const RectSet& channels = g.get(r.operands.at(0));
  if (channels.empty()) return;
  for (const auto& comp : channels.components()) {
    const Rect ch = component_bbox(comp);
    const geom::Point anchor = comp.front().ll();
    if (implant.intersects(ch)) {
      // Depletion gate: implant must surround the channel fully.
      if (!implant.covers(ch.inflated(r.dist))) {
        add(out, r.name + ".surround", ch,
            "implant must surround depletion gate by 1.5 lambda", anchor);
      }
    } else {
      // Enhancement gate: implant must keep its distance.
      if (implant.intersects(ch.inflated(r.dist2))) {
        add(out, r.name + ".gate.space", ch,
            "implant too close to enhancement gate", anchor);
      }
    }
  }
}

}  // namespace silc::drc
