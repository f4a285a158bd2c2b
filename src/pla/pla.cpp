#include "pla/pla.hpp"

#include <cassert>
#include <stdexcept>

#include "cells/cells.hpp"
#include "obs/obs.hpp"

namespace silc::pla {

using geom::Coord;
using geom::Orient;
using geom::Rect;
using geom::Transform;
using layout::Cell;
using layout::Library;
using tech::Layer;

namespace {

// Grid constants (half-lambda units). See pla.hpp for the floor plan.
constexpr Coord kRowPitch = 16;     // product/output row pitch (8 lambda)
constexpr Coord kColPitch = 28;     // one polarity / product column (14 lambda)
constexpr Coord kInputPitch = 2 * kColPitch;
constexpr Coord kPullupX0 = -1;     // VDD rail left edge
constexpr Coord kRowMetalX0 = 35;   // row metal starts at the pullup contact
constexpr Coord kAndX0 = 48;        // first input tile

// A 2x2-lambda cut with 4x4 pads, as in cells.cpp.
void cut_with_pads(Cell& c, Coord x, Coord y, Layer conductor) {
  c.add_rect(Layer::Contact, {x, y, x + 4, y + 4});
  c.add_rect(Layer::Metal, {x - 2, y - 2, x + 6, y + 6});
  c.add_rect(conductor, {x - 2, y - 2, x + 6, y + 6});
}

// Depletion row pullup with buried gate tie, at row base y=r. Leaves the
// row's metal starting pad at [35,43]x[r-1,r+7]; VDD cut pads at [-1,7].
void row_pullup(Cell& c, Coord r) {
  cut_with_pads(c, 1, r + 1, Layer::Diff);        // VDD contact
  c.add_rect(Layer::Diff, {3, r + 1, 33, r + 5});  // channel + source diff
  c.add_rect(Layer::Poly, {13, r - 3, 41, r + 9});  // gate + tie tail
  c.add_rect(Layer::Buried, {29, r + 1, 33, r + 5});  // gate-source tie
  c.add_rect(Layer::Implant, {10, r - 2, 32, r + 8});
  cut_with_pads(c, 37, r + 1, Layer::Poly);       // row metal pickup
}

// Crosspoint: enhancement pulldown from the vertical ground rail at
// rail_x, gated by the poly column at rail_x+8, contacting the row metal
// at rail_x+16. Row base y=r.
void crosspoint(Cell& c, Coord rail_x, Coord r) {
  c.add_rect(Layer::Diff, {rail_x, r + 1, rail_x + 16, r + 5});
  cut_with_pads(c, rail_x + 16, r + 1, Layer::Diff);
}

}  // namespace

logic::MultiFunction complement(const logic::MultiFunction& f) {
  logic::MultiFunction out;
  out.num_inputs = f.num_inputs;
  for (const logic::TruthTable& t : f.outputs) {
    logic::TruthTable c(t.num_inputs());
    for (std::uint32_t r = 0; r < t.size(); ++r) {
      switch (t.get(r)) {
        case logic::Tri::Zero: c.set(r, logic::Tri::One); break;
        case logic::Tri::One: c.set(r, logic::Tri::Zero); break;
        case logic::Tri::DontCare: c.set(r, logic::Tri::DontCare); break;
      }
    }
    out.outputs.push_back(std::move(c));
  }
  return out;
}

PlaResult generate_from_personality(Library& lib,
                                    const logic::PlaTerms& personality,
                                    const PlaOptions& options) {
  const int ni = personality.num_inputs;
  const int no = static_cast<int>(personality.output_terms.size());
  const int nt = static_cast<int>(personality.terms.size());
  if (ni <= 0 || ni > 20) throw std::invalid_argument("PLA needs 1..20 inputs");
  if (no <= 0) throw std::invalid_argument("PLA needs at least one output");
  if (nt <= 0) throw std::invalid_argument("PLA needs at least one term");

  Cell& c = lib.create(options.name);
  PlaResult result;
  result.cell = &c;
  result.personality = personality;
  PlaStats& st = result.stats;
  st.num_inputs = ni;
  st.num_outputs = no;
  st.num_terms = nt;

  // Vertical span bookkeeping.
  const Coord out_row0 = 0;                        // output row k base: k*16
  const Coord prod_row0 = no * kRowPitch;          // product row j base
  const Coord r_top = prod_row0 + (nt - 1) * kRowPitch;
  const Coord dy0 = r_top + kRowPitch;             // driver strip bottom
  const Coord top = dy0 + 54;                      // driver strip height
  const Coord or_x0 = kAndX0 + ni * kInputPitch;   // first product column
  const Coord rx = or_x0 + nt * kColPitch;         // right edge

  const auto prod_row = [&](int j) { return prod_row0 + j * kRowPitch; };
  const auto out_row = [&](int k) { return out_row0 + k * kRowPitch; };
  const auto input_x = [&](int i) { return kAndX0 + i * kInputPitch; };
  const auto prod_x = [&](int j) { return or_x0 + j * kColPitch; };

  // ---- row pullups (all rows share the left VDD rail) ----
  for (int j = 0; j < nt; ++j) row_pullup(c, prod_row(j));
  for (int k = 0; k < no; ++k) row_pullup(c, out_row(k));
  c.add_rect(Layer::Metal, {kPullupX0, -1, kPullupX0 + 8, dy0 + 6});  // VDD rail

  // ---- row metal ----
  for (int j = 0; j < nt; ++j) {
    // Product row: from its pullup to its staircase pad in the OR region.
    c.add_rect(Layer::Metal,
               {kRowMetalX0, prod_row(j), prod_x(j) + 14, prod_row(j) + 6});
  }
  for (int k = 0; k < no; ++k) {
    // Output row: all the way to the right edge.
    c.add_rect(Layer::Metal, {kRowMetalX0, out_row(k), rx, out_row(k) + 6});
  }

  // ---- input columns, ground rails, drivers ----
  Cell& driver = cells::inverter(lib, {.pullup_len = 8,
                                       .name = options.name + "_drv"});
  for (int i = 0; i < ni; ++i) {
    const Coord x = input_x(i);
    // Two vertical ground-rail diffusions, contacted to the bottom rail.
    for (const Coord gx : {x, x + kColPitch}) {
      c.add_rect(Layer::Diff, {gx, -13, gx + 4, r_top + 7});
      cut_with_pads(c, gx, -15, Layer::Diff);
    }
    // True column: straight poly from the top edge down through the
    // product rows.
    c.add_rect(Layer::Poly, {x + 8, prod_row0 - 3, x + 12, top});
    // The driver inverter, mirrored so VDD faces the array; its input is
    // picked up from the true column by a short poly wire, and its
    // output-tied pullup-gate pad abuts the complement column directly.
    c.add_instance(driver, {Orient::MX, {x + 20, dy0 + 53}}, "drv" + std::to_string(i));
    c.add_rect(Layer::Poly, {x + 8, dy0 + 40, x + 18, dy0 + 44});
    c.add_rect(Layer::Poly, {x + 36, prod_row0 - 3, x + 40, dy0 + 30});

    c.add_port("in" + std::to_string(i), Layer::Poly,
               {x + 8, top - 4, x + 12, top});
    c.add_label("in" + std::to_string(i), Layer::Poly, {x + 10, top - 2});
  }
  // Driver strip rails (the mirrored inverter puts VDD at the strip bottom).
  c.add_rect(Layer::Metal, {kPullupX0, dy0, input_x(ni - 1) + 38, dy0 + 6});
  c.add_rect(Layer::Metal, {-15, dy0 + 47, input_x(ni - 1) + 38, dy0 + 53});

  // ---- ground distribution ----
  c.add_rect(Layer::Metal, {-15, -17, rx, -9});          // bottom GND rail
  c.add_rect(Layer::Metal, {-15, -17, -9, dy0 + 53});    // left GND trunk

  // ---- AND plane crosspoints ----
  // Cube literal x_i=1 -> device on the complement column; x_i=0 -> true.
  for (int j = 0; j < nt; ++j) {
    const logic::Cube& cube = personality.terms[static_cast<std::size_t>(j)];
    for (int i = 0; i < ni; ++i) {
      const std::uint32_t bit = 1u << i;
      if ((cube.mask & bit) == 0) continue;
      const bool want_one = (cube.value & bit) != 0;
      const Coord rail_x = want_one ? input_x(i) + kColPitch : input_x(i);
      crosspoint(c, rail_x, prod_row(j));
      ++st.crosspoints;
    }
  }

  // ---- OR region: staircase + product columns + ground rails ----
  for (int j = 0; j < nt; ++j) {
    const Coord px = prod_x(j);
    const Coord r = prod_row(j);
    // Ground rail for output-row crosspoints under this product column.
    c.add_rect(Layer::Diff, {px, -13, px + 4, out_row(no - 1) + 7});
    cut_with_pads(c, px, -15, Layer::Diff);
    // Product column and its staircase contact from the row metal.
    c.add_rect(Layer::Poly, {px + 8, -3, px + 12, r + 7});
    cut_with_pads(c, px + 8, r + 1, Layer::Poly);
  }
  for (int k = 0; k < no; ++k) {
    for (const int j : personality.output_terms[static_cast<std::size_t>(k)]) {
      crosspoint(c, prod_x(j), out_row(k));
      ++st.crosspoints;
    }
    c.add_port("out" + std::to_string(k), Layer::Metal,
               {rx - 4, out_row(k), rx, out_row(k) + 6});
    c.add_label("out" + std::to_string(k), Layer::Metal, {rx - 2, out_row(k) + 3});
  }

  c.add_port("vdd", Layer::Metal, {kPullupX0, dy0, kPullupX0 + 8, dy0 + 6});
  c.add_port("gnd", Layer::Metal, {-15, -17, rx, -9});
  c.add_label("Vdd", Layer::Metal, {kPullupX0 + 4, dy0 + 3});
  c.add_label("GND", Layer::Metal, {0, -13});

  const Rect bb = c.bbox();
  st.width = bb.width();
  st.height = bb.height();
  return result;
}

PlaResult generate(Library& lib, const logic::MultiFunction& f,
                   const PlaOptions& options) {
  logic::PlaTerms personality;
  {
    SILC_OBS_SPAN("pla.minimize:" + options.name, "pla");
    personality = logic::minimize_multi(complement(f));
  }
  return generate_from_personality(lib, personality, options);
}

}  // namespace silc::pla
