// NMOS PLA generator: a logic personality in, design-rule-clean artwork out.
//
// Structure (Mead & Conway NOR-NOR PLA):
//
//        +------------------------------------------+
//        |  input drivers (true + inverted columns)  |   <- driver strip
//        +------------------------------------------+
//   VDD  |  AND plane: product rows x input columns | OR staircase
//   rail |  (row = NOR of selected input literals)   | (rows turn into
//   with |------------------------------------------| product columns)
//   row  |  output rows x product columns            |
//  pull- |  (out = NOR of selected products)         |-> outputs (metal)
//   ups  +------------------------------------------+
//        |  bottom GND rail (contacts every column)  |
//        +------------------------------------------+
//
// Because both planes are NOR arrays, the generator programs the *complement*
// cover of each output: out_k = NOR(products of cover(~f_k)) = f_k. The
// convenience entry point below does the complementing and minimizing; the
// personality-level entry point is exposed for benchmarks and tests.
//
// Every row pullup is a depletion device whose gate is tied to the row with
// a buried contact; crosspoints are enhancement pulldowns from vertical
// ground-rail diffusion fingers.
#pragma once

#include "layout/layout.hpp"
#include "logic/logic.hpp"

namespace silc::pla {

struct PlaOptions {
  std::string name = "pla";
};

struct PlaStats {
  int num_inputs = 0;
  int num_outputs = 0;
  int num_terms = 0;
  std::size_t crosspoints = 0;      // programmed devices
  std::int64_t width = 0, height = 0;  // bounding box, half-lambda units
  [[nodiscard]] std::int64_t area() const { return width * height; }
};

struct PlaResult {
  layout::Cell* cell = nullptr;
  PlaStats stats;
  logic::PlaTerms personality;  // complement covers actually programmed
};

/// Generate from a personality whose terms are covers of the *complement*
/// of each output (out = NOR of its selected terms).
PlaResult generate_from_personality(layout::Library& lib,
                                    const logic::PlaTerms& personality,
                                    const PlaOptions& options = {});

/// Generate a PLA computing `f` (complements + minimizes internally).
/// Ports: in<i> (poly, top edge), out<k> (metal, right edge), vdd, gnd.
PlaResult generate(layout::Library& lib, const logic::MultiFunction& f,
                   const PlaOptions& options = {});

/// The complement of every output (One <-> Zero, DontCare kept).
[[nodiscard]] logic::MultiFunction complement(const logic::MultiFunction& f);

}  // namespace silc::pla
