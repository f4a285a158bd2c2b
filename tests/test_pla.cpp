// PLA generator tests: for a range of programmed functions the artwork must
// be design-rule clean, extract to the expected device population, and —
// the silicon-compilation acid test — switch-level simulate to exactly the
// programmed truth table on every input combination. The counter12
// personality is also pinned as text in fixtures/golden/counter12.pla, so
// any change to the minimizer's covers (terms, their order, or the
// per-output term lists) shows up as a line diff. To regenerate after an
// *intentional* change:
//   SILC_REGEN_GOLDEN=1 ./test_pla --gtest_filter='Pla.Counter12PersonalityGolden'
#include <gtest/gtest.h>

#include <functional>

#include "design_sources.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "golden.hpp"
#include "logic/logic.hpp"
#include "pla/pla.hpp"
#include "rtl/rtl.hpp"
#include "swsim/swsim.hpp"
#include "synth/synth.hpp"

namespace silc {
namespace {

using logic::MultiFunction;
using logic::TruthTable;

MultiFunction make_function(
    int n, const std::vector<std::function<bool(std::uint32_t)>>& fns) {
  MultiFunction f;
  f.num_inputs = n;
  for (const auto& fn : fns) f.outputs.push_back(TruthTable::from_function(n, fn));
  return f;
}

// Full verification loop: generate -> DRC -> extract -> simulate all rows.
void verify_pla(const MultiFunction& f, const std::string& name) {
  layout::Library lib;
  const pla::PlaResult result = pla::generate(lib, f, {.name = name});
  ASSERT_NE(result.cell, nullptr);

  const drc::Result d = drc::check(*result.cell);
  EXPECT_TRUE(d.ok()) << name << ": " << d.summary();

  const extract::Netlist nl = extract::extract(*result.cell);
  for (const auto& w : nl.warnings) ADD_FAILURE() << name << ": " << w;

  // Devices: one enhancement per crosspoint + per driver, one depletion
  // pullup per row + per driver.
  const std::size_t rows = result.personality.terms.size() + f.outputs.size();
  const std::size_t drivers = static_cast<std::size_t>(f.num_inputs);
  EXPECT_EQ(nl.enhancement_count(), result.stats.crosspoints + drivers);
  EXPECT_EQ(nl.depletion_count(), rows + drivers);

  swsim::Simulator sim(nl);
  for (std::uint32_t row = 0; row < (1u << f.num_inputs); ++row) {
    for (int i = 0; i < f.num_inputs; ++i) {
      sim.set("in" + std::to_string(i), ((row >> i) & 1u) != 0);
    }
    ASSERT_TRUE(sim.settle()) << name << " row " << row;
    for (std::size_t k = 0; k < f.outputs.size(); ++k) {
      const logic::Tri want = f.outputs[k].get(row);
      if (want == logic::Tri::DontCare) continue;
      EXPECT_EQ(sim.get("out" + std::to_string(k)),
                swsim::from_bool(want == logic::Tri::One))
          << name << " out" << k << " row " << row;
    }
  }
}

TEST(Pla, Inverter1x1) {
  verify_pla(make_function(1, {[](std::uint32_t r) { return r == 0; }}),
             "pla_not");
}

TEST(Pla, Identity1x1) {
  verify_pla(make_function(1, {[](std::uint32_t r) { return r == 1; }}),
             "pla_id");
}

TEST(Pla, AndOrNand) {
  verify_pla(make_function(
                 2, {[](std::uint32_t r) { return r == 3; },
                     [](std::uint32_t r) { return r != 0; },
                     [](std::uint32_t r) { return r != 3; }}),
             "pla_basic");
}

TEST(Pla, Xor2) {
  verify_pla(make_function(
                 2, {[](std::uint32_t r) { return r == 1 || r == 2; }}),
             "pla_xor");
}

TEST(Pla, Majority3) {
  verify_pla(make_function(3, {[](std::uint32_t r) {
               return __builtin_popcount(r) >= 2;
             }}),
             "pla_maj");
}

TEST(Pla, FullAdder) {
  verify_pla(make_function(
                 3, {[](std::uint32_t r) { return (__builtin_popcount(r) & 1) != 0; },
                     [](std::uint32_t r) { return __builtin_popcount(r) >= 2; }}),
             "pla_fa");
}

TEST(Pla, Decoder2to4) {
  std::vector<std::function<bool(std::uint32_t)>> outs;
  for (std::uint32_t k = 0; k < 4; ++k) {
    outs.push_back([k](std::uint32_t r) { return r == k; });
  }
  verify_pla(make_function(2, outs), "pla_dec24");
}

TEST(Pla, ConstantOutputs) {
  verify_pla(make_function(2, {[](std::uint32_t) { return true; },
                               [](std::uint32_t r) { return r == 2; }}),
             "pla_const1");
}

TEST(Pla, FourInputMux) {
  // out = s1 ? (s0 ? d3 : d2) : (s0 ? d1 : d0); inputs d0..d3,s0,s1.
  verify_pla(make_function(6,
                           {[](std::uint32_t r) {
                             const std::uint32_t sel = (r >> 4) & 3u;
                             return ((r >> sel) & 1u) != 0;
                           }}),
             "pla_mux4");
}

TEST(Pla, StatsAndGeometryScale) {
  layout::Library lib;
  const MultiFunction small =
      make_function(2, {[](std::uint32_t r) { return r == 3; }});
  const MultiFunction big = make_function(4, {
      [](std::uint32_t r) { return __builtin_popcount(r) >= 3; },
      [](std::uint32_t r) { return (r & 1) != 0 && (r & 8) != 0; },
  });
  const pla::PlaResult a = pla::generate(lib, small, {.name = "small"});
  const pla::PlaResult b = pla::generate(lib, big, {.name = "big"});
  EXPECT_GT(b.stats.area(), a.stats.area());
  EXPECT_EQ(a.stats.num_inputs, 2);
  EXPECT_EQ(b.stats.num_inputs, 4);
  EXPECT_GT(b.stats.crosspoints, a.stats.crosspoints);
  EXPECT_EQ(b.stats.width, b.cell->bbox().width());
}

TEST(Pla, RejectsDegenerateRequests) {
  layout::Library lib;
  MultiFunction f;
  f.num_inputs = 0;
  EXPECT_THROW(pla::generate(lib, f, {}), std::invalid_argument);
  MultiFunction no_outputs;
  no_outputs.num_inputs = 2;
  EXPECT_THROW(pla::generate(lib, no_outputs, {}), std::invalid_argument);
}

TEST(Pla, ComplementHelper) {
  MultiFunction f = make_function(2, {[](std::uint32_t r) { return r == 1; }});
  f.outputs[0].set(2, logic::Tri::DontCare);
  const MultiFunction c = pla::complement(f);
  EXPECT_EQ(c.outputs[0].get(1), logic::Tri::Zero);
  EXPECT_EQ(c.outputs[0].get(0), logic::Tri::One);
  EXPECT_EQ(c.outputs[0].get(2), logic::Tri::DontCare);
}

/// The personality as text: one line per product term, then one line per
/// output listing its term indices in cover order.
std::string personality_text(const logic::PlaTerms& p) {
  std::string s = "inputs " + std::to_string(p.num_inputs) + "\nterms " +
                  std::to_string(p.terms.size()) + "\n";
  for (const logic::Cube& c : p.terms) s += c.to_string(p.num_inputs) + "\n";
  s += "outputs " + std::to_string(p.output_terms.size()) + "\n";
  for (std::size_t k = 0; k < p.output_terms.size(); ++k) {
    s += "out" + std::to_string(k) + ":";
    for (const int t : p.output_terms[k]) s += " " + std::to_string(t);
    s += "\n";
  }
  return s;
}

TEST(Pla, Counter12PersonalityGolden) {
  const synth::TabulatedFsm fsm =
      synth::tabulate(rtl::parse(silc_fixtures::counter_source(12)));
  layout::Library lib;
  const pla::PlaResult p =
      pla::generate(lib, fsm.function, {.name = "counter12_pla"});
  silc_fixtures::expect_matches_golden(personality_text(p.personality),
                                      "counter12.pla");
}

}  // namespace
}  // namespace silc
