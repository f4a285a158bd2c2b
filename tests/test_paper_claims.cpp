// The claims of Gray, "Introduction to silicon compilation" (DAC 1979),
// asserted on this compiler: E1 a PDP-8 from ISP in standard modules within
// 50% of the commercial chip count; E2 structured programs for structured
// designs; E3 the extensible language; E4 parameterised chip assembly; E5
// the space cost of automatic layout; E6 programmed regular blocks; E7
// behavioral vs structural flows and state encodings; E8 CIF as the
// manufacturing interface. One claims table, free of wall clocks, prints
// after the suite, so two runs print the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cells/cells.hpp"
#include "cif/cif.hpp"
#include "core/compiler.hpp"
#include "design_sources.hpp"
#include "drc/drc.hpp"
#include "lang/lang.hpp"
#include "logic/logic.hpp"
#include "mem/mem.hpp"
#include "pdp8_model.hpp"
#include "pla/pla.hpp"
#include "rtl/rtl.hpp"
#include "synth/synth.hpp"

namespace silc {
namespace {

std::vector<std::string> g_claims;  // the table, one row per record()

/// One table row per test; its verdict is the test's own.
void record(const char* id, const std::string& measured) {
  const bool failed = ::testing::Test::HasFailure();
  g_claims.push_back(id + std::string(failed ? "  FAILS  " : "  holds  ") +
                     measured);
}

template <class... Args>
std::string fmt(const char* format, Args... args) {
  char buf[320];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

struct ClaimsTable : ::testing::Environment {
  void TearDown() override {
    std::printf("=== paper claims ===\n");
    for (const std::string& row : g_claims) std::printf("%s\n", row.c_str());
  }
};
[[maybe_unused]] ::testing::Environment* const kTable =
    ::testing::AddGlobalTestEnvironment(new ClaimsTable);

TEST(PaperClaims, E1Pdp8WithinHalfOfCommercialChipCount) {
  constexpr int kCommercialChips = 100;  // PDP-8/E M8300+M8310+M8330
  const synth::ModuleReport r =
      synth::map_to_modules(rtl::parse(silc_fixtures::kPdp8Source));
  const double ratio = static_cast<double>(r.chip_count()) / kCommercialChips;
  EXPECT_GE(ratio, 0.5) << r.to_string();
  EXPECT_LE(ratio, 1.5) << r.to_string();
  record("E1", fmt("PDP-8 in standard modules: %d chips vs %d commercial = "
                   "%.2f (bound 0.5..1.5)", r.chip_count(), kCommercialChips,
                   ratio));
}

std::string structured_array(int n, int m) {
  return fmt("func row(stage, n) { let r = cell(\"row\"); for i in 0 .. n - 1 "
             "{ place(r, stage, i * 76, 0); } return r; }\n"
             "let a = cell(\"array\"); let s = shiftstage();\n"
             "let r = row(s, %d);\n"
             "for j in 0 .. %d { place(a, r, 0, j * 90); }\n"
             "write_cif(a); return a;", n, m - 1);
}

std::string flat_array(int n, int m) {
  std::string src = "let a = cell(\"array\"); let s = shiftstage();\n";
  for (int k = 0; k < n * m; ++k) {
    src += fmt("place(a, s, %d, %d);\n", k % n * 76, k / n * 90);
  }
  return src + "write_cif(a); return a;";
}

using Geometry = std::vector<std::tuple<int, int, int, int, int>>;
Geometry sorted_geometry(const layout::Cell& top) {
  Geometry g;
  for (const layout::Shape& s : layout::flatten(top)) {
    g.emplace_back(int(s.layer), s.rect.x0, s.rect.y0, s.rect.x1, s.rect.y1);
  }
  std::sort(g.begin(), g.end());
  return g;
}

TEST(PaperClaims, E2StructuredProgramsStayConstantSize) {
  std::size_t first_structured = 0, last_flat = 0;
  std::string src, cif;
  for (const auto& [n, m] : {std::pair{4, 2}, {8, 4}, {16, 8}}) {
    SCOPED_TRACE(std::to_string(n) + "x" + std::to_string(m));
    const std::string sp = structured_array(n, m);
    const std::string fp = flat_array(n, m);
    layout::Library slib, flib;
    const lang::RunResult s = lang::run_program(sp, slib);
    const lang::RunResult f = lang::run_program(fp, flib);
    ASSERT_TRUE(s.cell() != nullptr && f.cell() != nullptr);
    // Only the digits of n and m change in the structured program.
    if (first_structured == 0) first_structured = sp.size();
    EXPECT_LE(sp.size(), first_structured + 2) << "structured source grew";
    EXPECT_GT(fp.size(), last_flat) << "flat source must grow with n*m";
    last_flat = fp.size();
    EXPECT_TRUE(n * m < 32 || s.cif.size() < f.cif.size())
        << "structured CIF " << s.cif.size() << " B, flat " << f.cif.size();
    EXPECT_EQ(sorted_geometry(*s.cell()), sorted_geometry(*f.cell()));
    src += fmt(" %zu/%zu", sp.size(), fp.size());
    cif += fmt(" %zu/%zu", s.cif.size(), f.cif.size());
  }
  record("E2", "8/32/128-stage arrays build the same geometry; bytes "
               "structured/flat: source" + src + ", CIF" + cif);
}

TEST(PaperClaims, E3ExtensibleLanguageRunsPrograms) {
  layout::Library lib;
  const std::string fib = lang::run_program(
      "func fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } "
      "print(fib(18));", lib).output;
  const std::string rec = lang::run_program(
      "func pt(x, y) { return {x: x, y: y}; } let acc = 0; for i in 1 .. "
      "2000 { let p = pt(i, i * 2); acc = acc + p.x + p.y; } print(acc);",
      lib).output;
  EXPECT_EQ(fib, "2584\n");
  EXPECT_EQ(rec, "6003000\n");
  record("E3", "fib(18) = " + fib.substr(0, fib.size() - 1) +
                   ", 2000-record loop = " + rec.substr(0, rec.size() - 1));
}

TEST(PaperClaims, E4ParameterisedAssemblyIsCleanAtEveryWidth) {
  std::string terms, devices;
  int last_terms = 0;
  std::size_t last_devices = 0;
  core::CompileOptions o;
  o.stop_after = "extract";
  for (int w = 1; w <= 5; ++w) {
    layout::Library lib;
    const core::CompileResult chip = core::compile(
        lib, core::Flow::Behavioral, silc_fixtures::counter_source(w), o);
    ASSERT_TRUE(chip.ok()) << chip.diag_text();
    EXPECT_TRUE(chip.drc.ok()) << "width " << w;
    EXPECT_GT(chip.stats.pla.num_terms, last_terms) << "width " << w;
    EXPECT_GT(chip.transistors, last_devices) << "width " << w;
    last_terms = chip.stats.pla.num_terms;
    last_devices = chip.transistors;
    terms += fmt(" %d", last_terms);
    devices += fmt(" %zu", last_devices);
  }
  record("E4", "counter widths 1-5 DRC-clean: terms" + terms +
                   ", transistors" + devices);
}

using Fn = bool (*)(std::uint32_t);
logic::MultiFunction function_of(int inputs, const std::vector<Fn>& outs) {
  logic::MultiFunction m{inputs, {}};
  for (const Fn f : outs) {
    m.outputs.push_back(logic::TruthTable::from_function(inputs, f));
  }
  return m;
}

TEST(PaperClaims, E5CompiledLayoutCostsSpaceOverHandCells) {
  layout::Library lib;
  // The full adder's hand equivalent: 9 nand2 equivalents in a row.
  layout::Cell& adder_ref = lib.create("fa_ref");
  layout::Cell& nand2 = cells::nand2(lib);
  for (int i = 0; i < 9; ++i) {
    adder_ref.add_instance(nand2, {geom::Orient::R0, {i * 36, 0}});
  }
  const Fn none = [](std::uint32_t r) { return r == 0; };
  const Fn not_all = [](std::uint32_t r) { return r != 3; };
  const Fn odd = [](std::uint32_t r) { return __builtin_popcount(r) % 2 == 1; };
  const Fn most = [](std::uint32_t r) { return __builtin_popcount(r) >= 2; };
  using Row = std::tuple<const char*, logic::MultiFunction, layout::Cell*>;
  const std::vector<Row> rows = {
      {"not", function_of(1, {none}), &cells::inverter(lib)},
      {"nand2", function_of(2, {not_all}), &nand2},
      {"nor2", function_of(2, {none}), &cells::nor2(lib)},
      {"fulladd", function_of(3, {odd, most}), &adder_ref}};
  std::string ratios;
  double total = 0;
  for (const auto& [name, f, hand] : rows) {
    const pla::PlaResult p =
        pla::generate(lib, f, {.name = std::string(name) + "_pla"});
    const double ratio = static_cast<double>(p.stats.area()) /
                         static_cast<double>(hand->bbox().area());
    EXPECT_GT(ratio, 1.0) << name << ": PLA no larger than the hand cell";
    total += ratio;
    ratios += fmt(" %s %.1fx", name, ratio);
  }
  ratios += fmt(", mean %.1fx", total / static_cast<double>(rows.size()));
  record("E5", "PLA area / hand-cell area:" + ratios);
}

TEST(PaperClaims, E6MinimizersImplementTheTable) {
  std::string counts;
  for (int n = 4; n <= 10; ++n) {
    std::mt19937 rng(static_cast<unsigned>(n));
    std::uniform_int_distribution<int> bit(0, 5);
    const logic::TruthTable t = logic::TruthTable::from_function(
        n, [&](std::uint32_t) { return bit(rng) == 0; });
    const std::vector<logic::Cube> qm = logic::minimize_qm(t);
    const std::vector<logic::Cube> heur = logic::minimize_heuristic(t);
    EXPECT_TRUE(t.implemented_by(qm)) << "qm, n=" << n;
    EXPECT_TRUE(t.implemented_by(heur)) << "heuristic, n=" << n;
    EXPECT_LE(qm.size(), heur.size()) << "n=" << n;
    counts += fmt(" %zu/%zu", qm.size(), heur.size());
  }
  record("E6", "QM/heuristic terms, n=4..10:" + counts);
}

TEST(PaperClaims, E6RomAreaPerBitAmortizes) {
  std::mt19937 rng(9);
  std::vector<double> per_bit;
  for (const auto& [words, bits] :
       {std::pair{4, 4}, {8, 8}, {16, 8}, {32, 12}}) {
    std::uniform_int_distribution<std::uint32_t> w(0, (1u << bits) - 1);
    std::vector<std::uint32_t> contents;
    for (int i = 0; i < words; ++i) contents.push_back(w(rng));
    layout::Library lib;
    const mem::RomResult rom = mem::generate_rom(lib, contents, bits, {});
    per_bit.push_back(rom.stats.area_per_bit());
  }
  EXPECT_LT(per_bit.back(), per_bit.front());
  record("E6", fmt("ROM area per bit: 4x4 %.1f, 32x12 %.1f", per_bit.front(),
                   per_bit.back()));
}

TEST(PaperClaims, E7BehavioralTradesTextForVerification) {
  const std::string behavioral = silc_fixtures::counter_source(3);
  const std::string structural = silc_fixtures::kStructuralCounterSource;
  layout::Library lib;
  const core::CompileResult b =
      core::compile(lib, core::Flow::Behavioral, behavioral);
  const core::CompileResult s =
      core::compile(lib, core::Flow::Structural, structural);
  EXPECT_TRUE(b.ok()) << b.diag_text();
  EXPECT_TRUE(b.verified);
  EXPECT_TRUE(s.ok()) << s.diag_text();
  EXPECT_LT(behavioral.size(), structural.size());
  record("E7", fmt("counter source: behavioral %zu B (verified) vs "
                   "structural %zu B (unverified)", behavioral.size(),
                   structural.size()));
}

TEST(PaperClaims, E7StateEncodingSetsTheStateBits) {
  // An 8-state ring: input 1 advances it, and state 7 raises the output.
  synth::Fsm ring{8, 1, 1, {}, {}};
  for (int st = 0; st < 8; ++st) {
    ring.next.push_back({st, (st + 1) % 8});
    ring.out.push_back({st == 7 ? 1u : 0u, st == 7 ? 1u : 0u});
  }
  using synth::Encoding;
  std::string bits;
  for (const auto& [enc, name, want] :
       {std::tuple{Encoding::Binary, "binary", 3}, {Encoding::Gray, "gray", 3},
        {Encoding::OneHot, "one-hot", 8}}) {
    layout::Library plib;
    const pla::PlaResult p =
        pla::generate(plib, synth::encode(ring, enc), {.name = "enc"});
    EXPECT_EQ(synth::bits_for(8, enc), want) << name;
    bits += fmt(" %s %d bits/%d terms", name, synth::bits_for(8, enc),
                p.stats.num_terms);
  }
  record("E7", "8-state ring:" + bits);
}

TEST(PaperClaims, E8ShiftArraysAreCleanAtEverySize) {
  std::string sizes;
  for (const auto& [n, m] : {std::pair{2, 2}, {4, 4}, {8, 4}, {8, 8}}) {
    layout::Library lib;
    layout::Cell& a = lib.create("array");
    layout::Cell& stage = cells::shift_stage(lib);
    for (int k = 0; k < n * m; ++k) {
      a.add_instance(stage, {geom::Orient::R0, {k % n * 76, k / n * 90}});
    }
    const std::string text = cif::write(a);
    layout::Library back;
    EXPECT_EQ(cif::parse(text, back).flat_shape_count(), a.flat_shape_count());
    EXPECT_TRUE(drc::check(a).ok()) << n << "x" << m;
    EXPECT_EQ(a.flat_shape_count(), static_cast<std::size_t>(37 * n * m));
    sizes += fmt(" %d/%zu/%zu", n * m, a.flat_shape_count(), text.size());
  }
  record("E8", "shift arrays DRC-clean, 37 rects/stage, CIF round-trips "
               "(stages/rects/CIF B):" + sizes);
}

}  // namespace
}  // namespace silc
