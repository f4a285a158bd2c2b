// Golden-netlist regression tests: the canonical extracted netlists of two
// committed designs — the Mead & Conway traffic-light chip and a PDP-8
// boot ROM — are checked in as fixtures/golden/*.net. Any change to
// extraction behaviour shows up as a node-level diff against the golden
// text, with the mismatching lines printed. Both extraction modes must
// match the same golden bytes, which also pins flat-vs-hier identity on
// real artwork.
//
// To regenerate after an *intentional* contract change:
//   SILC_REGEN_GOLDEN=1 ./test_extract_golden
#include <gtest/gtest.h>

#include "core/compiler.hpp"
#include "design_sources.hpp"
#include "extract/extract.hpp"
#include "golden.hpp"
#include "mem/mem.hpp"

namespace silc::extract {
namespace {

/// The PDP-8 RIM loader (the bootstrap traditionally toggled in at 7756),
/// filled to 64 words with a deterministic 12-bit LCG — the same seed
/// content bench_drc and bench_extract array into a NOR-NOR ROM.
std::vector<std::uint32_t> pdp8_boot_words(std::size_t total) {
  std::vector<std::uint32_t> words{
      06032, 06031, 05357, 06036, 07106, 07006, 07510, 05357,
      07006, 06031, 05367, 06034, 07420, 03776, 03376, 05356,
  };
  std::uint32_t x = 0777;
  while (words.size() < total) {
    x = (x * 01645 + 0157) & 07777;  // 12-bit LCG fill
    words.push_back(x);
  }
  return words;
}

TEST(ExtractGolden, TrafficChip) {
  layout::Library lib;
  core::CompileOptions o;
  o.name = "traffic";
  o.stop_after = "assemble";
  const auto r = core::compile(lib, core::Flow::Behavioral,
                               silc_fixtures::kTrafficSource, o);
  ASSERT_NE(r.chip, nullptr) << r.diag_text();
  const Netlist hier = extract_hier(*r.chip);
  const Netlist flat = extract(*r.chip);
  EXPECT_EQ(flat, hier);  // cross-mode identity on real artwork
  EXPECT_TRUE(hier.warnings.empty());
  silc_fixtures::expect_matches_golden(to_text(hier), "traffic.net");
}

TEST(ExtractGolden, Pdp8BootRom) {
  layout::Library lib;
  const auto rom =
      silc::mem::generate_rom(lib, pdp8_boot_words(64), 12, {.name = "pdp8_rom"});
  ASSERT_NE(rom.cell, nullptr);
  const Netlist hier = extract_hier(*rom.cell);
  const Netlist flat = extract(*rom.cell);
  EXPECT_EQ(flat, hier);
  EXPECT_TRUE(hier.warnings.empty());
  silc_fixtures::expect_matches_golden(to_text(hier), "pdp8_rom.net");
}

}  // namespace
}  // namespace silc::extract
