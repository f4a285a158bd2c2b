// Parameterised chip assembly (the paper's C4): the same textual
// description, swept over a width parameter, re-assembles into a complete
// chip every time — pads, routing and power adapt automatically. Also
// demonstrates the block floorplanner on the resulting macros.
#include <chrono>
#include <cstdio>
#include <string>

#include "cif/cif.hpp"
#include "core/compiler.hpp"
#include "place/place.hpp"

namespace {

std::string counter_source(int width) {
  return "processor counter (input en; input clr; output q<" +
         std::to_string(width) + ">;) {\n  reg c<" + std::to_string(width) +
         ">;\n  q = c;\n  always { if (clr) c := 0; else if (en) c := c + 1; }\n}";
}

}  // namespace

int main() {
  using namespace silc;

  std::printf("parameterised chip assembly: counter chips, width 1..5\n");
  std::printf("%-6s %-8s %-8s %-10s %-7s %-7s %-9s %-8s\n", "width", "terms",
              "xpoints", "die WxH", "tracks", "pads", "trans.", "ms");

  layout::Library lib("assembly");
  std::vector<place::Block> macros;
  for (int w = 1; w <= 5; ++w) {
    const auto t0 = std::chrono::steady_clock::now();
    const core::CompileResult chip = core::compile(
        lib, core::Flow::Behavioral, counter_source(w),
        {.name = "counter" + std::to_string(w), .stop_after = "extract"});
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (!chip.drc.ok()) {
      std::printf("width %d: DRC FAILED: %s\n", w, chip.drc.summary().c_str());
      return 1;
    }
    std::printf("%-6d %-8d %-8zu %4lldx%-5lld %-7d %-7d %-9zu %-8.1f\n", w,
                chip.stats.pla.num_terms, chip.stats.pla.crosspoints,
                static_cast<long long>(chip.stats.width),
                static_cast<long long>(chip.stats.height),
                chip.stats.channel_tracks, chip.stats.pads, chip.transistors,
                ms);
    macros.push_back({"counter" + std::to_string(w),
                      chip.stats.width, chip.stats.height, true});
  }

  // Floorplan all five chips as macros on one carrier.
  const place::FloorplanResult fp = place::floorplan(macros, {.spacing = 20});
  std::printf("\nfloorplan of all five macros: %lld x %lld, utilization %.0f%%\n",
              static_cast<long long>(fp.width),
              static_cast<long long>(fp.height), fp.utilization * 100.0);
  for (const place::Placement& p : fp.placements) {
    std::printf("  %-10s at (%lld, %lld)%s\n",
                macros[static_cast<std::size_t>(p.block)].name.c_str(),
                static_cast<long long>(p.at.x), static_cast<long long>(p.at.y),
                p.rotated ? " rotated" : "");
  }
  return 0;
}
