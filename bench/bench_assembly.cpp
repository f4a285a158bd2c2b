// E4 (paper claim C4): "the benefits of parameterised specification is
// clearly demonstrated in the task of chip assembly". One textual
// description, swept over a width parameter; the assembler regenerates the
// complete chip (PLA, registers, routing, power, pads) each time.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/compiler.hpp"

namespace {

std::string counter_source(int width) {
  return "processor counter (input en; input clr; output q<" +
         std::to_string(width) + ">;) { reg c<" + std::to_string(width) +
         ">; q = c; always { if (clr) c := 0; else if (en) c := c + 1; } }";
}

void print_table() {
  std::printf("=== E4: parameterised chip assembly (counter width sweep) ===\n");
  std::printf("%-6s %-7s %-9s %-12s %-7s %-6s %-11s %-6s\n", "width", "terms",
              "xpoints", "die WxH", "tracks", "pads", "transistors", "DRC");
  for (int w = 1; w <= 5; ++w) {
    silc::layout::Library lib;
    const silc::core::CompileResult chip = silc::core::compile(
        lib, silc::core::Flow::Behavioral, counter_source(w),
        {.name = "c" + std::to_string(w), .stop_after = "extract"});
    std::printf("%-6d %-7d %-9zu %5lldx%-6lld %-7d %-6d %-11zu %s\n", w,
                chip.stats.pla.num_terms, chip.stats.pla.crosspoints,
                static_cast<long long>(chip.stats.width),
                static_cast<long long>(chip.stats.height),
                chip.stats.channel_tracks, chip.stats.pads, chip.transistors,
                chip.drc.ok() ? "clean" : "FAIL");
  }
  std::printf("\n");
}

void BM_AssembleCounter(benchmark::State& state) {
  const std::string src = counter_source(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    silc::layout::Library lib;
    benchmark::DoNotOptimize(silc::core::compile(
        lib, silc::core::Flow::Behavioral, src,
        {.stop_after = "extract", .skip = {"drc"}}));
  }
}
BENCHMARK(BM_AssembleCounter)->DenseRange(1, 5);

void BM_AssembleAndVerify(benchmark::State& state) {
  const std::string src = counter_source(2);
  for (auto _ : state) {
    silc::layout::Library lib;
    benchmark::DoNotOptimize(silc::core::compile(
        lib, silc::core::Flow::Behavioral, src, {.verify_cycles = 8}));
  }
}
BENCHMARK(BM_AssembleAndVerify);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
