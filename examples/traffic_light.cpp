// The classic Mead & Conway teaching example: a traffic-light controller
// compiled from a behavioral description into a complete, verified chip.
//
// A highway/farm-road intersection: the highway light stays green until a
// car waits on the farm road AND a minimum time elapsed; a timer register
// sequences the yellow phases. Outputs are one-hot {green,yellow,red} for
// the highway; the farm road gets the complement.
#include <cstdio>

#include "cif/cif.hpp"
#include "core/compiler.hpp"

int main() {
  using namespace silc;

  const char* source = R"(
    processor traffic (input car; output hw<2>; output farm<2>;) {
      // states: 0 hwy green, 1 hwy yellow, 2 farm green, 3 farm yellow
      reg st<2>;
      reg timer<2>;
      hw = st;
      farm = timer;
      always {
        case (st) {
          0: if (car) { st := 1; timer := 0; }
          1: { if (timer == 3) st := 2; timer := timer + 1; }
          2: if (timer == 0) { st := 3; } else { timer := timer - 1; }
          3: st := 0;
        }
      }
    })";

  layout::Library lib("traffic");
  const core::CompileResult chip =
      core::compile(lib, core::Flow::Behavioral, source,
                    {.name = "traffic_chip", .verify_cycles = 32});

  std::printf("traffic-light controller chip\n");
  std::printf("  state bits    : %d\n", chip.stats.state_bits);
  std::printf("  PLA           : %d in, %d terms, %d out, %zu crosspoints\n",
              chip.stats.pla.num_inputs, chip.stats.pla.num_terms,
              chip.stats.pla.num_outputs, chip.stats.pla.crosspoints);
  std::printf("  pads          : %d\n", chip.stats.pads);
  std::printf("  channel       : %d tracks, %lld wire\n",
              chip.stats.channel_tracks,
              static_cast<long long>(chip.stats.channel_wire_length));
  std::printf("  die           : %lld x %lld (%.2f sq mil at lambda=2.5um)\n",
              static_cast<long long>(chip.stats.width),
              static_cast<long long>(chip.stats.height),
              static_cast<double>(chip.stats.area()) * 1.25 * 1.25 / 645.16);
  std::printf("  transistors   : %zu\n", chip.transistors);
  std::printf("  DRC           : %s\n", chip.drc.summary().c_str());
  std::printf("  verification  : %s\n", chip.verify_detail.c_str());

  cif::write_file("traffic_chip.cif", *chip.chip);
  std::printf("wrote traffic_chip.cif (%zu bytes)\n", chip.cif.size());
  return chip.ok() && chip.verified ? 0 : 1;
}
