#include "core/compiler.hpp"

#include <random>
#include <sstream>

#include "sim/sim.hpp"
#include "swsim/swsim.hpp"

namespace silc::core {

bool verify_chip_against_rtl(const extract::Netlist& nl,
                             const rtl::Design& design, int cycles,
                             unsigned seed, std::string& detail) {
  std::ostringstream os;
  for (const std::string& w : nl.warnings) os << "extract: " << w << "\n";
  if (!nl.warnings.empty()) {
    detail = os.str();
    return false;
  }

  swsim::Simulator sw(nl);
  rtl::BehavioralSim bsim(design);
  const auto regs = design.of_kind(rtl::SignalKind::Reg);
  const auto ins = design.of_kind(rtl::SignalKind::Input);
  const auto outs = design.of_kind(rtl::SignalKind::Output);

  // Power-on initialization: drive every slave storage gate high (state 0),
  // then release; afterwards the chip is controlled only through its pads.
  sw.set("phi1", false);
  sw.set("phi2", false);
  int state_bits = 0;
  for (const rtl::Signal* r : regs) state_bits += r->width;
  std::vector<int> stores;
  for (int k = 0; k < state_bits; ++k) {
    const int node = nl.find_node("s" + std::to_string(k) + ".inv.in");
    if (node < 0) {
      detail = "missing register storage node s" + std::to_string(k);
      return false;
    }
    stores.push_back(node);
    sw.set(node, swsim::Val::V1);
  }
  if (!sw.settle()) {
    detail = "network failed to settle at power-on";
    return false;
  }
  for (const int node : stores) sw.release(node);

  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::uint64_t> word;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    // Random external inputs, applied to both worlds.
    int bit = 0;
    for (const rtl::Signal* in : ins) {
      const std::uint64_t v = rtl::mask_to(word(rng), in->width);
      bsim.set(in->name, v);
      for (int b = 0; b < in->width; ++b, ++bit) {
        sw.set("x" + std::to_string(bit), ((v >> b) & 1u) != 0);
      }
    }
    // Two-phase clock (one copy of the protocol: sim::switch_cycle).
    std::string phase_detail;
    if (!sim::switch_cycle(sw, phase_detail)) {
      detail = phase_detail + " in cycle " + std::to_string(cycle);
      return false;
    }
    bsim.tick();
    // Compare outputs.
    int obit = 0;
    for (const rtl::Signal* out : outs) {
      const std::uint64_t want = bsim.get(out->name);
      for (int b = 0; b < out->width; ++b, ++obit) {
        const swsim::Val v = sw.get("y" + std::to_string(obit));
        const bool bad =
            v == swsim::Val::VX ||
            (v == swsim::Val::V1) != (((want >> b) & 1u) != 0);
        if (bad) {
          detail = "mismatch at cycle " + std::to_string(cycle) + " output " +
                   out->name + "[" + std::to_string(b) + "]";
          return false;
        }
      }
    }
  }
  os << "verified " << cycles << " cycles against the behavioral model";
  detail = os.str();
  return true;
}

}  // namespace silc::core
