// Shared test/bench/example fixture: the small design sources the compile
// pipeline is exercised with. Keep these the single copies — determinism
// checks, benchmarks, and demos must all compile the same machines.
// (examples/traffic_light.cpp carries its own annotated copy on purpose:
// examples read standalone.)
#pragma once

#include <string>

namespace silc_fixtures {

/// The Mead & Conway traffic-light controller (highway/farm intersection).
inline const char* kTrafficSource = R"(
  processor traffic (input car; output hw<2>; output farm<2>;) {
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

/// 2-bit Gray-code generator: counter register + XOR output decode.
inline const char* kGray2Source = R"(
  processor gray2 (input en; output code<2>;) {
    reg count<2>;
    code = {count[1], count[1] ^ count[0]};
    always { if (en) count := count + 1; }
  })";

/// A 5-inverter chain, structurally: the SILC program the structural
/// flow compiles (DRC-clean, 10 transistors).
inline const char* kInvChainSource = R"(
  func inv_chain(n) {
    let c = cell("chain");
    let i = inv(8);
    for k in 0 .. n - 1 { place(c, i, k * 36, 0); }
    return c;
  }
  return inv_chain(5);
)";

/// A 3-bit counter expressed structurally: the designer places and wires
/// the generators themselves. Shift-register state plus a hand-wired
/// increment is impractical by hand, so the honest structural equivalent
/// of counter_source(3) is a ripple of toggle stages built from cells —
/// more designer text, more designer knowledge, no behavioral
/// verification for free.
inline const char* kStructuralCounterSource = R"(
  func toggle_bit(name) {
    -- master/slave stage pair wired as a toggle cell placeholder: the
    -- structural designer lays out stages and wiring explicitly.
    let c = cell(name);
    let s = shiftstage();
    place(c, s, 0, 0);
    place(c, s, 76, 0);
    return c;
  }
  let chip = cell("struct_counter");
  for b in 0 .. 2 { place(chip, toggle_bit("bit" + str(b)), 0, b * 90); }
  write_cif(chip);
  return chip;
)";

/// An enable-gated counter of the given width.
inline std::string counter_source(int width) {
  return "processor counter (input en; output q<" + std::to_string(width) +
         ">;) { reg c<" + std::to_string(width) +
         ">; q = c; always { if (en) c := c + 1; } }";
}

}  // namespace silc_fixtures
