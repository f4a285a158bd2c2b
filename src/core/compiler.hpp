// The artwork check, the behavioral flow's last verification step: the
// transistors extracted from an assembled FSM chip, run under the
// switch-level simulator against the behavioral model. The pipeline's
// artwork-check stage runs it on the netlist the DesignDB already holds,
// so a compile extracts once. The compiler itself is core::compile
// (core/pipeline.hpp, included here).
#pragma once

#include <string>

#include "core/pipeline.hpp"

namespace silc::core {

/// Drive an already-extracted FSM chip netlist through `cycles` of random
/// stimulus from its pads and compare every output against the behavioral
/// simulator. Returns true when all cycles match; detail describes the run
/// (extraction warnings fail the check with their own detail).
bool verify_chip_against_rtl(const extract::Netlist& netlist,
                             const rtl::Design& design, int cycles,
                             unsigned seed, std::string& detail);

}  // namespace silc::core
