// Netlist -> evaluation tape: decompose every gate into two-input ops in
// topological order, then assemble_tape() ranks each *op* by logic level
// (sources — primary inputs, DFF outputs, undriven nets — are level 0; an
// op is one past its deepest operand) and emits ops level by level. Levels
// are op-granular, so n-ary decomposition chains spread across levels and
// the invariant every consumer relies on — an op at level l reads only
// slots finalized at levels < l — holds for the ops of a level in any
// order, not just in sequential tape order.
#include <algorithm>
#include <stdexcept>

#include "sim/sim.hpp"
#include "sim/tape_util.hpp"

namespace silc::sim {

using net::Gate;
using net::GateKind;

namespace {

/// The two-input op and (for And/Or-based chains) the op used for all but
/// the final link; inversion happens only at the chain's last op.
TapeOp::Code final_code(GateKind k) {
  switch (k) {
    case GateKind::And: return TapeOp::Code::And;
    case GateKind::Or: return TapeOp::Code::Or;
    case GateKind::Nand: return TapeOp::Code::Nand;
    case GateKind::Nor: return TapeOp::Code::Nor;
    case GateKind::Xor: return TapeOp::Code::Xor;
    case GateKind::Xnor: return TapeOp::Code::Xnor;
    default: throw std::runtime_error("not an n-ary gate");
  }
}

TapeOp::Code chain_code(GateKind k) {
  switch (k) {
    case GateKind::And:
    case GateKind::Nand: return TapeOp::Code::And;
    case GateKind::Or:
    case GateKind::Nor: return TapeOp::Code::Or;
    case GateKind::Xor:
    case GateKind::Xnor: return TapeOp::Code::Xor;
    default: throw std::runtime_error("not an n-ary gate");
  }
}

/// Single-input degenerate forms: And(a)=Or(a)=Xor(a)=a, Nand(a)=Nor(a)=
/// Xnor(a)=~a.
TapeOp::Code unary_code(GateKind k) {
  switch (k) {
    case GateKind::And:
    case GateKind::Or:
    case GateKind::Xor: return TapeOp::Code::Copy;
    default: return TapeOp::Code::Not;
  }
}

}  // namespace

Tape assemble_tape(std::vector<TapeOp> ops, std::size_t slots,
                   std::vector<std::pair<std::uint32_t, std::uint32_t>> dffs) {
  // Slot levels: sources (never written by an op) stay 0; a written slot
  // takes its op's level. Ops must arrive in dependency order.
  std::vector<std::uint32_t> slot_level(slots, 0);
  std::vector<std::uint32_t> op_level(ops.size(), 0);
  std::uint32_t depth = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const TapeOp& op = ops[i];
    std::uint32_t lv = 0;
    const int arity = op_arity(op.code);
    if (arity >= 1) lv = std::max(lv, slot_level[op.a]);
    if (arity >= 2) lv = std::max(lv, slot_level[op.b]);
    if (arity >= 3) lv = std::max(lv, slot_level[op.sel]);
    ++lv;
    op_level[i] = lv;
    slot_level[op.out] = lv;
    depth = std::max(depth, lv);
  }

  // Stable counting sort of ops by level.
  Tape tape;
  tape.slots = slots;
  tape.dffs = std::move(dffs);
  if (depth > 0) {
    std::vector<std::uint32_t> count(depth + 1, 0);
    for (const std::uint32_t lv : op_level) ++count[lv];
    tape.level_begin.resize(depth + 1);
    std::vector<std::uint32_t> at(depth + 2, 0);
    for (std::uint32_t lv = 1; lv <= depth; ++lv) {
      tape.level_begin[lv - 1] = at[lv];
      at[lv + 1] = at[lv] + count[lv];
    }
    tape.level_begin[depth] = static_cast<std::uint32_t>(ops.size());
    tape.ops.resize(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      tape.ops[at[op_level[i]]++] = ops[i];
    }
  }
  return tape;
}

Tape levelize(const net::Netlist& nl) {
  const std::vector<int> topo = nl.topo_order();  // validates acyclicity
  (void)nl.driver_map();                          // validates single drivers

  std::vector<TapeOp> ops;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dffs;
  std::uint32_t temp = static_cast<std::uint32_t>(nl.net_count());
  const auto slot = [](int net) { return static_cast<std::uint32_t>(net); };

  for (const int gi : topo) {
    const Gate& g = nl.gate(gi);
    const std::uint32_t out = slot(g.output);
    switch (g.kind) {
      case GateKind::Const0:
        ops.push_back({TapeOp::Code::Const0, out, 0, 0, 0});
        break;
      case GateKind::Const1:
        ops.push_back({TapeOp::Code::Const1, out, 0, 0, 0});
        break;
      case GateKind::Buf:
        ops.push_back({TapeOp::Code::Copy, out, slot(g.inputs[0]), 0, 0});
        break;
      case GateKind::Not:
        ops.push_back({TapeOp::Code::Not, out, slot(g.inputs[0]), 0, 0});
        break;
      case GateKind::Mux:
        ops.push_back({TapeOp::Code::Mux, out, slot(g.inputs[1]),
                       slot(g.inputs[2]), slot(g.inputs[0])});
        break;
      case GateKind::Dff:
        dffs.emplace_back(out, slot(g.inputs[0]));
        break;
      default: {  // n-ary And/Or/Nand/Nor/Xor/Xnor
        if (g.inputs.empty()) {
          throw std::runtime_error("gate " + g.name + " has no inputs");
        }
        if (g.inputs.size() == 1) {
          ops.push_back({unary_code(g.kind), out, slot(g.inputs[0]), 0, 0});
          break;
        }
        std::uint32_t acc = slot(g.inputs[0]);
        for (std::size_t i = 1; i + 1 < g.inputs.size(); ++i) {
          const std::uint32_t t = temp++;
          ops.push_back({chain_code(g.kind), t, acc, slot(g.inputs[i]), 0});
          acc = t;
        }
        ops.push_back(
            {final_code(g.kind), out, acc, slot(g.inputs.back()), 0});
        break;
      }
    }
  }
  return assemble_tape(std::move(ops), temp, std::move(dffs));
}

}  // namespace silc::sim
