// Tape peephole fusion: shrink the op tape before it ever runs.
//
// One forward pass over the (topologically ordered) ops performs, to a
// local fixpoint per op:
//   * copy bypass     — reads are rerouted to the root of any Copy chain;
//   * constant folding — Const0/Const1 operands simplify the op (And with
//     0 becomes Const0, Xor with 1 becomes Not, a constant-selected Mux
//     becomes a Copy, ...), and constness propagates through the result;
//   * equal-operand folding — And(x,x)=x, Xor(x,x)=0, Mux(s,x,x)=x, ...;
//   * Not fusion      — a Not whose operand is produced by an
//     And/Or/Nand/Nor/Xor/Xnor becomes the complementary op over the
//     producer's operands (Not-of-And = Nand), and Not(Not(x)) = x.
// A backward liveness pass then drops every op whose result no one can
// observe: roots are the caller's observable slots plus register D inputs.
// The survivors are re-levelized (assemble_tape), so the fused tape keeps
// the level invariant.
//
// Rewrites only ever point an op at slots written *earlier* (a producer's
// operands, a copy's source), so dependency order is preserved throughout.
#include <algorithm>

#include "sim/sim.hpp"
#include "sim/tape_util.hpp"

namespace silc::sim {

namespace {

enum class CV : std::uint8_t { Unknown, Zero, One };

using Code = TapeOp::Code;

TapeOp copy_op(std::uint32_t out, std::uint32_t src) {
  return {Code::Copy, out, src, 0, 0};
}
TapeOp not_op(std::uint32_t out, std::uint32_t src) {
  return {Code::Not, out, src, 0, 0};
}
TapeOp const_op(std::uint32_t out, bool one) {
  return {one ? Code::Const1 : Code::Const0, out, 0, 0, 0};
}

}  // namespace

std::string FuseStats::to_string() const {
  std::string s = "fused " + std::to_string(ops_before) + " -> " +
                  std::to_string(ops_after) + " ops";
  s += " (not-fused " + std::to_string(not_fused);
  s += ", copies bypassed " + std::to_string(copies_bypassed);
  s += ", consts folded " + std::to_string(consts_folded);
  s += ", equal-operand " + std::to_string(idempotent_folded);
  s += ", dead " + std::to_string(dead_removed) + ")";
  return s;
}

Tape fuse_tape(const Tape& tape, const std::vector<std::uint8_t>& observable,
               FuseStats* stats) {
  FuseStats st;
  st.ops_before = tape.ops.size();

  const std::size_t nslots = tape.slots;
  // root[s]: the earliest slot guaranteed to carry s's value (copy bypass).
  std::vector<std::uint32_t> root(nslots);
  for (std::size_t s = 0; s < nslots; ++s) {
    root[s] = static_cast<std::uint32_t>(s);
  }
  std::vector<CV> cval(nslots, CV::Unknown);
  // producer[s]: rewritten-op index writing s, -1 for sources.
  std::vector<std::int64_t> producer(nslots, -1);

  std::vector<TapeOp> ops;
  ops.reserve(tape.ops.size());

  for (const TapeOp& original : tape.ops) {
    TapeOp o = original;
    // Reroute reads past copies.
    const int arity = op_arity(o.code);
    if (arity >= 1 && root[o.a] != o.a) { o.a = root[o.a]; ++st.copies_bypassed; }
    if (arity >= 2 && root[o.b] != o.b) { o.b = root[o.b]; ++st.copies_bypassed; }
    if (arity >= 3 && root[o.sel] != o.sel) {
      o.sel = root[o.sel];
      ++st.copies_bypassed;
    }

    // Simplify to a local fixpoint. Every rewrite strictly reduces the op
    // (toward Copy/Not/Const) or fuses a Not into an earlier binary op
    // whose operands are known non-constant, so this terminates.
    for (bool changed = true; changed;) {
      changed = false;
      const CV ca = op_arity(o.code) >= 1 ? cval[o.a] : CV::Unknown;
      const CV cb = op_arity(o.code) >= 2 ? cval[o.b] : CV::Unknown;
      switch (o.code) {
        case Code::Const0:
        case Code::Const1:
          break;
        case Code::Copy:
          if (ca != CV::Unknown) {
            o = const_op(o.out, ca == CV::One);
            ++st.consts_folded;
            changed = true;
          }
          break;
        case Code::Not:
          if (ca != CV::Unknown) {
            o = const_op(o.out, ca == CV::Zero);
            ++st.consts_folded;
            changed = true;
          } else if (producer[o.a] >= 0) {
            const TapeOp& p = ops[static_cast<std::size_t>(producer[o.a])];
            if (has_complement(p.code)) {
              o = {complement_code(p.code), o.out, p.a, p.b, 0};
              ++st.not_fused;
              changed = true;
            } else if (p.code == Code::Not) {
              o = copy_op(o.out, p.a);
              ++st.not_fused;
              changed = true;
            }
          }
          break;
        case Code::And:
        case Code::Nand: {
          const bool inv = o.code == Code::Nand;
          if (ca == CV::Zero || cb == CV::Zero) {
            o = const_op(o.out, inv);
          } else if (ca == CV::One) {
            o = inv ? not_op(o.out, o.b) : copy_op(o.out, o.b);
          } else if (cb == CV::One) {
            o = inv ? not_op(o.out, o.a) : copy_op(o.out, o.a);
          } else if (o.a == o.b) {
            o = inv ? not_op(o.out, o.a) : copy_op(o.out, o.a);
            ++st.idempotent_folded;
            changed = true;
            break;
          } else {
            break;
          }
          ++st.consts_folded;
          changed = true;
          break;
        }
        case Code::Or:
        case Code::Nor: {
          const bool inv = o.code == Code::Nor;
          if (ca == CV::One || cb == CV::One) {
            o = const_op(o.out, !inv);
          } else if (ca == CV::Zero) {
            o = inv ? not_op(o.out, o.b) : copy_op(o.out, o.b);
          } else if (cb == CV::Zero) {
            o = inv ? not_op(o.out, o.a) : copy_op(o.out, o.a);
          } else if (o.a == o.b) {
            o = inv ? not_op(o.out, o.a) : copy_op(o.out, o.a);
            ++st.idempotent_folded;
            changed = true;
            break;
          } else {
            break;
          }
          ++st.consts_folded;
          changed = true;
          break;
        }
        case Code::Xor:
        case Code::Xnor: {
          const bool inv = o.code == Code::Xnor;
          if (ca != CV::Unknown && cb != CV::Unknown) {
            o = const_op(o.out, ((ca == CV::One) != (cb == CV::One)) != inv);
          } else if (ca == CV::Zero) {
            o = inv ? not_op(o.out, o.b) : copy_op(o.out, o.b);
          } else if (ca == CV::One) {
            o = inv ? copy_op(o.out, o.b) : not_op(o.out, o.b);
          } else if (cb == CV::Zero) {
            o = inv ? not_op(o.out, o.a) : copy_op(o.out, o.a);
          } else if (cb == CV::One) {
            o = inv ? copy_op(o.out, o.a) : not_op(o.out, o.a);
          } else if (o.a == o.b) {
            o = const_op(o.out, inv);
            ++st.idempotent_folded;
            changed = true;
            break;
          } else {
            break;
          }
          ++st.consts_folded;
          changed = true;
          break;
        }
        case Code::Mux: {
          const CV cs = cval[o.sel];
          if (cs != CV::Unknown) {
            o = copy_op(o.out, cs == CV::One ? o.b : o.a);
            ++st.consts_folded;
            changed = true;
          } else if (o.a == o.b) {
            o = copy_op(o.out, o.a);
            ++st.idempotent_folded;
            changed = true;
          } else if (ca == CV::Zero && cb == CV::One) {
            o = copy_op(o.out, o.sel);
            ++st.consts_folded;
            changed = true;
          } else if (ca == CV::One && cb == CV::Zero) {
            o = not_op(o.out, o.sel);
            ++st.consts_folded;
            changed = true;
          }
          break;
        }
      }
    }

    if (o.code == Code::Copy) {
      root[o.out] = o.a;  // o.a is already a root
      cval[o.out] = cval[o.a];
    } else if (o.code == Code::Const0) {
      cval[o.out] = CV::Zero;
    } else if (o.code == Code::Const1) {
      cval[o.out] = CV::One;
    }
    producer[o.out] = static_cast<std::int64_t>(ops.size());
    ops.push_back(o);
  }

  // Register commits read the D slot directly — reroute past copies so the
  // copy itself can die.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dffs = tape.dffs;
  for (auto& [q, d] : dffs) d = root[d];

  // Backward liveness from observable slots and register D inputs.
  std::vector<std::uint8_t> live(ops.size(), 0);
  std::vector<std::uint32_t> work;
  const auto mark_slot = [&](std::uint32_t s) {
    const std::int64_t p = producer[s];
    if (p >= 0 && !live[static_cast<std::size_t>(p)]) {
      live[static_cast<std::size_t>(p)] = 1;
      work.push_back(static_cast<std::uint32_t>(p));
    }
  };
  for (std::size_t s = 0; s < nslots && s < observable.size(); ++s) {
    if (observable[s]) mark_slot(static_cast<std::uint32_t>(s));
  }
  for (const auto& [q, d] : dffs) mark_slot(d);
  while (!work.empty()) {
    const TapeOp& o = ops[work.back()];
    work.pop_back();
    const int arity = op_arity(o.code);
    if (arity >= 1) mark_slot(o.a);
    if (arity >= 2) mark_slot(o.b);
    if (arity >= 3) mark_slot(o.sel);
  }

  std::vector<TapeOp> kept;
  kept.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (live[i]) kept.push_back(ops[i]);
    else ++st.dead_removed;
  }
  st.ops_after = kept.size();
  if (stats != nullptr) *stats = st;
  return assemble_tape(std::move(kept), tape.slots, std::move(dffs));
}

}  // namespace silc::sim
