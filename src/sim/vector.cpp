// The bit-parallel inner loop: every value slot is one word (64 or 512
// lanes) whose bit b of limb w is stimulus lane w*64+b, so each pass
// through the tape evaluates lanes_of(word) independent vectors with
// ordinary word-wide boolean ops — no events, no relaxation, no per-lane
// dispatch. The kernel is one template instantiated per word type; the
// instantiations are wrapped in target_clones so the AVX2/AVX-512
// encodings of the wide word are picked at load time where the hardware
// has them (SSE/scalar lowering elsewhere — same results, fewer lanes per
// instruction). Plus trace utilities (seeded random stimulus,
// first-divergence diff) shared by crosscheck and the tests.
#include <algorithm>
#include <cstring>
#include <new>
#include <random>
#include <sstream>

#include "sim/sim.hpp"

namespace silc::sim {

void LaneBuffer::assign(std::size_t words) {
  ptr_.reset(static_cast<std::uint64_t*>(
      ::operator new[](words * sizeof(std::uint64_t), std::align_val_t{64})));
  words_ = words;
  clear();
}

void LaneBuffer::clear() {
  if (words_ > 0) std::memset(ptr_.get(), 0, words_ * sizeof(std::uint64_t));
}

namespace {

template <class W>
inline void eval_ops(const TapeOp* op, const TapeOp* const end, W* const v) {
  for (; op != end; ++op) {
    switch (op->code) {
      case TapeOp::Code::Const0: v[op->out] = W{}; break;
      case TapeOp::Code::Const1: v[op->out] = ~W{}; break;
      case TapeOp::Code::Copy: v[op->out] = v[op->a]; break;
      case TapeOp::Code::Not: v[op->out] = ~v[op->a]; break;
      case TapeOp::Code::And: v[op->out] = v[op->a] & v[op->b]; break;
      case TapeOp::Code::Or: v[op->out] = v[op->a] | v[op->b]; break;
      case TapeOp::Code::Nand: v[op->out] = ~(v[op->a] & v[op->b]); break;
      case TapeOp::Code::Nor: v[op->out] = ~(v[op->a] | v[op->b]); break;
      case TapeOp::Code::Xor: v[op->out] = v[op->a] ^ v[op->b]; break;
      case TapeOp::Code::Xnor: v[op->out] = ~(v[op->a] ^ v[op->b]); break;
      case TapeOp::Code::Mux:
        v[op->out] = (v[op->sel] & v[op->b]) | (~v[op->sel] & v[op->a]);
        break;
    }
  }
}

// Resolve the wide-word ISA per machine at load time. target_clones needs
// GNU ifunc support; restricted to x86-64 GCC/Clang, everything else gets
// the default lowering (still correct, still vector code where the
// baseline ISA allows).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    defined(SILC_SIM_VECTOR_EXT)
#define SILC_SIM_ISA_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default"), flatten))
#else
#define SILC_SIM_ISA_CLONES
#endif

SILC_SIM_ISA_CLONES
void run_u64(const TapeOp* b, const TapeOp* e, std::uint64_t* v) {
  eval_ops<std::uint64_t>(b, e, v);
}
SILC_SIM_ISA_CLONES
void run_v512(const TapeOp* b, const TapeOp* e, Word512* v) {
  eval_ops<Word512>(b, e, v);
}

}  // namespace

void eval_tape(const Tape& tape, WordKind word, std::uint64_t* slots) {
  const TapeOp* const b = tape.ops.data();
  const TapeOp* const e = b + tape.ops.size();
  switch (word) {
    case WordKind::U64: run_u64(b, e, slots); break;
    case WordKind::V512: run_v512(b, e, reinterpret_cast<Word512*>(slots)); break;
  }
}

void commit_tape(const Tape& tape, WordKind word, std::uint64_t* v,
                 std::uint64_t* scratch) {
  const std::size_t w = static_cast<std::size_t>(words_of(word));
  for (std::size_t i = 0; i < tape.dffs.size(); ++i) {
    std::memcpy(scratch + i * w, v + tape.dffs[i].second * w,
                w * sizeof(std::uint64_t));
  }
  for (std::size_t i = 0; i < tape.dffs.size(); ++i) {
    std::memcpy(v + tape.dffs[i].first * w, scratch + i * w,
                w * sizeof(std::uint64_t));
  }
}

Trace random_stimulus(const rtl::Design& design, int cycles, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> word;
  const auto inputs = design.of_kind(rtl::SignalKind::Input);
  Trace trace(static_cast<std::size_t>(std::max(0, cycles)));
  for (Vector& row : trace) {
    for (const rtl::Signal* in : inputs) {
      row[in->name] = rtl::mask_to(word(rng), in->width);
    }
  }
  return trace;
}

std::string TraceDiff::to_string() const {
  if (identical) return "traces identical";
  std::ostringstream os;
  os << "cycle " << cycle << " signal " << signal << ": " << a << " != " << b;
  return os.str();
}

TraceDiff diff_traces(const Trace& a, const Trace& b) {
  TraceDiff d;
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t c = 0; c < n; ++c) {
    if (c >= a.size() || c >= b.size()) {
      d.identical = false;
      d.cycle = static_cast<int>(c);
      d.signal = "<trace length>";
      d.a = a.size();
      d.b = b.size();
      return d;
    }
    for (const auto& [name, va] : a[c]) {
      const auto it = b[c].find(name);
      if (it == b[c].end()) {
        d.identical = false;
        d.cycle = static_cast<int>(c);
        d.signal = name + " (missing in second trace)";
        d.a = va;
        return d;
      }
      if (va != it->second) {
        d.identical = false;
        d.cycle = static_cast<int>(c);
        d.signal = name;
        d.a = va;
        d.b = it->second;
        return d;
      }
    }
    for (const auto& [name, vb] : b[c]) {
      if (a[c].count(name) == 0) {
        d.identical = false;
        d.cycle = static_cast<int>(c);
        d.signal = name + " (missing in first trace)";
        d.b = vb;
        return d;
      }
    }
  }
  return d;
}

}  // namespace silc::sim
