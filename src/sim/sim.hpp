// Compiled, levelized, bit-parallel gate/RTL simulation engine.
//
// The relaxation-based switch-level simulator (swsim) is the right tool for
// checking extracted artwork, but it pays a whole-network fixpoint per clock
// phase — far too slow to be the compiler's routine equivalence check. This
// subsystem instead *compiles* the design, in the lineage of compiled-code
// simulators (CVC-style flow-graph compilation, CCSS-style cheap sequential
// synchronization):
//
//   * levelize():  topologically rank the combinational ops of a
//     net::Netlist and flatten them into a linear evaluation tape; n-ary
//     gates are decomposed into two-input ops at compile time, so the inner
//     loop is a branch-light switch over a dense op array. Levels are
//     op-granular: an op at level l reads only slots finalized at levels
//     < l, which makes every level a data-parallel strip.
//   * fuse_tape(): a post-levelize peephole pass — Not folds into its
//     And/Or/Nand/Nor/Xor/Xnor producer, Copy chains are bypassed,
//     constant operands fold, and ops whose results are unobservable are
//     dead-code-eliminated — so the tape shrinks before it ever runs.
//   * word backends (word.hpp): the interpreter is templated over the word
//     type; one pass evaluates 64 lanes (uint64), 256 or 512 lanes
//     (GCC/Clang vector extensions, ISA selected at load time via
//     target_clones, portable fallbacks elsewhere). One bit of every slot
//     word is one independent stimulus lane.
//   * TapePool: a persistent worker pool that strip-mines each level's op
//     range across threads with one barrier per level — level boundaries
//     are the only sync points a levelized tape needs. Levels below a
//     configurable op threshold run sequentially so small designs don't
//     pay barrier latency.
//   * CompiledSim: owns netlist + fused tape + lane storage, evaluates via
//     the configured word/threads (SimConfig), and synchronizes all
//     registers once per clock cycle with a two-phase gather-then-commit
//     (no event queue, no relaxation);
//   * to_switch_level(): expands a gate netlist into a ratioed-NMOS
//     transistor network (depletion pullups, enhancement pulldown trees,
//     two-phase dynamic master/slave registers) so the *same* design can be
//     run under swsim without needing artwork;
//   * prove_gates(): the compiler's behavioral-vs-gates check — the
//     bit-blasted gates driven through every minterm of the tabulated
//     FSM, one minterm per lane of the widest word, so the verdict is an
//     exhaustive proof rather than a sample.
//   * crosscheck(): one stimulus, three models — rtl::BehavioralSim,
//     sim::CompiledSim, and swsim::Simulator — with a cycle-by-cycle
//     trace diff (and an optional VCD dump of the diverging traces).
//     The sampled oracle prove_gates is tested against.
//   * check_pla(): the PLA path's pre-artwork equivalence check — the
//     personality actually programmed into the NOR-NOR planes, compared
//     with the tabulated spec on every minterm, or replayed against the
//     compiled tape as the sampled oracle (see PlaCheckMode).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/net.hpp"
#include "rtl/rtl.hpp"
#include "sim/word.hpp"

namespace silc::extract {
struct Netlist;  // sim -> swsim lowering target (switch_level.cpp)
}
namespace silc::swsim {
class Simulator;  // driven by the switch-level harness helpers
}
namespace silc::logic {
struct PlaTerms;  // the programmed personality check_pla replays
}
namespace silc::synth {
struct TabulatedFsm;  // the spec prove_gates and check_pla decide against
}

namespace silc::sim {

/// Stimulus lanes per 64-bit word — the baseline word's lane count. Wide
/// words carry lanes_of(kind) lanes; CompiledSim::lanes() is authoritative.
inline constexpr int kLanes = 64;

// ------------------------------------------------------------ levelizing --

/// One two-input op of the flattened evaluation tape. `a`/`b` index value
/// slots; `sel` is used by Mux only (out = sel ? b : a, matching
/// net::GateKind::Mux's {sel, a, b} convention).
struct TapeOp {
  enum class Code : std::uint8_t {
    Const0, Const1, Copy, Not, And, Or, Nand, Nor, Xor, Xnor, Mux,
  };
  Code code{};
  std::uint32_t out = 0;
  std::uint32_t a = 0, b = 0, sel = 0;

  friend bool operator==(const TapeOp&, const TapeOp&) = default;
};

/// A levelized netlist: ops sorted by combinational level (an op at level l
/// reads only slots written at levels < l or source slots — op-granular, so
/// any level may be evaluated in parallel), plus the register commit list.
/// Slots 0..net_count-1 mirror the netlist's nets; slots beyond that are
/// temporaries introduced by n-ary gate decomposition.
struct Tape {
  std::vector<TapeOp> ops;
  /// level_begin[l] is the index of the first op of level l+1 (levels are
  /// 1-based; level 0 holds only sources). Size = depth()+1; the last
  /// entry equals ops.size().
  std::vector<std::uint32_t> level_begin;
  /// Register commits as (q slot, d slot), all latched together per cycle.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dffs;
  std::size_t slots = 0;

  [[nodiscard]] int depth() const {
    return level_begin.empty() ? 0 : static_cast<int>(level_begin.size()) - 1;
  }
};

/// Compile a netlist into an evaluation tape. Throws std::runtime_error on
/// combinational cycles or multiply-driven nets.
[[nodiscard]] Tape levelize(const net::Netlist& nl);

/// The pre-levelling half of levelize: every gate decomposed into two-input
/// ops in topological order (n-ary chains via fresh temp slots), registers
/// split out as commit pairs, nothing ranked yet. Deterministic for a given
/// netlist, so two decompositions are comparable op by op — which is what
/// CompiledSim::update diffs to find the tape region an edit actually
/// reaches. Throws like levelize on cycles or multiple drivers.
struct RawTape {
  std::vector<TapeOp> ops;  // dependency order, slot ids as in Tape
  std::size_t slots = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dffs;

  friend bool operator==(const RawTape&, const RawTape&) = default;
};
[[nodiscard]] RawTape decompose(const net::Netlist& nl);

/// Op-granular levels of a dependency-ordered op list: 1 + deepest operand,
/// unwritten slots are level-0 sources.
[[nodiscard]] std::vector<std::uint32_t> op_levels(
    const std::vector<TapeOp>& ops, std::size_t slots);

/// Bucket a dependency-ordered op list by precomputed per-op levels (stable
/// counting sort) and emit level_begin. assemble_tape composes op_levels
/// with this; CompiledSim::update calls it directly with a mix of cached
/// and recomputed levels.
[[nodiscard]] Tape bucket_by_level(
    std::vector<TapeOp> ops, std::size_t slots,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> dffs,
    const std::vector<std::uint32_t>& op_level);

/// Rebuild a tape from a topologically ordered op list: compute op-granular
/// levels (1 + deepest operand; unwritten slots are level-0 sources), bucket
/// ops by level keeping their relative order, and emit level_begin. The
/// toolkit every tape-producing pass (levelize, fuse_tape) shares.
[[nodiscard]] Tape assemble_tape(
    std::vector<TapeOp> ops, std::size_t slots,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> dffs);

// ---------------------------------------------------------- tape fusion --

struct FuseStats {
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  std::size_t not_fused = 0;        // Not folded into its producer op
  std::size_t copies_bypassed = 0;  // reads rerouted past Copy ops
  std::size_t consts_folded = 0;    // ops simplified by constant operands
  std::size_t idempotent_folded = 0;  // equal-operand simplifications
  std::size_t dead_removed = 0;     // unobservable ops eliminated
  [[nodiscard]] std::string to_string() const;
};

/// Peephole-fuse and shrink a tape. `observable` flags the slots whose
/// values must survive (slot index -> bool; shorter vectors mean "false");
/// register D slots and everything an observable or live op reads are kept
/// automatically. Ops whose results nobody can see are removed.
[[nodiscard]] Tape fuse_tape(const Tape& tape,
                             const std::vector<std::uint8_t>& observable,
                             FuseStats* stats = nullptr);

// ------------------------------------------------------------- evaluation --

/// Evaluate ops [first, last) over the given word. `slots` is the lane
/// buffer described in word.hpp (words_of(word) uint64 limbs per slot,
/// 64-byte aligned for the wide words).
void eval_range(const Tape& tape, WordKind word, std::uint64_t* slots,
                std::uint32_t first, std::uint32_t last);

/// Evaluate every tape op, in order, over the given word.
void eval_tape(const Tape& tape, WordKind word, std::uint64_t* slots);
inline void eval_tape(const Tape& tape, std::uint64_t* slots) {
  eval_tape(tape, WordKind::U64, slots);
}

/// Latch every register: gather all D values, then write all Q slots, so
/// register-to-register paths see pre-clock values (two-phase semantics).
/// `scratch` must hold at least tape.dffs.size() * words_of(word) limbs.
void commit_tape(const Tape& tape, WordKind word, std::uint64_t* slots,
                 std::uint64_t* scratch);
inline void commit_tape(const Tape& tape, std::uint64_t* slots,
                        std::uint64_t* scratch) {
  commit_tape(tape, WordKind::U64, slots, scratch);
}

// --------------------------------------------------- level-parallel pool --

/// Persistent worker pool that strip-mines each tape level across threads
/// (static chunking, one barrier per level). Levels smaller than
/// `min_level_ops` — and runs of them — are evaluated by the calling
/// thread alone, so shallow/narrow stretches don't pay barrier latency.
class TapePool {
 public:
  /// `threads` is the total worker count including the calling thread
  /// (>= 2). The tape and word must outlive the pool.
  TapePool(const Tape& tape, WordKind word, int threads,
           std::uint32_t min_level_ops);
  ~TapePool();
  TapePool(const TapePool&) = delete;
  TapePool& operator=(const TapePool&) = delete;

  /// One full tape pass over `slots` (same buffer contract as eval_tape).
  void eval(std::uint64_t* slots);

  [[nodiscard]] int threads() const;

  /// True when some level is wide enough that strip-mining can pay.
  [[nodiscard]] static bool worth_threading(const Tape& tape,
                                            std::uint32_t min_level_ops);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ------------------------------------------------------- traces & vectors --

/// One cycle of named values (inputs of a stimulus, outputs of a response).
using Vector = std::map<std::string, std::uint64_t>;
/// One Vector per cycle.
using Trace = std::vector<Vector>;

/// `cycles` rows of seeded uniform random values for every design input.
[[nodiscard]] Trace random_stimulus(const rtl::Design& design, int cycles,
                                    unsigned seed);

/// First point where two traces disagree (missing keys count as disagreement).
struct TraceDiff {
  bool identical = true;
  int cycle = -1;
  std::string signal;
  std::uint64_t a = 0, b = 0;
  [[nodiscard]] std::string to_string() const;
};
[[nodiscard]] TraceDiff diff_traces(const Trace& a, const Trace& b);

// -------------------------------------------------------------- VCD dump --

/// Render traces as a VCD document (one $scope per named trace, one
/// timestep per cycle) so mismatches can be inspected waveform-by-waveform
/// in any VCD viewer. Signal widths come from `widths` when present and
/// are inferred from the largest value otherwise.
[[nodiscard]] std::string to_vcd(
    const std::vector<std::pair<std::string, Trace>>& traces,
    const std::map<std::string, int>& widths = {});

/// to_vcd() straight to a file. Returns false when the file can't be
/// written.
bool dump_vcd(const std::string& path,
              const std::vector<std::pair<std::string, Trace>>& traces,
              const std::map<std::string, int>& widths = {});

// ------------------------------------------------------------- LaneBuffer --

/// A 64-byte-aligned, zero-initialized uint64 buffer — the wide-word
/// kernels issue *aligned* vector loads, and allocator-based containers
/// ignore over-alignment attributes on vector-extension element types, so
/// lane storage is allocated explicitly.
class LaneBuffer {
 public:
  LaneBuffer() = default;
  /// Reallocate to `words` limbs, all zero.
  void assign(std::size_t words);
  /// Zero every limb, keeping the allocation.
  void clear();
  [[nodiscard]] std::uint64_t* data() { return ptr_.get(); }
  [[nodiscard]] const std::uint64_t* data() const { return ptr_.get(); }
  [[nodiscard]] std::size_t size() const { return words_; }

 private:
  struct Free {
    void operator()(std::uint64_t* p) const {
      ::operator delete[](p, std::align_val_t{64});
    }
  };
  std::unique_ptr<std::uint64_t[], Free> ptr_;
  std::size_t words_ = 0;
};

// ------------------------------------------------------------ CompiledSim --

/// Evaluation knobs. The defaults give the fastest safe configuration:
/// widest word, auto thread count (engaged only when some level clears
/// parallel_min_ops), fusion on.
struct SimConfig {
  WordKind word = widest_word();
  /// Total evaluation threads: 1 = sequential, 0 = hardware concurrency.
  /// A pool is spun up only when the tape has a level worth splitting.
  int threads = 0;
  bool fuse = true;
  /// Strip-mine a level across threads only when it has at least this many
  /// ops; smaller levels run on the calling thread.
  std::uint32_t parallel_min_ops = 4096;
  /// Extra signal names whose nets must stay observable (peekable) under
  /// fusion, beyond the defaults (primary inputs/outputs, registers, and —
  /// for the Design constructor — every declared signal).
  std::vector<std::string> keep;
};

/// What CompiledSim::update did with one netlist edit: how much of the
/// old tape's levelling survived. Mirrored as incr.sim.* counters.
struct IncrTapeStats {
  std::size_t ops_total = 0;       ///< ops in the new decomposition
  std::size_t ops_reused = 0;      ///< levels carried over from the old tape
  std::size_t ops_relevelized = 0; ///< levels recomputed (edit-reachable)
  bool identical = false;          ///< netlist unchanged: tape kept verbatim
};

struct GateProofReport;
GateProofReport prove_gates(const rtl::Design& design,
                            const synth::TabulatedFsm& fsm,
                            const SimConfig& sim);

class CompiledSim {
 public:
  /// Compile an existing gate netlist (copied; names resolve via name_map).
  explicit CompiledSim(const net::Netlist& nl, const SimConfig& config = {});
  /// Bit-blast and compile an elaborated RTL design; signal names resolve
  /// with the design's declared widths, and run() records design outputs.
  explicit CompiledSim(const rtl::Design& design, const SimConfig& config = {});
  ~CompiledSim();
  CompiledSim(const CompiledSim&) = delete;
  CompiledSim& operator=(const CompiledSim&) = delete;

  /// Drive an input (or force a register) to `value` in every lane.
  void poke(const std::string& signal, std::uint64_t value);
  /// Drive one lane of an input; other lanes keep their values.
  void poke_lane(int lane, const std::string& signal, std::uint64_t value);
  /// Read any observable signal in lane 0 / a given lane (evaluates if
  /// stale). Throws for signals fused away — keep them via SimConfig.
  [[nodiscard]] std::uint64_t peek(const std::string& signal);
  [[nodiscard]] std::uint64_t peek_lane(int lane, const std::string& signal);

  /// Re-evaluate all combinational logic from current inputs + state.
  void eval();
  /// Advance `n` clock cycles: evaluate, commit all registers, re-settle.
  void step(int n = 1);
  /// Set every register bit to `v` in all lanes and re-evaluate.
  void reset(bool v = false);

  /// Re-compile against an edited netlist, reusing the old tape where the
  /// edit can't reach: the fresh decomposition is diffed op-by-op against
  /// the cached one, dirtiness is propagated through read slots in one
  /// dependency-order pass, and only edit-reachable ops are re-levelized —
  /// clean ops keep their cached levels (sound because a clean op's whole
  /// producer cone is clean). Fusion then reruns globally (it is a cheap
  /// linear pass). The resulting tape is byte-identical to building a
  /// fresh CompiledSim from `nl`, and the sim is left at power-on state
  /// exactly like a fresh build (tests/test_incremental.cpp proves both).
  /// An identical netlist keeps the tape verbatim and only clears lane
  /// state. Throws like the constructor on invalid netlists — before any
  /// member is mutated, so the old sim stays usable (fault site
  /// "incr.sim.update").
  void update(const net::Netlist& nl, IncrTapeStats* stats = nullptr);

  /// Batch run: up to lanes() stimulus sequences, one lane each, all from
  /// reset state. Returns one trace per sequence recording `probes` (or the
  /// design's outputs when constructed from a Design and probes is empty)
  /// after each cycle's register commit. Sequences shorter than the longest
  /// hold their last inputs.
  [[nodiscard]] std::vector<Trace> run(const std::vector<Trace>& stimuli,
                                       const std::vector<std::string>& probes = {});

  [[nodiscard]] const net::Netlist& netlist() const { return nl_; }
  [[nodiscard]] const Tape& tape() const { return tape_; }
  [[nodiscard]] int depth() const { return tape_.depth(); }
  /// Stimulus lanes per pass under the configured word.
  [[nodiscard]] int lanes() const { return lanes_of(word_); }
  [[nodiscard]] WordKind word() const { return word_; }
  /// Worker threads actually engaged (1 when evaluating sequentially).
  [[nodiscard]] int threads() const;
  [[nodiscard]] const FuseStats& fuse_stats() const { return fuse_stats_; }

 private:
  void init(const SimConfig& config);
  /// Fuse `assembled` per config_, rebuild liveness/storage/pool/name
  /// resolution, and leave the sim at power-on state. init and update share
  /// it — which is what makes update-vs-fresh-build byte-identity hold by
  /// construction for everything downstream of levelling.
  void adopt_tape(Tape assembled);
  void eval_now();
  /// LSB-first value slots of a named signal; resolved via "name" then
  /// "name[b]", design widths when known. Throws when unknown.
  const std::vector<std::uint32_t>& bits_of(const std::string& name);
  [[nodiscard]] std::uint64_t* slot_words() { return storage_.data(); }

  net::Netlist nl_;
  SimConfig config_;       // update() re-applies the construction knobs
  RawTape raw_;            // pre-levelling decomposition, diffed by update()
  std::vector<std::uint32_t> raw_levels_;  // op levels of raw_, reused by update()
  Tape tape_;
  WordKind word_ = WordKind::U64;
  int words_per_slot_ = 1;
  FuseStats fuse_stats_;
  LaneBuffer storage_;   // 64-byte-aligned lane buffer
  LaneBuffer scratch_;   // register commit staging
  std::vector<std::uint8_t> live_;  // slot still carries a value post-fusion
  std::unique_ptr<TapePool> pool_;
  std::map<std::string, std::vector<std::uint32_t>> by_name_;
  std::map<std::string, int> widths_;       // declared widths (Design ctor)
  std::vector<std::string> output_names_;   // default run() probes
  bool dirty_ = true;

  // Drives whole lane limbs of pre-resolved slots, not named lanes.
  friend GateProofReport prove_gates(const rtl::Design&,
                                     const synth::TabulatedFsm&,
                                     const SimConfig&);
};

// ------------------------------------------------- switch-level lowering --

/// Expand a gate netlist into a ratioed-NMOS transistor network for
/// swsim: every combinational gate becomes a depletion pullup plus an
/// enhancement pulldown tree; every DFF becomes a two-phase dynamic
/// master/slave latch pair clocked by "phi1"/"phi2" whose slave storage
/// node is named "<reg bit>.s" (drive it high, settle, release to preset
/// the register to 0). Net names and aliases carry over.
[[nodiscard]] extract::Netlist to_switch_level(const net::Netlist& nl);

/// Power-on a to_switch_level() network under swsim: clocks low, every
/// primary input driven 0, every register preset to 0 through its
/// "<bit>.s" slave node (drive high, settle, release). Returns false with
/// `detail` on missing nodes or a non-settling network. This is the one
/// copy of the preset protocol — benches and crosscheck share it.
[[nodiscard]] bool switch_power_on(const net::Netlist& nl,
                                   const extract::Netlist& xnl,
                                   swsim::Simulator& sw, std::string& detail);

/// One two-phase clock cycle: raise and lower phi1 then phi2, settling
/// after every edge. Returns false with `detail` when a settle fails.
[[nodiscard]] bool switch_cycle(swsim::Simulator& sw, std::string& detail);

// ------------------------------------------------------------ gate proof --

/// What prove_gates decided.
struct GateProofReport {
  bool ok = false;
  /// Size of the space decided: 2^n for n state + input bits, every
  /// minterm of the tabulated FSM.
  std::uint64_t minterms = 0;
  /// The first disagreement ("" when ok): the table output whose gate
  /// value differs (fsm.output_names, so next-state bits read "r'[b]"),
  /// and the lowest minterm, in synth::tabulate's layout, where it does.
  std::string mismatch_signal;
  std::uint32_t counterexample = 0;
  std::string detail;
};

/// Prove the design's bit-blasted gates equal to its tabulated FSM
/// (synth::tabulate, which ran rtl::BehavioralSim over every minterm): one
/// CompiledSim, every minterm of `fsm` driven across the word's lanes,
/// each output bit compared to the table after eval and each register to
/// the next-state bits after the clock commit. Both models power on with
/// every register 0 (asserted on the compiled side), so equal transition
/// and output functions make their traces equal for every input sequence
/// — the verdict crosscheck samples, decided exhaustively.
///
/// A disagreement is data (ok = false with a witness). A design and table
/// that do not describe the same machine (signal missing, register count
/// off, more than 32 minterm bits) throw std::runtime_error, as do
/// cancellation (core::Cancelled, checked once per pass) and the
/// "sim.gate.prove" fault point.
[[nodiscard]] GateProofReport prove_gates(const rtl::Design& design,
                                          const synth::TabulatedFsm& fsm,
                                          const SimConfig& sim = {});

// -------------------------------------------------------------- crosscheck --

struct CrosscheckOptions {
  int cycles = 256;        // cycles checked behavioral-vs-compiled, per lane
  int lanes = 0;           // independent stimulus sequences; 0 = every lane
                           // of the configured word (256-512 on GCC/Clang)
  int switch_cycles = 16;  // lane-0 prefix also run under swsim; 0 disables
  unsigned seed = 1;
  SimConfig sim;           // word/threads/fusion for the compiled model
  /// When non-empty and the behavioral and compiled traces diverge, both
  /// are dumped here as VCD scopes "behavioral" and "compiled" (plus
  /// "switch_level" for switch-level divergence).
  std::string vcd_on_mismatch;
};

struct CrosscheckReport {
  bool ok = false;
  int cycles = 0;         // behavioral-vs-compiled cycles, per lane
  int lanes = 0;
  int switch_cycles = 0;  // cycles additionally checked under swsim
  std::size_t transistors = 0;  // switch-level network size (when run)
  std::string detail;     // summary, or the first mismatch
  /// First divergence, machine-readable (mismatch.identical when ok):
  /// which lane, and cycle/signal/values from the trace diff.
  int mismatch_lane = -1;
  TraceDiff mismatch;
};

/// Run the same seeded random stimulus through rtl::BehavioralSim,
/// sim::CompiledSim, and (for a prefix) swsim::Simulator on the
/// switch-level expansion, and diff the output traces cycle by cycle.
[[nodiscard]] CrosscheckReport crosscheck(const rtl::Design& design,
                                          const CrosscheckOptions& options = {});

// ---------------------------------------------------------- PLA-path check --

/// Which engine decides whether the programmed personality matches the
/// tabulated FSM.
enum class PlaCheckMode : std::uint8_t {
  /// Every minterm of `fsm.function`: on each care row, the NOR of each
  /// output's selected terms (PlaTerms::evaluate) against the table.
  /// Exhaustive over the whole care space and no simulation;
  /// `cycles`/`lanes`/`seed`/`sim` are ignored. The compiler's pla-check
  /// stage always runs this engine.
  Exhaustive,
  /// The original interpreted replay: personality.evaluate() per output
  /// bit per cycle against the compiled tape over seeded random stimulus.
  /// Sampling, not proof, and slow; retained as the sampled oracle the
  /// exhaustive engine is tested against.
  Replay,
};

[[nodiscard]] const char* to_string(PlaCheckMode mode);

struct PlaCheckReport {
  bool ok = false;
  PlaCheckMode mode = PlaCheckMode::Exhaustive;  // engine of the verdict
  bool proven = false;    // true: decided over the whole care space
  int cycles = 0;         // sampled cycles (0 in exhaustive mode)
  int lanes = 0;          // sampled lanes (0 in exhaustive mode)
  std::size_t terms = 0;  // product terms in the programmed personality
  std::string detail;
  /// First divergence, machine-readable (lane < 0 when ok; sampling
  /// modes only).
  int mismatch_lane = -1;
  int mismatch_cycle = -1;
  std::string mismatch_signal;
  /// Exhaustive-mode counterexample: the lowest minterm (personality bit
  /// layout, [state bits][input bits]) where the planes and the spec
  /// disagree, on the first such output (mismatch_signal). Valid when
  /// has_counterexample.
  bool has_counterexample = false;
  std::uint32_t counterexample = 0;
  /// The engine threw (detail carries the exception) — the report is an
  /// engine failure, not a verdict.
  bool error = false;
};

/// Pre-artwork equivalence check for the tabulate->PLA flow. `personality`
/// holds the *programmed* NOR-NOR planes — the complement cover of each
/// output, out_k = NOR of its selected terms — and is checked against the
/// design per `mode` (see PlaCheckMode): every minterm of `fsm.function`
/// by default, or the Replay oracle's sampled diff against the design's
/// compiled gate tape. Both modes reject FSMs whose
/// minterm exceeds the 32-bit cube packing (state_bits + input bits > 32)
/// with a structured failure rather than wrapping silently.
///
/// `cycles`/`lanes`/`seed` drive Replay (`lanes` = 0 uses every lane of
/// the configured word); `sim` tunes its compiled model. Exceptions other
/// than core::Cancelled are caught into an ok=false report with `error`
/// set; core's pla-check stage turns that into an error diag.
[[nodiscard]] PlaCheckReport check_pla(const rtl::Design& design,
                                       const synth::TabulatedFsm& fsm,
                                       const logic::PlaTerms& personality,
                                       int cycles = 256, int lanes = 0,
                                       unsigned seed = 1,
                                       const SimConfig& sim = {},
                                       PlaCheckMode mode = PlaCheckMode::Exhaustive);

}  // namespace silc::sim
