// CompiledSim: own the netlist + fused tape, map signal names to value
// slots, and drive the bit-parallel kernel over the configured word
// backend / thread pool. crosscheck(): the three-model equivalence harness
// (behavioral / compiled / switch-level). check_pla(): the programmed-PLA
// equivalence check — every minterm of the table, or the interpreted
// replay oracle, per PlaCheckMode. prove_gates(): the gates against the
// tabulated FSM over every minterm.
#include "sim/sim.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/cancel.hpp"
#include "sim/tape_util.hpp"
#include "extract/extract.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "swsim/swsim.hpp"
#include "synth/synth.hpp"

namespace silc::sim {

CompiledSim::CompiledSim(const net::Netlist& nl, const SimConfig& config)
    : nl_(nl) {
  init(config);
}

CompiledSim::CompiledSim(const rtl::Design& design, const SimConfig& config)
    : nl_(synth::bit_blast(design)) {
  for (const rtl::Signal& s : design.signals) {
    widths_[s.name] = s.width;
    if (s.kind == rtl::SignalKind::Output) output_names_.push_back(s.name);
  }
  init(config);
}

CompiledSim::~CompiledSim() = default;

void CompiledSim::init(const SimConfig& config) {
  config_ = config;
  word_ = config.word;
  words_per_slot_ = words_of(word_);
  raw_ = decompose(nl_);
  raw_levels_ = op_levels(raw_.ops, raw_.slots);
  adopt_tape(bucket_by_level(raw_.ops, raw_.slots, raw_.dffs, raw_levels_));
}

void CompiledSim::adopt_tape(Tape assembled) {
  pool_.reset();  // references the old tape; must die before it does
  tape_ = std::move(assembled);
  by_name_.clear();
  dirty_ = true;
  fuse_stats_ = FuseStats{};
  fuse_stats_.ops_before = fuse_stats_.ops_after = tape_.ops.size();

  // Which slots stay peekable under fusion: primary I/O, register state,
  // every declared design signal, and anything the caller pins.
  std::vector<std::uint8_t> unfused_written(tape_.slots, 0);
  for (const TapeOp& op : tape_.ops) unfused_written[op.out] = 1;
  if (config_.fuse) {
    std::vector<std::uint8_t> observable(tape_.slots, 0);
    const auto mark = [&](int net) {
      if (net >= 0) observable[static_cast<std::size_t>(net)] = 1;
    };
    for (const int n : nl_.inputs()) mark(n);
    for (const int n : nl_.outputs()) mark(n);
    for (const auto& [q, d] : tape_.dffs) mark(static_cast<int>(q));
    for (const auto& [name, w] : widths_) {
      for (int b = 0; b < w; ++b) {
        int net = nl_.find_net(name + "[" + std::to_string(b) + "]");
        if (net < 0 && w == 1) net = nl_.find_net(name);
        mark(net);
      }
    }
    for (const std::string& name : config_.keep) {
      int net = nl_.find_net(name);
      if (net < 0) net = nl_.find_net(name + "[0]");
      if (net < 0) {
        throw std::runtime_error("SimConfig::keep: no signal named " + name);
      }
      mark(net);
      for (int b = 1;; ++b) {
        const int bit = nl_.find_net(name + "[" + std::to_string(b) + "]");
        if (bit < 0) break;
        mark(bit);
      }
    }
    tape_ = fuse_tape(tape_, observable, &fuse_stats_);
  }

  // A slot still carries a value if the fused tape writes it or nothing
  // ever wrote it (sources: inputs, register outputs, undriven nets).
  live_.assign(tape_.slots, 0);
  for (std::size_t s = 0; s < tape_.slots; ++s) {
    live_[s] = !unfused_written[s];
  }
  for (const TapeOp& op : tape_.ops) live_[op.out] = 1;

  const std::size_t w = static_cast<std::size_t>(words_per_slot_);
  storage_.assign(tape_.slots * w);
  scratch_.assign(tape_.dffs.size() * w);

  int threads = config_.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  if (threads == 0) threads = static_cast<int>(hw);
  // Clamp to the machine: oversubscribed workers only add barrier traffic
  // (and when the clamp yields 1 no pool is built at all, below).
  if (hw >= 1) threads = std::min(threads, static_cast<int>(hw));
  threads = std::clamp(threads, 1, 64);
  if (threads > 1 &&
      TapePool::worth_threading(tape_, config_.parallel_min_ops)) {
    pool_ = std::make_unique<TapePool>(tape_, word_, threads,
                                       config_.parallel_min_ops);
  }
}

void CompiledSim::update(const net::Netlist& nl, IncrTapeStats* stats) {
  SILC_OBS_SPAN("incr.sim.update", "sim");
  IncrTapeStats local;
  IncrTapeStats& st = stats != nullptr ? *stats : local;
  st = IncrTapeStats{};

  // Everything that can throw happens before any member is mutated, so a
  // rejected netlist (or an injected fault) leaves the old sim usable.
  SILC_FAULT_POINT("incr.sim.update");
  RawTape fresh = decompose(nl);
  st.ops_total = fresh.ops.size();

  // Identical netlist: the whole compile survives; only lane state resets
  // (a fresh build powers on zeroed). This is the microseconds path.
  const bool same_names = [&] {
    if (nl.net_count() != nl_.net_count()) return false;
    for (std::size_t n = 0; n < nl.net_count(); ++n) {
      if (nl.net_name(static_cast<int>(n)) !=
          nl_.net_name(static_cast<int>(n))) {
        return false;
      }
    }
    return true;
  }();
  if (fresh == raw_ && same_names && nl.inputs() == nl_.inputs() &&
      nl.outputs() == nl_.outputs()) {
    st.identical = true;
    st.ops_reused = st.ops_total;
    SILC_OBS_COUNT("incr.sim.ops_reused", static_cast<std::int64_t>(st.ops_reused));
    nl_ = nl;
    storage_.clear();
    scratch_.clear();
    dirty_ = true;
    return;
  }

  // Dirty-propagate through the new op list in one dependency-order pass.
  // An op is dirty when it differs from the old op at its index or reads a
  // dirty slot; a CLEAN op's entire producer cone is clean and
  // index-aligned with the old list, so its cached level is its
  // from-scratch level. When the op at an index changed, the OLD op's
  // output slot is dirtied too — a downstream op whose old producer
  // vanished must not reuse a level computed against it.
  std::vector<std::uint8_t> slot_dirty(std::max(fresh.slots, raw_.slots), 0);
  std::vector<std::uint32_t> slot_level(fresh.slots, 0);
  std::vector<std::uint32_t> levels(fresh.ops.size(), 0);
  for (std::size_t i = 0; i < fresh.ops.size(); ++i) {
    const TapeOp& op = fresh.ops[i];
    const int arity = op_arity(op.code);
    bool d = i >= raw_.ops.size() || !(op == raw_.ops[i]);
    if (d && i < raw_.ops.size()) slot_dirty[raw_.ops[i].out] = 1;
    if (!d && arity >= 1 && slot_dirty[op.a] != 0) d = true;
    if (!d && arity >= 2 && slot_dirty[op.b] != 0) d = true;
    if (!d && arity >= 3 && slot_dirty[op.sel] != 0) d = true;
    std::uint32_t lv;
    if (d) {
      lv = 0;
      if (arity >= 1) lv = std::max(lv, slot_level[op.a]);
      if (arity >= 2) lv = std::max(lv, slot_level[op.b]);
      if (arity >= 3) lv = std::max(lv, slot_level[op.sel]);
      ++lv;
      slot_dirty[op.out] = 1;
      ++st.ops_relevelized;
    } else {
      lv = raw_levels_[i];
      ++st.ops_reused;
    }
    levels[i] = lv;
    slot_level[op.out] = lv;
  }
  SILC_OBS_COUNT("incr.sim.ops_reused", static_cast<std::int64_t>(st.ops_reused));
  SILC_OBS_COUNT("incr.sim.ops_relevelized",
                 static_cast<std::int64_t>(st.ops_relevelized));

  Tape assembled = bucket_by_level(fresh.ops, fresh.slots, fresh.dffs, levels);
  nl_ = nl;  // adopt_tape's observable marking reads the NEW netlist
  raw_ = std::move(fresh);
  raw_levels_ = std::move(levels);
  adopt_tape(std::move(assembled));
}

int CompiledSim::threads() const { return pool_ ? pool_->threads() : 1; }

const std::vector<std::uint32_t>& CompiledSim::bits_of(const std::string& name) {
  const auto cached = by_name_.find(name);
  if (cached != by_name_.end()) return cached->second;

  std::vector<std::uint32_t> v;
  const auto wit = widths_.find(name);
  if (wit != widths_.end()) {
    for (int b = 0; b < wit->second; ++b) {
      int net = nl_.find_net(name + "[" + std::to_string(b) + "]");
      if (net < 0 && wit->second == 1) net = nl_.find_net(name);
      if (net < 0) {
        throw std::runtime_error("signal " + name + " bit " + std::to_string(b) +
                                 " has no net (interior wires are not blasted "
                                 "to named nets)");
      }
      v.push_back(static_cast<std::uint32_t>(net));
    }
  } else if (nl_.find_net(name + "[0]") >= 0) {
    for (int b = 0;; ++b) {
      const int net = nl_.find_net(name + "[" + std::to_string(b) + "]");
      if (net < 0) break;
      v.push_back(static_cast<std::uint32_t>(net));
    }
  } else if (const int net = nl_.find_net(name); net >= 0) {
    v.push_back(static_cast<std::uint32_t>(net));
  } else {
    throw std::runtime_error("no signal named " + name);
  }
  return by_name_.emplace(name, std::move(v)).first->second;
}

void CompiledSim::poke(const std::string& signal, std::uint64_t value) {
  std::uint64_t* const v = slot_words();
  const std::size_t w = static_cast<std::size_t>(words_per_slot_);
  for (std::size_t b = 0; const std::uint32_t slot : bits_of(signal)) {
    const std::uint64_t fill =
        ((value >> b++) & 1u) != 0 ? ~std::uint64_t{0} : 0;
    std::fill_n(v + slot * w, w, fill);
  }
  dirty_ = true;
}

namespace {

int checked_lane(int lane, int lanes) {
  if (lane < 0 || lane >= lanes) {
    throw std::out_of_range("lane " + std::to_string(lane) +
                            " out of range [0, " + std::to_string(lanes) + ")");
  }
  return lane;
}

}  // namespace

void CompiledSim::poke_lane(int lane, const std::string& signal,
                            std::uint64_t value) {
  checked_lane(lane, lanes());
  std::uint64_t* const v = slot_words();
  const std::size_t w = static_cast<std::size_t>(words_per_slot_);
  const std::size_t word = static_cast<std::size_t>(lane) / 64;
  const std::uint64_t mask = std::uint64_t{1} << (lane % 64);
  for (std::size_t b = 0; const std::uint32_t slot : bits_of(signal)) {
    std::uint64_t& limb = v[slot * w + word];
    if (((value >> b++) & 1u) != 0) limb |= mask;
    else limb &= ~mask;
  }
  dirty_ = true;
}

std::uint64_t CompiledSim::peek(const std::string& signal) {
  return peek_lane(0, signal);
}

std::uint64_t CompiledSim::peek_lane(int lane, const std::string& signal) {
  checked_lane(lane, lanes());
  if (dirty_) eval();
  const std::uint64_t* const v = slot_words();
  const std::size_t w = static_cast<std::size_t>(words_per_slot_);
  const std::size_t word = static_cast<std::size_t>(lane) / 64;
  const int bit = lane % 64;
  std::uint64_t out = 0;
  for (std::size_t b = 0; const std::uint32_t slot : bits_of(signal)) {
    if (!live_[slot]) {
      throw std::runtime_error(
          "signal " + signal + " was optimized away by tape fusion; disable "
          "SimConfig::fuse or list it in SimConfig::keep to observe it");
    }
    out |= ((v[slot * w + word] >> bit) & 1u) << b++;
  }
  return out;
}

void CompiledSim::eval_now() {
  if (pool_) pool_->eval(slot_words());
  else eval_tape(tape_, word_, slot_words());
}

void CompiledSim::eval() {
  eval_now();
  dirty_ = false;
}

void CompiledSim::step(int n) {
  for (int i = 0; i < n; ++i) {
    eval_now();
    commit_tape(tape_, word_, slot_words(), scratch_.data());
  }
  eval_now();
  dirty_ = false;
}

void CompiledSim::reset(bool v) {
  std::uint64_t* const words = slot_words();
  const std::size_t w = static_cast<std::size_t>(words_per_slot_);
  for (const auto& [q, d] : tape_.dffs) {
    std::fill_n(words + q * w, w, v ? ~std::uint64_t{0} : 0);
  }
  dirty_ = true;
}

std::vector<Trace> CompiledSim::run(const std::vector<Trace>& stimuli,
                                    const std::vector<std::string>& probes) {
  if (stimuli.empty()) return {};
  if (stimuli.size() > static_cast<std::size_t>(lanes())) {
    throw std::runtime_error("more stimulus sequences than lanes");
  }
  const std::vector<std::string>& record =
      probes.empty() ? output_names_ : probes;
  if (record.empty()) {
    throw std::runtime_error("no probes: pass signal names to record");
  }
  std::size_t cycles = 0;
  for (const Trace& t : stimuli) cycles = std::max(cycles, t.size());

  storage_.clear();
  dirty_ = true;
  std::vector<Trace> traces(stimuli.size());
  for (std::size_t c = 0; c < cycles; ++c) {
    // Coarse-grained so the deadline check never shows up in profiles.
    if ((c & 63u) == 0) core::check_cancel("sim.run");
    for (std::size_t l = 0; l < stimuli.size(); ++l) {
      if (stimuli[l].empty()) continue;
      const Vector& row = stimuli[l][std::min(c, stimuli[l].size() - 1)];
      for (const auto& [name, value] : row) {
        poke_lane(static_cast<int>(l), name, value);
      }
    }
    step(1);
    for (std::size_t l = 0; l < stimuli.size(); ++l) {
      Vector out;
      for (const std::string& p : record) {
        out[p] = peek_lane(static_cast<int>(l), p);
      }
      traces[l].push_back(std::move(out));
    }
  }
  return traces;
}

// --------------------------------------------------------------- crosscheck --

namespace {

/// Behavioral reference trace: apply each row, tick, record outputs (the
/// same convention CompiledSim::run and the swsim driver use).
Trace behavioral_trace(const rtl::Design& design, const Trace& stimulus,
                       const std::vector<const rtl::Signal*>& outs) {
  rtl::BehavioralSim b(design);
  Trace trace;
  for (const Vector& row : stimulus) {
    for (const auto& [name, value] : row) b.set(name, value);
    b.tick();
    Vector out;
    for (const rtl::Signal* o : outs) out[o->name] = b.get(o->name);
    trace.push_back(std::move(out));
  }
  return trace;
}

std::map<std::string, int> output_widths(
    const std::vector<const rtl::Signal*>& outs) {
  std::map<std::string, int> widths;
  for (const rtl::Signal* o : outs) widths[o->name] = o->width;
  return widths;
}

/// Drive the switch-level expansion through `cycles` of the stimulus with
/// the two-phase clock and record outputs. Returns false (with detail) on
/// non-settling networks, missing nodes, or X outputs.
bool switch_level_trace(const rtl::Design& design, const net::Netlist& nl,
                        const extract::Netlist& xnl, const Trace& stimulus,
                        std::size_t cycles,
                        const std::vector<const rtl::Signal*>& outs,
                        Trace& trace, std::string& detail) {
  swsim::Simulator sw(xnl);
  const auto ins = design.of_kind(rtl::SignalKind::Input);
  const auto input_node = [&](const rtl::Signal* s, int b) {
    return s->width == 1 ? s->name : s->name + "[" + std::to_string(b) + "]";
  };

  if (!switch_power_on(nl, xnl, sw, detail)) return false;

  for (std::size_t c = 0; c < cycles; ++c) {
    const Vector& row = stimulus[std::min(c, stimulus.size() - 1)];
    for (const rtl::Signal* s : ins) {
      const auto it = row.find(s->name);
      const std::uint64_t v = it == row.end() ? 0 : it->second;
      for (int b = 0; b < s->width; ++b) {
        sw.set(input_node(s, b), ((v >> b) & 1u) != 0);
      }
    }
    if (!switch_cycle(sw, detail)) {
      detail += ", cycle " + std::to_string(c);
      return false;
    }
    Vector out;
    for (const rtl::Signal* o : outs) {
      std::uint64_t v = 0;
      for (int b = 0; b < o->width; ++b) {
        const std::string n =
            o->width == 1 ? o->name : o->name + "[" + std::to_string(b) + "]";
        const swsim::Val sv = sw.get(n);
        if (sv == swsim::Val::VX) {
          detail = "output " + n + " is X at cycle " + std::to_string(c);
          return false;
        }
        if (sv == swsim::Val::V1) v |= std::uint64_t{1} << b;
      }
      out[o->name] = v;
    }
    trace.push_back(std::move(out));
  }
  return true;
}

CrosscheckReport crosscheck_impl(const rtl::Design& design,
                                 const CrosscheckOptions& options) {
  CrosscheckReport r;
  r.cycles = std::max(0, options.cycles);
  const auto outs = design.of_kind(rtl::SignalKind::Output);

  CompiledSim cs(design, options.sim);
  r.lanes = options.lanes <= 0 ? cs.lanes()
                               : std::min(options.lanes, cs.lanes());

  std::vector<Trace> stimuli;
  for (int l = 0; l < r.lanes; ++l) {
    stimuli.push_back(random_stimulus(design, r.cycles, options.seed +
                                      static_cast<unsigned>(l)));
  }

  const std::vector<Trace> compiled = cs.run(stimuli);

  Trace lane0_ref;
  for (int l = 0; l < r.lanes; ++l) {
    const Trace ref =
        behavioral_trace(design, stimuli[static_cast<std::size_t>(l)], outs);
    const TraceDiff d =
        diff_traces(ref, compiled[static_cast<std::size_t>(l)]);
    if (!d.identical) {
      r.mismatch_lane = l;
      r.mismatch = d;
      r.detail = "behavioral vs compiled, lane " + std::to_string(l) + ": " +
                 d.to_string();
      if (!options.vcd_on_mismatch.empty() &&
          dump_vcd(options.vcd_on_mismatch,
                   {{"behavioral", ref},
                    {"compiled", compiled[static_cast<std::size_t>(l)]}},
                   output_widths(outs))) {
        r.detail += "; waveforms: " + options.vcd_on_mismatch;
      }
      return r;
    }
    if (l == 0) lane0_ref = ref;
  }

  std::ostringstream os;
  os << "crosscheck " << design.name << ": behavioral == compiled over "
     << r.cycles << " cycles x " << r.lanes << " lanes ("
     << to_string(cs.word()) << " word, " << cs.threads() << " thread"
     << (cs.threads() == 1 ? "" : "s") << ")";

  const std::size_t sw_cycles = static_cast<std::size_t>(
      std::clamp(options.switch_cycles, 0, r.cycles));
  if (sw_cycles > 0) {
    const net::Netlist& nl = cs.netlist();
    const extract::Netlist xnl = to_switch_level(nl);
    r.transistors = xnl.transistors.size();
    Trace sw_trace;
    std::string sw_detail;
    if (!switch_level_trace(design, nl, xnl, stimuli[0], sw_cycles, outs,
                            sw_trace, sw_detail)) {
      r.detail = "switch-level: " + sw_detail;
      return r;
    }
    lane0_ref.resize(sw_cycles);
    const TraceDiff d = diff_traces(lane0_ref, sw_trace);
    if (!d.identical) {
      r.mismatch_lane = 0;
      r.mismatch = d;
      r.detail = "behavioral vs switch-level: " + d.to_string();
      if (!options.vcd_on_mismatch.empty() &&
          dump_vcd(options.vcd_on_mismatch,
                   {{"behavioral", lane0_ref}, {"switch_level", sw_trace}},
                   output_widths(outs))) {
        r.detail += "; waveforms: " + options.vcd_on_mismatch;
      }
      return r;
    }
    r.switch_cycles = static_cast<int>(sw_cycles);
    os << "; == switch-level over " << sw_cycles << " cycles ("
       << r.transistors << " transistors)";
  }

  r.ok = true;
  r.detail = os.str();
  return r;
}

}  // namespace

CrosscheckReport crosscheck(const rtl::Design& design,
                            const CrosscheckOptions& options) {
  // Verification failure is data, not control flow: callers get
  // r.ok = false + detail even when a model cannot be built at all
  // (no outputs to probe, reserved net names, ...).
  try {
    return crosscheck_impl(design, options);
  } catch (const core::Cancelled&) {
    throw;  // cancellation is control flow — the stage boundary renders it
  } catch (const std::exception& e) {
    CrosscheckReport r;
    r.detail = std::string("crosscheck error: ") + e.what();
    return r;
  }
}

// ---------------------------------------------------------- PLA-path check --

const char* to_string(PlaCheckMode mode) {
  switch (mode) {
    case PlaCheckMode::Exhaustive: return "exhaustive";
    case PlaCheckMode::Replay: return "replay";
  }
  return "?";
}

namespace {

/// Shared admission guard: both modes pack minterms into 32-bit words
/// (logic::Cube's width), so an over-wide FSM is a structured rejection,
/// not a silent wrap. Shape drift between the personality and the
/// tabulation (every table must span the bit names) is likewise caught
/// here once, before any engine trusts the indices.
bool pla_admit(const rtl::Design& design, const synth::TabulatedFsm& fsm,
               const logic::PlaTerms& personality, PlaCheckReport& r) {
  int in_bits = 0;
  for (const rtl::Signal* s : design.of_kind(rtl::SignalKind::Input)) {
    in_bits += s->width;
  }
  int out_bits = 0;
  for (const rtl::Signal* s : design.of_kind(rtl::SignalKind::Output)) {
    out_bits += s->width;
  }
  const int width = fsm.state_bits + in_bits;
  if (width > 32) {
    std::ostringstream os;
    os << "pla check rejected: minterm needs " << width << " bits ("
       << fsm.state_bits << " state + " << in_bits
       << " input), over the 32-bit cube packing limit";
    r.detail = os.str();
    return false;
  }
  const int nbits = static_cast<int>(fsm.input_names.size());
  const std::size_t nouts = fsm.output_names.size();
  if (nbits != width || personality.num_inputs != nbits ||
      fsm.function.num_inputs != nbits ||
      fsm.function.outputs.size() != nouts ||
      personality.output_terms.size() != nouts ||
      nouts != static_cast<std::size_t>(fsm.state_bits + out_bits) ||
      std::any_of(fsm.function.outputs.begin(), fsm.function.outputs.end(),
                  [&](const logic::TruthTable& t) {
                    return t.num_inputs() != nbits;
                  })) {
    r.detail = "pla check rejected: personality/FSM/design shape mismatch";
    return false;
  }
  return true;
}

std::string render_minterm(const synth::TabulatedFsm& fsm, std::uint32_t m) {
  std::ostringstream os;
  for (std::size_t i = 0; i < fsm.input_names.size(); ++i) {
    if (i != 0) os << ' ';
    os << fsm.input_names[i] << '=' << ((m >> i) & 1u);
  }
  return os.str();
}

/// Exhaustive mode: every minterm of the table, minterm-major with the
/// outputs inner, so the witness is the lowest disagreeing minterm, first
/// output on ties (prove_gates' rule). On each care row the planes drive
/// the NOR of the output's selected terms. No simulation; the verdict
/// covers the whole care space, not a sample.
PlaCheckReport check_pla_exhaustive(const synth::TabulatedFsm& fsm,
                                    const logic::PlaTerms& personality) {
  SILC_OBS_SPAN("sim.pla.prove", "sim");
  PlaCheckReport r;
  r.mode = PlaCheckMode::Exhaustive;
  r.terms = personality.term_count();
  const std::size_t nouts = fsm.function.outputs.size();
  const std::uint64_t rows = std::uint64_t{1} << fsm.input_names.size();
  // The lowest disagreeing care row, first output on ties; one cancel
  // poll and fault point per output's share of the rows.
  const auto disagreement = [&](std::uint32_t& m, std::size_t& k) {
    const std::uint64_t slice =
        nouts == 0 ? rows : (rows + nouts - 1) / nouts;
    for (std::uint64_t base = 0; base < rows; base += slice) {
      core::check_cancel("sim.pla.prove");
      SILC_FAULT_POINT("sim.pla.prove");
      const std::uint64_t end = std::min(rows, base + slice);
      for (std::uint64_t row = base; row < end; ++row) {
        m = static_cast<std::uint32_t>(row);
        for (k = 0; k < nouts; ++k) {
          const logic::Tri want = fsm.function.outputs[k].get(m);
          if (want == logic::Tri::DontCare) continue;
          const bool drives = !personality.evaluate(static_cast<int>(k), m);
          if (drives != (want == logic::Tri::One)) return true;
        }
      }
    }
    return false;
  };
  std::uint32_t m = 0;
  std::size_t k = 0;
  if (disagreement(m, k)) {
    const bool wanted = fsm.function.outputs[k].get(m) == logic::Tri::One;
    r.mismatch_signal = fsm.output_names[k];
    r.has_counterexample = true;
    r.counterexample = m;
    std::ostringstream os;
    os << "pla vs table, " << r.mismatch_signal << ": planes drive "
       << !wanted << ", table wants " << wanted << " at minterm " << m << " ("
       << render_minterm(fsm, m) << ")";
    r.detail = os.str();
    return r;
  }
  std::ostringstream os;
  os << "pla(" << r.terms << " terms) == table: exhaustive proof over all "
     << rows << " minterms x " << nouts << " outputs";
  r.ok = true;
  r.proven = true;
  r.detail = os.str();
  return r;
}

/// Replay mode: the original interpreted oracle — personality.evaluate()
/// per output bit per cycle against the compiled tape. Sampling, and slow
/// by design; the exhaustive engine is differentially tested against it.
PlaCheckReport check_pla_replay(const rtl::Design& design,
                                const synth::TabulatedFsm& fsm,
                                const logic::PlaTerms& personality, int cycles,
                                int lanes, unsigned seed,
                                const SimConfig& sim) {
  SILC_OBS_SPAN("sim.pla.replay", "sim");
  PlaCheckReport r;
  r.mode = PlaCheckMode::Replay;
  r.cycles = std::max(0, cycles);
  r.terms = personality.term_count();
  const auto ins = design.of_kind(rtl::SignalKind::Input);
  const auto outs = design.of_kind(rtl::SignalKind::Output);
  const int sb = fsm.state_bits;

  CompiledSim cs(design, sim);
  r.lanes = lanes <= 0 ? cs.lanes() : std::min(lanes, cs.lanes());

  std::vector<Trace> stimuli;
  for (int l = 0; l < r.lanes; ++l) {
    stimuli.push_back(random_stimulus(design, r.cycles, seed +
                                      static_cast<unsigned>(l)));
  }
  const std::vector<Trace> compiled = cs.run(stimuli);

  // The programmed personality holds the complement cover of each output
  // (both PLA planes are NOR arrays): bit k is 0 iff some selected term
  // covers the minterm.
  const auto pla_bit = [&](int k, std::uint32_t minterm) {
    return !personality.evaluate(k, minterm);
  };
  const auto pack_inputs = [&](const Vector& row, std::uint32_t state) {
    std::uint32_t m = state;
    int pos = sb;
    for (const rtl::Signal* s : ins) {
      const auto it = row.find(s->name);
      const std::uint64_t v = it == row.end() ? 0 : it->second;
      m |= static_cast<std::uint32_t>(rtl::mask_to(v, s->width)) << pos;
      pos += s->width;
    }
    return m;
  };

  for (int l = 0; l < r.lanes; ++l) {
    std::uint32_t state = 0;  // run() starts from all-zero registers
    const Trace& stim = stimuli[static_cast<std::size_t>(l)];
    for (int c = 0; c < r.cycles; ++c) {
      if ((c & 63) == 0) core::check_cancel("sim.pla.replay");
      const Vector& row = stim[static_cast<std::size_t>(c)];
      // Clock edge: next state from the AND/OR planes, then outputs settle
      // combinationally from the *new* state and held inputs — matching
      // the record-after-commit convention of run()/behavioral_trace.
      std::uint32_t next = 0;
      const std::uint32_t m1 = pack_inputs(row, state);
      for (int k = 0; k < sb; ++k) {
        if (pla_bit(k, m1)) next |= 1u << k;
      }
      state = next;
      const std::uint32_t m2 = pack_inputs(row, state);
      int k = sb;
      for (const rtl::Signal* o : outs) {
        std::uint64_t v = 0;
        for (int b = 0; b < o->width; ++b, ++k) {
          if (pla_bit(k, m2)) v |= std::uint64_t{1} << b;
        }
        const std::uint64_t want =
            compiled[static_cast<std::size_t>(l)][static_cast<std::size_t>(c)]
                .at(o->name);
        if (v != want) {
          r.mismatch_lane = l;
          r.mismatch_cycle = c;
          r.mismatch_signal = o->name;
          std::ostringstream os;
          os << "pla vs compiled, lane " << l << " cycle " << c << " signal "
             << o->name << ": " << v << " != " << want;
          r.detail = os.str();
          return r;
        }
      }
    }
  }

  std::ostringstream os;
  os << "pla(" << r.terms << " terms) == compiled over " << r.cycles
     << " cycles x " << r.lanes << " lanes";
  r.ok = true;
  r.detail = os.str();
  return r;
}

}  // namespace

PlaCheckReport check_pla(const rtl::Design& design,
                         const synth::TabulatedFsm& fsm,
                         const logic::PlaTerms& personality, int cycles,
                         int lanes, unsigned seed, const SimConfig& sim,
                         PlaCheckMode mode) {
  try {
    PlaCheckReport admitted;
    admitted.mode = mode;
    admitted.terms = personality.term_count();
    if (!pla_admit(design, fsm, personality, admitted)) return admitted;
    switch (mode) {
      case PlaCheckMode::Exhaustive:
        return check_pla_exhaustive(fsm, personality);
      case PlaCheckMode::Replay:
        return check_pla_replay(design, fsm, personality, cycles, lanes, seed,
                                sim);
    }
    throw std::logic_error("unknown pla check mode");
  } catch (const core::Cancelled&) {
    throw;  // cancellation is control flow — the stage boundary renders it
  } catch (const std::exception& e) {
    PlaCheckReport r;
    r.mode = mode;
    r.error = true;
    r.detail = std::string("pla check error: ") + e.what();
    return r;
  }
}

// --------------------------------------------------------------- gate proof --

namespace {

/// Lane l of a 64-lane limb carries bit j of l, for the six low bits.
constexpr std::uint64_t kLanePattern[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

[[noreturn]] void gate_proof_reject(const std::string& why) {
  throw std::runtime_error("gate proof rejected: " + why);
}

}  // namespace

GateProofReport prove_gates(const rtl::Design& design,
                            const synth::TabulatedFsm& fsm,
                            const SimConfig& sim) {
  SILC_OBS_SPAN("sim.gate.prove", "sim");
  const int n = static_cast<int>(fsm.input_names.size());
  const std::size_t sb = static_cast<std::size_t>(fsm.state_bits);
  const std::size_t nouts = fsm.output_names.size();
  if (n > 32 || fsm.function.num_inputs != n ||
      fsm.function.outputs.size() != nouts || fsm.state_bits < 0 ||
      sb > static_cast<std::size_t>(n) || sb > nouts) {
    gate_proof_reject("table shape does not match its bit names");
  }

  CompiledSim cs(design, sim);
  const net::Netlist& nl = cs.netlist();
  const auto slot_of = [&](const std::string& name) {
    const int net = nl.find_net(name);
    if (net < 0) gate_proof_reject("no net for table bit " + name);
    return static_cast<std::uint32_t>(net);
  };
  // Table bits and the gate slots that carry them, resolved once: the
  // minterm bits (registers, then inputs), the outputs' nets, and for each
  // next-state bit the register's own Q slot, which the commit writes.
  std::vector<std::uint32_t> in_slot;
  for (const std::string& name : fsm.input_names) in_slot.push_back(slot_of(name));
  std::vector<std::uint32_t> out_slot(in_slot.begin(), in_slot.begin() + sb);
  for (std::size_t k = sb; k < nouts; ++k) {
    out_slot.push_back(slot_of(fsm.output_names[k]));
    if (!cs.live_[out_slot.back()]) {
      gate_proof_reject("output " + fsm.output_names[k] + " was fused away");
    }
  }

  // The minterm bits are exactly the gates' sources: distinct nets, the
  // state bits exactly its registers, the rest primary inputs. Same start
  // state: every register powers on 0, like BehavioralSim's.
  std::vector<std::uint32_t> distinct = in_slot;
  std::sort(distinct.begin(), distinct.end());
  if (std::adjacent_find(distinct.begin(), distinct.end()) != distinct.end()) {
    gate_proof_reject("two table bits name one net");
  }
  const std::size_t w = static_cast<std::size_t>(cs.words_per_slot_);
  std::uint64_t* const v = cs.slot_words();
  if (cs.tape_.dffs.size() != sb) {
    gate_proof_reject(std::to_string(cs.tape_.dffs.size()) +
                      " registers in the gates, " + std::to_string(sb) +
                      " state bits in the table");
  }
  for (std::size_t j = 0; j < in_slot.size(); ++j) {
    const std::uint32_t slot = in_slot[j];
    if (j >= sb) {
      if (std::find(nl.inputs().begin(), nl.inputs().end(),
                    static_cast<int>(slot)) == nl.inputs().end()) {
        gate_proof_reject(fsm.input_names[j] + " is not a primary input");
      }
      continue;
    }
    if (std::none_of(cs.tape_.dffs.begin(), cs.tape_.dffs.end(),
                     [&](const auto& qd) { return qd.first == slot; })) {
      gate_proof_reject(fsm.input_names[j] + " is not a register");
    }
    if (std::any_of(v + slot * w, v + (slot + 1) * w,
                    [](std::uint64_t limb) { return limb != 0; })) {
      gate_proof_reject("register " + fsm.input_names[j] +
                        " powers on nonzero");
    }
  }

  GateProofReport r;
  r.minterms = std::uint64_t{1} << n;
  const int lanes = cs.lanes();
  const int lane_bits = 6 + std::countr_zero(w);
  const std::uint64_t passes =
      (r.minterms + static_cast<std::uint64_t>(lanes) - 1) /
      static_cast<std::uint64_t>(lanes);
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    core::check_cancel("sim.gate.prove");
    SILC_FAULT_POINT("sim.gate.prove");
    // Lane l decides minterm base + l. Below lane_bits a minterm bit is a
    // fixed lane pattern; at and above it, it is constant for the pass.
    const std::uint64_t base = pass * static_cast<std::uint64_t>(lanes);
    for (int j = 0; j < n; ++j) {
      std::uint64_t* const limbs = v + in_slot[static_cast<std::size_t>(j)] * w;
      for (std::size_t i = 0; i < w; ++i) {
        if (j < 6) {
          limbs[i] = kLanePattern[j];
          continue;
        }
        const std::uint64_t bit = j < lane_bits ? i >> (j - 6) : base >> j;
        limbs[i] = (bit & 1u) != 0 ? ~std::uint64_t{0} : 0;
      }
    }

    // The lowest disagreeing lane of the pass, first table output on ties.
    int bad_lane = lanes;
    std::size_t bad_k = 0;
    const auto compare = [&](std::size_t k) {
      const logic::TruthTable& table = fsm.function.outputs[k];
      for (std::size_t i = 0; i < w; ++i) {
        std::uint64_t want = 0, care = 0;
        for (std::uint64_t b = 0; b < 64; ++b) {
          const std::uint64_t m = base + i * 64 + b;
          if (m >= r.minterms) break;
          const logic::Tri t = table.get(static_cast<std::uint32_t>(m));
          if (t != logic::Tri::DontCare) care |= std::uint64_t{1} << b;
          if (t == logic::Tri::One) want |= std::uint64_t{1} << b;
        }
        const std::uint64_t diff = (v[out_slot[k] * w + i] ^ want) & care;
        if (diff == 0) continue;
        const int lane = static_cast<int>(i) * 64 + std::countr_zero(diff);
        if (lane < bad_lane || (lane == bad_lane && k < bad_k)) {
          bad_lane = lane;
          bad_k = k;
        }
        return;
      }
    };
    cs.eval_now();
    for (std::size_t k = sb; k < nouts; ++k) compare(k);
    commit_tape(cs.tape_, cs.word_, v, cs.scratch_.data());
    for (std::size_t k = 0; k < sb; ++k) compare(k);

    if (bad_lane < lanes) {
      const std::uint32_t m =
          static_cast<std::uint32_t>(base + static_cast<std::uint64_t>(bad_lane));
      const bool wanted = fsm.function.outputs[bad_k].get(m) == logic::Tri::One;
      r.mismatch_signal = fsm.output_names[bad_k];
      r.counterexample = m;
      std::ostringstream os;
      os << "gates vs table, " << r.mismatch_signal << ": gates drive "
         << (wanted ? 0 : 1) << ", table wants " << (wanted ? 1 : 0)
         << " at minterm " << m << " (" << render_minterm(fsm, m) << ")";
      r.detail = os.str();
      return r;
    }
  }

  std::ostringstream os;
  os << "gates == table: exhaustive proof over all " << r.minterms
     << " minterms (" << sb << " state + " << n - static_cast<int>(sb)
     << " input bits)";
  r.ok = true;
  r.detail = os.str();
  return r;
}

}  // namespace silc::sim
