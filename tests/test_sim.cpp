// Compiled-simulator tests: levelization order, 64-lane bit-parallel
// semantics, two-phase register hold/commit, the batch run() API, and the
// three-model crosscheck (behavioral / compiled / switch-level) on the
// counter and traffic-light designs plus a PDP-8 program run.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>

#include "extract/extract.hpp"
#include "logic/logic.hpp"
#include "net/net.hpp"
#include "pdp8_model.hpp"
#include "pla/pla.hpp"
#include "rtl/rtl.hpp"
#include "sim/sim.hpp"
#include "synth/synth.hpp"

namespace silc::sim {
namespace {

const char* kCounter = R"(
  processor counter (input reset; output value<3>;) {
    reg count<3>;
    value = count;
    always { if (reset) count := 0; else count := count + 1; }
  })";

const char* kAdder = R"(
  processor adder (input a<6>; input b<6>; output sum<6>; output carry;) {
    wire wide<7>;
    wide = {0b0, a} + {0b0, b};
    sum = wide[5:0];
    carry = wide[6];
  })";

const char* kTraffic = R"(
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

// ------------------------------------------------------------- levelize --

TEST(Levelize, OrdersOpsByLevelAndDecomposesNary) {
  net::Netlist nl;
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int n1 = nl.add_gate(net::GateKind::And, {a, b}, "n1");
  const int n2 = nl.add_gate(net::GateKind::Not, {n1}, "n2");
  const int q = nl.add_net("q");
  nl.add_gate_driving(net::GateKind::Dff, {n2}, q, "q");
  nl.add_gate(net::GateKind::Xor, {q, a, b}, "y");  // 3-ary: decomposes

  const Tape tape = levelize(nl);
  EXPECT_EQ(tape.depth(), 2);
  // 4 gates -> and + not + (xor chain of 2) = 4 ops; dff is a commit.
  EXPECT_EQ(tape.ops.size(), 4u);
  ASSERT_EQ(tape.level_begin.size(), 3u);
  EXPECT_EQ(tape.level_begin.front(), 0u);
  EXPECT_EQ(tape.level_begin.back(), tape.ops.size());
  ASSERT_EQ(tape.dffs.size(), 1u);
  EXPECT_EQ(tape.dffs[0].first, static_cast<std::uint32_t>(q));
  EXPECT_EQ(tape.dffs[0].second, static_cast<std::uint32_t>(n2));
  // One temp slot for the xor chain.
  EXPECT_EQ(tape.slots, nl.net_count() + 1);

  // Tape validity: every op reads only source slots (inputs, DFF outputs)
  // or slots written by an earlier op; no slot is written twice.
  const std::vector<int> driver = nl.driver_map();
  std::vector<bool> written(tape.slots, false);
  const auto is_source = [&](std::uint32_t s) {
    if (s >= nl.net_count()) return false;  // temp: must be written first
    const int d = driver[s];
    return d < 0 || nl.gate(d).kind == net::GateKind::Dff;
  };
  for (const TapeOp& op : tape.ops) {
    if (op.code != TapeOp::Code::Const0 && op.code != TapeOp::Code::Const1) {
      EXPECT_TRUE(is_source(op.a) || written[op.a]);
      if (op.code != TapeOp::Code::Copy && op.code != TapeOp::Code::Not) {
        EXPECT_TRUE(is_source(op.b) || written[op.b]);
      }
      if (op.code == TapeOp::Code::Mux) {
        EXPECT_TRUE(is_source(op.sel) || written[op.sel]);
      }
    }
    EXPECT_FALSE(written[op.out]);
    written[op.out] = true;
  }
}

TEST(Levelize, DepthMatchesRippleCarry) {
  // A 6-bit ripple adder has a long carry chain: depth grows with width.
  const rtl::Design d = rtl::parse(kAdder);
  const Tape tape = levelize(synth::bit_blast(d));
  EXPECT_GE(tape.depth(), 6);
  EXPECT_TRUE(tape.dffs.empty());
}

TEST(Levelize, RejectsCombinationalCycle) {
  net::Netlist nl;
  const int a = nl.add_net("a");
  const int b = nl.add_net("b");
  nl.add_gate_driving(net::GateKind::Not, {a}, b, "g1");
  nl.add_gate_driving(net::GateKind::Not, {b}, a, "g2");
  EXPECT_THROW(levelize(nl), std::runtime_error);
}

// ------------------------------------------------------ bare-name aliases --

TEST(BitBlastAliases, OneBitSignalsAnswerToBothNames) {
  const rtl::Design d = rtl::parse(kCounter);
  const net::Netlist nl = synth::bit_blast(d);
  EXPECT_GE(nl.find_net("reset"), 0);
  EXPECT_EQ(nl.find_net("reset"), nl.find_net("reset[0]"));
  const rtl::Design a = rtl::parse(kAdder);
  const net::Netlist anl = synth::bit_blast(a);
  EXPECT_GE(anl.find_net("carry"), 0);
  EXPECT_EQ(anl.find_net("carry"), anl.find_net("carry[0]"));
}

// ----------------------------------------------------- 64-lane semantics --

TEST(Lanes, SixtyFourIndependentAdderVectors) {
  const rtl::Design d = rtl::parse(kAdder);
  CompiledSim cs(d);
  for (int lane = 0; lane < kLanes; ++lane) {
    cs.poke_lane(lane, "a", static_cast<std::uint64_t>(lane));
    cs.poke_lane(lane, "b", static_cast<std::uint64_t>((lane * 7 + 3) & 63));
  }
  cs.eval();
  for (int lane = 0; lane < kLanes; ++lane) {
    const std::uint64_t a = static_cast<std::uint64_t>(lane);
    const std::uint64_t b = static_cast<std::uint64_t>((lane * 7 + 3) & 63);
    EXPECT_EQ(cs.peek_lane(lane, "sum"), (a + b) & 63) << "lane " << lane;
    EXPECT_EQ(cs.peek_lane(lane, "carry"), (a + b) >> 6) << "lane " << lane;
  }
}

TEST(Lanes, PokeBroadcastsPokeLaneIsolates) {
  const rtl::Design d = rtl::parse(kAdder);
  CompiledSim cs(d);
  cs.poke("a", 5);
  cs.poke("b", 1);
  cs.poke_lane(9, "b", 60);
  EXPECT_EQ(cs.peek_lane(0, "sum"), 6u);
  EXPECT_EQ(cs.peek_lane(63, "sum"), 6u);
  EXPECT_EQ(cs.peek_lane(9, "sum"), (5u + 60u) & 63u);
  EXPECT_EQ(cs.peek_lane(9, "carry"), 1u);
}

// ------------------------------------------------- register hold / commit --

TEST(Registers, EvalHoldsStateStepCommits) {
  const rtl::Design d = rtl::parse(kCounter);
  CompiledSim cs(d);
  cs.reset();
  cs.poke("reset", 0);
  for (int i = 0; i < 4; ++i) {
    cs.eval();  // combinational settle only: state must hold
    EXPECT_EQ(cs.peek("value"), 0u);
  }
  cs.step();
  EXPECT_EQ(cs.peek("value"), 1u);
  cs.step(5);
  EXPECT_EQ(cs.peek("value"), 6u);
  cs.poke("reset", 1);
  cs.step();
  EXPECT_EQ(cs.peek("value"), 0u);
}

TEST(Registers, TwoPhaseCommitSwapsRegisterPair) {
  // r1 := r2; r2 := r1 every cycle: correct only if all D values are
  // gathered before any Q is written.
  const rtl::Design d = rtl::parse(R"(
    processor swap (input dummy; output x; output y;) {
      reg r1; reg r2;
      x = r1;
      y = r2;
      always { r1 := r2; r2 := r1; }
    })");
  CompiledSim cs(d);
  cs.poke("r1", 1);  // force register state directly
  cs.poke("r2", 0);
  cs.poke("dummy", 0);
  cs.step();
  EXPECT_EQ(cs.peek("x"), 0u);
  EXPECT_EQ(cs.peek("y"), 1u);
  cs.step();
  EXPECT_EQ(cs.peek("x"), 1u);
  EXPECT_EQ(cs.peek("y"), 0u);
}

TEST(Registers, UnassignedRegisterHolds) {
  const rtl::Design d = rtl::parse(R"(
    processor hold (input dummy; output v<4>;) {
      reg keep<4>;
      v = keep;
      always { if (0) keep := 0; }
    })");
  CompiledSim cs(d);
  cs.poke("keep", 9);
  cs.poke("dummy", 0);
  cs.step(3);
  EXPECT_EQ(cs.peek("v"), 9u);
}

// ------------------------------------------------------------- batch run --

TEST(Run, BatchLanesMatchBehavioralPerSequence) {
  const rtl::Design d = rtl::parse(kCounter);
  CompiledSim cs(d);
  std::vector<Trace> stimuli;
  for (int l = 0; l < 8; ++l) {
    stimuli.push_back(random_stimulus(d, 40, 100u + static_cast<unsigned>(l)));
  }
  const std::vector<Trace> got = cs.run(stimuli);
  ASSERT_EQ(got.size(), 8u);
  for (int l = 0; l < 8; ++l) {
    rtl::BehavioralSim b(d);
    for (std::size_t c = 0; c < 40; ++c) {
      for (const auto& [name, v] : stimuli[l][c]) b.set(name, v);
      b.tick();
      ASSERT_EQ(got[l][c].at("value"), b.get("value"))
          << "lane " << l << " cycle " << c;
    }
  }
}

// ---------------------------------------------------- switch-level lowering --

TEST(SwitchLevel, RejectsReservedNetNames) {
  net::Netlist nl;
  const int a = nl.add_input("phi1");  // would shadow the clock node
  nl.add_gate(net::GateKind::Not, {a}, "y");
  EXPECT_THROW(to_switch_level(nl), std::runtime_error);
}

// --------------------------------------------------------------- VCD dump --

TEST(Vcd, EmitsScopesVarsAndChangeOnlyValues) {
  Trace ref{{{"state", 0}, {"go", 1}},
            {{"state", 5}, {"go", 1}},
            {{"state", 5}, {"go", 0}}};
  Trace dut{{{"state", 0}, {"go", 1}},
            {{"state", 4}, {"go", 1}},
            {{"state", 4}, {"go", 0}}};
  const std::string vcd =
      to_vcd({{"behavioral", ref}, {"compiled", dut}}, {{"state", 3}});

  EXPECT_NE(vcd.find("$timescale"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module behavioral $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module compiled $end"), std::string::npos);
  // Declared width wins for "state", inferred width for "go".
  EXPECT_NE(vcd.find("$var wire 1"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 3"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_NE(vcd.find("b101 "), std::string::npos);  // ref state 5
  EXPECT_NE(vcd.find("b100 "), std::string::npos);  // dut state 4
  // Change-only: ref "state" emits twice (0 then 5), not three times.
  std::size_t count = 0;
  for (std::size_t p = vcd.find("b101 "); p != std::string::npos;
       p = vcd.find("b101 ", p + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(Vcd, DumpWritesAFile) {
  Trace t{{{"x", 1}}, {{"x", 0}}};
  const std::string path = testing::TempDir() + "silc_sim_test.vcd";
  ASSERT_TRUE(dump_vcd(path, {{"dut", t}}));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("$var wire 1"), std::string::npos);
  EXPECT_NE(ss.str().find("$scope module dut"), std::string::npos);
}

// ----------------------------------------------------------- PLA check --

logic::PlaTerms programmed_personality(const synth::TabulatedFsm& fsm) {
  // What pla::generate programs: minimized covers of each output's
  // complement (both planes are NOR arrays).
  return logic::minimize_multi(pla::complement(fsm.function));
}

TEST(PlaCheck, CounterPersonalityProvenExhaustively) {
  const rtl::Design d = rtl::parse(kCounter);
  const synth::TabulatedFsm fsm = synth::tabulate(d);
  const PlaCheckReport r =
      check_pla(d, fsm, programmed_personality(fsm), 64, 8);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.mode, PlaCheckMode::Exhaustive);
  EXPECT_TRUE(r.proven);
  EXPECT_GT(r.terms, 0u);
  // The proof does not sample cycles or lanes at all.
  EXPECT_EQ(r.cycles, 0);
  EXPECT_EQ(r.lanes, 0);
  // counter: 3 state bits + reset, every minterm decided.
  EXPECT_NE(r.detail.find("exhaustive proof over all 16 minterms"),
            std::string::npos)
      << r.detail;
}

TEST(PlaCheck, ReplayRunsEveryLane) {
  const rtl::Design d = rtl::parse(kTraffic);
  const synth::TabulatedFsm fsm = synth::tabulate(d);
  const PlaCheckReport r = check_pla(d, fsm, programmed_personality(fsm), 48,
                                     0, 1, {}, PlaCheckMode::Replay);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.mode, PlaCheckMode::Replay);
  EXPECT_FALSE(r.proven);  // sampling, not proof
  EXPECT_EQ(r.cycles, 48);
  EXPECT_EQ(r.lanes, lanes_of(widest_word()));
  EXPECT_NE(r.detail.find("== compiled over 48 cycles"), std::string::npos)
      << r.detail;
}

TEST(PlaCheck, ExhaustiveAndReplayAgreeOnCommittedDesigns) {
  for (const char* src : {kCounter, kTraffic}) {
    const rtl::Design d = rtl::parse(src);
    const synth::TabulatedFsm fsm = synth::tabulate(d);
    const logic::PlaTerms p = programmed_personality(fsm);
    for (const PlaCheckMode mode :
         {PlaCheckMode::Exhaustive, PlaCheckMode::Replay}) {
      const PlaCheckReport r = check_pla(d, fsm, p, 64, 8, 1, {}, mode);
      EXPECT_TRUE(r.ok) << to_string(mode) << ": " << r.detail;
      EXPECT_EQ(r.mode, mode);
      EXPECT_FALSE(r.error);
    }
  }
}

/// Every seeded mis-programming must be caught by both engines, and
/// the exhaustive engine must hand back a concrete counterexample minterm
/// that genuinely witnesses the disagreement (checked against the raw
/// personality.evaluate and the tabulated truth table — the replay
/// oracle's own primitives).
TEST(PlaCheck, TamperedPersonalityCaughtByAllModesWithCounterexample) {
  const rtl::Design d = rtl::parse(kCounter);
  const synth::TabulatedFsm fsm = synth::tabulate(d);
  const logic::PlaTerms good = programmed_personality(fsm);
  ASSERT_FALSE(good.terms.empty());

  std::vector<logic::PlaTerms> tampered;
  {
    // Flipped polarity: one crosspoint of the first term mis-programmed
    // (or an unconstrained column pinned).
    logic::PlaTerms bad = good;
    logic::Cube& c = bad.terms[0];
    if (c.mask != 0) c.value ^= c.mask & (~c.mask + 1u);
    else c = {1u, 1u};
    tampered.push_back(std::move(bad));
  }
  {
    // Dropped term: disconnect one product term from the first output
    // column that uses more than one (minimized covers are irredundant,
    // so the column's function must change).
    logic::PlaTerms bad = good;
    for (auto& sel : bad.output_terms) {
      if (sel.size() > 1) {
        sel.pop_back();
        break;
      }
    }
    tampered.push_back(std::move(bad));
  }

  for (std::size_t i = 0; i < tampered.size(); ++i) {
    const logic::PlaTerms& bad = tampered[i];
    const PlaCheckReport sym = check_pla(d, fsm, bad, 64, 4);
    EXPECT_FALSE(sym.ok) << "perturbation " << i;
    ASSERT_TRUE(sym.has_counterexample) << "perturbation " << i;
    // Re-judge the counterexample with the oracle's own primitives.
    const auto kit = std::find(fsm.output_names.begin(),
                               fsm.output_names.end(), sym.mismatch_signal);
    ASSERT_NE(kit, fsm.output_names.end()) << sym.detail;
    const int k = static_cast<int>(kit - fsm.output_names.begin());
    const bool pla_out = !bad.evaluate(k, sym.counterexample);
    const logic::Tri want =
        fsm.function.outputs[static_cast<std::size_t>(k)].get(
            sym.counterexample);
    ASSERT_NE(want, logic::Tri::DontCare) << sym.detail;
    EXPECT_NE(pla_out, want == logic::Tri::One)
        << "perturbation " << i << ": counterexample is not a witness: "
        << sym.detail;
    // The replay oracle agrees the personality is bad.
    const PlaCheckReport r =
        check_pla(d, fsm, bad, 64, 4, 1, {}, PlaCheckMode::Replay);
    EXPECT_FALSE(r.ok) << "perturbation " << i << " escaped replay";
    EXPECT_FALSE(r.error) << r.detail;
  }
}

TEST(PlaCheck, OverWideFsmRejectedStructurally) {
  // 40 input bits + 0 state bits cannot pack into a 32-bit minterm; both
  // modes must reject with a structured diag instead of silently wrapping.
  const rtl::Design d = rtl::parse(R"(
    processor wide (input a<20>; input b<20>; output y;) { y = a[0]; })");
  synth::TabulatedFsm fsm;
  fsm.state_bits = 0;
  fsm.function.num_inputs = 1;
  fsm.function.outputs.emplace_back(1);
  fsm.input_names = {"a[0]"};
  fsm.output_names = {"y"};
  logic::PlaTerms p;
  p.num_inputs = 1;
  p.output_terms = {{}};
  for (const PlaCheckMode mode :
       {PlaCheckMode::Exhaustive, PlaCheckMode::Replay}) {
    const PlaCheckReport r = check_pla(d, fsm, p, 16, 1, 1, {}, mode);
    EXPECT_FALSE(r.ok) << to_string(mode);
    EXPECT_FALSE(r.error) << to_string(mode) << ": " << r.detail;
    EXPECT_NE(r.detail.find("32-bit cube packing"), std::string::npos)
        << to_string(mode) << ": " << r.detail;
  }
}

// ------------------------------------------------------------- crosscheck --

TEST(Crosscheck, CounterAcrossAllThreeModels) {
  const rtl::Design d = rtl::parse(kCounter);
  CrosscheckOptions opt;
  opt.cycles = 128;
  opt.lanes = 8;
  opt.switch_cycles = 12;
  const CrosscheckReport r = crosscheck(d, opt);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.switch_cycles, 12);
  EXPECT_GT(r.transistors, 0u);
}

TEST(Crosscheck, TrafficLightAcrossAllThreeModels) {
  const rtl::Design d = rtl::parse(kTraffic);
  CrosscheckOptions opt;
  opt.cycles = 128;
  opt.lanes = 8;
  opt.switch_cycles = 8;
  const CrosscheckReport r = crosscheck(d, opt);
  EXPECT_TRUE(r.ok) << r.detail;
}

// ----------------------------------------------------------------- PDP-8 --

const char* kPdp8 = silc_fixtures::kPdp8Source;

std::uint32_t ins(int op, int ind, int page, int off) {
  return static_cast<std::uint32_t>((op << 9) | (ind << 8) | (page << 7) | off);
}

TEST(Pdp8, CompiledSimRunsTheExampleProgramCycleIdentically) {
  const rtl::Design d = rtl::parse(kPdp8);
  CompiledSim cs(d);
  rtl::BehavioralSim bs(d);
  cs.reset();
  cs.poke("run", 1);
  bs.set("run", 1);

  std::vector<std::uint32_t> mem(4096, 0), bmem;
  mem[0] = ins(1, 0, 0, 020);  // TAD 20
  mem[1] = ins(1, 0, 0, 021);  // TAD 21
  mem[2] = ins(1, 1, 0, 024);  // TAD I 24
  mem[3] = ins(3, 0, 0, 023);  // DCA 23
  mem[4] = ins(1, 0, 0, 023);  // TAD 23
  mem[5] = ins(7, 0, 0, 1);    // OPR: IAC
  mem[6] = 07402;              // HLT
  mem[020] = 5;
  mem[021] = 7;
  mem[022] = 9;
  mem[024] = 022;
  bmem = mem;

  int cycles = 0;
  while (cs.peek("halted") == 0 && cycles < 200) {
    // Both worlds run their own memory image off their own bus.
    cs.poke("mem_rdata", mem[cs.peek("mem_addr") & 0xFFF]);
    bs.set("mem_rdata", bmem[bs.get("mem_addr") & 0xFFF]);
    ASSERT_EQ(cs.peek("mem_we"), bs.get("mem_we")) << "cycle " << cycles;
    ASSERT_EQ(cs.peek("mem_addr"), bs.get("mem_addr")) << "cycle " << cycles;
    if (cs.peek("mem_we") != 0) {
      mem[cs.peek("mem_addr") & 0xFFF] =
          static_cast<std::uint32_t>(cs.peek("mem_wdata"));
      bmem[bs.get("mem_addr") & 0xFFF] =
          static_cast<std::uint32_t>(bs.get("mem_wdata"));
    }
    cs.step();
    bs.tick();
    ASSERT_EQ(cs.peek("acc"), bs.get("acc")) << "cycle " << cycles;
    ASSERT_EQ(cs.peek("halted"), bs.get("halted")) << "cycle " << cycles;
    ++cycles;
  }
  EXPECT_EQ(cs.peek("acc"), 22u);
  EXPECT_EQ(mem[023], 21u);
  EXPECT_LT(cycles, 200);
}

TEST(Pdp8, CrosscheckRandomStimulus) {
  const rtl::Design d = rtl::parse(kPdp8);
  CrosscheckOptions opt;
  opt.cycles = 48;
  opt.lanes = 4;
  opt.switch_cycles = 2;  // the relaxation model is slow; 2 cycles suffice
  const CrosscheckReport r = crosscheck(d, opt);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_GT(r.transistors, 1000u);
}

}  // namespace
}  // namespace silc::sim
