// Tape-fusion tests: one unit test per peephole rule (Not-into-*, copy
// bypass, constant folding, equal-operand folding, Mux simplification,
// dead-code elimination, register-D rerouting), the fused tape's level
// invariant, and randomized netlists cross-checked fused-vs-unfused over
// every word width.
#include <gtest/gtest.h>

#include <random>

#include "net/net.hpp"
#include "random_netlist.hpp"
#include "sim/sim.hpp"

namespace silc::sim {
namespace {

using net::GateKind;
using Code = TapeOp::Code;

SimConfig unfused() {
  SimConfig c;
  c.word = WordKind::U64;
  c.fuse = false;
  return c;
}
SimConfig fused(WordKind w = WordKind::U64) {
  SimConfig c;
  c.word = w;
  c.fuse = true;
  return c;
}

/// The ops of a netlist's fused tape, compiled the way CompiledSim does it
/// (primary I/O observable, interior nets fair game).
Tape fused_tape(const net::Netlist& nl) {
  CompiledSim cs(nl, fused());
  return cs.tape();
}

// ------------------------------------------------------ peephole rules --

TEST(Fuse, NotOfAndBecomesNand) {
  net::Netlist nl;
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int n1 = nl.add_gate(GateKind::And, {a, b}, "n1");
  const int y = nl.add_gate(GateKind::Not, {n1}, "y");
  nl.mark_output(y, "y");

  const Tape t = fused_tape(nl);
  ASSERT_EQ(t.ops.size(), 1u);  // the And is dead once the Not fuses
  EXPECT_EQ(t.ops[0].code, Code::Nand);
  EXPECT_EQ(t.ops[0].out, static_cast<std::uint32_t>(y));
  EXPECT_EQ(t.ops[0].a, static_cast<std::uint32_t>(a));
  EXPECT_EQ(t.ops[0].b, static_cast<std::uint32_t>(b));
}

TEST(Fuse, EveryInvertibleProducerFuses) {
  const std::pair<GateKind, Code> cases[] = {
      {GateKind::And, Code::Nand}, {GateKind::Nand, Code::And},
      {GateKind::Or, Code::Nor},   {GateKind::Nor, Code::Or},
      {GateKind::Xor, Code::Xnor}, {GateKind::Xnor, Code::Xor},
  };
  for (const auto& [kind, want] : cases) {
    net::Netlist nl;
    const int a = nl.add_input("a");
    const int b = nl.add_input("b");
    const int n1 = nl.add_gate(kind, {a, b}, "n1");
    const int y = nl.add_gate(GateKind::Not, {n1}, "y");
    nl.mark_output(y, "y");
    const Tape t = fused_tape(nl);
    ASSERT_EQ(t.ops.size(), 1u) << net::to_string(kind);
    EXPECT_EQ(t.ops[0].code, want) << net::to_string(kind);
  }
}

TEST(Fuse, DoubleNotCollapsesToCopy) {
  net::Netlist nl;
  const int a = nl.add_input("a");
  const int n1 = nl.add_gate(GateKind::Not, {a}, "n1");
  const int y = nl.add_gate(GateKind::Not, {n1}, "y");
  nl.mark_output(y, "y");

  const Tape t = fused_tape(nl);
  // n1 is interior and dies; y collapses to Copy(a).
  ASSERT_EQ(t.ops.size(), 1u);
  EXPECT_EQ(t.ops[0].code, Code::Copy);
  EXPECT_EQ(t.ops[0].out, static_cast<std::uint32_t>(y));
  EXPECT_EQ(t.ops[0].a, static_cast<std::uint32_t>(a));
}

TEST(Fuse, CopyChainsAreBypassed) {
  net::Netlist nl;
  const int a = nl.add_input("a");
  const int b1 = nl.add_gate(GateKind::Buf, {a}, "b1");
  const int b2 = nl.add_gate(GateKind::Buf, {b1}, "b2");
  const int y = nl.add_gate(GateKind::Not, {b2}, "y");
  nl.mark_output(y, "y");

  const Tape t = fused_tape(nl);
  ASSERT_EQ(t.ops.size(), 1u);
  EXPECT_EQ(t.ops[0].code, Code::Not);
  EXPECT_EQ(t.ops[0].a, static_cast<std::uint32_t>(a));  // reads the root
}

TEST(Fuse, ConstantOperandsFold) {
  net::Netlist nl;
  const int a = nl.add_input("a");
  const int c1 = nl.add_gate(GateKind::Const1, {}, "c1");
  const int c0 = nl.add_gate(GateKind::Const0, {}, "c0");
  const int y1 = nl.add_gate(GateKind::And, {a, c1}, "y1");   // = a
  const int y2 = nl.add_gate(GateKind::And, {a, c0}, "y2");   // = 0
  const int y3 = nl.add_gate(GateKind::Xor, {a, c1}, "y3");   // = ~a
  const int y4 = nl.add_gate(GateKind::Or, {a, c0}, "y4");    // = a
  const int y5 = nl.add_gate(GateKind::Nor, {a, c1}, "y5");   // = 0
  nl.mark_output(y1, "");
  nl.mark_output(y2, "");
  nl.mark_output(y3, "");
  nl.mark_output(y4, "");
  nl.mark_output(y5, "");

  CompiledSim cs(nl, fused());
  for (const TapeOp& op : cs.tape().ops) {
    EXPECT_TRUE(op.code == Code::Copy || op.code == Code::Const0 ||
                op.code == Code::Not)
        << "unexpected op " << static_cast<int>(op.code);
  }
  cs.poke("a", 1);
  cs.eval();
  EXPECT_EQ(cs.peek(nl.net_name(y1)), 1u);
  EXPECT_EQ(cs.peek(nl.net_name(y2)), 0u);
  EXPECT_EQ(cs.peek(nl.net_name(y3)), 0u);
  EXPECT_EQ(cs.peek(nl.net_name(y4)), 1u);
  EXPECT_EQ(cs.peek(nl.net_name(y5)), 0u);
  cs.poke("a", 0);
  cs.eval();
  EXPECT_EQ(cs.peek(nl.net_name(y1)), 0u);
  EXPECT_EQ(cs.peek(nl.net_name(y3)), 1u);
}

TEST(Fuse, ConstnessPropagatesTransitively) {
  net::Netlist nl;
  const int a = nl.add_input("a");
  const int c1 = nl.add_gate(GateKind::Const1, {}, "c1");
  const int n1 = nl.add_gate(GateKind::Not, {c1}, "n1");    // = 0
  const int n2 = nl.add_gate(GateKind::Or, {n1, c1}, "n2");  // = 1
  const int y = nl.add_gate(GateKind::And, {a, n2}, "y");    // = a
  nl.mark_output(y, "y");

  CompiledSim cs(nl, fused());
  // y folds all the way down to Copy(a); the const scaffolding is dead.
  ASSERT_EQ(cs.tape().ops.size(), 1u);
  EXPECT_EQ(cs.tape().ops[0].code, Code::Copy);
  EXPECT_EQ(cs.tape().ops[0].a, static_cast<std::uint32_t>(a));
  (void)n2;
}

TEST(Fuse, MuxSimplifies) {
  net::Netlist nl;
  const int s = nl.add_input("s");
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int c1 = nl.add_gate(GateKind::Const1, {}, "c1");
  const int c0 = nl.add_gate(GateKind::Const0, {}, "c0");
  const int y1 = nl.add_gate(GateKind::Mux, {c1, a, b}, "y1");  // = b
  const int y2 = nl.add_gate(GateKind::Mux, {s, a, a}, "y2");   // = a
  const int y3 = nl.add_gate(GateKind::Mux, {s, c0, c1}, "y3");  // = s
  const int y4 = nl.add_gate(GateKind::Mux, {s, c1, c0}, "y4");  // = ~s
  nl.mark_output(y1, "");
  nl.mark_output(y2, "");
  nl.mark_output(y3, "");
  nl.mark_output(y4, "");

  CompiledSim cs(nl, fused());
  for (const TapeOp& op : cs.tape().ops) {
    EXPECT_NE(op.code, Code::Mux);
  }
  cs.poke("s", 1);
  cs.poke("a", 0);
  cs.poke("b", 1);
  cs.eval();
  EXPECT_EQ(cs.peek(nl.net_name(y1)), 1u);
  EXPECT_EQ(cs.peek(nl.net_name(y2)), 0u);
  EXPECT_EQ(cs.peek(nl.net_name(y3)), 1u);
  EXPECT_EQ(cs.peek(nl.net_name(y4)), 0u);
}

TEST(Fuse, EqualOperandsFold) {
  net::Netlist nl;
  const int a = nl.add_input("a");
  const int y1 = nl.add_gate(GateKind::Xor, {a, a}, "y1");   // = 0
  const int y2 = nl.add_gate(GateKind::And, {a, a}, "y2");   // = a
  const int y3 = nl.add_gate(GateKind::Nand, {a, a}, "y3");  // = ~a
  const int y4 = nl.add_gate(GateKind::Xnor, {a, a}, "y4");  // = 1
  nl.mark_output(y1, "");
  nl.mark_output(y2, "");
  nl.mark_output(y3, "");
  nl.mark_output(y4, "");

  CompiledSim cs(nl, fused());
  cs.poke("a", 1);
  cs.eval();
  EXPECT_EQ(cs.peek(nl.net_name(y1)), 0u);
  EXPECT_EQ(cs.peek(nl.net_name(y2)), 1u);
  EXPECT_EQ(cs.peek(nl.net_name(y3)), 0u);
  EXPECT_EQ(cs.peek(nl.net_name(y4)), 1u);
  for (const TapeOp& op : cs.tape().ops) {
    EXPECT_TRUE(op.code == Code::Copy || op.code == Code::Not ||
                op.code == Code::Const0 || op.code == Code::Const1);
  }
}

// ------------------------------------------------------------------ DCE --

TEST(Fuse, UnobservableLogicIsRemovedAndPeekThrows) {
  net::Netlist nl;
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int n1 = nl.add_gate(GateKind::And, {a, b}, "n1");
  const int n2 = nl.add_gate(GateKind::Xor, {n1, a}, "n2");  // dead cone
  const int y = nl.add_gate(GateKind::Or, {a, b}, "y");
  nl.mark_output(y, "y");
  (void)n2;

  CompiledSim cs(nl, fused());
  EXPECT_EQ(cs.tape().ops.size(), 1u);
  EXPECT_GE(cs.fuse_stats().dead_removed, 2u);
  cs.poke("a", 1);
  cs.poke("b", 0);
  EXPECT_EQ(cs.peek("y"), 1u);
  EXPECT_THROW((void)cs.peek("n2"), std::runtime_error);

  // fuse=false keeps everything peekable.
  CompiledSim full(nl, unfused());
  full.poke("a", 1);
  full.poke("b", 0);
  EXPECT_EQ(full.peek("n2"), 1u);  // (a&b)^a = 0^1
}

TEST(Fuse, KeepListPinsInteriorNets) {
  net::Netlist nl;
  const int a = nl.add_input("a");
  const int b = nl.add_input("b");
  const int n1 = nl.add_gate(GateKind::And, {a, b}, "n1");
  const int y = nl.add_gate(GateKind::Not, {n1}, "y");
  nl.mark_output(y, "y");

  SimConfig cfg = fused();
  cfg.keep = {"n1"};
  CompiledSim cs(nl, cfg);
  cs.poke("a", 1);
  cs.poke("b", 1);
  EXPECT_EQ(cs.peek("n1"), 1u);
  EXPECT_EQ(cs.peek("y"), 0u);

  SimConfig bad = fused();
  bad.keep = {"no_such_net"};
  EXPECT_THROW(CompiledSim(nl, bad), std::runtime_error);
}

TEST(Fuse, RegisterDataPathReroutesPastCopies) {
  // q := Buf(Buf(d_logic)) — the commit must read through the copies and
  // the copies must die.
  net::Netlist nl;
  const int a = nl.add_input("a");
  const int q = nl.add_net("q");
  const int n1 = nl.add_gate(GateKind::Xor, {a, q}, "n1");
  const int b1 = nl.add_gate(GateKind::Buf, {n1}, "b1");
  const int b2 = nl.add_gate(GateKind::Buf, {b1}, "b2");
  nl.add_gate_driving(GateKind::Dff, {b2}, q, "r0");
  const int y = nl.add_gate(GateKind::Buf, {q}, "y");
  nl.mark_output(y, "y");

  CompiledSim cs(nl, fused());
  ASSERT_EQ(cs.tape().dffs.size(), 1u);
  EXPECT_EQ(cs.tape().dffs[0].second, static_cast<std::uint32_t>(n1));
  CompiledSim ref(nl, unfused());
  cs.poke("a", 1);
  ref.poke("a", 1);
  for (int c = 0; c < 4; ++c) {
    cs.step();
    ref.step();
    EXPECT_EQ(cs.peek("y"), ref.peek("y")) << "cycle " << c;
  }
}

// ------------------------------------------------------- tape integrity --

TEST(Fuse, FusedTapeKeepsLevelInvariant) {
  const net::Netlist nl = silc_fixtures::random_netlist(7);
  CompiledSim cs(nl, fused());
  const Tape& t = cs.tape();

  // Written slots must be written exactly once, after every op that the
  // write's level says it can depend on; an op reads only source slots or
  // slots written at strictly earlier levels.
  std::vector<int> written_level(t.slots, -1);
  std::vector<int> op_level(t.ops.size(), 0);
  for (int l = 0; l + 1 < static_cast<int>(t.level_begin.size()); ++l) {
    for (std::uint32_t i = t.level_begin[l]; i < t.level_begin[l + 1]; ++i) {
      op_level[i] = l + 1;
    }
  }
  std::size_t i = 0;
  for (const TapeOp& op : t.ops) {
    const int lv = op_level[i++];
    const auto check_read = [&](std::uint32_t s) {
      EXPECT_TRUE(written_level[s] == -1 || written_level[s] < lv)
          << "op " << i - 1 << " at level " << lv << " reads slot " << s
          << " written at level " << written_level[s];
    };
    if (op.code != Code::Const0 && op.code != Code::Const1) {
      check_read(op.a);
      if (op.code != Code::Copy && op.code != Code::Not) check_read(op.b);
      if (op.code == Code::Mux) check_read(op.sel);
    }
    EXPECT_EQ(written_level[op.out], -1) << "slot written twice";
    written_level[op.out] = lv;
  }
  EXPECT_LE(t.ops.size(), cs.fuse_stats().ops_before);
}

TEST(Fuse, StatsAreCoherent) {
  const net::Netlist nl = silc_fixtures::random_netlist(11);
  CompiledSim cs(nl, fused());
  const FuseStats& st = cs.fuse_stats();
  EXPECT_GT(st.ops_before, 0u);
  EXPECT_LE(st.ops_after, st.ops_before);
  EXPECT_EQ(st.ops_after, cs.tape().ops.size());
  EXPECT_NE(st.to_string().find("fused"), std::string::npos);
}

// --------------------------------------------- randomized equivalence --

TEST(Fuse, RandomNetlistsMatchUnfusedAcrossAllWordWidths) {
  std::mt19937_64 vals(99);
  for (unsigned seed = 1; seed <= 6; ++seed) {
    const net::Netlist nl = silc_fixtures::random_netlist(seed);
    const std::vector<std::string> probes =
        silc_fixtures::output_probe_names(nl);

    // 8 independent lanes, 32 cycles of dense random input stimulus.
    std::vector<Trace> stimuli(8);
    for (Trace& t : stimuli) {
      t.resize(32);
      for (Vector& row : t) {
        for (const int in : nl.inputs()) {
          row[nl.net_name(in)] = vals() & 1u;
        }
      }
    }

    CompiledSim ref(nl, unfused());
    const std::vector<Trace> want = ref.run(stimuli, probes);
    for (const WordKind w : {WordKind::U64, WordKind::V512}) {
      CompiledSim cs(nl, fused(w));
      const std::vector<Trace> got = cs.run(stimuli, probes);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t l = 0; l < got.size(); ++l) {
        const TraceDiff d = diff_traces(want[l], got[l]);
        EXPECT_TRUE(d.identical)
            << "seed " << seed << " word " << to_string(w) << " lane " << l
            << ": " << d.to_string();
      }
    }
  }
}

}  // namespace
}  // namespace silc::sim
