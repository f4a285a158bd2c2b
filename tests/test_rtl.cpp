// RTL language tests: parsing, elaboration semantics (if/case flattening,
// width rules), and the behavioral simulator.
#include <gtest/gtest.h>

#include "rtl/rtl.hpp"

namespace silc::rtl {
namespace {

TEST(RtlParse, CounterElaborates) {
  const Design d = parse(R"(
    processor counter (input reset; output value<4>;) {
      reg count<4>;
      value = count;
      always { if (reset) count := 0; else count := count + 1; }
    })");
  EXPECT_EQ(d.name, "counter");
  EXPECT_EQ(d.state_bits(), 4u);
  EXPECT_EQ(d.input_bits(), 1u);
  EXPECT_EQ(d.output_bits(), 4u);
  ASSERT_TRUE(d.next.count("count"));
  ASSERT_TRUE(d.comb.count("value"));
}

TEST(RtlParse, Errors) {
  const auto bad = [](const std::string& src) {
    EXPECT_THROW(parse(src), ParseError) << src;
  };
  bad("");
  bad("processor x (input a; input a;) {}");            // duplicate
  bad("processor x (input a<40>;) {}");                 // width too big
  bad("processor x (input a;) { b = a; }");             // undeclared
  bad("processor x (input a; output y;) { y = a; y = a; }");  // double assign
  bad("processor x (input a; output y;) { always { y := a; } y = a; }");  // := wire
  bad("processor x (input a; output y;) { reg r; y = a; always { a := 1; } }");
  bad("processor x (input a; output y;) { y = a[3]; }");  // out of range
  bad("processor x (input a; output y;) {}");             // y unassigned
  bad("processor x (input a; output y;) { y = a +; }");   // syntax
  // Hostile text: a width or bit index above 32 bits must not narrow into
  // range, a literal must fit in 64 bits, and a comment must close.
  bad("processor x (input a<4294967297>; output y;) { y = a; }");
  bad("processor x (input a<4>; output y;) { y = a[4294967296]; }");
  bad("processor x (input a; output y;) { y = 18446744073709551617; }");
  bad("processor x (input a; output y;) { y = a; } /* unterminated");
  bad("processor x (input a; output y;) { y = " + std::string(300, '(') + "a" +
      std::string(300, ')') + "; }");  // nesting too deep
}

TEST(RtlParse, EmptyProcessorIsLegal) {
  const Design d = parse("processor x () { }");
  EXPECT_EQ(d.signals.size(), 0u);
}

TEST(RtlSim, CounterCounts) {
  const Design d = parse(R"(
    processor counter (input reset; output value<4>;) {
      reg count<4>;
      value = count;
      always { if (reset) count := 0; else count := count + 1; }
    })");
  BehavioralSim sim(d);
  sim.set("reset", 0);
  for (int i = 1; i <= 20; ++i) {
    sim.tick();
    EXPECT_EQ(sim.get("value"), static_cast<std::uint64_t>(i % 16));
  }
  sim.set("reset", 1);
  sim.tick();
  EXPECT_EQ(sim.get("value"), 0u);
}

TEST(RtlSim, OperatorSemantics) {
  const Design d = parse(R"(
    processor ops (input a<8>; input b<8>;
                   output sum<8>; output diff<8>; output lt; output eq;
                   output sh<8>; output bits<8>; output inv<8>; output mx<8>;) {
      sum = a + b;
      diff = a - b;
      lt = a < b;
      eq = a == b;
      sh = (a << 2) | (b >> 3);
      bits = {a[3:0], b[7:4]};
      inv = ~a ^ b;
      mx = a[0] ? a : b;
    })");
  BehavioralSim sim(d);
  const auto check = [&sim](std::uint64_t a, std::uint64_t b) {
    sim.set("a", a);
    sim.set("b", b);
    EXPECT_EQ(sim.get("sum"), (a + b) & 0xFF);
    EXPECT_EQ(sim.get("diff"), (a - b) & 0xFF);
    EXPECT_EQ(sim.get("lt"), a < b ? 1u : 0u);
    EXPECT_EQ(sim.get("eq"), a == b ? 1u : 0u);
    EXPECT_EQ(sim.get("sh"), ((a << 2) | (b >> 3)) & 0xFF);
    EXPECT_EQ(sim.get("bits"), (((a & 0xF) << 4) | (b >> 4)) & 0xFF);
    EXPECT_EQ(sim.get("inv"), (~a ^ b) & 0xFF);
    EXPECT_EQ(sim.get("mx"), (a & 1) != 0 ? a : b);
  };
  check(0, 0);
  check(5, 9);
  check(255, 1);
  check(128, 128);
  check(0x55, 0xAA);
}

TEST(RtlSim, CaseStatement) {
  const Design d = parse(R"(
    processor fsm (input go; output st<2>;) {
      reg state<2>;
      st = state;
      always {
        case (state) {
          0: if (go) state := 1;
          1: state := 2;
          2: state := 3;
          default: state := 0;
        }
      }
    })");
  BehavioralSim sim(d);
  sim.set("go", 0);
  sim.tick();
  EXPECT_EQ(sim.get("st"), 0u);  // waits for go
  sim.set("go", 1);
  sim.tick();
  EXPECT_EQ(sim.get("st"), 1u);
  sim.tick();
  EXPECT_EQ(sim.get("st"), 2u);
  sim.tick();
  EXPECT_EQ(sim.get("st"), 3u);
  sim.tick();
  EXPECT_EQ(sim.get("st"), 0u);  // default arm
}

TEST(RtlSim, LaterAssignmentWins) {
  const Design d = parse(R"(
    processor p (input a; output y<2>;) {
      reg r<2>;
      y = r;
      always {
        r := 1;
        if (a) r := 2;
      }
    })");
  BehavioralSim sim(d);
  sim.set("a", 0);
  sim.tick();
  EXPECT_EQ(sim.get("y"), 1u);
  sim.set("a", 1);
  sim.tick();
  EXPECT_EQ(sim.get("y"), 2u);
}

TEST(RtlSim, UnassignedPathHolds) {
  const Design d = parse(R"(
    processor p (input load; input v<4>; output y<4>;) {
      reg r<4>;
      y = r;
      always { if (load) r := v; }
    })");
  BehavioralSim sim(d);
  sim.set("load", 1);
  sim.set("v", 9);
  sim.tick();
  EXPECT_EQ(sim.get("y"), 9u);
  sim.set("load", 0);
  sim.set("v", 3);
  sim.tick();
  sim.tick();
  EXPECT_EQ(sim.get("y"), 9u);  // held
}

TEST(RtlSim, WiresChainAndCyclesDetected) {
  const Design d = parse(R"(
    processor p (input a<4>; output y<4>;) {
      wire b<4>; wire c<4>;
      b = a + 1;
      c = b + 1;
      y = c + 1;
    })");
  BehavioralSim sim(d);
  sim.set("a", 5);
  EXPECT_EQ(sim.get("y"), 8u);

  const Design cyc = parse(R"(
    processor p (input a<4>; output y<4>;) {
      wire b<4>; wire c<4>;
      b = c + 1;
      c = b + 1;
      y = c;
    })");
  BehavioralSim sim2(cyc);
  EXPECT_THROW((void)sim2.get("y"), std::runtime_error);
}

TEST(RtlSim, PokeAndNextOf) {
  const Design d = parse(R"(
    processor p (input x; output y<3>;) {
      reg r<3>;
      y = r;
      always { r := r + x; }
    })");
  BehavioralSim sim(d);
  sim.poke("r", 6);
  sim.set("x", 1);
  EXPECT_EQ(sim.next_of("r"), 7u);
  EXPECT_EQ(sim.get("y"), 6u);  // next_of does not commit
  sim.tick();
  EXPECT_EQ(sim.get("y"), 7u);
}

TEST(RtlSim, NumericLiterals) {
  const Design d = parse(R"(
    processor p (output a<8>; output b<8>; output c<8>;) {
      a = 0x2a; b = 0b101; c = 42;
    })");
  BehavioralSim sim(d);
  EXPECT_EQ(sim.get("a"), 42u);
  EXPECT_EQ(sim.get("b"), 5u);
  EXPECT_EQ(sim.get("c"), 42u);
}

}  // namespace
}  // namespace silc::rtl
