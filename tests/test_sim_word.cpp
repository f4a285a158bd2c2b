// Word-backend tests: lane accounting per word kind, >64-lane
// poke/peek/run semantics, bit-identical traces across the u64 and v512
// backends, and GateSim as an independent scalar reference.
#include <gtest/gtest.h>

#include <random>

#include "net/net.hpp"
#include "random_netlist.hpp"
#include "rtl/rtl.hpp"
#include "sim/sim.hpp"

namespace silc::sim {
namespace {

SimConfig cfg(WordKind w, bool fuse = true) {
  SimConfig c;
  c.word = w;
  c.fuse = fuse;
  return c;
}

const char* kAdder = R"(
  processor adder (input a<6>; input b<6>; output sum<6>; output carry;) {
    wire wide<7>;
    wide = {0b0, a} + {0b0, b};
    sum = wide[5:0];
    carry = wide[6];
  })";

const char* kCounter = R"(
  processor counter (input reset; output value<3>;) {
    reg count<3>;
    value = count;
    always { if (reset) count := 0; else count := count + 1; }
  })";

TEST(Word, LaneAccounting) {
  EXPECT_EQ(lanes_of(WordKind::U64), 64);
  EXPECT_EQ(lanes_of(WordKind::V512), 512);
  EXPECT_EQ(words_of(WordKind::U64), 1);
  EXPECT_EQ(words_of(WordKind::V512), 8);
  EXPECT_EQ(lanes_of(widest_word()), 64 * words_of(widest_word()));
}

TEST(Word, FiveHundredTwelveIndependentAdderVectors) {
  const rtl::Design d = rtl::parse(kAdder);
  CompiledSim cs(d, cfg(WordKind::V512));
  ASSERT_EQ(cs.lanes(), 512);
  for (int lane = 0; lane < cs.lanes(); ++lane) {
    cs.poke_lane(lane, "a", static_cast<std::uint64_t>(lane & 63));
    cs.poke_lane(lane, "b", static_cast<std::uint64_t>((lane * 7 + 3) & 63));
  }
  cs.eval();
  for (int lane = 0; lane < cs.lanes(); ++lane) {
    const std::uint64_t a = static_cast<std::uint64_t>(lane & 63);
    const std::uint64_t b = static_cast<std::uint64_t>((lane * 7 + 3) & 63);
    ASSERT_EQ(cs.peek_lane(lane, "sum"), (a + b) & 63) << "lane " << lane;
    ASSERT_EQ(cs.peek_lane(lane, "carry"), (a + b) >> 6) << "lane " << lane;
  }
  EXPECT_THROW((void)cs.peek_lane(512, "sum"), std::out_of_range);
  EXPECT_THROW(cs.poke_lane(-1, "a", 0), std::out_of_range);
}

TEST(Word, PokeBroadcastsAcrossEveryWideLane) {
  const rtl::Design d = rtl::parse(kAdder);
  CompiledSim cs(d, cfg(WordKind::V512));
  ASSERT_EQ(cs.lanes(), 512);
  cs.poke("a", 9);
  cs.poke("b", 4);
  cs.poke_lane(200, "b", 60);
  cs.eval();
  EXPECT_EQ(cs.peek_lane(0, "sum"), 13u);
  EXPECT_EQ(cs.peek_lane(63, "sum"), 13u);
  EXPECT_EQ(cs.peek_lane(64, "sum"), 13u);   // beyond the first limb
  EXPECT_EQ(cs.peek_lane(511, "sum"), 13u);
  EXPECT_EQ(cs.peek_lane(200, "sum"), (9u + 60u) & 63u);
  EXPECT_EQ(cs.peek_lane(200, "carry"), 1u);
}

TEST(Word, RunCarriesMoreThanSixtyFourSequences) {
  const rtl::Design d = rtl::parse(kCounter);
  CompiledSim cs(d, cfg(WordKind::V512));
  const int n = 100;  // > 64: only a wide word can batch these in one pass
  std::vector<Trace> stimuli;
  for (int l = 0; l < n; ++l) {
    stimuli.push_back(random_stimulus(d, 24, 500u + static_cast<unsigned>(l)));
  }
  const std::vector<Trace> got = cs.run(stimuli);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
  for (int l = 0; l < n; ++l) {
    rtl::BehavioralSim b(d);
    for (std::size_t c = 0; c < 24; ++c) {
      for (const auto& [name, v] : stimuli[l][c]) b.set(name, v);
      b.tick();
      ASSERT_EQ(got[l][c].at("value"), b.get("value"))
          << "lane " << l << " cycle " << c;
    }
  }
}

TEST(Word, BackendsProduceIdenticalTraces) {
  std::mt19937_64 vals(4242);
  for (unsigned seed : {3u, 17u}) {
    const net::Netlist nl = silc_fixtures::random_netlist(seed);
    const std::vector<std::string> probes =
        silc_fixtures::output_probe_names(nl);
    std::vector<Trace> stimuli(16);
    for (Trace& t : stimuli) {
      t.resize(20);
      for (Vector& row : t) {
        for (const int in : nl.inputs()) row[nl.net_name(in)] = vals() & 1u;
      }
    }
    // Word backends must agree bit-for-bit, fused or not.
    for (const bool fuse : {false, true}) {
      std::vector<std::vector<Trace>> results;
      for (const WordKind w : {WordKind::U64, WordKind::V512}) {
        CompiledSim cs(nl, cfg(w, fuse));
        results.push_back(cs.run(stimuli, probes));
      }
      for (std::size_t i = 1; i < results.size(); ++i) {
        for (std::size_t l = 0; l < stimuli.size(); ++l) {
          const TraceDiff d = diff_traces(results[0][l], results[i][l]);
          ASSERT_TRUE(d.identical) << "seed " << seed << " fuse " << fuse
                                   << " lane " << l << ": " << d.to_string();
        }
      }
    }
  }
}

TEST(Word, MatchesScalarGateSimReference) {
  const net::Netlist nl = silc_fixtures::random_netlist(23);
  net::GateSim gs(nl);
  gs.reset_state(false);
  CompiledSim cs(nl, cfg(WordKind::V512));
  cs.reset();

  std::mt19937 rng(5);
  for (int cycle = 0; cycle < 24; ++cycle) {
    for (const int in : nl.inputs()) {
      const bool v = (rng() & 1u) != 0;
      gs.set(in, v);
      cs.poke(nl.net_name(in), v ? 1 : 0);
    }
    gs.eval();  // settle new inputs so tick() latches what step() commits
    gs.tick();
    cs.step();
    for (const int out : nl.outputs()) {
      ASSERT_EQ(cs.peek(nl.net_name(out)), gs.get(out) ? 1u : 0u)
          << "cycle " << cycle << " net " << nl.net_name(out);
    }
  }
}

}  // namespace
}  // namespace silc::sim
