// Logic minimization tests: prime implicants, QM covering, heuristic
// expansion — correctness is checked by equivalence against the original
// function (property-style across random functions).
#include <gtest/gtest.h>

#include <random>

#include "equiv_oracle.hpp"
#include "fuzz_env.hpp"
#include "logic/logic.hpp"

namespace silc::logic {
namespace {

using silc_fixtures::equiv_oracle::check_cover_equiv;
using silc_fixtures::equiv_oracle::cube_covered;
using silc_fixtures::equiv_oracle::EquivVerdict;
using silc_fixtures::equiv_oracle::exact_cover;
using silc_fixtures::equiv_oracle::is_tautology;

TEST(Cube, CoverContain) {
  const Cube c{0b011, 0b001};  // x0=1, x1=0, x2=-
  EXPECT_TRUE(c.covers(0b001));
  EXPECT_TRUE(c.covers(0b101));
  EXPECT_FALSE(c.covers(0b011));
  EXPECT_FALSE(c.covers(0b000));
  EXPECT_EQ(c.literal_count(), 2);
  EXPECT_EQ(c.to_string(3), "10-");
  const Cube wider{0b001, 0b001};  // x0=1
  EXPECT_TRUE(wider.contains(c));
  EXPECT_FALSE(c.contains(wider));
  EXPECT_TRUE(c.contains(c));
}

TEST(TruthTable, Basics) {
  TruthTable t = TruthTable::from_function(3, [](std::uint32_t r) {
    return __builtin_popcount(r) >= 2;  // majority
  });
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.on_count(), 4u);
  EXPECT_EQ(t.get(0b011), Tri::One);
  EXPECT_EQ(t.get(0b001), Tri::Zero);
  EXPECT_THROW(TruthTable(21), std::invalid_argument);
  EXPECT_THROW(TruthTable(-1), std::invalid_argument);
}

TEST(Minimize, MajorityIsThreeTerms) {
  // maj(a,b,c) = ab + ac + bc: classic minimal cover.
  const TruthTable t = TruthTable::from_function(
      3, [](std::uint32_t r) { return __builtin_popcount(r) >= 2; });
  const std::vector<Cube> cover = minimize_qm(t);
  EXPECT_EQ(cover.size(), 3u);
  EXPECT_TRUE(t.implemented_by(cover));
  for (const Cube& c : cover) EXPECT_EQ(c.literal_count(), 2);
}

TEST(Minimize, XorNeedsAllMinterms) {
  const TruthTable t = TruthTable::from_function(
      4, [](std::uint32_t r) { return (__builtin_popcount(r) & 1) != 0; });
  const std::vector<Cube> cover = minimize_qm(t);
  EXPECT_EQ(cover.size(), 8u);  // parity has no mergeable minterms
  EXPECT_TRUE(t.implemented_by(cover));
}

TEST(Minimize, ConstantFunctions) {
  const TruthTable ones =
      TruthTable::from_function(4, [](std::uint32_t) { return true; });
  const std::vector<Cube> cover = minimize_qm(ones);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].mask, 0u);  // tautology cube
  const TruthTable zeros =
      TruthTable::from_function(4, [](std::uint32_t) { return false; });
  EXPECT_TRUE(minimize_qm(zeros).empty());
  EXPECT_TRUE(minimize_heuristic(zeros).empty());
}

TEST(Minimize, DontCaresAreExploited) {
  // f = 1 on {1}, don't-care on {3,5,7}: a single cube x0 suffices.
  TruthTable t(3);
  t.set(1, Tri::One);
  t.set(3, Tri::DontCare);
  t.set(5, Tri::DontCare);
  t.set(7, Tri::DontCare);
  const std::vector<Cube> cover = minimize_qm(t);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].mask, 1u);
  EXPECT_EQ(cover[0].value, 1u);
  EXPECT_TRUE(t.implemented_by(cover));
}

TEST(PrimeImplicants, SevenSegmentStyleFunction) {
  // The classic QM textbook example: f = sum(4,8,10,11,12,15), dc(9,14).
  TruthTable t(4);
  for (const std::uint32_t m : {4u, 8u, 10u, 11u, 12u, 15u}) t.set(m, Tri::One);
  for (const std::uint32_t m : {9u, 14u}) t.set(m, Tri::DontCare);
  const std::vector<Cube> cover = minimize_qm(t);
  EXPECT_TRUE(t.implemented_by(cover));
  // Known minimum: 3 terms (x1x2'x3' + x0x2' + x0x2... in some polarity).
  EXPECT_LE(cover.size(), 3u);
}

class RandomFunctionTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomFunctionTest, QmAndHeuristicBothImplementTheFunction) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> nbits(1, 6);
  std::uniform_int_distribution<int> tri(0, 9);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = nbits(rng);
    TruthTable t(n);
    for (std::uint32_t r = 0; r < t.size(); ++r) {
      const int x = tri(rng);
      t.set(r, x < 4 ? Tri::Zero : (x < 8 ? Tri::One : Tri::DontCare));
    }
    const std::vector<Cube> qm = minimize_qm(t);
    const std::vector<Cube> heur = minimize_heuristic(t);
    EXPECT_TRUE(t.implemented_by(qm)) << "qm n=" << n;
    EXPECT_TRUE(t.implemented_by(heur)) << "heur n=" << n;
    // QM-with-B&B never loses to the heuristic by more than rounding.
    EXPECT_LE(qm.size(), heur.size() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFunctionTest, ::testing::Range(0, 10));

TEST(Minimize, WideFunctionViaHeuristic) {
  // 12 inputs: a sparse function the heuristic should compress well.
  const TruthTable t = TruthTable::from_function(12, [](std::uint32_t r) {
    return (r & 0xF0F) == 0xF0F || (r & 0x0F0) == 0;
  });
  const std::vector<Cube> cover = minimize_heuristic(t);
  EXPECT_TRUE(t.implemented_by(cover));
  EXPECT_LE(cover.size(), 4u);  // two product terms + expansion slack
}

TEST(MultiOutput, SharedTerms) {
  // f0 = a&b, f1 = a&b | c : the a&b term must be shared.
  MultiFunction f;
  f.num_inputs = 3;
  f.outputs.push_back(TruthTable::from_function(
      3, [](std::uint32_t r) { return (r & 3) == 3; }));
  f.outputs.push_back(TruthTable::from_function(
      3, [](std::uint32_t r) { return (r & 3) == 3 || (r & 4) != 0; }));
  const PlaTerms terms = minimize_multi(f);
  EXPECT_EQ(terms.terms.size(), 2u);  // {ab, c}
  EXPECT_EQ(terms.output_terms[0].size(), 1u);
  EXPECT_EQ(terms.output_terms[1].size(), 2u);
  for (std::uint32_t r = 0; r < 8; ++r) {
    EXPECT_EQ(terms.evaluate(0, r), (r & 3) == 3);
    EXPECT_EQ(terms.evaluate(1, r), (r & 3) == 3 || (r & 4) != 0);
  }
}

TEST(MultiOutput, HeuristicPath) {
  MultiFunction f;
  f.num_inputs = 11;
  f.outputs.push_back(TruthTable::from_function(
      11, [](std::uint32_t r) { return (r & 0x41) == 0x41; }));
  const PlaTerms terms = minimize_multi(f, true);
  ASSERT_EQ(terms.output_terms.size(), 1u);
  for (std::uint32_t r = 0; r < (1u << 11); ++r) {
    EXPECT_EQ(terms.evaluate(0, r), (r & 0x41) == 0x41);
  }
}

// ------------------------- the cofactor equivalence oracle (fixtures/) --

bool cover_evaluates(const std::vector<Cube>& cover, std::uint32_t m) {
  for (const Cube& c : cover) {
    if (c.covers(m)) return true;
  }
  return false;
}

TEST(Equiv, TautologyBasics) {
  std::uint32_t cex = 0;
  // x0 + x0' is a tautology over any width.
  const std::vector<Cube> split = {{1u, 1u}, {1u, 0u}};
  EXPECT_TRUE(is_tautology(3, split));
  // A single bound cube is not.
  EXPECT_FALSE(is_tautology(3, {{1u, 1u}}, &cex));
  EXPECT_EQ(cex & 1u, 0u);  // the witness has x0 = 0
  // The empty cover covers nothing.
  EXPECT_FALSE(is_tautology(2, {}, &cex));
  // The universal cube covers everything.
  EXPECT_TRUE(is_tautology(2, {{0u, 0u}}));
}

TEST(Equiv, CubeContainment) {
  // x0x1 is inside x0; x0 is not inside x0x1, and the witness minterm
  // must lie in the big cube but escape the small one.
  std::uint32_t cex = 0;
  const Cube big{1u, 1u};    // x0
  const Cube small{3u, 3u};  // x0 x1
  EXPECT_TRUE(cube_covered(4, small, {big}));
  EXPECT_FALSE(cube_covered(4, big, {small}, &cex));
  EXPECT_TRUE(big.covers(cex));
  EXPECT_FALSE(small.covers(cex));
}

TEST(Equiv, ExactCoverPartitionsEveryTriSet) {
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> tri(0, 9);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 1 + trial % 6;
    TruthTable t(n);
    for (std::uint32_t r = 0; r < t.size(); ++r) {
      const int x = tri(rng);
      t.set(r, x < 4 ? Tri::Zero : (x < 8 ? Tri::One : Tri::DontCare));
    }
    for (const Tri which : {Tri::Zero, Tri::One, Tri::DontCare}) {
      const std::vector<Cube> cover = exact_cover(t, which);
      for (std::uint32_t r = 0; r < t.size(); ++r) {
        EXPECT_EQ(cover_evaluates(cover, r), t.get(r) == which)
            << "n=" << n << " row=" << r;
      }
    }
  }
}

/// Differential fuzz: the cofactor verdict must agree with the truth
/// table's exhaustive implemented_by on random covers over functions with
/// don't-cares — and every counterexample must be a genuine witness.
/// Honors SILC_FUZZ_TRIALS / SILC_FUZZ_SEED (fixtures/fuzz_env.hpp).
TEST(Equiv, FuzzAgreesWithImplementedBy) {
  std::uniform_int_distribution<int> nbits(1, 7);
  std::uniform_int_distribution<int> tri(0, 9);
  std::uniform_int_distribution<int> ncubes(0, 6);
  int random_trials = 0;
  int disagreements = 0;
  silc_fixtures::fuzz_seeds(
      "test_logic", "Equiv.FuzzAgreesWithImplementedBy", 2026, 400,
      [&](unsigned seed) {
        std::mt19937 rng(seed);
        const int n = nbits(rng);
        const std::uint32_t space = (1u << n) - 1;
        TruthTable t(n);
        for (std::uint32_t r = 0; r < t.size(); ++r) {
          const int x = tri(rng);
          t.set(r, x < 4 ? Tri::Zero : (x < 8 ? Tri::One : Tri::DontCare));
        }
        std::vector<Cube> cover;
        // Half the seeds check a cover that implements the function by
        // construction; half check arbitrary random covers.
        if (seed % 2 == 0) {
          cover = (seed % 4 == 0) ? minimize_qm(t) : minimize_heuristic(t);
        } else {
          ++random_trials;
          const int k = ncubes(rng);
          for (int i = 0; i < k; ++i) {
            const std::uint32_t mask = rng() & space;
            cover.push_back({mask, static_cast<std::uint32_t>(rng()) & mask});
          }
        }
        const EquivVerdict v = check_cover_equiv(t, cover);
        ASSERT_EQ(v.equal, t.implemented_by(cover)) << "n=" << n;
        if (!v.equal) {
          ++disagreements;
          EXPECT_LE(v.counterexample, space);
          EXPECT_NE(t.get(v.counterexample), Tri::DontCare);
          EXPECT_EQ(t.get(v.counterexample) == Tri::One, v.expected);
          EXPECT_EQ(cover_evaluates(cover, v.counterexample), v.got);
          EXPECT_NE(v.expected, v.got)
              << "counterexample does not witness a disagreement";
        }
      });
  // The random half must actually exercise the failure path (a pinned
  // single seed checks one cover).
  if (!silc_fixtures::fuzz_env(0).has_seed) {
    EXPECT_GT(disagreements, random_trials / 4);
  }
}

/// NOR-plane handling end to end: program the *complement* cover (what a
/// NOR-NOR PLA stores), then prove it against the complemented function —
/// and catch a perturbed plane with a witness, the way check_pla does.
TEST(Equiv, ComplementCoverRoundTripsThroughNorSemantics) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> tri(0, 9);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 2 + trial % 5;
    TruthTable t(n);
    for (std::uint32_t r = 0; r < t.size(); ++r) {
      const int x = tri(rng);
      t.set(r, x < 4 ? Tri::Zero : (x < 8 ? Tri::One : Tri::DontCare));
    }
    const TruthTable comp = TruthTable::from_tri_function(
        n, [&t](std::uint32_t r) {
          const Tri v = t.get(r);
          if (v == Tri::One) return Tri::Zero;
          if (v == Tri::Zero) return Tri::One;
          return Tri::DontCare;
        });
    const std::vector<Cube> plane = minimize_qm(comp);
    EXPECT_TRUE(check_cover_equiv(comp, plane).equal);
    // NOR of the plane reproduces the function on every care row.
    for (std::uint32_t r = 0; r < t.size(); ++r) {
      if (t.get(r) == Tri::DontCare) continue;
      EXPECT_EQ(!cover_evaluates(plane, r), t.get(r) == Tri::One);
    }
    // Perturb one literal of a non-trivial plane: the prover must notice
    // unless the flip lands entirely inside don't-care space.
    if (plane.empty() || plane[0].mask == 0) continue;
    std::vector<Cube> bad = plane;
    bad[0].value ^= bad[0].mask & (~bad[0].mask + 1u);
    const EquivVerdict v = check_cover_equiv(comp, bad);
    if (!v.equal) {
      EXPECT_NE(comp.get(v.counterexample), Tri::DontCare);
      EXPECT_EQ(cover_evaluates(bad, v.counterexample), v.got);
      EXPECT_NE(v.expected, v.got);
    } else {
      EXPECT_TRUE(comp.implemented_by(bad));  // flip hid in the dc-set
    }
  }
}

}  // namespace
}  // namespace silc::logic
