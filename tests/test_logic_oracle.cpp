// Differential fuzz of the two-level minimizer against its oracle
// (fixtures/logic_oracle.hpp: the original set-based Quine-McCluskey and
// OFF-set-scan expand). The contract is exact: every entry point returns
// the same cubes in the same order, because cover selection, the
// heuristic's unstable sort and minimize_multi's term sharing all depend
// on that order. Inputs are random tables with don't-cares over 0..13
// inputs (dense noise, or unions of random cubes), custom heuristic seeds
// (some already hitting the OFF-set) in ascending, descending and shuffled
// order, and the complemented tables of the cold_ladder benchmark designs.
//
// Honors fixtures/fuzz_env.hpp: SILC_FUZZ_TRIALS scales the sweep,
// SILC_FUZZ_SEED reruns one failing trial.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "design_sources.hpp"
#include "fuzz_env.hpp"
#include "logic/logic.hpp"
#include "logic_oracle.hpp"
#include "pla/pla.hpp"
#include "rtl/rtl.hpp"
#include "synth/synth.hpp"

namespace silc::logic {
namespace {

namespace oracle = silc_fixtures::logic_oracle;

std::string text(const std::vector<Cube>& cover, int n) {
  std::string s;
  for (const Cube& c : cover) s += c.to_string(n) + " ";
  return s.empty() ? "<empty>" : s;
}

void expect_same(const std::vector<Cube>& got, const std::vector<Cube>& want,
                 int n, const char* what) {
  EXPECT_TRUE(got == want) << what << " differs from the oracle (n=" << n
                           << ")\n    oracle:  " << text(want, n)
                           << "\n    current: " << text(got, n);
}

void expect_same(const PlaTerms& got, const PlaTerms& want, const char* what) {
  expect_same(got.terms, want.terms, want.num_inputs, what);
  EXPECT_EQ(got.output_terms, want.output_terms) << what << " term lists";
}

/// A random table whose ON / don't-care densities vary per trial, so both
/// sparse and dense functions (and all-zero / all-care ones) appear.
TruthTable random_table(std::mt19937& rng, int n) {
  const int one_pct = static_cast<int>(rng() % 101);
  const int dc_pct = static_cast<int>(rng() % (101 - one_pct)) / 2;
  TruthTable t(n);
  for (std::uint32_t r = 0; r < t.size(); ++r) {
    const int x = static_cast<int>(rng() % 100);
    t.set(r, x < one_pct ? Tri::One
                         : (x < one_pct + dc_pct ? Tri::DontCare : Tri::Zero));
  }
  return t;
}

/// A structured table: the union of a few random cubes, with sprinkled
/// don't-cares. Its covers stay small, so the heuristic's containment and
/// irredundant passes (quadratic in the cover) stay cheap at 12-13 inputs,
/// where a dense random table costs seconds per trial.
TruthTable cube_sum_table(std::mt19937& rng, int n) {
  const std::uint32_t space = (1u << n) - 1;
  std::vector<Cube> cubes(1 + rng() % 8);
  for (Cube& c : cubes) {
    c.mask = static_cast<std::uint32_t>(rng()) & space;
    c.value = static_cast<std::uint32_t>(rng()) & c.mask;
  }
  TruthTable t = TruthTable::from_cover(n, cubes);
  const std::uint32_t dc_pct = rng() % 20;
  for (std::uint32_t r = 0; r < t.size(); ++r) {
    if (rng() % 100 < dc_pct) t.set(r, Tri::DontCare);
  }
  return t;
}

/// Heuristic seeds other than the ON minterms: random cubes (many of them
/// already cover OFF rows) and ON minterms in shuffled order.
std::vector<Cube> custom_seed(std::mt19937& rng, const TruthTable& t) {
  const std::uint32_t space = t.size() - 1;
  std::vector<Cube> seed;
  const int k = static_cast<int>(rng() % 12);
  for (int i = 0; i < k; ++i) {
    const std::uint32_t mask = static_cast<std::uint32_t>(rng()) & space;
    seed.push_back({mask, static_cast<std::uint32_t>(rng()) & mask});
  }
  std::vector<std::uint32_t> ons = t.on_set();
  std::shuffle(ons.begin(), ons.end(), rng);
  ons.resize(std::min<std::size_t>(ons.size(), 64));
  for (const std::uint32_t r : ons) seed.push_back({space, r});
  std::shuffle(seed.begin(), seed.end(), rng);
  return seed;
}

TEST(MinimizerOracle, RandomTablesMatchExactly) {
  silc_fixtures::fuzz_seeds(
      "test_logic_oracle", "MinimizerOracle.RandomTablesMatchExactly", 1, 140,
      [](unsigned seed) {
        std::mt19937 rng(seed);
        const int n = static_cast<int>(seed % 14);
        const bool structured = n >= 12 || (seed / 14) % 2 == 1;
        const TruthTable t =
            structured ? cube_sum_table(rng, n) : random_table(rng, n);
        expect_same(prime_implicants(t), oracle::prime_implicants(t), n,
                    "prime_implicants");
        // Covering is exponential in the worst case; past 10 inputs (where
        // minimize() switches to the heuristic) the primes check suffices.
        if (n <= 10) {
          expect_same(minimize_qm(t), oracle::minimize_qm(t), n, "minimize_qm");
        }
        expect_same(minimize_heuristic(t), oracle::minimize_heuristic(t), n,
                    "minimize_heuristic");
        const std::vector<Cube> seeds = custom_seed(rng, t);
        expect_same(minimize_heuristic(t, seeds),
                    oracle::minimize_heuristic(t, seeds), n,
                    "minimize_heuristic(seed)");
        if (n <= 11) {
          MultiFunction f;
          f.num_inputs = n;
          f.outputs = {t, random_table(rng, n), random_table(rng, n)};
          expect_same(minimize_multi(f), oracle::minimize_multi(f),
                      "minimize_multi");
          expect_same(minimize_multi(f, true), oracle::minimize_multi(f, true),
                      "minimize_multi(heuristic)");
        }
      });
}

/// The expand's word-wide OFF test and its trail of earlier seeds' steps,
/// at the table widths where the OFF bitset is a partial word (5 inputs),
/// one word (6), two words (7) and 128 words (13). Each seed list holds ON
/// minterms, duplicates and cubes that already have free bits (some of
/// them covering OFF rows), and runs ascending, descending and shuffled:
/// the trail must give the oracle's cover whatever the seed order.
TEST(MinimizerOracle, ExpandReuseMatchesAcrossSeedOrders) {
  silc_fixtures::fuzz_seeds(
      "test_logic_oracle", "MinimizerOracle.ExpandReuseMatchesAcrossSeedOrders",
      1, 24, [](unsigned seed) {
        std::mt19937 rng(seed);
        constexpr int kWidths[] = {5, 6, 7, 13};
        const int n = kWidths[seed % 4];
        const TruthTable t = n == 13 || rng() % 2 == 0 ? cube_sum_table(rng, n)
                                                       : random_table(rng, n);
        const std::uint32_t space = t.size() - 1;
        // A run of consecutive ON minterms, so neighbours share most of
        // their expand steps; at 13 inputs a window keeps the oracle cheap.
        const std::vector<std::uint32_t> ons = t.on_set();
        const std::size_t take = std::min<std::size_t>(ons.size(), 256);
        const std::size_t from = ons.size() == take ? 0 : rng() % (ons.size() - take);
        std::vector<Cube> seeds;
        for (std::size_t i = from; i < from + take; ++i) {
          seeds.push_back({space, ons[i]});
        }
        const std::size_t minterms = seeds.size();
        for (std::size_t i = 0; i < minterms / 4 + 4; ++i) {
          Cube c{space, static_cast<std::uint32_t>(rng()) & space};
          if (minterms > 0 && rng() % 2 == 0) c = seeds[rng() % minterms];
          const std::uint32_t freed = static_cast<std::uint32_t>(rng()) & space;
          seeds.push_back({c.mask & ~freed, c.value & ~freed});
        }
        for (std::size_t i = 0; i < minterms / 8 + 2 && !seeds.empty(); ++i) {
          seeds.push_back(seeds[rng() % seeds.size()]);
        }
        std::sort(seeds.begin(), seeds.end());
        expect_same(minimize_heuristic(t, seeds), oracle::minimize_heuristic(t, seeds),
                    n, "minimize_heuristic(ascending seeds)");
        std::reverse(seeds.begin(), seeds.end());
        expect_same(minimize_heuristic(t, seeds), oracle::minimize_heuristic(t, seeds),
                    n, "minimize_heuristic(descending seeds)");
        std::shuffle(seeds.begin(), seeds.end(), rng);
        expect_same(minimize_heuristic(t, seeds), oracle::minimize_heuristic(t, seeds),
                    n, "minimize_heuristic(shuffled seeds)");
      });
}

/// What pla::generate minimizes for each cold_ladder design: the
/// complement of every output of its tabulated FSM.
TEST(MinimizerOracle, LadderDesignsMatchExactly) {
  using silc_fixtures::counter_source;
  const std::vector<std::string> sources = {
      silc_fixtures::kGray2Source, counter_source(3),
      silc_fixtures::kTrafficSource, counter_source(6), counter_source(8),
      counter_source(10), counter_source(12)};
  for (const std::string& src : sources) {
    const MultiFunction f =
        pla::complement(synth::tabulate(rtl::parse(src)).function);
    SCOPED_TRACE(src);
    expect_same(minimize_multi(f), oracle::minimize_multi(f), "minimize_multi");
    // Past 10 inputs minimize_multi already ran the heuristic on every
    // table, and the oracle's set-based QM takes seconds per table.
    if (f.num_inputs > 10) continue;
    for (const TruthTable& t : f.outputs) {
      expect_same(prime_implicants(t), oracle::prime_implicants(t),
                  f.num_inputs, "prime_implicants");
      expect_same(minimize_heuristic(t), oracle::minimize_heuristic(t),
                  f.num_inputs, "minimize_heuristic");
    }
  }
}

}  // namespace
}  // namespace silc::logic
