// The pla-check engine (sim::check_pla, exhaustive mode) against its
// oracles. The check compares the programmed NOR-NOR personality with the
// tabulated FSM on every minterm, so:
//
//   * every committed behavioral design that tabulates proves with the
//     personality the compiler programs, and both oracles agree: the
//     cofactor prover (fixtures/equiv_oracle.hpp) and the sampled replay;
//   * a seeded tamper of the personality — a flipped literal, a term
//     dropped from or added to an output column, an unconstrained input
//     column of a term pinned — fails exactly when the planes and the
//     table differ on a care row, and the witness is the lowest such
//     minterm, first output on ties, re-judged here with
//     PlaTerms::evaluate and the table; the cofactor oracle gives the
//     same verdict on every tamper;
//   * don't-care rows are never compared, the last minterm is, ties go
//     to the first output, and a table narrower than its bit names is
//     rejected.
//
// Honors fixtures/fuzz_env.hpp: SILC_FUZZ_TRIALS scales the seeded sweep,
// SILC_FUZZ_SEED reruns one failing trial.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/pipeline.hpp"
#include "design_sources.hpp"
#include "equiv_oracle.hpp"
#include "fuzz_env.hpp"
#include "logic/logic.hpp"
#include "rtl/rtl.hpp"
#include "sim/sim.hpp"
#include "synth/synth.hpp"

namespace silc::sim {
namespace {

namespace oracle = silc_fixtures::equiv_oracle;

/// One committed design with the personality the compiler programs.
struct Programmed {
  std::string name;
  rtl::Design design;
  synth::TabulatedFsm fsm;
  logic::PlaTerms personality;
};

/// Every committed behavioral design that tabulates, compiled through
/// assemble so the personality is the one the pla-check stage sees.
const std::vector<Programmed>& programmed() {
  static const std::vector<Programmed> all = [] {
    std::vector<std::pair<std::string, std::string>> srcs = {
        {"gray2", silc_fixtures::kGray2Source},
        {"traffic", silc_fixtures::kTrafficSource}};
    for (int w = 2; w <= 12; ++w) {
      srcs.emplace_back("counter" + std::to_string(w),
                        silc_fixtures::counter_source(w));
    }
    std::vector<Programmed> out;
    for (const auto& [name, text] : srcs) {
      layout::Library lib;
      core::CompileOptions o;
      o.name = name;
      o.stop_after = "assemble";
      core::DesignDB db(lib, core::Flow::Behavioral, text, o);
      if (!core::Pipeline::behavioral().run(db)) {
        ADD_FAILURE() << name << ": " << db.diags.text();
        continue;
      }
      out.push_back({name, *db.design, *db.fsm, db.assembled->personality});
    }
    return out;
  }();
  return all;
}

/// The reference judgement, from PlaTerms::evaluate and the table alone:
/// the lowest minterm where the planes' NOR disagrees with a care row,
/// and the first such output; false when they agree everywhere.
bool first_disagreement(const synth::TabulatedFsm& fsm,
                        const logic::PlaTerms& p, std::uint32_t& row,
                        std::size_t& output) {
  const std::uint32_t rows = fsm.function.outputs.front().size();
  for (std::uint32_t m = 0; m < rows; ++m) {
    for (std::size_t k = 0; k < fsm.function.outputs.size(); ++k) {
      const logic::Tri want = fsm.function.outputs[k].get(m);
      if (want == logic::Tri::DontCare) continue;
      if (!p.evaluate(static_cast<int>(k), m) != (want == logic::Tri::One)) {
        row = m;
        output = k;
        return true;
      }
    }
  }
  return false;
}

TEST(PlaProof, CommittedDesignsProveAndAgreeWithTheOracles) {
  ASSERT_EQ(programmed().size(), 13u);
  for (const Programmed& d : programmed()) {
    SCOPED_TRACE(d.name);
    const PlaCheckReport r = check_pla(d.design, d.fsm, d.personality);
    EXPECT_TRUE(r.ok) << r.detail;
    EXPECT_TRUE(r.proven);
    EXPECT_FALSE(r.error);
    EXPECT_EQ(r.mode, PlaCheckMode::Exhaustive);
    EXPECT_FALSE(r.has_counterexample);
    const std::uint64_t rows = std::uint64_t{1} << d.fsm.input_names.size();
    EXPECT_NE(r.detail.find("exhaustive proof over all " +
                            std::to_string(rows) + " minterms"),
              std::string::npos)
        << r.detail;

    EXPECT_TRUE(oracle::check_pla_symbolic(d.fsm, d.personality).equal);
    const PlaCheckReport sampled = check_pla(d.design, d.fsm, d.personality,
                                             32, 8, 1, {}, PlaCheckMode::Replay);
    EXPECT_TRUE(sampled.ok) << sampled.detail;
  }
}

enum class Tamper { FlipLiteral, DropTerm, AddTerm, PinColumn };

const char* to_string(Tamper t) {
  switch (t) {
    case Tamper::FlipLiteral: return "flipped literal";
    case Tamper::DropTerm: return "dropped term";
    case Tamper::AddTerm: return "added term";
    case Tamper::PinColumn: return "pinned column";
  }
  return "?";
}

/// Apply one seeded tamper; false when the personality offers no site
/// for it (the trial is then a no-op).
bool tamper(logic::PlaTerms& p, Tamper kind, std::mt19937& rng) {
  const std::uint32_t space =
      p.num_inputs >= 32 ? ~0u : (1u << p.num_inputs) - 1;
  const auto nth_bit = [&](std::uint32_t bits) {
    std::uint32_t pick = rng() % static_cast<std::uint32_t>(
                                     std::popcount(bits));
    for (; pick > 0; --pick) bits &= bits - 1;
    return bits & (~bits + 1u);
  };
  switch (kind) {
    case Tamper::FlipLiteral: {
      std::vector<std::size_t> bound;
      for (std::size_t t = 0; t < p.terms.size(); ++t) {
        if (p.terms[t].mask != 0) bound.push_back(t);
      }
      if (bound.empty()) return false;
      logic::Cube& c = p.terms[bound[rng() % bound.size()]];
      c.value ^= nth_bit(c.mask);
      return true;
    }
    case Tamper::DropTerm: {
      std::vector<std::size_t> used;
      for (std::size_t k = 0; k < p.output_terms.size(); ++k) {
        if (!p.output_terms[k].empty()) used.push_back(k);
      }
      if (used.empty()) return false;
      std::vector<int>& col = p.output_terms[used[rng() % used.size()]];
      col.erase(col.begin() + static_cast<std::ptrdiff_t>(rng() % col.size()));
      return true;
    }
    case Tamper::AddTerm: {
      if (p.terms.empty() || p.output_terms.empty()) return false;
      std::vector<int>& col = p.output_terms[rng() % p.output_terms.size()];
      const int t = static_cast<int>(rng() % p.terms.size());
      if (std::find(col.begin(), col.end(), t) != col.end()) return false;
      col.push_back(t);
      return true;
    }
    case Tamper::PinColumn: {
      std::vector<std::size_t> loose;
      for (std::size_t t = 0; t < p.terms.size(); ++t) {
        if ((~p.terms[t].mask & space) != 0) loose.push_back(t);
      }
      if (loose.empty()) return false;
      logic::Cube& c = p.terms[loose[rng() % loose.size()]];
      const std::uint32_t bit = nth_bit(~c.mask & space);
      c.mask |= bit;
      if ((rng() & 1u) != 0) c.value |= bit;
      return true;
    }
  }
  return false;
}

TEST(PlaProof, EveryTamperFailsWithTheLowestMintermWitness) {
  ASSERT_FALSE(programmed().empty());
  int refuted[4] = {0, 0, 0, 0};
  int proven = 0;
  silc_fixtures::fuzz_seeds(
      "test_pla_check", "PlaProof.EveryTamper*", 1, 200, [&](unsigned seed) {
        std::mt19937 rng(seed);
        const Programmed& d = programmed()[rng() % programmed().size()];
        const auto kind = static_cast<Tamper>(seed % 4);
        SCOPED_TRACE(d.name + ", " + to_string(kind));
        logic::PlaTerms bad = d.personality;
        if (!tamper(bad, kind, rng)) return;

        std::uint32_t row = 0;
        std::size_t output = 0;
        const bool differs = first_disagreement(d.fsm, bad, row, output);
        const PlaCheckReport r = check_pla(d.design, d.fsm, bad);
        EXPECT_FALSE(r.error) << r.detail;
        EXPECT_EQ(r.ok, !differs) << r.detail;
        EXPECT_EQ(oracle::check_pla_symbolic(d.fsm, bad).equal, r.ok)
            << "the cofactor oracle disagrees: " << r.detail;
        if (!differs) {
          ++proven;
          return;
        }
        ++refuted[static_cast<int>(kind)];
        ASSERT_TRUE(r.has_counterexample) << r.detail;
        EXPECT_EQ(r.counterexample, row) << r.detail;
        EXPECT_EQ(r.mismatch_signal, d.fsm.output_names[output]) << r.detail;
        EXPECT_NE(r.detail.find("pla vs table, " + d.fsm.output_names[output]),
                  std::string::npos)
            << r.detail;
      });
  // The default sweep must refute every tamper kind (a pinned single
  // seed runs one trial).
  if (!silc_fixtures::fuzz_env(0).has_seed) {
    for (int k = 0; k < 4; ++k) {
      EXPECT_GT(refuted[k], 0) << to_string(static_cast<Tamper>(k));
    }
  }
  std::printf("tampers: %d/%d/%d/%d refuted (literal/drop/add/pin), %d "
              "hidden by don't-cares or redundancy\n",
              refuted[0], refuted[1], refuted[2], refuted[3], proven);
}

/// The lowest row where output `k`'s table is One.
std::uint32_t first_one(const synth::TabulatedFsm& fsm, std::size_t k) {
  const logic::TruthTable& t = fsm.function.outputs[k];
  for (std::uint32_t m = 0; m < t.size(); ++m) {
    if (t.get(m) == logic::Tri::One) return m;
  }
  ADD_FAILURE() << "output " << k << " is never One";
  return 0;
}

void flip(logic::TruthTable& t, std::uint32_t m) {
  t.set(m, t.get(m) == logic::Tri::One ? logic::Tri::Zero : logic::Tri::One);
}

TEST(PlaProof, DontCareRowsAreNotCompared) {
  const Programmed& d = programmed()[1];  // traffic
  ASSERT_EQ(d.name, "traffic");
  synth::TabulatedFsm fsm = d.fsm;
  // A row the planes drive to 1: released to don't-care, the planes may
  // still drive it, and the check must not compare it.
  const std::uint32_t m = first_one(fsm, 1);
  flip(fsm.function.outputs[1], m);
  const PlaCheckReport bad = check_pla(d.design, fsm, d.personality);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.counterexample, m) << bad.detail;
  fsm.function.outputs[1].set(m, logic::Tri::DontCare);
  const PlaCheckReport freed = check_pla(d.design, fsm, d.personality);
  EXPECT_TRUE(freed.ok) << freed.detail;
  EXPECT_TRUE(oracle::check_pla_symbolic(fsm, d.personality).equal);
}

TEST(PlaProof, TheLastMintermIsCompared) {
  for (const Programmed& d : programmed()) {
    SCOPED_TRACE(d.name);
    synth::TabulatedFsm fsm = d.fsm;
    const std::uint32_t last = fsm.function.outputs[0].size() - 1;
    flip(fsm.function.outputs[0], last);
    const PlaCheckReport r = check_pla(d.design, fsm, d.personality);
    EXPECT_FALSE(r.ok) << r.detail;
    EXPECT_EQ(r.counterexample, last) << r.detail;
  }
}

TEST(PlaProof, TiesGoToTheFirstOutputAndLowerMintermsWin) {
  const Programmed& d = programmed().back();  // counter12
  synth::TabulatedFsm fsm = d.fsm;
  const std::size_t nouts = fsm.output_names.size();
  ASSERT_GE(nouts, 3u);
  // The same row flipped on a later and an earlier output, and a higher
  // row flipped on output 0: the witness is the row on the earlier one.
  const std::uint32_t m = first_one(fsm, nouts - 1);
  ASSERT_NE(fsm.function.outputs[1].get(m), logic::Tri::DontCare);
  flip(fsm.function.outputs[nouts - 1], m);
  flip(fsm.function.outputs[1], m);
  flip(fsm.function.outputs[0], fsm.function.outputs[0].size() - 1);
  ASSERT_LT(m, fsm.function.outputs[0].size() - 1);
  const PlaCheckReport r = check_pla(d.design, fsm, d.personality);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.counterexample, m) << r.detail;
  EXPECT_EQ(r.mismatch_signal, fsm.output_names[1]) << r.detail;
}

TEST(PlaProof, RejectsATableNarrowerThanItsBitNames) {
  const Programmed& d = programmed()[0];  // gray2
  synth::TabulatedFsm fsm = d.fsm;
  fsm.function.outputs[0] = logic::TruthTable(fsm.function.num_inputs - 1);
  const PlaCheckReport r = check_pla(d.design, fsm, d.personality);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error) << r.detail;
  EXPECT_NE(r.detail.find("shape mismatch"), std::string::npos) << r.detail;
}

TEST(PlaProof, PollsTheAmbientToken) {
  const Programmed& d = programmed().back();
  core::CancelToken token;
  token.cancel();
  const core::CancelScope scope(&token);
  try {
    (void)check_pla(d.design, d.fsm, d.personality);
    FAIL() << "check_pla ignored a cancelled token";
  } catch (const core::Cancelled& c) {
    EXPECT_NE(std::string(c.what()).find("sim.pla.prove"), std::string::npos)
        << c.what();
  }
}

}  // namespace
}  // namespace silc::sim
