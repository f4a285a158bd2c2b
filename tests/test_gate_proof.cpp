// The gate-check proof (sim::prove_gates) against its oracles. The proof
// drives every minterm of the tabulated FSM through the compiled gates, so
// it must be strictly stronger than the sampled crosscheck it replaced:
//
//   * every committed behavioral design that tabulates proves, over both
//     word backends, and sim::crosscheck (the sampled oracle) agrees with
//     it;
//   * one flipped table bit always fails, and the witness is that bit's
//     signal and minterm;
//   * a single-operator mutant of a design's RTL, proven against the
//     ORIGINAL design's table, fails exactly when the two tables differ,
//     its counterexample is the lowest row where they do, and whenever a
//     sampled run of the mutant's gates against the original's behavior
//     diverges the proof has failed too.
//
// Honors fixtures/fuzz_env.hpp: SILC_FUZZ_TRIALS scales the seeded sweeps,
// SILC_FUZZ_SEED reruns one failing trial.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "design_sources.hpp"
#include "fuzz_env.hpp"
#include "rtl/rtl.hpp"
#include "sim/sim.hpp"
#include "synth/synth.hpp"

namespace silc::sim {
namespace {

struct Source {
  std::string name;
  std::string text;
};

/// Every committed behavioral design that tabulates (<= 16 minterm bits).
std::vector<Source> designs() {
  std::vector<Source> out = {{"gray2", silc_fixtures::kGray2Source},
                             {"traffic", silc_fixtures::kTrafficSource}};
  for (int w = 2; w <= 12; ++w) {
    out.push_back({"counter" + std::to_string(w),
                   silc_fixtures::counter_source(w)});
  }
  return out;
}

/// The lowest minterm where the two tables differ on some output, and the
/// first such output; false when they are equal.
bool first_difference(const synth::TabulatedFsm& a,
                      const synth::TabulatedFsm& b, std::uint32_t& row,
                      std::size_t& output) {
  const std::uint32_t rows = a.function.outputs.front().size();
  for (std::uint32_t m = 0; m < rows; ++m) {
    for (std::size_t k = 0; k < a.function.outputs.size(); ++k) {
      if (a.function.outputs[k].get(m) != b.function.outputs[k].get(m)) {
        row = m;
        output = k;
        return true;
      }
    }
  }
  return false;
}

TEST(GateProof, CommittedDesignsProveAndAgreeWithTheSampledOracle) {
  for (const Source& d : designs()) {
    SCOPED_TRACE(d.name);
    const rtl::Design design = rtl::parse(d.text);
    const synth::TabulatedFsm fsm = synth::tabulate(design);
    const int n = static_cast<int>(fsm.input_names.size());

    for (const WordKind word : {WordKind::U64, WordKind::V512}) {
      SimConfig sc;
      sc.word = word;
      const GateProofReport r = prove_gates(design, fsm, sc);
      EXPECT_TRUE(r.ok) << to_string(word) << ": " << r.detail;
      EXPECT_EQ(r.minterms, std::uint64_t{1} << n);
      EXPECT_TRUE(r.mismatch_signal.empty()) << r.mismatch_signal;
      EXPECT_NE(r.detail.find("exhaustive proof over all " +
                              std::to_string(r.minterms) + " minterms"),
                std::string::npos)
          << r.detail;
    }
    CrosscheckOptions co;
    co.cycles = 64;
    co.lanes = core::CompileOptions::gate_verify_lanes;
    co.switch_cycles = 0;
    const CrosscheckReport oracle = crosscheck(design, co);
    EXPECT_TRUE(oracle.ok) << oracle.detail;
  }
}

TEST(GateProof, DontCareRowsAreNotCompared) {
  const rtl::Design design = rtl::parse(silc_fixtures::kTrafficSource);
  synth::TabulatedFsm fsm = synth::tabulate(design);
  // Flip one row, then release it to don't-care: the proof passes again.
  logic::TruthTable& t = fsm.function.outputs[1];
  t.set(5, t.get(5) == logic::Tri::One ? logic::Tri::Zero : logic::Tri::One);
  EXPECT_FALSE(prove_gates(design, fsm).ok);
  t.set(5, logic::Tri::DontCare);
  EXPECT_TRUE(prove_gates(design, fsm).ok);
}

TEST(GateProof, RejectsATableOfAnotherMachine) {
  const rtl::Design gray2 = rtl::parse(silc_fixtures::kGray2Source);
  const rtl::Design traffic = rtl::parse(silc_fixtures::kTrafficSource);
  EXPECT_THROW((void)prove_gates(gray2, synth::tabulate(traffic)),
               std::runtime_error);
  // Same bit names, but the table claims a register is an input.
  synth::TabulatedFsm shifted = synth::tabulate(gray2);
  shifted.state_bits = 1;
  EXPECT_THROW((void)prove_gates(gray2, shifted), std::runtime_error);
}

TEST(GateProof, EveryTableTamperFailsWithTheFlippedBitAsWitness) {
  std::vector<rtl::Design> parsed;
  std::vector<synth::TabulatedFsm> tables;
  for (const Source& d : designs()) {
    parsed.push_back(rtl::parse(d.text));
    tables.push_back(synth::tabulate(parsed.back()));
  }
  silc_fixtures::fuzz_seeds(
      "test_gate_proof", "GateProof.EveryTableTamper*", 1, 200,
      [&](unsigned seed) {
        std::mt19937 rng(seed);
        const std::size_t i = rng() % parsed.size();
        synth::TabulatedFsm fsm = tables[i];
        const std::size_t k = rng() % fsm.output_names.size();
        const std::uint32_t m =
            rng() % fsm.function.outputs[k].size();
        logic::TruthTable& t = fsm.function.outputs[k];
        t.set(m, t.get(m) == logic::Tri::One ? logic::Tri::Zero
                                             : logic::Tri::One);
        SimConfig sc;
        sc.word = rng() % 2 == 0 ? WordKind::U64 : WordKind::V512;
        const GateProofReport r = prove_gates(parsed[i], fsm, sc);
        EXPECT_FALSE(r.ok) << parsed[i].name << ": " << r.detail;
        EXPECT_EQ(r.mismatch_signal, fsm.output_names[k]) << r.detail;
        EXPECT_EQ(r.counterexample, m) << r.detail;
        EXPECT_NE(r.detail.find(fsm.output_names[k]), std::string::npos)
            << r.detail;
      });
}

/// One operator token of a source: where it starts and how long it is.
struct OpSite {
  std::size_t at;
  std::size_t len;
};

std::vector<OpSite> operator_sites(const std::string& src) {
  static const char* const kTokens[] = {"==", "!=", "<=", ">=", "<<", ">>",
                                        "+",  "-",  "^",  "&",  "|",  "<",
                                        ">",  "~"};
  std::vector<OpSite> sites;
  for (std::size_t i = 0; i < src.size();) {
    std::size_t len = 0;
    for (const char* tok : kTokens) {
      if (src.compare(i, std::char_traits<char>::length(tok), tok) == 0) {
        len = std::char_traits<char>::length(tok);
        break;
      }
    }
    if (len == 0) {
      ++i;
      continue;
    }
    sites.push_back({i, len});
    i += len;
  }
  return sites;
}

struct Mutant {
  std::size_t design;  // index into designs()
  std::string text;
  rtl::Design parsed;
  synth::TabulatedFsm fsm;
};

/// Every single-operator mutant of every design: each operator token
/// replaced by each other binary operator, or deleted. Kept only when it
/// still parses, tabulates, and has the original's table bits.
std::vector<Mutant> all_mutants(const std::vector<Source>& srcs,
                                const std::vector<synth::TabulatedFsm>& fsms) {
  static const char* const kReplacements[] = {
      "+", "-", "^", "&", "|", "==", "!=", "<", "<=", ">", ">=", ""};
  std::vector<Mutant> out;
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    for (const OpSite& site : operator_sites(srcs[i].text)) {
      for (const char* repl : kReplacements) {
        std::string text = srcs[i].text;
        if (text.compare(site.at, site.len, repl) == 0) continue;
        text.replace(site.at, site.len, repl);
        Mutant m{i, text, {}, {}};
        try {
          m.parsed = rtl::parse(text);
          m.fsm = synth::tabulate(m.parsed);
        } catch (const std::exception&) {
          continue;
        }
        if (m.fsm.input_names == fsms[i].input_names &&
            m.fsm.output_names == fsms[i].output_names &&
            m.fsm.state_bits == fsms[i].state_bits) {
          out.push_back(std::move(m));
        }
      }
    }
  }
  return out;
}

TEST(GateProof, MutantsFailExactlyWhenTheirTablesDiffer) {
  const std::vector<Source> srcs = designs();
  std::vector<rtl::Design> originals;
  std::vector<synth::TabulatedFsm> fsms;
  for (const Source& d : srcs) {
    originals.push_back(rtl::parse(d.text));
    fsms.push_back(synth::tabulate(originals.back()));
  }
  const std::vector<Mutant> mutants = all_mutants(srcs, fsms);
  ASSERT_FALSE(mutants.empty());

  // Seed s checks mutant s % count with stimulus seeded by s: the default
  // sweep visits every mutant once, SILC_FUZZ_TRIALS revisits them under
  // fresh stimulus, SILC_FUZZ_SEED reruns one.
  int proven = 0, refuted = 0, sample_caught = 0;
  silc_fixtures::fuzz_seeds(
      "test_gate_proof", "GateProof.Mutants*", 0,
      static_cast<int>(mutants.size()), [&](unsigned seed) {
        const Mutant& mu = mutants[seed % mutants.size()];
        const rtl::Design& original = originals[mu.design];
        const synth::TabulatedFsm& fsm = fsms[mu.design];
        SCOPED_TRACE(srcs[mu.design].name + " mutant: " + mu.text);

        std::uint32_t row = 0;
        std::size_t output = 0;
        const bool differs = first_difference(fsm, mu.fsm, row, output);
        const GateProofReport r = prove_gates(mu.parsed, fsm);
        EXPECT_EQ(r.ok, !differs) << r.detail;
        if (differs) {
          ++refuted;
          EXPECT_EQ(r.counterexample, row) << r.detail;
          EXPECT_EQ(r.mismatch_signal, fsm.output_names[output]) << r.detail;
        } else {
          ++proven;
        }

        // The sample is weaker than the proof: a seeded run of the
        // mutant's gates against the original's behavior never finds a
        // divergence the proof missed.
        std::vector<Trace> stimuli;
        for (unsigned l = 0; l < 8; ++l) {
          stimuli.push_back(random_stimulus(original, 32, seed * 8 + l));
        }
        CompiledSim gates(mu.parsed);
        const std::vector<Trace> got = gates.run(stimuli);
        for (std::size_t l = 0; l < stimuli.size(); ++l) {
          rtl::BehavioralSim b(original);
          Trace want;
          for (const Vector& in : stimuli[l]) {
            for (const auto& [name, value] : in) b.set(name, value);
            b.tick();
            Vector out;
            for (const rtl::Signal* o :
                 original.of_kind(rtl::SignalKind::Output)) {
              out[o->name] = b.get(o->name);
            }
            want.push_back(std::move(out));
          }
          if (!diff_traces(want, got[l]).identical) {
            ++sample_caught;
            EXPECT_FALSE(r.ok) << "the sample caught a mutant the proof passed";
            break;
          }
        }
      });
  // The default sweep must exercise both verdicts (a pinned single seed
  // visits one mutant).
  if (!silc_fixtures::fuzz_env(0).has_seed) {
    EXPECT_GT(refuted, 0);
    EXPECT_GT(proven, 0);
  }
  std::printf("%zu mutants: %d refuted (%d also caught by the sample), %d "
              "proven equivalent\n",
              mutants.size(), refuted, sample_caught, proven);
}

}  // namespace
}  // namespace silc::sim
