// Test-only oracle for sim::check_pla: the Shannon-cofactor equivalence
// prover that was the pla-check stage's engine before it enumerated the
// table, kept so the enumeration can be checked against an independent
// method (tests/test_pla_check.cpp) and so its own algebra stays tested
// (the Equiv.* cases in tests/test_logic.cpp).
//
// The PLA personality and the tabulated FSM are both covers over the same
// Cube algebra, so "does the programmed chip compute the spec?" reduces to
// two containment questions per output bit:
//   * no cube of the cover reaches into the function's off-set, and
//   * every on-set minterm is covered.
// Both are answered by cofactor tautology checking, the classic espresso
// primitive: a cover contains a cube iff the cover cofactored against
// that cube is a tautology. Don't-care rows constrain nothing, so a cover
// is free to go either way on them. The witness it returns is some
// disagreeing minterm, not necessarily the lowest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "logic/logic.hpp"
#include "synth/synth.hpp"

namespace silc_fixtures::equiv_oracle {

using silc::logic::Cube;
using silc::logic::PlaTerms;
using silc::logic::Tri;
using silc::logic::TruthTable;

/// Verdict of a cover-vs-function equivalence query. When `equal` is
/// false, `counterexample` is a concrete minterm where they disagree:
/// the function's care value there is `expected`, the cover evaluates to
/// `got`.
struct EquivVerdict {
  bool equal = true;
  std::uint32_t counterexample = 0;
  bool expected = false;  // f(counterexample), a care row
  bool got = false;       // cover(counterexample)
};

namespace detail {

/// Shannon-cofactor tautology over the subspace reached by `assigned`
/// (value bits of the variables fixed so far). Cubes in `cover` have had
/// the assigned variables cofactored out of their masks already. Writes an
/// uncovered minterm (free variables zero) to `*cex` on failure.
inline bool taut_rec(const std::vector<Cube>& cover, std::uint32_t assigned,
                     std::uint32_t* cex) {
  std::uint32_t bound = 0;
  for (const Cube& c : cover) {
    if (c.mask == 0) return true;  // covers the whole subspace
    bound |= c.mask;
  }
  if (cover.empty()) {
    // Nothing covers this subspace: any completion is a counterexample.
    if (cex != nullptr) *cex = assigned;
    return false;
  }
  // Branch on the most-bound variable: splitting where cubes actually
  // constrain shrinks both cofactors fastest (the espresso heuristic).
  int var = -1, best = -1;
  for (std::uint32_t m = bound; m != 0; m &= m - 1) {
    const int v = __builtin_ctz(m);
    int count = 0;
    for (const Cube& c : cover) count += (c.mask >> v) & 1;
    if (count > best) {
      best = count;
      var = v;
    }
  }
  const std::uint32_t bit = 1u << var;
  for (const std::uint32_t polarity : {0u, bit}) {
    std::vector<Cube> cof;
    cof.reserve(cover.size());
    for (const Cube& c : cover) {
      if ((c.mask & bit) != 0 && (c.value & bit) != polarity) continue;
      cof.push_back({c.mask & ~bit, c.value & ~bit});
    }
    if (!taut_rec(cof, assigned | polarity, cex)) return false;
  }
  return true;
}

/// Append one cube per maximal aligned subspace of rows [lo, lo+len) that
/// lies entirely in the target set. Returns 0 = none in set, 1 = all in
/// set (caller may merge upward, nothing emitted yet), 2 = mixed.
inline int cover_rec(const TruthTable& f, Tri which, std::uint32_t lo,
                     std::uint32_t len, std::vector<Cube>& out) {
  if (len == 1) return f.get(lo) == which ? 1 : 0;
  const std::uint32_t half = len / 2;
  const int a = cover_rec(f, which, lo, half, out);
  const int b = cover_rec(f, which, lo + half, half, out);
  if (a == 1 && b == 1) return 1;
  const std::uint32_t space = f.size() - 1;
  if (a == 1) out.push_back({~(half - 1) & space, lo});
  if (b == 1) out.push_back({~(half - 1) & space, lo + half});
  return (a == 0 && b == 0) ? 0 : 2;
}

}  // namespace detail

/// True when `cover` evaluates to 1 on every minterm of `cube` (the
/// containment primitive: cofactor + tautology). On failure, an uncovered
/// minterm inside `cube` is written to `*counterexample` when non-null.
inline bool cube_covered(int num_inputs, const Cube& cube,
                         const std::vector<Cube>& cover,
                         std::uint32_t* counterexample = nullptr) {
  if (num_inputs < 0 || num_inputs > 32) {
    throw std::invalid_argument("cube_covered: bad variable count");
  }
  // Cofactor the cover against the cube: drop cubes that conflict with a
  // fixed literal, free the cube's variables in the rest.
  std::vector<Cube> cof;
  cof.reserve(cover.size());
  for (const Cube& c : cover) {
    if (((c.value ^ cube.value) & c.mask & cube.mask) != 0) continue;
    cof.push_back({c.mask & ~cube.mask, c.value & ~cube.mask});
  }
  std::uint32_t free_cex = 0;
  if (detail::taut_rec(cof, 0,
                       counterexample == nullptr ? nullptr : &free_cex)) {
    return true;
  }
  if (counterexample != nullptr) {
    *counterexample = (free_cex & ~cube.mask) | cube.value;
  }
  return false;
}

/// True when `cover` covers every minterm of the n-variable space.
inline bool is_tautology(int num_inputs, const std::vector<Cube>& cover,
                         std::uint32_t* counterexample = nullptr) {
  return cube_covered(num_inputs, Cube{0, 0}, cover, counterexample);
}

/// Exact disjoint cover of the rows where `f.get(row) == which`, built by
/// recursive subspace merging (maximal aligned half-spaces become single
/// cubes). Not minimal — cheap, deterministic, and exact, which is what
/// the equivalence proof wants.
inline std::vector<Cube> exact_cover(const TruthTable& f, Tri which) {
  std::vector<Cube> out;
  if (detail::cover_rec(f, which, 0, f.size(), out) == 1) {
    out.push_back({0, 0});  // the whole space is one cube
  }
  return out;
}

/// Prove `cover` equal to `f` on every care row (don't-cares are free).
/// Counterpart of TruthTable::implemented_by that returns a witness
/// minterm instead of a bare bool.
inline EquivVerdict check_cover_equiv(const TruthTable& f,
                                      const std::vector<Cube>& cover) {
  EquivVerdict v;
  const int n = f.num_inputs();
  // Direction 1: the cover must stay out of the off-set — every cube must
  // be contained in on ∪ dc. A violation minterm is one the cover asserts
  // but the function forbids.
  std::vector<Cube> on_or_dc = exact_cover(f, Tri::One);
  {
    const std::vector<Cube> dc = exact_cover(f, Tri::DontCare);
    on_or_dc.insert(on_or_dc.end(), dc.begin(), dc.end());
  }
  for (const Cube& c : cover) {
    std::uint32_t m = 0;
    if (!cube_covered(n, c, on_or_dc, &m)) {
      v.equal = false;
      v.counterexample = m;
      v.expected = false;  // f says 0 there
      v.got = true;        // the cube asserts 1
      return v;
    }
  }
  // Direction 2: every on-set minterm must be covered.
  for (const Cube& o : exact_cover(f, Tri::One)) {
    std::uint32_t m = 0;
    if (!cube_covered(n, o, cover, &m)) {
      v.equal = false;
      v.counterexample = m;
      v.expected = true;  // f says 1 there
      v.got = false;      // no cube reaches it
      return v;
    }
  }
  return v;
}

/// NOR planes program the complement cover, so the spec each output's
/// cubes must equal is the complemented table (don't-cares stay free).
inline TruthTable complement_table(const TruthTable& f) {
  return TruthTable::from_tri_function(f.num_inputs(), [&f](std::uint32_t m) {
    switch (f.get(m)) {
      case Tri::One: return Tri::Zero;
      case Tri::Zero: return Tri::One;
      default: return Tri::DontCare;
    }
  });
}

/// The cofactor engine's pla-check verdict: per output bit, the
/// programmed complement cover against the complemented table. `output`
/// is the first output that fails; its verdict is on the complement
/// plane.
struct PlaVerdict {
  bool equal = true;
  std::size_t output = 0;
  EquivVerdict plane;
};

inline PlaVerdict check_pla_symbolic(const silc::synth::TabulatedFsm& fsm,
                                     const PlaTerms& personality) {
  PlaVerdict r;
  for (std::size_t k = 0; k < fsm.function.outputs.size(); ++k) {
    std::vector<Cube> cover;
    for (const int t : personality.output_terms[k]) {
      cover.push_back(personality.terms[static_cast<std::size_t>(t)]);
    }
    r.plane = check_cover_equiv(complement_table(fsm.function.outputs[k]),
                                cover);
    if (!r.plane.equal) {
      r.equal = false;
      r.output = k;
      return r;
    }
  }
  return r;
}

}  // namespace silc_fixtures::equiv_oracle
