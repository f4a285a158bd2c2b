// Two-level boolean logic: truth tables, cubes, covers, and minimization.
//
// PLAs are "regular blocks ... programmed for specific functions" (the
// paper's microscopic silicon compilation); what gets programmed is a
// minimized sum-of-products cover. This module provides:
//   * TruthTable  - explicit function representation (with don't-cares)
//   * Cube        - a product term as (mask, value) bit pairs
//   * prime_implicants - every prime of ON + DC, from a dense ternary
//                   table over all 3^n cubes: cube t is an implicant when
//                   both halves on one free variable are, and a prime when
//                   no single-literal widening is still an implicant
//   * minimize_qm - a cover from those primes: essentials, then branch-and-bound
//                   unate covering (minimum cover for small charts, greedy
//                   completion for large ones)
//   * minimize_heuristic - espresso-flavored expand / containment /
//                   irredundant pass for wide functions; expand asks "does
//                   the widened cube hit the OFF-set?" of an OFF bitset one
//                   64-row word at a time (a 64-bit pattern for the bound
//                   low six variables, one word per subset of the free high
//                   ones), and a trail of the previous seeds' steps lets a
//                   seed that reaches a cube some earlier seed entered the
//                   same step with take that seed's result
//   * minimize_multi - multi-output minimization with product-term sharing,
//                   the form a PLA personality wants
//
// Exact-output contract: every entry point returns the same cubes in the
// same order as the original set-based Quine-McCluskey and OFF-set-scan
// expand, kept as the test oracle in fixtures/logic_oracle.hpp and fuzzed
// against it by tests/test_logic_oracle.cpp. The order is part of the
// result: cover selection picks among primes in Quine-McCluskey order
// (ascending free-variable count, then Cube order), the heuristic's
// std::sort is unstable so where its ties land depends on input order, and
// minimize_multi numbers shared terms by first use — so a reordering
// changes the PLA.
//
// Memory: prime_implicants (and so minimize_qm) allocates one byte per
// ternary cube, 3^n bytes: 59 KB at the 10 inputs minimize() sends it,
// 1.6 MB at 13, 3.5 GB at 20. Direct callers with wide tables should use
// minimize_heuristic, whose OFF and ON bitsets are 2^n bits each, plus one
// pair of cubes per input for its trail.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace silc::logic {

/// A product term over n variables. Bit i of `mask` set means variable i is
/// specified; `value` holds its polarity (bits outside mask are zero).
struct Cube {
  std::uint32_t mask = 0;
  std::uint32_t value = 0;

  [[nodiscard]] bool covers(std::uint32_t minterm) const {
    return (minterm & mask) == value;
  }
  /// True when this cube's minterm set contains the other's.
  [[nodiscard]] bool contains(const Cube& o) const {
    return (o.mask & mask) == mask && (o.value & mask) == value;
  }
  [[nodiscard]] int literal_count() const { return __builtin_popcount(mask); }
  /// "1-0-" style text, variable 0 leftmost.
  [[nodiscard]] std::string to_string(int num_inputs) const;

  friend bool operator==(const Cube& a, const Cube& b) = default;
  friend auto operator<=>(const Cube& a, const Cube& b) = default;
};

enum class Tri : std::uint8_t { Zero, One, DontCare };

/// Explicit truth table, up to 20 inputs (2^20 rows).
class TruthTable {
 public:
  explicit TruthTable(int num_inputs);
  [[nodiscard]] static TruthTable from_function(
      int num_inputs, const std::function<bool(std::uint32_t)>& f);
  /// Rows where `f` returns Tri::DontCare join the DC-set.
  [[nodiscard]] static TruthTable from_tri_function(
      int num_inputs, const std::function<Tri(std::uint32_t)>& f);
  /// Build from a cover (rows covered by any cube are 1).
  [[nodiscard]] static TruthTable from_cover(int num_inputs,
                                             const std::vector<Cube>& cover);

  [[nodiscard]] int num_inputs() const { return n_; }
  [[nodiscard]] std::uint32_t size() const { return 1u << n_; }
  [[nodiscard]] Tri get(std::uint32_t row) const {
    return static_cast<Tri>(rows_[row]);
  }
  void set(std::uint32_t row, Tri v);

  [[nodiscard]] std::vector<std::uint32_t> on_set() const;
  [[nodiscard]] std::vector<std::uint32_t> off_set() const;
  [[nodiscard]] std::size_t on_count() const;

  /// True when the cover equals this function on every care row.
  [[nodiscard]] bool implemented_by(const std::vector<Cube>& cover) const;

 private:
  int n_;
  std::vector<std::uint8_t> rows_;
};

/// All prime implicants of on-set plus dc-set, in Quine-McCluskey order:
/// ascending free-variable count, then Cube order. Needs 3^n bytes.
[[nodiscard]] std::vector<Cube> prime_implicants(const TruthTable& f);

/// Prime-implicant minimization. Minimum-cardinality cover when the
/// covering problem is small enough for branch-and-bound (<= `bnb_limit`
/// primes), essential+greedy completion otherwise.
[[nodiscard]] std::vector<Cube> minimize_qm(const TruthTable& f,
                                            int bnb_limit = 26);

/// Espresso-flavored heuristic: seed with on-set rows (or a given cover),
/// expand each cube literal by literal in variable order while it stays
/// off the off-set, then drop contained and redundant cubes. Seed cubes
/// must lie within the table's inputs (mask and value below size()).
[[nodiscard]] std::vector<Cube> minimize_heuristic(const TruthTable& f);
[[nodiscard]] std::vector<Cube> minimize_heuristic(const TruthTable& f,
                                                   std::vector<Cube> seed);

/// Auto-select: QM up to 10 inputs, the heuristic past that.
[[nodiscard]] std::vector<Cube> minimize(const TruthTable& f);

// ---- multi-output ----

struct MultiFunction {
  int num_inputs = 0;
  std::vector<TruthTable> outputs;
};

/// A PLA personality: shared product terms and, per output, which terms
/// feed its OR column.
struct PlaTerms {
  int num_inputs = 0;
  std::vector<Cube> terms;
  std::vector<std::vector<int>> output_terms;  // [output] -> term indices

  [[nodiscard]] std::size_t term_count() const { return terms.size(); }
  /// True when some term selected by `output` covers `minterm`. No early
  /// exit: which term covers is data-dependent, and a mispredicted branch
  /// per term costs more than the few compares left (pla-check calls this
  /// for every minterm of every output).
  [[nodiscard]] bool evaluate(int output, std::uint32_t minterm) const {
    bool hit = false;
    for (const int t : output_terms[static_cast<std::size_t>(output)]) {
      hit |= terms[static_cast<std::size_t>(t)].covers(minterm);
    }
    return hit;
  }
};

/// Minimize every output and share identical product terms.
[[nodiscard]] PlaTerms minimize_multi(const MultiFunction& f,
                                      bool use_heuristic = false);

}  // namespace silc::logic
