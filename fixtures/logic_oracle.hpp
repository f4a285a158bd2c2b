// Test-only oracle for src/logic's two-level minimizer: the original
// set-based Quine-McCluskey prime generation and the OFF-set-scan expand,
// kept verbatim so the table-driven production kernels can be checked
// against them (tests/test_logic_oracle.cpp). The production contract is
// that every entry point returns the same vector, in the same order, as
// its counterpart here. The covering, containment and irredundant steps
// are copied unchanged so that each oracle entry point stands alone.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "logic/logic.hpp"

namespace silc_fixtures::logic_oracle {

using silc::logic::Cube;
using silc::logic::MultiFunction;
using silc::logic::PlaTerms;
using silc::logic::Tri;
using silc::logic::TruthTable;

/// Level-by-level QM: combine same-mask cubes differing in one literal;
/// cubes that never combine are prime.
inline std::vector<Cube> prime_implicants(const TruthTable& f) {
  const std::uint32_t full_mask = f.size() - 1;
  std::set<Cube> current;
  for (std::uint32_t r = 0; r < f.size(); ++r) {
    if (f.get(r) != Tri::Zero) current.insert({full_mask, r});
  }
  std::vector<Cube> primes;
  while (!current.empty()) {
    std::set<Cube> next;
    std::set<Cube> combined;
    std::map<std::uint32_t, std::vector<Cube>> by_mask;
    for (const Cube& c : current) by_mask[c.mask].push_back(c);
    for (const auto& [mask, cubes] : by_mask) {
      std::set<Cube> in_group(cubes.begin(), cubes.end());
      for (const Cube& c : cubes) {
        for (int b = 0; b < f.num_inputs(); ++b) {
          const std::uint32_t bit = 1u << b;
          if ((mask & bit) == 0 || (c.value & bit) == 0) continue;
          const Cube partner{mask, c.value ^ bit};
          if (in_group.count(partner) != 0) {
            next.insert({mask & ~bit, c.value & ~bit});
            combined.insert(c);
            combined.insert(partner);
          }
        }
      }
    }
    for (const Cube& c : current) {
      if (combined.count(c) == 0) primes.push_back(c);
    }
    current = std::move(next);
  }
  return primes;
}

namespace detail {

struct CoverSolver {
  const std::vector<std::vector<int>>& row_cols;
  std::vector<int> best;
  bool have_best = false;
  long long budget = 200000;

  void solve(std::vector<int>& chosen, std::vector<std::uint8_t>& row_done,
             std::size_t rows_left) {
    if (budget-- <= 0) return;
    if (have_best && chosen.size() + 1 >= best.size() && rows_left > 0) return;
    if (rows_left == 0) {
      if (!have_best || chosen.size() < best.size()) {
        best = chosen;
        have_best = true;
      }
      return;
    }
    int pick = -1;
    std::size_t fewest = SIZE_MAX;
    for (std::size_t r = 0; r < row_cols.size(); ++r) {
      if (row_done[r] != 0) continue;
      if (row_cols[r].size() < fewest) {
        fewest = row_cols[r].size();
        pick = static_cast<int>(r);
      }
    }
    for (const int col : row_cols[static_cast<std::size_t>(pick)]) {
      std::vector<std::size_t> newly;
      for (std::size_t r = 0; r < row_cols.size(); ++r) {
        if (row_done[r] != 0) continue;
        for (const int c2 : row_cols[r]) {
          if (c2 == col) {
            row_done[r] = 1;
            newly.push_back(r);
            break;
          }
        }
      }
      chosen.push_back(col);
      solve(chosen, row_done, rows_left - newly.size());
      chosen.pop_back();
      for (const std::size_t r : newly) row_done[r] = 0;
    }
  }
};

inline std::vector<Cube> cover_select(const TruthTable& f,
                                      std::vector<Cube> primes, int bnb_limit) {
  std::vector<std::uint32_t> ons = f.on_set();
  std::vector<Cube> chosen;
  bool changed = true;
  while (changed && !ons.empty()) {
    changed = false;
    for (const std::uint32_t m : ons) {
      int only = -1;
      int count = 0;
      for (std::size_t p = 0; p < primes.size(); ++p) {
        if (primes[p].covers(m)) {
          ++count;
          only = static_cast<int>(p);
          if (count > 1) break;
        }
      }
      if (count == 1) {
        const Cube c = primes[static_cast<std::size_t>(only)];
        chosen.push_back(c);
        std::erase_if(ons, [&c](std::uint32_t r) { return c.covers(r); });
        primes.erase(primes.begin() + only);
        changed = true;
        break;
      }
    }
  }
  std::erase_if(primes, [&ons](const Cube& c) {
    return std::none_of(ons.begin(), ons.end(),
                        [&c](std::uint32_t r) { return c.covers(r); });
  });
  if (!ons.empty() && static_cast<int>(primes.size()) <= bnb_limit) {
    std::vector<std::vector<int>> row_cols(ons.size());
    for (std::size_t r = 0; r < ons.size(); ++r) {
      for (std::size_t p = 0; p < primes.size(); ++p) {
        if (primes[p].covers(ons[r])) row_cols[r].push_back(static_cast<int>(p));
      }
    }
    CoverSolver solver{row_cols, {}, false};
    std::vector<int> cur;
    std::vector<std::uint8_t> done(ons.size(), 0);
    solver.solve(cur, done, ons.size());
    if (solver.have_best) {
      for (const int p : solver.best) {
        chosen.push_back(primes[static_cast<std::size_t>(p)]);
      }
      ons.clear();
    }
  }
  while (!ons.empty()) {
    std::size_t best_p = 0;
    std::size_t best_cover = 0;
    for (std::size_t p = 0; p < primes.size(); ++p) {
      const std::size_t c = static_cast<std::size_t>(
          std::count_if(ons.begin(), ons.end(), [&](std::uint32_t r) {
            return primes[p].covers(r);
          }));
      if (c > best_cover) {
        best_cover = c;
        best_p = p;
      }
    }
    assert(best_cover > 0);
    const Cube c = primes[best_p];
    chosen.push_back(c);
    std::erase_if(ons, [&c](std::uint32_t r) { return c.covers(r); });
  }
  return chosen;
}

}  // namespace detail

inline std::vector<Cube> minimize_qm(const TruthTable& f, int bnb_limit = 26) {
  if (f.on_count() == 0) return {};
  return detail::cover_select(f, logic_oracle::prime_implicants(f), bnb_limit);
}

/// Expand each seed cube literal by literal, scanning the whole OFF-set
/// for every widening; then containment pruning and irredundant removal.
inline std::vector<Cube> minimize_heuristic(const TruthTable& f,
                                            std::vector<Cube> seed) {
  const std::vector<std::uint32_t> offs = f.off_set();
  for (Cube& c : seed) {
    for (int b = 0; b < f.num_inputs(); ++b) {
      const std::uint32_t bit = 1u << b;
      if ((c.mask & bit) == 0) continue;
      const Cube widened{c.mask & ~bit, c.value & ~bit};
      const bool hits_off = std::any_of(
          offs.begin(), offs.end(),
          [&widened](std::uint32_t r) { return widened.covers(r); });
      if (!hits_off) c = widened;
    }
  }
  std::sort(seed.begin(), seed.end(), [](const Cube& a, const Cube& b) {
    return a.literal_count() < b.literal_count();
  });
  std::vector<Cube> kept;
  for (const Cube& c : seed) {
    const bool contained = std::any_of(kept.begin(), kept.end(), [&c](const Cube& k) {
      return k.contains(c);
    });
    if (!contained) kept.push_back(c);
  }
  const std::vector<std::uint32_t> ons = f.on_set();
  std::vector<std::size_t> needed_by(kept.size(), 0);
  for (const std::uint32_t r : ons) {
    int only = -1;
    int count = 0;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (kept[i].covers(r)) {
        ++count;
        only = static_cast<int>(i);
        if (count > 1) break;
      }
    }
    if (count == 1) ++needed_by[static_cast<std::size_t>(only)];
  }
  for (std::size_t i = kept.size(); i-- > 0;) {
    if (needed_by[i] > 0) continue;
    std::vector<Cube> without = kept;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    const bool still_ok = std::all_of(ons.begin(), ons.end(), [&](std::uint32_t r) {
      return std::any_of(without.begin(), without.end(),
                         [r](const Cube& c) { return c.covers(r); });
    });
    if (still_ok) {
      kept = std::move(without);
      needed_by.erase(needed_by.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return kept;
}

inline std::vector<Cube> minimize_heuristic(const TruthTable& f) {
  std::vector<Cube> seed;
  const std::uint32_t full_mask = f.size() - 1;
  for (const std::uint32_t r : f.on_set()) seed.push_back({full_mask, r});
  return logic_oracle::minimize_heuristic(f, std::move(seed));
}

inline std::vector<Cube> minimize(const TruthTable& f) {
  return f.num_inputs() <= 10 ? logic_oracle::minimize_qm(f)
                               : logic_oracle::minimize_heuristic(f);
}

inline PlaTerms minimize_multi(const MultiFunction& f, bool use_heuristic = false) {
  PlaTerms out;
  out.num_inputs = f.num_inputs;
  std::map<Cube, int> term_index;
  for (const TruthTable& table : f.outputs) {
    const std::vector<Cube> cover =
        use_heuristic ? logic_oracle::minimize_heuristic(table)
                      : logic_oracle::minimize(table);
    std::vector<int> indices;
    indices.reserve(cover.size());
    for (const Cube& c : cover) {
      auto [it, fresh] = term_index.emplace(c, static_cast<int>(out.terms.size()));
      if (fresh) out.terms.push_back(c);
      indices.push_back(it->second);
    }
    out.output_terms.push_back(std::move(indices));
  }
  return out;
}

}  // namespace silc_fixtures::logic_oracle
