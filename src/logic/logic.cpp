#include "logic/logic.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace silc::logic {

std::string Cube::to_string(int num_inputs) const {
  std::string s;
  for (int i = 0; i < num_inputs; ++i) {
    const std::uint32_t bit = 1u << i;
    s.push_back((mask & bit) == 0 ? '-' : ((value & bit) != 0 ? '1' : '0'));
  }
  return s;
}

TruthTable::TruthTable(int num_inputs) : n_(num_inputs) {
  if (num_inputs < 0 || num_inputs > 20) {
    throw std::invalid_argument("TruthTable supports 0..20 inputs");
  }
  rows_.assign(std::size_t{1} << n_, static_cast<std::uint8_t>(Tri::Zero));
}

TruthTable TruthTable::from_function(int num_inputs,
                                     const std::function<bool(std::uint32_t)>& f) {
  TruthTable t(num_inputs);
  for (std::uint32_t r = 0; r < t.size(); ++r) {
    t.set(r, f(r) ? Tri::One : Tri::Zero);
  }
  return t;
}

TruthTable TruthTable::from_tri_function(
    int num_inputs, const std::function<Tri(std::uint32_t)>& f) {
  TruthTable t(num_inputs);
  for (std::uint32_t r = 0; r < t.size(); ++r) t.set(r, f(r));
  return t;
}

TruthTable TruthTable::from_cover(int num_inputs, const std::vector<Cube>& cover) {
  TruthTable t(num_inputs);
  for (std::uint32_t r = 0; r < t.size(); ++r) {
    for (const Cube& c : cover) {
      if (c.covers(r)) {
        t.set(r, Tri::One);
        break;
      }
    }
  }
  return t;
}

void TruthTable::set(std::uint32_t row, Tri v) {
  rows_[row] = static_cast<std::uint8_t>(v);
}

std::vector<std::uint32_t> TruthTable::on_set() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t r = 0; r < size(); ++r) {
    if (get(r) == Tri::One) out.push_back(r);
  }
  return out;
}

std::vector<std::uint32_t> TruthTable::off_set() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t r = 0; r < size(); ++r) {
    if (get(r) == Tri::Zero) out.push_back(r);
  }
  return out;
}

std::size_t TruthTable::on_count() const {
  std::size_t n = 0;
  for (std::uint32_t r = 0; r < size(); ++r) {
    if (get(r) == Tri::One) ++n;
  }
  return n;
}

bool TruthTable::implemented_by(const std::vector<Cube>& cover) const {
  for (std::uint32_t r = 0; r < size(); ++r) {
    const Tri want = get(r);
    if (want == Tri::DontCare) continue;
    bool covered = false;
    for (const Cube& c : cover) {
      if (c.covers(r)) {
        covered = true;
        break;
      }
    }
    if (covered != (want == Tri::One)) return false;
  }
  return true;
}

// ------------------------------------------------------- Quine-McCluskey --

// Cube t of the ternary table has digits d_i = (t / 3^i) % 3: 0 or 1 binds
// variable i to that value, 2 leaves it free. Its two halves on a free
// variable i sit at t - 3^i (i = 1) and t - 2*3^i (i = 0), and widening a
// bound variable i moves it to t + (2 - d_i) * 3^i.
std::vector<Cube> prime_implicants(const TruthTable& f) {
  const int n = f.num_inputs();
  const std::uint32_t full_mask = f.size() - 1;
  std::vector<std::uint32_t> pow3(static_cast<std::size_t>(n) + 1, 1);
  for (int i = 0; i < n; ++i) pow3[i + 1] = pow3[i] * 3;
  const std::uint32_t total = pow3[n];

  // Visit every cube in ascending t, stepping its (mask, value) like an
  // odometer whose digits run 0 -> 1 -> 2 (free) and carry.
  const auto for_each_cube = [&](auto&& visit) {
    Cube c{full_mask, 0};
    for (std::uint32_t t = 0; t < total; ++t) {
      if (t > 0) {
        std::uint32_t bit = 1;
        for (; (c.mask & bit) == 0; bit <<= 1) c.mask |= bit;  // 2 -> 0
        if ((c.value & bit) == 0) {
          c.value |= bit;  // 0 -> 1
        } else {
          c.mask &= ~bit;  // 1 -> 2
          c.value &= ~bit;
        }
      }
      visit(t, c);
    }
  };

  // imp[t]: every minterm of cube t is ON or don't-care.
  std::vector<std::uint8_t> imp(total);
  for_each_cube([&](std::uint32_t t, const Cube& c) {
    const std::uint32_t free = full_mask & ~c.mask;
    if (free == 0) {
      imp[t] = f.get(c.value) != Tri::Zero;
    } else {
      const std::uint32_t step = pow3[__builtin_ctz(free)];
      imp[t] = imp[t - step] & imp[t - 2 * step];
    }
  });

  // A prime is an implicant that no single-literal widening keeps one.
  std::vector<Cube> primes;
  for_each_cube([&](std::uint32_t t, const Cube& c) {
    if (imp[t] == 0) return;
    for (int i = 0; i < n; ++i) {
      if ((c.mask >> i & 1u) == 0) continue;
      const std::uint32_t d = c.value >> i & 1u;
      if (imp[t + (2 - d) * pow3[i]] != 0) return;
    }
    primes.push_back(c);
  });
  // Quine-McCluskey order: level by level (free-variable count), each level
  // in Cube order.
  std::sort(primes.begin(), primes.end(), [](const Cube& a, const Cube& b) {
    const int la = a.literal_count();
    const int lb = b.literal_count();
    return la != lb ? la > lb : a < b;
  });
  return primes;
}

namespace {

// Branch-and-bound minimum unate covering: pick the fewest columns (primes)
// covering all rows (ON minterms). Rows/columns are given as bitsets over
// primes; limited search with greedy fallback.
struct CoverSolver {
  const std::vector<std::vector<int>>& row_cols;  // per row: candidate columns
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
    // Branch on the hardest row (fewest candidate columns).
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
      // Apply column col: mark rows it covers.
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

std::vector<Cube> cover_select(const TruthTable& f, std::vector<Cube> primes,
                               int bnb_limit) {
  std::vector<std::uint32_t> ons = f.on_set();
  std::vector<Cube> chosen;

  // Essential primes: rows covered by exactly one prime.
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
  // Drop primes that no longer cover any remaining row.
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
  // Greedy completion for anything left.
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

}  // namespace

std::vector<Cube> minimize_qm(const TruthTable& f, int bnb_limit) {
  if (f.on_count() == 0) return {};
  return cover_select(f, prime_implicants(f), bnb_limit);
}

// ------------------------------------------------------------- heuristic --

std::vector<Cube> minimize_heuristic(const TruthTable& f) {
  std::vector<Cube> seed;
  const std::uint32_t full_mask = f.size() - 1;
  for (const std::uint32_t r : f.on_set()) seed.push_back({full_mask, r});
  return minimize_heuristic(f, std::move(seed));
}

std::vector<Cube> minimize_heuristic(const TruthTable& f, std::vector<Cube> seed) {
  std::vector<std::uint8_t> off(f.size());
  for (std::uint32_t r = 0; r < f.size(); ++r) off[r] = f.get(r) == Tri::Zero;
  // Does cube c cover an OFF row? Enumerate its minterms; seeds expand
  // through the same cubes over and over, so remember each answer.
  std::unordered_map<std::uint64_t, bool> memo;
  const std::uint32_t full_mask = f.size() - 1;
  const auto hits_off = [&](const Cube& c) {
    const auto [it, fresh] =
        memo.try_emplace((std::uint64_t{c.mask} << 32) | c.value, false);
    if (!fresh) return it->second;
    const std::uint32_t free = full_mask & ~c.mask;
    std::uint32_t s = 0;
    do {
      if (off[c.value | s] != 0) return it->second = true;
      s = (s - free) & free;  // next subset of the free variables
    } while (s != 0);
    return false;
  };
  // Expand: greedily drop each literal, in variable order, whose removal
  // keeps the cube off the OFF-set.
  for (Cube& c : seed) {
    for (int b = 0; b < f.num_inputs(); ++b) {
      const std::uint32_t bit = 1u << b;
      if ((c.mask & bit) == 0) continue;
      const Cube widened{c.mask & ~bit, c.value & ~bit};
      if (!hits_off(widened)) c = widened;
    }
  }
  // Containment pruning.
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
  // Irredundant: drop cubes whose ON rows are all covered elsewhere.
  // (Scan ON rows, counting covering cubes.)
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
  // Remove unneeded cubes one at a time, rechecking coverage.
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

std::vector<Cube> minimize(const TruthTable& f) {
  return f.num_inputs() <= 10 ? minimize_qm(f) : minimize_heuristic(f);
}

// ----------------------------------------------------------- multi-output --

PlaTerms minimize_multi(const MultiFunction& f, bool use_heuristic) {
  PlaTerms out;
  out.num_inputs = f.num_inputs;
  std::map<Cube, int> term_index;
  for (const TruthTable& table : f.outputs) {
    assert(table.num_inputs() == f.num_inputs);
    const std::vector<Cube> cover =
        use_heuristic ? minimize_heuristic(table) : minimize(table);
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

}  // namespace silc::logic
