#include "logic/logic.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>

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

namespace {

// Bit j of kLowVar[i] is bit i of j: the rows of one 64-row word in which
// variable i is 1.
constexpr std::uint64_t kLowVar[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

/// The rows of a 64-row word that cube c covers: its bound low six
/// variables as one 64-bit pattern.
std::uint64_t low_pattern(const Cube& c) {
  std::uint64_t pattern = ~std::uint64_t{0};
  for (int i = 0; i < 6; ++i) {
    if ((c.mask >> i & 1u) == 0) continue;
    pattern &= (c.value >> i & 1u) != 0 ? kLowVar[i] : ~kLowVar[i];
  }
  return pattern;
}

/// One table's OFF and ON rows as two 2^n-bit bitsets: row r is bit r % 64
/// of word r / 64. Tables under 6 inputs use the low 2^n bits of one word.
/// A cube covers its low pattern in each word whose index matches its
/// bound high variables (those from 6 up).
class RowBits {
 public:
  explicit RowBits(const TruthTable& f)
      : high_full_((f.size() - 1) >> 6),
        off_(high_full_ + 1, 0),
        on_(high_full_ + 1, 0) {
    for (std::uint32_t r = 0; r < f.size(); ++r) {
      const std::uint64_t bit = std::uint64_t{1} << (r & 63);
      if (f.get(r) == Tri::Zero) off_[r >> 6] |= bit;
      if (f.get(r) == Tri::One) on_[r >> 6] |= bit;
    }
  }

  [[nodiscard]] std::uint32_t words() const { return high_full_ + 1; }
  [[nodiscard]] std::uint64_t on(std::uint32_t w) const { return on_[w]; }

  /// Visits cube c's words in ascending order until `visit` returns true,
  /// and says whether it did: only the subsets of the free high variables
  /// are enumerated.
  template <typename Visit>
  bool any_word(const Cube& c, Visit&& visit) const {
    const std::uint32_t free = high_full_ & ~(c.mask >> 6);
    const std::uint32_t base = c.value >> 6;
    std::uint32_t s = 0;
    do {
      if (visit(base | s)) return true;
      s = (s - free) & free;  // next subset of the free high variables
    } while (s != 0);
    return false;
  }

  /// Does cube c, whose low pattern is `pattern`, cover an OFF row?
  [[nodiscard]] bool hits_off(const Cube& c, std::uint64_t pattern) const {
    return any_word(c, [&](std::uint32_t w) { return (off_[w] & pattern) != 0; });
  }

 private:
  std::uint32_t high_full_;
  std::vector<std::uint64_t> off_;
  std::vector<std::uint64_t> on_;
};

}  // namespace

std::vector<Cube> minimize_heuristic(const TruthTable& f, std::vector<Cube> seed) {
  const RowBits rows(f);
  // Expand: greedily drop each literal, in variable order, whose removal
  // keeps the cube off the OFF-set. The cube entering step b fixes every
  // later step, so a trail keeps, per step, the cube some earlier seed
  // entered it with and the cube that seed ended as; a seed that meets the
  // trail takes that ending. The sentinel matches no seed.
  const Cube none{~std::uint32_t{0}, ~std::uint32_t{0}};
  const auto levels = static_cast<std::size_t>(f.num_inputs());
  std::vector<Cube> trail_at(levels, none);
  std::vector<Cube> trail_end(levels);
  for (Cube& c : seed) {
    std::uint64_t pattern = low_pattern(c);
    std::size_t b = 0;
    for (; b < levels; ++b) {
      if (trail_at[b] == c) {
        c = trail_end[b];
        break;
      }
      trail_at[b] = c;
      const std::uint32_t bit = 1u << b;
      if ((c.mask & bit) == 0) continue;
      const Cube widened{c.mask & ~bit, c.value & ~bit};
      // Freeing low variable b adds its other half: the pattern shifted by
      // 2^b, which is `bit`.
      std::uint64_t wider = pattern;
      if (b < 6) wider |= (c.value & bit) != 0 ? pattern >> bit : pattern << bit;
      if (!rows.hits_off(widened, wider)) {
        c = widened;
        pattern = wider;
      }
    }
    for (std::size_t k = 0; k < b; ++k) trail_end[k] = c;
  }
  // Containment pruning, fewest literals first. The sort keys on a
  // precomputed literal count; std::sort makes the same comparisons on the
  // same keys, so its (unstable) permutation is unchanged.
  struct Ranked {
    std::uint32_t lits;
    std::uint32_t index;
  };
  std::vector<Ranked> ranked(seed.size());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    ranked[i] = {static_cast<std::uint32_t>(seed[i].literal_count()),
                 static_cast<std::uint32_t>(i)};
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) { return a.lits < b.lits; });
  std::vector<Cube> kept;
  for (const Ranked& r : ranked) {
    const Cube& c = seed[r.index];
    const bool contained = std::any_of(kept.begin(), kept.end(), [&c](const Cube& k) {
      return k.contains(c);
    });
    if (!contained) kept.push_back(c);
  }
  // Irredundant: from the last cube back, drop each cube that was the only
  // cover of no ON row in the pruned list, as long as every ON row stays
  // covered by the cubes still kept. Word by word, uncovered(w, skip) is
  // the ON rows of word w that no kept cube but `skip` covers.
  std::vector<std::uint64_t> patterns(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) patterns[i] = low_pattern(kept[i]);
  std::vector<std::uint8_t> dropped(kept.size(), 0);
  const auto uncovered = [&](std::uint32_t w, std::size_t skip) {
    std::uint64_t left = rows.on(w);
    for (std::size_t j = 0; j < kept.size() && left != 0; ++j) {
      if (j == skip || dropped[j] != 0) continue;
      const std::uint32_t high_mask = kept[j].mask >> 6;
      if ((w & high_mask) == kept[j].value >> 6) left &= ~patterns[j];
    }
    return left;
  };
  const auto sole_cover = [&](std::size_t i) {
    return rows.any_word(kept[i], [&](std::uint32_t w) {
      return (uncovered(w, i) & patterns[i]) != 0;
    });
  };
  // An ON row no cube covers stays uncovered, so then nothing may go.
  for (std::uint32_t w = 0; w < rows.words(); ++w) {
    if (uncovered(w, kept.size()) != 0) return kept;
  }
  std::vector<std::uint8_t> needed(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) needed[i] = sole_cover(i);
  for (std::size_t i = kept.size(); i-- > 0;) {
    if (needed[i] == 0 && !sole_cover(i)) dropped[i] = 1;
  }
  std::vector<Cube> out;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (dropped[i] == 0) out.push_back(kept[i]);
  }
  return out;
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
