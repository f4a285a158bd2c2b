// The design sets the workloads compile. Sources come from the shared
// fixtures wherever one exists, so the benchmark compiles the same
// machines the tests do.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "design_sources.hpp"

namespace perfbench {

struct Source {
  std::string name;
  silc::core::Flow flow = silc::core::Flow::Behavioral;
  std::string text;
};

/// The cold ladder, smallest to largest (689 -> 5,756 flat rects).
inline std::vector<Source> ladder_designs() {
  using silc_fixtures::counter_source;
  return {
      {"gray2", silc::core::Flow::Behavioral, silc_fixtures::kGray2Source},
      {"counter3", silc::core::Flow::Behavioral, counter_source(3)},
      {"traffic", silc::core::Flow::Behavioral, silc_fixtures::kTrafficSource},
      {"counter6", silc::core::Flow::Behavioral, counter_source(6)},
      {"counter8", silc::core::Flow::Behavioral, counter_source(8)},
      {"counter10", silc::core::Flow::Behavioral, counter_source(10)},
      {"counter12", silc::core::Flow::Behavioral, counter_source(12)},
  };
}

/// The structural counter of the committed 24-job batch mix (the same
/// SILC program bench_flows compiles): toggle stages placed by hand.
inline const char* kStructCounterSource = R"(
  func toggle_bit(name) {
    let c = cell(name);
    let s = shiftstage();
    place(c, s, 0, 0);
    place(c, s, 76, 0);
    return c;
  }
  let chip = cell("struct_counter");
  for b in 0 .. 2 { place(chip, toggle_bit("bit" + str(b)), 0, b * 90); }
  write_cif(chip);
  return chip;
)";

/// The four designs of the batch mix, one of each.
inline std::vector<Source> batch_designs() {
  return {
      {"counter3", silc::core::Flow::Behavioral,
       silc_fixtures::counter_source(3)},
      {"gray2", silc::core::Flow::Behavioral, silc_fixtures::kGray2Source},
      {"traffic", silc::core::Flow::Behavioral, silc_fixtures::kTrafficSource},
      {"struct_counter", silc::core::Flow::Structural, kStructCounterSource},
  };
}

/// A seeded permutation of `v`.
template <class T>
std::vector<T> shuffled(std::vector<T> v, unsigned seed) {
  std::mt19937 rng(seed);
  std::shuffle(v.begin(), v.end(), rng);
  return v;
}

/// A file of the checkout, relative to the directory the benchmark runs
/// from (the checkout root).
inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace perfbench
