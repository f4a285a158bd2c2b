// Golden-file regression checks shared by the tests that pin committed
// artifacts as text under fixtures/golden/ (extracted netlists, PLA
// personalities). A mismatch prints a line-level report (line number,
// golden, current) of the first differing lines. To regenerate after an
// *intentional* change, run the test with SILC_REGEN_GOLDEN=1: the file is
// rewritten and the test is skipped.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace silc_fixtures {

/// Path of a committed golden file, e.g. golden_path("traffic.net").
inline std::string golden_path(const std::string& file) {
  return std::string(SILC_SOURCE_DIR) + "/fixtures/golden/" + file;
}

/// Compare `text` against the golden file (or rewrite it under
/// SILC_REGEN_GOLDEN).
inline void expect_matches_golden(const std::string& text,
                                  const std::string& file) {
  const std::string path = golden_path(file);
  if (std::getenv("SILC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << text;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden fixture " << path
                         << " (run with SILC_REGEN_GOLDEN=1 to create)";
  std::stringstream want;
  want << in.rdbuf();

  if (text == want.str()) return;
  std::istringstream got_s(text), want_s(want.str());
  std::string got_line, want_line, report;
  int line = 0, shown = 0;
  while (shown < 10) {
    const bool g = static_cast<bool>(std::getline(got_s, got_line));
    const bool w = static_cast<bool>(std::getline(want_s, want_line));
    if (!g && !w) break;
    ++line;
    if (!g) got_line = "<eof>";
    if (!w) want_line = "<eof>";
    if (got_line != want_line) {
      report += "  line " + std::to_string(line) + "\n    golden:  " +
                want_line + "\n    current: " + got_line + "\n";
      ++shown;
    }
    if (!g || !w) break;
  }
  ADD_FAILURE() << file << " diverges from " << path << ":\n" << report;
}

}  // namespace silc_fixtures
