// The shared lexer (src/lex/) under both front ends: its grammar, its
// errors, and the token-stream oracle (fixtures/lexer_oracle.hpp, the two
// lexers it replaced) on every committed source and on token mutants.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "fuzz_env.hpp"
#include "lexer_oracle.hpp"
#include "lex/lex.hpp"
#include "token_mutants.hpp"

namespace silc::lex {
namespace {

using silc_fixtures::FrontLang;
using silc_fixtures::keywords;

std::vector<Token> toks(const std::string& src, FrontLang l = FrontLang::Silc) {
  return tokenize(src, keywords(l));
}

std::vector<Tok> kinds(const std::string& src, FrontLang l = FrontLang::Silc) {
  std::vector<Tok> out;
  for (const Token& t : toks(src, l)) out.push_back(t.kind);
  return out;
}

/// The line and message of the lex::Error `src` throws ("" when none).
std::string error_of(const std::string& src) {
  try {
    (void)toks(src);
  } catch (const Error& e) {
    return std::to_string(e.line()) + ": " + e.what();
  }
  return "";
}

TEST(Lex, OnlyTheKeywordTableDiffersBetweenLanguages) {
  EXPECT_EQ(kinds("input in", FrontLang::Rtl),
            (std::vector<Tok>{Tok::KwInput, Tok::Ident, Tok::End}));
  EXPECT_EQ(kinds("input in", FrontLang::Silc),
            (std::vector<Tok>{Tok::Ident, Tok::KwIn, Tok::End}));
  EXPECT_EQ(toks("let", FrontLang::Rtl)[0].text, "let");
  for (std::size_t k = static_cast<std::size_t>(Tok::LParen); k < kNumToks; ++k) {
    const Tok t = static_cast<Tok>(k);
    if (t >= Tok::KwProcessor) continue;  // keywords: per language
    const std::string s(spelling(t));
    EXPECT_EQ(kinds(s, FrontLang::Rtl), (std::vector<Tok>{t, Tok::End})) << s;
    EXPECT_EQ(kinds(s, FrontLang::Silc), (std::vector<Tok>{t, Tok::End})) << s;
  }
}

TEST(Lex, LongestMatchCommentsAndLiterals) {
  EXPECT_EQ(kinds("a<<=b...c:=d"),
            (std::vector<Tok>{Tok::Ident, Tok::Shl, Tok::Assign, Tok::Ident,
                              Tok::DotDot, Tok::Dot, Tok::Ident, Tok::NonBlock,
                              Tok::Ident, Tok::End}));
  EXPECT_EQ(kinds("a // x\n-- y\n/* z\n */ b - -c"),
            (std::vector<Tok>{Tok::Ident, Tok::Ident, Tok::Minus, Tok::Minus,
                              Tok::Ident, Tok::End}));
  const std::vector<Token> t = toks("0x1F 0b101 18446744073709551615 7x");
  EXPECT_EQ(t[0].number, 31u);
  EXPECT_EQ(t[1].number, 5u);
  EXPECT_EQ(t[2].number, UINT64_MAX);
  EXPECT_EQ(t[3].number, 7u);
  EXPECT_EQ(t[4].text, "x");
  const std::vector<Token> s = toks("\"a\\\"b\\\\n\\n\" /* 1\n2 */ x");
  EXPECT_EQ(s[0].text, "a\"b\\n\n");
  EXPECT_EQ(s[1].line, 2u);
}

TEST(Lex, ErrorsCarryTheLineTheyStartOn) {
  EXPECT_EQ(error_of("a\n/* open\n\n"), "2: unterminated comment");
  EXPECT_EQ(error_of("a\n\"open\n\n"), "2: unterminated string");
  EXPECT_EQ(error_of("18446744073709551616"),
            "1: numeric literal does not fit in 64 bits");
  EXPECT_EQ(error_of("0x10000000000000000"),
            "1: numeric literal does not fit in 64 bits");
  EXPECT_EQ(error_of("0x"), "1: malformed numeric literal");
  EXPECT_EQ(error_of("0b2"), "1: malformed numeric literal");
  EXPECT_EQ(error_of("\n\na ! b"), "3: unexpected character '!'");
  EXPECT_EQ(error_of("a @"), "1: unexpected character '@'");
}

std::string show(const std::vector<Token>& t, std::size_t i) {
  if (i >= t.size()) return "<none>";
  return "kind " + std::to_string(static_cast<int>(t[i].kind)) + " '" +
         t[i].text + "' " + std::to_string(t[i].number) + " line " +
         std::to_string(t[i].line);
}

/// The old lexer of `l` on `src`; false when it rejects the text.
bool oracle_tokens(FrontLang l, const std::string& src, std::vector<Token>& out) {
  try {
    out = l == FrontLang::Rtl
              ? silc_fixtures::oracle::tokens<silc_fixtures::oracle::RtlLexer>(src)
              : silc_fixtures::oracle::tokens<silc_fixtures::oracle::SilcLexer>(src);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

/// The shared lexer's stream of `src` as the old lexer of `l` sees it: a
/// punctuator the old lexer did not have (SILC's `:=`, `<<`, `>>`) is
/// split into the tokens the old lexer reads its spelling as.
std::vector<Token> as_oracle_sees(FrontLang l, const std::string& src) {
  std::vector<Token> out;
  for (Token& t : toks(src, l)) {
    std::vector<Token> old;
    if (t.kind > Tok::Str && t.kind < Tok::KwProcessor &&
        oracle_tokens(l, std::string(spelling(t.kind)), old) && old.size() > 2) {
      for (std::size_t i = 0; i + 1 < old.size(); ++i) {
        old[i].line = t.line;
        out.push_back(old[i]);
      }
    } else {
      out.push_back(std::move(t));
    }
  }
  return out;
}

void expect_same_stream(FrontLang l, const std::string& src) {
  std::vector<Token> want;
  ASSERT_TRUE(oracle_tokens(l, src, want)) << src;
  const std::vector<Token> got = as_oracle_sees(l, src);
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const bool same = i < want.size() && i < got.size() &&
                      want[i].kind == got[i].kind && want[i].text == got[i].text &&
                      want[i].number == got[i].number && want[i].line == got[i].line;
    ASSERT_TRUE(same) << "token " << i << ": oracle " << show(want, i)
                      << ", shared " << show(got, i) << "\nin:\n" << src;
  }
}

TEST(LexOracle, EveryCommittedSourceLexesAsBefore) {
  // Every raw-string source in the repo's examples, fixtures, tests and
  // perfbench designs that its language's old lexer accepts, plus the
  // generated counters. A source the old lexer rejects is not a program.
  const std::filesystem::path root(SILC_SOURCE_DIR);
  std::vector<std::string> sources = {silc_fixtures::counter_source(3),
                                      silc_fixtures::counter_source(12)};
  for (const char* dir : {"examples", "fixtures", "tests", "perfbench/src"}) {
    for (const auto& f : std::filesystem::directory_iterator(root / dir)) {
      for (std::string& s : silc_fixtures::raw_literals(f.path())) {
        sources.push_back(std::move(s));
      }
    }
  }
  int compared = 0;
  for (const std::string& src : sources) {
    const FrontLang l = silc_fixtures::lang_of(src);
    std::vector<Token> old;
    if (!oracle_tokens(l, src, old)) continue;
    ++compared;
    expect_same_stream(l, src);
  }
  EXPECT_GE(compared, 40);
  for (const silc_fixtures::FrontSource& s : silc_fixtures::front_corpus()) {
    SCOPED_TRACE(s.name);
    expect_same_stream(s.lang, s.text);
  }
}

TEST(LexOracle, TokenMutantsTheOracleAcceptsLexAsBefore) {
  const std::vector<silc_fixtures::FrontSource> corpus =
      silc_fixtures::front_corpus();
  constexpr int kTrials = 400;
  int compared = 0;
  silc_fixtures::fuzz_seeds(
      "test_lex", "LexOracle.TokenMutants*", 1, kTrials, [&](unsigned seed) {
        const silc_fixtures::Mutant m = silc_fixtures::mutate(corpus, seed);
        std::vector<Token> old;
        if (!m.token_level || !oracle_tokens(m.source->lang, m.text, old)) return;
        ++compared;
        expect_same_stream(m.source->lang, m.text);
      });
  // Half the seeds give token mutants; at least half of those must lex
  // under the oracle, or the comparison has too little to compare.
  const silc_fixtures::FuzzEnv env = silc_fixtures::fuzz_env(kTrials);
  if (!env.has_seed) {
    EXPECT_GE(4 * compared, env.trials) << compared << " of " << env.trials;
  }
}

}  // namespace
}  // namespace silc::lex
