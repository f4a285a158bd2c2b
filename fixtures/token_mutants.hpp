// Seeded mutants of the committed front-end sources, for the token
// mutation fuzz (tests/test_fault.cpp) and the lexer oracle check
// (tests/test_lex.cpp).
//
// The corpus is design_sources.hpp's RTL and SILC sources plus the SILC
// programs of examples/silc_programs.cpp. Odd seeds give token-level
// mutants: the source is lexed with the shared lexer (src/lex/), then
// 1-3 edits each drop, duplicate, swap, or substitute a token (with one
// of the shared spelling table or of the source itself), or repeat one of
// the source's opening brackets or prefix operators 50,000 times, which
// nests far past the parsers' depth limit where the parse recurses. The
// stream is rendered back to text one token per word. Even seeds give
// byte-level mutants: 1-3 edits, each (one time in three) inserting a
// lexical opener (a comment, string or literal prefix) or else deleting,
// duplicating, replacing or inserting one byte. They reach what the lexer
// itself must reject: unterminated strings and comments, stray
// characters, malformed literals.
#pragma once

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "design_sources.hpp"
#include "lang/lang.hpp"
#include "lex/lex.hpp"
#include "rtl/rtl.hpp"

namespace silc_fixtures {

enum class FrontLang { Rtl, Silc };

struct FrontSource {
  std::string name;
  FrontLang lang = FrontLang::Rtl;
  std::string text;
};

inline std::span<const silc::lex::Tok> keywords(FrontLang l) {
  if (l == FrontLang::Rtl) return silc::rtl::kKeywords;
  return silc::lang::kKeywords;
}

/// A source whose first word is `processor` is RTL, any other is SILC.
inline FrontLang lang_of(const std::string& text) {
  const std::size_t at = text.find_first_not_of(" \t\r\n");
  return at != std::string::npos && text.compare(at, 9, "processor") == 0
             ? FrontLang::Rtl
             : FrontLang::Silc;
}

/// Every raw string literal R"(...)" in the file at `path`.
inline std::vector<std::string> raw_literals(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::vector<std::string> out;
  for (std::size_t at = text.find("R\"("); at != std::string::npos;
       at = text.find("R\"(", at)) {
    const std::size_t end = text.find(")\"", at + 3);
    if (end == std::string::npos) break;
    out.push_back(text.substr(at + 3, end - at - 3));
    at = end + 2;
  }
  return out;
}

/// The fuzz corpus (see the file comment).
inline std::vector<FrontSource> front_corpus() {
  std::vector<FrontSource> out = {
      {"traffic", FrontLang::Rtl, kTrafficSource},
      {"gray2", FrontLang::Rtl, kGray2Source},
      {"counter3", FrontLang::Rtl, counter_source(3)},
      {"inv_chain", FrontLang::Silc, kInvChainSource},
      {"struct_counter", FrontLang::Silc, kStructuralCounterSource},
  };
  int task = 0;
  for (const std::string& s : raw_literals(std::filesystem::path(SILC_SOURCE_DIR) /
                                           "examples" / "silc_programs.cpp")) {
    out.push_back({"silc_task" + std::to_string(++task), lang_of(s), s});
  }
  return out;
}

/// A token stream back to text: one space between tokens, a newline where
/// the line number grows, numbers in decimal, strings re-escaped.
inline std::string render(const std::vector<silc::lex::Token>& toks) {
  using silc::lex::Tok;
  std::string out;
  std::size_t line = 1;
  for (const silc::lex::Token& t : toks) {
    if (t.kind == Tok::End) break;
    out += t.line > line ? '\n' : ' ';
    line = std::max(line, t.line);
    if (t.kind == Tok::Ident) {
      out += t.text;
    } else if (t.kind == Tok::Number) {
      out += std::to_string(t.number);
    } else if (t.kind == Tok::Str) {
      out += '"';
      for (const char c : t.text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c == '\n' ? std::string("\\n") : std::string(1, c);
      }
      out += '"';
    } else {
      out += silc::lex::spelling(t.kind);
    }
  }
  return out + '\n';
}

struct Mutant {
  const FrontSource* source = nullptr;
  bool token_level = true;
  std::string text;
};

/// The mutant of `seed` (deterministic).
inline Mutant mutate(const std::vector<FrontSource>& corpus, unsigned seed) {
  using silc::lex::Tok;
  using silc::lex::Token;
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  Mutant m;
  m.source = &corpus[pick(corpus.size())];
  m.token_level = seed % 2 == 1;
  const int edits = 1 + static_cast<int>(pick(3));
  if (!m.token_level) {
    std::string& s = m.text = m.source->text;
    static const std::string kBytes =
        "\"/*-\\0x9b(){}[]<>=:;.,+|&^~!?%#@$' \n\tazAZ_\x80\xff";
    for (int e = 0; e < edits; ++e) {
      static const char* const kOpeners[] = {"/*", "\"", "//", "--", "0x", "0b"};
      const std::size_t i = pick(s.size() + 1);
      const std::size_t op = pick(6);
      if (op < 2) {
        s.insert(i, kOpeners[pick(std::size(kOpeners))]);
      } else if (op == 2 && i < s.size()) {
        s.erase(i, 1);
      } else if (op == 3 && i < s.size()) {
        s.insert(i, 1, s[i]);
      } else if (op == 4 && i < s.size()) {
        s[i] = kBytes[pick(kBytes.size())];
      } else {
        s.insert(i, 1, kBytes[pick(kBytes.size())]);
      }
    }
    return m;
  }
  std::vector<Token> toks =
      silc::lex::tokenize(m.source->text, keywords(m.source->lang));
  toks.pop_back();  // End
  // Substitutes: every fixed token of the shared table, then the source's own.
  std::vector<Token> pool;
  for (std::size_t k = static_cast<std::size_t>(Tok::LParen);
       k < silc::lex::kNumToks; ++k) {
    const Tok t = static_cast<Tok>(k);
    pool.push_back({t, std::string(silc::lex::spelling(t)), 0, 1});
  }
  pool.insert(pool.end(), toks.begin(), toks.end());
  for (int e = 0; e < edits; ++e) {
    const std::size_t i = pick(toks.size() + 1);
    const std::size_t op = pick(5);
    if (op == 4) {  // repeat an opener of the stream, when it has one
      std::vector<std::size_t> openers;
      for (std::size_t k = 0; k < toks.size(); ++k) {
        const Tok t = toks[k].kind;
        if (t == Tok::LParen || t == Tok::LBrace || t == Tok::LBracket ||
            t == Tok::Not || t == Tok::Minus || t == Tok::KwNot) {
          openers.push_back(k);
        }
      }
      if (!openers.empty()) {
        const std::size_t k = openers[pick(openers.size())];
        const Token copy = toks[k];
        toks.insert(toks.begin() + static_cast<std::ptrdiff_t>(k), 50000, copy);
        continue;
      }
    }
    if (i == toks.size()) {  // append one
      toks.push_back(pool[pick(pool.size())]);
    } else if (op == 0) {
      toks.erase(toks.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op == 1) {
      const Token copy = toks[i];
      toks.insert(toks.begin() + static_cast<std::ptrdiff_t>(i), copy);
    } else if (op == 2) {  // swap two tokens, each keeping its line
      const std::size_t j = pick(toks.size());
      std::swap(toks[i], toks[j]);
      std::swap(toks[i].line, toks[j].line);
    } else {
      const std::size_t line = toks[i].line;
      toks[i] = pool[pick(pool.size())];
      toks[i].line = line;
    }
  }
  m.text = render(toks);
  return m;
}

}  // namespace silc_fixtures
