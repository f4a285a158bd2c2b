// The one lexer under both front ends, the behavioral RTL (rtl/) and the
// SILC generator language (lang/): one lexical grammar, one dense token
// enum and one spelling table.
//
//   * whitespace; `//` and `--` line comments; `/* */` block comments;
//   * identifiers [A-Za-z_][A-Za-z0-9_]*;
//   * decimal, `0x` and `0b` literals, which must fit in 64 bits;
//   * "..." strings with backslash escapes (`\n` is a newline, `\c` is c);
//   * punctuation by longest match over the union of both languages.
//
// Only the keyword table is per language, passed in as data: `in`, `let`,
// `input` and `output` are keywords of one language and identifiers in the
// other. Each form one language gains from the other is invalid in its
// grammar: RTL has no unary minus (`--`), SILC no unary `*` (`/*`). The
// lexer throws lex::Error; each front end rethrows it as its own error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace silc::lex {

/// Every token of both languages: the variable-text kinds, then the
/// punctuation (the longest-match table), then every keyword.
enum class Tok : std::uint8_t {
  End, Ident, Number, Str,
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Comma, Semi, Colon, Question, Dot, DotDot,
  Assign, NonBlock,  // = and :=
  Plus, Minus, Star, Slash, Percent,
  Or, And, Xor, Not,  // | & ^ ~
  Eq, Ne, Lt, Le, Gt, Ge, Shl, Shr,
  KwProcessor, KwInput, KwOutput, KwReg, KwWire, KwAlways, KwCase, KwDefault,
  KwIf, KwElse,
  KwLet, KwFunc, KwReturn, KwFor, KwIn, KwWhile, KwTrue, KwFalse,
  KwAnd, KwOr, KwNot,
};
inline constexpr std::size_t kNumToks = static_cast<std::size_t>(Tok::KwNot) + 1;

/// How a fixed token is written ("" for End, Ident, Number and Str).
[[nodiscard]] std::string_view spelling(Tok t);

struct Token {
  Tok kind = Tok::End;
  std::string text;          // Ident name, keyword, Str value
  std::uint64_t number = 0;  // Number
  std::size_t line = 1;
};

/// A lexical or syntax error; what() is the bare message.
class Error : public std::runtime_error {
 public:
  Error(std::size_t line, const std::string& message)
      : std::runtime_error(message), line_(line) {}
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// The cursor: one token of lookahead over `src` (which must outlive it).
class Lexer {
 public:
  /// `keywords` is the language's keyword table; it must outlive the lexer.
  Lexer(std::string_view src, std::span<const Tok> keywords);

  [[nodiscard]] const Token& peek() const { return tok_; }
  Token take();
  [[nodiscard]] bool at(Tok k) const { return tok_.kind == k; }
  /// Take a `k`, or fail with "expected <what>".
  Token expect(Tok k, const std::string& what);
  /// Throw Error at the current token's line.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  void advance();
  void skip();

  std::string_view src_;
  std::span<const Tok> keywords_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  Token tok_;
};

/// How deep either parser may nest. Every bracket, block, statement,
/// prefix and binary operator on the current parse path counts one level,
/// so the limit bounds the height of every tree a parser builds, and the
/// recursion of everything that walks it.
inline constexpr std::size_t kMaxDepth = 256;

/// One level deeper on a parser's path: "nesting too deep" past kMaxDepth.
inline void deepen(std::size_t& depth, const Lexer& lex) {
  if (++depth > kMaxDepth) lex.fail("nesting too deep");
}

/// One level deeper for a scope (an expression, a statement). The depth it
/// started at comes back on exit, releasing the operators counted inside.
class Depth {
 public:
  Depth(std::size_t& depth, const Lexer& lex) : depth_(depth), outer_(depth) {
    deepen(depth, lex);
  }
  ~Depth() { depth_ = outer_; }
  Depth(const Depth&) = delete;
  Depth& operator=(const Depth&) = delete;

 private:
  std::size_t& depth_;
  std::size_t outer_;
};

/// The whole stream of `src`, End included.
[[nodiscard]] std::vector<Token> tokenize(std::string_view src,
                                          std::span<const Tok> keywords);

}  // namespace silc::lex
