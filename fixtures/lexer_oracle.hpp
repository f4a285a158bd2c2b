// Token-stream oracle: the two hand-rolled lexers the RTL and SILC front
// ends carried before they shared src/lex/, kept verbatim apart from
// emitting the shared lex::Token (SILC's `Int` is lex::Tok::Number) and
// dropping SILC's unused two-token lookahead. SILC's decimal scan still
// overflows on a literal above INT64_MAX: feed it none.
//
// tests/test_lex.cpp checks that the shared lexer, given a language's
// keyword table, yields the same stream as that language's old lexer on
// every committed source and on every token mutant the old lexer accepts.
#pragma once

#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lang/lang.hpp"
#include "lex/lex.hpp"
#include "rtl/rtl.hpp"

namespace silc_fixtures::oracle {

using silc::lex::Tok;
using silc::lex::Token;

class RtlLexer {
 public:
  explicit RtlLexer(const std::string& src) : src_(src) { advance(); }

  [[nodiscard]] const Token& peek() const { return tok_; }
  Token take() {
    Token t = tok_;
    advance();
    return t;
  }
  [[nodiscard]] bool at(Tok k) const { return tok_.kind == k; }
  Token expect(Tok k, const std::string& what) {
    if (!at(k)) throw silc::rtl::ParseError(tok_.line, "expected " + what);
    return take();
  }
  [[noreturn]] void fail(const std::string& msg) const {
    throw silc::rtl::ParseError(tok_.line, msg);
  }

 private:
  void advance() {
    skip_space();
    tok_ = {};
    tok_.line = line_;
    if (pos_ >= src_.size()) {
      tok_.kind = Tok::End;
      return;
    }
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string w;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_')) {
        w.push_back(src_[pos_++]);
      }
      static const std::map<std::string, Tok> kw = {
          {"processor", Tok::KwProcessor}, {"input", Tok::KwInput},
          {"output", Tok::KwOutput},       {"reg", Tok::KwReg},
          {"wire", Tok::KwWire},           {"always", Tok::KwAlways},
          {"if", Tok::KwIf},               {"else", Tok::KwElse},
          {"case", Tok::KwCase},           {"default", Tok::KwDefault}};
      const auto it = kw.find(w);
      tok_.kind = it == kw.end() ? Tok::Ident : it->second;
      tok_.text = std::move(w);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::uint64_t v = 0;
      if (c == '0' && pos_ + 1 < src_.size() &&
          (src_[pos_ + 1] == 'x' || src_[pos_ + 1] == 'b')) {
        const char base = src_[pos_ + 1];
        pos_ += 2;
        bool any = false;
        while (pos_ < src_.size()) {
          const char d = src_[pos_];
          int digit;
          if (d >= '0' && d <= '9') {
            digit = d - '0';
          } else if (base == 'x' && std::isxdigit(static_cast<unsigned char>(d))) {
            digit = std::tolower(d) - 'a' + 10;
          } else {
            break;
          }
          if (base == 'b' && digit > 1) break;
          v = v * (base == 'x' ? 16 : 2) + static_cast<std::uint64_t>(digit);
          ++pos_;
          any = true;
        }
        if (!any) throw silc::rtl::ParseError(line_, "malformed numeric literal");
      } else {
        while (pos_ < src_.size() &&
               std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
          v = v * 10 + static_cast<std::uint64_t>(src_[pos_++] - '0');
        }
      }
      tok_.kind = Tok::Number;
      tok_.number = v;
      return;
    }
    ++pos_;
    const auto two = [&](char second, Tok yes, Tok no) {
      if (pos_ < src_.size() && src_[pos_] == second) {
        ++pos_;
        tok_.kind = yes;
      } else {
        tok_.kind = no;
      }
    };
    switch (c) {
      case '(': tok_.kind = Tok::LParen; return;
      case ')': tok_.kind = Tok::RParen; return;
      case '{': tok_.kind = Tok::LBrace; return;
      case '}': tok_.kind = Tok::RBrace; return;
      case '[': tok_.kind = Tok::LBracket; return;
      case ']': tok_.kind = Tok::RBracket; return;
      case ';': tok_.kind = Tok::Semi; return;
      case ',': tok_.kind = Tok::Comma; return;
      case '?': tok_.kind = Tok::Question; return;
      case '|': tok_.kind = Tok::Or; return;
      case '&': tok_.kind = Tok::And; return;
      case '^': tok_.kind = Tok::Xor; return;
      case '~': tok_.kind = Tok::Not; return;
      case '+': tok_.kind = Tok::Plus; return;
      case '-': tok_.kind = Tok::Minus; return;
      case '=': two('=', Tok::Eq, Tok::Assign); return;
      case ':': two('=', Tok::NonBlock, Tok::Colon); return;
      case '!':
        if (pos_ < src_.size() && src_[pos_] == '=') {
          ++pos_;
          tok_.kind = Tok::Ne;
          return;
        }
        throw silc::rtl::ParseError(line_, "unexpected '!'");
      case '<':
        if (pos_ < src_.size() && src_[pos_] == '<') {
          ++pos_;
          tok_.kind = Tok::Shl;
        } else {
          two('=', Tok::Le, Tok::Lt);
        }
        return;
      case '>':
        if (pos_ < src_.size() && src_[pos_] == '>') {
          ++pos_;
          tok_.kind = Tok::Shr;
        } else {
          two('=', Tok::Ge, Tok::Gt);
        }
        return;
      default:
        throw silc::rtl::ParseError(line_, std::string("unexpected character '") + c + "'");
    }
  }

  void skip_space() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < src_.size() &&
               !(src_[pos_] == '*' && src_[pos_ + 1] == '/')) {
          if (src_[pos_] == '\n') ++line_;
          ++pos_;
        }
        pos_ += 2;
      } else {
        break;
      }
    }
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  Token tok_;
};

class SilcLexer {
 public:
  explicit SilcLexer(const std::string& src) : src_(src) { advance(); }
  [[nodiscard]] const Token& peek() const { return tok_; }
  Token take() {
    Token t = tok_;
    advance();
    return t;
  }
  [[nodiscard]] bool at(Tok k) const { return tok_.kind == k; }
  Token expect(Tok k, const std::string& what) {
    if (!at(k)) throw silc::lang::SilcError(tok_.line, "expected " + what);
    return take();
  }

 private:
  void advance() {
    skip();
    tok_ = {};
    tok_.line = line_;
    if (pos_ >= src_.size()) {
      tok_.kind = Tok::End;
      return;
    }
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string w;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_')) {
        w.push_back(src_[pos_++]);
      }
      static const std::map<std::string, Tok> kw = {
          {"let", Tok::KwLet},       {"func", Tok::KwFunc},
          {"return", Tok::KwReturn}, {"if", Tok::KwIf},
          {"else", Tok::KwElse},     {"for", Tok::KwFor},
          {"in", Tok::KwIn},         {"while", Tok::KwWhile},
          {"true", Tok::KwTrue},     {"false", Tok::KwFalse},
          {"and", Tok::KwAnd},       {"or", Tok::KwOr},
          {"not", Tok::KwNot}};
      const auto it = kw.find(w);
      tok_.kind = it == kw.end() ? Tok::Ident : it->second;
      tok_.text = std::move(w);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::int64_t v = 0;
      while (pos_ < src_.size() &&
             std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
        v = v * 10 + (src_[pos_++] - '0');
      }
      tok_.kind = Tok::Number;
      tok_.number = v;
      return;
    }
    if (c == '"') {
      ++pos_;
      std::string s;
      while (pos_ < src_.size() && src_[pos_] != '"') {
        if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) {
          ++pos_;
          s.push_back(src_[pos_] == 'n' ? '\n' : src_[pos_]);
          ++pos_;
        } else {
          s.push_back(src_[pos_++]);
        }
      }
      if (pos_ >= src_.size()) throw silc::lang::SilcError(line_, "unterminated string");
      ++pos_;
      tok_.kind = Tok::Str;
      tok_.text = std::move(s);
      return;
    }
    ++pos_;
    const auto two = [&](char second, Tok yes, Tok no) {
      if (pos_ < src_.size() && src_[pos_] == second) {
        ++pos_;
        tok_.kind = yes;
      } else {
        tok_.kind = no;
      }
    };
    switch (c) {
      case '(': tok_.kind = Tok::LParen; return;
      case ')': tok_.kind = Tok::RParen; return;
      case '{': tok_.kind = Tok::LBrace; return;
      case '}': tok_.kind = Tok::RBrace; return;
      case '[': tok_.kind = Tok::LBracket; return;
      case ']': tok_.kind = Tok::RBracket; return;
      case ',': tok_.kind = Tok::Comma; return;
      case ';': tok_.kind = Tok::Semi; return;
      case ':': tok_.kind = Tok::Colon; return;
      case '.': two('.', Tok::DotDot, Tok::Dot); return;
      case '+': tok_.kind = Tok::Plus; return;
      case '-': tok_.kind = Tok::Minus; return;
      case '*': tok_.kind = Tok::Star; return;
      case '/': tok_.kind = Tok::Slash; return;
      case '%': tok_.kind = Tok::Percent; return;
      case '=': two('=', Tok::Eq, Tok::Assign); return;
      case '!': two('=', Tok::Ne, Tok::End); if (tok_.kind == Tok::End) throw silc::lang::SilcError(line_, "unexpected '!'"); return;
      case '<': two('=', Tok::Le, Tok::Lt); return;
      case '>': two('=', Tok::Ge, Tok::Gt); return;
      default:
        throw silc::lang::SilcError(line_, std::string("unexpected character '") + c + "'");
    }
  }

  void skip() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '-' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '-') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  Token tok_;
};

/// The whole stream of `src` under lexer `L`, End included; throws what
/// `L` throws (rtl::ParseError or lang::SilcError).
template <typename L>
std::vector<Token> tokens(const std::string& src) {
  L lex(src);
  std::vector<Token> out;
  while (!lex.at(Tok::End)) out.push_back(lex.take());
  out.push_back(lex.take());
  return out;
}

}  // namespace silc_fixtures::oracle
