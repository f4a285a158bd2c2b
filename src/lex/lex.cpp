#include "lex/lex.hpp"

#include <array>
#include <cctype>

namespace silc::lex {

namespace {

// Indexed by Tok: the one table the lexer, both parsers' keyword tables and
// the token-mutation fuzz share.
constexpr std::array<std::string_view, kNumToks> kSpelling = {
    "", "", "", "",
    "(", ")", "{", "}", "[", "]",
    ",", ";", ":", "?", ".", "..",
    "=", ":=",
    "+", "-", "*", "/", "%",
    "|", "&", "^", "~",
    "==", "!=", "<", "<=", ">", ">=", "<<", ">>",
    "processor", "input", "output", "reg", "wire", "always", "case", "default",
    "if", "else",
    "let", "func", "return", "for", "in", "while", "true", "false",
    "and", "or", "not",
};

constexpr auto kFirstPunct = static_cast<std::size_t>(Tok::LParen);
constexpr auto kLastPunct = static_cast<std::size_t>(Tok::Shr);

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// The value of digit `c` in `base`, or -1.
int digit_value(char c, unsigned base) {
  int d = -1;
  if (c >= '0' && c <= '9') {
    d = c - '0';
  } else if (base == 16 && std::isxdigit(static_cast<unsigned char>(c))) {
    d = std::tolower(static_cast<unsigned char>(c)) - 'a' + 10;
  }
  return d >= 0 && static_cast<unsigned>(d) < base ? d : -1;
}

}  // namespace

std::string_view spelling(Tok t) { return kSpelling[static_cast<std::size_t>(t)]; }

Lexer::Lexer(std::string_view src, std::span<const Tok> keywords)
    : src_(src), keywords_(keywords) {
  advance();
}

Token Lexer::take() {
  Token t = std::move(tok_);
  advance();
  return t;
}

Token Lexer::expect(Tok k, const std::string& what) {
  if (!at(k)) fail("expected " + what);
  return take();
}

void Lexer::fail(const std::string& message) const {
  throw Error(tok_.line, message);
}

void Lexer::skip() {
  while (pos_ < src_.size()) {
    const char c = src_[pos_];
    const char next = pos_ + 1 < src_.size() ? src_[pos_ + 1] : '\0';
    if (c == '\n') {
      ++line_;
      ++pos_;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos_;
    } else if ((c == '/' && next == '/') || (c == '-' && next == '-')) {
      while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
    } else if (c == '/' && next == '*') {
      const std::size_t open = line_;
      pos_ += 2;
      while (pos_ + 1 < src_.size() &&
             !(src_[pos_] == '*' && src_[pos_ + 1] == '/')) {
        if (src_[pos_] == '\n') ++line_;
        ++pos_;
      }
      if (pos_ + 1 >= src_.size()) throw Error(open, "unterminated comment");
      pos_ += 2;
    } else {
      break;
    }
  }
}

void Lexer::advance() {
  skip();
  tok_ = {};
  tok_.line = line_;
  if (pos_ >= src_.size()) return;  // End
  const char c = src_[pos_];
  if (ident_start(c)) {
    const std::size_t start = pos_;
    while (pos_ < src_.size() && ident_char(src_[pos_])) ++pos_;
    const std::string_view word = src_.substr(start, pos_ - start);
    tok_.kind = Tok::Ident;
    for (const Tok k : keywords_) {
      if (spelling(k) == word) tok_.kind = k;
    }
    tok_.text = word;
    return;
  }
  if (std::isdigit(static_cast<unsigned char>(c))) {
    unsigned base = 10;
    const char prefix = pos_ + 1 < src_.size() ? src_[pos_ + 1] : '\0';
    if (c == '0' && (prefix == 'x' || prefix == 'b')) {
      base = prefix == 'x' ? 16 : 2;
      pos_ += 2;
      if (pos_ >= src_.size() || digit_value(src_[pos_], base) < 0) {
        fail("malformed numeric literal");
      }
    }
    std::uint64_t v = 0;
    for (int d; pos_ < src_.size() && (d = digit_value(src_[pos_], base)) >= 0;
         ++pos_) {
      if (v > (UINT64_MAX - static_cast<unsigned>(d)) / base) {
        fail("numeric literal does not fit in 64 bits");
      }
      v = v * base + static_cast<unsigned>(d);
    }
    tok_.kind = Tok::Number;
    tok_.number = v;
    return;
  }
  if (c == '"') {
    ++pos_;
    std::string s;
    while (pos_ < src_.size() && src_[pos_] != '"') {
      const bool escaped = src_[pos_] == '\\' && pos_ + 1 < src_.size();
      if (escaped) ++pos_;
      const char ch = src_[pos_++];
      if (ch == '\n') ++line_;
      s.push_back(escaped && ch == 'n' ? '\n' : ch);
    }
    if (pos_ >= src_.size()) fail("unterminated string");
    ++pos_;
    tok_.kind = Tok::Str;
    tok_.text = std::move(s);
    return;
  }
  std::size_t best = 0;
  for (std::size_t k = kFirstPunct; k <= kLastPunct; ++k) {
    const std::string_view p = kSpelling[k];
    if (p.size() > best && src_.substr(pos_, p.size()) == p) {
      best = p.size();
      tok_.kind = static_cast<Tok>(k);
    }
  }
  if (best == 0) fail(std::string("unexpected character '") + c + "'");
  pos_ += best;
}

std::vector<Token> tokenize(std::string_view src, std::span<const Tok> keywords) {
  std::vector<Token> out;
  Lexer lex(src, keywords);
  while (!lex.at(Tok::End)) out.push_back(lex.take());
  out.push_back(lex.take());
  return out;
}

}  // namespace silc::lex
