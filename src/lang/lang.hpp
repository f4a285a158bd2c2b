// SILC: the extensible generator language.
//
// The paper's session presents "an extensible language system with
// associated programming environment" whose programs, when run, emit
// manufacturing data; "structured designs can be described by structured
// programs and ... data type extensions provides a method of putting
// together hierarchical descriptions". SILC reproduces those capabilities:
//
//   * structured programs: functions, loops, conditionals, recursion;
//   * data-type extension: record values ({x: 1, y: 2}) composed with
//     functions acting as constructors/methods over them;
//   * parameterised specification: any generator is a function of its
//     parameters;
//   * hierarchy: cells are first-class values; `place` instantiates one
//     cell inside another, and the cell library is shared with the C++
//     generators (inv/nand2/nor2/rom/... are built in).
//
// Example (a parameterised shift-register row):
//
//   func sr_row(n) {
//     let row = cell("row" + str(n));
//     let stage = shiftstage();
//     for i in 0 .. n - 1 { place(row, stage, i * 76, 0); }
//     return row;
//   }
//   write_cif(sr_row(8));
//
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "layout/layout.hpp"
#include "lex/lex.hpp"

namespace silc::lang {

/// SILC's keywords in the shared token table (lex/lex.hpp); every other
/// word is an identifier.
inline constexpr lex::Tok kKeywords[] = {
    lex::Tok::KwLet,  lex::Tok::KwFunc,  lex::Tok::KwReturn,
    lex::Tok::KwIf,   lex::Tok::KwElse,  lex::Tok::KwFor,
    lex::Tok::KwIn,   lex::Tok::KwWhile, lex::Tok::KwTrue,
    lex::Tok::KwFalse, lex::Tok::KwAnd,  lex::Tok::KwOr,
    lex::Tok::KwNot};

class SilcError : public std::runtime_error {
 public:
  SilcError(std::size_t line, const std::string& message)
      : std::runtime_error("silc line " + std::to_string(line) + ": " + message),
        line_(line) {}
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

struct Value;
using List = std::vector<Value>;
using Record = std::map<std::string, Value>;

struct FuncDecl;  // opaque AST node

struct Value {
  std::variant<std::monostate, std::int64_t, bool, std::string,
               std::shared_ptr<List>, std::shared_ptr<Record>, layout::Cell*,
               const FuncDecl*>
      v;

  Value() = default;
  Value(std::int64_t i) : v(i) {}                       // NOLINT(google-explicit-constructor)
  Value(bool b) : v(b) {}                               // NOLINT
  Value(std::string s) : v(std::move(s)) {}             // NOLINT
  Value(layout::Cell* c) : v(c) {}                      // NOLINT

  [[nodiscard]] bool is_unit() const {
    return std::holds_alternative<std::monostate>(v);
  }
  [[nodiscard]] std::string to_string() const;
};

struct RunResult {
  Value value;            // value of a top-level `return`, else unit
  std::string output;     // everything print() wrote
  std::string cif;        // last write_cif() result
  std::size_t steps = 0;  // statements + expressions evaluated

  /// The returned cell, when the program's top-level `return` was one
  /// (nullptr otherwise) — what the structural compile flow builds on.
  [[nodiscard]] layout::Cell* cell() const;
};

class Interpreter {
 public:
  /// Generated cells are created in `lib` and outlive the interpreter.
  explicit Interpreter(layout::Library& lib, std::size_t step_limit = 10'000'000);
  ~Interpreter();

  /// Parse and execute a program. Throws SilcError on any error, and
  /// lets core::Cancelled through when the calling thread's ambient
  /// cancel token (core/cancel.hpp) fires mid-run.
  RunResult run(const std::string& source);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot convenience.
RunResult run_program(const std::string& source, layout::Library& lib);

}  // namespace silc::lang
