// ISPS-inspired register-transfer language (the paper's reference [4]
// lineage: Barbacci et al., "The ISPS Computer Description Language").
//
// A design is a `processor` with ports, registers and wires, combinational
// assignments (`=`) and clocked assignments (`:=`) inside `always` blocks:
//
//   processor counter (input reset; output value<4>;) {
//     reg count<4>;
//     value = count;
//     always {
//       if (reset) count := 0; else count := count + 1;
//     }
//   }
//
// Expressions: | ^ & + - == != < <= > >= << >> ~ ?: bit-select x[i],
// slice x[hi:lo], concat {a, b, ...}; decimal/0x/0b constants; widths are
// 1..32 bits, all arithmetic is unsigned modulo the result width. The
// lexical grammar is the one lex/lex.hpp shares with the SILC language.
//
// Elaboration flattens every `always` into one next-state expression per
// register (condition trees become mux chains; unassigned paths hold).
// All registers share the implicit two-phase clock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "lex/lex.hpp"

namespace silc::rtl {

/// The RTL's keywords in the shared token table; every other word is an
/// identifier.
inline constexpr lex::Tok kKeywords[] = {
    lex::Tok::KwProcessor, lex::Tok::KwInput, lex::Tok::KwOutput,
    lex::Tok::KwReg,       lex::Tok::KwWire,  lex::Tok::KwAlways,
    lex::Tok::KwIf,        lex::Tok::KwElse,  lex::Tok::KwCase,
    lex::Tok::KwDefault};

enum class Op : std::uint8_t {
  Const, Ref, Index, Slice, Concat,
  Not,  // bitwise ~
  And, Or, Xor, Add, Sub,
  Eq, Ne, Lt, Le, Gt, Ge,
  Shl, Shr,  // right operand must be constant
  Mux,       // args: {cond, then, else}
};

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr {
  Op op{};
  int width = 0;               // resolved result width
  std::uint64_t value = 0;     // Const
  std::string name;            // Ref
  int hi = 0, lo = 0;          // Index/Slice
  std::vector<ExprPtr> args;
  int height = 1;              // longest path to a leaf (parse bounds it)
};

enum class SignalKind : std::uint8_t { Input, Output, Reg, Wire };

struct Signal {
  std::string name;
  int width = 1;
  SignalKind kind{};
};

struct Design {
  std::string name;
  std::vector<Signal> signals;
  /// Combinational assignment per wire/output name.
  std::map<std::string, ExprPtr> comb;
  /// Flattened next-state expression per register name.
  std::map<std::string, ExprPtr> next;

  [[nodiscard]] const Signal* find(const std::string& n) const;
  [[nodiscard]] std::vector<const Signal*> of_kind(SignalKind k) const;
  [[nodiscard]] std::size_t state_bits() const;
  [[nodiscard]] std::size_t input_bits() const;
  [[nodiscard]] std::size_t output_bits() const;
  /// One-line census ("processor X: I input, O output, S state bits") for
  /// reports and the compiler's diagnostics stream.
  [[nodiscard]] std::string summary() const;
};

class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Parse and elaborate; throws ParseError on any syntax or semantic error.
[[nodiscard]] Design parse(const std::string& source);

/// Mask to `width` bits.
[[nodiscard]] constexpr std::uint64_t mask_to(std::uint64_t v, int width) {
  return width >= 64 ? v : (v & ((std::uint64_t{1} << width) - 1));
}

/// Cycle-accurate behavioral simulator over a Design.
class BehavioralSim {
 public:
  explicit BehavioralSim(const Design& design);

  void set(const std::string& input, std::uint64_t v);
  /// Force a register value (used by the synthesizer to tabulate the
  /// next-state function over every state).
  void poke(const std::string& reg, std::uint64_t v);
  /// Current value of any signal (wires evaluated on demand).
  [[nodiscard]] std::uint64_t get(const std::string& signal) const;
  /// The value `reg` would take at the next clock edge.
  [[nodiscard]] std::uint64_t next_of(const std::string& reg) const;
  /// Clock edge: all registers take their next-state values.
  void tick();
  /// All registers to zero.
  void reset();

  [[nodiscard]] const Design& design() const { return *design_; }

 private:
  [[nodiscard]] std::uint64_t eval(const Expr& e) const;

  const Design* design_;
  std::map<std::string, std::uint64_t> values_;  // inputs + regs
  mutable std::vector<std::string> eval_stack_;  // combinational cycle guard
};

}  // namespace silc::rtl
