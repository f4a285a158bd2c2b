#include "rtl/rtl.hpp"

#include <algorithm>

namespace silc::rtl {

// ----------------------------------------------------------------- Design --

const Signal* Design::find(const std::string& n) const {
  for (const Signal& s : signals) {
    if (s.name == n) return &s;
  }
  return nullptr;
}

std::vector<const Signal*> Design::of_kind(SignalKind k) const {
  std::vector<const Signal*> out;
  for (const Signal& s : signals) {
    if (s.kind == k) out.push_back(&s);
  }
  return out;
}

namespace {

std::size_t bits_of(const Design& d, SignalKind k) {
  std::size_t n = 0;
  for (const Signal& s : d.signals) {
    if (s.kind == k) n += static_cast<std::size_t>(s.width);
  }
  return n;
}

}  // namespace

std::size_t Design::state_bits() const { return bits_of(*this, SignalKind::Reg); }
std::size_t Design::input_bits() const { return bits_of(*this, SignalKind::Input); }
std::size_t Design::output_bits() const { return bits_of(*this, SignalKind::Output); }

std::string Design::summary() const {
  return "processor " + name + ": " + std::to_string(input_bits()) +
         " input, " + std::to_string(output_bits()) + " output, " +
         std::to_string(state_bits()) + " state bits";
}

// ----------------------------------------------------------------- parser --

namespace {

using lex::Tok;
using lex::Token;

ExprPtr make_expr(Expr e) { return std::make_shared<Expr>(std::move(e)); }

ExprPtr make_const(std::uint64_t v, int width) {
  Expr e;
  e.op = Op::Const;
  e.value = mask_to(v, width);
  e.width = width;
  return make_expr(std::move(e));
}

int const_width(std::uint64_t v) {
  int w = 1;
  while (w < 64 && (v >> w) != 0) ++w;
  return w;
}

class Parser {
 public:
  explicit Parser(const std::string& src) : lex_(src, kKeywords) {}

  Design run() {
    lex_.expect(Tok::KwProcessor, "'processor'");
    design_.name = lex_.expect(Tok::Ident, "design name").text;
    lex_.expect(Tok::LParen, "'('");
    while (!lex_.at(Tok::RParen)) parse_port();
    lex_.take();
    lex_.expect(Tok::LBrace, "'{'");
    while (!lex_.at(Tok::RBrace)) parse_item();
    lex_.take();
    lex_.expect(Tok::End, "end of input");
    finish();
    return std::move(design_);
  }

 private:
  void declare(SignalKind kind, const std::string& name, std::uint64_t width,
               std::size_t line) {
    if (design_.find(name) != nullptr) {
      throw ParseError(line, "duplicate signal " + name);
    }
    if (width < 1 || width > 32) {
      throw ParseError(line, "signal width must be 1..32");
    }
    design_.signals.push_back({name, static_cast<int>(width), kind});
  }

  std::uint64_t parse_width() {
    if (!lex_.at(Tok::Lt)) return 1;
    lex_.take();
    const Token w = lex_.expect(Tok::Number, "width");
    lex_.expect(Tok::Gt, "'>'");
    return w.number;
  }

  void parse_port() {
    const Token kw = lex_.take();
    SignalKind kind;
    if (kw.kind == Tok::KwInput) {
      kind = SignalKind::Input;
    } else if (kw.kind == Tok::KwOutput) {
      kind = SignalKind::Output;
    } else {
      throw ParseError(kw.line, "expected input/output port declaration");
    }
    const Token name = lex_.expect(Tok::Ident, "port name");
    const std::uint64_t width = parse_width();
    lex_.expect(Tok::Semi, "';'");
    declare(kind, name.text, width, name.line);
  }

  void parse_item() {
    if (lex_.at(Tok::KwReg) || lex_.at(Tok::KwWire)) {
      const bool is_reg = lex_.take().kind == Tok::KwReg;
      const Token name = lex_.expect(Tok::Ident, "signal name");
      const std::uint64_t width = parse_width();
      lex_.expect(Tok::Semi, "';'");
      declare(is_reg ? SignalKind::Reg : SignalKind::Wire, name.text, width,
              name.line);
      return;
    }
    if (lex_.at(Tok::KwAlways)) {
      lex_.take();
      parse_stmt(nullptr);
      return;
    }
    // Combinational assignment.
    const Token name = lex_.expect(Tok::Ident, "assignment target");
    const Signal* sig = design_.find(name.text);
    if (sig == nullptr) throw ParseError(name.line, "undeclared signal " + name.text);
    if (sig->kind != SignalKind::Wire && sig->kind != SignalKind::Output) {
      throw ParseError(name.line, "'=' target must be a wire or output");
    }
    if (design_.comb.count(name.text) != 0) {
      throw ParseError(name.line, name.text + " assigned twice");
    }
    lex_.expect(Tok::Assign, "'='");
    ExprPtr rhs = parse_expr();
    lex_.expect(Tok::Semi, "';'");
    design_.comb[name.text] = fit(rhs, sig->width);
  }

  // Clocked statements, flattened under `cond` (nullptr = unconditional).
  void parse_stmt(ExprPtr cond) {
    const lex::Depth scope(depth_, lex_);
    if (lex_.at(Tok::LBrace)) {
      lex_.take();
      while (!lex_.at(Tok::RBrace)) parse_stmt(cond);
      lex_.take();
      return;
    }
    if (lex_.at(Tok::KwIf)) {
      lex_.take();
      lex_.expect(Tok::LParen, "'('");
      ExprPtr c = to_bool(parse_expr());
      lex_.expect(Tok::RParen, "')'");
      parse_stmt(conj(cond, c));
      if (lex_.at(Tok::KwElse)) {
        lex_.take();
        parse_stmt(conj(cond, negate(c)));
      }
      return;
    }
    if (lex_.at(Tok::KwCase)) {
      parse_case(cond);
      return;
    }
    const Token name = lex_.expect(Tok::Ident, "register name");
    const Signal* sig = design_.find(name.text);
    if (sig == nullptr) throw ParseError(name.line, "undeclared signal " + name.text);
    if (sig->kind != SignalKind::Reg) {
      throw ParseError(name.line, "':=' target must be a reg");
    }
    lex_.expect(Tok::NonBlock, "':='");
    ExprPtr rhs = fit(parse_expr(), sig->width);
    lex_.expect(Tok::Semi, "';'");
    // next = cond ? rhs : previous-next (later statements override earlier).
    ExprPtr prev = design_.next.count(name.text) != 0
                       ? design_.next[name.text]
                       : ref(name.text, sig->width);
    design_.next[name.text] =
        cond == nullptr ? rhs : mux(cond, rhs, prev, sig->width);
  }

  void parse_case(ExprPtr cond) {
    lex_.take();
    lex_.expect(Tok::LParen, "'('");
    ExprPtr subject = parse_expr();
    lex_.expect(Tok::RParen, "')'");
    lex_.expect(Tok::LBrace, "'{'");
    ExprPtr any_arm;  // OR of all arm conditions, for default
    while (!lex_.at(Tok::RBrace)) {
      if (lex_.at(Tok::KwDefault)) {
        lex_.take();
        lex_.expect(Tok::Colon, "':'");
        ExprPtr not_any = any_arm == nullptr ? nullptr : negate(any_arm);
        parse_stmt(conj(cond, not_any));
        continue;
      }
      const Token k = lex_.expect(Tok::Number, "case label");
      lex_.expect(Tok::Colon, "':'");
      ExprPtr arm = node(Op::Eq, 1, {subject, make_const(k.number, subject->width)});
      any_arm = any_arm == nullptr ? arm : node(Op::Or, 1, {any_arm, arm});
      parse_stmt(conj(cond, arm));
    }
    lex_.take();
  }

  // ---- expression helpers ----
  /// Elaboration chains grow trees past the parse depth: every assignment
  /// to a register under a condition adds a mux to its next state, every
  /// case arm a term to the default's condition. Bounding each node's
  /// height bounds the recursion of everything that walks the design.
  static constexpr int kMaxHeight = 4 * static_cast<int>(lex::kMaxDepth);
  ExprPtr make(Expr e) {
    for (const ExprPtr& a : e.args) e.height = std::max(e.height, a->height + 1);
    if (e.height > kMaxHeight) lex_.fail("nesting too deep");
    return make_expr(std::move(e));
  }
  ExprPtr node(Op op, int width, std::vector<ExprPtr> args) {
    Expr e;
    e.op = op;
    e.width = width;
    e.args = std::move(args);
    return make(std::move(e));
  }
  ExprPtr ref(const std::string& name, int width) {
    Expr e;
    e.op = Op::Ref;
    e.name = name;
    e.width = width;
    return make(std::move(e));
  }
  ExprPtr mux(ExprPtr c, ExprPtr t, ExprPtr f, int width) {
    return node(Op::Mux, width,
                {std::move(c), fit(std::move(t), width), fit(std::move(f), width)});
  }
  ExprPtr negate(ExprPtr c) {
    return node(Op::Eq, 1, {std::move(c), make_const(0, 1)});
  }
  ExprPtr to_bool(ExprPtr c) {
    return c->width == 1 ? c : node(Op::Ne, 1, {c, make_const(0, c->width)});
  }
  ExprPtr conj(ExprPtr a, ExprPtr b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    return node(Op::And, 1, {std::move(a), std::move(b)});
  }
  /// Adapt an expression to an exact width (zero-extend or truncate).
  ExprPtr fit(ExprPtr e, int width) {
    if (e->width == width) return e;
    if (e->width < width) {  // zero-extension via widening concat-with-0
      return node(Op::Concat, width, {make_const(0, width - e->width), e});
    }
    Expr s;
    s.op = Op::Slice;
    s.hi = width - 1;
    s.lo = 0;
    s.width = width;
    s.args = {std::move(e)};
    return make(std::move(s));
  }

  // ---- precedence-climbing expression parser ----
  ExprPtr parse_expr() {
    const lex::Depth scope(depth_, lex_);
    ExprPtr c = parse_binary(0);
    if (lex_.at(Tok::Question)) {
      lex_.take();
      ExprPtr t = parse_expr();
      lex_.expect(Tok::Colon, "':'");
      ExprPtr f = parse_expr();
      const int w = std::max(t->width, f->width);
      c = mux(to_bool(c), t, f, w);
    }
    return c;
  }
  /// The binary operators by precedence level, loosest first. All are
  /// left-associative; comparisons yield one bit, shifts take a constant
  /// amount, the rest yield the operands' common width.
  struct BinOp {
    Tok tok;
    Op op;
    int level;
  };
  static constexpr BinOp kBinOps[] = {
      {Tok::Or, Op::Or, 0},   {Tok::Xor, Op::Xor, 1}, {Tok::And, Op::And, 2},
      {Tok::Eq, Op::Eq, 3},   {Tok::Ne, Op::Ne, 3},   {Tok::Lt, Op::Lt, 4},
      {Tok::Le, Op::Le, 4},   {Tok::Gt, Op::Gt, 4},   {Tok::Ge, Op::Ge, 4},
      {Tok::Shl, Op::Shl, 5}, {Tok::Shr, Op::Shr, 5}, {Tok::Plus, Op::Add, 6},
      {Tok::Minus, Op::Sub, 6}};
  static constexpr int kUnaryLevel = 7;
  ExprPtr parse_binary(int level) {
    if (level == kUnaryLevel) return parse_unary();
    ExprPtr a = parse_binary(level + 1);
    for (;;) {
      const BinOp* b = std::find_if(
          std::begin(kBinOps), std::end(kBinOps),
          [&](const BinOp& o) { return o.level == level && lex_.at(o.tok); });
      if (b == std::end(kBinOps)) return a;
      lex::deepen(depth_, lex_);
      lex_.take();
      if (b->op == Op::Shl || b->op == Op::Shr) {
        const Token amount = lex_.expect(Tok::Number, "constant shift amount");
        a = node(b->op, a->width, {a, make_const(amount.number, 6)});
        continue;
      }
      ExprPtr c = parse_binary(level + 1);
      const int w = std::max(a->width, c->width);
      const bool compare = b->op >= Op::Eq && b->op <= Op::Ge;
      a = node(b->op, compare ? 1 : w, {fit(a, w), fit(c, w)});
    }
  }
  ExprPtr parse_unary() {
    if (!lex_.at(Tok::Not)) return parse_primary();
    lex::deepen(depth_, lex_);
    lex_.take();
    ExprPtr a = parse_unary();
    return node(Op::Not, a->width, {a});
  }
  ExprPtr parse_primary() {
    if (lex_.at(Tok::Number)) {
      const Token t = lex_.take();
      return make_const(t.number, const_width(t.number));
    }
    if (lex_.at(Tok::LParen)) {
      lex_.take();
      ExprPtr e = parse_expr();
      lex_.expect(Tok::RParen, "')'");
      return e;
    }
    if (lex_.at(Tok::LBrace)) {  // concat {a, b, ...}: a is most significant
      lex_.take();
      std::vector<ExprPtr> parts;
      parts.push_back(parse_expr());
      while (lex_.at(Tok::Comma)) {
        lex_.take();
        parts.push_back(parse_expr());
      }
      lex_.expect(Tok::RBrace, "'}'");
      Expr e;
      e.op = Op::Concat;
      for (const ExprPtr& p : parts) e.width += p->width;
      if (e.width > 32) lex_.fail("concatenation wider than 32 bits");
      e.args = std::move(parts);
      return make(std::move(e));
    }
    const Token name = lex_.expect(Tok::Ident, "expression");
    const Signal* sig = design_.find(name.text);
    if (sig == nullptr) throw ParseError(name.line, "undeclared signal " + name.text);
    ExprPtr e = ref(sig->name, sig->width);
    if (lex_.at(Tok::LBracket)) {
      lex_.take();
      const std::uint64_t hi = lex_.expect(Tok::Number, "bit index").number;
      std::uint64_t lo = hi;
      if (lex_.at(Tok::Colon)) {
        lex_.take();
        lo = lex_.expect(Tok::Number, "low bit index").number;
      }
      lex_.expect(Tok::RBracket, "']'");
      if (hi < lo || hi >= static_cast<std::uint64_t>(sig->width)) {
        throw ParseError(name.line, "bit range out of bounds for " + name.text);
      }
      const int h = static_cast<int>(hi), l = static_cast<int>(lo);
      Expr s;
      s.op = h == l ? Op::Index : Op::Slice;
      s.hi = h;
      s.lo = l;
      s.width = h - l + 1;
      s.args = {std::move(e)};
      return make(std::move(s));
    }
    return e;
  }

  void finish() {
    // Every output must have a combinational assignment.
    for (const Signal& s : design_.signals) {
      if (s.kind == SignalKind::Output && design_.comb.count(s.name) == 0) {
        throw ParseError(0, "output " + s.name + " never assigned");
      }
    }
  }

  lex::Lexer lex_;
  Design design_;
  std::size_t depth_ = 0;
};

}  // namespace

Design parse(const std::string& source) {
  try {
    return Parser(source).run();
  } catch (const lex::Error& e) {
    throw ParseError(e.line(), e.what());
  }
}

// -------------------------------------------------------------- simulator --

BehavioralSim::BehavioralSim(const Design& design) : design_(&design) {
  for (const Signal& s : design.signals) {
    if (s.kind == SignalKind::Input || s.kind == SignalKind::Reg) {
      values_[s.name] = 0;
    }
  }
}

void BehavioralSim::set(const std::string& input, std::uint64_t v) {
  const Signal* s = design_->find(input);
  if (s == nullptr || s->kind != SignalKind::Input) {
    throw std::runtime_error("no input named " + input);
  }
  values_[input] = mask_to(v, s->width);
}

void BehavioralSim::poke(const std::string& reg, std::uint64_t v) {
  const Signal* s = design_->find(reg);
  if (s == nullptr || s->kind != SignalKind::Reg) {
    throw std::runtime_error("no register named " + reg);
  }
  values_[reg] = mask_to(v, s->width);
}

std::uint64_t BehavioralSim::next_of(const std::string& reg) const {
  const Signal* s = design_->find(reg);
  if (s == nullptr || s->kind != SignalKind::Reg) {
    throw std::runtime_error("no register named " + reg);
  }
  const auto it = design_->next.find(reg);
  if (it == design_->next.end()) return values_.at(reg);  // never assigned
  return mask_to(eval(*it->second), s->width);
}

std::uint64_t BehavioralSim::get(const std::string& name) const {
  const Signal* s = design_->find(name);
  if (s == nullptr) throw std::runtime_error("no signal named " + name);
  if (s->kind == SignalKind::Input || s->kind == SignalKind::Reg) {
    return values_.at(name);
  }
  const auto it = design_->comb.find(name);
  if (it == design_->comb.end()) {
    throw std::runtime_error("wire " + name + " has no driver");
  }
  if (std::find(eval_stack_.begin(), eval_stack_.end(), name) !=
      eval_stack_.end()) {
    throw std::runtime_error("combinational cycle through " + name);
  }
  eval_stack_.push_back(name);
  const std::uint64_t v = eval(*it->second);
  eval_stack_.pop_back();
  return mask_to(v, s->width);
}

std::uint64_t BehavioralSim::eval(const Expr& e) const {
  const auto arg = [this, &e](std::size_t i) { return eval(*e.args[i]); };
  std::uint64_t v = 0;
  switch (e.op) {
    case Op::Const: v = e.value; break;
    case Op::Ref: v = get(e.name); break;
    case Op::Index:
    case Op::Slice: v = arg(0) >> e.lo; break;
    case Op::Concat: {
      for (const ExprPtr& p : e.args) {
        v = (v << p->width) | mask_to(eval(*p), p->width);
      }
      break;
    }
    case Op::Not: v = ~arg(0); break;
    case Op::And: v = arg(0) & arg(1); break;
    case Op::Or: v = arg(0) | arg(1); break;
    case Op::Xor: v = arg(0) ^ arg(1); break;
    case Op::Add: v = arg(0) + arg(1); break;
    case Op::Sub: v = arg(0) - arg(1); break;
    case Op::Eq: v = arg(0) == arg(1) ? 1 : 0; break;
    case Op::Ne: v = arg(0) != arg(1) ? 1 : 0; break;
    case Op::Lt: v = arg(0) < arg(1) ? 1 : 0; break;
    case Op::Le: v = arg(0) <= arg(1) ? 1 : 0; break;
    case Op::Gt: v = arg(0) > arg(1) ? 1 : 0; break;
    case Op::Ge: v = arg(0) >= arg(1) ? 1 : 0; break;
    case Op::Shl: v = arg(1) >= 64 ? 0 : arg(0) << arg(1); break;
    case Op::Shr: v = arg(1) >= 64 ? 0 : arg(0) >> arg(1); break;
    case Op::Mux: v = arg(0) != 0 ? arg(1) : arg(2); break;
  }
  return mask_to(v, e.width);
}

void BehavioralSim::tick() {
  std::map<std::string, std::uint64_t> next_values = values_;
  for (const auto& [reg, expr] : design_->next) {
    next_values[reg] = mask_to(eval(*expr), design_->find(reg)->width);
  }
  values_ = std::move(next_values);
}

void BehavioralSim::reset() {
  for (const Signal& s : design_->signals) {
    if (s.kind == SignalKind::Reg) values_[s.name] = 0;
  }
}

}  // namespace silc::rtl
