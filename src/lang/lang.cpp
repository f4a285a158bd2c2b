#include "lang/lang.hpp"

#include <sstream>
#include <stdexcept>

#include "cells/cells.hpp"
#include "core/cancel.hpp"
#include "cif/cif.hpp"
#include "drc/drc.hpp"
#include "mem/mem.hpp"

namespace silc::lang {

// -------------------------------------------------------------------- AST --

namespace {

using lex::Tok;

struct ExprNode;
struct StmtNode;
using ExprP = std::unique_ptr<ExprNode>;
using StmtP = std::unique_ptr<StmtNode>;

enum class EK : std::uint8_t {
  Int, Str, Bool, Var, List, Rec, Binary, Unary, Call, Index, Field,
};

struct ExprNode {
  EK kind{};
  std::size_t line = 1;
  std::int64_t number = 0;
  bool boolean = false;
  std::string text;  // Var name, Field name, Str value, Binary/Unary op
  std::vector<ExprP> args;
  std::vector<std::pair<std::string, ExprP>> fields;  // Rec
};

enum class SK : std::uint8_t {
  Let, Assign, IndexAssign, FieldAssign, Expr, Return, If, For, While, Func,
};

struct StmtNode {
  SK kind{};
  std::size_t line = 1;
  std::string name;
  std::vector<std::string> args_names;  // Func parameters
  ExprP a, b, c;                        // various roles
  std::vector<StmtP> body, alt;
};

}  // namespace

struct FuncDecl {
  std::string name;
  std::vector<std::string> params;
  const std::vector<StmtP>* body = nullptr;
  std::size_t line = 1;
};

layout::Cell* RunResult::cell() const {
  if (auto* const* c = std::get_if<layout::Cell*>(&value.v)) return *c;
  return nullptr;
}

std::string Value::to_string() const {
  struct Visitor {
    std::string operator()(std::monostate) const { return "unit"; }
    std::string operator()(std::int64_t i) const { return std::to_string(i); }
    std::string operator()(bool b) const { return b ? "true" : "false"; }
    std::string operator()(const std::string& s) const { return s; }
    std::string operator()(const std::shared_ptr<List>& l) const {
      std::string out = "[";
      for (std::size_t i = 0; i < l->size(); ++i) {
        if (i != 0) out += ", ";
        out += (*l)[i].to_string();
      }
      return out + "]";
    }
    std::string operator()(const std::shared_ptr<Record>& r) const {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : *r) {
        if (!first) out += ", ";
        first = false;
        out += k + ": " + v.to_string();
      }
      return out + "}";
    }
    std::string operator()(layout::Cell* c) const {
      return "<cell " + c->name() + ">";
    }
    std::string operator()(const FuncDecl* f) const {
      return "<func " + f->name + ">";
    }
  };
  return std::visit(Visitor{}, v);
}

// ----------------------------------------------------------------- parser --

namespace {

class Parser {
 public:
  explicit Parser(const std::string& src) : lex_(src, kKeywords) {}

  std::vector<StmtP> run() {
    std::vector<StmtP> prog;
    while (!lex_.at(Tok::End)) prog.push_back(statement());
    return prog;
  }

 private:
  StmtP make(SK k) {
    auto s = std::make_unique<StmtNode>();
    s->kind = k;
    s->line = lex_.peek().line;
    return s;
  }

  std::vector<StmtP> block() {
    lex_.expect(Tok::LBrace, "'{'");
    std::vector<StmtP> body;
    while (!lex_.at(Tok::RBrace)) body.push_back(statement());
    lex_.take();
    return body;
  }

  StmtP statement() {
    const lex::Depth scope(depth_, lex_);
    if (lex_.at(Tok::KwLet)) {
      auto s = make(SK::Let);
      lex_.take();
      s->name = lex_.expect(Tok::Ident, "name").text;
      lex_.expect(Tok::Assign, "'='");
      s->a = expression();
      lex_.expect(Tok::Semi, "';'");
      return s;
    }
    if (lex_.at(Tok::KwFunc)) {
      auto s = make(SK::Func);
      lex_.take();
      s->name = lex_.expect(Tok::Ident, "function name").text;
      lex_.expect(Tok::LParen, "'('");
      while (!lex_.at(Tok::RParen)) {
        s->args_names.push_back(lex_.expect(Tok::Ident, "parameter").text);
        if (lex_.at(Tok::Comma)) lex_.take();
      }
      lex_.take();
      s->body = block();
      return s;
    }
    if (lex_.at(Tok::KwReturn)) {
      auto s = make(SK::Return);
      lex_.take();
      if (!lex_.at(Tok::Semi)) s->a = expression();
      lex_.expect(Tok::Semi, "';'");
      return s;
    }
    if (lex_.at(Tok::KwIf)) return if_statement();
    if (lex_.at(Tok::KwFor)) {
      auto s = make(SK::For);
      lex_.take();
      s->name = lex_.expect(Tok::Ident, "loop variable").text;
      lex_.expect(Tok::KwIn, "'in'");
      s->a = expression();
      lex_.expect(Tok::DotDot, "'..'");
      s->b = expression();
      s->body = block();
      return s;
    }
    if (lex_.at(Tok::KwWhile)) {
      auto s = make(SK::While);
      lex_.take();
      s->a = expression();
      s->body = block();
      return s;
    }
    // Assignment or expression statement.
    auto s = make(SK::Expr);
    s->a = expression();
    if (lex_.at(Tok::Assign)) {
      lex_.take();
      if (s->a->kind == EK::Var) {
        s->kind = SK::Assign;
        s->name = s->a->text;
      } else if (s->a->kind == EK::Index) {
        s->kind = SK::IndexAssign;
      } else if (s->a->kind == EK::Field) {
        s->kind = SK::FieldAssign;
      } else {
        throw SilcError(s->line, "invalid assignment target");
      }
      s->b = expression();
    }
    lex_.expect(Tok::Semi, "';'");
    return s;
  }

  StmtP if_statement() {
    auto s = make(SK::If);
    lex_.take();
    s->a = expression();
    s->body = block();
    if (lex_.at(Tok::KwElse)) {
      lex_.take();
      if (lex_.at(Tok::KwIf)) {
        s->alt.push_back(statement());
      } else {
        s->alt = block();
      }
    }
    return s;
  }

  ExprP make_e(EK k) {
    auto e = std::make_unique<ExprNode>();
    e->kind = k;
    e->line = lex_.peek().line;
    return e;
  }

  ExprP expression() {
    const lex::Depth scope(depth_, lex_);
    return parse_binary(0);
  }

  /// A binary operator's precedence level, loosest first (-1: none).
  static int level_of(Tok t) {
    switch (t) {
      case Tok::KwOr: return 0;
      case Tok::KwAnd: return 1;
      case Tok::Eq: case Tok::Ne: case Tok::Lt:
      case Tok::Le: case Tok::Gt: case Tok::Ge: return 2;
      case Tok::Plus: case Tok::Minus: return 3;
      case Tok::Star: case Tok::Slash: case Tok::Percent: return 4;
      default: return -1;
    }
  }
  static constexpr int kCompareLevel = 2;  // comparisons do not chain
  static constexpr int kUnaryLevel = 5;

  /// Left-associative binary operators at `level` and tighter; a node's
  /// text is its operator's spelling.
  ExprP parse_binary(int level) {
    if (level == kUnaryLevel) return parse_unary();
    ExprP a = parse_binary(level + 1);
    while (level_of(lex_.peek().kind) == level) {
      lex::deepen(depth_, lex_);
      auto e = std::make_unique<ExprNode>();
      e->kind = EK::Binary;
      e->line = a->line;
      e->text = lex::spelling(lex_.take().kind);
      e->args.push_back(std::move(a));
      e->args.push_back(parse_binary(level + 1));
      a = std::move(e);
      if (level == kCompareLevel) break;
    }
    return a;
  }
  ExprP parse_unary() {
    if (lex_.at(Tok::Minus) || lex_.at(Tok::KwNot)) {
      lex::deepen(depth_, lex_);
      auto e = make_e(EK::Unary);
      e->text = lex_.take().kind == Tok::Minus ? "-" : "not";
      e->args.push_back(parse_unary());
      return e;
    }
    return parse_postfix();
  }
  ExprP parse_postfix() {
    ExprP a = parse_primary();
    while (true) {
      if (lex_.at(Tok::LParen) || lex_.at(Tok::LBracket) || lex_.at(Tok::Dot)) {
        lex::deepen(depth_, lex_);
      }
      if (lex_.at(Tok::LParen)) {
        auto call = make_e(EK::Call);
        lex_.take();
        call->args.push_back(std::move(a));
        while (!lex_.at(Tok::RParen)) {
          call->args.push_back(expression());
          if (lex_.at(Tok::Comma)) lex_.take();
        }
        lex_.take();
        a = std::move(call);
      } else if (lex_.at(Tok::LBracket)) {
        auto ix = make_e(EK::Index);
        lex_.take();
        ix->args.push_back(std::move(a));
        ix->args.push_back(expression());
        lex_.expect(Tok::RBracket, "']'");
        a = std::move(ix);
      } else if (lex_.at(Tok::Dot)) {
        auto f = make_e(EK::Field);
        lex_.take();
        f->text = lex_.expect(Tok::Ident, "field name").text;
        f->args.push_back(std::move(a));
        a = std::move(f);
      } else {
        return a;
      }
    }
  }
  ExprP parse_primary() {
    if (lex_.at(Tok::Number)) {
      if (lex_.peek().number > INT64_MAX) lex_.fail("integer literal out of range");
      auto e = make_e(EK::Int);
      e->number = static_cast<std::int64_t>(lex_.take().number);
      return e;
    }
    if (lex_.at(Tok::Str)) {
      auto e = make_e(EK::Str);
      e->text = lex_.take().text;
      return e;
    }
    if (lex_.at(Tok::KwTrue) || lex_.at(Tok::KwFalse)) {
      auto e = make_e(EK::Bool);
      e->boolean = lex_.take().kind == Tok::KwTrue;
      return e;
    }
    if (lex_.at(Tok::Ident)) {
      auto e = make_e(EK::Var);
      e->text = lex_.take().text;
      return e;
    }
    if (lex_.at(Tok::LParen)) {
      lex_.take();
      ExprP e = expression();
      lex_.expect(Tok::RParen, "')'");
      return e;
    }
    if (lex_.at(Tok::LBracket)) {
      auto e = make_e(EK::List);
      lex_.take();
      while (!lex_.at(Tok::RBracket)) {
        e->args.push_back(expression());
        if (lex_.at(Tok::Comma)) lex_.take();
      }
      lex_.take();
      return e;
    }
    if (lex_.at(Tok::LBrace)) {  // record literal
      auto e = make_e(EK::Rec);
      lex_.take();
      while (!lex_.at(Tok::RBrace)) {
        const std::string name = lex_.expect(Tok::Ident, "field name").text;
        lex_.expect(Tok::Colon, "':'");
        e->fields.emplace_back(name, expression());
        if (lex_.at(Tok::Comma)) lex_.take();
      }
      lex_.take();
      return e;
    }
    lex_.fail("expected expression");
  }

  lex::Lexer lex_;
  std::size_t depth_ = 0;
};

}  // namespace

// ------------------------------------------------------------ interpreter --

namespace {

struct ReturnSignal {
  Value value;
};

using Env = std::map<std::string, Value>;

}  // namespace

struct Interpreter::Impl {
  layout::Library& lib;
  std::size_t step_limit;
  std::size_t steps = 0;
  std::ostringstream out;
  std::string last_cif;
  std::vector<StmtP> program;
  std::vector<std::unique_ptr<FuncDecl>> funcs;
  std::vector<Env> scopes;

  explicit Impl(layout::Library& l, std::size_t limit)
      : lib(l), step_limit(limit) {}

  /// One step; every kCancelPoll steps also polls the ambient cancel
  /// token, so a deadline stops a runaway program.
  static constexpr std::size_t kCancelPoll = 4096;
  void tick(std::size_t line) {
    if (++steps > step_limit) throw SilcError(line, "step limit exceeded");
    if (steps % kCancelPoll == 0) core::check_cancel("lang.step");
  }

  const FuncDecl* find_func(const std::string& name) const {
    for (const auto& f : funcs) {
      if (f->name == name) return f.get();
    }
    return nullptr;
  }

  Value* lookup(const std::string& name) {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      const auto f = it->find(name);
      if (f != it->end()) return &f->second;
    }
    return nullptr;
  }

  // ---- builtins ----
  static std::int64_t as_int(const Value& v, std::size_t line) {
    if (const auto* i = std::get_if<std::int64_t>(&v.v)) return *i;
    throw SilcError(line, "expected integer, got " + v.to_string());
  }
  static bool as_bool(const Value& v, std::size_t line) {
    if (const auto* b = std::get_if<bool>(&v.v)) return *b;
    throw SilcError(line, "expected boolean, got " + v.to_string());
  }
  static const std::string& as_str(const Value& v, std::size_t line) {
    if (const auto* s = std::get_if<std::string>(&v.v)) return *s;
    throw SilcError(line, "expected string");
  }
  static layout::Cell* as_cell(const Value& v, std::size_t line) {
    if (auto* const* c = std::get_if<layout::Cell*>(&v.v)) return *c;
    throw SilcError(line, "expected cell");
  }
  static tech::Layer as_layer(const Value& v, std::size_t line) {
    const std::string& s = as_str(v, line);
    for (int i = 0; i < tech::kNumLayers; ++i) {
      if (s == tech::name(static_cast<tech::Layer>(i))) {
        return static_cast<tech::Layer>(i);
      }
    }
    throw SilcError(line, "unknown layer " + s);
  }

  Value builtin(const std::string& name, std::vector<Value>& a, std::size_t line) {
    const auto need = [&](std::size_t n) {
      if (a.size() != n) {
        throw SilcError(line, name + " expects " + std::to_string(n) + " argument(s)");
      }
    };
    if (name == "print") {
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i != 0) out << " ";
        out << a[i].to_string();
      }
      out << "\n";
      return {};
    }
    if (name == "str") {
      need(1);
      return Value(a[0].to_string());
    }
    if (name == "len") {
      need(1);
      if (const auto* l = std::get_if<std::shared_ptr<List>>(&a[0].v)) {
        return Value(static_cast<std::int64_t>((*l)->size()));
      }
      if (const auto* s = std::get_if<std::string>(&a[0].v)) {
        return Value(static_cast<std::int64_t>(s->size()));
      }
      throw SilcError(line, "len expects a list or string");
    }
    if (name == "push") {
      need(2);
      if (const auto* l = std::get_if<std::shared_ptr<List>>(&a[0].v)) {
        (*l)->push_back(a[1]);
        return a[0];
      }
      throw SilcError(line, "push expects a list");
    }
    if (name == "cell") {
      need(1);
      return Value(&lib.create(as_str(a[0], line)));
    }
    if (name == "rect") {
      need(6);
      as_cell(a[0], line)
          ->add_rect(as_layer(a[1], line),
                     {as_int(a[2], line), as_int(a[3], line), as_int(a[4], line),
                      as_int(a[5], line)});
      return {};
    }
    if (name == "place") {
      if (a.size() != 4 && a.size() != 5) {
        throw SilcError(line, "place expects (parent, child, x, y [, orient])");
      }
      geom::Orient o = geom::Orient::R0;
      if (a.size() == 5) {
        const std::string& os = as_str(a[4], line);
        bool found = false;
        for (int i = 0; i < 8; ++i) {
          if (os == geom::to_string(static_cast<geom::Orient>(i))) {
            o = static_cast<geom::Orient>(i);
            found = true;
          }
        }
        if (!found) throw SilcError(line, "unknown orientation " + os);
      }
      try {
        as_cell(a[0], line)
            ->add_instance(*as_cell(a[1], line),
                           {o, {as_int(a[2], line), as_int(a[3], line)}});
      } catch (const std::invalid_argument& e) {
        throw SilcError(line, e.what());  // recursive placement
      }
      return {};
    }
    if (name == "label") {
      need(5);
      as_cell(a[0], line)
          ->add_label(as_str(a[1], line), as_layer(a[2], line),
                      {as_int(a[3], line), as_int(a[4], line)});
      return {};
    }
    if (name == "port") {
      need(7);
      as_cell(a[0], line)
          ->add_port(as_str(a[1], line), as_layer(a[2], line),
                     {as_int(a[3], line), as_int(a[4], line), as_int(a[5], line),
                      as_int(a[6], line)});
      return {};
    }
    if (name == "width" || name == "height") {
      need(1);
      const geom::Rect bb = as_cell(a[0], line)->bbox();
      return Value(static_cast<std::int64_t>(name == "width" ? bb.width()
                                                             : bb.height()));
    }
    if (name == "flat_count") {
      need(1);
      return Value(static_cast<std::int64_t>(as_cell(a[0], line)->flat_shape_count()));
    }
    if (name == "port_rect") {
      need(2);
      const layout::Port* p = as_cell(a[0], line)->find_port(as_str(a[1], line));
      if (p == nullptr) throw SilcError(line, "no port " + as_str(a[1], line));
      auto r = std::make_shared<Record>();
      (*r)["x0"] = Value(static_cast<std::int64_t>(p->rect.x0));
      (*r)["y0"] = Value(static_cast<std::int64_t>(p->rect.y0));
      (*r)["x1"] = Value(static_cast<std::int64_t>(p->rect.x1));
      (*r)["y1"] = Value(static_cast<std::int64_t>(p->rect.y1));
      Value v;
      v.v = r;
      return v;
    }
    if (name == "write_cif") {
      need(1);
      last_cif = cif::write(*as_cell(a[0], line));
      return Value(last_cif);
    }
    if (name == "drc_violations") {
      need(1);
      return Value(static_cast<std::int64_t>(
          drc::check(*as_cell(a[0], line)).violations.size()));
    }
    // Cell generators.
    if (name == "inv") {
      need(1);
      return Value(&cells::inverter(
          lib, {.pullup_len = static_cast<int>(as_int(a[0], line))}));
    }
    if (name == "nand2") {
      need(0);
      return Value(&cells::nand2(lib));
    }
    if (name == "nor2") {
      need(0);
      return Value(&cells::nor2(lib));
    }
    if (name == "passgate") {
      need(0);
      return Value(&cells::pass_gate(lib));
    }
    if (name == "shiftstage") {
      need(0);
      return Value(&cells::shift_stage(lib));
    }
    if (name == "bondpad") {
      need(1);
      return Value(&cells::bond_pad(
          lib, {.size = static_cast<int>(as_int(a[0], line))}));
    }
    if (name == "rom") {
      need(2);
      const auto* l = std::get_if<std::shared_ptr<List>>(&a[0].v);
      if (l == nullptr) throw SilcError(line, "rom expects a list of words");
      std::vector<std::uint32_t> words;
      for (const Value& w : **l) {
        words.push_back(static_cast<std::uint32_t>(as_int(w, line)));
      }
      const auto r =
          mem::generate_rom(lib, words, static_cast<int>(as_int(a[1], line)));
      return Value(r.cell);
    }
    throw SilcError(line, "unknown function " + name);
  }

  // ---- evaluation ----
  Value eval(const ExprNode& e) {
    tick(e.line);
    switch (e.kind) {
      case EK::Int: return Value(e.number);
      case EK::Str: return Value(e.text);
      case EK::Bool: return Value(e.boolean);
      case EK::Var: {
        if (Value* v = lookup(e.text)) return *v;
        if (const FuncDecl* f = find_func(e.text)) {
          Value v;
          v.v = f;
          return v;
        }
        throw SilcError(e.line, "undefined name " + e.text);
      }
      case EK::List: {
        auto l = std::make_shared<List>();
        for (const ExprP& a : e.args) l->push_back(eval(*a));
        Value v;
        v.v = l;
        return v;
      }
      case EK::Rec: {
        auto r = std::make_shared<Record>();
        for (const auto& [name, expr] : e.fields) (*r)[name] = eval(*expr);
        Value v;
        v.v = r;
        return v;
      }
      case EK::Unary: {
        Value a = eval(*e.args[0]);
        if (e.text != "-") return Value(!as_bool(a, e.line));
        std::int64_t r = 0;
        if (__builtin_sub_overflow(std::int64_t{0}, as_int(a, e.line), &r)) {
          throw SilcError(e.line, "integer overflow in -");
        }
        return Value(r);
      }
      case EK::Binary: return eval_binary(e);
      case EK::Index: {
        Value base = eval(*e.args[0]);
        const std::int64_t i = as_int(eval(*e.args[1]), e.line);
        const auto* l = std::get_if<std::shared_ptr<List>>(&base.v);
        if (l == nullptr) throw SilcError(e.line, "indexing a non-list");
        if (i < 0 || static_cast<std::size_t>(i) >= (*l)->size()) {
          throw SilcError(e.line, "index " + std::to_string(i) + " out of range");
        }
        return (**l)[static_cast<std::size_t>(i)];
      }
      case EK::Field: {
        Value base = eval(*e.args[0]);
        const auto* r = std::get_if<std::shared_ptr<Record>>(&base.v);
        if (r == nullptr) throw SilcError(e.line, "field access on a non-record");
        const auto it = (*r)->find(e.text);
        if (it == (*r)->end()) throw SilcError(e.line, "no field " + e.text);
        return it->second;
      }
      case EK::Call: return eval_call(e);
    }
    throw SilcError(e.line, "bad expression");
  }

  Value eval_binary(const ExprNode& e) {
    const std::string& op = e.text;
    if (op == "and") {
      return Value(as_bool(eval(*e.args[0]), e.line) &&
                   as_bool(eval(*e.args[1]), e.line));
    }
    if (op == "or") {
      return Value(as_bool(eval(*e.args[0]), e.line) ||
                   as_bool(eval(*e.args[1]), e.line));
    }
    Value a = eval(*e.args[0]);
    Value b = eval(*e.args[1]);
    // String concatenation and comparisons.
    if (std::holds_alternative<std::string>(a.v) ||
        std::holds_alternative<std::string>(b.v)) {
      if (op == "+") return Value(a.to_string() + b.to_string());
      if (op == "==") return Value(a.to_string() == b.to_string());
      if (op == "!=") return Value(a.to_string() != b.to_string());
      throw SilcError(e.line, "bad string operation " + op);
    }
    const std::int64_t x = as_int(a, e.line);
    const std::int64_t y = as_int(b, e.line);
    if (op == "==") return Value(x == y);
    if (op == "!=") return Value(x != y);
    if (op == "<") return Value(x < y);
    if (op == "<=") return Value(x <= y);
    if (op == ">") return Value(x > y);
    if (op == ">=") return Value(x >= y);
    std::int64_t r = 0;
    bool overflow = false;
    if (op == "+") {
      overflow = __builtin_add_overflow(x, y, &r);
    } else if (op == "-") {
      overflow = __builtin_sub_overflow(x, y, &r);
    } else if (op == "*") {
      overflow = __builtin_mul_overflow(x, y, &r);
    } else if (op == "/" || op == "%") {
      if (y == 0) {
        throw SilcError(e.line, op == "/" ? "division by zero" : "modulo by zero");
      }
      overflow = x == INT64_MIN && y == -1;  // the quotient is INT64_MAX + 1
      if (!overflow) r = op == "/" ? x / y : x % y;
    } else {
      throw SilcError(e.line, "bad operator " + op);
    }
    if (overflow) throw SilcError(e.line, "integer overflow in " + op);
    return Value(r);
  }

  Value eval_call(const ExprNode& e) {
    const ExprNode& callee = *e.args[0];
    std::vector<Value> args;
    for (std::size_t i = 1; i < e.args.size(); ++i) args.push_back(eval(*e.args[i]));

    // User function (by name or by value)?
    const FuncDecl* fn = nullptr;
    if (callee.kind == EK::Var) {
      if (Value* v = lookup(callee.text)) {
        if (const auto* f = std::get_if<const FuncDecl*>(&v->v)) fn = *f;
      }
      if (fn == nullptr) fn = find_func(callee.text);
      if (fn == nullptr) return builtin(callee.text, args, e.line);
    } else {
      Value v = eval(callee);
      if (const auto* f = std::get_if<const FuncDecl*>(&v.v)) {
        fn = *f;
      } else {
        throw SilcError(e.line, "calling a non-function");
      }
    }
    if (args.size() != fn->params.size()) {
      throw SilcError(e.line, fn->name + " expects " +
                                  std::to_string(fn->params.size()) +
                                  " argument(s)");
    }
    Env frame;
    for (std::size_t i = 0; i < args.size(); ++i) {
      frame[fn->params[i]] = std::move(args[i]);
    }
    scopes.push_back(std::move(frame));
    if (scopes.size() > 200) throw SilcError(e.line, "recursion too deep");
    Value result;
    try {
      for (const StmtP& s : *fn->body) exec(*s);
    } catch (ReturnSignal& r) {
      result = std::move(r.value);
    }
    scopes.pop_back();
    return result;
  }

  void exec(const StmtNode& s) {
    tick(s.line);
    switch (s.kind) {
      case SK::Let:
        scopes.back()[s.name] = eval(*s.a);
        return;
      case SK::Assign: {
        Value* v = lookup(s.name);
        if (v == nullptr) throw SilcError(s.line, "undefined name " + s.name);
        *v = eval(*s.b);
        return;
      }
      case SK::IndexAssign: {
        Value base = eval(*s.a->args[0]);
        const std::int64_t i = as_int(eval(*s.a->args[1]), s.line);
        const auto* l = std::get_if<std::shared_ptr<List>>(&base.v);
        if (l == nullptr) throw SilcError(s.line, "indexing a non-list");
        if (i < 0 || static_cast<std::size_t>(i) >= (*l)->size()) {
          throw SilcError(s.line, "index out of range");
        }
        (**l)[static_cast<std::size_t>(i)] = eval(*s.b);
        return;
      }
      case SK::FieldAssign: {
        Value base = eval(*s.a->args[0]);
        const auto* r = std::get_if<std::shared_ptr<Record>>(&base.v);
        if (r == nullptr) throw SilcError(s.line, "field access on a non-record");
        (**r)[s.a->text] = eval(*s.b);
        return;
      }
      case SK::Expr:
        eval(*s.a);
        return;
      case SK::Return: {
        ReturnSignal sig;
        if (s.a) sig.value = eval(*s.a);
        throw sig;
      }
      case SK::If: {
        if (as_bool(eval(*s.a), s.line)) {
          run_block(s.body);
        } else {
          run_block(s.alt);
        }
        return;
      }
      case SK::For: {
        const std::int64_t lo = as_int(eval(*s.a), s.line);
        const std::int64_t hi = as_int(eval(*s.b), s.line);
        scopes.emplace_back();
        for (std::int64_t i = lo; i <= hi; ++i) {
          scopes.back()[s.name] = Value(i);
          run_block(s.body);
          if (i == hi) break;  // ++i would overflow at INT64_MAX
        }
        scopes.pop_back();
        return;
      }
      case SK::While: {
        while (as_bool(eval(*s.a), s.line)) {
          tick(s.line);
          run_block(s.body);
        }
        return;
      }
      case SK::Func: {
        auto f = std::make_unique<FuncDecl>();
        f->name = s.name;
        f->params = s.args_names;
        f->body = &s.body;
        f->line = s.line;
        funcs.push_back(std::move(f));
        return;
      }
    }
  }

  void run_block(const std::vector<StmtP>& body) {
    scopes.emplace_back();
    try {
      for (const StmtP& s : body) exec(*s);
    } catch (...) {
      scopes.pop_back();
      throw;
    }
    scopes.pop_back();
  }

  RunResult run(const std::string& source) {
    try {
      program = Parser(source).run();
    } catch (const lex::Error& e) {
      throw SilcError(e.line(), e.what());
    }
    scopes.clear();
    scopes.emplace_back();
    RunResult result;
    try {
      for (const StmtP& s : program) exec(*s);
    } catch (ReturnSignal& r) {
      result.value = std::move(r.value);
    }
    result.output = out.str();
    result.cif = last_cif;
    result.steps = steps;
    return result;
  }
};

Interpreter::Interpreter(layout::Library& lib, std::size_t step_limit)
    : impl_(std::make_unique<Impl>(lib, step_limit)) {}

Interpreter::~Interpreter() = default;

RunResult Interpreter::run(const std::string& source) { return impl_->run(source); }

RunResult run_program(const std::string& source, layout::Library& lib) {
  Interpreter interp(lib);
  return interp.run(source);
}

}  // namespace silc::lang
