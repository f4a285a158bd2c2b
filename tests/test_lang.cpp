// SILC language tests: structured programs, data-type extension (records),
// parameterised generation, and the text -> layout -> CIF pipeline.
#include <gtest/gtest.h>

#include "drc/drc.hpp"
#include "lang/lang.hpp"

namespace silc::lang {
namespace {

RunResult run(const std::string& src, layout::Library& lib) {
  return run_program(src, lib);
}

TEST(Silc, ArithmeticAndControlFlow) {
  layout::Library lib;
  const RunResult r = run(R"(
    let total = 0;
    for i in 1 .. 10 { total = total + i; }
    let n = 0;
    while n * n < 50 { n = n + 1; }
    if total == 55 and n == 8 { print("ok", total, n); }
    else { print("bad"); }
  )", lib);
  EXPECT_EQ(r.output, "ok 55 8\n");
}

TEST(Silc, FunctionsAndRecursion) {
  layout::Library lib;
  const RunResult r = run(R"(
    func fib(n) {
      if n < 2 { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    print(fib(15));
  )", lib);
  EXPECT_EQ(r.output, "610\n");
}

TEST(Silc, ListsAndStrings) {
  layout::Library lib;
  const RunResult r = run(R"(
    let xs = [3, 1, 4];
    push(xs, 1);
    xs[0] = 10;
    print(len(xs), xs[0] + xs[3], "v=" + str(xs[2]));
  )", lib);
  EXPECT_EQ(r.output, "4 11 v=4\n");
}

// The paper's "data type extensions": records + functions as methods.
TEST(Silc, DataTypeExtension) {
  layout::Library lib;
  const RunResult r = run(R"(
    func point(x, y) { return {x: x, y: y}; }
    func shifted(p, dx, dy) { return point(p.x + dx, p.y + dy); }
    let p = shifted(point(3, 4), 10, 20);
    p.x = p.x + 1;
    print(p.x, p.y);
  )", lib);
  EXPECT_EQ(r.output, "14 24\n");
}

TEST(Silc, BuildsLayoutHierarchy) {
  layout::Library lib;
  const RunResult r = run(R"(
    let leaf = cell("leaf");
    rect(leaf, "metal", 0, 0, 10, 6);
    label(leaf, "a", "metal", 5, 3);
    let top = cell("top");
    for i in 0 .. 3 { place(top, leaf, i * 20, 0); }
    print(width(top), height(top), flat_count(top));
  )", lib);
  EXPECT_EQ(r.output, "70 6 4\n");
  EXPECT_NE(lib.find("top"), nullptr);
  EXPECT_EQ(lib.find("top")->instances().size(), 4u);
}

// A structured program generating a parameterised, DRC-clean artwork and
// emitting CIF: macroscopic silicon compilation from text alone.
TEST(Silc, ParameterisedShiftRegisterRowIsClean) {
  layout::Library lib;
  const RunResult r = run(R"(
    func sr_row(n) {
      let row = cell("sr_row");
      let stage = shiftstage();
      for i in 0 .. n - 1 { place(row, stage, i * 76, 0); }
      return row;
    }
    let row = sr_row(4);
    print(drc_violations(row));
    write_cif(row);
  )", lib);
  EXPECT_EQ(r.output, "0\n");
  EXPECT_NE(r.cif.find("DS"), std::string::npos);
  EXPECT_NE(r.cif.find("sr_row"), std::string::npos);
}

TEST(Silc, GeneratorBindings) {
  layout::Library lib;
  const RunResult r = run(R"(
    let i = inv(8);
    let g = nand2();
    let m = rom([1, 2, 3, 0], 2);
    let p = port_rect(i, "out");
    print(width(i) > 0, width(g) > 0, width(m) > 0, p.x1 > p.x0);
  )", lib);
  EXPECT_EQ(r.output, "true true true true\n");
}

TEST(Silc, Errors) {
  layout::Library lib;
  const auto bad = [&lib](const std::string& src) {
    layout::Library fresh;
    EXPECT_THROW(run_program(src, fresh), SilcError) << src;
  };
  bad("let x = ;");
  bad("print(y);");                       // undefined
  bad("let x = 1 / 0;");                  // division by zero
  bad("let l = [1]; print(l[3]);");       // out of range
  bad("func f(a) { return a; } f(1, 2);");  // arity
  bad("let c = cell(5);");                // type error
  bad("rect(cell(\"c\"), \"bogus\", 0, 0, 4, 4);");  // unknown layer
  bad("nosuchfunc(1);");
  bad("func f() { return f(); } f();");   // recursion limit
  bad("while true { }");                  // step limit
  bad("let x = 3; x.y = 1;");             // field on non-record
  // Integer overflow is an error, never wrapped arithmetic.
  bad("print(99999999999999999999);");              // literal > 64 bits
  bad("print(9223372036854775808);");               // literal > INT64_MAX
  bad("print(9223372036854775807 + 1);");
  bad("print(-9223372036854775807 - 2);");
  bad("print(4294967296 * 4294967296);");
  bad("let m = -9223372036854775807 - 1; print(-m);");
  bad("let m = -9223372036854775807 - 1; print(m / -1);");
  bad("let m = -9223372036854775807 - 1; print(m % -1);");
  bad("print(" + std::string(300, '(') + "1" + std::string(300, ')') + ");");
}

TEST(Silc, Int64ExtremesAndLoopBoundsDoNotOverflow) {
  layout::Library lib;
  const RunResult r = run(R"(
    let m = -9223372036854775807 - 1;
    let n = 0;
    for i in 9223372036854775806 .. 9223372036854775807 { n = n + 1; }
    print(m, m / 1, m % 7, n);
  )", lib);
  EXPECT_EQ(r.output, "-9223372036854775808 -9223372036854775808 -1 2\n");
}

TEST(Silc, StepCountReported) {
  layout::Library lib;
  const RunResult r = run("let x = 1; for i in 1 .. 100 { x = x + i; }", lib);
  EXPECT_GT(r.steps, 100u);
}

}  // namespace
}  // namespace silc::lang
