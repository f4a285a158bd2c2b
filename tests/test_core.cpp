// Compiler-driver tests: both flows end to end — "programs which, when
// compiled, yield code that produces manufacturing data for silicon parts".
#include <gtest/gtest.h>

#include "cif/cif.hpp"
#include "core/pipeline.hpp"

namespace silc::core {
namespace {

TEST(Compiler, BehavioralFlowCompilesAndVerifies) {
  layout::Library lib;
  const CompileResult r = compile(lib, Flow::Behavioral, R"(
    processor gray2 (input en; output code<2>;) {
      reg count<2>;
      code = {count[1], count[1] ^ count[0]};
      always { if (en) count := count + 1; }
    })", {.name = "gray2_chip", .verify_cycles = 16});
  ASSERT_NE(r.chip, nullptr);
  EXPECT_TRUE(r.drc.ok()) << r.drc.summary();
  EXPECT_TRUE(r.verified) << r.verify_detail;
  // All three pre-silicon checks ran: the gates proven against the
  // tabulated FSM, the programmed PLA proven against it, and the
  // switch-level artwork run.
  EXPECT_NE(r.verify_detail.find("gates == table: exhaustive proof"),
            std::string::npos)
      << r.verify_detail;
  EXPECT_NE(r.verify_detail.find("pla("), std::string::npos)
      << r.verify_detail;
  EXPECT_NE(r.verify_detail.find("artwork"), std::string::npos)
      << r.verify_detail;
  EXPECT_GT(r.transistors, 10u);
  EXPECT_GT(r.stats.area(), 0);
  EXPECT_NE(r.cif.find("DS"), std::string::npos);
  EXPECT_TRUE(r.ok());

  // The emitted CIF is manufacturing data: it parses back to the same mask
  // geometry (checked by rect count here; full region equality is covered
  // by the CIF round-trip tests).
  layout::Library lib2;
  layout::Cell& back = cif::parse(r.cif, lib2);
  EXPECT_EQ(back.flat_shape_count(), r.rect_count);
}

TEST(Compiler, StructuralFlowCompilesSilcProgram) {
  layout::Library lib;
  const CompileResult r = compile(lib, Flow::Structural, R"(
    func inv_chain(n) {
      let c = cell("chain");
      let i = inv(8);
      for k in 0 .. n - 1 { place(c, i, k * 36, 0); }
      return c;
    }
    return inv_chain(5);
  )");
  ASSERT_NE(r.chip, nullptr);
  EXPECT_TRUE(r.drc.ok()) << r.drc.summary();
  EXPECT_EQ(r.transistors, 10u);  // 5 inverters
  EXPECT_NE(r.cif.find("chain"), std::string::npos);
}

TEST(Compiler, StructuralFlowReportsMissingCell) {
  layout::Library lib;
  const CompileResult r = compile(lib, Flow::Structural, "print(1 + 1);");
  EXPECT_EQ(r.chip, nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has_errors());
}

TEST(Compiler, BehavioralRejectsBadSourceWithDiagnostic) {
  // Malformed source is data, not control flow: compile() never throws,
  // it returns a parse-stage error diagnostic on a failed result.
  layout::Library lib;
  CompileResult r;
  ASSERT_NO_THROW(r = compile(lib, Flow::Behavioral, "processor x ("));
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.diags.empty());
  EXPECT_EQ(r.diags[0].stage, "parse");
  EXPECT_EQ(r.diags[0].severity, Severity::Error);
}

TEST(Compiler, StructuralRejectsBadSourceWithDiagnostic) {
  layout::Library lib;
  CompileResult r;
  ASSERT_NO_THROW(r = compile(lib, Flow::Structural, "func ("));
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.diags.empty());
  EXPECT_EQ(r.diags[0].stage, "parse");
  EXPECT_EQ(r.diags[0].severity, Severity::Error);
}

}  // namespace
}  // namespace silc::core
