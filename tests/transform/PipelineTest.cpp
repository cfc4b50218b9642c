//===- tests/transform/PipelineTest.cpp ------------------------*- C++ -*-===//

#include "transform/Pipeline.h"

#include "frontend/Parser.h"
#include "interp/ScalarInterp.h"
#include "interp/SimdInterp.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "ir/Verify.h"
#include "workloads/PaperKernels.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::ir;
using namespace simdflat::transform;
using namespace simdflat::workloads;

namespace {

TEST(Pipeline, ExampleEndToEnd) {
  Program Ex = makeExample(paperExampleSpec());
  PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  PipelineReport Rep;
  Program Simd = compileForSimd(Ex, PO, &Rep).value();
  EXPECT_EQ(Simd.dialect(), Dialect::F90Simd);
  EXPECT_EQ(Rep.GotoLoopsRecovered, 0);
  EXPECT_TRUE(Rep.Flattened);
  EXPECT_EQ(Rep.LevelApplied, FlattenLevel::DoneTest);
  EXPECT_TRUE(verifyProgram(Simd).empty());
  // The input program is untouched (the pipeline works on a copy).
  EXPECT_EQ(Ex.dialect(), Dialect::F77);
}

TEST(Pipeline, RecoversGotoLoops) {
  // GOTO-form inner loop; the outer loop keeps its DOALL marker (a
  // GOTO-form outer would carry no parallel annotation, and the
  // pipeline would rightly refuse to flatten it).
  ExampleSpec Spec = paperExampleSpec();
  Program Ex = makeExample(Spec, LoopForm::GotoLoop);
  PipelineOptions PO;
  PipelineReport Rep;
  Program Simd = compileForSimd(Ex, PO, &Rep).value();
  EXPECT_EQ(Rep.GotoLoopsRecovered, 1);
  EXPECT_TRUE(Rep.Flattened); // recovered REPEATs are min-one-trip

  machine::MachineConfig M;
  M.Name = "p";
  M.Processors = 2;
  M.Gran = 2;
  M.DataLayout = machine::Layout::Cyclic;
  SimdInterp I(Simd, M, nullptr);
  I.store().setInt("K", Spec.K);
  I.store().setIntArray("L", Spec.L);
  I.run().value();
  std::vector<int64_t> Idx = {8, 3};
  EXPECT_EQ(I.store().getIntAt("X", Idx), 24);
}

TEST(Pipeline, UnflattenedPath) {
  Program Ex = makeExample(paperExampleSpec());
  PipelineOptions PO;
  PO.Flatten = false;
  PipelineReport Rep;
  Program Simd = compileForSimd(Ex, PO, &Rep).value();
  EXPECT_FALSE(Rep.Flattened);
  EXPECT_TRUE(Rep.FlattenSkipReason.empty()); // not requested != failed
  EXPECT_EQ(Simd.dialect(), Dialect::F90Simd);
}

TEST(Pipeline, RejectedLevelIsReported) {
  // Forcing DoneTest on a WHILE inner loop (no done test available).
  Program Ex = makeExample(paperExampleSpec(), LoopForm::While);
  PipelineOptions PO;
  PO.ForceLevel = FlattenLevel::DoneTest;
  PO.AssumeInnerMinOneTrip = true;
  PipelineReport Rep;
  Program Simd = compileForSimd(Ex, PO, &Rep).value();
  EXPECT_FALSE(Rep.Flattened);
  EXPECT_NE(Rep.FlattenSkipReason.find("last-iteration"),
            std::string::npos);
  // The program is still SIMDized (unflattened, Fig. 5 path).
  EXPECT_EQ(Simd.dialect(), Dialect::F90Simd);
}

TEST(Pipeline, InvalidInputIsAStructuredError) {
  // A subroutine used as a function fails verification; the pipeline
  // must hand back a PipelineError naming the stage, not abort.
  Program P("bad");
  P.addExtern("S", ScalarKind::Int, true, /*IsSubroutine=*/true);
  P.addVar("i", ScalarKind::Int);
  P.body().push_back(std::make_unique<AssignStmt>(
      std::make_unique<VarRef>("i", ScalarKind::Int),
      std::make_unique<CallExpr>("S", std::vector<ExprPtr>{},
                                 ScalarKind::Int)));
  Expected<Program, PipelineError> R = compileForSimd(P);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Stage, "input");
  ASSERT_FALSE(R.error().Issues.empty());
  std::string Msg = R.error().render();
  EXPECT_NE(Msg.find("input"), std::string::npos);
  EXPECT_NE(Msg.find("subroutine"), std::string::npos);
}

TEST(Pipeline, CrossingGotoLoopsAreAStructuredError) {
  // 1 CONTINUE / 2 CONTINUE / IF (a < 0) GOTO 1 / IF (a < 0) GOTO 2:
  // the two loops cross, so recovery structures neither. simdize used to
  // abort the process on what was left; the pipeline must name the
  // surviving labels instead.
  Program P("CROSS");
  P.addVar("a", ScalarKind::Int);
  Builder B(P);
  P.body().push_back(B.label(1));
  P.body().push_back(B.label(2));
  P.body().push_back(B.gotoStmt(1, B.lt(B.var("a"), B.lit(0))));
  P.body().push_back(B.gotoStmt(2, B.lt(B.var("a"), B.lit(0))));
  Expected<Program, PipelineError> R = compileForSimd(P);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Stage, "goto-recovery");
  ASSERT_EQ(R.error().Issues.size(), 2u) << R.error().render();
  EXPECT_NE(R.error().Issues[0].find("label 1 "), std::string::npos);
  EXPECT_NE(R.error().Issues[1].find("label 2 "), std::string::npos);
}

/// A DOALL/DO nest under the given loop headers; K, N and L are inputs.
std::string nestWith(const std::string &DoAll, const std::string &Do) {
  return "PROGRAM NEST\nINTEGER K\nINTEGER N\n"
         "DISTRIBUTED INTEGER L(8)\nDISTRIBUTED INTEGER X(8, 4)\n"
         "INTEGER i\nINTEGER j\nBEGIN\n  " +
         DoAll + "\n    " + Do +
         "\n      X(i, j) = i\n    ENDDO\n  ENDDO\nEND\n";
}

Expected<Program, PipelineError> compileSource(const std::string &Src,
                                               PipelineOptions PO = {}) {
  frontend::ParseResult PR = frontend::parseProgram(Src);
  EXPECT_TRUE(PR.ok()) << PR.Diags.renderAll();
  return compileForSimd(*PR.Prog, PO);
}

/// Loops with no SIMD form used to abort the process inside simdize;
/// the pipeline must name the loop instead.
void expectNoSimdForm(const Expected<Program, PipelineError> &R,
                      const std::string &Issue) {
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Stage, "simdize");
  ASSERT_EQ(R.error().Issues.size(), 1u) << R.error().render();
  EXPECT_EQ(R.error().Issues[0], Issue);
}

TEST(Pipeline, DoAllWithNonUnitStepIsASimdizeError) {
  expectNoSimdForm(
      compileSource(nestWith("DOALL i = 1, K, 2", "DO j = 1, 4")),
      "DOALL 'i' must have unit step");
}

TEST(Pipeline, LaneVaryingInnerStepIsASimdizeError) {
  expectNoSimdForm(
      compileSource(nestWith("DOALL i = 1, K", "DO j = 1, 4, L(i)")),
      "lane-varying DO step for 'j' is not supported");
}

TEST(Pipeline, LaneVaryingBoundWithNonLiteralStepIsASimdizeError) {
  expectNoSimdForm(
      compileSource(nestWith("DOALL i = 1, K", "DO j = 1, L(i), N")),
      "lane-varying DO bound for 'j' with a non-literal step is not "
      "supported");
}

TEST(Pipeline, LaneVaryingLowerBoundIsASimdizeErrorUnflattened) {
  std::string Src = nestWith("DOALL i = 1, K", "DO j = L(i), 4");
  PipelineOptions Unflattened;
  Unflattened.Flatten = false;
  expectNoSimdForm(compileSource(Src, Unflattened),
                   "lane-varying DO lower bound for 'j' is not supported");
  // Flattening removes the inner DO, so the flattened build has one.
  EXPECT_TRUE(compileSource(Src).ok());
}

TEST(Pipeline, CanonicalKeySeparatesRealsPastSixDigits) {
  // Two literals that agree in their first six significant digits are
  // two programs, and must be two cache keys.
  auto KeyOf = [](double V) {
    Program P("LIT");
    P.addVar("x", ScalarKind::Real);
    Builder B(P);
    P.body().push_back(B.assign(B.var("x"), B.lit(V)));
    return canonicalKey(P);
  };
  CanonicalKey A = KeyOf(1234567.4), B = KeyOf(1234569.9);
  EXPECT_NE(A.Text, B.Text);
  EXPECT_NE(A.Hash, B.Hash);
}

TEST(Pipeline, StageOutcomesAreRecorded) {
  Program Ex = makeExample(paperExampleSpec());
  PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  PipelineReport Rep;
  compileForSimd(Ex, PO, &Rep).value();
  bool SawFlatten = false, SawSimdize = false;
  for (const StageOutcome &S : Rep.Stages) {
    SawFlatten |= S.Stage == "flatten" && S.Ran;
    SawSimdize |= S.Stage == "simdize" && S.Ran;
    if (S.Ran) {
      EXPECT_TRUE(S.Verified) << S.Stage;
    }
  }
  EXPECT_TRUE(SawFlatten);
  EXPECT_TRUE(SawSimdize);
  // Per-stage verdicts show up in the summary (flattenc --analyze).
  EXPECT_NE(Rep.summary().find("stage"), std::string::npos);
}

TEST(Pipeline, ExplicitNormalizeStagesRunAndVerify) {
  Program Ex = makeExample(paperExampleSpec());
  PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  PO.ExplicitNormalize = true;
  PipelineReport Rep;
  Program Simd = compileForSimd(Ex, PO, &Rep).value();
  EXPECT_TRUE(verifyProgram(Simd).empty());
  bool SawNormalize = false;
  for (const StageOutcome &S : Rep.Stages)
    SawNormalize |= S.Stage == "normalize" && S.Ran && S.Verified;
  EXPECT_TRUE(SawNormalize);
}

TEST(Pipeline, PeeledRepeatDropsMinOneAssumption) {
  // Found by flattenfuzz (seed 46): explicit normalization peels a
  // REPEAT's first execution, so the residual pre-test loop runs L-1
  // trips - zero on exactly-one-trip rows. Flattening the residual at
  // the optimized level on the caller's min-one assertion re-executed
  // the body once per L == 1 row. The pipeline must drop the
  // assumption once a peel has consumed it.
  ExampleSpec Spec{4, {1, 3, 1, 2}};
  Program Ref = makeExample(Spec, LoopForm::Repeat);

  ScalarInterp SI(Ref, machine::MachineConfig::sparc2(), nullptr);
  SI.store().setInt("K", Spec.K);
  SI.store().setIntArray("L", Spec.L);
  SI.run().value();
  std::vector<int64_t> Want = SI.store().getIntArray("X");

  PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  PO.ExplicitNormalize = true;
  PipelineReport Rep;
  Program Simd =
      compileForSimd(makeExample(Spec, LoopForm::Repeat), PO, &Rep)
          .value();
  ASSERT_TRUE(Rep.Flattened) << Rep.summary();

  machine::MachineConfig M;
  M.Name = "p";
  M.Processors = 2;
  M.Gran = 2;
  M.DataLayout = machine::Layout::Cyclic;
  SimdInterp I(Simd, M, nullptr);
  I.store().setInt("K", Spec.K);
  I.store().setIntArray("L", Spec.L);
  I.run().value();
  EXPECT_EQ(I.store().getIntArray("X"), Want);
}

TEST(Pipeline, SummaryMentionsStages) {
  Program Ex = makeExample(paperExampleSpec(), LoopForm::GotoLoop);
  PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  PipelineReport Rep;
  compileForSimd(Ex, PO, &Rep).value();
  std::string S = Rep.summary();
  EXPECT_NE(S.find("recovered 1 GOTO loop"), std::string::npos);
  EXPECT_NE(S.find("flattened at the"), std::string::npos);
  EXPECT_NE(S.find("SIMDized"), std::string::npos);
}

} // namespace
