//===- tests/frontend/ParserTest.cpp ---------------------------*- C++ -*-===//

#include "frontend/Parser.h"

#include "interp/ScalarInterp.h"
#include "ir/Printer.h"
#include "ir/Walk.h"
#include "workloads/PaperKernels.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::frontend;
using namespace simdflat::ir;

namespace {

const char *ExampleSource = R"(PROGRAM EXAMPLE
INTEGER K
DISTRIBUTED INTEGER L(8)
DISTRIBUTED INTEGER X(8, 4)
INTEGER i
INTEGER j
BEGIN
  DOALL i = 1, K
    DO j = 1, L(i)
      X(i, j) = i * j
    ENDDO
  ENDDO
END
)";

TEST(Parser, ParsesExample) {
  ParseResult R = parseProgram(ExampleSource);
  ASSERT_TRUE(R.ok()) << R.Diags.renderAll();
  EXPECT_EQ(R.Prog->name(), "EXAMPLE");
  ASSERT_NE(R.Prog->lookupVar("X"), nullptr);
  EXPECT_EQ(R.Prog->lookupVar("X")->Dims,
            (std::vector<int64_t>{8, 4}));
  EXPECT_EQ(R.Prog->lookupVar("X")->Distribution, Dist::Distributed);
  // The parsed program is structurally the builder-made EXAMPLE.
  ir::Program Want =
      workloads::makeExample(workloads::paperExampleSpec());
  EXPECT_TRUE(bodyEquals(R.Prog->body(), Want.body()));
}

TEST(Parser, PrintParseRoundTrip) {
  // printProgram output is valid input: round-tripping is the identity.
  ir::Program Orig =
      workloads::makeExample(workloads::paperExampleSpec());
  std::string Printed = printProgram(Orig);
  ParseResult R = parseProgram(Printed);
  ASSERT_TRUE(R.ok()) << R.Diags.renderAll();
  EXPECT_EQ(printProgram(*R.Prog), Printed);
}

TEST(Parser, ParsedProgramExecutes) {
  ParseResult R = parseProgram(ExampleSource);
  ASSERT_TRUE(R.ok()) << R.Diags.renderAll();
  machine::MachineConfig M = machine::MachineConfig::sparc2();
  interp::ScalarInterp Interp(*R.Prog, M, nullptr);
  Interp.store().setInt("K", 8);
  std::vector<int64_t> L = {4, 1, 2, 1, 1, 3, 1, 3};
  Interp.store().setIntArray("L", L);
  Interp.run().value();
  EXPECT_EQ(Interp.store().getIntAt("X", std::vector<int64_t>{8, 3}), 24);
}

TEST(Parser, LabelLintIsAWarningNotAnError) {
  // An orphaned label and a GOTO to nowhere are legal F77 (the latter
  // traps at runtime), so the parser must still succeed - but each
  // gets a warning, and warnings don't flip hasErrors()/ok().
  const char *Src = R"(PROGRAM lint
INTEGER n
BEGIN
10 CONTINUE
  n = 1
  IF (n > 5) GOTO 20
END
)";
  ParseResult R = parseProgram(Src);
  ASSERT_TRUE(R.ok()) << R.Diags.renderAll();
  EXPECT_FALSE(R.Diags.hasErrors());
  ASSERT_EQ(R.Diags.all().size(), 2u);
  std::string All = R.Diags.renderAll();
  EXPECT_NE(All.find("warning: label 10 is never the target"),
            std::string::npos);
  EXPECT_NE(All.find("warning: GOTO to undefined label 20"),
            std::string::npos);
}

TEST(Parser, AllStatementForms) {
  const char *Src = R"(PROGRAM forms
EXTERN REAL FUNCTION Force
EXTERN IMPURE SUBROUTINE Dump
INTEGER i
INTEGER n
REAL x
LOGICAL f
REPLICATED INTEGER lane
DISTRIBUTED REAL V(16)
BEGIN
  n = MOD(7, 3) + MAX(1, 2)
  x = SQRT(2.25) * 2.0
  f = n >= 2 .AND. .NOT. n == 5
  IF (f) THEN
    n = 1
  ELSE
    n = 2
  ENDIF
  WHERE (lane <= 4)
    lane = lane + 1
  ELSEWHERE
    lane = 0
  ENDWHERE
  DO i = 1, 10, 2
    n = n + i
  ENDDO
  WHILE (n > 0)
    n = n - 3
  ENDWHILE
  REPEAT
    n = n + 1
  UNTIL (n >= 4)
  FORALL (i = 1 : 16, i <= 8)
    V(i) = x
  ENDFORALL
  CALL Dump(n, x)
  x = Force(n, n) + SUMVAL(V)
  10 CONTINUE
  n = n - 1
  IF (n > 0) GOTO 10
END
)";
  ParseResult R = parseProgram(Src);
  ASSERT_TRUE(R.ok()) << R.Diags.renderAll();
  // Round-trip.
  std::string Printed = printProgram(*R.Prog);
  ParseResult R2 = parseProgram(Printed);
  ASSERT_TRUE(R2.ok()) << R2.Diags.renderAll();
  EXPECT_EQ(printProgram(*R2.Prog), Printed);
}

TEST(Parser, ReportsUndeclaredVariable) {
  ParseResult R = parseProgram("PROGRAM p\nBEGIN\n  x = 1\nEND\n");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Diags.renderAll().find("undeclared"), std::string::npos);
}

TEST(Parser, ReportsRankMismatch) {
  ParseResult R = parseProgram("PROGRAM p\nINTEGER A(4, 4)\nINTEGER i\n"
                               "BEGIN\n  i = A(1)\nEND\n");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Diags.renderAll().find("rank"), std::string::npos);
}

TEST(Parser, ReportsTypeErrors) {
  ParseResult R = parseProgram("PROGRAM p\nINTEGER i\nLOGICAL f\n"
                               "BEGIN\n  i = f .AND. 3 > 1\nEND\n");
  EXPECT_FALSE(R.ok()); // assigning logical to integer
  ParseResult R2 = parseProgram("PROGRAM p\nINTEGER i\nBEGIN\n"
                                "  WHILE (i + 1)\n  ENDWHILE\nEND\n");
  EXPECT_FALSE(R2.ok());
  EXPECT_NE(R2.Diags.renderAll().find("WHILE condition"),
            std::string::npos);
}

TEST(Parser, ErrorRecoveryFindsMultipleProblems) {
  const char *Src = R"(PROGRAM p
INTEGER i
BEGIN
  x = 1
  y = 2
  i = 3
END
)";
  ParseResult R = parseProgram(Src);
  EXPECT_FALSE(R.ok());
  EXPECT_GE(R.Diags.count(), 2u); // both x and y reported
  ASSERT_TRUE(R.Prog.has_value());
  EXPECT_EQ(R.Prog->body().size(), 3u); // parsing continued
}

TEST(Parser, ReportsMissingEnd) {
  ParseResult R = parseProgram("PROGRAM p\nBEGIN\n  DO\n");
  EXPECT_FALSE(R.ok());
}

TEST(Parser, SubroutineAsFunctionRejected) {
  ParseResult R = parseProgram("PROGRAM p\nEXTERN SUBROUTINE S\n"
                               "INTEGER i\nBEGIN\n  i = S(1)\nEND\n");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Diags.renderAll().find("subroutine"), std::string::npos);
}

TEST(Parser, DiagnosticLocations) {
  ParseResult R = parseProgram("PROGRAM p\nINTEGER i\nBEGIN\n  q = 1\nEND\n");
  ASSERT_FALSE(R.Diags.empty());
  EXPECT_EQ(R.Diags.all()[0].Loc.Line, 4);
}

//===----------------------------------------------------------------------===//
// Nesting bound (MaxNestingDepth). Every pass after the parser recurses
// over the tree, so each of these shapes at 30,000 levels overflowed
// the stack of a later pass before the bound existed.
//===----------------------------------------------------------------------===//

enum class Shape { UnaryMinus, Parens, AddChain, IfBlocks, DoBlocks };

/// A program nesting \p Depth levels in one shape.
std::string nestedProgram(Shape S, int Depth) {
  auto Times = [Depth](const std::string &Piece) {
    std::string Out;
    Out.reserve(Piece.size() * static_cast<size_t>(Depth));
    for (int I = 0; I < Depth; ++I)
      Out += Piece;
    return Out;
  };
  std::string Body;
  switch (S) {
  case Shape::UnaryMinus:
    Body = "a = " + Times("-") + "1\n";
    break;
  case Shape::Parens:
    Body = "a = " + Times("(") + "1" + Times(")") + "\n";
    break;
  case Shape::AddChain:
    Body = "a = " + Times("1+") + "1\n";
    break;
  case Shape::IfBlocks:
    Body = Times("IF (a < 1) THEN\n") + "a = 1\n" + Times("ENDIF\n");
    break;
  case Shape::DoBlocks:
    Body = Times("DO i = 1, 1\n") + "a = 1\n" + Times("ENDDO\n");
    break;
  }
  return "PROGRAM DEEP\nINTEGER a\nINTEGER i\nBEGIN\n" + Body + "END\n";
}

/// Parsing stops with exactly one diagnostic, the nesting error.
void expectRejectedOnce(Shape S, int Depth) {
  ParseResult R = parseProgram(nestedProgram(S, Depth));
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.Diags.count(), 1u) << R.Diags.renderAll();
  EXPECT_NE(R.Diags.all()[0].Message.find("nesting deeper than 256 levels"),
            std::string::npos)
      << R.Diags.renderAll();
}

TEST(ParserNesting, ThirtyThousandUnaryMinusesAreRejected) {
  expectRejectedOnce(Shape::UnaryMinus, 30000);
}

TEST(ParserNesting, ThirtyThousandParenthesesAreRejected) {
  expectRejectedOnce(Shape::Parens, 30000);
}

TEST(ParserNesting, ThirtyThousandLinkChainIsRejected) {
  expectRejectedOnce(Shape::AddChain, 30000);
}

TEST(ParserNesting, ThirtyThousandIfBlocksAreRejected) {
  expectRejectedOnce(Shape::IfBlocks, 30000);
}

TEST(ParserNesting, ThirtyThousandDoBlocksAreRejected) {
  expectRejectedOnce(Shape::DoBlocks, 30000);
}

TEST(ParserNesting, BoundIsInclusive) {
  for (Shape S : {Shape::UnaryMinus, Shape::Parens, Shape::AddChain,
                  Shape::IfBlocks, Shape::DoBlocks}) {
    ParseResult At = parseProgram(nestedProgram(S, MaxNestingDepth));
    EXPECT_TRUE(At.ok()) << At.Diags.renderAll();
    expectRejectedOnce(S, MaxNestingDepth + 1);
  }
}

TEST(ParserNesting, ChainHeightCountsItsLeftOperand) {
  // A parenthesized chain as the left operand of another chain: 128
  // links inside plus the parenthesis plus 128 links outside is 257
  // levels, one past the bound, though no single chain is long.
  std::string Inner, Outer;
  for (int I = 0; I < 128; ++I) {
    Inner += "1+";
    Outer += "+1";
  }
  std::string Src = "PROGRAM DEEP\nINTEGER a\nBEGIN\na = (" + Inner +
                    "1)" + Outer + "\nEND\n";
  ParseResult R = parseProgram(Src);
  EXPECT_FALSE(R.ok());
  // One link fewer fits exactly.
  std::string Fits = "PROGRAM DEEP\nINTEGER a\nBEGIN\na = (" + Inner +
                     "1)" + Outer.substr(2) + "\nEND\n";
  ParseResult F = parseProgram(Fits);
  EXPECT_TRUE(F.ok()) << F.Diags.renderAll();
}

} // namespace
