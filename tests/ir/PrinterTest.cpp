//===- tests/ir/PrinterTest.cpp --------------------------------*- C++ -*-===//

#include "ir/Printer.h"

#include "frontend/Parser.h"
#include "ir/Builder.h"
#include "workloads/PaperKernels.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::ir;

namespace {

class PrinterTest : public ::testing::Test {
protected:
  PrinterTest() : P("t"), B(P) {
    P.addVar("i", ScalarKind::Int);
    P.addVar("j", ScalarKind::Int);
    P.addVar("f", ScalarKind::Bool);
    P.addVar("x", ScalarKind::Real);
    P.addVar("A", ScalarKind::Int, {8});
  }

  Program P;
  Builder B;
};

TEST_F(PrinterTest, Literals) {
  EXPECT_EQ(printExpr(*B.lit(42)), "42");
  EXPECT_EQ(printExpr(*B.lit(-7)), "-7");
  EXPECT_EQ(printExpr(*B.lit(2.5)), "2.5");
  EXPECT_EQ(printExpr(*B.lit(3.0)), "3.0"); // decimal point forced
  EXPECT_EQ(printExpr(*B.lit(true)), ".TRUE.");
  EXPECT_EQ(printExpr(*B.lit(false)), ".FALSE.");
}

TEST_F(PrinterTest, RealLiteralsRoundTrip) {
  // The printed IR is the compiled-program cache key, so a real literal
  // must print in full: parsing the printed form gives the same double.
  for (double V : {1234569.9, 0.1, 1e-300}) {
    std::string Printed = printExpr(*B.lit(V));
    frontend::ParseResult PR = frontend::parseProgram(
        "PROGRAM T\nREAL x\nBEGIN\n  x = " + Printed + "\nEND\n");
    ASSERT_TRUE(PR.ok()) << Printed << "\n" << PR.Diags.renderAll();
    const auto *A = cast<AssignStmt>(PR.Prog->body()[0].get());
    EXPECT_EQ(cast<RealLit>(&A->value())->value(), V) << Printed;
  }
  EXPECT_EQ(printExpr(*B.lit(1234569.9)), "1234569.9");
}

TEST_F(PrinterTest, PrecedenceMinimalParens) {
  // i + j * 2 needs no parens.
  EXPECT_EQ(printExpr(*B.add(B.var("i"), B.mul(B.var("j"), B.lit(2)))),
            "i + j * 2");
  // (i + j) * 2 needs them.
  EXPECT_EQ(printExpr(*B.mul(B.add(B.var("i"), B.var("j")), B.lit(2))),
            "(i + j) * 2");
  // Left associativity: i - j - 1 prints flat, i - (j - 1) parenthesized.
  EXPECT_EQ(printExpr(*B.sub(B.sub(B.var("i"), B.var("j")), B.lit(1))),
            "i - j - 1");
  EXPECT_EQ(printExpr(*B.sub(B.var("i"), B.sub(B.var("j"), B.lit(1)))),
            "i - (j - 1)");
}

TEST_F(PrinterTest, LogicalOperators) {
  ExprPtr E = B.land(B.le(B.var("i"), B.lit(4)),
                     B.lnot(B.eq(B.var("j"), B.lit(0))));
  EXPECT_EQ(printExpr(*E), "i <= 4 .AND. .NOT. j == 0");
  ExprPtr E2 = B.lor(B.var("f"), B.land(B.var("f"), B.var("f")));
  EXPECT_EQ(printExpr(*E2), "f .OR. f .AND. f");
  ExprPtr E3 = B.land(B.lor(B.var("f"), B.var("f")), B.var("f"));
  EXPECT_EQ(printExpr(*E3), "(f .OR. f) .AND. f");
}

TEST_F(PrinterTest, ModPrintsFunctionStyle) {
  EXPECT_EQ(printExpr(*B.mod(B.var("i"), B.lit(8))), "MOD(i, 8)");
}

TEST_F(PrinterTest, Intrinsics) {
  EXPECT_EQ(printExpr(*B.max(B.var("i"), B.var("j"))), "MAX(i, j)");
  EXPECT_EQ(printExpr(*B.any(B.le(B.var("i"), B.lit(4)))), "ANY(i <= 4)");
  EXPECT_EQ(printExpr(*B.maxVal("A")), "MAXVAL(A)");
  EXPECT_EQ(printExpr(*B.laneIndex()), "LANEINDEX()");
}

TEST_F(PrinterTest, ArrayRefs) {
  EXPECT_EQ(printExpr(*B.at("A", B.add(B.var("i"), B.lit(1)))), "A(i + 1)");
}

TEST_F(PrinterTest, AssignStmt) {
  StmtPtr S = B.assign(B.at("A", B.var("i")), B.mul(B.var("i"), B.var("j")));
  EXPECT_EQ(printStmt(*S), "A(i) = i * j\n");
}

TEST_F(PrinterTest, IfElse) {
  StmtPtr S = B.ifStmt(B.var("f"),
                       Builder::body(B.set("i", B.lit(1))),
                       Builder::body(B.set("i", B.lit(2))));
  EXPECT_EQ(printStmt(*S), "IF (f) THEN\n"
                           "  i = 1\n"
                           "ELSE\n"
                           "  i = 2\n"
                           "ENDIF\n");
}

TEST_F(PrinterTest, WhereElsewhere) {
  StmtPtr S = B.where(B.le(B.var("i"), B.lit(4)),
                      Builder::body(B.set("i", B.add(B.var("i"), B.lit(1)))),
                      Builder::body(B.set("j", B.lit(1))));
  EXPECT_EQ(printStmt(*S), "WHERE (i <= 4)\n"
                           "  i = i + 1\n"
                           "ELSEWHERE\n"
                           "  j = 1\n"
                           "ENDWHERE\n");
}

TEST_F(PrinterTest, ConditionalGotoOneLine) {
  StmtPtr S = B.gotoStmt(10, B.le(B.var("i"), B.lit(4)));
  EXPECT_EQ(printStmt(*S), "IF (i <= 4) GOTO 10\n");
  StmtPtr L = B.label(10);
  EXPECT_EQ(printStmt(*L), "10 CONTINUE\n");
}

TEST_F(PrinterTest, RepeatUntil) {
  StmtPtr S = B.repeatUntil(Builder::body(B.set("i", B.lit(1))),
                            B.gt(B.var("i"), B.lit(4)));
  EXPECT_EQ(printStmt(*S), "REPEAT\n"
                           "  i = 1\n"
                           "UNTIL (i > 4)\n");
}

TEST_F(PrinterTest, Forall) {
  StmtPtr S =
      B.forall("i", B.lit(1), B.lit(8), B.le(B.var("i"), B.lit(4)),
               Builder::body(B.assign(B.at("A", B.var("i")), B.var("i"))));
  EXPECT_EQ(printStmt(*S), "FORALL (i = 1 : 8, i <= 4)\n"
                           "  A(i) = i\n"
                           "ENDFORALL\n");
}

TEST_F(PrinterTest, PaperExampleFigure1) {
  // The printed EXAMPLE must match Fig. 1 of the paper (modulo DOALL
  // marking the parallel loop, which Fig. 2's Fortran D version implies).
  ir::Program Ex = workloads::makeExample(workloads::paperExampleSpec());
  EXPECT_EQ(printBody(Ex.body()), "DOALL i = 1, K\n"
                                  "  DO j = 1, L(i)\n"
                                  "    X(i, j) = i * j\n"
                                  "  ENDDO\n"
                                  "ENDDO\n");
}

TEST_F(PrinterTest, ProgramWithDecls) {
  Program Q("small");
  Q.addExtern("Force", ScalarKind::Real, /*Pure=*/true);
  Q.addVar("n", ScalarKind::Int);
  Q.addVar("V", ScalarKind::Real, {4}, Dist::Distributed);
  Builder QB(Q);
  Q.body().push_back(QB.set("n", QB.lit(3)));
  std::string Out = printProgram(Q);
  EXPECT_EQ(Out, "PROGRAM small\n"
                 "EXTERN REAL FUNCTION Force\n"
                 "INTEGER n\n"
                 "DISTRIBUTED REAL V(4)\n"
                 "BEGIN\n"
                 "  n = 3\n"
                 "END\n");
}

} // namespace
