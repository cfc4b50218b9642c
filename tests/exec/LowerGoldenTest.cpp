//===- tests/exec/LowerGoldenTest.cpp --------------------------*- C++ -*-===//
//
// Golden disassembly tests for the ir:: -> bytecode lowering (F90simd
// programs only: the scalar and MIMD executors have no bytecode). The
// exact instruction streams for two tiny programs are pinned so
// accidental changes to register assignment, pool deduplication or
// control-flow layout show up as a readable diff rather than a perf
// mystery.
//
//===----------------------------------------------------------------------===//

#include "exec/Bytecode.h"
#include "exec/Lower.h"

#include "ir/Builder.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::ir;

namespace {

/// DO i = 1, 4:  A(i) = i * 2  (F90simd dialect).
Program makeTinyLoop() {
  Program P("TINY");
  P.setDialect(Dialect::F90Simd);
  P.addVar("A", ScalarKind::Int, {4});
  P.addVar("i", ScalarKind::Int);
  Builder B(P);
  P.body().push_back(B.doLoop(
      "i", B.lit(1), B.lit(4),
      Builder::body(
          B.assign(B.at("A", B.var("i")), B.mul(B.var("i"), B.lit(2))))));
  return P;
}

/// WHERE (t) X = X + 1 ELSEWHERE X = 0 ENDWHERE  (F90simd dialect).
Program makeTinyWhere() {
  Program P("TINYWHERE");
  P.setDialect(Dialect::F90Simd);
  P.addVar("t", ScalarKind::Bool, {}, Dist::Replicated);
  P.addVar("X", ScalarKind::Int, {}, Dist::Replicated);
  Builder B(P);
  P.body().push_back(
      B.where(B.var("t"),
              Builder::body(B.set("X", B.add(B.var("X"), B.lit(1)))),
              Builder::body(B.set("X", B.lit(0)))));
  return P;
}

TEST(LowerGolden, TinySimdWhere) {
  exec::Program EP = exec::lower(makeTinyWhere(), exec::Mode::Simd);
  EXPECT_EQ(exec::disassemble(EP),
            "program 'TINYWHERE' regs=3 ctl=0 code=11\n"
            "    0: ld.var             0      0      0      0 ; t\n"
            "    1: where.push         0      0      0      0\n"
            "    2: ld.var             1      1      0      0 ; X\n"
            "    3: ld.int             2      0      0      0 ; 1\n"
            "    4: add.i              0      1      2      0\n"
            "    5: st.var             1      0      0      0 ; X\n"
            "    6: where.flip         0      0      0      0\n"
            "    7: ld.int             0      1      0      0 ; 0\n"
            "    8: st.var             1      0      0      0 ; X\n"
            "    9: mask.pop           0      0      0      0\n"
            "   10: halt               0      0      0      0\n");
}

/// DO i = 1, 2: IF (X > 0) GOTO 10  (F90simd dialect). Exercises every
/// opcode whose pool-index operands the disassembler symbolizes: the
/// simd DO bounds carry uniformity messages in C (ctl.fromreg), the IF
/// lowers to ubr.false with its violation message in B, and the GOTO
/// lowers to a trap whose A operand is a TrapKind - not a register.
Program makeTinyTrap() {
  Program P("TINYTRAP");
  P.setDialect(Dialect::F90Simd);
  P.addVar("X", ScalarKind::Int, {}, Dist::Replicated);
  P.addVar("i", ScalarKind::Int);
  Builder B(P);
  P.body().push_back(B.doLoop(
      "i", B.lit(1), B.lit(2),
      Builder::body(B.ifStmt(B.gt(B.var("X"), B.lit(0)),
                             Builder::body(B.gotoStmt(10))))));
  return P;
}

TEST(LowerGolden, TinySimdTrapOperandsAreSymbolized) {
  exec::Program EP = exec::lower(makeTinyTrap(), exec::Mode::Simd);
  EXPECT_EQ(
      exec::disassemble(EP),
      "program 'TINYTRAP' regs=3 ctl=4 code=22\n"
      "    0: ld.int             0      0      0      0 ; 1\n"
      "    1: ctl.fromreg        0      0      0      0 ; "
      "\"DO lower bound\"\n"
      "    2: ld.int             0      1      0      0 ; 2\n"
      "    3: ctl.fromreg        1      0      1      0 ; "
      "\"DO upper bound\"\n"
      "    4: ctl.imm            2      0      0      0 ; 1\n"
      "    5: check.step         2      2      0      0 ; "
      "\"DO step of zero\"\n"
      "    6: ctl.imm            3      2      0      0 ; 0\n"
      "    7: do.test            0      0      0     19\n"
      "    8: loop.iter          0      0      0      0\n"
      "    9: ctl.inc            3      0      0      0\n"
      "   10: set.idx            0      0      0      0 ; i\n"
      "   11: charge             2      0      0      0\n"
      "   12: ld.var             1      1      0      0 ; X\n"
      "   13: ld.int             2      2      0      0 ; 0\n"
      "   14: cmp.gt             0      1      2      0\n"
      "   15: ubr.false          0      3      0     17 ; "
      "\"IF condition\"\n"
      "   16: trap               8      4      0      0 ; "
      "invalid-program \"GOTO-form control flow is not executable on "
      "the SIMD machine; run the front end's loop recovery first\"\n"
      "   17: do.step            0      0      0      0\n"
      "   18: jmp                0      0      0      7\n"
      "   19: trip.rec           3      0      0      0 ; L0 do i\n"
      "   20: set.idx            0      0      0      0 ; i\n"
      "   21: halt               0      0      0      0\n");
}

TEST(LowerGolden, LiteralPoolsDeduplicate) {
  // The same literal appearing many times lowers to one pool entry.
  Program P("POOLS");
  P.setDialect(Dialect::F90Simd);
  P.addVar("X", ScalarKind::Int);
  Builder B(P);
  for (int I = 0; I < 4; ++I)
    P.body().push_back(B.set("X", B.add(B.var("X"), B.lit(7))));
  exec::Program EP = exec::lower(P, exec::Mode::Simd);
  EXPECT_EQ(std::count(EP.IntPool.begin(), EP.IntPool.end(), 7), 1);
}

TEST(LowerGolden, LocationsArePrerendered) {
  // Every instruction carries a location index into a deduplicated
  // string pool; the loop body's statements share one rendered chain.
  exec::Program EP = exec::lower(makeTinyLoop(), exec::Mode::Simd);
  ASSERT_FALSE(EP.Locs.empty());
  bool SawDoChain = false;
  for (const std::string &L : EP.Locs)
    if (L.find("DO i") != std::string::npos)
      SawDoChain = true;
  EXPECT_TRUE(SawDoChain);
  for (const exec::Instr &I : EP.Code)
    if (I.Loc >= 0) {
      EXPECT_LT(static_cast<size_t>(I.Loc), EP.Locs.size());
    }
}

} // namespace
