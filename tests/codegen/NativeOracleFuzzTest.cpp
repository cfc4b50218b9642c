//===- tests/codegen/NativeOracleFuzzTest.cpp ------------------*- C++ -*-===//
//
// A bounded three-engine oracle sweep: random programs through the full
// transform pipeline, executed by tree, bytecode AND the JIT'd native
// tier, with every observable held to exact equality and
// trip histograms compared bitwise. Bounded to a handful of seeds
// because each distinct program shape costs one host-compiler
// invocation; the long sweep lives in flattenfuzz --native (CI's
// codegen-smoke job). Passes unchanged on SIMDFLAT_ENABLE_JIT=OFF
// builds, where Native degrades to bytecode inside the oracle.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"
#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"

#include "ir/Printer.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::fuzz;

namespace {

TEST(NativeOracleFuzz, SeedSweepIsDivergenceFree) {
  OracleOptions OO;
  OO.Native = true;
  for (uint64_t Seed : {3u, 11u, 29u, 47u, 83u, 131u}) {
    FuzzCase C = generateCase(Seed);
    OracleResult R = runOracle(C, OO);
    EXPECT_FALSE(R.Diverged)
        << "seed " << Seed << ":\n"
        << R.report() << ir::printProgram(C.Prog);
  }
}

TEST(NativeOracleFuzz, TrappingCaseAgreesNatively) {
  // A fuel-bounded fault case must trap with the same structured Trap
  // under the native tier as everywhere else.
  OracleOptions OO;
  OO.Native = true;
  FuzzCase C = makeFaultCase(5, FaultKind::Fuel);
  OracleResult R = runOracle(C, OO);
  EXPECT_FALSE(R.Diverged) << R.report();
  EXPECT_TRUE(R.reference().T.has_value());
}

} // namespace
