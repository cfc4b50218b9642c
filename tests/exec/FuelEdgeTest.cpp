//===- tests/exec/FuelEdgeTest.cpp -----------------------------*- C++ -*-===//
//
// Fuel-budget edge semantics on the SIMD machine, pinned across all
// three engines: Fuel = 0 is unlimited, a budget of exactly the
// program's instruction count completes while one less traps, and trap
// *sets* (the per-lane Lanes vector, location and detail) are identical
// between the tree reference, the bytecode engine and the native tier.
// The serving core leans on these edges: MaxFuel admission and
// FuelExhausted replies are only deterministic if every engine charges
// identically.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "interp/SimdInterp.h"
#include "transform/Pipeline.h"
#include "workloads/PaperKernels.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::workloads;

namespace {

void expectSameTrap(const Trap &A, const Trap &B) {
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.Lanes, B.Lanes);
  EXPECT_EQ(A.Location, B.Location);
  EXPECT_EQ(A.Detail, B.Detail);
}

machine::MachineConfig lanes(int64_t N) {
  machine::MachineConfig M;
  M.Name = "test-" + std::to_string(N);
  M.Processors = N;
  M.Gran = N;
  M.DataLayout = machine::Layout::Cyclic;
  return M;
}

/// Runs the pipeline-compiled paper example (flattened, min-one inner
/// trips, the `flattenc --assume-min-one --lanes=2` build) on the
/// 2-lane machine with \p Fuel; returns the outcome.
RunOutcome<SimdRunResult> runExample(Engine E, int64_t Fuel) {
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  EXPECT_TRUE(static_cast<bool>(C)) << C.error().render();
  RunOptions O;
  O.Eng = E;
  O.Fuel = Fuel;
  SimdInterp Interp(C->Prog, lanes(2), nullptr, O);
  if (E != Engine::Tree)
    Interp.setCompiled(C->Code);
  Interp.store().setInt("K", Spec.K);
  Interp.store().setIntArray("L", Spec.L);
  return Interp.run();
}

TEST(FuelEdge, ZeroFuelIsUnlimited) {
  for (Engine E : {Engine::Tree, Engine::Bytecode, Engine::Native}) {
    auto R = runExample(E, 0);
    ASSERT_TRUE(static_cast<bool>(R))
        << engineName(E) << ": " << R.error().render();
    EXPECT_GT(R->Stats.Instructions, 0) << engineName(E);
  }
}

TEST(FuelEdge, ExactBudgetCompletesOneLessTraps) {
  // Total charge of the unlimited run, which every engine must agree on...
  auto Free = runExample(Engine::Tree, 0);
  ASSERT_TRUE(static_cast<bool>(Free)) << Free.error().render();
  int64_t Total = Free->Stats.Instructions;
  ASSERT_GT(Total, 1);
  for (Engine E : {Engine::Tree, Engine::Bytecode, Engine::Native}) {
    // ...is exactly enough fuel: the last instruction does not trap.
    auto Exact = runExample(E, Total);
    ASSERT_TRUE(static_cast<bool>(Exact))
        << engineName(E) << ": a budget of the full instruction count "
        << "must complete, got " << Exact.error().render();
    EXPECT_EQ(Exact->Stats.Instructions, Total) << engineName(E);

    // One unit less traps, with the spent budget in the detail.
    auto Starved = runExample(E, Total - 1);
    ASSERT_FALSE(static_cast<bool>(Starved)) << engineName(E);
    EXPECT_EQ(Starved.error().Kind, TrapKind::FuelExhausted)
        << engineName(E);
    EXPECT_NE(Starved.error().Detail.find(std::to_string(Total - 1)),
              std::string::npos)
        << engineName(E) << ": " << Starved.error().Detail;
  }
}

/// Compiles \p Source through the full pipeline and runs it on the
/// 4-lane SIMD machine with \p Fuel; returns the outcome per engine.
RunOutcome<SimdRunResult> runSimd(const std::string &Source, Engine E,
                                  int64_t Fuel) {
  frontend::ParseResult PR = frontend::parseProgram(Source);
  EXPECT_TRUE(PR.ok()) << PR.Diags.renderAll();
  auto C = transform::compileForSimdExec(*PR.Prog);
  EXPECT_TRUE(static_cast<bool>(C)) << C.error().render();
  RunOptions O;
  O.Eng = E;
  O.Fuel = Fuel;
  SimdInterp Interp(C->Prog, lanes(4), nullptr, O);
  if (E != Engine::Tree)
    Interp.setCompiled(C->Code);
  const std::vector<int64_t> L = {1, 2, 9, 3};
  Interp.store().setIntArray("L", L);
  return Interp.run();
}

constexpr const char *PerLaneOobSource =
    "PROGRAM LANES\n"
    "DISTRIBUTED INTEGER A(8)\n"
    "DISTRIBUTED INTEGER L(4)\n"
    "INTEGER j\n"
    "BEGIN\n"
    "  DOALL j = 1, 4\n"
    "    A(L(j)) = j\n"
    "  ENDDO\n"
    "END\n";

TEST(FuelEdge, SimdPerLaneTrapSetEquality) {
  // L(3) = 9 sends exactly one lane out of A's extent: the trap's lane
  // set, location chain and detail must match across all engines.
  auto Tree = runSimd(PerLaneOobSource, Engine::Tree, 0);
  ASSERT_FALSE(static_cast<bool>(Tree));
  EXPECT_EQ(Tree.error().Kind, TrapKind::OutOfBounds);
  ASSERT_FALSE(Tree.error().Lanes.empty())
      << "an OOB store under SIMD must name the faulting lane(s)";
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    auto Got = runSimd(PerLaneOobSource, E, 0);
    ASSERT_FALSE(static_cast<bool>(Got)) << engineName(E);
    expectSameTrap(Tree.error(), Got.error());
  }
}

TEST(FuelEdge, SimdFuelTrapSetEquality) {
  // Starve the same SIMD program of fuel before the trapping store so
  // every engine reports the identical FuelExhausted trap instead.
  auto Tree = runSimd(PerLaneOobSource, Engine::Tree, 2);
  ASSERT_FALSE(static_cast<bool>(Tree));
  EXPECT_EQ(Tree.error().Kind, TrapKind::FuelExhausted);
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    auto Got = runSimd(PerLaneOobSource, E, 2);
    ASSERT_FALSE(static_cast<bool>(Got)) << engineName(E);
    expectSameTrap(Tree.error(), Got.error());
  }
}

/// Runs PerLaneOobSource with a deadline that expired before the run
/// started: the DeadlineExpired trap must fire at the first poll point
/// (instruction 1) with identical location and detail on all engines.
RunOutcome<SimdRunResult> runSimdExpired(Engine E) {
  frontend::ParseResult PR = frontend::parseProgram(PerLaneOobSource);
  EXPECT_TRUE(PR.ok()) << PR.Diags.renderAll();
  auto C = transform::compileForSimdExec(*PR.Prog);
  EXPECT_TRUE(static_cast<bool>(C)) << C.error().render();
  RunOptions O;
  O.Eng = E;
  O.Deadline = std::chrono::steady_clock::now() -
               std::chrono::milliseconds(10);
  SimdInterp Interp(C->Prog, lanes(4), nullptr, O);
  if (E != Engine::Tree)
    Interp.setCompiled(C->Code);
  const std::vector<int64_t> L = {1, 2, 9, 3};
  Interp.store().setIntArray("L", L);
  return Interp.run();
}

TEST(FuelEdge, DeadlineTrapIdenticalAcrossEngines) {
  auto Tree = runSimdExpired(Engine::Tree);
  ASSERT_FALSE(static_cast<bool>(Tree));
  EXPECT_EQ(Tree.error().Kind, TrapKind::DeadlineExpired);
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    auto Got = runSimdExpired(E);
    ASSERT_FALSE(static_cast<bool>(Got)) << engineName(E);
    expectSameTrap(Tree.error(), Got.error());
  }
}

} // namespace
