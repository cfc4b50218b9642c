//===- tests/exec/FuelEdgeTest.cpp -----------------------------*- C++ -*-===//
//
// Fuel-budget edge semantics on the SIMD machine, pinned across all
// three engines: Fuel = 0 is unlimited, a budget of exactly the
// program's instruction count completes while one less traps, and trap
// *sets* (the per-lane Lanes vector, location and detail) are identical
// between the tree reference, the bytecode engine and the native tier.
// The serving core leans on these edges: MaxFuel admission and
// FuelExhausted replies are only deterministic if every engine charges
// identically. The native tier charges a fused statement's instructions
// before its one lane loop; EveryBudgetMatchesBytecode pins that a fuel
// trap at any of those charges still leaves the bytecode engine's store.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeEngine.h"
#include "frontend/Parser.h"
#include "interp/SimdInterp.h"
#include "transform/Pipeline.h"
#include "workloads/PaperKernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>

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

/// A compiled program, its machine and its inputs.
struct BudgetCase {
  transform::CompiledSimdProgram C{ir::Program(""), nullptr};
  machine::MachineConfig M;
  std::function<void(DataStore &)> Seed;
  std::vector<std::string> WorkTargets;
};

/// Every store slot's payload in declaration order, reals as bits.
std::vector<std::vector<int64_t>> storeBits(const ir::Program &P,
                                            const DataStore &S) {
  std::vector<std::vector<int64_t>> Out;
  for (const ir::VarDecl &D : P.vars()) {
    const Slot &Sl = S.slot(D.Name);
    std::vector<int64_t> Bits = Sl.I;
    if (Sl.isReal()) {
      Bits.resize(Sl.R.size());
      if (!Bits.empty())
        std::memcpy(Bits.data(), Sl.R.data(), Bits.size() * sizeof(double));
    }
    Out.push_back(std::move(Bits));
  }
  return Out;
}

RunOutcome<SimdRunResult> runBudget(const BudgetCase &BC, Engine E,
                                    int64_t Fuel,
                                    std::vector<std::vector<int64_t>> &Bits) {
  RunOptions O;
  O.Eng = E;
  O.Fuel = Fuel;
  O.WorkTargets = BC.WorkTargets;
  SimdInterp Interp(BC.C.Prog, BC.M, nullptr, O);
  Interp.setCompiled(BC.C.Code);
  BC.Seed(Interp.store());
  auto R = Interp.run();
  Bits = storeBits(BC.C.Prog, Interp.store());
  return R;
}

/// For every budget from 1 to the program's total charge, native and
/// bytecode end the same way: the same trap (kind, lanes, location,
/// detail) over bit-identical stores, and at the total the same
/// RunStats.
void expectEveryBudgetMatches(const BudgetCase &BC) {
  std::vector<std::vector<int64_t>> ByteBits, NatBits;
  auto Free = runBudget(BC, Engine::Native, 0, NatBits);
  ASSERT_TRUE(static_cast<bool>(Free)) << Free.error().render();
  if (!codegen::nativeAvailable())
    GTEST_SKIP() << "no native tier in this build or host";
  ASSERT_EQ(Free->EngineUsed, Engine::Native);
  int64_t Total = Free->Stats.Instructions;
  ASSERT_GT(Total, 1);
  for (int64_t Budget = 1; Budget <= Total; ++Budget) {
    auto Byte = runBudget(BC, Engine::Bytecode, Budget, ByteBits);
    auto Nat = runBudget(BC, Engine::Native, Budget, NatBits);
    ASSERT_EQ(static_cast<bool>(Byte), static_cast<bool>(Nat))
        << "budget " << Budget;
    ASSERT_EQ(ByteBits, NatBits) << "store differs at budget " << Budget;
    if (!Byte) {
      ASSERT_EQ(Byte.error().Kind, TrapKind::FuelExhausted)
          << "budget " << Budget;
      expectSameTrap(Byte.error(), Nat.error());
      continue;
    }
    ASSERT_EQ(Budget, Total);
    EXPECT_EQ(Nat->EngineUsed, Engine::Native);
    EXPECT_EQ(Byte->Stats.Instructions, Nat->Stats.Instructions);
    EXPECT_EQ(Byte->Stats.Cycles, Nat->Stats.Cycles);
    EXPECT_EQ(Byte->Stats.Seconds, Nat->Stats.Seconds);
    EXPECT_EQ(Byte->Stats.WorkSteps, Nat->Stats.WorkSteps);
    EXPECT_EQ(Byte->Stats.WorkActiveLanes, Nat->Stats.WorkActiveLanes);
    EXPECT_EQ(Byte->Stats.WorkTotalLanes, Nat->Stats.WorkTotalLanes);
    EXPECT_EQ(Byte->Stats.CommAccesses, Nat->Stats.CommAccesses);
  }
}

/// WHERE / ELSEWHERE over statements of several lane-local
/// instructions, each masked commit to the replicated `t` preceded by
/// arithmetic the native tier fuses into the commit's lane loop.
constexpr const char *FusedWhereSource =
    "PROGRAM FUSED\n"
    "DISTRIBUTED REAL A(8)\n"
    "DISTRIBUTED REAL B(8)\n"
    "DISTRIBUTED REAL C(8)\n"
    "DISTRIBUTED REAL Y(8)\n"
    "REAL t\n"
    "INTEGER k\n"
    "BEGIN\n"
    "  DOALL k = 1, 8\n"
    "    WHERE (A(k) > 0.0)\n"
    "      t = A(k) * B(k) + C(k) - 2.0\n"
    "      Y(k) = t * t - C(k)\n"
    "    ELSEWHERE\n"
    "      t = -C(k)\n"
    "      Y(k) = A(k) * B(k) + C(k) - 2.0\n"
    "    ENDWHERE\n"
    "  ENDDO\n"
    "END\n";

/// A masked FORALL: its layer mask writes the index lanes before its
/// charge, and the native tier keeps that store ahead of the fused
/// statement's charges.
constexpr const char *FusedForallSource =
    "PROGRAM FUSEDFA\n"
    "DISTRIBUTED REAL V(8)\n"
    "DISTRIBUTED REAL W(8)\n"
    "REAL t\n"
    "INTEGER i\n"
    "BEGIN\n"
    "  FORALL (i = 1 : 6, V(i) > 0.0)\n"
    "    t = V(i) * 2.0 + 1.0\n"
    "    W(i) = t - V(i)\n"
    "  ENDFORALL\n"
    "END\n";

TEST(FuelEdge, EveryBudgetMatchesBytecode) {
  {
    SCOPED_TRACE("paper example, 2 lanes");
    ExampleSpec Spec = paperExampleSpec();
    transform::PipelineOptions PO;
    PO.AssumeInnerMinOneTrip = true;
    auto C = transform::compileForSimdExec(makeExample(Spec), PO);
    ASSERT_TRUE(static_cast<bool>(C)) << C.error().render();
    BudgetCase BC;
    BC.C = std::move(*C);
    BC.M = lanes(2);
    BC.Seed = [Spec](DataStore &S) {
      S.setInt("K", Spec.K);
      S.setIntArray("L", Spec.L);
    };
    expectEveryBudgetMatches(BC);
  }
  {
    SCOPED_TRACE("fused WHERE statements, 4 lanes");
    frontend::ParseResult PR = frontend::parseProgram(FusedWhereSource);
    ASSERT_TRUE(PR.ok()) << PR.Diags.renderAll();
    auto C = transform::compileForSimdExec(*PR.Prog);
    ASSERT_TRUE(static_cast<bool>(C)) << C.error().render();
    BudgetCase BC;
    BC.C = std::move(*C);
    BC.M = lanes(4);
    BC.WorkTargets = {"Y"};
    BC.Seed = [](DataStore &S) {
      S.setRealArray("A", std::vector<double>{1.5, -2.0, 0.0, 3.25, -0.5,
                                              2.0, -0.0, 4.0});
      S.setRealArray("B", std::vector<double>{2.0, 0.5, -1.0, 0.25, 8.0,
                                              -3.0, 1.0, 0.125});
      S.setRealArray("C", std::vector<double>{-0.0, 1.0, 2.5, -4.0, 0.0,
                                              0.75, -1.5, 3.0});
    };
    expectEveryBudgetMatches(BC);
  }
  {
    SCOPED_TRACE("masked FORALL, 4 lanes");
    frontend::ParseResult PR = frontend::parseProgram(FusedForallSource);
    ASSERT_TRUE(PR.ok()) << PR.Diags.renderAll();
    auto C = transform::compileForSimdExec(*PR.Prog);
    ASSERT_TRUE(static_cast<bool>(C)) << C.error().render();
    BudgetCase BC;
    BC.C = std::move(*C);
    BC.M = lanes(4);
    BC.WorkTargets = {"W"};
    BC.Seed = [](DataStore &S) {
      S.setRealArray("V", std::vector<double>{1.0, -2.0, 0.5, 3.0, -0.0,
                                              4.0, 7.0, 8.0});
    };
    expectEveryBudgetMatches(BC);
  }
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
