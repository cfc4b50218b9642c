//===- tests/codegen/NativeEngineTest.cpp ----------------------*- C++ -*-===//
//
// Three-engine equivalence for the native codegen tier: Engine::Native
// must be observably identical to the tree and bytecode engines on
// stores, every RunStats counter, traces, trip histograms and traps
// (kind, lanes, location, detail), including the IEEE value edges
// (signed zero, denormals, huge magnitudes) where vectorized host code
// and scalar C++ can legitimately disagree - and must degrade to the
// bytecode path, not fail, when no toolchain can be invoked. On builds
// configured with SIMDFLAT_ENABLE_JIT=OFF every test here still passes:
// Native degrades everywhere and the equivalence checks compare
// bytecode against itself.
//
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"
#include "codegen/JitCache.h"
#include "codegen/NativeEngine.h"
#include "exec/Engine.h"
#include "exec/Lower.h"
#include "frontend/Parser.h"
#include "interp/ScalarInterp.h"
#include "interp/SimdInterp.h"
#include "transform/Pipeline.h"
#include "workloads/PaperKernels.h"

#include "ir/Builder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <optional>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::ir;
using namespace simdflat::workloads;

namespace {

machine::MachineConfig lanes(int64_t Gran, machine::Layout L) {
  machine::MachineConfig M;
  M.Name = "test-" + std::to_string(Gran);
  M.Processors = Gran;
  M.Gran = Gran;
  M.DataLayout = L;
  return M;
}

void expectSameStats(const RunStats &A, const RunStats &B) {
  EXPECT_EQ(A.WorkSteps, B.WorkSteps);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.WorkActiveLanes, B.WorkActiveLanes);
  EXPECT_EQ(A.WorkTotalLanes, B.WorkTotalLanes);
  EXPECT_EQ(A.CommAccesses, B.CommAccesses);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Seconds, B.Seconds);
}

void expectSameTripNests(const RunStats &A, const RunStats &B) {
  ASSERT_EQ(A.TripNests.size(), B.TripNests.size());
  for (size_t I = 0; I < A.TripNests.size(); ++I) {
    const NestTripStats &X = A.TripNests[I], &Y = B.TripNests[I];
    EXPECT_EQ(X.Name, Y.Name);
    EXPECT_EQ(X.Depth, Y.Depth);
    EXPECT_EQ(X.Hist.Exact, Y.Hist.Exact) << X.Name;
    EXPECT_EQ(X.Hist.Log2, Y.Hist.Log2) << X.Name;
    EXPECT_EQ(X.Hist.Samples, Y.Hist.Samples) << X.Name;
    EXPECT_EQ(X.Hist.Sum, Y.Hist.Sum) << X.Name;
    EXPECT_EQ(X.Hist.Max, Y.Hist.Max) << X.Name;
  }
}

void expectSameTrap(const Trap &A, const Trap &B) {
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.Lanes, B.Lanes);
  EXPECT_EQ(A.Location, B.Location);
  EXPECT_EQ(A.Detail, B.Detail);
}

constexpr Engine AllEngines[] = {Engine::Tree, Engine::Bytecode,
                                 Engine::Native};

TEST(NativeEngine, FlattenedExampleEquivalence) {
  // The paper's flattened EXAMPLE with a recorded trace: stores, stats,
  // step-by-step trace values/masks and trip histograms must be
  // identical across all three engines.
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = lanes(2, machine::Layout::Cyclic);
  SimdRunResult R[3];
  std::vector<int64_t> X[3];
  int I = 0;
  for (Engine E : AllEngines) {
    RunOptions O;
    O.WorkTargets = {"X"};
    O.Watch = {"i", "j"};
    O.Eng = E;
    SimdInterp Interp(C->Prog, M, nullptr, O);
    if (E != Engine::Tree)
      Interp.setCompiled(C->Code);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    R[I] = Interp.run().value();
    X[I] = Interp.store().getIntArray("X");
    ++I;
  }
  for (int J : {1, 2}) {
    EXPECT_EQ(X[0], X[J]) << engineName(AllEngines[J]);
    expectSameStats(R[0].Stats, R[J].Stats);
    ASSERT_EQ(R[0].Tr.Steps.size(), R[J].Tr.Steps.size());
    for (size_t S = 0; S < R[0].Tr.Steps.size(); ++S) {
      EXPECT_EQ(R[0].Tr.Steps[S].Values, R[J].Tr.Steps[S].Values);
      EXPECT_EQ(R[0].Tr.Steps[S].Active, R[J].Tr.Steps[S].Active);
    }
  }
  // Trip histograms: tree records none; the lowered engines agree
  // bitwise among themselves.
  expectSameTripNests(R[1].Stats, R[2].Stats);
  // When this build can JIT, the run must actually have gone native.
  if (codegen::nativeAvailable()) {
    EXPECT_EQ(R[2].EngineUsed, Engine::Native);
  } else {
    EXPECT_EQ(R[2].EngineUsed, Engine::Bytecode);
  }
}

TEST(NativeEngine, OutOfBoundsTrapIdentity) {
  // A lane-varying gather where some active lane runs off the end: the
  // native module must collect the same faulting lane set and render
  // the same location/detail as every other engine.
  Program P("oob");
  P.setDialect(Dialect::F90Simd);
  P.addVar("A", ScalarKind::Int, {4}, Dist::Distributed);
  P.addVar("v", ScalarKind::Int, {}, Dist::Replicated);
  Builder B(P);
  P.body().push_back(B.set("v", B.laneIndex()));
  // Lane 4 reads A(5): out of bounds on an active lane.
  P.body().push_back(
      B.set("v", B.at("A", B.add(B.var("v"), B.lit(1)))));
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  Trap T[3];
  int I = 0;
  for (Engine E : AllEngines) {
    RunOptions O;
    O.Eng = E;
    SimdInterp Interp(P, M, nullptr, O);
    auto R = Interp.run();
    ASSERT_FALSE(R) << engineName(E);
    T[I++] = R.error();
  }
  EXPECT_EQ(T[0].Kind, TrapKind::OutOfBounds);
  EXPECT_EQ(T[0].Lanes, (std::vector<int64_t>{3}));
  for (int J : {1, 2})
    expectSameTrap(T[0], T[J]);
}

TEST(NativeEngine, FuelTrapIdentity) {
  // The watchdog fires after the same charged instruction under every
  // engine - the native module counts charges exactly like charge().
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  Trap T[3];
  int I = 0;
  for (Engine E : AllEngines) {
    RunOptions O;
    O.Eng = E;
    O.Fuel = 25;
    SimdInterp Interp(C->Prog, M, nullptr, O);
    if (E != Engine::Tree)
      Interp.setCompiled(C->Code);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    auto R = Interp.run();
    ASSERT_FALSE(R) << engineName(E);
    T[I++] = R.error();
  }
  EXPECT_EQ(T[0].Kind, TrapKind::FuelExhausted);
  for (int J : {1, 2})
    expectSameTrap(T[0], T[J]);
}

TEST(NativeEngine, ExternCallsPerActiveLaneInOrder) {
  // Extern invocation order, arguments, and work-call accounting cross
  // the ABI: the host-side CallVec must replay the interpreter's
  // per-active-lane order exactly.
  Program P("sub");
  P.setDialect(Dialect::F90Simd);
  P.addVar("v", ScalarKind::Int, {}, Dist::Replicated);
  P.addExtern("Probe", ScalarKind::Int, /*Pure=*/false,
              /*IsSubroutine=*/true);
  Builder B(P);
  P.body().push_back(B.set("v", B.laneIndex()));
  std::vector<ExprPtr> Args;
  Args.push_back(B.var("v"));
  P.body().push_back(B.where(
      B.le(B.var("v"), B.lit(2)),
      Builder::body(B.callSub("Probe", std::move(Args)))));
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  std::vector<int64_t> Logs[3];
  RunStats Stats[3];
  int I = 0;
  for (Engine E : AllEngines) {
    ExternRegistry Reg;
    std::vector<int64_t> &Seen = Logs[I];
    Reg.bind(
        "Probe",
        [&Seen](std::span<const ScalVal> A) {
          Seen.push_back(A[0].I);
          return ScalVal::makeInt(0);
        },
        /*Cost=*/7.0);
    RunOptions O;
    O.Eng = E;
    O.WorkCalls = {"Probe"};
    SimdInterp Interp(P, M, &Reg, O);
    Stats[I] = Interp.run().value().Stats;
    ++I;
  }
  EXPECT_EQ(Logs[0], (std::vector<int64_t>{1, 2}));
  for (int J : {1, 2}) {
    EXPECT_EQ(Logs[0], Logs[J]) << engineName(AllEngines[J]);
    expectSameStats(Stats[0], Stats[J]);
  }
}

TEST(NativeEngine, ExternFailureTrapIdentity) {
  // A throwing extern: ExternFailure with the failing lane, identical
  // detail text, after the same committed prefix of calls.
  Program P("fail");
  P.setDialect(Dialect::F90Simd);
  P.addVar("v", ScalarKind::Int, {}, Dist::Replicated);
  P.addExtern("Probe", ScalarKind::Int, /*Pure=*/false,
              /*IsSubroutine=*/true);
  Builder B(P);
  P.body().push_back(B.set("v", B.laneIndex()));
  std::vector<ExprPtr> Args;
  Args.push_back(B.var("v"));
  P.body().push_back(B.callSub("Probe", std::move(Args)));
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  Trap T[3];
  std::vector<int64_t> Logs[3];
  int I = 0;
  for (Engine E : AllEngines) {
    ExternRegistry Reg;
    std::vector<int64_t> &Seen = Logs[I];
    Reg.bind("Probe", [&Seen](std::span<const ScalVal> A) {
      if (A[0].I == 3)
        throw ExternError{"lane three refuses"};
      Seen.push_back(A[0].I);
      return ScalVal::makeInt(0);
    });
    RunOptions O;
    O.Eng = E;
    SimdInterp Interp(P, M, &Reg, O);
    auto R = Interp.run();
    ASSERT_FALSE(R) << engineName(E);
    T[I++] = R.error();
  }
  EXPECT_EQ(T[0].Kind, TrapKind::ExternFailure);
  EXPECT_EQ(T[0].Lanes, (std::vector<int64_t>{2}));
  for (int J : {1, 2}) {
    expectSameTrap(T[0], T[J]);
    EXPECT_EQ(Logs[0], Logs[J]);
  }
}

TEST(NativeEngine, ExpiredDeadlineTrapIdentity) {
  // A deadline already in the past traps at the first poll point with
  // the same statement location and detail under every engine.
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  Trap T[3];
  int I = 0;
  for (Engine E : AllEngines) {
    RunOptions O;
    O.Eng = E;
    O.Deadline = std::chrono::steady_clock::now() -
                 std::chrono::milliseconds(5);
    SimdInterp Interp(C->Prog, M, nullptr, O);
    if (E != Engine::Tree)
      Interp.setCompiled(C->Code);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    auto R = Interp.run();
    ASSERT_FALSE(R) << engineName(E);
    T[I++] = R.error();
  }
  EXPECT_EQ(T[0].Kind, TrapKind::DeadlineExpired);
  for (int J : {1, 2})
    expectSameTrap(T[0], T[J]);
}

TEST(NativeEngine, BlockLayoutForall) {
  // Block layout exercises the other FaLayerMask/laneOf emission path.
  Program P("fb");
  P.setDialect(Dialect::F90Simd);
  P.addVar("A", ScalarKind::Int, {10}, Dist::Distributed);
  P.addVar("e", ScalarKind::Int, {}, Dist::Replicated);
  Builder B(P);
  P.body().push_back(B.forall(
      "e", B.lit(1), B.lit(10), nullptr,
      Builder::body(B.assign(B.at("A", B.var("e")),
                             B.mul(B.var("e"), B.lit(3))))));
  machine::MachineConfig M = lanes(4, machine::Layout::Block);
  std::vector<int64_t> Want;
  for (int64_t E = 1; E <= 10; ++E)
    Want.push_back(3 * E);
  RunStats Stats[3];
  int I = 0;
  for (Engine E : AllEngines) {
    RunOptions O;
    O.Eng = E;
    SimdInterp Interp(P, M, nullptr, O);
    Stats[I] = Interp.run().value().Stats;
    EXPECT_EQ(Interp.store().getIntArray("A"), Want) << engineName(E);
    EXPECT_EQ(Stats[I].CommAccesses, 0) << engineName(E);
    ++I;
  }
  for (int J : {1, 2})
    expectSameStats(Stats[0], Stats[J]);
}

/// Compiles \p Source through the full pipeline and runs it under \p E
/// on a 4-lane cyclic machine. The arrays named in \p Reals / \p Ints
/// are seeded before the run and read back into the maps after it.
/// Under Engine::Native on a JIT-capable build the program must
/// actually compile, so the run exercises the emitted loops.
RunOutcome<SimdRunResult>
runSource(const char *Source, Engine E,
          std::map<std::string, std::vector<double>> &Reals,
          std::map<std::string, std::vector<int64_t>> &Ints,
          std::vector<std::string> WorkTargets = {}) {
  frontend::ParseResult PR = frontend::parseProgram(Source);
  EXPECT_TRUE(PR.ok()) << PR.Diags.renderAll();
  auto C = transform::compileForSimdExec(*PR.Prog);
  EXPECT_TRUE(static_cast<bool>(C)) << C.error().render();
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  bool ExpectNative = E == Engine::Native && codegen::nativeAvailable();
  if (ExpectNative) {
    EXPECT_TRUE(codegen::prepareNative(*C->Code, C->Prog, M));
  }
  RunOptions O;
  O.Eng = E;
  O.WorkTargets = std::move(WorkTargets);
  SimdInterp Interp(C->Prog, M, nullptr, O);
  if (E != Engine::Tree)
    Interp.setCompiled(C->Code);
  for (const auto &[Name, V] : Reals)
    Interp.store().setRealArray(Name, V);
  for (const auto &[Name, V] : Ints)
    Interp.store().setIntArray(Name, V);
  RunOutcome<SimdRunResult> R = Interp.run();
  for (auto &[Name, V] : Reals)
    V = Interp.store().getRealArray(Name);
  for (auto &[Name, V] : Ints)
    V = Interp.store().getIntArray(Name);
  if (R && ExpectNative) {
    EXPECT_EQ(R->EngineUsed, Engine::Native);
  }
  return R;
}

/// Bitwise equality for doubles: distinguishes -0.0 from 0.0 and treats
/// identical NaN payloads as equal, which value comparison cannot.
bool bitwiseEqual(const std::vector<double> &A,
                  const std::vector<double> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0);
}

TEST(NativeEngine, PaddedTailNeverCountsActive) {
  // 6 trips on a 4-lane machine: layer 1 full, layer 2 half idle. Every
  // engine must report 2 work steps covering 8 lane slots of which
  // exactly 6 were active - the padded tail charges the total but can
  // never count as active work (75% utilization, not 100%).
  const char *Source = "PROGRAM PAD\n"
                       "DISTRIBUTED INTEGER A(6)\n"
                       "INTEGER j\n"
                       "BEGIN\n"
                       "  DOALL j = 1, 6\n"
                       "    A(j) = j * j\n"
                       "  ENDDO\n"
                       "END\n";
  for (Engine E : AllEngines) {
    std::map<std::string, std::vector<double>> Reals;
    std::map<std::string, std::vector<int64_t>> Ints = {
        {"A", std::vector<int64_t>(6)}};
    auto R = runSource(Source, E, Reals, Ints, {"A"});
    ASSERT_TRUE(static_cast<bool>(R)) << engineName(E);
    EXPECT_EQ(R->Stats.WorkSteps, 2) << engineName(E);
    EXPECT_EQ(R->Stats.WorkActiveLanes, 6) << engineName(E);
    EXPECT_EQ(R->Stats.WorkTotalLanes, 8) << engineName(E);
    EXPECT_DOUBLE_EQ(R->Stats.workUtilization(), 0.75) << engineName(E);
    EXPECT_EQ(Ints["A"], (std::vector<int64_t>{1, 4, 9, 16, 25, 36}))
        << engineName(E);
  }
}

TEST(NativeEngine, RealKernelsBitIdentical) {
  // One expression soup over the value cases where vector instructions
  // and scalar C++ can legitimately disagree: signed zero (negation,
  // division), denormals, huge magnitudes, divide-by-zero (defined to
  // 0.0 here), MAX/MIN (blend rules), ABS, SQRT. The result arrays must
  // be bitwise equal across all three engines.
  const char *Source =
      "PROGRAM RK\n"
      "DISTRIBUTED REAL A(8)\n"
      "DISTRIBUTED REAL B(8)\n"
      "DISTRIBUTED REAL C(8)\n"
      "DISTRIBUTED REAL D(8)\n"
      "INTEGER k\n"
      "BEGIN\n"
      "  DOALL k = 1, 8\n"
      "    C(k) = (A(k) + B(k)) * A(k) - B(k) / A(k)\n"
      "    D(k) = MAX(A(k), B(k)) + MIN(A(k), B(k)) - (-A(k))\n"
      "    D(k) = D(k) + ABS(B(k)) + SQRT(ABS(A(k)))\n"
      "  ENDDO\n"
      "END\n";
  const std::map<std::string, std::vector<double>> Seeds = {
      {"A", {1.5, -2.25, 0.0, 5e-324, -0.0, 3.75, 1e300, -5.5}},
      {"B", {-0.0, 0.5, -1.25, 0.0, 2.0, -7.5, 1e-300, 4.25}},
      {"C", std::vector<double>(8, 0.0)},
      {"D", std::vector<double>(8, 0.0)},
  };
  std::map<std::string, std::vector<int64_t>> NoInts;
  auto Ref = Seeds;
  auto RefR = runSource(Source, Engine::Tree, Ref, NoInts);
  ASSERT_TRUE(static_cast<bool>(RefR));
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    auto Got = Seeds;
    auto R = runSource(Source, E, Got, NoInts);
    ASSERT_TRUE(static_cast<bool>(R)) << engineName(E);
    EXPECT_TRUE(bitwiseEqual(Ref["C"], Got["C"])) << engineName(E);
    EXPECT_TRUE(bitwiseEqual(Ref["D"], Got["D"])) << engineName(E);
    EXPECT_EQ(RefR->Stats.Instructions, R->Stats.Instructions)
        << engineName(E);
    EXPECT_EQ(RefR->Stats.Cycles, R->Stats.Cycles) << engineName(E);
  }
}

TEST(NativeEngine, MaskedWhereBlendsExactly) {
  // Divergent WHERE/ELSEWHERE: a vectorized masked commit is a blend,
  // and idle lanes must keep their old bits exactly (including a -0.0
  // that a sloppy blend could renormalize).
  const char *Source = "PROGRAM WB\n"
                       "DISTRIBUTED REAL V(8)\n"
                       "DISTRIBUTED INTEGER W(8)\n"
                       "INTEGER k\n"
                       "BEGIN\n"
                       "  DOALL k = 1, 8\n"
                       "    WHERE (V(k) > 0.5)\n"
                       "      V(k) = V(k) * 2.0\n"
                       "      W(k) = k\n"
                       "    ELSEWHERE\n"
                       "      W(k) = -k\n"
                       "    ENDWHERE\n"
                       "  ENDDO\n"
                       "END\n";
  const std::map<std::string, std::vector<double>> Seeds = {
      {"V", {1.0, 0.25, -0.0, 2.5, 0.5, 7.75, -3.0, 0.75}},
  };
  const std::map<std::string, std::vector<int64_t>> IntSeeds = {
      {"W", std::vector<int64_t>(8, 0)},
  };
  auto Ref = Seeds;
  auto RefInts = IntSeeds;
  ASSERT_TRUE(static_cast<bool>(
      runSource(Source, Engine::Tree, Ref, RefInts)));
  EXPECT_EQ(RefInts["W"], (std::vector<int64_t>{1, -2, -3, 4, -5, 6, -7, 8}));
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    auto Got = Seeds;
    auto GotInts = IntSeeds;
    ASSERT_TRUE(static_cast<bool>(runSource(Source, E, Got, GotInts)))
        << engineName(E);
    EXPECT_TRUE(bitwiseEqual(Ref["V"], Got["V"])) << engineName(E);
    EXPECT_EQ(RefInts["W"], GotInts["W"]) << engineName(E);
  }
}

TEST(NativeEngine, SqrtNegativeActiveLaneTrapsIdentically) {
  // A vectorized sqrt has a fast path (no negative anywhere) and a
  // trap-collecting sweep; force the sweep and require the same
  // per-lane trap set as the reference engines.
  const char *Source = "PROGRAM SN\n"
                       "DISTRIBUTED REAL A(4)\n"
                       "DISTRIBUTED REAL B(4)\n"
                       "INTEGER k\n"
                       "BEGIN\n"
                       "  DOALL k = 1, 4\n"
                       "    B(k) = SQRT(A(k))\n"
                       "  ENDDO\n"
                       "END\n";
  const std::map<std::string, std::vector<double>> Seeds = {
      {"A", {4.0, -1.0, 9.0, -16.0}},
      {"B", std::vector<double>(4, 0.0)},
  };
  std::map<std::string, std::vector<int64_t>> NoInts;
  Trap T[3];
  int I = 0;
  for (Engine E : AllEngines) {
    auto Reals = Seeds;
    auto R = runSource(Source, E, Reals, NoInts);
    ASSERT_FALSE(static_cast<bool>(R)) << engineName(E);
    T[I++] = R.error();
  }
  EXPECT_EQ(T[0].Kind, TrapKind::DomainError);
  EXPECT_EQ(T[0].Lanes, (std::vector<int64_t>{1, 3}));
  for (int J : {1, 2})
    expectSameTrap(T[0], T[J]);
}

/// One engine's view of a run on the 4-lane cyclic machine: the store
/// it left, its counters (for bytecode and native also after a trap)
/// and the trap, if any.
struct EngineRun {
  std::optional<Trap> T;
  RunStats Stats;
  std::map<std::string, std::vector<int64_t>> Ints;
  std::map<std::string, std::vector<double>> Reals;
  Engine Used = Engine::Tree;
};

/// Runs \p Prog (lowered: \p Code) under \p E. \p Seed fills the store;
/// the slots named in \p IntSlots / \p RealSlots are read back raw (all
/// lanes of a replicated scalar). Bytecode and native run through the
/// engine entry points directly, so their counters survive a trap.
EngineRun runEngine(const Program &Prog,
                    const std::shared_ptr<const exec::Program> &Code,
                    Engine E, const std::function<void(DataStore &)> &Seed,
                    const std::vector<std::string> &IntSlots,
                    const std::vector<std::string> &RealSlots,
                    const ExternRegistry *Reg = nullptr) {
  machine::MachineConfig M = lanes(4, machine::Layout::Cyclic);
  RunOptions O;
  O.Eng = E;
  EngineRun Out;
  auto ReadBack = [&](const DataStore &S) {
    for (const std::string &N : IntSlots)
      Out.Ints[N] = S.slot(N).I;
    for (const std::string &N : RealSlots)
      Out.Reals[N] = S.slot(N).R;
  };
  if (E == Engine::Tree) {
    SimdInterp Interp(Prog, M, Reg, O);
    Seed(Interp.store());
    auto R = Interp.run();
    if (R)
      Out.Stats = R->Stats;
    else
      Out.T = R.error();
    ReadBack(Interp.store());
    return Out;
  }
  DataStore Store(Prog, M.Gran);
  Seed(Store);
  SimdRunResult R;
  Out.Used = E;
  try {
    if (E != Engine::Native ||
        !codegen::runSimdNative(*Code, Prog, M, Reg, O, Store, R)) {
      Out.Used = Engine::Bytecode;
      exec::runSimd(*Code, M, Reg, O, Store, R);
    }
  } catch (TrapException &X) {
    Out.T = std::move(X.T);
  }
  Out.Stats = R.Stats;
  ReadBack(Store);
  return Out;
}

/// Runs all three engines and checks them: trap and store (bitwise)
/// against the tree, counters against bytecode - after a trap too.
/// Returns the tree's run.
EngineRun expectEnginesAgree(const Program &Prog,
                             const std::shared_ptr<const exec::Program> &Code,
                             const std::function<void(DataStore &)> &Seed,
                             const std::vector<std::string> &IntSlots,
                             const std::vector<std::string> &RealSlots) {
  EngineRun Tree =
      runEngine(Prog, Code, Engine::Tree, Seed, IntSlots, RealSlots);
  EngineRun Byte =
      runEngine(Prog, Code, Engine::Bytecode, Seed, IntSlots, RealSlots);
  EngineRun Nat =
      runEngine(Prog, Code, Engine::Native, Seed, IntSlots, RealSlots);
  if (codegen::nativeAvailable()) {
    EXPECT_EQ(Nat.Used, Engine::Native);
  }
  for (const EngineRun *X : {&Byte, &Nat}) {
    const char *Name = engineName(X->Used);
    EXPECT_EQ(Tree.T.has_value(), X->T.has_value()) << Name;
    if (Tree.T && X->T)
      expectSameTrap(*Tree.T, *X->T);
    EXPECT_EQ(Tree.Ints, X->Ints) << Name;
    for (const auto &[N, V] : Tree.Reals)
      EXPECT_TRUE(bitwiseEqual(V, X->Reals.at(N))) << Name << " " << N;
  }
  expectSameStats(Byte.Stats, Nat.Stats);
  expectSameTripNests(Byte.Stats, Nat.Stats);
  if (!Tree.T)
    expectSameStats(Tree.Stats, Nat.Stats);
  return Tree;
}

/// Parses and compiles \p Source into \p Out for the engines above.
void compileSource(const char *Source, transform::CompiledSimdProgram &Out) {
  frontend::ParseResult PR = frontend::parseProgram(Source);
  ASSERT_TRUE(PR.ok()) << PR.Diags.renderAll();
  auto C = transform::compileForSimdExec(*PR.Prog);
  ASSERT_TRUE(static_cast<bool>(C)) << C.error().render();
  Out = std::move(*C);
}

TEST(NativeEngine, GatherOutOfBoundsIdleLanesDoNotTrap) {
  // The padded tail of DOALL k = 1, 6 on 4 lanes reads A(7) and A(8) on
  // idle lanes, and the WHERE idles the lanes whose IX is out of range:
  // the bounds pass fails, and the fallback sweep must read 0 there
  // without trapping.
  const char *Source = "PROGRAM GI\n"
                       "DISTRIBUTED INTEGER A(6)\n"
                       "DISTRIBUTED INTEGER B(6)\n"
                       "DISTRIBUTED INTEGER C(6)\n"
                       "DISTRIBUTED INTEGER IX(6)\n"
                       "INTEGER k\n"
                       "BEGIN\n"
                       "  DOALL k = 1, 6\n"
                       "    B(k) = A(k) + 1\n"
                       "    WHERE (IX(k) >= 1 .AND. IX(k) <= 6)\n"
                       "      C(k) = A(IX(k))\n"
                       "    ENDWHERE\n"
                       "  ENDDO\n"
                       "END\n";
  transform::CompiledSimdProgram C{Program(""), nullptr};
  ASSERT_NO_FATAL_FAILURE(compileSource(Source, C));
  auto Seed = [](DataStore &S) {
    S.setIntArray("A", std::vector<int64_t>{10, 20, 30, 40, 50, 60});
    S.setIntArray("IX", std::vector<int64_t>{2, 9, 1, 0, 6, 3});
    S.setIntArray("C", std::vector<int64_t>(6, -1));
  };
  EngineRun Tree = expectEnginesAgree(C.Prog, C.Code, Seed, {"B", "C"}, {});
  ASSERT_FALSE(Tree.T) << Tree.T->render();
  EXPECT_EQ(Tree.Ints["B"], (std::vector<int64_t>{11, 21, 31, 41, 51, 61}));
  EXPECT_EQ(Tree.Ints["C"], (std::vector<int64_t>{20, -1, 10, -1, 60, 30}));
}

TEST(NativeEngine, GatherOutOfBoundsActiveLanesTrapIdentically) {
  // Active lanes 1 and 3 index A(9) and A(0): the same lane set, trap
  // location and counters under every engine.
  const char *Source = "PROGRAM GA\n"
                       "DISTRIBUTED INTEGER A(4)\n"
                       "DISTRIBUTED INTEGER B(4)\n"
                       "DISTRIBUTED INTEGER IX(4)\n"
                       "INTEGER k\n"
                       "BEGIN\n"
                       "  DOALL k = 1, 4\n"
                       "    B(k) = A(IX(k))\n"
                       "  ENDDO\n"
                       "END\n";
  transform::CompiledSimdProgram C{Program(""), nullptr};
  ASSERT_NO_FATAL_FAILURE(compileSource(Source, C));
  auto Seed = [](DataStore &S) {
    S.setIntArray("A", std::vector<int64_t>{1, 2, 3, 4});
    S.setIntArray("IX", std::vector<int64_t>{2, 9, 1, 0});
  };
  EngineRun Tree = expectEnginesAgree(C.Prog, C.Code, Seed, {"B"}, {});
  ASSERT_TRUE(Tree.T);
  EXPECT_EQ(Tree.T->Kind, TrapKind::OutOfBounds);
  EXPECT_EQ(Tree.T->Lanes, (std::vector<int64_t>{1, 3}));
}

TEST(NativeEngine, ScatterConflictLastActiveLaneWins) {
  // Lanes 0 and 2 both write B(2): committed in lane order, lane 2's
  // value stays; B(4) is never written.
  const char *Source = "PROGRAM SC\n"
                       "DISTRIBUTED INTEGER B(4)\n"
                       "DISTRIBUTED INTEGER IX(4)\n"
                       "INTEGER k\n"
                       "BEGIN\n"
                       "  DOALL k = 1, 4\n"
                       "    B(IX(k)) = k * 10\n"
                       "  ENDDO\n"
                       "END\n";
  transform::CompiledSimdProgram C{Program(""), nullptr};
  ASSERT_NO_FATAL_FAILURE(compileSource(Source, C));
  auto Seed = [](DataStore &S) {
    S.setIntArray("IX", std::vector<int64_t>{2, 3, 2, 1});
    S.setIntArray("B", std::vector<int64_t>{-1, -1, -1, -1});
  };
  EngineRun Tree = expectEnginesAgree(C.Prog, C.Code, Seed, {"B"}, {});
  ASSERT_FALSE(Tree.T) << Tree.T->render();
  EXPECT_EQ(Tree.Ints["B"], (std::vector<int64_t>{40, 30, 20, -1}));
}

TEST(NativeEngine, ScatterOutOfBoundsActiveLaneCommitsNothing) {
  // Lane 2 writes B(7): the scatter traps on it before any lane
  // commits, so B keeps its seed under every engine.
  const char *Source = "PROGRAM SO\n"
                       "DISTRIBUTED INTEGER B(4)\n"
                       "DISTRIBUTED INTEGER IX(4)\n"
                       "INTEGER k\n"
                       "BEGIN\n"
                       "  DOALL k = 1, 4\n"
                       "    B(IX(k)) = k\n"
                       "  ENDDO\n"
                       "END\n";
  transform::CompiledSimdProgram C{Program(""), nullptr};
  ASSERT_NO_FATAL_FAILURE(compileSource(Source, C));
  auto Seed = [](DataStore &S) {
    S.setIntArray("IX", std::vector<int64_t>{1, 2, 7, 3});
    S.setIntArray("B", std::vector<int64_t>{5, 6, 7, 8});
  };
  EngineRun Tree = expectEnginesAgree(C.Prog, C.Code, Seed, {"B"}, {});
  ASSERT_TRUE(Tree.T);
  EXPECT_EQ(Tree.T->Kind, TrapKind::OutOfBounds);
  EXPECT_EQ(Tree.T->Lanes, (std::vector<int64_t>{2}));
  EXPECT_EQ(Tree.Ints["B"], (std::vector<int64_t>{5, 6, 7, 8}));
}

TEST(NativeEngine, DivModByLiteralZeroTrapsOnActiveLanesOnly) {
  // Every lane divides by the literal 0; only the WHERE's active lanes
  // (A > 2: lanes 1 and 3) are the fault set.
  for (const char *Op : {"A(k) / 0", "MOD(A(k), 0)"}) {
    std::string Source = "PROGRAM DZ\n"
                         "DISTRIBUTED INTEGER A(4)\n"
                         "DISTRIBUTED INTEGER B(4)\n"
                         "INTEGER k\n"
                         "BEGIN\n"
                         "  DOALL k = 1, 4\n"
                         "    WHERE (A(k) > 2)\n"
                         "      B(k) = ";
    Source += Op;
    Source += "\n    ENDWHERE\n  ENDDO\nEND\n";
    transform::CompiledSimdProgram C{Program(""), nullptr};
    ASSERT_NO_FATAL_FAILURE(compileSource(Source.c_str(), C));
    auto Seed = [](DataStore &S) {
      S.setIntArray("A", std::vector<int64_t>{1, 5, 2, 7});
    };
    EngineRun Tree = expectEnginesAgree(C.Prog, C.Code, Seed, {"B"}, {});
    ASSERT_TRUE(Tree.T) << Op;
    EXPECT_EQ(Tree.T->Kind, TrapKind::DivByZero) << Op;
    EXPECT_EQ(Tree.T->Lanes, (std::vector<int64_t>{1, 3})) << Op;
  }
}

TEST(NativeEngine, DivModByNonzeroLiteralMatchesSweep) {
  // A literal divisor skips the zero sweep; truncation toward zero and
  // the sign of MOD must still match on negative dividends.
  const char *Source = "PROGRAM DL\n"
                       "DISTRIBUTED INTEGER A(6)\n"
                       "DISTRIBUTED INTEGER B(6)\n"
                       "DISTRIBUTED INTEGER C(6)\n"
                       "INTEGER k\n"
                       "BEGIN\n"
                       "  DOALL k = 1, 6\n"
                       "    B(k) = A(k) / 3\n"
                       "    C(k) = MOD(A(k), 4)\n"
                       "  ENDDO\n"
                       "END\n";
  transform::CompiledSimdProgram C{Program(""), nullptr};
  ASSERT_NO_FATAL_FAILURE(compileSource(Source, C));
  auto Seed = [](DataStore &S) {
    S.setIntArray("A", std::vector<int64_t>{-7, 7, -1, 0, 13, -13});
  };
  EngineRun Tree = expectEnginesAgree(C.Prog, C.Code, Seed, {"B", "C"}, {});
  ASSERT_FALSE(Tree.T) << Tree.T->render();
  EXPECT_EQ(Tree.Ints["B"], (std::vector<int64_t>{-2, 2, 0, 0, 4, -4}));
  EXPECT_EQ(Tree.Ints["C"], (std::vector<int64_t>{-3, 3, -1, 0, 1, -1}));
}

TEST(NativeEngine, DivModByMinusOneNegatesAndIsZero) {
  // The host's INT64_MIN / -1 overflows (SIGFPE on x86). DIV by -1 is
  // the two's-complement negation, so INT64_MIN / -1 is INT64_MIN, and
  // MOD by -1 is 0: by a register divisor and by the literal, on every
  // SIMD engine and on the scalar interpreter alike, and when the
  // pipeline folds two literals at compile time (QF, RF).
  const char *Source = "PROGRAM DM\n"
                       "DISTRIBUTED INTEGER A(4)\n"
                       "DISTRIBUTED INTEGER D(4)\n"
                       "DISTRIBUTED INTEGER Q(4)\n"
                       "DISTRIBUTED INTEGER R(4)\n"
                       "DISTRIBUTED INTEGER QL(4)\n"
                       "DISTRIBUTED INTEGER RL(4)\n"
                       "DISTRIBUTED INTEGER QF(4)\n"
                       "DISTRIBUTED INTEGER RF(4)\n"
                       "INTEGER k\n"
                       "BEGIN\n"
                       "  DOALL k = 1, 4\n"
                       "    Q(k) = A(k) / D(k)\n"
                       "    R(k) = MOD(A(k), D(k))\n"
                       "    QL(k) = A(k) / (-1)\n"
                       "    RL(k) = MOD(A(k), -1)\n"
                       "    QF(k) = (-9223372036854775807 - 1) / (-1)\n"
                       "    RF(k) = MOD(-9223372036854775807 - 1, -1)\n"
                       "  ENDDO\n"
                       "END\n";
  transform::CompiledSimdProgram C{Program(""), nullptr};
  ASSERT_NO_FATAL_FAILURE(compileSource(Source, C));
  constexpr int64_t Min = std::numeric_limits<int64_t>::min();
  auto Seed = [](DataStore &S) {
    S.setIntArray("A", std::vector<int64_t>{Min, -7, 7, Min});
    S.setIntArray("D", std::vector<int64_t>{-1, -1, 2, 3});
  };
  const std::vector<std::string> Out = {"Q", "R", "QL", "RL", "QF", "RF"};
  EngineRun Tree = expectEnginesAgree(C.Prog, C.Code, Seed, Out, {});
  ASSERT_FALSE(Tree.T) << Tree.T->render();
  EXPECT_EQ(Tree.Ints["Q"],
            (std::vector<int64_t>{Min, 7, 3, -3074457345618258602}));
  EXPECT_EQ(Tree.Ints["R"], (std::vector<int64_t>{0, 0, 1, -2}));
  EXPECT_EQ(Tree.Ints["QL"], (std::vector<int64_t>{Min, 7, -7, Min}));
  EXPECT_EQ(Tree.Ints["RL"], (std::vector<int64_t>{0, 0, 0, 0}));
  EXPECT_EQ(Tree.Ints["QF"], (std::vector<int64_t>{Min, Min, Min, Min}));
  EXPECT_EQ(Tree.Ints["RF"], (std::vector<int64_t>{0, 0, 0, 0}));

  // The scalar baseline runs the untransformed program.
  frontend::ParseResult PR = frontend::parseProgram(Source);
  ASSERT_TRUE(PR.ok()) << PR.Diags.renderAll();
  ScalarInterp Scalar(*PR.Prog, machine::MachineConfig::sparc2(), nullptr);
  Seed(Scalar.store());
  auto SR = Scalar.run();
  ASSERT_TRUE(static_cast<bool>(SR)) << SR.error().render();
  for (const std::string &N : Out)
    EXPECT_EQ(Scalar.store().slot(N).I, Tree.Ints[N]) << N;
}

TEST(NativeEngine, ExternThrowingOnThirdActiveLaneStopsThere) {
  // Under WHERE (lanes 0, 2, 3 active) the extern refuses the third
  // active lane: the trap names lane 3, the counters match and the call
  // log holds exactly the two calls before it.
  Program P("ext3");
  P.setDialect(Dialect::F90Simd);
  P.addVar("v", ScalarKind::Int, {}, Dist::Replicated);
  P.addExtern("Probe", ScalarKind::Int, /*Pure=*/false,
              /*IsSubroutine=*/true);
  Builder B(P);
  P.body().push_back(B.set("v", B.laneIndex()));
  std::vector<ExprPtr> Args;
  Args.push_back(B.var("v"));
  P.body().push_back(B.where(
      B.ne(B.var("v"), B.lit(2)),
      Builder::body(B.callSub("Probe", std::move(Args)))));
  auto Code = std::make_shared<const exec::Program>(
      exec::lower(P, exec::Mode::Simd));
  std::vector<int64_t> Logs[3];
  EngineRun Runs[3];
  int I = 0;
  for (Engine E : AllEngines) {
    ExternRegistry Reg;
    std::vector<int64_t> &Seen = Logs[I];
    Reg.bind(
        "Probe",
        [&Seen](std::span<const ScalVal> A) {
          if (Seen.size() == 2)
            throw ExternError{"third active lane refuses"};
          Seen.push_back(A[0].I);
          return ScalVal::makeInt(0);
        },
        /*Cost=*/3.0);
    Runs[I++] = runEngine(P, Code, E, [](DataStore &) {}, {"v"}, {}, &Reg);
  }
  ASSERT_TRUE(Runs[0].T);
  EXPECT_EQ(Runs[0].T->Kind, TrapKind::ExternFailure);
  EXPECT_EQ(Runs[0].T->Lanes, (std::vector<int64_t>{3}));
  EXPECT_EQ(Logs[0], (std::vector<int64_t>{1, 3}));
  if (codegen::nativeAvailable()) {
    EXPECT_EQ(Runs[2].Used, Engine::Native);
  }
  for (int J : {1, 2}) {
    ASSERT_TRUE(Runs[J].T) << engineName(AllEngines[J]);
    expectSameTrap(*Runs[0].T, *Runs[J].T);
    EXPECT_EQ(Logs[0], Logs[J]) << engineName(AllEngines[J]);
  }
  expectSameStats(Runs[1].Stats, Runs[2].Stats);
  EXPECT_GT(Runs[2].Stats.Instructions, 0);
}

TEST(NativeEngine, PartialMaskStoresKeepIdlePayloads) {
  // Replicated INTEGER and REAL scalars under a partial mask: the
  // native commit is a blend, and the idle lanes (2 and 3) must keep
  // their exact bits - a -0.0 and quiet and signaling NaN payloads.
  Program P("keep");
  P.setDialect(Dialect::F90Simd);
  P.addVar("x", ScalarKind::Real, {}, Dist::Replicated);
  P.addVar("n", ScalarKind::Int, {}, Dist::Replicated);
  Builder B(P);
  P.body().push_back(B.where(
      B.le(B.laneIndex(), B.lit(2)),
      Builder::body(B.set("x", B.lit(1.5)), B.set("n", B.lit(7)))));
  auto Code = std::make_shared<const exec::Program>(
      exec::lower(P, exec::Mode::Simd));
  auto Bits = [](uint64_t U) {
    double D;
    std::memcpy(&D, &U, sizeof(D));
    return D;
  };
  const double QuietNaN = Bits(0x7ff8000000000123ULL);
  const double SignalingNaN = Bits(0x7ff0000000000001ULL);
  for (double Idle2 : {-0.0, QuietNaN}) {
    auto Seed = [&](DataStore &S) {
      Slot &X = S.slot("x");
      X.R = {0.0, 0.0, Idle2, SignalingNaN};
      Slot &N = S.slot("n");
      N.I = {0, 0, INT64_MIN, -1};
    };
    EngineRun Tree = expectEnginesAgree(P, Code, Seed, {"n"}, {"x"});
    ASSERT_FALSE(Tree.T) << Tree.T->render();
    std::vector<double> Want = {1.5, 1.5, Idle2, SignalingNaN};
    EXPECT_TRUE(bitwiseEqual(Tree.Reals["x"], Want));
    EXPECT_EQ(Tree.Ints["n"], (std::vector<int64_t>{7, 7, INT64_MIN, -1}));
  }
}

TEST(NativeEngine, OutOfRangeRealConstantsConvertAtRunTime) {
  // Storing a real constant into an integer truncates at run time in
  // the interpreter; outside the int64 range (and for NaN) the host's
  // conversion instruction decides the result. The emitter must not
  // hand that conversion to the host compiler's constant folder, which
  // may saturate where the instruction does not.
  Program P("conv");
  P.setDialect(Dialect::F90Simd);
  P.addVar("a", ScalarKind::Int, {}, Dist::Replicated);
  P.addVar("b", ScalarKind::Int, {}, Dist::Replicated);
  P.addVar("c", ScalarKind::Int, {}, Dist::Replicated);
  P.addVar("d", ScalarKind::Int, {}, Dist::Replicated);
  Builder B(P);
  P.body().push_back(B.set("a", B.lit(1e30)));
  P.body().push_back(B.set("b", B.lit(-1e30)));
  P.body().push_back(B.set("c", B.lit(std::nan(""))));
  P.body().push_back(B.set("d", B.lit(-7.75)));
  auto Code = std::make_shared<const exec::Program>(
      exec::lower(P, exec::Mode::Simd));
  EngineRun Tree = expectEnginesAgree(P, Code, [](DataStore &) {},
                                      {"a", "b", "c", "d"}, {});
  ASSERT_FALSE(Tree.T) << Tree.T->render();
  EXPECT_EQ(Tree.Ints["d"], (std::vector<int64_t>(4, -7)));
}

TEST(NativeEngine, WideMachineFrameLivesOnTheHeap) {
  // At 8192 lanes the register arrays outgrow a thread's stack: the
  // module carves its frame out of one heap block instead, and must
  // still match bytecode bit for bit.
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = lanes(8192, machine::Layout::Cyclic);
  EXPECT_NE(codegen::emitCpp(*C->Code, C->Prog, M).find("std::calloc"),
            std::string::npos);
  SimdRunResult R[2];
  std::vector<int64_t> X[2];
  int I = 0;
  for (Engine E : {Engine::Bytecode, Engine::Native}) {
    RunOptions O;
    O.Eng = E;
    O.WorkTargets = {"X"};
    SimdInterp Interp(C->Prog, M, nullptr, O);
    Interp.setCompiled(C->Code);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    R[I] = Interp.run().value();
    X[I] = Interp.store().getIntArray("X");
    ++I;
  }
  if (codegen::nativeAvailable()) {
    EXPECT_EQ(R[1].EngineUsed, Engine::Native);
  }
  EXPECT_EQ(X[0], X[1]);
  expectSameStats(R[0].Stats, R[1].Stats);
  expectSameTripNests(R[0].Stats, R[1].Stats);
}

TEST(NativeEngine, DegradesToBytecodeWithoutCompiler) {
  // Pointing the JIT at a nonexistent compiler and an uncreatable
  // artifact directory (so no prior on-disk .so can satisfy the build
  // either) must not fail the run: the result is computed by the
  // bytecode engine and EngineUsed says so. Uses a distinct lane count
  // so no earlier test's in-process memo can satisfy this program.
  ::setenv("SIMDFLAT_JIT_CC", "/nonexistent/compiler-for-fallback-test",
           1);
  ::setenv("SIMDFLAT_JIT_DIR", "/dev/null/no-jit-dir", 1);
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = lanes(8, machine::Layout::Cyclic);
  RunOptions O;
  O.Eng = Engine::Native;
  SimdInterp Interp(C->Prog, M, nullptr, O);
  Interp.setCompiled(C->Code);
  Interp.store().setInt("K", Spec.K);
  Interp.store().setIntArray("L", Spec.L);
  SimdRunResult R = Interp.run().value();
  ::unsetenv("SIMDFLAT_JIT_CC");
  ::unsetenv("SIMDFLAT_JIT_DIR");
  EXPECT_EQ(R.EngineUsed, Engine::Bytecode);
  EXPECT_GT(R.Stats.Instructions, 0);
  // The failed compile is a cached outcome, visible in the stats.
  if (codegen::jitAvailable()) {
    EXPECT_GE(codegen::jitStats().Failures, 1);
  }
}

} // namespace
