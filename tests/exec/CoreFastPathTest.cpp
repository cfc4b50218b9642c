//===- tests/exec/CoreFastPathTest.cpp -------------------------*- C++ -*-===//
//
// The bytecode core's fast paths (docs in DESIGN.md s11): dispatch in
// steady state allocates nothing, comparisons still evaluate through
// double when each operand lane widens inside the compare loop, and
// ANY/ALL over no active lane reduce to their identities. What the
// fast paths do when a lane faults or idles (out-of-bounds gathers and
// scatters, scatter conflicts, idle-lane payloads) is pinned by the
// NativeEngine.* cases in test_codegen, which hold bytecode to the tree
// walker.
//
// This file replaces the global operator new with one that counts
// calls inside a window, for the whole test_exec binary.
//
//===----------------------------------------------------------------------===//

#include "exec/Engine.h"
#include "frontend/Parser.h"
#include "interp/SimdInterp.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <span>

namespace {
std::atomic<bool> CountAllocs{false};
std::atomic<int64_t> Allocs{0};
} // namespace

// All three out of line, so GCC (at -O3 too) never sees a pointer
// from an inlined malloc() meet operator delete, or one from an inlined
// operator new meet free().
[[gnu::noinline]] void *operator new(std::size_t Size) {
  if (CountAllocs.load(std::memory_order_relaxed))
    Allocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

using namespace simdflat;
using namespace simdflat::interp;

namespace {

machine::MachineConfig lanes(int64_t N) {
  machine::MachineConfig M;
  M.Name = "test-" + std::to_string(N);
  M.Processors = N;
  M.Gran = N;
  M.DataLayout = machine::Layout::Cyclic;
  return M;
}

transform::CompiledSimdProgram compile(const char *Source) {
  frontend::ParseResult PR = frontend::parseProgram(Source);
  EXPECT_TRUE(PR.ok()) << PR.Diags.renderAll();
  auto C = transform::compileForSimdExec(*PR.Prog);
  EXPECT_TRUE(static_cast<bool>(C)) << C.error().render();
  return std::move(*C);
}

/// Every outer trip pushes, flips and pops two WHERE levels and calls
/// an extern on the active lanes.
constexpr const char *WhereLoopSource =
    "PROGRAM WLOOP\n"
    "EXTERN INTEGER FUNCTION Twice\n"
    "DISTRIBUTED INTEGER A(8)\n"
    "DISTRIBUTED INTEGER B(8)\n"
    "INTEGER n\n"
    "INTEGER t\n"
    "INTEGER k\n"
    "BEGIN\n"
    "  DO t = 1, n\n"
    "    DOALL k = 1, 8\n"
    "      WHERE (MOD(A(k) + t, 3) == 0)\n"
    "        B(k) = B(k) + Twice(A(k))\n"
    "      ELSEWHERE\n"
    "        WHERE (A(k) > MOD(t, 8))\n"
    "          B(k) = B(k) - 1\n"
    "        ENDWHERE\n"
    "      ENDWHERE\n"
    "    ENDDO\n"
    "  ENDDO\n"
    "END\n";

/// Operator-new calls during one bytecode run of WLOOP over \p Trips
/// outer trips; \p B receives the run's B.
int64_t allocationsOver(const transform::CompiledSimdProgram &C,
                        int64_t Trips, std::vector<int64_t> &B) {
  ExternRegistry Reg;
  Reg.bind("Twice", [](std::span<const ScalVal> A) {
    return ScalVal::makeInt(2 * A[0].I);
  });
  machine::MachineConfig M = lanes(4);
  DataStore Store(C.Prog, M.Gran);
  Store.setInt("n", Trips);
  Store.setIntArray("A", std::vector<int64_t>{1, 2, 3, 4, 5, 6, 7, 8});
  RunOptions O;
  O.Eng = Engine::Bytecode;
  SimdRunResult R;
  Allocs.store(0);
  CountAllocs.store(true);
  exec::runSimd(*C.Code, M, &Reg, O, Store, R);
  CountAllocs.store(false);
  B = Store.slot("B").I;
  return Allocs.load();
}

TEST(CoreFastPath, SteadyStateDispatchAllocatesNothing) {
  // The core's set-up allocates (registers, slot bindings, the mask
  // stack's rows as it first reaches each depth); after that, more
  // trips must not add a single allocation: where.push copies into
  // rows the stack already has, and CALL reuses one argument buffer.
  transform::CompiledSimdProgram C = compile(WhereLoopSource);
  std::vector<int64_t> B10, B1000;
  int64_t At10 = allocationsOver(C, 10, B10);
  int64_t At1000 = allocationsOver(C, 1000, B1000);
  EXPECT_GT(At10, 0) << "the counting operator new is not in use";
  EXPECT_EQ(At10, At1000);
  // The trips did the work: 1000 trips moved B further than 10.
  EXPECT_NE(B10, B1000);
}

/// Runs \p C on a 4-lane machine under \p E with \p Seed filling the
/// store; returns the store's B (and, through \p Stats, the counters).
std::vector<int64_t>
runB(const transform::CompiledSimdProgram &C, Engine E,
     const std::function<void(DataStore &)> &Seed, RunStats &Stats) {
  RunOptions O;
  O.Eng = E;
  O.WorkTargets = {"B"};
  SimdInterp Interp(C.Prog, lanes(4), nullptr, O);
  if (E != Engine::Tree)
    Interp.setCompiled(C.Code);
  Seed(Interp.store());
  auto R = Interp.run();
  EXPECT_TRUE(static_cast<bool>(R)) << R.error().render();
  if (R)
    Stats = R->Stats;
  return Interp.store().slot("B").I;
}

constexpr Engine AllEngines[] = {Engine::Tree, Engine::Bytecode,
                                 Engine::Native};

TEST(CoreFastPath, ComparesPastTwoToTheFiftyThreeGoThroughDouble) {
  // 2^53 + 1 (9007199254740993) rounds to 2^53 as a double, so
  // 2^53 + 1 == 2^53 holds and 2^53 + 1 < 2^53 does not. The mixed
  // int/real lanes compare the same way.
  const char *Source = "PROGRAM BIG\n"
                       "DISTRIBUTED INTEGER A(4)\n"
                       "DISTRIBUTED INTEGER C(4)\n"
                       "DISTRIBUTED REAL X(4)\n"
                       "DISTRIBUTED INTEGER B(4)\n"
                       "INTEGER k\n"
                       "BEGIN\n"
                       "  DOALL k = 1, 4\n"
                       "    B(k) = 0\n"
                       "    WHERE (A(k) == C(k))\n"
                       "      B(k) = B(k) + 1\n"
                       "    ENDWHERE\n"
                       "    WHERE (A(k) < C(k))\n"
                       "      B(k) = B(k) + 2\n"
                       "    ENDWHERE\n"
                       "    WHERE (A(k) == X(k))\n"
                       "      B(k) = B(k) + 4\n"
                       "    ENDWHERE\n"
                       "    WHERE (X(k) < A(k))\n"
                       "      B(k) = B(k) + 8\n"
                       "    ENDWHERE\n"
                       "  ENDDO\n"
                       "END\n";
  transform::CompiledSimdProgram C = compile(Source);
  constexpr int64_t P53 = int64_t{1} << 53;
  auto Seed = [](DataStore &S) {
    S.setIntArray("A", std::vector<int64_t>{P53 + 1, P53, 5, -P53 - 1});
    S.setIntArray("C", std::vector<int64_t>{P53, P53 + 1, 6, -P53});
    S.setRealArray("X", std::vector<double>{static_cast<double>(P53),
                                            static_cast<double>(P53), 4.5,
                                            static_cast<double>(-P53)});
  };
  for (Engine E : AllEngines) {
    RunStats Stats;
    // Lane 0: 2^53+1 vs 2^53 is == and not <, and == the real 2^53.
    // Lane 1: 2^53 vs 2^53+1 likewise. Lane 2: 5 < 6 and 4.5 < 5.
    // Lane 3: -(2^53+1) == -2^53 as doubles.
    EXPECT_EQ(runB(C, E, Seed, Stats),
              (std::vector<int64_t>{1 + 4, 1 + 4, 2 + 8, 1 + 4}))
        << engineName(E);
  }
}

TEST(CoreFastPath, AnyAllWithNoActiveLaneAreTheirIdentities) {
  // The WHERE idles every lane, so the reduction sees no active lane:
  // ANY is false and ALL is true. The IF is uniform (the reduction
  // broadcasts), and a taken branch shows as one work step on B, which
  // a store under an all-idle mask still records.
  for (const char *Red : {"ANY", "ALL"}) {
    std::string Source = "PROGRAM AA\n"
                         "DISTRIBUTED INTEGER A(4)\n"
                         "DISTRIBUTED INTEGER B(4)\n"
                         "INTEGER k\n"
                         "BEGIN\n"
                         "  DOALL k = 1, 4\n"
                         "    WHERE (A(k) > 100)\n"
                         "      IF (";
    Source += Red;
    Source += "(A(k) > 0)) THEN\n"
              "        B(k) = 1\n"
              "      ENDIF\n"
              "    ENDWHERE\n"
              "  ENDDO\n"
              "END\n";
    transform::CompiledSimdProgram C = compile(Source.c_str());
    auto Seed = [](DataStore &S) {
      S.setIntArray("A", std::vector<int64_t>{1, 2, 3, 4});
    };
    bool IsAll = std::string(Red) == "ALL";
    for (Engine E : AllEngines) {
      RunStats Stats;
      EXPECT_EQ(runB(C, E, Seed, Stats), (std::vector<int64_t>(4, 0)))
          << Red << " " << engineName(E);
      EXPECT_EQ(Stats.WorkSteps, IsAll ? 1 : 0) << Red << " " << engineName(E);
      EXPECT_EQ(Stats.WorkActiveLanes, 0) << Red << " " << engineName(E);
    }
  }
}

} // namespace
