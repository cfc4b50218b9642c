//===- tests/serve/ServerTest.cpp ------------------------------*- C++ -*-===//
//
// The serving core's robustness contract, request by request: every
// submission resolves to exactly one structured reply (served, trapped,
// shed, or compile-error), admission control sheds deterministically,
// budgets are enforced end to end, compile verdicts are cached and a
// failed primary degrades to the fallback, and the counters partition
// the submissions. The ConcurrentSoak test at the bottom is the TSan
// target.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "codegen/NativeEngine.h"
#include "frontend/Parser.h"

#include "interp/Trap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

using namespace simdflat;
using namespace simdflat::serve;

namespace {

constexpr const char *ExampleSource =
    "PROGRAM EX\n"
    "INTEGER K\n"
    "DISTRIBUTED INTEGER L(8)\n"
    "DISTRIBUTED INTEGER X(8, 4)\n"
    "INTEGER i\n"
    "INTEGER j\n"
    "BEGIN\n"
    "  DOALL i = 1, K\n"
    "    DO j = 1, L(i)\n"
    "      X(i, j) = i * j\n"
    "    ENDDO\n"
    "  ENDDO\n"
    "END\n";

constexpr const char *ScalarSource = "PROGRAM REPEAT\n"
                                     "INTEGER a\n"
                                     "INTEGER b\n"
                                     "BEGIN\n"
                                     "  b = a * 3 + 1\n"
                                     "END\n";

Request exampleRequest() {
  Request R;
  R.Source = ExampleSource;
  R.Ints["K"] = 8;
  R.IntArrays["L"] = {4, 1, 2, 1, 1, 3, 1, 3};
  R.Lanes = 4;
  R.Fuel = 100'000;
  return R;
}

Reply getReply(std::future<Reply> F) {
  // Generous bound: a miss here is a hang, the one thing the server
  // must never do.
  EXPECT_EQ(F.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "reply never arrived";
  return F.get();
}

void expectConsistent(const Server &S) {
  ServerStats St = S.stats();
  EXPECT_TRUE(St.consistent())
      << St.Served << " served + " << St.Trapped << " trapped + "
      << St.Shed << " shed + " << St.CompileErrors
      << " compile-errors != " << St.Submitted << " submitted";
}

TEST(Server, ServesAndReturnsRequestedArrays) {
  Server S;
  Request R = exampleRequest();
  R.Id = 42;
  R.WantArrays = true;
  Reply Rep = getReply(S.submit(std::move(R)));
  EXPECT_EQ(Rep.Id, 42u);
  ASSERT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
  EXPECT_GT(Rep.Tele.FuelSpent, 0);
  EXPECT_EQ(Rep.Tele.Engine, "bytecode");
  EXPECT_FALSE(Rep.Tele.CacheHit);

  // Only arrays the *submitted* program declares come back - pipeline
  // temporaries stay hidden.
  ASSERT_EQ(Rep.IntArrays.count("X"), 1u);
  ASSERT_EQ(Rep.IntArrays.count("L"), 1u);
  EXPECT_EQ(Rep.IntArrays.size(), 2u);
  // X(i, j) = i * j for j <= L(i): the element sum is layout-agnostic.
  //   sum_i i * tri(L(i)) = 1*10+2*1+3*3+4*1+5*1+6*6+7*1+8*6 = 121
  const std::vector<int64_t> &X = Rep.IntArrays["X"];
  EXPECT_EQ(X.size(), 32u);
  EXPECT_EQ(std::accumulate(X.begin(), X.end(), int64_t{0}), 121);
  expectConsistent(S);
}

TEST(Server, RepeatIsACacheHit) {
  ServerOptions SO;
  SO.Workers = 1; // serialize so the second request sees the cache
  Server S(SO);
  Reply First = getReply(S.submit(exampleRequest()));
  ASSERT_EQ(First.Out, Outcome::Served) << First.Error;
  EXPECT_FALSE(First.Tele.CacheHit);
  Reply Second = getReply(S.submit(exampleRequest()));
  ASSERT_EQ(Second.Out, Outcome::Served) << Second.Error;
  EXPECT_TRUE(Second.Tele.CacheHit);
  ServerStats St = S.stats();
  EXPECT_EQ(St.CacheHits, 1);
  EXPECT_EQ(St.CacheMisses, 1);
  expectConsistent(S);
}

TEST(Server, ParseFailureIsCompileError) {
  Server S;
  Request R;
  R.Source = "PROGRAM BROKEN\nBEGIN\n  THIS IS NOT FORTRAN\nEND\n";
  Reply Rep = getReply(S.submit(std::move(R)));
  EXPECT_EQ(Rep.Out, Outcome::CompileError);
  EXPECT_FALSE(Rep.Error.empty());
  expectConsistent(S);
}

TEST(Server, BadInputsAreCompileErrors) {
  Server S;
  // Undeclared scalar.
  Request R1 = exampleRequest();
  R1.Ints["nosuch"] = 1;
  Reply Rep1 = getReply(S.submit(std::move(R1)));
  EXPECT_EQ(Rep1.Out, Outcome::CompileError);
  EXPECT_NE(Rep1.Error.find("not declared"), std::string::npos)
      << Rep1.Error;
  // Mis-sized array.
  Request R2 = exampleRequest();
  R2.IntArrays["L"] = {1, 2};
  Reply Rep2 = getReply(S.submit(std::move(R2)));
  EXPECT_EQ(Rep2.Out, Outcome::CompileError);
  EXPECT_NE(Rep2.Error.find("elements"), std::string::npos) << Rep2.Error;
  expectConsistent(S);
}

TEST(Server, SurvivingGotosAreACompileErrorAndServingContinues) {
  // Two crossing GOTO loops survive recovery. simdize used to abort on
  // them, taking the daemon and every in-flight request down with it.
  ServerOptions SO;
  SO.Workers = 1;
  Server S(SO);
  Request R;
  R.Source = "PROGRAM CROSS\nINTEGER a\nBEGIN\n1 CONTINUE\n2 CONTINUE\n"
             "IF (a < 0) GOTO 1\nIF (a < 0) GOTO 2\nEND\n";
  Reply Bad = getReply(S.submit(std::move(R)));
  EXPECT_EQ(Bad.Out, Outcome::CompileError);
  EXPECT_NE(Bad.Error.find("goto-recovery"), std::string::npos) << Bad.Error;
  EXPECT_NE(Bad.Error.find("label 1"), std::string::npos) << Bad.Error;
  EXPECT_NE(Bad.Error.find("label 2"), std::string::npos) << Bad.Error;
  Reply Good = getReply(S.submit(exampleRequest()));
  EXPECT_EQ(Good.Out, Outcome::Served) << Good.Error;
  expectConsistent(S);
}

/// A DOALL/DO nest under the given loop headers; K, N and L are inputs.
Request nestRequest(const std::string &DoAll, const std::string &Do) {
  Request R;
  R.Source = "PROGRAM NEST\nINTEGER K\nINTEGER N\n"
             "DISTRIBUTED INTEGER L(8)\nDISTRIBUTED INTEGER X(8, 4)\n"
             "INTEGER i\nINTEGER j\nBEGIN\n  " +
             DoAll + "\n    " + Do +
             "\n      X(i, j) = i\n    ENDDO\n  ENDDO\nEND\n";
  R.Ints = {{"K", 8}, {"N", 1}};
  R.IntArrays["L"] = {4, 1, 2, 1, 1, 3, 1, 3};
  R.Fuel = 100'000;
  return R;
}

TEST(Server, LoopsWithNoSimdFormAreCompileErrorsAndServingContinues) {
  // Each of these used to abort inside simdize, taking the daemon and
  // every request queued beside it down. A lane-varying lower bound has
  // a SIMD form only once flattening removes the inner DO: an adaptive
  // server's unflattened probe build fails, so it serves the static
  // flattened build, tagged static like the static server's reply.
  struct Case {
    const char *DoAll, *Do, *Loop;
    bool Serves;
  };
  const Case Cases[] = {{"DOALL i = 1, K, 2", "DO j = 1, 4", "'i'", false},
                        {"DOALL i = 1, K", "DO j = 1, 4, L(i)", "'j'", false},
                        {"DOALL i = 1, K", "DO j = 1, L(i), N", "'j'", false},
                        {"DOALL i = 1, K", "DO j = L(i), 4", "'j'", true}};
  for (bool Adaptive : {false, true}) {
    ServerOptions SO;
    SO.Workers = 1;
    SO.Adaptive = Adaptive;
    Server S(SO);
    for (const Case &C : Cases) {
      Reply Rep = getReply(S.submit(nestRequest(C.DoAll, C.Do)));
      if (C.Serves) {
        EXPECT_EQ(Rep.Out, Outcome::Served)
            << (Adaptive ? "adaptive " : "static ") << C.Do << ": "
            << Rep.Error;
        EXPECT_EQ(Rep.Tele.Strategy, "static");
        EXPECT_EQ(Rep.Tele.StrategyEpoch, 0);
        EXPECT_FALSE(Rep.Tele.Fallback);
        continue;
      }
      EXPECT_EQ(Rep.Out, Outcome::CompileError)
          << (Adaptive ? "adaptive " : "static ") << C.DoAll << " / " << C.Do;
      EXPECT_NE(Rep.Error.find("stage 'simdize'"), std::string::npos)
          << Rep.Error;
      EXPECT_NE(Rep.Error.find(C.Loop), std::string::npos) << Rep.Error;
    }
    Reply Good = getReply(S.submit(exampleRequest()));
    EXPECT_EQ(Good.Out, Outcome::Served) << Good.Error;
    expectConsistent(S);
  }
}

/// frontend::MaxNestingDepth + \p Extra nested IF blocks around an
/// assignment whose expression is as many unary minuses deep.
std::string nestedSource(int Extra) {
  int Depth = frontend::MaxNestingDepth + Extra;
  std::string Src = "PROGRAM DEEP\nINTEGER a\nINTEGER b\nBEGIN\n";
  for (int I = 0; I < Depth; ++I)
    Src += "IF (a < 1) THEN\n";
  Src += "b = " + std::string(static_cast<size_t>(Depth), '-') + "1\n";
  for (int I = 0; I < Depth; ++I)
    Src += "ENDIF\n";
  return Src + "END\n";
}

TEST(Server, ServesAProgramNestedAtTheParserBound) {
  // The deepest statement and expression nesting the parser accepts
  // must pass every recursive pass after it and run; one level more is
  // a compile-error, not a stack overflow.
  ServerOptions SO;
  SO.Workers = 1;
  Server S(SO);
  Request R;
  R.Source = nestedSource(0);
  R.Fuel = 100'000;
  Reply AtBound = getReply(S.submit(std::move(R)));
  EXPECT_EQ(AtBound.Out, Outcome::Served) << AtBound.Error;
  Request Over;
  Over.Source = nestedSource(1);
  Reply Past = getReply(S.submit(std::move(Over)));
  EXPECT_EQ(Past.Out, Outcome::CompileError);
  EXPECT_NE(Past.Error.find("nesting deeper than"), std::string::npos)
      << Past.Error;
  expectConsistent(S);
}

TEST(Server, ProgramTrapIsATrappedReply) {
  Server S;
  Request R;
  R.Source = "PROGRAM OOB\n"
             "DISTRIBUTED INTEGER A(4)\n"
             "INTEGER i\n"
             "BEGIN\n"
             "  DOALL i = 1, 4\n"
             "    A(i + 4) = i\n"
             "  ENDDO\n"
             "END\n";
  R.Lanes = 4;
  Reply Rep = getReply(S.submit(std::move(R)));
  ASSERT_EQ(Rep.Out, Outcome::Trapped) << Rep.Error;
  ASSERT_TRUE(Rep.T.has_value());
  EXPECT_EQ(Rep.T->Kind, interp::TrapKind::OutOfBounds);
  expectConsistent(S);
}

TEST(Server, FuelExhaustionTraps) {
  Server S;
  Request R;
  R.Source = ScalarSource;
  R.Ints["a"] = 7;
  R.Lanes = 1;
  R.Fuel = 1;
  Reply Rep = getReply(S.submit(std::move(R)));
  ASSERT_EQ(Rep.Out, Outcome::Trapped) << Rep.Error;
  ASSERT_TRUE(Rep.T.has_value());
  EXPECT_EQ(Rep.T->Kind, interp::TrapKind::FuelExhausted);
  expectConsistent(S);
}

TEST(Server, DeadlineExpiresMidRun) {
  Server S;
  Request R;
  R.Source = "PROGRAM SPIN\n"
             "INTEGER i\n"
             "INTEGER s\n"
             "BEGIN\n"
             "  s = 0\n"
             "  DO i = 1, 50000000\n"
             "    s = s + i\n"
             "  ENDDO\n"
             "END\n";
  R.Lanes = 1;
  R.DeadlineMs = 30; // far less than 5e7 interpreted iterations take
  Reply Rep = getReply(S.submit(std::move(R)));
  ASSERT_EQ(Rep.Out, Outcome::Trapped) << Rep.Error;
  ASSERT_TRUE(Rep.T.has_value());
  EXPECT_EQ(Rep.T->Kind, interp::TrapKind::DeadlineExpired);
  expectConsistent(S);
}

TEST(Server, OverBudgetRequestsShedAtSubmitWithNoRetryHint) {
  ServerOptions SO;
  SO.MaxFuel = 1000;
  Server S(SO);
  // Fuel beyond the cap.
  Request R1 = exampleRequest();
  R1.Fuel = 2000;
  Reply Rep1 = getReply(S.submit(std::move(R1)));
  EXPECT_EQ(Rep1.Out, Outcome::Shed);
  EXPECT_EQ(Rep1.RetryAfterMs, 0) << "retrying an over-budget request is "
                                     "pointless";
  // Unlimited fuel is over budget too when the server enforces a cap.
  Request R2 = exampleRequest();
  R2.Fuel = 0;
  Reply Rep2 = getReply(S.submit(std::move(R2)));
  EXPECT_EQ(Rep2.Out, Outcome::Shed);
  // Lanes beyond the cap.
  Request R3 = exampleRequest();
  R3.Fuel = 1000;
  R3.Lanes = SO.MaxLanes + 1;
  Reply Rep3 = getReply(S.submit(std::move(R3)));
  EXPECT_EQ(Rep3.Out, Outcome::Shed);
  EXPECT_EQ(S.stats().Shed, 3);
  expectConsistent(S);
}

TEST(Server, OversizedSourceSheds) {
  ServerOptions SO;
  SO.MaxSourceBytes = 64;
  Server S(SO);
  Request R = exampleRequest();
  ASSERT_GT(R.Source.size(), SO.MaxSourceBytes);
  Reply Rep = getReply(S.submit(std::move(R)));
  EXPECT_EQ(Rep.Out, Outcome::Shed);
  EXPECT_EQ(Rep.RetryAfterMs, 0);
  expectConsistent(S);
}

TEST(Server, FullQueueShedsWithRetryHint) {
  ServerOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 2;
  SO.RetryAfterMs = 7;
  // Stall the worker so the burst outruns the drain deterministically.
  SO.Faults.WorkerStallMicros = 30'000;
  Server S(SO);
  const int N = 8;
  std::vector<std::future<Reply>> Pending;
  for (int I = 0; I < N; ++I) {
    Request R;
    R.Id = (uint64_t)I;
    R.Source = ScalarSource;
    R.Lanes = 1;
    Pending.push_back(S.submit(std::move(R)));
  }
  int ShedCount = 0;
  for (auto &F : Pending) {
    Reply Rep = getReply(std::move(F));
    if (Rep.Out == Outcome::Shed) {
      ++ShedCount;
      // The hint scales with observed congestion: base * (1 + depth /
      // workers). A queue-full shed always sees depth == capacity == 2
      // and one worker, so the scaled hint is exactly 7 * 3.
      EXPECT_EQ(Rep.RetryAfterMs, 21)
          << "a queue-full shed must carry the depth-scaled retry hint";
    } else {
      EXPECT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
    }
  }
  // Queue (2) + in-flight (1) + submission-race slack; the rest shed.
  EXPECT_GE(ShedCount, N - (int)SO.QueueCapacity - SO.Workers - 2);
  expectConsistent(S);
}

TEST(Server, QueueTimeoutShedsStaleRequests) {
  ServerOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 8;
  SO.Faults.WorkerStallMicros = 30'000;
  Server S(SO);
  std::vector<std::future<Reply>> Pending;
  for (int I = 0; I < 3; ++I) {
    Request R;
    R.Id = (uint64_t)I;
    R.Source = ScalarSource;
    R.Lanes = 1;
    R.QueueTimeoutMs = 1; // expires while the worker stalls on request 0
    Pending.push_back(S.submit(std::move(R)));
  }
  int TimedOut = 0;
  for (auto &F : Pending) {
    Reply Rep = getReply(std::move(F));
    if (Rep.Out == Outcome::Shed) {
      ++TimedOut;
      EXPECT_NE(Rep.Error.find("queue budget"), std::string::npos)
          << Rep.Error;
    }
  }
  EXPECT_GE(TimedOut, 1) << "requests behind the stalled worker must "
                            "time out of the queue";
  expectConsistent(S);
}

TEST(Server, TotalPrimaryFailureDegradesToFallback) {
  ServerOptions SO;
  SO.Faults.FailPrimary = true;
  Server S(SO);
  Reply Rep = getReply(S.submit(exampleRequest()));
  ASSERT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
  EXPECT_TRUE(Rep.Tele.Fallback);
  EXPECT_EQ(S.stats().FallbackServes, 1);
  expectConsistent(S);
}

TEST(Server, PoisonedPrimaryCompilesOncePerKey) {
  // Both verdicts - the failed primary and the fallback program - are
  // cached, so N requests run exactly two pipelines between them.
  ServerOptions SO;
  SO.Workers = 2;
  SO.Faults.FailPrimary = true;
  Server S(SO);
  const int N = 6;
  std::vector<std::future<Reply>> Pending;
  for (int I = 0; I < N; ++I)
    Pending.push_back(S.submit(exampleRequest()));
  for (int I = 0; I < N; ++I) {
    Reply Rep = getReply(std::move(Pending[(size_t)I]));
    ASSERT_EQ(Rep.Out, Outcome::Served)
        << "request " << I << ": " << Rep.Error;
    EXPECT_TRUE(Rep.Tele.Fallback) << "request " << I;
  }
  ServerStats St = S.stats();
  EXPECT_EQ(St.FallbackServes, N);
  EXPECT_EQ(St.CacheMisses, 2);
  expectConsistent(S);
}

/// A program with \p Labels GOTO loops that all cross one another, so
/// GOTO recovery structures none of them and every pipeline fails.
/// \p Salt makes the program distinct without changing its shape.
std::string crossingSource(int Labels, int Salt = 0) {
  std::string Src = "PROGRAM CROSS\nINTEGER a\nBEGIN\n";
  Src += "  a = " + std::to_string(Salt) + "\n";
  for (int L = 1; L <= Labels; ++L)
    Src += std::to_string(L) + " CONTINUE\n";
  for (int L = 1; L <= Labels; ++L)
    Src += "IF (a < 0) GOTO " + std::to_string(L) + "\n";
  return Src + "END\n";
}

TEST(Server, RepeatedFailingProgramRunsEachPipelineOnce) {
  // The failure verdict is static, so identical requests share it: one
  // primary and one fallback pipeline run, and one error text for all.
  ServerOptions SO;
  SO.Workers = 2;
  Server S(SO);
  const int N = 8;
  std::vector<std::future<Reply>> Pending;
  for (int I = 0; I < N; ++I) {
    Request R;
    R.Source = crossingSource(60);
    Pending.push_back(S.submit(std::move(R)));
  }
  std::vector<std::string> Errors;
  for (std::future<Reply> &F : Pending) {
    Reply Rep = getReply(std::move(F));
    EXPECT_EQ(Rep.Out, Outcome::CompileError);
    Errors.push_back(Rep.Error);
  }
  EXPECT_NE(Errors[0].find("goto-recovery"), std::string::npos) << Errors[0];
  for (const std::string &E : Errors)
    EXPECT_EQ(E, Errors[0]);
  EXPECT_EQ(S.stats().CacheMisses, 2);
  expectConsistent(S);
}

TEST(Server, DistinctFailingProgramsStayInsideTheCacheBound) {
  // Failure verdicts are cache entries like any other: a stream of
  // never-repeated failing programs leaves no state beyond the cache.
  ServerOptions SO;
  SO.Workers = 2;
  SO.QueueCapacity = 1000;
  SO.CacheCapacity = 16;
  Server S(SO);
  const int N = 1000;
  std::vector<std::future<Reply>> Pending;
  for (int I = 0; I < N; ++I) {
    Request R;
    R.Source = crossingSource(2, I);
    Pending.push_back(S.submit(std::move(R)));
  }
  for (std::future<Reply> &F : Pending)
    EXPECT_EQ(getReply(std::move(F)).Out, Outcome::CompileError);
  EXPECT_LE(S.cache().size(), 16u);
  EXPECT_EQ(S.stats().CacheMisses, 2 * N);
  expectConsistent(S);
}

/// An integer array filled from a real literal: the served X holds the
/// literal truncated toward zero.
Request realLiteralRequest(const std::string &Literal) {
  Request R;
  R.Source = "PROGRAM LIT\nDISTRIBUTED INTEGER X(4)\nINTEGER i\nBEGIN\n"
             "  DOALL i = 1, 4\n    X(i) = " +
             Literal + "\n  ENDDO\nEND\n";
  R.Lanes = 4;
  R.WantArrays = true;
  return R;
}

TEST(Server, RealLiteralsPastSixDigitsKeepTheirOwnCacheEntries) {
  // The canonical key prints every real literal in full: two literals
  // that agree in their first six digits are two programs.
  ServerOptions SO;
  SO.Workers = 1;
  Server S(SO);
  Reply First = getReply(S.submit(realLiteralRequest("1234567.4")));
  ASSERT_EQ(First.Out, Outcome::Served) << First.Error;
  EXPECT_EQ(First.IntArrays["X"], std::vector<int64_t>(4, 1234567));
  Reply Second = getReply(S.submit(realLiteralRequest("1234569.9")));
  ASSERT_EQ(Second.Out, Outcome::Served) << Second.Error;
  EXPECT_FALSE(Second.Tele.CacheHit);
  EXPECT_EQ(Second.IntArrays["X"], std::vector<int64_t>(4, 1234569));
  EXPECT_EQ(S.stats().CacheMisses, 2);
  expectConsistent(S);
}

TEST(Server, ShutdownShedsQueuedRequests) {
  std::vector<std::future<Reply>> Pending;
  {
    ServerOptions SO;
    SO.Workers = 1;
    SO.QueueCapacity = 8;
    SO.Faults.WorkerStallMicros = 20'000;
    Server S(SO);
    for (int I = 0; I < 4; ++I) {
      Request R;
      R.Id = (uint64_t)I;
      R.Source = ScalarSource;
      R.Lanes = 1;
      Pending.push_back(S.submit(std::move(R)));
    }
    // The server is destroyed with requests still queued.
  }
  for (auto &F : Pending) {
    Reply Rep = getReply(std::move(F));
    // Every future resolved: served if the worker got to it, shed with
    // no retry hint otherwise. Nothing is dropped on the floor.
    if (Rep.Out == Outcome::Shed) {
      EXPECT_NE(Rep.Error.find("shutting down"), std::string::npos)
          << Rep.Error;
      EXPECT_EQ(Rep.RetryAfterMs, 0);
    } else {
      EXPECT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
    }
  }
}

void expectTenantsConsistent(const Server &S) {
  ServerStats St = S.stats();
  EXPECT_TRUE(St.tenantsConsistent());
  for (const auto &[Tenant, TS] : St.Tenants)
    EXPECT_TRUE(TS.consistent())
        << "tenant '" << Tenant << "': submitted=" << TS.Submitted
        << " admitted=" << TS.Admitted << " served=" << TS.Served
        << " trapped=" << TS.Trapped
        << " compile-errors=" << TS.CompileErrors
        << " shed-at-admission=" << TS.ShedAtAdmission
        << " shed-in-service=" << TS.ShedInService;
}

Request scalarRequest(const std::string &Tenant, uint64_t Id) {
  Request R;
  R.Id = Id;
  R.Tenant = Tenant;
  R.Source = ScalarSource;
  R.Ints["a"] = (int64_t)(Id % 50);
  R.Lanes = 1;
  R.Fuel = 1000;
  return R;
}

// The acceptance criterion of the tenancy work, as a deterministic
// test: tenant "hot" offers 10x tenant "victim"'s load. The quota
// clock is frozen, so each tenant's token bucket holds exactly its
// burst - the victim (load == burst) must shed NOTHING while the hot
// tenant sheds exactly its overage. No sleeps, no timing assumptions.
TEST(Server, SkewedTenantCannotStarveVictim) {
  constexpr int VictimLoad = 8;
  constexpr int HotLoad = VictimLoad * 10;
  constexpr int HotBurst = 4;

  ServerOptions SO;
  SO.Workers = 2;
  SO.QueueCapacity = 128; // congestion must not mask quota decisions
  SO.QuotaClock = [] { return (int64_t)0; };
  TenantQuota HotQ;
  HotQ.RatePerSec = 1;
  HotQ.Burst = HotBurst;
  SO.TenantQuotas["hot"] = HotQ;
  TenantQuota VictimQ;
  VictimQ.RatePerSec = 1;
  VictimQ.Burst = VictimLoad;
  SO.TenantQuotas["victim"] = VictimQ;
  Server S(SO);

  std::vector<std::future<Reply>> VictimPending, HotPending;
  for (int V = 0; V < VictimLoad; ++V) {
    // 10 hot submissions around every victim one: temporal skew, not
    // just aggregate.
    for (int H = 0; H < HotLoad / VictimLoad; ++H)
      HotPending.push_back(
          S.submit(scalarRequest("hot", (uint64_t)(V * 10 + H))));
    VictimPending.push_back(
        S.submit(scalarRequest("victim", (uint64_t)V)));
  }

  for (auto &F : VictimPending) {
    Reply Rep = getReply(std::move(F));
    EXPECT_EQ(Rep.Out, Outcome::Served)
        << "victim request " << Rep.Id
        << " inside its quota envelope was not served: " << Rep.Error;
  }
  int HotServed = 0, HotShed = 0;
  for (auto &F : HotPending) {
    Reply Rep = getReply(std::move(F));
    if (Rep.Out == Outcome::Shed) {
      ++HotShed;
      EXPECT_GT(Rep.RetryAfterMs, 0)
          << "a rate-bucket shed must price its refill time";
    } else {
      EXPECT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
      ++HotServed;
    }
  }
  EXPECT_EQ(HotServed, HotBurst);
  EXPECT_EQ(HotShed, HotLoad - HotBurst);

  ServerStats St = S.stats();
  TenantStats Victim = St.Tenants["victim"];
  TenantStats Hot = St.Tenants["hot"];
  EXPECT_EQ(Victim.shed(), 0)
      << "hot tenant leaked pressure across the isolation boundary";
  EXPECT_EQ(Victim.Served, VictimLoad);
  EXPECT_EQ(Hot.Admitted, HotBurst);
  EXPECT_EQ(Hot.ShedAtAdmission, HotLoad - HotBurst);
  EXPECT_EQ(St.QuotaSheds, HotLoad - HotBurst);
  expectConsistent(S);
  expectTenantsConsistent(S);
}

TEST(Server, TenantQueueShareLimitsOneTenantsBacklog) {
  ServerOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 16;
  SO.Faults.WorkerStallMicros = 30'000; // backlog builds deterministically
  TenantQuota Q;
  Q.MaxQueued = 2;
  SO.TenantQuotas["greedy"] = Q;
  Server S(SO);

  std::vector<std::future<Reply>> Pending;
  for (int I = 0; I < 8; ++I)
    Pending.push_back(S.submit(scalarRequest("greedy", (uint64_t)I)));
  int Shed = 0;
  for (auto &F : Pending) {
    Reply Rep = getReply(std::move(F));
    if (Rep.Out == Outcome::Shed) {
      ++Shed;
      EXPECT_NE(Rep.Error.find("queue share"), std::string::npos)
          << Rep.Error;
    }
  }
  // At most MaxQueued queued + 1 executing + submission-race slack.
  EXPECT_GE(Shed, 8 - 2 - 1 - 2);
  EXPECT_GT(S.stats().QuotaSheds, 0);
  expectConsistent(S);
  expectTenantsConsistent(S);
}

TEST(Server, PerTenantStatsPartitionTheGlobalCounters) {
  ServerOptions SO;
  SO.Workers = 1;
  Server S(SO);
  // Two tenants, one anonymous (lands on "default"), mixed outcomes.
  std::vector<std::future<Reply>> Pending;
  Pending.push_back(S.submit(scalarRequest("a", 1)));
  Request Bad = scalarRequest("a", 2);
  Bad.Source = "PROGRAM P\nBEGIN\n  NOPE\nEND\n";
  Pending.push_back(S.submit(std::move(Bad)));
  Request Starved = scalarRequest("b", 3);
  Starved.Fuel = 1;
  Pending.push_back(S.submit(std::move(Starved)));
  Request Anon = scalarRequest("", 4);
  Anon.Tenant.clear();
  Pending.push_back(S.submit(std::move(Anon)));
  for (auto &F : Pending)
    getReply(std::move(F));

  ServerStats St = S.stats();
  ASSERT_EQ(St.Tenants.size(), 3u);
  EXPECT_EQ(St.Tenants["a"].Submitted, 2);
  EXPECT_EQ(St.Tenants["a"].Served, 1);
  EXPECT_EQ(St.Tenants["a"].CompileErrors, 1);
  EXPECT_EQ(St.Tenants["b"].Trapped, 1);
  EXPECT_EQ(St.Tenants["default"].Served, 1);
  int64_t TenantSubmitted = 0;
  for (const auto &[Name, TS] : St.Tenants)
    TenantSubmitted += TS.Submitted;
  EXPECT_EQ(TenantSubmitted, St.Submitted);
  expectConsistent(S);
  expectTenantsConsistent(S);
}

TEST(Server, DrainUnderLoadResolvesEveryAdmittedRequest) {
  ServerOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 16;
  SO.Faults.WorkerStallMicros = 30'000; // 12 queued => ~360ms of work
  Server S(SO);

  std::vector<std::future<Reply>> Pending;
  for (int I = 0; I < 12; ++I)
    Pending.push_back(
        S.submit(scalarRequest(I % 2 ? "odd" : "even", (uint64_t)I)));

  S.beginDrain();
  EXPECT_TRUE(S.draining());

  // Late arrival: shed immediately with the structured draining status.
  Reply Late = getReply(S.submit(scalarRequest("late", 99)));
  EXPECT_EQ(Late.Out, Outcome::Shed);
  EXPECT_TRUE(Late.Draining);

  // The deadline cannot cover ~360ms of stalled work: the sweep fires,
  // but drain still waits for the executing request, so on return
  // nothing is unresolved.
  bool Clean = S.drain(/*HardDeadlineMs=*/40);
  EXPECT_FALSE(Clean);
  EXPECT_EQ(S.inFlight(), 0u);

  int Swept = 0;
  for (auto &F : Pending) {
    Reply Rep = getReply(std::move(F));
    if (Rep.Out == Outcome::Shed) {
      ++Swept;
      EXPECT_TRUE(Rep.Draining)
          << "deadline-swept request " << Rep.Id
          << " shed without the draining status";
    } else {
      EXPECT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
    }
  }
  EXPECT_GE(Swept, 1);
  EXPECT_EQ(S.stats().DrainSheds, Swept + 1); // + the late arrival
  expectConsistent(S);
  expectTenantsConsistent(S);
}

TEST(Server, UnloadedDrainIsClean) {
  ServerOptions SO;
  SO.Workers = 2;
  Server S(SO);
  std::vector<std::future<Reply>> Pending;
  for (int I = 0; I < 4; ++I)
    Pending.push_back(S.submit(scalarRequest("calm", (uint64_t)I)));
  EXPECT_TRUE(S.drain(/*HardDeadlineMs=*/10'000));
  for (auto &F : Pending)
    EXPECT_EQ(getReply(std::move(F)).Out, Outcome::Served);
  EXPECT_EQ(S.stats().DrainSheds, 0);
  expectConsistent(S);
  expectTenantsConsistent(S);
}

TEST(Server, ConcurrentSoak) {
  // The TSan target: several submitter threads hammer one server with
  // a mix of valid (cache-hitting), hostile, trapping and fuel-starved
  // requests while LRU pressure and mid-flight eviction churn the
  // cache. The only assertions are the robustness contract itself:
  // every reply arrives and the accounting partitions the submissions.
  ServerOptions SO;
  SO.Workers = 4;
  SO.QueueCapacity = 256;
  SO.CacheCapacity = 2; // constant eviction pressure
  SO.Faults.EvictMidFlight = true;
  Server S(SO);

  constexpr int NumThreads = 4;
  constexpr int PerThread = 32;
  std::atomic<int64_t> Served{0}, Trapped{0}, Shed{0}, Errors{0},
      Missing{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      std::vector<std::future<Reply>> Mine;
      for (int I = 0; I < PerThread; ++I) {
        Request R;
        R.Id = (uint64_t)(T * PerThread + I);
        R.Lanes = 1 + (I % 4);
        R.Fuel = 100'000;
        switch (I % 4) {
        case 0:
          R = exampleRequest();
          R.WantArrays = (I % 8) == 0;
          break;
        case 1:
          R.Source = ScalarSource;
          R.Ints["a"] = I;
          break;
        case 2:
          R.Source = "PROGRAM BAD\nBEGIN\n  NOPE " + std::to_string(I) +
                     "\nEND\n";
          break;
        case 3:
          R.Source = ScalarSource;
          R.Fuel = 1; // starves
          break;
        }
        Mine.push_back(S.submit(std::move(R)));
      }
      for (auto &F : Mine) {
        if (F.wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready) {
          ++Missing;
          continue;
        }
        switch (F.get().Out) {
        case Outcome::Served:
          ++Served;
          break;
        case Outcome::Trapped:
          ++Trapped;
          break;
        case Outcome::Shed:
          ++Shed;
          break;
        case Outcome::CompileError:
          ++Errors;
          break;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Missing.load(), 0) << "hang: replies never arrived";
  const int64_t Total = NumThreads * PerThread;
  EXPECT_EQ(Served + Trapped + Shed + Errors, Total);
  ServerStats St = S.stats();
  EXPECT_EQ(St.Submitted, Total);
  EXPECT_TRUE(St.consistent());
  EXPECT_EQ(St.Served, Served.load());
  EXPECT_EQ(St.Trapped, Trapped.load());
  EXPECT_EQ(St.CompileErrors, Errors.load());
  // Mid-flight eviction drops every entry right after its lookup, so
  // cache hits are impossible here by construction; the eviction
  // counter is what proves the churn actually happened.
  EXPECT_GT(St.CacheEvictions, 0) << "eviction pressure never fired";
}

TEST(Server, ConcurrentDrainSoak) {
  // The drain-path TSan target: submitter threads race a drain while
  // byte pressure (tight global + per-tenant budgets, inflated costs)
  // and mid-flight eviction churn the cache. The contract under attack:
  // every future resolves exactly once, drain returns with nothing
  // unresolved, post-drain sheds carry the draining status, and the
  // accounting conserves globally and per tenant.
  ServerOptions SO;
  SO.Workers = 4;
  SO.QueueCapacity = 256;
  SO.CacheCapacity = 4;
  SO.CacheMaxBytes = 4096;
  SO.CacheTenantMaxBytes = 2048;
  SO.Faults.InflateCostBytes = 1500;
  SO.Faults.EvictMidFlight = true;
  Server S(SO);

  constexpr int NumThreads = 4;
  constexpr int PerThread = 48;
  std::atomic<int64_t> Resolved{0}, Missing{0}, ShedsWithoutStatus{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      std::vector<std::future<Reply>> Mine;
      for (int I = 0; I < PerThread; ++I) {
        Request R;
        R.Id = (uint64_t)(T * PerThread + I);
        R.Tenant = T % 2 ? "tsanA" : "tsanB";
        R.Lanes = 1 + (I % 4);
        R.Fuel = 100'000;
        if (I % 3 == 0) {
          R = exampleRequest();
          R.Tenant = T % 2 ? "tsanA" : "tsanB";
        } else {
          R.Source = ScalarSource;
          R.Ints["a"] = I;
          R.Lanes = 1;
        }
        Mine.push_back(S.submit(std::move(R)));
      }
      for (auto &F : Mine) {
        if (F.wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready) {
          ++Missing;
          continue;
        }
        Reply Rep = F.get();
        ++Resolved;
        // A drain-shed reply that forgot its status would strand a
        // client retry loop; count violations, assert after the join.
        if (Rep.Out == Outcome::Shed && Rep.Draining &&
            Rep.Error.empty())
          ++ShedsWithoutStatus;
      }
    });

  // Let the submitters build real pressure, then drain under them: the
  // race between submit() and beginDrain() is exactly what TSan should
  // see. A generous deadline keeps the sweep rare but legal.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  S.beginDrain();
  S.drain(/*HardDeadlineMs=*/30'000);
  EXPECT_EQ(S.inFlight(), 0u);

  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Missing.load(), 0) << "hang: replies never arrived";
  EXPECT_EQ(Resolved.load(), NumThreads * PerThread);
  EXPECT_EQ(ShedsWithoutStatus.load(), 0);
  ServerStats St = S.stats();
  EXPECT_EQ(St.Submitted, NumThreads * PerThread);
  EXPECT_TRUE(St.consistent());
  EXPECT_TRUE(St.tenantsConsistent());
  EXPECT_LE(St.CacheBytesResident, (int64_t)SO.CacheMaxBytes);
  int64_t TenantSubmitted = 0;
  for (const auto &[Name, TS] : St.Tenants) {
    EXPECT_TRUE(TS.consistent()) << "tenant " << Name;
    TenantSubmitted += TS.Submitted;
  }
  EXPECT_EQ(TenantSubmitted, St.Submitted);
}

// A nest with a wide inner dimension so skewed trip vectors stay in
// bounds: X(i, j) = i * j for j <= L(i), i = 1..8, L(i) <= 64.
constexpr const char *WideNestSource =
    "PROGRAM WIDE\n"
    "INTEGER K\n"
    "DISTRIBUTED INTEGER L(8)\n"
    "DISTRIBUTED INTEGER X(8, 64)\n"
    "INTEGER i\n"
    "INTEGER j\n"
    "BEGIN\n"
    "  DOALL i = 1, K\n"
    "    DO j = 1, L(i)\n"
    "      X(i, j) = i * j\n"
    "    ENDDO\n"
    "  ENDDO\n"
    "END\n";

Request wideRequest(std::vector<int64_t> Trips) {
  Request R;
  R.Source = WideNestSource;
  R.Ints["K"] = 8;
  R.IntArrays["L"] = std::move(Trips);
  R.Lanes = 4;
  R.Fuel = 100'000;
  R.WantArrays = true;
  return R;
}

// sum X = sum_i i * tri(L(i)) with tri(n) = n(n+1)/2.
int64_t wideExpectedSum(const std::vector<int64_t> &Trips) {
  int64_t Sum = 0;
  for (size_t I = 0; I < Trips.size(); ++I)
    Sum += (int64_t)(I + 1) * Trips[I] * (Trips[I] + 1) / 2;
  return Sum;
}

TEST(Server, AdaptiveOffIsStatic) {
  // The legacy default: no profiles, no decisions, every reply tagged
  // static at epoch zero.
  ServerOptions SO;
  SO.Workers = 1;
  Server S(SO);
  for (int I = 0; I < 3; ++I) {
    Reply Rep = getReply(S.submit(exampleRequest()));
    ASSERT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
    EXPECT_EQ(Rep.Tele.Strategy, "static");
    EXPECT_EQ(Rep.Tele.StrategyEpoch, 0);
  }
  ServerStats St = S.stats();
  EXPECT_EQ(St.AdaptiveDecisions, 0);
  EXPECT_EQ(St.Respecializations, 0);
}

TEST(Server, AdaptiveWarmupDecidesAndRecompiles) {
  // The profile-guided loop end to end: requests warm up as probes
  // (the unflattened profiling variant, whose inner loop reports the
  // true source trip distribution), the accumulated histograms trigger
  // a strategy decision, and the epoch in reply telemetry advances.
  // Results stay bit-identical throughout: the strategy changes
  // performance, never answers.
  ServerOptions SO;
  SO.Workers = 1; // serialize so decisions land between requests
  SO.Adaptive = true;
  SO.AdaptiveMinSamples = 4;
  Server S(SO);

  const std::vector<int64_t> Uniform = {6, 6, 6, 6, 6, 6, 6, 6};
  const int64_t Want = wideExpectedSum(Uniform);
  int64_t Epoch = 0;
  std::string Last;
  for (int I = 0; I < 12; ++I) {
    Reply Rep = getReply(S.submit(wideRequest(Uniform)));
    ASSERT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
    EXPECT_NE(Rep.Tele.Strategy, "static");
    const std::vector<int64_t> &X = Rep.IntArrays["X"];
    EXPECT_EQ(std::accumulate(X.begin(), X.end(), int64_t{0}), Want)
        << "answer changed under strategy " << Rep.Tele.Strategy;
    Epoch = std::max(Epoch, Rep.Tele.StrategyEpoch);
    Last = Rep.Tele.Strategy;
  }
  EXPECT_GE(Epoch, 1) << "no strategy decision after warmup";
  ServerStats St = S.stats();
  EXPECT_GE(St.AdaptiveDecisions, 1);
  EXPECT_TRUE(St.consistent());
  EXPECT_TRUE(St.tenantsConsistent());
  // Uniform trips on the Sec. 6 cost model: the unflattened Eq. 2
  // schedule has no imbalance to recover, so it wins (and uniform
  // traffic never drifts, so the choice is stable).
  EXPECT_EQ(Last, "unflattened");
  EXPECT_EQ(St.Respecializations, 0);
}

TEST(Server, AdaptiveDriftRespecializes) {
  // Distribution drift mid-stream: uniform traffic decides one
  // strategy; a switch to one hot row drifts the observed histogram
  // past the threshold, forcing a re-decision that changes the
  // strategy (a respecialization). Answers stay exact across the flip.
  ServerOptions SO;
  SO.Workers = 1;
  SO.Adaptive = true;
  SO.AdaptiveMinSamples = 4;
  Server S(SO);

  const std::vector<int64_t> Uniform = {6, 6, 6, 6, 6, 6, 6, 6};
  const std::vector<int64_t> Skewed = {60, 1, 1, 1, 1, 1, 1, 1};

  for (int I = 0; I < 12; ++I) {
    Reply Rep = getReply(S.submit(wideRequest(Uniform)));
    ASSERT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
  }
  ServerStats Warm = S.stats();
  EXPECT_GE(Warm.AdaptiveDecisions, 1);

  const int64_t Want = wideExpectedSum(Skewed);
  std::vector<std::string> Seen;
  for (int I = 0; I < 40; ++I) {
    Reply Rep = getReply(S.submit(wideRequest(Skewed)));
    ASSERT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
    const std::vector<int64_t> &X = Rep.IntArrays["X"];
    EXPECT_EQ(std::accumulate(X.begin(), X.end(), int64_t{0}), Want)
        << "answer changed under strategy " << Rep.Tele.Strategy;
    Seen.push_back(Rep.Tele.Strategy);
  }
  ServerStats St = S.stats();
  EXPECT_GE(St.Respecializations, 1)
      << "drifted distribution never respecialized";
  EXPECT_TRUE(St.consistent());
  EXPECT_TRUE(St.tenantsConsistent());
  // One hot row among short ones is the coalescing transform's home
  // turf (ceil(total/P) beats both static schedules), so exploit
  // serves after the flip run coalesced (probes stay unflattened).
  EXPECT_NE(std::find(Seen.begin(), Seen.end(), "coalesced"), Seen.end())
      << "no exploit serve ran the respecialized strategy";
  // A strategy variant compiled under its own canonical key: at least
  // the probe variant plus the coalesced variant missed once each.
  EXPECT_GE(St.CacheMisses, 2);
}

TEST(Server, AdaptiveFallbackStaysStaticAndFeedsNoProfile) {
  // With every primary compile failing, serves come from the
  // unflattened fallback: tagged static, and never folded into the
  // profile (a spell of fallback serves must not masquerade as drift).
  ServerOptions SO;
  SO.Workers = 1;
  SO.Adaptive = true;
  SO.AdaptiveMinSamples = 1;
  SO.Faults.FailPrimary = true;
  Server S(SO);
  for (int I = 0; I < 5; ++I) {
    Reply Rep = getReply(S.submit(exampleRequest()));
    ASSERT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
    EXPECT_TRUE(Rep.Tele.Fallback);
    EXPECT_EQ(Rep.Tele.Strategy, "static");
    EXPECT_EQ(Rep.Tele.StrategyEpoch, 0);
  }
  ServerStats St = S.stats();
  EXPECT_EQ(St.AdaptiveDecisions, 0);
  EXPECT_EQ(St.Respecializations, 0);
  EXPECT_TRUE(St.consistent());
}

TEST(Server, AdaptiveRoutedFailureServesTheStaticBuild) {
  // The unflattened probe build of a lane-varying lower bound has no
  // SIMD form; the static flattened build does. Every request serves
  // the static build, tagged static at epoch 0, not as a fallback, and
  // its trips feed no profile. Both verdicts are cached: two pipeline
  // runs in all, and every repeat is a cache hit.
  ServerOptions SO;
  SO.Workers = 1;
  SO.Adaptive = true;
  SO.AdaptiveMinSamples = 1;
  Server S(SO);
  for (int I = 0; I < 3; ++I) {
    Reply Rep =
        getReply(S.submit(nestRequest("DOALL i = 1, K", "DO j = L(i), 4")));
    ASSERT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
    EXPECT_EQ(Rep.Tele.Strategy, "static");
    EXPECT_EQ(Rep.Tele.StrategyEpoch, 0);
    EXPECT_FALSE(Rep.Tele.Fallback);
    EXPECT_EQ(Rep.Tele.CacheHit, I > 0);
  }
  ServerStats St = S.stats();
  EXPECT_EQ(St.AdaptiveDecisions, 0);
  EXPECT_EQ(St.FallbackServes, 0);
  EXPECT_EQ(St.CacheMisses, 2);
  expectConsistent(S);
}

TEST(Server, AdaptiveSurvivesCachePressureAndEviction) {
  // Respecialization under byte-budget pressure and mid-flight
  // eviction: strategy variants churn in and out of a tiny cache while
  // the distribution drifts. The robustness contract (conservation,
  // per-tenant consistency, byte budget) must hold the whole way.
  ServerOptions SO;
  SO.Workers = 2;
  SO.Adaptive = true;
  SO.AdaptiveMinSamples = 4;
  SO.CacheCapacity = 2;
  SO.CacheMaxBytes = 3000;
  SO.Faults.InflateCostBytes = 1500;
  SO.Faults.EvictMidFlight = true;
  Server S(SO);

  const std::vector<int64_t> Shapes[] = {
      {6, 6, 6, 6, 6, 6, 6, 6},
      {60, 1, 1, 1, 1, 1, 1, 1},
      {1, 1, 1, 1, 60, 60, 60, 60},
  };
  int64_t ServedOk = 0;
  for (int I = 0; I < 36; ++I) {
    const std::vector<int64_t> &Trips = Shapes[(I / 6) % 3];
    Reply Rep = getReply(S.submit(wideRequest(Trips)));
    ASSERT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
    const std::vector<int64_t> &X = Rep.IntArrays["X"];
    EXPECT_EQ(std::accumulate(X.begin(), X.end(), int64_t{0}),
              wideExpectedSum(Trips))
        << "answer changed under strategy " << Rep.Tele.Strategy;
    ++ServedOk;
  }
  ServerStats St = S.stats();
  EXPECT_EQ(ServedOk, 36);
  EXPECT_TRUE(St.consistent());
  EXPECT_TRUE(St.tenantsConsistent());
  EXPECT_LE(St.CacheBytesResident, (int64_t)SO.CacheMaxBytes);
  EXPECT_GE(St.AdaptiveDecisions, 1);
}

TEST(Server, NativeEngineServesWithAuthoritativeTag) {
  // --engine=native end to end: the reply's engine tag is what the
  // interpreter actually executed, never an assumption. On a build
  // with a toolchain the request runs native; without one it degrades
  // to bytecode and the fallback is counted. Answers are identical
  // either way.
  ServerOptions SO;
  SO.Workers = 1;
  SO.Eng = interp::Engine::Native;
  Server S(SO);
  Request R = exampleRequest();
  R.WantArrays = true;
  Reply Rep = getReply(S.submit(std::move(R)));
  ASSERT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
  ServerStats St = S.stats();
  if (codegen::nativeAvailable()) {
    EXPECT_EQ(Rep.Tele.Engine, "native");
    EXPECT_EQ(St.NativeFallbacks, 0);
  } else {
    EXPECT_EQ(Rep.Tele.Engine, "bytecode");
    EXPECT_EQ(St.NativeFallbacks, 1);
  }
  // The answers match a bytecode serve of the same request.
  ServerOptions BO;
  BO.Workers = 1;
  Server SB(BO);
  Request RB = exampleRequest();
  RB.WantArrays = true;
  Reply ByteRep = getReply(SB.submit(std::move(RB)));
  ASSERT_EQ(ByteRep.Out, Outcome::Served) << ByteRep.Error;
  EXPECT_EQ(Rep.IntArrays.at("X"), ByteRep.IntArrays.at("X"));
}

TEST(Server, NativeCompileFailureDegradesToBytecodeServe) {
  // A native tier that cannot produce an artifact (compiler missing,
  // artifact dir unwritable) must not fail or delay the request
  // beyond one compile attempt: the serve completes on bytecode, the
  // telemetry says so, and NativeFallbacks counts it. A distinct lane
  // count keeps this program out of every other test's memoized
  // native module.
  ::setenv("SIMDFLAT_JIT_CC", "/nonexistent/cxx-for-serve-test", 1);
  ::setenv("SIMDFLAT_JIT_DIR", "/dev/null/no-jit-dir", 1);
  ServerOptions SO;
  SO.Workers = 1;
  SO.Eng = interp::Engine::Native;
  Server S(SO);
  Request R = exampleRequest();
  R.Lanes = 6;
  R.WantArrays = true;
  Reply Rep = getReply(S.submit(std::move(R)));
  ::unsetenv("SIMDFLAT_JIT_CC");
  ::unsetenv("SIMDFLAT_JIT_DIR");
  ASSERT_EQ(Rep.Out, Outcome::Served) << Rep.Error;
  EXPECT_EQ(Rep.Tele.Engine, "bytecode");
  ServerStats St = S.stats();
  EXPECT_EQ(St.NativeFallbacks, 1);
  EXPECT_EQ(St.Served, 1);
  EXPECT_TRUE(St.consistent());
}

} // namespace
