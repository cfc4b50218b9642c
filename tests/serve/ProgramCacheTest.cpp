//===- tests/serve/ProgramCacheTest.cpp ------------------------*- C++ -*-===//
//
// The compile-once/run-many cache contract: LRU bounds, single-flight
// compilation, failure verdicts cached like programs, a throwing
// compile that caches nothing and wedges nobody, and eviction that
// never invalidates a handed-out program.
//
//===----------------------------------------------------------------------===//

#include "serve/ProgramCache.h"

#include "frontend/Parser.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace simdflat;
using namespace simdflat::serve;

namespace {

using Verdict =
    Expected<transform::CompiledSimdProgram, transform::PipelineError>;

/// One real compiled program all tests share as the cache payload.
transform::CompiledSimdProgram compiledFixture() {
  frontend::ParseResult PR = frontend::parseProgram("PROGRAM FIX\n"
                                                    "INTEGER a\n"
                                                    "INTEGER b\n"
                                                    "BEGIN\n"
                                                    "  b = a * 3 + 1\n"
                                                    "END\n");
  EXPECT_TRUE(PR.ok()) << PR.Diags.renderAll();
  auto C = transform::compileForSimdExec(*PR.Prog);
  EXPECT_TRUE(static_cast<bool>(C)) << C.error().render();
  return std::move(*C);
}

ProgramCache::Compiler okCompiler(std::atomic<int> *Runs = nullptr) {
  return [Runs] {
    if (Runs)
      ++*Runs;
    return Verdict(compiledFixture());
  };
}

const transform::PipelineError Injected{"flatten", {"injected"}};

ProgramCache::Compiler failingCompiler(std::atomic<int> *Runs = nullptr) {
  return [Runs] {
    if (Runs)
      ++*Runs;
    return Verdict(Injected);
  };
}

TEST(ProgramCache, MissThenHit) {
  ProgramCache C(4);
  std::atomic<int> Runs{0};
  ProgramCache::Outcome First = C.getOrCompile(1, okCompiler(&Runs));
  ASSERT_NE(First.Prog, nullptr);
  EXPECT_FALSE(First.Hit);
  EXPECT_FALSE(First.Waited);

  ProgramCache::Outcome Second = C.getOrCompile(1, okCompiler(&Runs));
  ASSERT_NE(Second.Prog, nullptr);
  EXPECT_TRUE(Second.Hit);
  EXPECT_EQ(Runs.load(), 1) << "a hit must not recompile";
  EXPECT_EQ(Second.Prog, First.Prog) << "hits share the entry";

  ProgramCache::Stats S = C.stats();
  EXPECT_EQ(S.Misses, 1);
  EXPECT_EQ(S.Hits, 1);
  EXPECT_EQ(C.size(), 1u);
}

TEST(ProgramCache, SingleFlightCompilesOnce) {
  // Eight threads race for one uncached key; exactly one compiler run,
  // everyone gets the same program.
  ProgramCache C(4);
  std::atomic<int> Runs{0};
  ProgramCache::Compiler Slow = [&Runs] {
    ++Runs;
    // Long enough that the other threads reliably join the flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Verdict(compiledFixture());
  };
  constexpr int N = 8;
  std::vector<ProgramCache::Outcome> Out(N);
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back(
        [&, I] { Out[I] = C.getOrCompile(7, Slow); });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Runs.load(), 1) << "single-flight violated";
  for (int I = 0; I < N; ++I) {
    ASSERT_NE(Out[I].Prog, nullptr) << "thread " << I;
    EXPECT_EQ(Out[I].Prog, Out[0].Prog) << "thread " << I;
  }
}

TEST(ProgramCache, FailureVerdictIsCached) {
  ProgramCache C(4);
  std::atomic<int> Runs{0};
  ProgramCache::Outcome First = C.getOrCompile(3, failingCompiler(&Runs));
  EXPECT_EQ(First.Prog, nullptr);
  EXPECT_FALSE(First.Hit);
  EXPECT_EQ(First.Error, Injected.render());
  EXPECT_EQ(C.size(), 1u) << "a failure occupies a slot like a program";
  EXPECT_EQ(C.bytesResident(), failureCostBytes(Injected.render()));

  // The verdict is static: the repeat is a hit with the same error, and
  // the compiler never runs again.
  ProgramCache::Outcome Second = C.getOrCompile(3, okCompiler(&Runs));
  EXPECT_EQ(Second.Prog, nullptr);
  EXPECT_TRUE(Second.Hit);
  EXPECT_EQ(Second.Error, First.Error);
  EXPECT_EQ(Runs.load(), 1);
  ProgramCache::Stats S = C.stats();
  EXPECT_EQ(S.Misses, 1);
  EXPECT_EQ(S.Hits, 1);
}

TEST(ProgramCache, FailureVerdictsObeyTheBounds) {
  // Failures are charged and evicted exactly like programs: a stream of
  // distinct failing keys never grows the cache past its bounds.
  ProgramCache::Options O;
  O.MaxEntries = 4;
  O.TenantMaxBytes = 3 * failureCostBytes(Injected.render());
  ProgramCache C(O);
  for (uint64_t Key = 0; Key < 100; ++Key)
    EXPECT_EQ(C.getOrCompile(Key, failingCompiler(), "t").Prog, nullptr);
  EXPECT_EQ(C.size(), 3u);
  EXPECT_EQ(C.tenantBytes("t"), O.TenantMaxBytes);
  ProgramCache::Stats S = C.stats();
  EXPECT_EQ(S.Misses, 100);
  EXPECT_EQ(S.TenantEvictions, 97);
  // The freshest verdicts are the resident ones.
  EXPECT_TRUE(C.getOrCompile(99, okCompiler(), "t").Hit);
  EXPECT_FALSE(C.getOrCompile(0, okCompiler(), "t").Hit);
}

/// Looks \p Key up on a detached thread, so a wedged key fails the
/// test at its bounded wait instead of hanging it.
std::future<ProgramCache::Outcome>
lookupDetached(std::shared_ptr<ProgramCache> C, uint64_t Key) {
  auto P = std::make_shared<std::promise<ProgramCache::Outcome>>();
  std::future<ProgramCache::Outcome> F = P->get_future();
  std::thread([C, P, Key] {
    P->set_value(C->getOrCompile(Key, okCompiler()));
  }).detach();
  return F;
}

TEST(ProgramCache, ThrowingCompileCachesNothingAndWedgesNoOne) {
  auto C = std::make_shared<ProgramCache>(4);
  std::atomic<bool> Release{false};
  ProgramCache::Compiler Throws = [&]() -> Verdict {
    // Hold the flight until a second lookup has joined it.
    while (!Release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    throw std::runtime_error("out of memory");
  };
  std::thread Owner([&] {
    EXPECT_THROW(C->getOrCompile(5, Throws), std::runtime_error);
  });
  while (C->stats().Misses == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::future<ProgramCache::Outcome> Joiner = lookupDetached(C, 5);
  while (C->stats().Waits == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Release = true;
  Owner.join();

  // The joined lookup wakes with an error instead of blocking forever.
  ASSERT_EQ(Joiner.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "a lookup joined to a throwing compile never woke";
  ProgramCache::Outcome Woken = Joiner.get();
  EXPECT_EQ(Woken.Prog, nullptr);
  EXPECT_TRUE(Woken.Waited);
  EXPECT_FALSE(Woken.Error.empty());
  EXPECT_EQ(C->size(), 0u) << "an exception is not a verdict";

  // The next lookup compiles afresh.
  std::future<ProgramCache::Outcome> Next = lookupDetached(C, 5);
  ASSERT_EQ(Next.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "the key stayed wedged after a throwing compile";
  ProgramCache::Outcome Fresh = Next.get();
  ASSERT_NE(Fresh.Prog, nullptr);
  EXPECT_FALSE(Fresh.Hit);
}

TEST(ProgramCache, LruEvictsOldestCompleted) {
  ProgramCache C(2);
  std::atomic<int> Runs{0};
  C.getOrCompile(1, okCompiler(&Runs));
  C.getOrCompile(2, okCompiler(&Runs));
  // Touch 1 so 2 is the LRU victim when 3 arrives.
  EXPECT_TRUE(C.getOrCompile(1, okCompiler(&Runs)).Hit);
  C.getOrCompile(3, okCompiler(&Runs));
  EXPECT_EQ(C.size(), 2u);
  EXPECT_EQ(C.stats().Evictions, 1);
  EXPECT_TRUE(C.getOrCompile(1, okCompiler(&Runs)).Hit);
  EXPECT_FALSE(C.getOrCompile(2, okCompiler(&Runs)).Hit)
      << "the LRU key must have been evicted";
}

TEST(ProgramCache, EvictionKeepsHandedOutProgramsAlive) {
  ProgramCache C(1);
  ProgramCache::Outcome Out = C.getOrCompile(9, okCompiler());
  ASSERT_NE(Out.Prog, nullptr);
  C.evict(9);
  EXPECT_EQ(C.size(), 0u);
  // The shared_ptr handoff keeps the compiled program valid.
  ASSERT_NE(Out.Prog->Code, nullptr);
  EXPECT_FALSE(C.getOrCompile(9, okCompiler()).Hit);
}

TEST(ProgramCache, EvictUnknownKeyIsNoop) {
  ProgramCache C(2);
  C.evict(42);
  EXPECT_EQ(C.stats().Evictions, 0);
  EXPECT_EQ(C.size(), 0u);
}

TEST(ProgramCache, ProgramCostBytesIsStableAndBeyondOverhead) {
  transform::CompiledSimdProgram P = compiledFixture();
  size_t Cost = programCostBytes(P);
  // The estimate always includes the fixed per-entry overhead plus the
  // bytecode payload, and it is a pure function of the program.
  EXPECT_GT(Cost, (size_t)512);
  EXPECT_EQ(Cost, programCostBytes(P));
}

TEST(ProgramCache, ByteBudgetEvictsGlobalLru) {
  ProgramCache::Options O;
  O.MaxEntries = 64;
  O.MaxBytes = 2500;
  O.CostOverrideBytes = 1000; // deterministic: every entry "costs" 1000
  ProgramCache C(O);

  C.getOrCompile(1, okCompiler());
  C.getOrCompile(2, okCompiler());
  EXPECT_EQ(C.bytesResident(), 2000u);
  // The third 1000-byte entry busts the 2500-byte budget: the global
  // LRU victim (key 1) goes, the newcomer stays.
  C.getOrCompile(3, okCompiler());
  ProgramCache::Stats S = C.stats();
  EXPECT_EQ(S.ByteEvictions, 1);
  EXPECT_EQ(S.BytesResident, 2000);
  EXPECT_EQ(C.bytesResident(), 2000u);
  EXPECT_FALSE(C.getOrCompile(1, okCompiler()).Hit) << "LRU victim";
  // Re-checking key 1 republished it (another byte eviction); 2 or 3 is
  // still resident alongside it.
  EXPECT_EQ(C.size(), 2u);
}

TEST(ProgramCache, JustPublishedEntryIsNeverItsOwnVictim) {
  ProgramCache::Options O;
  O.MaxBytes = 500; // below a single entry's (overridden) cost
  O.CostOverrideBytes = 1000;
  ProgramCache C(O);

  // The entry the cache just compiled must be served and stay resident
  // even though it alone exceeds the budget - otherwise a tight budget
  // would recompile every request forever.
  ProgramCache::Outcome Out = C.getOrCompile(1, okCompiler());
  ASSERT_NE(Out.Prog, nullptr);
  EXPECT_EQ(C.size(), 1u);
  EXPECT_TRUE(C.getOrCompile(1, okCompiler()).Hit);

  // A second over-budget entry displaces the first, never itself.
  C.getOrCompile(2, okCompiler());
  EXPECT_EQ(C.size(), 1u);
  EXPECT_TRUE(C.getOrCompile(2, okCompiler()).Hit);
  EXPECT_EQ(C.stats().ByteEvictions, 1);
}

TEST(ProgramCache, TenantCapEvictsTheTenantsOwnLruFirst) {
  ProgramCache::Options O;
  O.MaxEntries = 64;
  O.TenantMaxBytes = 1000; // one (overridden) entry per tenant
  O.CostOverrideBytes = 1000;
  ProgramCache C(O);

  C.getOrCompile(1, okCompiler(), "a");
  C.getOrCompile(10, okCompiler(), "b");
  EXPECT_EQ(C.tenantBytes("a"), 1000u);
  EXPECT_EQ(C.tenantBytes("b"), 1000u);

  // Tenant "a"'s second program busts its own cap: its key 1 goes,
  // tenant "b"'s entry is untouched.
  C.getOrCompile(2, okCompiler(), "a");
  ProgramCache::Stats S = C.stats();
  EXPECT_EQ(S.TenantEvictions, 1);
  EXPECT_EQ(C.tenantBytes("a"), 1000u);
  EXPECT_EQ(C.tenantBytes("b"), 1000u);
  EXPECT_TRUE(C.getOrCompile(10, okCompiler(), "b").Hit)
      << "one tenant's churn must not evict another tenant's program";
  EXPECT_TRUE(C.getOrCompile(2, okCompiler(), "a").Hit);
  EXPECT_FALSE(C.getOrCompile(1, okCompiler(), "a").Hit);
}

TEST(ProgramCache, EvictionCreditsBytesBack) {
  ProgramCache::Options O;
  O.CostOverrideBytes = 1000;
  ProgramCache C(O);
  C.getOrCompile(1, okCompiler(), "a");
  C.getOrCompile(2, okCompiler(), "a");
  EXPECT_EQ(C.bytesResident(), 2000u);
  C.evict(1);
  EXPECT_EQ(C.bytesResident(), 1000u);
  EXPECT_EQ(C.tenantBytes("a"), 1000u);
  C.evict(2);
  EXPECT_EQ(C.bytesResident(), 0u);
  EXPECT_EQ(C.tenantBytes("a"), 0u);
}

TEST(ProgramCache, MeasuredCostsDriveTheBudgetWithoutOverride) {
  // No override: the budget works off programCostBytes. A budget of
  // 1.5x one program's cost holds exactly one resident entry.
  size_t OneCost = programCostBytes(compiledFixture());
  ProgramCache::Options O;
  O.MaxBytes = OneCost + OneCost / 2;
  ProgramCache C(O);
  C.getOrCompile(1, okCompiler());
  EXPECT_EQ(C.bytesResident(), OneCost);
  C.getOrCompile(2, okCompiler());
  EXPECT_EQ(C.size(), 1u);
  EXPECT_EQ(C.stats().ByteEvictions, 1);
  EXPECT_TRUE(C.getOrCompile(2, okCompiler()).Hit);
}

TEST(ProgramCache, RespecializationCostChangeNeverLeaksBytes) {
  // The respecialization pattern the adaptive server drives: the same
  // key is evicted and re-published with a *different* measured cost
  // (a strategy change compiles a structurally different program).
  // Byte accounting must track the live entry exactly - the old cost
  // is credited back in full, the new cost is charged in full, and no
  // reserved bytes leak through any number of round trips. Measured
  // costs, no override: this is the accounting path production runs.
  frontend::ParseResult Big = frontend::parseProgram(
      "PROGRAM BIGFIX\n"
      "INTEGER K\n"
      "DISTRIBUTED INTEGER L(8)\n"
      "DISTRIBUTED INTEGER X(8, 4)\n"
      "INTEGER i\n"
      "INTEGER j\n"
      "BEGIN\n"
      "  DOALL i = 1, K\n"
      "    DO j = 1, L(i)\n"
      "      X(i, j) = i * j + L(i)\n"
      "    ENDDO\n"
      "  ENDDO\n"
      "END\n");
  ASSERT_TRUE(Big.ok()) << Big.Diags.renderAll();
  ProgramCache::Compiler BigCompiler = [&Big] {
    auto C = transform::compileForSimdExec(*Big.Prog);
    EXPECT_TRUE(static_cast<bool>(C));
    return C;
  };
  const size_t SmallCost = programCostBytes(compiledFixture());
  size_t BigCost = 0;
  {
    auto C = transform::compileForSimdExec(*Big.Prog);
    ASSERT_TRUE(static_cast<bool>(C));
    BigCost = programCostBytes(*C);
  }
  ASSERT_NE(SmallCost, BigCost)
      << "fixtures must differ in measured cost for this test to bite";

  ProgramCache::Options O;
  O.MaxEntries = 8;
  ProgramCache C(O);

  ASSERT_NE(C.getOrCompile(42, okCompiler(), "acme").Prog, nullptr);
  EXPECT_EQ(C.bytesResident(), SmallCost);
  EXPECT_EQ(C.tenantBytes("acme"), SmallCost);

  // Eviction credits every byte back, globally and per tenant.
  C.evict(42);
  EXPECT_EQ(C.bytesResident(), 0u);
  EXPECT_EQ(C.tenantBytes("acme"), 0u);

  // Re-publish the same key at the new (bigger) cost: the ledger holds
  // exactly the new cost - a stale small-cost reservation would show
  // up here as a shortfall or an accumulation.
  ASSERT_NE(C.getOrCompile(42, BigCompiler, "acme").Prog, nullptr);
  EXPECT_EQ(C.bytesResident(), BigCost);
  EXPECT_EQ(C.tenantBytes("acme"), BigCost);
  EXPECT_EQ(C.stats().BytesResident, (int64_t)BigCost);

  // Churn the same key through both costs repeatedly: accounting is
  // exact after every round trip, not just the first.
  for (int I = 0; I < 4; ++I) {
    C.evict(42);
    const bool BigRound = (I % 2) == 0;
    ASSERT_NE(C.getOrCompile(42, BigRound ? okCompiler() : BigCompiler,
                             "acme")
                  .Prog,
              nullptr);
    const size_t Want = BigRound ? SmallCost : BigCost;
    EXPECT_EQ(C.bytesResident(), Want) << "round " << I;
    EXPECT_EQ(C.tenantBytes("acme"), Want) << "round " << I;
  }
  EXPECT_EQ(C.stats().ByteEvictions, 0)
      << "explicit evictions must not count as byte-budget evictions";
}

} // namespace
