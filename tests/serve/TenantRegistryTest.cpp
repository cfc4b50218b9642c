//===- tests/serve/TenantRegistryTest.cpp ----------------------*- C++ -*-===//
//
// The tenancy building blocks in isolation, under a hand-stepped
// virtual-time clock: token-bucket admission (request rate + fuel rate
// + in-flight), refusal pricing (refill-time hints, permanent
// refusals), the per-tenant conservation laws, and the round-robin
// FairQueue the Server dequeues from.
//
//===----------------------------------------------------------------------===//

#include "serve/FairQueue.h"
#include "serve/TenantRegistry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace simdflat;
using namespace simdflat::serve;

namespace {

/// Hand-stepped nanosecond clock: tests advance time explicitly, so
/// every refill is an arithmetic fact, not a race.
struct ManualClock {
  int64_t Nanos = 0;
  ClockFn fn() {
    return [this] { return Nanos; };
  }
  void advanceMs(int64_t Ms) { Nanos += Ms * 1'000'000; }
};

TEST(TenantRegistry, FrozenClockAdmitsExactlyTheBurst) {
  ManualClock Clk;
  TenantQuota Q;
  Q.RatePerSec = 1;
  Q.Burst = 3;
  TenantRegistry Reg(Q, Clk.fn());

  for (int I = 0; I < 3; ++I)
    EXPECT_TRUE(Reg.tryAdmit("t", 0).Admit) << "burst admission " << I;
  TenantRegistry::Decision D = Reg.tryAdmit("t", 0);
  EXPECT_FALSE(D.Admit);
  EXPECT_FALSE(D.Permanent);
  EXPECT_NE(D.Reason.find("request-rate"), std::string::npos) << D.Reason;
  // One token at 1/s is 1000ms away; the hint prices it exactly.
  EXPECT_EQ(D.RetryAfterMs, 1000);
}

TEST(TenantRegistry, SteppingTheClockRefillsTheBucket) {
  ManualClock Clk;
  TenantQuota Q;
  Q.RatePerSec = 2; // one token per 500ms
  Q.Burst = 1;
  TenantRegistry Reg(Q, Clk.fn());

  EXPECT_TRUE(Reg.tryAdmit("t", 0).Admit);
  EXPECT_FALSE(Reg.tryAdmit("t", 0).Admit);
  Clk.advanceMs(499);
  EXPECT_FALSE(Reg.tryAdmit("t", 0).Admit) << "refill arrived early";
  Clk.advanceMs(1);
  EXPECT_TRUE(Reg.tryAdmit("t", 0).Admit) << "full refill not credited";
  // Burst caps accumulation: a long idle stretch still buys one token.
  Clk.advanceMs(60'000);
  EXPECT_TRUE(Reg.tryAdmit("t", 0).Admit);
  EXPECT_FALSE(Reg.tryAdmit("t", 0).Admit);
}

TEST(TenantRegistry, InFlightCapReleasesWithTheSlot) {
  ManualClock Clk;
  TenantQuota Q;
  Q.MaxInFlight = 2;
  TenantRegistry Reg(Q, Clk.fn());

  EXPECT_TRUE(Reg.tryAdmit("t", 0).Admit);
  EXPECT_TRUE(Reg.tryAdmit("t", 0).Admit);
  TenantRegistry::Decision D = Reg.tryAdmit("t", 0);
  EXPECT_FALSE(D.Admit);
  EXPECT_NE(D.Reason.find("in-flight"), std::string::npos) << D.Reason;
  // The in-flight cap has no refill clock to price; the server applies
  // its own floor hint.
  EXPECT_EQ(D.RetryAfterMs, 0);
  EXPECT_EQ(Reg.inFlight("t"), 2);

  Reg.release("t");
  EXPECT_EQ(Reg.inFlight("t"), 1);
  EXPECT_TRUE(Reg.tryAdmit("t", 0).Admit);
}

TEST(TenantRegistry, FuelMeteringChargesAndRefuses) {
  ManualClock Clk;
  TenantQuota Q;
  Q.FuelPerSec = 1000; // bucket capacity defaults to FuelPerSec
  TenantRegistry Reg(Q, Clk.fn());

  // 1000 fuel tokens, frozen: 400 + 400 fit, the third 400 does not.
  EXPECT_TRUE(Reg.tryAdmit("t", 400).Admit);
  EXPECT_TRUE(Reg.tryAdmit("t", 400).Admit);
  TenantRegistry::Decision D = Reg.tryAdmit("t", 400);
  EXPECT_FALSE(D.Admit);
  EXPECT_FALSE(D.Permanent);
  // 200 of 400 tokens remain; the 200-token deficit at 1000/s is 200ms.
  EXPECT_EQ(D.RetryAfterMs, 200);
  Clk.advanceMs(200);
  EXPECT_TRUE(Reg.tryAdmit("t", 400).Admit);
}

TEST(TenantRegistry, UnservableFuelDemandsRefusePermanently) {
  ManualClock Clk;
  TenantQuota Q;
  Q.FuelPerSec = 500;
  TenantRegistry Reg(Q, Clk.fn());

  // No declared fuel on a metered tenant: unaccountable, refuse.
  TenantRegistry::Decision NoFuel = Reg.tryAdmit("t", 0);
  EXPECT_FALSE(NoFuel.Admit);
  EXPECT_TRUE(NoFuel.Permanent);
  EXPECT_EQ(NoFuel.RetryAfterMs, 0);

  // Demand above the bucket capacity: no amount of waiting helps.
  TenantRegistry::Decision TooBig = Reg.tryAdmit("t", 501);
  EXPECT_FALSE(TooBig.Admit);
  EXPECT_TRUE(TooBig.Permanent);
  EXPECT_EQ(TooBig.RetryAfterMs, 0);

  // A refusal charges nothing: the full burst is still spendable.
  EXPECT_TRUE(Reg.tryAdmit("t", 500).Admit);
}

TEST(TenantRegistry, QuotaChangeReprimesTheBuckets) {
  ManualClock Clk;
  TenantQuota Small;
  Small.RatePerSec = 1;
  Small.Burst = 1;
  TenantRegistry Reg(Small, Clk.fn());
  EXPECT_TRUE(Reg.tryAdmit("t", 0).Admit);
  EXPECT_FALSE(Reg.tryAdmit("t", 0).Admit);

  TenantQuota Big;
  Big.RatePerSec = 1;
  Big.Burst = 4;
  Reg.setQuota("t", Big);
  for (int I = 0; I < 4; ++I)
    EXPECT_TRUE(Reg.tryAdmit("t", 0).Admit) << "re-primed admission " << I;
  EXPECT_FALSE(Reg.tryAdmit("t", 0).Admit);
}

TEST(TenantRegistry, TenantsAreIsolated) {
  ManualClock Clk;
  TenantQuota Q;
  Q.RatePerSec = 1;
  Q.Burst = 2;
  TenantRegistry Reg(Q, Clk.fn());

  EXPECT_TRUE(Reg.tryAdmit("a", 0).Admit);
  EXPECT_TRUE(Reg.tryAdmit("a", 0).Admit);
  EXPECT_FALSE(Reg.tryAdmit("a", 0).Admit);
  // Draining "a"'s bucket spent nothing of "b"'s.
  EXPECT_TRUE(Reg.tryAdmit("b", 0).Admit);
  EXPECT_TRUE(Reg.tryAdmit("b", 0).Admit);
  EXPECT_FALSE(Reg.tryAdmit("b", 0).Admit);
}

TEST(TenantRegistry, ConservationLawsHoldPerTenant) {
  TenantRegistry Reg;
  Reg.countSubmitted("t");
  Reg.countSubmitted("t");
  Reg.countSubmitted("t");
  Reg.countAdmitted("t");
  Reg.countAdmitted("t");
  Reg.countOutcome("t", Outcome::Shed, /*AfterAdmission=*/false);
  Reg.countOutcome("t", Outcome::Served, /*AfterAdmission=*/true);
  Reg.countOutcome("t", Outcome::Shed, /*AfterAdmission=*/true);

  TenantStats S = Reg.statsFor("t");
  EXPECT_EQ(S.Submitted, 3);
  EXPECT_EQ(S.Admitted, 2);
  EXPECT_EQ(S.ShedAtAdmission, 1);
  EXPECT_EQ(S.ShedInService, 1);
  EXPECT_EQ(S.shed(), 2);
  EXPECT_TRUE(S.consistent());
  EXPECT_TRUE(Reg.consistent());

  // Breaking either law is detected: an outcome with no admission.
  Reg.countOutcome("t", Outcome::Served, /*AfterAdmission=*/true);
  EXPECT_FALSE(Reg.statsFor("t").consistent());
  EXPECT_FALSE(Reg.consistent());
}

TEST(FairQueue, RoundRobinsEqualWeights) {
  FairQueue<int> Q;
  for (int I = 0; I < 3; ++I) {
    Q.push("a", I * 10);
    Q.push("b", I * 10 + 1);
  }
  // Busy tenants alternate in activation order, so neither tenant's
  // backlog runs before the other's.
  std::vector<std::string> Order;
  while (!Q.empty())
    Order.push_back(Q.pop().first);
  EXPECT_EQ(Order,
            (std::vector<std::string>{"a", "b", "a", "b", "a", "b"}));
}

TEST(FairQueue, FifoWithinOneTenant) {
  FairQueue<int> Q;
  for (int I = 0; I < 5; ++I)
    Q.push("t", I);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(Q.pop().second, I);
}

TEST(FairQueue, ReactivatedTenantDoesNotBankIdleCredit) {
  FairQueue<int> Q;
  // "b" drains fully while "a" keeps a backlog; when "b" returns, it
  // rejoins at the back of the turn order instead of replaying the
  // idle stretch as burst credit.
  for (int I = 0; I < 6; ++I)
    Q.push("a", I);
  Q.push("b", 100);
  (void)Q.pop();
  (void)Q.pop(); // both lanes sampled once
  (void)Q.pop();
  (void)Q.pop(); // "b" is now empty, "a" keeps going
  Q.push("b", 101);
  int BRuns = 0;
  std::string Prev;
  for (int I = 0; I < 4 && !Q.empty(); ++I) {
    auto [Tenant, V] = Q.pop();
    if (Tenant == "b")
      ++BRuns;
  }
  // "b" gets its fair alternating share (1-2 of 4), not a monopoly.
  EXPECT_GE(BRuns, 1);
  EXPECT_LE(BRuns, 2);
}

TEST(FairQueue, DrainAllEmptiesInFairOrder) {
  FairQueue<int> Q;
  Q.push("a", 1);
  Q.push("b", 2);
  Q.push("a", 3);
  std::vector<std::string> Order;
  Q.drainAll([&](const std::string &Tenant, int &&V) {
    Order.push_back(Tenant + ":" + std::to_string(V));
  });
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.size(), 0u);
  EXPECT_EQ(Order,
            (std::vector<std::string>{"a:1", "b:2", "a:3"}));
}

TEST(FairQueue, SizeOfTracksPerTenantBacklog) {
  FairQueue<int> Q;
  Q.push("a", 1);
  Q.push("a", 2);
  Q.push("b", 3);
  EXPECT_EQ(Q.size(), 3u);
  EXPECT_EQ(Q.sizeOf("a"), 2u);
  EXPECT_EQ(Q.sizeOf("b"), 1u);
  EXPECT_EQ(Q.sizeOf("nobody"), 0u);
  (void)Q.pop();
  EXPECT_EQ(Q.size(), 2u);
}

TEST(FairQueue, IdleTenantsHoldNoLanes) {
  // Client-chosen tenant names must not grow the queue: a lane lives
  // only while its tenant has queued work.
  FairQueue<int> Q;
  const int N = 10'000;
  for (int I = 0; I < N; ++I)
    Q.push("tenant-" + std::to_string(I), I);
  EXPECT_EQ(Q.lanes(), static_cast<size_t>(N));
  // Turns follow activation order, not name order.
  for (int I = 0; I < N; ++I)
    ASSERT_EQ(Q.pop().second, I);
  EXPECT_TRUE(Q.empty());
  EXPECT_EQ(Q.lanes(), 0u);
}

} // namespace
