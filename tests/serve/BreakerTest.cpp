//===- tests/serve/BreakerTest.cpp -----------------------------*- C++ -*-===//
//
// The count-based circuit breaker state machine: threshold opening,
// open-budget fallback serving, half-open probes, per-key
// independence, and bounded tracking. Deterministic by construction (no
// clocks).
//
//===----------------------------------------------------------------------===//

#include "serve/CircuitBreaker.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace simdflat;
using namespace simdflat::serve;

namespace {

using State = CircuitBreaker::State;

CircuitBreaker::Options smallOptions() {
  CircuitBreaker::Options O;
  O.FailureThreshold = 2;
  O.OpenBudget = 3;
  return O;
}

TEST(CircuitBreaker, ClosedByDefault) {
  CircuitBreaker B;
  EXPECT_EQ(B.peek(1), State::Closed);
  EXPECT_EQ(B.admit(1), State::Closed);
  EXPECT_EQ(B.stats().Opens, 0);
}

TEST(CircuitBreaker, OpensAtThreshold) {
  CircuitBreaker B(smallOptions());
  B.admit(1);
  B.recordFailure(1);
  EXPECT_EQ(B.peek(1), State::Closed) << "one failure is below threshold";
  B.admit(1);
  B.recordFailure(1);
  EXPECT_EQ(B.peek(1), State::Open);
  EXPECT_EQ(B.stats().Opens, 1);
}

TEST(CircuitBreaker, SuccessResetsConsecutiveFailures) {
  CircuitBreaker B(smallOptions());
  B.admit(1);
  B.recordFailure(1);
  B.admit(1);
  B.recordSuccess(1); // breaks the streak
  B.admit(1);
  B.recordFailure(1);
  EXPECT_EQ(B.peek(1), State::Closed)
      << "non-consecutive failures must not open the breaker";
}

TEST(CircuitBreaker, OpenServesFallbackThenProbes) {
  CircuitBreaker B(smallOptions());
  for (int I = 0; I < 2; ++I) {
    B.admit(1);
    B.recordFailure(1);
  }
  // Three fallback serves (the open budget), then the next admit is the
  // half-open probe.
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(B.admit(1), State::Open) << "budget serve " << I;
  EXPECT_EQ(B.admit(1), State::HalfOpen);
  EXPECT_EQ(B.stats().Probes, 1);
}

TEST(CircuitBreaker, ProbeSuccessCloses) {
  CircuitBreaker B(smallOptions());
  for (int I = 0; I < 2; ++I) {
    B.admit(1);
    B.recordFailure(1);
  }
  for (int I = 0; I < 3; ++I)
    B.admit(1);
  ASSERT_EQ(B.admit(1), State::HalfOpen);
  B.recordSuccess(1);
  EXPECT_EQ(B.peek(1), State::Closed);
  EXPECT_EQ(B.admit(1), State::Closed);
}

TEST(CircuitBreaker, ProbeFailureReopensWithFreshBudget) {
  CircuitBreaker B(smallOptions());
  for (int I = 0; I < 2; ++I) {
    B.admit(1);
    B.recordFailure(1);
  }
  for (int I = 0; I < 3; ++I)
    B.admit(1);
  ASSERT_EQ(B.admit(1), State::HalfOpen);
  B.recordFailure(1);
  EXPECT_EQ(B.peek(1), State::Open);
  // A full fresh budget of fallback serves before the next probe.
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(B.admit(1), State::Open) << "refilled serve " << I;
  EXPECT_EQ(B.admit(1), State::HalfOpen);
  EXPECT_EQ(B.stats().Opens, 2);
  EXPECT_EQ(B.stats().Probes, 2);
}

TEST(CircuitBreaker, KeysAreIndependent) {
  CircuitBreaker B(smallOptions());
  for (int I = 0; I < 2; ++I) {
    B.admit(1);
    B.recordFailure(1);
  }
  EXPECT_EQ(B.peek(1), State::Open);
  EXPECT_EQ(B.peek(2), State::Closed);
  EXPECT_EQ(B.admit(2), State::Closed)
      << "one program's quarantine must not affect another's";
}

TEST(CircuitBreaker, CooldownReprobesSparseTraffic) {
  // The sparse-traffic fix: with a large open budget and rare requests,
  // a count-only breaker would stay open forever. The cooldown converts
  // an open breaker into a half-open probe once enough (injected) time
  // has passed, even with budget to spare.
  int64_t Now = 0;
  CircuitBreaker::Options O = smallOptions();
  O.OpenBudget = 1'000'000; // counts alone would never probe here
  O.CooldownMicros = 500;
  O.NowMicros = [&Now] { return Now; };
  CircuitBreaker B(O);

  for (int I = 0; I < 2; ++I) {
    B.admit(1);
    B.recordFailure(1);
  }
  ASSERT_EQ(B.peek(1), State::Open);

  Now = 499;
  EXPECT_EQ(B.admit(1), State::Open) << "cooldown fired one tick early";
  Now = 500;
  EXPECT_EQ(B.admit(1), State::HalfOpen)
      << "elapsed cooldown must convert the admit into a probe";
  EXPECT_EQ(B.stats().Probes, 1);

  // A failed probe re-opens AND re-anchors the cooldown at the failure
  // time, so the next probe is a full cooldown away.
  B.recordFailure(1);
  ASSERT_EQ(B.peek(1), State::Open);
  Now = 999;
  EXPECT_EQ(B.admit(1), State::Open)
      << "cooldown must restart from the reopen, not the first open";
  Now = 1000;
  EXPECT_EQ(B.admit(1), State::HalfOpen);
  B.recordSuccess(1);
  EXPECT_EQ(B.peek(1), State::Closed);
}

TEST(CircuitBreaker, ZeroCooldownKeepsCountOnlyBehaviour) {
  // Legacy configurations (CooldownMicros = 0) must never probe on
  // time, only on spent budget - even with a clock that jumps far
  // ahead.
  int64_t Now = 0;
  CircuitBreaker::Options O = smallOptions();
  O.NowMicros = [&Now] { return Now; };
  CircuitBreaker B(O);
  for (int I = 0; I < 2; ++I) {
    B.admit(1);
    B.recordFailure(1);
  }
  Now = 1'000'000'000;
  EXPECT_EQ(B.admit(1), State::Open)
      << "a zero cooldown must not re-probe on time";
}

TEST(CircuitBreaker, TracksOnlyKeysWithFailures) {
  // A Closed entry with no failures behaves like a missing one, so a
  // long-lived server must not keep one per program it ever served.
  CircuitBreaker B(smallOptions());
  for (uint64_t Key = 0; Key < 1000; ++Key) {
    EXPECT_EQ(B.admit(Key), State::Closed);
    B.recordSuccess(Key);
  }
  EXPECT_EQ(B.stats().Tracked, 0);
  B.admit(7);
  B.recordFailure(7);
  EXPECT_EQ(B.stats().Tracked, 1);
  B.admit(7);
  B.recordSuccess(7);
  EXPECT_EQ(B.stats().Tracked, 0);
  EXPECT_EQ(B.peek(7), State::Closed);
}

TEST(CircuitBreaker, StateNames) {
  EXPECT_STREQ(breakerStateName(State::Closed), "closed");
  EXPECT_STREQ(breakerStateName(State::Open), "open");
  EXPECT_STREQ(breakerStateName(State::HalfOpen), "half-open");
}

TEST(CircuitBreaker, StateNamesAreExhaustive) {
  // Every enumerator renders to a distinct, non-empty name: adding a
  // State without extending breakerStateName fails to compile (the
  // switch has no default), and this loop pins the rendered set.
  const State All[] = {State::Closed, State::Open, State::HalfOpen};
  std::vector<std::string> Seen;
  for (State St : All) {
    const char *Name = breakerStateName(St);
    ASSERT_NE(Name, nullptr);
    EXPECT_FALSE(std::string(Name).empty());
    for (const std::string &Prev : Seen)
      EXPECT_NE(Prev, Name) << "two states share a name";
    Seen.push_back(Name);
  }
}

} // namespace
