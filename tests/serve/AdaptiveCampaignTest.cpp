//===- tests/serve/AdaptiveCampaignTest.cpp --------------------*- C++ -*-===//
//
// Runs the adaptive-strategy fault campaign (ISSUE acceptance: drifting
// trip distributions mid-stream, strategy flips under cache pressure
// and mid-flight eviction, poisoned-primary fallback) under ctest and
// asserts the adaptivity contract: bit-exact results across every
// strategy flip, real respecializations on drift, honest strategy tags,
// and conserved accounting.
//
//===----------------------------------------------------------------------===//

#include "fuzz/AdaptiveCampaign.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace simdflat;
using namespace simdflat::fuzz;

namespace {

TEST(AdaptiveCampaign, AllPhasesHoldTheAdaptivityContract) {
  AdaptiveCampaignOptions Opts;
  Opts.BaseSeed = 1;
  Opts.Count = 12;
  AdaptiveCampaignResult R = runAdaptiveCampaign(Opts);
  for (const std::string &F : R.Failures)
    ADD_FAILURE() << F;
  EXPECT_TRUE(R.ok());
  EXPECT_GT(R.Submitted, 0);
  // Zero-loss accounting across every phase.
  EXPECT_EQ(R.Served + R.Trapped + R.Shed + R.CompileErrors, R.Submitted);
  // The feedback loop actually moved: decisions fired and the
  // distribution shift forced at least one strategy change.
  EXPECT_GE(R.Decisions, 2);
  EXPECT_GE(R.Respecializations, 1);
  // Both schedules the drift regimes favor showed up on the wire.
  EXPECT_NE(std::find(R.StrategiesSeen.begin(), R.StrategiesSeen.end(),
                      "unflattened"),
            R.StrategiesSeen.end());
  EXPECT_NE(std::find(R.StrategiesSeen.begin(), R.StrategiesSeen.end(),
                      "coalesced"),
            R.StrategiesSeen.end());
}

TEST(AdaptiveCampaign, ChaosBurstFitsItsQueue) {
  // The chaos phase submits 3 x Count requests before collecting any;
  // its queue must hold the burst, or sheds read as campaign failures.
  AdaptiveCampaignOptions Opts;
  Opts.BaseSeed = 1;
  Opts.Count = 50;
  AdaptiveCampaignResult R = runAdaptiveCampaign(Opts);
  for (const std::string &F : R.Failures)
    ADD_FAILURE() << F;
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.Shed, 0);
}

TEST(AdaptiveCampaign, DeterministicAcrossReruns) {
  // Same seed, same trip schedule: a CI failure reproduces locally.
  // The drift phase is single-worker and sequential, so even the
  // decision/respecialization counters must match exactly.
  AdaptiveCampaignOptions Opts;
  Opts.Count = 8;
  AdaptiveCampaignResult A = runAdaptiveCampaign(Opts);
  AdaptiveCampaignResult B = runAdaptiveCampaign(Opts);
  EXPECT_TRUE(A.ok());
  EXPECT_TRUE(B.ok());
  EXPECT_EQ(A.Submitted, B.Submitted);
  EXPECT_EQ(A.StrategiesSeen, B.StrategiesSeen);
}

} // namespace
