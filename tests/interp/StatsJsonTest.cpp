//===- tests/interp/StatsJsonTest.cpp --------------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The run_stats block of `flattenc --stats-json`: every counter, the
// engine tag, and the versioned trip_histogram block with its sparse
// log2 buckets.
//
//===----------------------------------------------------------------------===//

#include "interp/StatsJson.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::interp;

namespace {

TEST(StatsJson, CountersSurviveTheText) {
  RunStats S;
  S.WorkSteps = 12;
  S.Instructions = 345;
  S.WorkActiveLanes = 20;
  S.WorkTotalLanes = 24;
  S.CommAccesses = 7;
  S.Cycles = 901.5;
  S.Seconds = 0.09015;
  auto V = json::Value::parse(toJson(S, Engine::Bytecode).dump());
  ASSERT_TRUE(V.ok()) << V.error().render();
  EXPECT_EQ(V->get("work_steps")->asInt(), 12);
  EXPECT_EQ(V->get("instructions")->asInt(), 345);
  EXPECT_EQ(V->get("work_active_lanes")->asInt(), 20);
  EXPECT_EQ(V->get("work_total_lanes")->asInt(), 24);
  EXPECT_EQ(V->get("comm_accesses")->asInt(), 7);
  EXPECT_DOUBLE_EQ(V->get("cycles")->asDouble(), 901.5);
  EXPECT_DOUBLE_EQ(V->get("seconds")->asDouble(), 0.09015);
  EXPECT_DOUBLE_EQ(V->get("work_utilization")->asDouble(),
                   S.workUtilization());
  EXPECT_EQ(V->get("trip_histogram"), nullptr)
      << "no trips recorded, no histogram block";
}

TEST(StatsJson, EngineTagIsTheLastMember) {
  for (Engine E : {Engine::Tree, Engine::Bytecode, Engine::Native}) {
    json::Value V = toJson(RunStats{}, E);
    ASSERT_FALSE(V.members().empty());
    EXPECT_EQ(V.members().back().first, "engine");
    EXPECT_EQ(V.members().back().second.asString(), engineName(E));
  }
}

TEST(StatsJson, TripHistogramIsVersionedWithSparseLog2Buckets) {
  RunStats S;
  NestTripStats N;
  N.Name = "L0 do i";
  N.Depth = 0;
  N.Hist.record(0);
  N.Hist.record(3);
  N.Hist.record(3);
  N.Hist.record(500); // log2 bucket 5: [256, 512)
  S.TripNests.push_back(N);
  json::Value V = toJson(S, Engine::Bytecode);
  const json::Value *TH = V.get("trip_histogram");
  ASSERT_NE(TH, nullptr);
  EXPECT_EQ(TH->get("version")->asInt(), 1);
  EXPECT_EQ(TripHistogram::Version, 1);
  ASSERT_EQ(TH->get("nests")->size(), 1u);
  const json::Value &NV = TH->get("nests")->at(0);
  EXPECT_EQ(NV.get("name")->asString(), "L0 do i");
  EXPECT_EQ(NV.get("depth")->asInt(), 0);
  EXPECT_EQ(NV.get("samples")->asInt(), 4);
  EXPECT_EQ(NV.get("sum")->asInt(), 506);
  EXPECT_EQ(NV.get("max")->asInt(), 500);
  const json::Value *Exact = NV.get("exact");
  ASSERT_EQ(Exact->size(), static_cast<size_t>(TripHistogram::NumExact));
  EXPECT_EQ(Exact->at(0).asInt(), 1);
  EXPECT_EQ(Exact->at(3).asInt(), 2);
  // Only occupied log2 buckets are written, keyed by bucket index.
  const json::Value *Log2 = NV.get("log2");
  ASSERT_EQ(Log2->members().size(), 1u);
  EXPECT_EQ(Log2->members()[0].first, "5");
  EXPECT_EQ(Log2->members()[0].second.asInt(), 1);
  EXPECT_EQ(N.Hist.Log2[5], 1);
}

} // namespace
