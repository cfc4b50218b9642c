//===- interp/StatsJson.cpp - RunStats -> JSON -----------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/StatsJson.h"

using namespace simdflat;
using namespace simdflat::interp;

json::Value interp::toJson(const RunStats &S, Engine E) {
  json::Value V = json::Value::object();
  V.set("work_steps", S.WorkSteps);
  V.set("instructions", S.Instructions);
  V.set("work_active_lanes", S.WorkActiveLanes);
  V.set("work_total_lanes", S.WorkTotalLanes);
  V.set("comm_accesses", S.CommAccesses);
  V.set("cycles", S.Cycles);
  V.set("seconds", S.Seconds);
  V.set("work_utilization", S.workUtilization());
  // Versioned telemetry block: per-nest trip histograms, present only
  // when the run recorded any. Log2 buckets are emitted sparsely (most
  // of the 61 are empty); the version gates the bucketization scheme,
  // so a reader never mixes buckets laid out under different rules.
  if (!S.TripNests.empty()) {
    json::Value TH = json::Value::object();
    TH.set("version", static_cast<int64_t>(TripHistogram::Version));
    json::Value Nests = json::Value::array();
    for (const NestTripStats &N : S.TripNests) {
      json::Value NV = json::Value::object();
      NV.set("name", N.Name);
      NV.set("depth", N.Depth);
      NV.set("samples", N.Hist.Samples);
      NV.set("sum", N.Hist.Sum);
      NV.set("max", N.Hist.Max);
      json::Value Exact = json::Value::array();
      for (int64_t C : N.Hist.Exact)
        Exact.push(C);
      NV.set("exact", std::move(Exact));
      json::Value Log2 = json::Value::object();
      for (size_t B = 0; B < N.Hist.Log2.size(); ++B)
        if (N.Hist.Log2[B] != 0)
          Log2.set(std::to_string(B), N.Hist.Log2[B]);
      NV.set("log2", std::move(Log2));
      Nests.push(std::move(NV));
    }
    TH.set("nests", std::move(Nests));
    V.set("trip_histogram", std::move(TH));
  }
  V.set("engine", engineName(E));
  return V;
}
