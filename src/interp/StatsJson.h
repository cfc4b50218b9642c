//===- interp/StatsJson.h - RunStats -> JSON -------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON serialization of the interpreter counters, the `run_stats`
/// block of `flattenc --stats-json`.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_INTERP_STATSJSON_H
#define SIMDFLAT_INTERP_STATSJSON_H

#include "interp/RunStats.h"
#include "support/Json.h"

namespace simdflat {
namespace interp {

/// RunStats as a flat JSON object: the counters plus the derived
/// utilization (so consumers need not recompute it), the versioned
/// trip_histogram block when the run recorded trips, and an "engine"
/// member holding engineName(E), so downstream tools can refuse
/// cross-engine comparisons.
json::Value toJson(const RunStats &S, Engine E);

} // namespace interp
} // namespace simdflat

#endif // SIMDFLAT_INTERP_STATSJSON_H
