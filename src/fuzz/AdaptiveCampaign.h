//===- fuzz/AdaptiveCampaign.h - Adaptive-strategy fault campaign -*- C++ -*-//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Campaign against the profile-guided adaptive serving layer: stream
/// deterministic traffic whose trip distribution shifts mid-stream at
/// an Adaptive serve::Server and assert the adaptivity contract end to
/// end:
///
///  * semantics first: every served reply's result array is bit-exact
///    against the closed-form answer, across every strategy the layer
///    flips through (probe, decided, respecialized);
///  * the feedback loop works: shifting the distribution re-decides the
///    strategy (Respecializations advances) and a stable distribution
///    does not thrash;
///  * replies are honestly tagged: adaptive traffic never reports the
///    "static" strategy, fallback traffic reports nothing else;
///  * chaos does not break it: mid-flight eviction, cache byte
///    pressure, and a poisoned primary pipeline (cached failure +
///    fallback) leave the conservation law served + trapped + shed +
///    compile-errors == submitted intact, globally and per tenant, and
///    the byte budget is never exceeded;
///  * the fallback path never feeds the profile: a spell of fallback
///    serves records zero decisions.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_FUZZ_ADAPTIVECAMPAIGN_H
#define SIMDFLAT_FUZZ_ADAPTIVECAMPAIGN_H

#include <cstdint>
#include <string>
#include <vector>

namespace simdflat {
namespace fuzz {

struct AdaptiveCampaignOptions {
  /// Seeds the deterministic trip-shape schedule (uniform value, hot-row
  /// position and height vary with it).
  uint64_t BaseSeed = 1;
  /// Requests per distribution regime in the drift phase.
  int Count = 24;
  /// Reply wait bound; exceeding it is reported as a hang.
  int64_t HangTimeoutSec = 120;
};

struct AdaptiveCampaignResult {
  int64_t Submitted = 0;
  int64_t Served = 0;
  int64_t Trapped = 0;
  int64_t Shed = 0;
  int64_t CompileErrors = 0;
  /// Strategy decisions and respecializations observed across phases.
  int64_t Decisions = 0;
  int64_t Respecializations = 0;
  /// Distinct strategy tags seen on served replies (drift phase).
  std::vector<std::string> StrategiesSeen;
  /// One entry per violated expectation.
  std::vector<std::string> Failures;

  bool ok() const { return Failures.empty(); }
};

/// Runs all phases: distribution drift (uniform -> skewed -> uniform),
/// adaptivity under cache chaos (mid-flight eviction + byte pressure),
/// and the poisoned-primary fallback spell.
AdaptiveCampaignResult
runAdaptiveCampaign(const AdaptiveCampaignOptions &Opts = {});

} // namespace fuzz
} // namespace simdflat

#endif // SIMDFLAT_FUZZ_ADAPTIVECAMPAIGN_H
