//===- fuzz/ServeCampaign.h - Serving-core fault campaign ------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-layer counterpart of the executor fault campaign: hammer
/// an in-process serve::Server with a deterministic mix of valid,
/// hostile and over-budget requests - under injected compile failures,
/// mid-flight cache eviction, worker stalls, and queue saturation at
/// twice the admission capacity - and assert the robustness contract:
///
///  * zero crashes or hangs: every submitted request resolves to a
///    structured reply within the campaign's generous timeout;
///  * exact accounting: served + trapped + shed + compile-errors ==
///    submitted, phase by phase;
///  * each request category lands in its allowed outcome set (a valid
///    program is never a CompileError, a hostile one never Served, an
///    over-budget one always Shed with no retry hint, ...);
///  * degraded modes work: an always-failing primary pipeline still
///    serves every request through the fallback, with both verdicts
///    compiled once and cached, and eviction under execution never
///    invalidates a running program;
///  * tenancy holds under chaos: a tenant offering 10x load sheds only
///    its own overage while the victim tenant stays inside its quota
///    envelope (frozen virtual-time clock, so the skew phase is exactly
///    reproducible); quota exhaustion prices refusals correctly
///    (refill-time hints, permanent refusals with no hint); per-tenant
///    accounting conserves - admitted = served + trapped + shed +
///    compile-errors for every tenant in every phase;
///  * lifecycle holds under chaos: drain-under-load resolves every
///    already-admitted request (finished or shed with the structured
///    draining status) and cache byte-pressure (inflated program costs
///    against a tight byte budget, plus mid-flight eviction) never
///    changes outcomes, only cache counters.
///
/// Request programs come from the differential fuzzer's generator, so
/// the campaign sweeps the same program family the oracle does.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_FUZZ_SERVECAMPAIGN_H
#define SIMDFLAT_FUZZ_SERVECAMPAIGN_H

#include <cstdint>
#include <string>
#include <vector>

namespace simdflat {
namespace fuzz {

struct ServeCampaignOptions {
  uint64_t BaseSeed = 1;
  /// Requests in the mixed-traffic phase (categories cycle with the
  /// seed).
  int Count = 48;
  /// Reply wait bound; exceeding it is reported as a hang, not waited
  /// out forever.
  int64_t HangTimeoutSec = 120;
};

struct ServeCampaignResult {
  /// Requests submitted across all phases.
  int64_t Submitted = 0;
  int64_t Served = 0;
  int64_t Trapped = 0;
  int64_t Shed = 0;
  int64_t CompileErrors = 0;
  /// One entry per violated expectation.
  std::vector<std::string> Failures;

  bool ok() const { return Failures.empty(); }
};

/// Runs all phases: mixed traffic, queue saturation (2x capacity),
/// always-failing primary compile (cached verdict + fallback), eviction
/// under execution, tenant skew (10x hot tenant vs quota-protected victim),
/// quota exhaustion (rate/fuel/in-flight refusal pricing), drain under
/// load, and cache byte-pressure.
ServeCampaignResult runServeCampaign(const ServeCampaignOptions &Opts = {});

} // namespace fuzz
} // namespace simdflat

#endif // SIMDFLAT_FUZZ_SERVECAMPAIGN_H
