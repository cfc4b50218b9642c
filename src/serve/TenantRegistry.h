//===- serve/TenantRegistry.h - Per-tenant quotas and accounting -*- C++-*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-tenant admission control and accounting for the serving core.
/// Every request carries a tenant name (defaulting to "default"), and
/// the registry holds one quota record per tenant:
///
///  * a request-rate token bucket (RatePerSec refill, Burst capacity),
///  * an in-flight cap (admitted-but-unresolved requests),
///  * a fuel-rate token bucket holding one second of refill, so a
///    tenant's total simulated work is metered, not just its request
///    count,
///  * a queue-share cap consumed by the Server.
///
/// Buckets are driven by an injectable nanosecond clock. Tests and the
/// chaos campaign freeze it (a constant clock never refills, so a
/// tenant gets exactly its burst and then deterministic refusals) or
/// step it manually; production uses steady_clock.
///
/// The registry also owns per-tenant outcome counters with a
/// conservation predicate mirroring ServerStats::consistent() but split
/// at the admission boundary:
///
///   Submitted == Served + Trapped + CompileErrors
///                + ShedAtAdmission + ShedInService
///   Admitted  == Served + Trapped + CompileErrors + ShedInService
///
/// i.e. admitted = served + trapped + shed(+compile-error) per tenant -
/// the invariant every chaos phase asserts, including drain-under-load.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SERVE_TENANTREGISTRY_H
#define SIMDFLAT_SERVE_TENANTREGISTRY_H

#include "serve/Serve.h"

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace simdflat {
namespace serve {

/// Monotonic virtual-time source in nanoseconds. Injectable so quota
/// arithmetic is deterministic under test.
using ClockFn = std::function<int64_t()>;

// TenantQuota, TenantStats and defaultTenant() live in Serve.h - they
// are serving vocabulary shared with ServerStats and the wire format.

class TenantRegistry {
public:
  /// One admission verdict. RetryAfterMs is the refill-time hint for
  /// refusals the clock can price (rate/fuel buckets); 0 means the
  /// registry has no estimate (the caller applies its floor) or that
  /// retrying is pointless (Permanent set).
  struct Decision {
    bool Admit = true;
    /// Human-readable refusal reason (empty when admitted).
    std::string Reason;
    /// Milliseconds until the refusing bucket can afford the request.
    int64_t RetryAfterMs = 0;
    /// The request can never be admitted under this quota (e.g. fuel
    /// demand above the bucket capacity): retrying is pointless.
    bool Permanent = false;
  };

  /// \p Default applies to every tenant without an override; a null
  /// \p Clock uses steady_clock.
  explicit TenantRegistry(TenantQuota Default = {}, ClockFn Clock = {});

  /// Installs (or replaces) \p T's quota. Existing bucket levels reset
  /// to the new burst.
  void setQuota(const std::string &T, TenantQuota Q);
  /// \p T's effective quota (the default when no override exists).
  TenantQuota quotaFor(const std::string &T) const;

  /// Charges \p T's buckets and in-flight slot for one request wanting
  /// \p Fuel instructions. All checks pass or nothing is charged.
  Decision tryAdmit(const std::string &T, int64_t Fuel);
  /// Returns the in-flight slot taken by tryAdmit (call once per
  /// admitted request when its reply resolves).
  void release(const std::string &T);

  /// \name Accounting (the Server calls these as it counts globally).
  /// @{
  void countSubmitted(const std::string &T);
  void countAdmitted(const std::string &T);
  /// \p AfterAdmission distinguishes ShedInService from ShedAtAdmission
  /// for Outcome::Shed; other outcomes always follow admission.
  void countOutcome(const std::string &T, Outcome O, bool AfterAdmission);
  /// @}

  /// Admitted-but-unresolved requests for \p T right now.
  int64_t inFlight(const std::string &T) const;
  TenantStats statsFor(const std::string &T) const;
  /// Snapshot of every tenant seen so far.
  std::map<std::string, TenantStats> statsSnapshot() const;
  /// Every tenant's conservation laws hold (true whenever no request is
  /// in flight).
  bool consistent() const;

private:
  struct Entry {
    TenantQuota Q;
    bool HasQuota = false; ///< explicit override vs default copy
    double ReqTokens = 0;
    double FuelTokens = 0;
    int64_t LastRefillNanos = 0;
    bool Primed = false; ///< buckets initialized to full burst
    int64_t InFlight = 0;
    TenantStats Stats;
  };

  Entry &entryLocked(const std::string &T);
  void refillLocked(Entry &E, int64_t NowNanos);

  TenantQuota Default;
  ClockFn Clock;
  mutable std::mutex M;
  std::map<std::string, Entry> Map;
};

} // namespace serve
} // namespace simdflat

#endif // SIMDFLAT_SERVE_TENANTREGISTRY_H
