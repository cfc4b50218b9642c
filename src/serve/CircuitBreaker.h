//===- serve/CircuitBreaker.h - Per-program-hash quarantine ----*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, count-based circuit breaker per canonical program
/// hash. A program whose primary (flattened) pipeline repeatedly fails
/// is quarantined: while the breaker is open the server skips the
/// primary compile entirely and serves the unflattened fallback, so one
/// pathological program cannot burn compile retries on every request.
///
/// The state machine is counter-driven by default so tests and the
/// fault campaign replay identically:
///
///   Closed --(FailureThreshold consecutive failures)--> Open
///   Open   --(OpenBudget fallback serves)-------------> HalfOpen probe
///   probe success -> Closed, probe failure -> Open (budget refilled)
///
/// A breaker serving sparse traffic would stay open forever on counts
/// alone, so CooldownMicros adds a time-based re-probe: an open breaker
/// also converts to a half-open probe once the cooldown has elapsed
/// since it (re)opened, even with open budget remaining. The clock is
/// injectable, so the time path is as deterministic under test as the
/// count path.
///
/// While a half-open probe is in flight, other requests for the same
/// hash keep taking the fallback - exactly one request risks the
/// primary path per budget (or cooldown) cycle.
///
/// Only hashes with a failure on record are tracked: a Closed entry
/// with no failures behaves exactly like a missing one, so a success
/// drops the entry and memory stays bounded by the failing programs,
/// not by every program ever served.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SERVE_CIRCUITBREAKER_H
#define SIMDFLAT_SERVE_CIRCUITBREAKER_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>

namespace simdflat {
namespace serve {

class CircuitBreaker {
public:
  enum class State { Closed, Open, HalfOpen };

  struct Options {
    /// Consecutive primary-compile failures that open the breaker.
    int FailureThreshold = 3;
    /// Fallback serves while open before the next half-open probe.
    int OpenBudget = 4;
    /// Re-probe an open breaker this long after it (re)opened even if
    /// the open budget has not been spent (0 = count-only, the legacy
    /// behaviour).
    int64_t CooldownMicros = 0;
    /// Microsecond clock for the cooldown; null uses steady_clock.
    /// Tests inject a manual clock for deterministic time-based
    /// re-probes.
    std::function<int64_t()> NowMicros;
  };

  struct Stats {
    int64_t Opens = 0;
    int64_t Probes = 0;
    /// Hashes currently tracked (those with a failure since their last
    /// success).
    int64_t Tracked = 0;
  };

  CircuitBreaker() = default;
  explicit CircuitBreaker(Options O) : O(O) {}

  /// Routing decision for one request of \p Key, with side effects:
  /// Closed/HalfOpen mean "try the primary path" (HalfOpen marks this
  /// request as the probe), Open means "serve the fallback" and
  /// consumes one unit of the open budget.
  State admit(uint64_t Key);

  /// The primary path compiled (report for Closed admits and HalfOpen
  /// probes alike): close the breaker and forget \p Key.
  void recordSuccess(uint64_t Key);

  /// The primary path failed after retries. Closed: count toward the
  /// threshold. HalfOpen probe: reopen with a fresh budget.
  void recordFailure(uint64_t Key);

  /// Current state without side effects (Open with exhausted budget
  /// still reads Open until the next admit converts it).
  State peek(uint64_t Key) const;

  Stats stats() const;

private:
  struct Entry {
    State St = State::Closed;
    int Consecutive = 0;
    int Budget = 0;
    /// When the breaker last transitioned into Open (cooldown anchor).
    int64_t OpenedAtMicros = 0;
  };

  int64_t nowMicros() const;

  Options O;
  mutable std::mutex M;
  std::unordered_map<uint64_t, Entry> Map;
  Stats S;
};

const char *breakerStateName(CircuitBreaker::State St);

} // namespace serve
} // namespace simdflat

#endif // SIMDFLAT_SERVE_CIRCUITBREAKER_H
