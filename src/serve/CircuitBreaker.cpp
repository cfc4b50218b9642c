//===- serve/CircuitBreaker.cpp -------------------------------*- C++ -*-===//

#include "serve/CircuitBreaker.h"

#include <chrono>

using namespace simdflat;
using namespace simdflat::serve;

int64_t CircuitBreaker::nowMicros() const {
  if (O.NowMicros)
    return O.NowMicros();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CircuitBreaker::State CircuitBreaker::admit(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Map.find(Key);
  if (It == Map.end())
    return State::Closed;
  Entry &E = It->second;
  switch (E.St) {
  case State::Closed:
    return State::Closed;
  case State::Open: {
    // The cooldown re-probe fires even with open budget remaining, so
    // sparse traffic is not quarantined forever.
    bool CooledDown = O.CooldownMicros > 0 &&
                      nowMicros() - E.OpenedAtMicros >= O.CooldownMicros;
    if (E.Budget > 0 && !CooledDown) {
      --E.Budget;
      return State::Open;
    }
    E.St = State::HalfOpen;
    ++S.Probes;
    return State::HalfOpen;
  }
  case State::HalfOpen:
    // A probe is already in flight; everyone else keeps the fallback.
    return State::Open;
  }
  return State::Closed;
}

void CircuitBreaker::recordSuccess(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(M);
  Map.erase(Key);
}

void CircuitBreaker::recordFailure(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(M);
  Entry &E = Map[Key];
  if (E.St == State::HalfOpen) {
    // Failed probe: back to quarantine with a fresh budget. Counts as
    // an open so the stats reflect every transition into Open.
    E.St = State::Open;
    E.Budget = O.OpenBudget;
    E.OpenedAtMicros = nowMicros();
    ++S.Opens;
    return;
  }
  if (E.St == State::Open)
    return; // fallback-path failures do not re-count
  if (++E.Consecutive >= O.FailureThreshold) {
    E.St = State::Open;
    E.Budget = O.OpenBudget;
    E.OpenedAtMicros = nowMicros();
    ++S.Opens;
  }
}

CircuitBreaker::State CircuitBreaker::peek(uint64_t Key) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Map.find(Key);
  return It == Map.end() ? State::Closed : It->second.St;
}

CircuitBreaker::Stats CircuitBreaker::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  Stats Out = S;
  Out.Tracked = static_cast<int64_t>(Map.size());
  return Out;
}

const char *serve::breakerStateName(CircuitBreaker::State St) {
  switch (St) {
  case CircuitBreaker::State::Closed:
    return "closed";
  case CircuitBreaker::State::Open:
    return "open";
  case CircuitBreaker::State::HalfOpen:
    return "half-open";
  }
  return "closed";
}
