//===- serve/TenantRegistry.cpp -------------------------------*- C++ -*-===//

#include "serve/TenantRegistry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

using namespace simdflat;
using namespace simdflat::serve;

namespace {

int64_t steadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Milliseconds until \p Deficit tokens exist at \p RatePerSec, rounded
/// up and floored at 1 so shed replies never claim "retry now" while
/// refusing.
int64_t refillMillis(double Deficit, double RatePerSec) {
  if (RatePerSec <= 0)
    return 0;
  double Ms = std::ceil(Deficit / RatePerSec * 1000.0);
  return std::max<int64_t>(1, (int64_t)Ms);
}

/// Fuel bucket capacity: one second of refill, whole tokens.
double fuelCap(const TenantQuota &Q) {
  return (double)(int64_t)Q.FuelPerSec;
}

} // namespace

TenantRegistry::TenantRegistry(TenantQuota Default, ClockFn Clock)
    : Default(Default), Clock(std::move(Clock)) {}

void TenantRegistry::setQuota(const std::string &T, TenantQuota Q) {
  std::lock_guard<std::mutex> Lock(M);
  Entry &E = Map[T];
  E.Q = Q;
  E.HasQuota = true;
  E.Primed = false; // re-prime to the new burst on the next admit
}

TenantQuota TenantRegistry::quotaFor(const std::string &T) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Map.find(T);
  if (It != Map.end() && It->second.HasQuota)
    return It->second.Q;
  return Default;
}

TenantRegistry::Entry &TenantRegistry::entryLocked(const std::string &T) {
  Entry &E = Map[T];
  if (!E.HasQuota && !E.Primed)
    E.Q = Default;
  return E;
}

void TenantRegistry::refillLocked(Entry &E, int64_t NowNanos) {
  if (!E.Primed) {
    // First sighting (or quota change): full buckets, clock anchored.
    E.ReqTokens = (double)std::max<int64_t>(E.Q.Burst, 1);
    E.FuelTokens = fuelCap(E.Q);
    E.LastRefillNanos = NowNanos;
    E.Primed = true;
    return;
  }
  int64_t Dt = NowNanos - E.LastRefillNanos;
  if (Dt <= 0)
    return; // frozen or non-advancing clock: no refill, fully
            // deterministic
  double Sec = (double)Dt / 1e9;
  double ReqCap = (double)std::max<int64_t>(E.Q.Burst, 1);
  E.ReqTokens = std::min(ReqCap, E.ReqTokens + Sec * E.Q.RatePerSec);
  E.FuelTokens =
      std::min(fuelCap(E.Q), E.FuelTokens + Sec * E.Q.FuelPerSec);
  E.LastRefillNanos = NowNanos;
}

TenantRegistry::Decision TenantRegistry::tryAdmit(const std::string &T,
                                                  int64_t Fuel) {
  std::lock_guard<std::mutex> Lock(M);
  Entry &E = entryLocked(T);
  refillLocked(E, Clock ? Clock() : steadyNanos());

  Decision D;
  // Check everything before charging anything, so a refusal is free.
  if (E.Q.MaxInFlight > 0 && E.InFlight >= E.Q.MaxInFlight) {
    D.Admit = false;
    std::ostringstream OS;
    OS << "tenant '" << T << "' at its in-flight quota (" << E.Q.MaxInFlight
       << ")";
    D.Reason = OS.str();
    // No refill clock prices a slot; the caller applies its floor.
    return D;
  }
  if (E.Q.RatePerSec > 0 && E.ReqTokens < 1.0) {
    D.Admit = false;
    std::ostringstream OS;
    OS << "tenant '" << T << "' request-rate quota exhausted ("
       << E.Q.RatePerSec << "/s, burst " << E.Q.Burst << ")";
    D.Reason = OS.str();
    D.RetryAfterMs = refillMillis(1.0 - E.ReqTokens, E.Q.RatePerSec);
    return D;
  }
  if (E.Q.FuelPerSec > 0) {
    if (Fuel <= 0) {
      D.Admit = false;
      std::ostringstream OS;
      OS << "tenant '" << T
         << "' is fuel-metered: requests must declare fuel > 0";
      D.Reason = OS.str();
      D.Permanent = true;
      return D;
    }
    double FuelCap = fuelCap(E.Q);
    if ((double)Fuel > FuelCap) {
      D.Admit = false;
      std::ostringstream OS;
      OS << "fuel " << Fuel << " exceeds tenant '" << T
         << "' fuel burst capacity " << (int64_t)FuelCap;
      D.Reason = OS.str();
      D.Permanent = true; // no amount of waiting fills the bucket enough
      return D;
    }
    if (E.FuelTokens < (double)Fuel) {
      D.Admit = false;
      std::ostringstream OS;
      OS << "tenant '" << T << "' fuel quota exhausted (" << E.Q.FuelPerSec
         << "/s)";
      D.Reason = OS.str();
      D.RetryAfterMs =
          refillMillis((double)Fuel - E.FuelTokens, E.Q.FuelPerSec);
      return D;
    }
  }

  // Admitted: charge the buckets and take the in-flight slot.
  if (E.Q.RatePerSec > 0)
    E.ReqTokens -= 1.0;
  if (E.Q.FuelPerSec > 0)
    E.FuelTokens -= (double)Fuel;
  ++E.InFlight;
  return D;
}

void TenantRegistry::release(const std::string &T) {
  std::lock_guard<std::mutex> Lock(M);
  Entry &E = entryLocked(T);
  if (E.InFlight > 0)
    --E.InFlight;
}

void TenantRegistry::countSubmitted(const std::string &T) {
  std::lock_guard<std::mutex> Lock(M);
  ++entryLocked(T).Stats.Submitted;
}

void TenantRegistry::countAdmitted(const std::string &T) {
  std::lock_guard<std::mutex> Lock(M);
  ++entryLocked(T).Stats.Admitted;
}

void TenantRegistry::countOutcome(const std::string &T, Outcome O,
                                  bool AfterAdmission) {
  std::lock_guard<std::mutex> Lock(M);
  TenantStats &S = entryLocked(T).Stats;
  switch (O) {
  case Outcome::Served:
    ++S.Served;
    break;
  case Outcome::Trapped:
    ++S.Trapped;
    break;
  case Outcome::Shed:
    ++(AfterAdmission ? S.ShedInService : S.ShedAtAdmission);
    break;
  case Outcome::CompileError:
    ++S.CompileErrors;
    break;
  }
}

int64_t TenantRegistry::inFlight(const std::string &T) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Map.find(T);
  return It == Map.end() ? 0 : It->second.InFlight;
}

TenantStats TenantRegistry::statsFor(const std::string &T) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Map.find(T);
  return It == Map.end() ? TenantStats{} : It->second.Stats;
}

std::map<std::string, TenantStats> TenantRegistry::statsSnapshot() const {
  std::lock_guard<std::mutex> Lock(M);
  std::map<std::string, TenantStats> Out;
  for (const auto &[Name, E] : Map)
    if (E.Stats.Submitted > 0)
      Out.emplace(Name, E.Stats);
  return Out;
}

bool TenantRegistry::consistent() const {
  std::lock_guard<std::mutex> Lock(M);
  for (const auto &[Name, E] : Map) {
    (void)Name;
    if (!E.Stats.consistent())
      return false;
  }
  return true;
}
