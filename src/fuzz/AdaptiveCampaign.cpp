//===- fuzz/AdaptiveCampaign.cpp - Adaptive-strategy campaign --*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/AdaptiveCampaign.h"

#include "serve/Server.h"

#include <algorithm>
#include <chrono>
#include <sstream>

using namespace simdflat;
using namespace simdflat::fuzz;
using namespace simdflat::serve;

namespace {

/// The profiled program of every phase: a DOALL over K=8 rows whose
/// inner trips come from the L array. X is wide enough for the tallest
/// hot row the schedule generates.
constexpr const char *NestSource = "PROGRAM WIDE\n"
                                   "INTEGER K\n"
                                   "DISTRIBUTED INTEGER L(8)\n"
                                   "DISTRIBUTED INTEGER X(8, 64)\n"
                                   "INTEGER i\n"
                                   "INTEGER j\n"
                                   "BEGIN\n"
                                   "  DOALL i = 1, K\n"
                                   "    DO j = 1, L(i)\n"
                                   "      X(i, j) = i * j\n"
                                   "    ENDDO\n"
                                   "  ENDDO\n"
                                   "END\n";
constexpr int64_t NumRows = 8;

/// All rows run 3..6 trips: the unflattened schedule is already
/// balanced, so the model keeps it.
std::vector<int64_t> uniformTrips(uint64_t Seed) {
  return std::vector<int64_t>(NumRows, 3 + (int64_t)(Seed % 4));
}

/// One hot row of 40..55 trips against seven 1-trip rows: lanes idle
/// behind the hot one, so the balanced coalesced schedule wins.
std::vector<int64_t> skewedTrips(uint64_t Seed) {
  std::vector<int64_t> T(NumRows, 1);
  T[Seed % NumRows] = 40 + (int64_t)(Seed % 16);
  return T;
}

/// Closed form for the served X array: X(i,j) = i*j for j <= L(i), so
/// the total is sum_i i * L_i(L_i+1)/2.
int64_t expectedSum(const std::vector<int64_t> &Trips) {
  int64_t Sum = 0;
  for (int64_t I = 0; I < NumRows; ++I) {
    int64_t L = Trips[(size_t)I];
    Sum += (I + 1) * (L * (L + 1) / 2);
  }
  return Sum;
}

Request nestRequest(uint64_t Id, const std::string &Tenant,
                    const std::vector<int64_t> &Trips) {
  Request R;
  R.Id = Id;
  R.Tenant = Tenant;
  R.Source = NestSource;
  R.Ints["K"] = NumRows;
  R.IntArrays["L"] = Trips;
  R.Lanes = 4;
  R.Fuel = 200'000;
  R.WantArrays = true;
  return R;
}

struct Collector {
  AdaptiveCampaignResult &Res;
  int64_t HangTimeoutSec;

  bool get(std::future<Reply> &F, const std::string &What, Reply &Out) {
    if (F.wait_for(std::chrono::seconds(HangTimeoutSec)) !=
        std::future_status::ready) {
      Res.Failures.push_back(What + ": reply not ready after " +
                             std::to_string(HangTimeoutSec) + "s (hang)");
      return false;
    }
    Out = F.get();
    switch (Out.Out) {
    case Outcome::Served:
      ++Res.Served;
      break;
    case Outcome::Trapped:
      ++Res.Trapped;
      break;
    case Outcome::Shed:
      ++Res.Shed;
      break;
    case Outcome::CompileError:
      ++Res.CompileErrors;
      break;
    }
    return true;
  }
};

/// Served, and bit-exact: the semantic floor under every strategy flip.
void checkServedExact(const char *Phase, const Reply &Rep,
                      const std::vector<int64_t> &Trips,
                      AdaptiveCampaignResult &Res) {
  auto Fail = [&](const std::string &What) {
    std::ostringstream OS;
    OS << Phase << ": id " << Rep.Id << ": " << What
       << " [outcome: " << outcomeName(Rep.Out)
       << ", strategy: " << Rep.Tele.Strategy
       << (Rep.Error.empty() ? "" : ", " + Rep.Error) << "]";
    Res.Failures.push_back(OS.str());
  };
  if (Rep.Out != Outcome::Served) {
    Fail("valid nest request not served");
    return;
  }
  auto It = Rep.IntArrays.find("X");
  if (It == Rep.IntArrays.end()) {
    Fail("served reply missing the X result array");
    return;
  }
  int64_t Sum = 0;
  for (int64_t V : It->second)
    Sum += V;
  int64_t Want = expectedSum(Trips);
  if (Sum != Want)
    Fail("result sum " + std::to_string(Sum) +
         " != closed form " + std::to_string(Want) +
         " (a strategy flip changed semantics)");
}

void checkAccounting(const char *Phase, const Server &S,
                     AdaptiveCampaignResult &Res) {
  ServerStats St = S.stats();
  if (!St.consistent() || !St.tenantsConsistent()) {
    std::ostringstream OS;
    OS << Phase << ": accounting broken: " << St.Served << " served + "
       << St.Trapped << " trapped + " << St.Shed << " shed + "
       << St.CompileErrors << " compile-errors != " << St.Submitted
       << " submitted (or a tenant ledger diverged)";
    Res.Failures.push_back(OS.str());
  }
}

void noteStrategy(const Reply &Rep, AdaptiveCampaignResult &Res) {
  if (std::find(Res.StrategiesSeen.begin(), Res.StrategiesSeen.end(),
                Rep.Tele.Strategy) == Res.StrategiesSeen.end())
    Res.StrategiesSeen.push_back(Rep.Tele.Strategy);
}

/// Distribution drift: uniform -> skewed -> uniform. The layer must
/// decide, respecialize on the shift, flip back, and never lose
/// exactness or tag a reply "static".
void runDriftPhase(const AdaptiveCampaignOptions &Opts,
                   AdaptiveCampaignResult &Res, Collector &Col) {
  ServerOptions SO;
  SO.Workers = 1; // deterministic profile accumulation order
  SO.QueueCapacity = 128;
  SO.Adaptive = true;
  SO.AdaptiveMinSamples = 4;
  SO.AdaptiveProbeEvery = 2;
  Server S(SO);

  uint64_t Id = 0;
  auto RunRegime = [&](const char *Name, bool Skewed) {
    for (int I = 0; I < Opts.Count; ++I) {
      uint64_t Seed = Opts.BaseSeed + (uint64_t)I;
      std::vector<int64_t> Trips =
          Skewed ? skewedTrips(Seed) : uniformTrips(Seed);
      auto F = S.submit(nestRequest(++Id, "drift", Trips));
      ++Res.Submitted;
      Reply Rep;
      // Sequential: each reply lands before the next request routes, so
      // the probe cadence and decision points are reproducible.
      if (!Col.get(F, std::string("drift ") + Name, Rep))
        continue;
      checkServedExact("drift", Rep, Trips, Res);
      noteStrategy(Rep, Res);
      if (Rep.Tele.Strategy == "static")
        Res.Failures.push_back(
            "drift: adaptive reply " + std::to_string(Rep.Id) +
            " tagged 'static' (the layer went dark)");
    }
  };
  RunRegime("uniform", false);
  RunRegime("skewed", true);
  RunRegime("uniform-again", false);

  ServerStats St = S.stats();
  Res.Decisions += St.AdaptiveDecisions;
  Res.Respecializations += St.Respecializations;
  if (St.AdaptiveDecisions < 2)
    Res.Failures.push_back(
        "drift: only " + std::to_string(St.AdaptiveDecisions) +
        " decision(s) across three regimes; the shift went unnoticed");
  if (St.Respecializations < 1)
    Res.Failures.push_back(
        "drift: distribution shift triggered no respecialization");
  if (Res.StrategiesSeen.size() < 2)
    Res.Failures.push_back(
        "drift: every reply used the same strategy; the model never "
        "changed its mind");
  checkAccounting("drift", S, Res);
}

/// The drift schedule under cache chaos: mid-flight eviction plus an
/// inflated byte budget too small for every variant at once. Outcomes
/// and exactness must hold; only cache counters may move.
void runChaosPhase(const AdaptiveCampaignOptions &Opts,
                   AdaptiveCampaignResult &Res, Collector &Col) {
  // The whole burst is submitted before any reply is collected, so the
  // queue holds all of it: a shed here would be the campaign's own
  // sizing, not the server's.
  const int Burst = 3 * Opts.Count;
  ServerOptions SO;
  SO.Workers = 2;
  SO.QueueCapacity = (size_t)Burst;
  SO.Adaptive = true;
  SO.AdaptiveMinSamples = 4;
  SO.AdaptiveProbeEvery = 2;
  SO.CacheCapacity = 2;
  SO.CacheMaxBytes = 3000;
  SO.Faults.InflateCostBytes = 1500;
  SO.Faults.EvictMidFlight = true;
  Server S(SO);

  std::vector<std::pair<std::vector<int64_t>, std::future<Reply>>> Pending;
  for (int I = 0; I < Burst; ++I) {
    uint64_t Seed = Opts.BaseSeed + (uint64_t)I;
    std::vector<int64_t> Trips =
        I % 2 ? skewedTrips(Seed) : uniformTrips(Seed);
    auto F = S.submit(
        nestRequest((uint64_t)I, I % 2 ? "chaosA" : "chaosB", Trips));
    ++Res.Submitted;
    Pending.emplace_back(std::move(Trips), std::move(F));
  }
  for (auto &[Trips, F] : Pending) {
    Reply Rep;
    if (Col.get(F, "chaos", Rep))
      checkServedExact("chaos", Rep, Trips, Res);
  }

  ServerStats St = S.stats();
  Res.Decisions += St.AdaptiveDecisions;
  Res.Respecializations += St.Respecializations;
  if (St.AdaptiveDecisions < 1)
    Res.Failures.push_back(
        "chaos: eviction pressure starved the profile; no decision "
        "ever fired");
  if (St.CacheBytesResident > (int64_t)SO.CacheMaxBytes)
    Res.Failures.push_back(
        "chaos: " + std::to_string(St.CacheBytesResident) +
        " bytes resident exceeds the " +
        std::to_string(SO.CacheMaxBytes) + "-byte budget");
  if (St.CacheEvictions + St.CacheByteEvictions < 1)
    Res.Failures.push_back(
        "chaos: the fault plan evicted nothing (probe dead?)");
  checkAccounting("chaos", S, Res);
}

/// Poisoned primary: every primary compile fails, so everything serves
/// through the fallback. Fallback replies must be tagged "static" at
/// epoch 0, stay exact, and feed the profile nothing - a spell of
/// fallback serves must not register as drift.
void runFallbackPhase(const AdaptiveCampaignOptions &Opts,
                      AdaptiveCampaignResult &Res, Collector &Col) {
  ServerOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 64;
  SO.Adaptive = true;
  SO.AdaptiveMinSamples = 2;
  SO.Faults.FailPrimary = true;
  Server S(SO);

  const int N = 8;
  for (int I = 0; I < N; ++I) {
    std::vector<int64_t> Trips = uniformTrips(Opts.BaseSeed + (uint64_t)I);
    auto F = S.submit(nestRequest((uint64_t)I, "poisoned", Trips));
    ++Res.Submitted;
    Reply Rep;
    if (!Col.get(F, "fallback", Rep))
      continue;
    checkServedExact("fallback", Rep, Trips, Res);
    if (Rep.Out != Outcome::Served)
      continue;
    if (!Rep.Tele.Fallback)
      Res.Failures.push_back(
          "fallback: request " + std::to_string(Rep.Id) +
          " claims the primary compiled despite total injection");
    if (Rep.Tele.Strategy != "static" || Rep.Tele.StrategyEpoch != 0)
      Res.Failures.push_back(
          "fallback: request " + std::to_string(Rep.Id) +
          " tagged " + Rep.Tele.Strategy + "/" +
          std::to_string(Rep.Tele.StrategyEpoch) +
          "; fallback serves the static build at epoch 0");
  }

  ServerStats St = S.stats();
  if (St.AdaptiveDecisions != 0)
    Res.Failures.push_back(
        "fallback: " + std::to_string(St.AdaptiveDecisions) +
        " decision(s) from fallback-only traffic; the fallback path "
        "must not feed the profile");
  checkAccounting("fallback", S, Res);
}

} // namespace

AdaptiveCampaignResult
fuzz::runAdaptiveCampaign(const AdaptiveCampaignOptions &Opts) {
  AdaptiveCampaignResult Res;
  Collector Col{Res, Opts.HangTimeoutSec};
  runDriftPhase(Opts, Res, Col);
  runChaosPhase(Opts, Res, Col);
  runFallbackPhase(Opts, Res, Col);
  if (Res.Served + Res.Trapped + Res.Shed + Res.CompileErrors !=
      Res.Submitted)
    Res.Failures.push_back(
        "campaign: replies collected (" +
        std::to_string(Res.Served + Res.Trapped + Res.Shed +
                       Res.CompileErrors) +
        ") != requests submitted (" + std::to_string(Res.Submitted) +
        ")");
  return Res;
}
