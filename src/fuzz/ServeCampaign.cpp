//===- fuzz/ServeCampaign.cpp - Serving-core fault campaign ----*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/ServeCampaign.h"

#include "fuzz/Generator.h"
#include "interp/Trap.h"
#include "ir/Printer.h"
#include "serve/Server.h"

#include <chrono>
#include <sstream>

using namespace simdflat;
using namespace simdflat::fuzz;
using namespace simdflat::serve;

namespace {

/// The request categories of the mixed-traffic phase, cycled by seed.
enum class Category {
  GeneratedValid,  ///< generator program; Served (or extern-trap / shed)
  RepeatedValid,   ///< one fixed program, repeated: drives cache hits
  HostileSource,   ///< not Fortran; always CompileError
  FuelStarved,     ///< valid program, starved budget; FuelExhausted trap
  OverBudget,      ///< fuel beyond the server cap; shed at admission
  TightDeadline,   ///< long program, 1ms budget; DeadlineExpired or shed
};
constexpr int NumCategories = 6;

const char *categoryName(Category C) {
  switch (C) {
  case Category::GeneratedValid:
    return "generated-valid";
  case Category::RepeatedValid:
    return "repeated-valid";
  case Category::HostileSource:
    return "hostile-source";
  case Category::FuelStarved:
    return "fuel-starved";
  case Category::OverBudget:
    return "over-budget";
  case Category::TightDeadline:
    return "tight-deadline";
  }
  return "generated-valid";
}

constexpr const char *RepeatedSource = "PROGRAM REPEAT\n"
                                       "INTEGER a\n"
                                       "INTEGER b\n"
                                       "BEGIN\n"
                                       "  b = a * 3 + 1\n"
                                       "END\n";

constexpr const char *LongRunningSource = "PROGRAM SPIN\n"
                                          "INTEGER i\n"
                                          "INTEGER s\n"
                                          "BEGIN\n"
                                          "  s = 0\n"
                                          "  DO i = 1, 50000000\n"
                                          "    s = s + i\n"
                                          "  ENDDO\n"
                                          "END\n";

/// Builds the mixed-phase request for \p Seed. \p MaxFuel is the
/// server's admission cap (the over-budget category must exceed it).
Request makeRequest(uint64_t Seed, Category Cat, int64_t MaxFuel) {
  Request R;
  R.Id = Seed;
  R.Lanes = 1 + (int64_t)(Seed % 4);
  R.Fuel = MaxFuel;
  switch (Cat) {
  case Category::GeneratedValid: {
    GeneratorOptions GO;
    GO.AllowTrappyDiv = false;
    GO.AllowTrappyBounds = false;
    GO.AllowDegenerateTrips = false;
    GO.ForceMinOneTrips = true;
    FuzzCase C = generateCase(Seed, GO);
    R.Source = ir::printProgram(C.Prog);
    R.Ints = C.Ints;
    R.IntArrays = C.IntArrays;
    R.RealArrays = C.RealArrays;
    R.MinOne = C.MinOne;
    R.Lanes = 4;
    break;
  }
  case Category::RepeatedValid:
    R.Source = RepeatedSource;
    R.Ints["a"] = (int64_t)(Seed % 100);
    R.Lanes = 1;
    break;
  case Category::HostileSource:
    R.Source = "PROGRAM P\nBEGIN\n  GIBBERISH " + std::to_string(Seed) +
               "\nEND\n";
    break;
  case Category::FuelStarved:
    R.Source = RepeatedSource;
    R.Ints["a"] = 7;
    R.Fuel = 1; // the body needs at least 2 instructions
    R.Lanes = 1;
    break;
  case Category::OverBudget:
    R.Source = RepeatedSource;
    R.Fuel = MaxFuel * 2;
    break;
  case Category::TightDeadline:
    R.Source = LongRunningSource;
    R.Fuel = MaxFuel;
    R.DeadlineMs = 1;
    R.Lanes = 1;
    break;
  }
  return R;
}

struct Collector {
  ServeCampaignResult &Res;
  int64_t HangTimeoutSec;

  /// Resolves one future with the hang guard; a timeout is a campaign
  /// failure (reported, not waited out).
  bool get(std::future<Reply> &F, const std::string &What, Reply &Out) {
    if (F.wait_for(std::chrono::seconds(HangTimeoutSec)) !=
        std::future_status::ready) {
      Res.Failures.push_back(What + ": reply not ready after " +
                             std::to_string(HangTimeoutSec) +
                             "s (hang)");
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

/// Checks one mixed-phase reply against its category's allowed set.
void checkMixedReply(Category Cat, uint64_t Seed, const Reply &Rep,
                     ServeCampaignResult &Res) {
  auto Fail = [&](const std::string &What) {
    std::ostringstream OS;
    OS << "seed " << Seed << " (" << categoryName(Cat) << "): " << What
       << " [reply: " << outcomeName(Rep.Out)
       << (Rep.Error.empty() ? "" : ", " + Rep.Error) << "]";
    Res.Failures.push_back(OS.str());
  };
  switch (Cat) {
  case Category::GeneratedValid:
    // Generated programs may call the Probe/Tick externs; the server
    // binds no registry, so those trap with ExternFailure - a correct
    // structured outcome, not a campaign failure.
    if (Rep.Out == Outcome::CompileError)
      Fail("valid generated program rejected as compile-error");
    if (Rep.Out == Outcome::Trapped &&
        Rep.T->Kind != interp::TrapKind::ExternFailure)
      Fail("unexpected trap " + Rep.T->render());
    break;
  case Category::RepeatedValid:
    if (Rep.Out != Outcome::Served && Rep.Out != Outcome::Shed)
      Fail("fixed valid program neither served nor shed");
    break;
  case Category::HostileSource:
    if (Rep.Out != Outcome::CompileError)
      Fail("hostile source not answered with compile-error");
    break;
  case Category::FuelStarved:
    if (Rep.Out == Outcome::Trapped) {
      if (Rep.T->Kind != interp::TrapKind::FuelExhausted)
        Fail("starved budget trapped with " +
             std::string(interp::trapKindName(Rep.T->Kind)));
    } else if (Rep.Out != Outcome::Shed) {
      Fail("starved budget neither trapped nor shed");
    }
    break;
  case Category::OverBudget:
    if (Rep.Out != Outcome::Shed)
      Fail("over-budget request not shed");
    else if (Rep.RetryAfterMs != 0)
      Fail("over-budget shed carries a retry hint (retrying is "
           "pointless)");
    break;
  case Category::TightDeadline:
    if (Rep.Out == Outcome::Trapped) {
      if (Rep.T->Kind != interp::TrapKind::DeadlineExpired)
        Fail("tight deadline trapped with " +
             std::string(interp::trapKindName(Rep.T->Kind)));
    } else if (Rep.Out != Outcome::Shed) {
      Fail("tight deadline neither trapped nor shed");
    }
    break;
  }
}

/// Asserts a server's final accounting partitions its submissions,
/// globally and tenant by tenant (admitted = served + trapped + shed +
/// compile-errors per tenant - the conservation law every phase must
/// respect, including drain-under-load).
void checkAccounting(const char *Phase, const Server &S,
                     ServeCampaignResult &Res) {
  ServerStats St = S.stats();
  if (!St.consistent()) {
    std::ostringstream OS;
    OS << Phase << ": accounting broken: " << St.Served << " served + "
       << St.Trapped << " trapped + " << St.Shed << " shed + "
       << St.CompileErrors << " compile-errors != " << St.Submitted
       << " submitted";
    Res.Failures.push_back(OS.str());
  }
  for (const auto &[Tenant, TS] : St.Tenants) {
    if (TS.consistent())
      continue;
    std::ostringstream OS;
    OS << Phase << ": tenant '" << Tenant
       << "' accounting broken: submitted=" << TS.Submitted
       << " admitted=" << TS.Admitted << " served=" << TS.Served
       << " trapped=" << TS.Trapped
       << " compile-errors=" << TS.CompileErrors
       << " shed-at-admission=" << TS.ShedAtAdmission
       << " shed-in-service=" << TS.ShedInService;
    Res.Failures.push_back(OS.str());
  }
}

void runMixedPhase(const ServeCampaignOptions &Opts,
                   ServeCampaignResult &Res, Collector &Col) {
  ServerOptions SO;
  SO.Workers = 2;
  // Roomy queue: this phase checks per-category outcomes, not load
  // shedding (the saturation phase owns that).
  SO.QueueCapacity = (size_t)Opts.Count + 8;
  SO.CacheCapacity = 16;
  SO.MaxFuel = 200'000;
  Server S(SO);

  std::vector<std::pair<uint64_t, std::future<Reply>>> Pending;
  for (int I = 0; I < Opts.Count; ++I) {
    uint64_t Seed = Opts.BaseSeed + (uint64_t)I;
    Category Cat = (Category)(Seed % NumCategories);
    Pending.emplace_back(Seed,
                         S.submit(makeRequest(Seed, Cat, SO.MaxFuel)));
    ++Res.Submitted;
  }
  for (auto &[Seed, F] : Pending) {
    Category Cat = (Category)(Seed % NumCategories);
    Reply Rep;
    if (Col.get(F, std::string("mixed ") + categoryName(Cat), Rep))
      checkMixedReply(Cat, Seed, Rep, Res);
  }
  checkAccounting("mixed", S, Res);
  if (S.stats().CacheHits == 0)
    Res.Failures.push_back(
        "mixed: repeated source produced no cache hits");
}

void runSaturationPhase(ServeCampaignResult &Res, Collector &Col) {
  ServerOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 4;
  SO.MaxFuel = 200'000;
  // Each request stalls its worker long enough that the whole burst is
  // submitted before the queue drains meaningfully.
  SO.Faults.WorkerStallMicros = 20'000;
  Server S(SO);

  // Twice the admission capacity on top of what queue + worker can
  // hold: the excess MUST shed, deterministically and immediately.
  int N = (int)SO.QueueCapacity * 2 + SO.Workers + 2;
  std::vector<std::future<Reply>> Pending;
  Request Proto;
  Proto.Source = RepeatedSource;
  Proto.Fuel = 1000;
  Proto.Lanes = 1;
  for (int I = 0; I < N; ++I) {
    Request R = Proto;
    R.Id = (uint64_t)I;
    Pending.push_back(S.submit(std::move(R)));
    ++Res.Submitted;
  }
  int64_t PhaseShed = 0;
  for (auto &F : Pending) {
    Reply Rep;
    if (!Col.get(F, "saturation", Rep))
      continue;
    if (Rep.Out == Outcome::Shed) {
      ++PhaseShed;
      if (Rep.RetryAfterMs <= 0)
        Res.Failures.push_back(
            "saturation: queue-full shed without a retry hint");
    } else if (Rep.Out != Outcome::Served) {
      Res.Failures.push_back(std::string("saturation: unexpected ") +
                             outcomeName(Rep.Out) + ": " + Rep.Error);
    }
  }
  // The worker can drain at most a couple of requests while the burst
  // is submitted; everything beyond queue + in-flight must have shed.
  int64_t MinShed = N - (int64_t)SO.QueueCapacity - SO.Workers - 2;
  if (PhaseShed < MinShed) {
    std::ostringstream OS;
    OS << "saturation: only " << PhaseShed << " of " << N
       << " requests shed; expected at least " << MinShed;
    Res.Failures.push_back(OS.str());
  }
  checkAccounting("saturation", S, Res);
}

void runPoisonedPrimaryPhase(ServeCampaignResult &Res, Collector &Col) {
  ServerOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 32;
  SO.MaxFuel = 200'000;
  // Every primary compile fails. Both verdicts are cached, so the
  // whole phase runs exactly two pipelines: the failing primary and
  // the fallback.
  SO.Faults.FailPrimary = true;
  Server S(SO);

  const int N = 8;
  for (int I = 0; I < N; ++I) {
    Request R;
    R.Id = (uint64_t)I;
    R.Source = RepeatedSource;
    R.Ints["a"] = 5;
    R.Fuel = 1000;
    R.Lanes = 1;
    auto F = S.submit(std::move(R));
    ++Res.Submitted;
    Reply Rep;
    if (!Col.get(F, "poisoned-primary", Rep))
      continue;
    if (Rep.Out != Outcome::Served)
      Res.Failures.push_back(
          "poisoned-primary: request " + std::to_string(I) +
          " not served through the fallback: " + Rep.Error);
    else if (!Rep.Tele.Fallback)
      Res.Failures.push_back("poisoned-primary: request " +
                             std::to_string(I) +
                             " claims the primary pipeline compiled "
                             "despite total injection");
  }
  ServerStats St = S.stats();
  if (St.FallbackServes != N)
    Res.Failures.push_back(
        "poisoned-primary: " + std::to_string(St.FallbackServes) + " of " +
        std::to_string(N) + " requests served via fallback");
  if (St.CacheMisses != 2)
    Res.Failures.push_back(
        "poisoned-primary: " + std::to_string(St.CacheMisses) +
        " cache misses; the primary and fallback verdicts must each "
        "compile once");
  checkAccounting("poisoned-primary", S, Res);
}

void runEvictionPhase(const ServeCampaignOptions &Opts,
                      ServeCampaignResult &Res, Collector &Col) {
  ServerOptions SO;
  SO.Workers = 2;
  SO.QueueCapacity = 32;
  SO.MaxFuel = 200'000;
  SO.CacheCapacity = 1; // LRU pressure from every second program
  SO.Faults.EvictMidFlight = true;
  Server S(SO);

  const int N = 12;
  std::vector<std::pair<uint64_t, std::future<Reply>>> Pending;
  for (int I = 0; I < N; ++I) {
    uint64_t Seed = Opts.BaseSeed + (uint64_t)I;
    Request R = makeRequest(Seed, Category::GeneratedValid, SO.MaxFuel);
    R.Id = (uint64_t)I;
    Pending.emplace_back(Seed, S.submit(std::move(R)));
    ++Res.Submitted;
  }
  for (auto &[Seed, F] : Pending) {
    Reply Rep;
    if (!Col.get(F, "eviction", Rep))
      continue;
    // Same allowed set as the mixed phase: eviction must not change
    // outcomes, only cache statistics.
    checkMixedReply(Category::GeneratedValid, Seed, Rep, Res);
  }
  if (S.stats().CacheEvictions < 1)
    Res.Failures.push_back(
        "eviction: fault plan evicted nothing (probe dead?)");
  checkAccounting("eviction", S, Res);
}

/// The acceptance scenario of the tenancy work: tenant "hot" offers 10x
/// tenant "victim"'s load against per-tenant token buckets driven by a
/// frozen virtual-time clock (no refill: each tenant gets exactly its
/// burst, deterministically). The victim must stay entirely inside its
/// quota envelope - zero sheds - while the hot tenant sheds exactly its
/// overage with priced retry hints.
void runTenantSkewPhase(ServeCampaignResult &Res, Collector &Col) {
  constexpr int VictimLoad = 8; // == victim burst: all must land
  constexpr int HotLoad = VictimLoad * 10;

  ServerOptions SO;
  SO.Workers = 2;
  SO.QueueCapacity = 128; // congestion must not mask quota decisions
  SO.MaxFuel = 200'000;
  SO.QuotaClock = [] { return (int64_t)0; };
  SO.TenantQuotas["hot"] = TenantQuota{/*RatePerSec=*/1, /*Burst=*/4};
  SO.TenantQuotas["victim"] =
      TenantQuota{/*RatePerSec=*/1, /*Burst=*/VictimLoad};
  Server S(SO);

  // Interleave 10 hot submissions around every victim one, so the skew
  // is temporal, not just aggregate.
  std::vector<std::pair<std::string, std::future<Reply>>> Pending;
  auto SubmitOne = [&](const std::string &Tenant, uint64_t Id) {
    Request R;
    R.Id = Id;
    R.Tenant = Tenant;
    R.Source = RepeatedSource;
    R.Ints["a"] = (int64_t)(Id % 50);
    R.Fuel = 1000;
    R.Lanes = 1;
    Pending.emplace_back(Tenant, S.submit(std::move(R)));
    ++Res.Submitted;
  };
  for (int V = 0; V < VictimLoad; ++V) {
    for (int H = 0; H < HotLoad / VictimLoad; ++H)
      SubmitOne("hot", (uint64_t)(V * 10 + H));
    SubmitOne("victim", (uint64_t)V);
  }

  for (auto &[Tenant, F] : Pending) {
    Reply Rep;
    if (!Col.get(F, "tenant-skew " + Tenant, Rep))
      continue;
    if (Tenant == "victim" && Rep.Out != Outcome::Served)
      Res.Failures.push_back(
          "tenant-skew: victim request " + std::to_string(Rep.Id) +
          " not served despite staying inside its quota envelope: " +
          outcomeName(Rep.Out) + " " + Rep.Error);
    if (Rep.Out == Outcome::Shed && Rep.RetryAfterMs <= 0)
      Res.Failures.push_back("tenant-skew: quota shed without a priced "
                             "retry hint (id " +
                             std::to_string(Rep.Id) + ")");
  }

  ServerStats St = S.stats();
  TenantStats Victim = St.Tenants["victim"];
  TenantStats Hot = St.Tenants["hot"];
  if (Victim.shed() != 0)
    Res.Failures.push_back(
        "tenant-skew: victim shed " + std::to_string(Victim.shed()) +
        " of its " + std::to_string(VictimLoad) +
        " in-quota requests (hot tenant leaked pressure across the "
        "isolation boundary)");
  if (Hot.Admitted != 4)
    Res.Failures.push_back("tenant-skew: hot tenant admitted " +
                           std::to_string(Hot.Admitted) +
                           " != its burst of 4 under a frozen clock");
  if (Hot.ShedAtAdmission != HotLoad - 4)
    Res.Failures.push_back(
        "tenant-skew: hot tenant shed " +
        std::to_string(Hot.ShedAtAdmission) + " of " +
        std::to_string(HotLoad) + "; expected exactly " +
        std::to_string(HotLoad - 4));
  if (St.QuotaSheds != HotLoad - 4)
    Res.Failures.push_back("tenant-skew: quota-shed counter " +
                           std::to_string(St.QuotaSheds) +
                           " != " + std::to_string(HotLoad - 4));
  checkAccounting("tenant-skew", S, Res);
}

/// Drives every quota dimension to refusal and checks each refusal's
/// pricing: rate and fuel buckets hint their refill time, demands above
/// bucket capacity refuse permanently with hint 0, and the in-flight
/// cap sheds with the server's floor hint.
void runQuotaExhaustionPhase(ServeCampaignResult &Res, Collector &Col) {
  ServerOptions SO;
  SO.Workers = 2;
  SO.QueueCapacity = 32;
  // MaxFuel stays 0 (fuel optional) so the *tenant's* fuel metering,
  // not the server-wide budget envelope, owns the fuel-less and
  // over-capacity refusals below.
  SO.QuotaClock = [] { return (int64_t)0; };
  // "fuelish": 10k fuel tokens, frozen - exactly ten 1000-fuel requests
  // fit. "narrow": one admitted-but-unresolved request at a time.
  SO.TenantQuotas["fuelish"] = [] {
    TenantQuota Q;
    Q.FuelPerSec = 10'000;
    return Q;
  }();
  SO.TenantQuotas["narrow"] = [] {
    TenantQuota Q;
    Q.MaxInFlight = 1;
    return Q;
  }();
  SO.Faults.WorkerStallMicros = 10'000; // hold in-flight slots open
  Server S(SO);

  auto MakeReq = [](const std::string &Tenant, uint64_t Id, int64_t Fuel) {
    Request R;
    R.Id = Id;
    R.Tenant = Tenant;
    R.Source = RepeatedSource;
    R.Ints["a"] = 5;
    R.Fuel = Fuel;
    R.Lanes = 1;
    return R;
  };

  // Fuel bucket: 12 requests of 1000 fuel against a frozen 10k bucket.
  std::vector<std::future<Reply>> FuelPending;
  for (int I = 0; I < 12; ++I) {
    FuelPending.push_back(S.submit(MakeReq("fuelish", (uint64_t)I, 1000)));
    ++Res.Submitted;
  }
  int64_t FuelSheds = 0;
  for (auto &F : FuelPending) {
    Reply Rep;
    if (!Col.get(F, "quota-exhaustion fuelish", Rep))
      continue;
    if (Rep.Out == Outcome::Shed) {
      ++FuelSheds;
      if (Rep.RetryAfterMs <= 0)
        Res.Failures.push_back("quota-exhaustion: fuel-bucket shed "
                               "without a refill-time hint");
    }
  }
  if (FuelSheds != 2)
    Res.Failures.push_back(
        "quota-exhaustion: " + std::to_string(FuelSheds) +
        " fuel sheds; a frozen 10k bucket admits exactly 10 of 12 "
        "1000-fuel requests");

  // Permanent refusals: a fuel-metered tenant rejects fuel-less
  // requests and demands beyond bucket capacity - no retry hint, ever.
  for (int64_t Fuel : {(int64_t)0, (int64_t)50'000}) {
    auto F = S.submit(MakeReq("fuelish", (uint64_t)(100 + Fuel), Fuel));
    ++Res.Submitted;
    Reply Rep;
    if (!Col.get(F, "quota-exhaustion permanent", Rep))
      continue;
    if (Rep.Out != Outcome::Shed)
      Res.Failures.push_back("quota-exhaustion: unservable fuel demand " +
                             std::to_string(Fuel) + " not shed");
    else if (Rep.RetryAfterMs != 0)
      Res.Failures.push_back(
          "quota-exhaustion: permanent refusal (fuel " +
          std::to_string(Fuel) +
          ") carries a retry hint; retrying is pointless");
  }

  // In-flight cap: a burst against MaxInFlight=1 with stalled workers
  // must shed at least one request (with the server's floor hint), and
  // releasing slots must let later requests through.
  std::vector<std::future<Reply>> NarrowPending;
  for (int I = 0; I < 6; ++I) {
    NarrowPending.push_back(
        S.submit(MakeReq("narrow", (uint64_t)(200 + I), 1000)));
    ++Res.Submitted;
  }
  int64_t NarrowSheds = 0, NarrowServed = 0;
  for (auto &F : NarrowPending) {
    Reply Rep;
    if (!Col.get(F, "quota-exhaustion narrow", Rep))
      continue;
    if (Rep.Out == Outcome::Shed) {
      ++NarrowSheds;
      if (Rep.RetryAfterMs <= 0)
        Res.Failures.push_back("quota-exhaustion: in-flight shed "
                               "without the floor retry hint");
    } else if (Rep.Out == Outcome::Served) {
      ++NarrowServed;
    }
  }
  if (NarrowSheds < 1)
    Res.Failures.push_back(
        "quota-exhaustion: burst against MaxInFlight=1 shed nothing");
  if (NarrowServed < 1)
    Res.Failures.push_back("quota-exhaustion: in-flight cap starved the "
                           "tenant outright (nothing served)");

  ServerStats St = S.stats();
  if (St.QuotaSheds != FuelSheds + 2 + NarrowSheds)
    Res.Failures.push_back(
        "quota-exhaustion: quota-shed counter " +
        std::to_string(St.QuotaSheds) + " != observed quota sheds " +
        std::to_string(FuelSheds + 2 + NarrowSheds));
  checkAccounting("quota-exhaustion", S, Res);
}

/// SIGTERM's contract, exercised in-process: drain under load with a
/// hard deadline too short for the stalled queue. Every admitted
/// request must still resolve - executing ones finish, queued ones shed
/// with the structured draining status - post-drain submissions shed
/// immediately, and the accounting still conserves per tenant.
void runDrainPhase(ServeCampaignResult &Res, Collector &Col) {
  ServerOptions SO;
  SO.Workers = 1;
  SO.QueueCapacity = 16;
  SO.MaxFuel = 200'000;
  SO.Faults.WorkerStallMicros = 30'000; // 12 queued => ~360ms of work
  Server S(SO);

  auto MakeReq = [](const std::string &Tenant, uint64_t Id) {
    Request R;
    R.Id = Id;
    R.Tenant = Tenant;
    R.Source = RepeatedSource;
    R.Ints["a"] = 9;
    R.Fuel = 1000;
    R.Lanes = 1;
    return R;
  };

  std::vector<std::future<Reply>> Pending;
  for (int I = 0; I < 12; ++I) {
    Pending.push_back(
        S.submit(MakeReq(I % 2 ? "odd" : "even", (uint64_t)I)));
    ++Res.Submitted;
  }

  S.beginDrain();
  if (!S.draining())
    Res.Failures.push_back("drain: beginDrain() did not close admission");

  // Late arrivals: shed immediately with the draining status.
  for (int I = 0; I < 3; ++I) {
    auto F = S.submit(MakeReq("late", (uint64_t)(100 + I)));
    ++Res.Submitted;
    Reply Rep;
    if (!Col.get(F, "drain late-arrival", Rep))
      continue;
    if (Rep.Out != Outcome::Shed || !Rep.Draining)
      Res.Failures.push_back(
          "drain: post-drain submission not shed with the draining "
          "status (got " + std::string(outcomeName(Rep.Out)) + ")");
  }

  // The deadline is far below the ~360ms the stalled queue needs, so
  // the sweep must fire; drain() still waits for executing requests.
  bool Clean = S.drain(/*HardDeadlineMs=*/40);
  if (Clean)
    Res.Failures.push_back("drain: reported a clean drain although the "
                           "deadline could not cover the queue");
  if (S.inFlight() != 0)
    Res.Failures.push_back("drain: returned with " +
                           std::to_string(S.inFlight()) +
                           " requests still unresolved");

  int64_t DrainSheds = 0;
  for (auto &F : Pending) {
    Reply Rep;
    if (!Col.get(F, "drain admitted", Rep))
      continue;
    if (Rep.Out == Outcome::Shed) {
      ++DrainSheds;
      if (!Rep.Draining)
        Res.Failures.push_back("drain: deadline-swept request " +
                               std::to_string(Rep.Id) +
                               " shed without the draining status");
    } else if (Rep.Out != Outcome::Served) {
      Res.Failures.push_back(
          std::string("drain: unexpected outcome ") +
          outcomeName(Rep.Out) + " for admitted request " +
          std::to_string(Rep.Id));
    }
  }
  if (DrainSheds < 1)
    Res.Failures.push_back("drain: the deadline sweep shed nothing "
                           "despite a 40ms bound on ~360ms of work");

  ServerStats St = S.stats();
  if (St.DrainSheds != DrainSheds + 3)
    Res.Failures.push_back("drain: drain-shed counter " +
                           std::to_string(St.DrainSheds) +
                           " != observed draining sheds " +
                           std::to_string(DrainSheds + 3));
  checkAccounting("drain", S, Res);

  // Control: with a generous deadline and no late arrivals the drain
  // is clean - nothing swept, everything served.
  ServerOptions SO2;
  SO2.Workers = 2;
  SO2.MaxFuel = 200'000;
  Server S2(SO2);
  std::vector<std::future<Reply>> P2;
  for (int I = 0; I < 4; ++I) {
    P2.push_back(S2.submit(MakeReq("calm", (uint64_t)I)));
    ++Res.Submitted;
  }
  if (!S2.drain(/*HardDeadlineMs=*/10'000))
    Res.Failures.push_back(
        "drain: unloaded server did not drain cleanly in 10s");
  for (auto &F : P2) {
    Reply Rep;
    if (Col.get(F, "drain clean", Rep) && Rep.Out != Outcome::Served)
      Res.Failures.push_back(
          std::string("drain: clean drain lost a request to ") +
          outcomeName(Rep.Out));
  }
  checkAccounting("drain-clean", S2, Res);
}

/// Cache byte-pressure: every compiled program pretends to cost 3000
/// bytes (FaultPlan::InflateCostBytes) against an 8192-byte global
/// budget and a 3000-byte per-tenant cap. (Mid-flight eviction is
/// deliberately NOT stacked on: it empties the cache before byte
/// pressure can build; the eviction phase owns that fault.) Outcomes
/// must not change; only the cache counters may move.
void runCachePressurePhase(const ServeCampaignOptions &Opts,
                           ServeCampaignResult &Res, Collector &Col) {
  ServerOptions SO;
  SO.Workers = 2;
  SO.QueueCapacity = 32;
  SO.MaxFuel = 200'000;
  SO.CacheCapacity = 8;
  SO.CacheMaxBytes = 8192;       // room for two inflated programs
  SO.CacheTenantMaxBytes = 3000; // one inflated program per tenant
  SO.Faults.InflateCostBytes = 3000;
  Server S(SO);

  const int N = 12;
  std::vector<std::pair<uint64_t, std::future<Reply>>> Pending;
  for (int I = 0; I < N; ++I) {
    uint64_t Seed = Opts.BaseSeed + 1000 + (uint64_t)I;
    Request R = makeRequest(Seed, Category::GeneratedValid, SO.MaxFuel);
    R.Id = (uint64_t)I;
    R.Tenant = I % 2 ? "cacheA" : "cacheB";
    Pending.emplace_back(Seed, S.submit(std::move(R)));
    ++Res.Submitted;
  }
  for (auto &[Seed, F] : Pending) {
    Reply Rep;
    if (!Col.get(F, "cache-pressure", Rep))
      continue;
    checkMixedReply(Category::GeneratedValid, Seed, Rep, Res);
  }

  ServerStats St = S.stats();
  if (St.CacheByteEvictions + St.CacheTenantEvictions < 1)
    Res.Failures.push_back("cache-pressure: distinct inflated programs "
                           "forced no budget evictions (probe dead?)");
  if (St.CacheBytesResident > (int64_t)SO.CacheMaxBytes)
    Res.Failures.push_back(
        "cache-pressure: " + std::to_string(St.CacheBytesResident) +
        " bytes resident exceeds the " +
        std::to_string(SO.CacheMaxBytes) + "-byte budget");
  checkAccounting("cache-pressure", S, Res);
}

} // namespace

ServeCampaignResult
fuzz::runServeCampaign(const ServeCampaignOptions &Opts) {
  ServeCampaignResult Res;
  Collector Col{Res, Opts.HangTimeoutSec};
  runMixedPhase(Opts, Res, Col);
  runSaturationPhase(Res, Col);
  runPoisonedPrimaryPhase(Res, Col);
  runEvictionPhase(Opts, Res, Col);
  runTenantSkewPhase(Res, Col);
  runQuotaExhaustionPhase(Res, Col);
  runDrainPhase(Res, Col);
  runCachePressurePhase(Opts, Res, Col);
  // Global zero-loss check across all phases: every submission landed
  // in exactly one bucket.
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
