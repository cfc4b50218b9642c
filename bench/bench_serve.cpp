//===- bench/bench_serve.cpp -----------------------------------*- C++ -*-===//
//
// Serving-core characterization: compile-once/run-many economics and
// the degraded modes, measured against an in-process serve::Server.
// The gated metrics are deterministic by construction - sequential
// submission to a single worker makes cache hit counts, shed counts and
// fallback counts exact model outputs, and the per-request instruction
// charge comes from the simulator - while end-to-end throughput of a
// concurrent burst is recorded ungated (wall-clock, CI hardware
// varies).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchReporter.h"
#include "serve/Server.h"
#include "support/Table.h"

#include <cstdio>
#include <future>
#include <string>
#include <vector>

using namespace simdflat;
using namespace simdflat::serve;

namespace {

constexpr const char *ExampleSource =
    "PROGRAM EX\n"
    "INTEGER K\n"
    "DISTRIBUTED INTEGER L(8)\n"
    "DISTRIBUTED INTEGER X(8, 4)\n"
    "INTEGER i\n"
    "INTEGER j\n"
    "BEGIN\n"
    "  DOALL i = 1, K\n"
    "    DO j = 1, L(i)\n"
    "      X(i, j) = i * j\n"
    "    ENDDO\n"
    "  ENDDO\n"
    "END\n";

Request exampleRequest() {
  Request R;
  R.Source = ExampleSource;
  R.Ints["K"] = 8;
  R.IntArrays["L"] = {4, 1, 2, 1, 1, 3, 1, 3};
  R.Lanes = 4;
  R.Fuel = 100'000;
  return R;
}

/// A family of distinct scalar programs (distinct canonical keys), used
/// to drive cache churn deterministically.
Request scalarRequest(int Variant) {
  Request R;
  R.Source = "PROGRAM VAR" + std::to_string(Variant) +
             "\nINTEGER a\nINTEGER b\nBEGIN\n  b = a * 3 + " +
             std::to_string(Variant) + "\nEND\n";
  R.Ints["a"] = 7;
  R.Lanes = 1;
  R.Fuel = 1000;
  return R;
}

Reply waitReply(std::future<Reply> F) { return F.get(); }

} // namespace

int main(int argc, char **argv) {
  bench::BenchReporter Rep("serve", argc, argv);
  bool Ok = true;

  // --- Compile-once/run-many: hit rate over a fixed request mix. -----
  // One worker, sequential waits: every count below is deterministic.
  {
    ServerOptions SO;
    SO.Workers = 1;
    SO.CacheCapacity = 16;
    Server S(SO);
    const int Distinct = 4;
    const int Total = Rep.smoke() ? 16 : 32;
    int64_t ServedCount = 0;
    for (int I = 0; I < Total; ++I) {
      Reply Rep1 = waitReply(S.submit(scalarRequest(I % Distinct)));
      if (Rep1.Out == Outcome::Served)
        ++ServedCount;
    }
    ServerStats St = S.stats();
    double HitRate = (double)St.CacheHits / Total;
    Ok = Ok && ServedCount == Total && St.consistent() &&
         St.CacheMisses == Distinct;
    Rep.meta("hit_rate_requests", (int64_t)Total);
    Rep.record("cache", "served", (double)ServedCount, "requests");
    Rep.record("cache", "hit_rate", HitRate, "ratio", /*Gate=*/true,
               bench::Direction::HigherIsBetter);
    Rep.record("cache", "compiles", (double)St.CacheMisses, "compiles");
    std::printf("cache      %2d distinct over %2d requests: hit rate "
                "%.3f, %lld compiles\n",
                Distinct, Total, HitRate,
                (long long)St.CacheMisses);
  }

  // --- Per-request simulator charge of the paper example. ------------
  {
    Server S;
    Reply R = waitReply(S.submit(exampleRequest()));
    Ok = Ok && R.Out == Outcome::Served;
    Rep.record("example", "fuel_spent", (double)R.Tele.FuelSpent,
               "instructions");
    std::printf("example    served, %lld instructions charged\n",
                (long long)R.Tele.FuelSpent);
  }

  // --- Degraded mode: total primary failure, cached verdict + fallback.
  {
    ServerOptions SO;
    SO.Workers = 1;
    SO.Faults.FailPrimary = true;
    Server S(SO);
    const int N = 6;
    int64_t ViaFallback = 0;
    for (int I = 0; I < N; ++I) {
      Reply R = waitReply(S.submit(exampleRequest()));
      if (R.Out == Outcome::Served && R.Tele.Fallback)
        ++ViaFallback;
    }
    ServerStats St = S.stats();
    Ok = Ok && ViaFallback == N;
    Rep.record("degraded", "fallback_serves", (double)St.FallbackServes,
               "requests");
    Rep.record("degraded", "cache_misses", (double)St.CacheMisses,
               "compiles");
    std::printf("degraded   %lld/%d served via fallback, %lld pipeline "
                "run(s)\n",
                (long long)St.FallbackServes, N,
                (long long)St.CacheMisses);
  }

  // --- Admission control: over-budget requests shed exactly. ---------
  {
    ServerOptions SO;
    SO.MaxFuel = 1000;
    Server S(SO);
    const int N = 5;
    int64_t ShedCount = 0;
    for (int I = 0; I < N; ++I) {
      Request R = exampleRequest();
      R.Fuel = SO.MaxFuel * 2;
      if (waitReply(S.submit(std::move(R))).Out == Outcome::Shed)
        ++ShedCount;
    }
    Ok = Ok && ShedCount == N;
    Rep.record("admission", "over_budget_shed", (double)ShedCount,
               "requests");
    std::printf("admission  %lld/%d over-budget requests shed\n",
                (long long)ShedCount, N);
  }

  // --- Tenant fairness under a 10x-skewed offered load. --------------
  // A frozen quota clock makes the token buckets pure counters: each
  // tenant is admitted exactly its burst, then refused with a retry
  // hint. The hot tenant offers 10x the victim's load; the gate pins
  // that the victim is served in full and sheds nothing - the skew is
  // absorbed entirely by the hot tenant's own quota envelope.
  {
    ServerOptions SO;
    SO.Workers = 1;
    SO.QuotaClock = [] { return (int64_t)0; };
    TenantQuota Hot;
    Hot.RatePerSec = 1;
    Hot.Burst = 4;
    SO.TenantQuotas["hot"] = Hot;
    TenantQuota Victim;
    Victim.RatePerSec = 1;
    Victim.Burst = 8;
    SO.TenantQuotas["victim"] = Victim;
    Server S(SO);
    for (int V = 0; V < 8; ++V) {
      for (int H = 0; H < 10; ++H) {
        Request R = scalarRequest(0);
        R.Tenant = "hot";
        (void)waitReply(S.submit(std::move(R)));
      }
      Request R = scalarRequest(0);
      R.Tenant = "victim";
      (void)waitReply(S.submit(std::move(R)));
    }
    ServerStats St = S.stats();
    const TenantStats &HotSt = St.Tenants["hot"];
    const TenantStats &VicSt = St.Tenants["victim"];
    Ok = Ok && VicSt.shed() == 0 && VicSt.Served == 8 &&
         HotSt.Admitted == 4 && HotSt.shed() == 76 && St.consistent() &&
         St.tenantsConsistent();
    Rep.record("fairness", "victim_served", (double)VicSt.Served,
               "requests", /*Gate=*/true,
               bench::Direction::HigherIsBetter);
    Rep.record("fairness", "victim_shed", (double)VicSt.shed(),
               "requests");
    Rep.record("fairness", "hot_admitted", (double)HotSt.Admitted,
               "requests");
    Rep.record("fairness", "hot_shed", (double)HotSt.shed(), "requests",
               /*Gate=*/true, bench::Direction::HigherIsBetter);
    std::printf("fairness   victim %lld/8 served, %lld shed; hot "
                "%lld admitted, %lld shed\n",
                (long long)VicSt.Served, (long long)VicSt.shed(),
                (long long)HotSt.Admitted, (long long)HotSt.shed());
  }

  // --- Byte-budgeted cache under multi-tenant churn. -----------------
  // Every entry's cost is pinned at 3000 bytes (fault hook), twelve
  // distinct programs arrive as tenant pairs a,a,b,b,c,c,...: each
  // tenant's second program busts its own 3000-byte occupancy cap
  // (6 tenant evictions), each returning tenant busts the 8192-byte
  // global budget (4 byte evictions), and exactly two entries stay
  // resident. All three counters are exact model outputs.
  {
    ServerOptions SO;
    SO.Workers = 1;
    SO.CacheCapacity = 64;
    SO.CacheMaxBytes = 8192;
    SO.CacheTenantMaxBytes = 3000;
    SO.Faults.InflateCostBytes = 3000;
    Server S(SO);
    static const char *const CacheTenants[] = {"a", "a", "b",
                                               "b", "c", "c"};
    int64_t ServedCount = 0;
    for (int I = 0; I < 12; ++I) {
      Request R = scalarRequest(100 + I);
      R.Tenant = CacheTenants[I % 6];
      if (waitReply(S.submit(std::move(R))).Out == Outcome::Served)
        ++ServedCount;
    }
    ServerStats St = S.stats();
    Ok = Ok && ServedCount == 12 && St.CacheTenantEvictions == 6 &&
         St.CacheByteEvictions == 4 && St.CacheBytesResident == 6000;
    Rep.record("cache_bytes", "tenant_evictions",
               (double)St.CacheTenantEvictions, "evictions");
    Rep.record("cache_bytes", "byte_evictions",
               (double)St.CacheByteEvictions, "evictions");
    Rep.record("cache_bytes", "bytes_resident",
               (double)St.CacheBytesResident, "bytes");
    std::printf("cache_bytes %lld tenant + %lld byte evictions, %lld "
                "bytes resident\n",
                (long long)St.CacheTenantEvictions,
                (long long)St.CacheByteEvictions,
                (long long)St.CacheBytesResident);
  }

  // --- Throughput of a concurrent warm-cache burst (ungated). --------
  {
    const int Burst = Rep.smoke() ? 32 : 128;
    ServerOptions SO;
    SO.Workers = 4;
    SO.QueueCapacity = (size_t)Burst + 8;
    Server S(SO);
    // Warm the cache so the burst measures serving, not compilation.
    (void)waitReply(S.submit(exampleRequest()));
    double Seconds = Rep.timeSecondsMedian(
        [&] {
          std::vector<std::future<Reply>> Pending;
          Pending.reserve(Burst);
          for (int I = 0; I < Burst; ++I)
            Pending.push_back(S.submit(exampleRequest()));
          for (auto &F : Pending)
            (void)F.get();
        },
        /*Warmup=*/1, /*Repeats=*/Rep.smoke() ? 1 : 3);
    double Rps = Seconds > 0 ? Burst / Seconds : 0;
    Rep.record("burst", "wall_seconds", Seconds, "s", /*Gate=*/false);
    Rep.record("burst", "requests_per_second", Rps, "req/s",
               /*Gate=*/false, bench::Direction::HigherIsBetter);
    std::printf("burst      %d warm requests on 4 workers: %.1f req/s "
                "(ungated)\n",
                Burst, Rps);
  }

  Rep.setPassed(Ok);
  std::printf("%s\n", Ok ? "PASS" : "FAIL");
  return Rep.finish(Ok ? 0 : 1);
}
