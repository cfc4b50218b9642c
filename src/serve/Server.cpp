//===- serve/Server.cpp ---------------------------------------*- C++ -*-===//

#include "serve/Server.h"

#include "codegen/NativeEngine.h"
#include "frontend/GotoRecovery.h"
#include "frontend/Parser.h"
#include "interp/SimdInterp.h"
#include "interp/Store.h"

#include <algorithm>
#include <cmath>
#include <sstream>

using namespace simdflat;
using namespace simdflat::serve;

using Clock = std::chrono::steady_clock;

namespace {

int64_t nanosSince(Clock::time_point Start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Start)
      .count();
}

/// Checks every request input against the program's declarations so the
/// store's fatal-error paths (undeclared name, wrong kind, wrong size)
/// are unreachable from hostile requests. Returns a rendering of the
/// first problem, or the empty string.
std::string validateInputs(const ir::Program &P, const Request &R) {
  std::ostringstream OS;
  auto declOf = [&](const std::string &Name) { return P.lookupVar(Name); };
  for (const auto &[Name, V] : R.Ints) {
    (void)V;
    const ir::VarDecl *D = declOf(Name);
    if (!D) {
      OS << "input '" << Name << "' is not declared by the program";
      return OS.str();
    }
    if (!D->isScalar() || D->Kind == ir::ScalarKind::Real) {
      OS << "input '" << Name << "' is not an integer scalar";
      return OS.str();
    }
  }
  for (const auto &[Name, Vals] : R.IntArrays) {
    const ir::VarDecl *D = declOf(Name);
    if (!D) {
      OS << "input array '" << Name << "' is not declared by the program";
      return OS.str();
    }
    if (!D->isArray() || D->Kind != ir::ScalarKind::Int) {
      OS << "input '" << Name << "' is not an integer array";
      return OS.str();
    }
    if ((int64_t)Vals.size() != D->numElements()) {
      OS << "input array '" << Name << "' has " << Vals.size()
         << " elements, the program declares " << D->numElements();
      return OS.str();
    }
  }
  for (const auto &[Name, Vals] : R.RealArrays) {
    const ir::VarDecl *D = declOf(Name);
    if (!D) {
      OS << "input array '" << Name << "' is not declared by the program";
      return OS.str();
    }
    if (!D->isArray() || D->Kind != ir::ScalarKind::Real) {
      OS << "input '" << Name << "' is not a real array";
      return OS.str();
    }
    if ((int64_t)Vals.size() != D->numElements()) {
      OS << "input array '" << Name << "' has " << Vals.size()
         << " elements, the program declares " << D->numElements();
      return OS.str();
    }
  }
  return "";
}

/// Total-variation distance (0..1) between the probe window and the
/// decision snapshot beyond which the adaptive layer re-decides.
constexpr double DriftThreshold = 0.25;

/// Total-variation distance between two trip histograms viewed as
/// probability distributions over the shared (exact + log2) buckets:
/// 0.0 for identical shapes, 1.0 for disjoint support. Sample-count
/// invariant, so "same traffic, more of it" never reads as drift.
double totalVariation(const interp::TripHistogram &A,
                      const interp::TripHistogram &B) {
  if (A.Samples <= 0 || B.Samples <= 0)
    return A.Samples == B.Samples ? 0.0 : 1.0;
  double An = static_cast<double>(A.Samples);
  double Bn = static_cast<double>(B.Samples);
  double L1 = 0.0;
  for (size_t I = 0; I < A.Exact.size(); ++I)
    L1 += std::abs(static_cast<double>(A.Exact[I]) / An -
                   static_cast<double>(B.Exact[I]) / Bn);
  for (size_t I = 0; I < A.Log2.size(); ++I)
    L1 += std::abs(static_cast<double>(A.Log2[I]) / An -
                   static_cast<double>(B.Log2[I]) / Bn);
  return L1 / 2.0;
}

ProgramCache::Options cacheOptions(const ServerOptions &O) {
  ProgramCache::Options C;
  C.MaxEntries = O.CacheCapacity;
  C.MaxBytes = O.CacheMaxBytes;
  C.TenantMaxBytes = O.CacheTenantMaxBytes;
  C.CostOverrideBytes = O.Faults.InflateCostBytes;
  return C;
}

} // namespace

const char *serve::outcomeName(Outcome O) {
  switch (O) {
  case Outcome::Served:
    return "served";
  case Outcome::Trapped:
    return "trapped";
  case Outcome::Shed:
    return "shed";
  case Outcome::CompileError:
    return "compile-error";
  }
  return "shed";
}

Server::Server(ServerOptions O)
    : Opts(O), Cache(cacheOptions(O)),
      Tenants(O.DefaultQuota, O.QuotaClock) {
  for (const auto &[Name, Q] : Opts.TenantQuotas)
    Tenants.setQuota(Name, Q);
  int N = std::max(1, Opts.Workers);
  Workers.reserve((size_t)N);
  for (int I = 0; I < N; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    Stopping = true;
  }
  QueueCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
  // Workers drain the queue (shedding) before exiting, so nothing is
  // left here; this is a belt-and-braces sweep for the promise
  // contract should that ever change.
  std::vector<Job> Leftover;
  Queue.drainAll(
      [&](const std::string &, Job &&J) { Leftover.push_back(std::move(J)); });
  for (Job &J : Leftover)
    resolveJob(J, shed(J, "server shutting down", 0, /*Admitted=*/true));
}

int64_t Server::scaledRetryMs(size_t Depth) const {
  int64_t PerWorker = (int64_t)Depth / std::max(1, Opts.Workers);
  return Opts.RetryAfterMs * (1 + PerWorker);
}

std::future<Reply> Server::submit(Request R) {
  std::promise<Reply> Done;
  std::future<Reply> F = Done.get_future();
  std::string Tenant = R.Tenant.empty() ? defaultTenant() : R.Tenant;
  {
    std::lock_guard<std::mutex> Lock(StatsM);
    ++Stats.Submitted;
  }
  Tenants.countSubmitted(Tenant);

  // Budget-envelope admission: requests the server can tell are
  // over-budget never enter the queue, and the reply says retrying as-is
  // is pointless (RetryAfterMs = 0).
  if (Opts.MaxFuel > 0 && (R.Fuel <= 0 || R.Fuel > Opts.MaxFuel)) {
    std::ostringstream OS;
    OS << "fuel budget " << R.Fuel << " outside the served range 1.."
       << Opts.MaxFuel;
    Done.set_value(shedRequest(R, Tenant, OS.str(), 0, /*Admitted=*/false));
    return F;
  }
  if (R.Lanes < 1 || R.Lanes > Opts.MaxLanes) {
    std::ostringstream OS;
    OS << "lanes " << R.Lanes << " outside the served range 1.."
       << Opts.MaxLanes;
    Done.set_value(shedRequest(R, Tenant, OS.str(), 0, /*Admitted=*/false));
    return F;
  }
  if (R.Source.size() > Opts.MaxSourceBytes) {
    std::ostringstream OS;
    OS << "source of " << R.Source.size() << " bytes exceeds the limit of "
       << Opts.MaxSourceBytes;
    Done.set_value(shedRequest(R, Tenant, OS.str(), 0, /*Admitted=*/false));
    return F;
  }

  Job J;
  J.Req = std::move(R);
  J.Tenant = Tenant;
  J.Done = std::move(Done);
  J.Enqueued = Clock::now();
  if (J.Req.DeadlineMs > 0)
    J.Deadline = J.Enqueued + std::chrono::milliseconds(J.Req.DeadlineMs);
  if (J.Req.QueueTimeoutMs > 0)
    J.QueueDeadline =
        J.Enqueued + std::chrono::milliseconds(J.Req.QueueTimeoutMs);

  {
    std::lock_guard<std::mutex> Lock(QueueM);
    if (Stopping) {
      J.Done.set_value(
          shedRequest(J.Req, Tenant, "server shutting down", 0,
                      /*Admitted=*/false));
      return F;
    }
    if (Draining) {
      // Graceful-drain admission stop: a structured refusal, not
      // silence. Another replica may serve the retry.
      J.Done.set_value(shedRequest(J.Req, Tenant, "server draining",
                                   Opts.RetryAfterMs, /*Admitted=*/false,
                                   /*IsDraining=*/true));
      return F;
    }
    if (Queue.size() >= Opts.QueueCapacity) {
      // Deterministic load shedding: reject immediately rather than
      // block the submitter or grow the queue without bound. The hint
      // scales with the congestion the submitter is seeing.
      std::ostringstream OS;
      OS << "admission queue full (" << Opts.QueueCapacity << " waiting)";
      J.Done.set_value(shedRequest(J.Req, Tenant, OS.str(),
                                   scaledRetryMs(Queue.size()),
                                   /*Admitted=*/false));
      return F;
    }
    TenantQuota Q = Tenants.quotaFor(Tenant);
    if (Q.MaxQueued > 0 && (int64_t)Queue.sizeOf(Tenant) >= Q.MaxQueued) {
      // The tenant's share of the shared queue is spent; the global
      // queue may still have room for everyone else.
      std::ostringstream OS;
      OS << "tenant '" << Tenant << "' queue share full (" << Q.MaxQueued
         << " waiting)";
      {
        std::lock_guard<std::mutex> SLock(StatsM);
        ++Stats.QuotaSheds;
      }
      J.Done.set_value(shedRequest(J.Req, Tenant, OS.str(),
                                   scaledRetryMs(Queue.sizeOf(Tenant)),
                                   /*Admitted=*/false));
      return F;
    }
    // Token buckets last: they charge on success, and every later check
    // has already passed, so no refund path exists.
    TenantRegistry::Decision D = Tenants.tryAdmit(Tenant, J.Req.Fuel);
    if (!D.Admit) {
      {
        std::lock_guard<std::mutex> SLock(StatsM);
        ++Stats.QuotaSheds;
      }
      int64_t Hint =
          D.Permanent ? 0 : std::max(D.RetryAfterMs, Opts.RetryAfterMs);
      J.Done.set_value(
          shedRequest(J.Req, Tenant, D.Reason, Hint, /*Admitted=*/false));
      return F;
    }
    Tenants.countAdmitted(Tenant);
    ++Unresolved;
    Queue.push(Tenant, std::move(J));
  }
  QueueCv.notify_one();
  return F;
}

void Server::beginDrain() {
  std::lock_guard<std::mutex> Lock(QueueM);
  Draining = true;
}

bool Server::drain(int64_t HardDeadlineMs) {
  beginDrain();
  std::vector<Job> Swept;
  {
    std::unique_lock<std::mutex> Lock(QueueM);
    auto Resolved = [&] { return Unresolved == 0; };
    if (HardDeadlineMs <= 0) {
      DrainCv.wait(Lock, Resolved);
    } else if (!DrainCv.wait_for(
                   Lock, std::chrono::milliseconds(HardDeadlineMs),
                   Resolved)) {
      // Hard deadline: whatever is still queued sheds now. Requests a
      // worker already picked up keep running - their own fuel/deadline
      // budgets bound them.
      Queue.drainAll([&](const std::string &, Job &&J) {
        Swept.push_back(std::move(J));
      });
    }
  }
  bool Clean = Swept.empty();
  for (Job &J : Swept)
    resolveJob(J, shedRequest(J.Req, J.Tenant,
                              "drain deadline reached before execution",
                              Opts.RetryAfterMs, /*Admitted=*/true,
                              /*IsDraining=*/true));
  {
    std::unique_lock<std::mutex> Lock(QueueM);
    DrainCv.wait(Lock, [&] { return Unresolved == 0; });
  }
  return Clean;
}

bool Server::draining() const {
  std::lock_guard<std::mutex> Lock(QueueM);
  return Draining;
}

void Server::resolveJob(Job &J, Reply Rep) {
  J.Done.set_value(std::move(Rep));
  Tenants.release(J.Tenant);
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    if (Unresolved > 0)
      --Unresolved;
  }
  DrainCv.notify_all();
}

void Server::workerLoop() {
  for (;;) {
    Job J;
    bool ShedForShutdown = false;
    {
      std::unique_lock<std::mutex> Lock(QueueM);
      QueueCv.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty()) {
        if (Stopping)
          return;
        continue;
      }
      J = std::move(Queue.pop().second);
      ShedForShutdown = Stopping;
    }
    Reply Rep;
    if (ShedForShutdown) {
      Rep = shed(J, "server shutting down", 0, /*Admitted=*/true);
    } else {
      // The worker-thread exception barrier: whatever process() throws
      // (including OOM-shaped std::exceptions from hostile programs)
      // becomes a structured reply, never a dead worker or a
      // std::terminate.
      try {
        Rep = process(J);
      } catch (const std::exception &E) {
        Rep = compileError(J, std::string("internal error: ") + E.what());
      } catch (...) {
        Rep = compileError(J, "internal error: unknown exception");
      }
    }
    resolveJob(J, std::move(Rep));
  }
}

Server::AdaptiveRoute Server::adaptiveRoute(uint64_t BaseKey) {
  std::lock_guard<std::mutex> Lock(AdaptiveM);
  AdaptiveState &S = AdaptiveStates[BaseKey];
  AdaptiveRoute R;
  R.Epoch = S.Epoch;
  // No decision yet, or the decided strategy is the profiling variant
  // itself: every serve doubles as a probe.
  if (!S.Policy.has_value() ||
      S.Policy->Chosen == analysis::Strategy::Unflattened) {
    R.Policy = transform::StrategyPolicy::unflattened();
    R.Probe = true;
    return R;
  }
  if (Opts.AdaptiveProbeEvery > 0 &&
      ++S.SinceProbe >= Opts.AdaptiveProbeEvery) {
    S.SinceProbe = 0;
    R.Policy = transform::StrategyPolicy::unflattened();
    R.Probe = true;
    return R;
  }
  R.Policy = *S.Policy;
  return R;
}

void Server::recordObservedTrips(
    uint64_t BaseKey, const std::vector<interp::NestTripStats> &Nests,
    int64_t Lanes) {
  bool Decided = false, Changed = false;
  {
    std::lock_guard<std::mutex> Lock(AdaptiveM);
    AdaptiveState &S = AdaptiveStates[BaseKey];
    interp::mergeTripNests(S.Window, Nests);
    const interp::NestTripStats *Dom = analysis::dominantTripNest(S.Window);
    if (!Dom || Dom->Hist.Samples < Opts.AdaptiveMinSamples)
      return;
    bool Decide = !S.Policy.has_value();
    if (!Decide)
      Decide = totalVariation(Dom->Hist, S.Snapshot) > DriftThreshold;
    if (!Decide)
      return;
    analysis::StrategyCosts Costs;
    Costs.CoalesceMaxOuter = transform::DefaultCoalesceMaxOuter;
    Costs.CoalesceMaxTotal = transform::DefaultCoalesceMaxTotal;
    analysis::TripDistribution Dist(Dom->Hist);
    analysis::StrategyChoice C = analysis::chooseStrategy(
        Dist, std::max<int64_t>(Lanes, 1), Opts.Layout, Costs);
    Changed = S.Policy.has_value() && C.Primary != S.Policy->Chosen;
    S.Policy = transform::StrategyPolicy::fromChoice(C);
    S.Snapshot = Dom->Hist;
    S.Window.clear();
    ++S.Epoch;
    Decided = true;
  }
  // A changed choice means the next request for this program compiles
  // under a fresh canonical key: the respecialization itself is just a
  // cache miss through the usual single-flight path.
  std::lock_guard<std::mutex> Lock(StatsM);
  if (Decided)
    ++Stats.AdaptiveDecisions;
  if (Changed)
    ++Stats.Respecializations;
}

Reply Server::process(Job &J) {
  const Request &R = J.Req;
  Telemetry Tele;
  Tele.QueueNanos = nanosSince(J.Enqueued);
  Tele.Tenant = J.Tenant;

  if (Opts.Faults.WorkerStallMicros > 0)
    std::this_thread::sleep_for(
        std::chrono::microseconds(Opts.Faults.WorkerStallMicros));

  // Budget checks at pickup: a request that already blew its queue
  // budget or its end-to-end deadline is shed before any work is spent
  // on it.
  Clock::time_point Now = Clock::now();
  if (J.QueueDeadline && Now > *J.QueueDeadline) {
    std::ostringstream OS;
    OS << "queued longer than the " << R.QueueTimeoutMs << "ms queue budget";
    Reply Rep = shed(J, OS.str(), scaledRetryMs(queueDepth()),
                     /*Admitted=*/true);
    Rep.Tele = Tele;
    return Rep;
  }
  if (J.Deadline && Now >= *J.Deadline) {
    Reply Rep = shed(J, "deadline expired before execution", 0,
                     /*Admitted=*/true);
    Rep.Tele = Tele;
    return Rep;
  }

  // Parse + GOTO recovery. Parse failures are program defects -
  // CompileError before any cache lookup.
  frontend::ParseResult PR = frontend::parseProgram(R.Source);
  if (!PR.ok()) {
    Reply Rep = compileError(J, PR.Diags.renderAll());
    Rep.Tele = Tele;
    return Rep;
  }
  ir::Program Prog = std::move(*PR.Prog);
  frontend::recoverGotoLoops(Prog);

  if (std::string Err = validateInputs(Prog, R); !Err.empty()) {
    Reply Rep = compileError(J, Err);
    Rep.Tele = Tele;
    return Rep;
  }

  // Compile through one ordered list of builds and serve the first
  // success: the adaptive route (adaptive mode only), the static
  // flattened build, then the unflattened fallback. Their canonical
  // keys differ (the strategy and flatten fields), so each is looked up
  // once; a failure verdict is cached like a program, so a poisoned key
  // costs one pipeline run per cache residency.
  enum class Build { Routed, Static, Fallback };
  struct Candidate {
    Build Kind;
    const char *Name;
    transform::PipelineOptions Opts;
  };
  transform::PipelineOptions Static;
  Static.Layout = Opts.Layout;
  Static.Flatten = true;
  Static.AssumeInnerMinOneTrip = R.MinOne;
  // The fallback is always the plain unflattened program - never a
  // strategy variant - so its key and behaviour match the static
  // server's and a bad adaptive choice cannot poison the degraded path.
  transform::PipelineOptions Unflattened = Static;
  Unflattened.Flatten = false;
  std::vector<Candidate> Builds;
  // Adaptive strategy selection: the static build's key is the base key
  // that identifies the program across all its strategy variants; the
  // routed policy rides into the pipeline options, which changes the
  // canonical key - so differently-strategized compiles coexist in the
  // cache and a respecialization is an ordinary single-flight miss.
  std::optional<uint64_t> BaseKey;
  bool ProfileThisRun = false;
  if (Opts.Adaptive) {
    BaseKey = transform::canonicalKey(Prog, Static).Hash;
    AdaptiveRoute Route = adaptiveRoute(*BaseKey);
    transform::PipelineOptions Routed = Static;
    Routed.Strategy = Route.Policy;
    Builds.push_back({Build::Routed, "routed", Routed});
    Tele.Strategy = analysis::strategyName(Route.Policy.Chosen);
    Tele.StrategyEpoch = Route.Epoch;
    ProfileThisRun = Route.Probe;
  }
  Builds.push_back({Build::Static, "primary", Static});
  Builds.push_back({Build::Fallback, "fallback", Unflattened});

  Clock::time_point CompileStart = Clock::now();
  std::vector<uint64_t> Keys;
  std::string Errors;
  std::shared_ptr<const transform::CompiledSimdProgram> Code;
  Build ServedBy = Build::Fallback;
  Tele.CacheHit = true;
  for (const Candidate &C : Builds) {
    uint64_t Key = C.Kind == Build::Static && BaseKey
                       ? *BaseKey
                       : transform::canonicalKey(Prog, C.Opts).Hash;
    Keys.push_back(Key);
    ProgramCache::Outcome O = Cache.getOrCompile(
        Key,
        [&]() -> Expected<transform::CompiledSimdProgram,
                          transform::PipelineError> {
          // The fault plan fails every build before the fallback, so the
          // degraded path stays exercised and its verdicts stay cached.
          if (Opts.Faults.FailPrimary && C.Kind != Build::Fallback)
            return transform::PipelineError{
                "flatten", {"injected failure (fault plan: fail primary)"}};
          return transform::compileForSimdExec(Prog, C.Opts);
        },
        J.Tenant);
    Tele.CacheHit = Tele.CacheHit && O.Hit;
    Tele.CoalescedCompile = Tele.CoalescedCompile || O.Waited;
    if (O.Prog) {
      Code = O.Prog;
      ServedBy = C.Kind;
      break;
    }
    if (!Errors.empty())
      Errors += "; ";
    Errors += C.Name;
    Errors += " pipeline: ";
    Errors += O.Error;
  }
  Tele.CompileNanos = nanosSince(CompileStart);
  if (!Code) {
    Reply Rep = compileError(J, Errors);
    Rep.Tele = Tele;
    return Rep;
  }
  if (ServedBy != Build::Routed) {
    // The static or unflattened build serves: tagged static, and its
    // trips feed no profile.
    Tele.Strategy = "static";
    Tele.StrategyEpoch = 0;
    ProfileThisRun = false;
  }
  if (ServedBy == Build::Fallback) {
    Tele.Fallback = true;
    std::lock_guard<std::mutex> Lock(StatsM);
    ++Stats.FallbackServes;
  }

  if (Opts.Faults.EvictMidFlight) {
    // The fault plan's eviction-under-execution probe: drop the entries
    // while this request still holds the shared_ptr. The run below must
    // be unaffected.
    for (uint64_t Key : Keys)
      Cache.evict(Key);
  }

  // Execute. The run inherits the request's whole budget envelope: fuel
  // plus the absolute deadline (checked inside the dispatch loop, so a
  // long-running program traps DeadlineExpired instead of pinning the
  // worker).
  machine::MachineConfig M;
  M.Name = "flattend";
  M.Processors = R.Lanes;
  M.Gran = R.Lanes;
  M.DataLayout = Opts.Layout;

  interp::RunOptions RO;
  RO.Fuel = R.Fuel;
  RO.Deadline = J.Deadline;
  RO.Eng = Opts.Eng;
  if (RO.Eng == interp::Engine::Native) {
    // Native artifact production is compilation, not execution: emit
    // and host-compile here, before the run, under the JIT cache's own
    // per-artifact single-flight (concurrent requests for the same
    // program and lane count coalesce onto one compiler invocation,
    // and a failure is a cached verdict, not a per-request retry
    // storm). When the tier cannot deliver - no toolchain, the emitter
    // declined the program, or the host compile failed - this request
    // degrades to the bytecode engine and is counted: the fallback
    // philosophy applied one tier down.
    Clock::time_point NativeStart = Clock::now();
    bool Ready = codegen::prepareNative(*Code->Code, Code->Prog, M);
    Tele.CompileNanos += nanosSince(NativeStart);
    if (!Ready) {
      RO.Eng = interp::Engine::Bytecode;
      std::lock_guard<std::mutex> Lock(StatsM);
      ++Stats.NativeFallbacks;
    }
  }
  Tele.Engine = interp::engineName(RO.Eng);

  interp::SimdInterp Interp(Code->Prog, M, /*Externs=*/nullptr, RO);
  Interp.setCompiled(Code->Code);
  interp::DataStore &Store = Interp.store();
  for (const auto &[Name, V] : R.Ints)
    Store.setInt(Name, V);
  for (const auto &[Name, Vals] : R.IntArrays)
    Store.setIntArray(Name, Vals);
  for (const auto &[Name, Vals] : R.RealArrays)
    Store.setRealArray(Name, Vals);

  Clock::time_point RunStart = Clock::now();
  interp::RunOutcome<interp::SimdRunResult> Out = Interp.run();
  Tele.RunNanos = nanosSince(RunStart);

  Reply Rep;
  Rep.Id = R.Id;
  Rep.Tele = Tele;
  if (!Out) {
    Rep.Out = Outcome::Trapped;
    Rep.T = Out.error();
    Rep.Error = Out.error().render();
    countOutcome(Outcome::Trapped, J.Tenant, /*Admitted=*/true);
    return Rep;
  }
  Rep.Out = Outcome::Served;
  // The interpreter's own record of which engine executed is
  // authoritative (a native run that fell back mid-dispatch reports
  // bytecode here).
  Rep.Tele.Engine = interp::engineName(Out->EngineUsed);
  Rep.Tele.FuelSpent = Out->Stats.Instructions;
  Rep.Tele.CyclesSpent = Out->Stats.Cycles;
  // Feed the profile from probe runs of the routed build only: an
  // exploit variant's loops report its own schedule, not the source
  // trips, and a spell of static or fallback serves must not register
  // as drift either.
  if (ProfileThisRun && !Out->Stats.TripNests.empty())
    recordObservedTrips(*BaseKey, Out->Stats.TripNests, R.Lanes);
  if (R.WantArrays) {
    // Report arrays the *submitted* program declared (the pipeline may
    // add its own temporaries; those are not the caller's business).
    for (const ir::VarDecl &D : Prog.vars())
      if (D.isArray() && D.Kind == ir::ScalarKind::Int &&
          Code->Prog.lookupVar(D.Name))
        Rep.IntArrays.emplace(D.Name, Store.getIntArray(D.Name));
  }
  countOutcome(Outcome::Served, J.Tenant, /*Admitted=*/true);
  return Rep;
}

Reply Server::shed(const Job &J, std::string Why, int64_t RetryAfterMs,
                   bool Admitted) {
  return shedRequest(J.Req, J.Tenant, std::move(Why), RetryAfterMs,
                     Admitted);
}

Reply Server::shedRequest(const Request &R, const std::string &Tenant,
                          std::string Why, int64_t RetryAfterMs,
                          bool Admitted, bool IsDraining) {
  Reply Rep;
  Rep.Id = R.Id;
  Rep.Out = Outcome::Shed;
  Rep.Error = std::move(Why);
  Rep.RetryAfterMs = RetryAfterMs;
  Rep.Draining = IsDraining;
  Rep.Tele.Tenant = Tenant;
  countOutcome(Outcome::Shed, Tenant, Admitted);
  if (IsDraining) {
    std::lock_guard<std::mutex> Lock(StatsM);
    ++Stats.DrainSheds;
  }
  return Rep;
}

Reply Server::compileError(const Job &J, std::string Why) {
  Reply Rep;
  Rep.Id = J.Req.Id;
  Rep.Out = Outcome::CompileError;
  Rep.Error = std::move(Why);
  Rep.Tele.Tenant = J.Tenant;
  countOutcome(Outcome::CompileError, J.Tenant, /*Admitted=*/true);
  return Rep;
}

void Server::countOutcome(Outcome O, const std::string &Tenant,
                          bool Admitted) {
  {
    std::lock_guard<std::mutex> Lock(StatsM);
    switch (O) {
    case Outcome::Served:
      ++Stats.Served;
      break;
    case Outcome::Trapped:
      ++Stats.Trapped;
      break;
    case Outcome::Shed:
      ++Stats.Shed;
      break;
    case Outcome::CompileError:
      ++Stats.CompileErrors;
      break;
    }
  }
  Tenants.countOutcome(Tenant, O, Admitted);
}

ServerStats Server::stats() const {
  ServerStats Out;
  {
    std::lock_guard<std::mutex> Lock(StatsM);
    Out = Stats;
  }
  ProgramCache::Stats CS = Cache.stats();
  Out.CacheHits = CS.Hits;
  Out.CacheMisses = CS.Misses;
  Out.CacheEvictions = CS.Evictions;
  Out.CacheByteEvictions = CS.ByteEvictions;
  Out.CacheTenantEvictions = CS.TenantEvictions;
  Out.CacheBytesResident = CS.BytesResident;
  Out.CompilesCoalesced = CS.Waits;
  Out.Tenants = Tenants.statsSnapshot();
  return Out;
}

size_t Server::queueDepth() const {
  std::lock_guard<std::mutex> Lock(QueueM);
  return Queue.size();
}

size_t Server::inFlight() const {
  std::lock_guard<std::mutex> Lock(QueueM);
  return Unresolved;
}
