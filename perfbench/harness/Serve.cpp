//===- perfbench/harness/Serve.cpp - The serve_cold workload ----*- C++ -*-===//
//
// Part of simdflat's wall-clock benchmark. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve_cold workload drives an in-process serve::Server through
/// the flattend wire path: a JSON request line is parsed with
/// json::Value::parse and serve::parseRequest, submitted, and the reply
/// is rendered with serve::toJson and serve::toLine. Latency runs from
/// the request line in to the reply line out.
///
/// A closed loop of 2 clients, each on its own thread, submits
/// never-seen programs, each client as soon as its last reply is out.
/// The cache is full from set-up on, so every request is a miss and
/// every insert evicts: parse, pipeline and lowering dominate. Threads:
/// 2 workers, 2 clients.
///
/// Pool hygiene at set-up: a program is kept only if a ScalarInterp run
/// of the untransformed program completes with no extern bindings, and
/// only once per canonical key. That run's integer arrays are the
/// reference every reply is checked against.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "exec/Bytecode.h"
#include "exec/Lower.h"
#include "frontend/GotoRecovery.h"
#include "frontend/Parser.h"
#include "fuzz/Generator.h"
#include "interp/ScalarInterp.h"
#include "interp/SimdInterp.h"
#include "ir/Printer.h"
#include "serve/ServeJson.h"
#include "serve/Server.h"
#include "transform/Pipeline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

using namespace simdflat;

namespace perfbench {
namespace {

constexpr int Workers = 2;
constexpr int64_t Lanes = 4;
constexpr int64_t RequestFuel = 1'000'000;
/// The measured phase runs in this many
/// segments. A batch of SetupRepsPerGap server starts (plus cache
/// warm-up) runs before the first segment, between segments and after
/// the last, so set-up samples the same host conditions as the
/// measured phase; setup_s is the median of all of them.
constexpr size_t Segments = 20;
constexpr size_t SetupRepsPerGap = 4;
constexpr size_t SetupReps = (Segments + 1) * SetupRepsPerGap;

/// serve_cold: cache capacity (below the stream length) and the number
/// of distinct generated programs the never-seen stream is made from.
constexpr size_t ColdCacheCapacity = 128;
constexpr size_t ColdBasePrograms = 8192;
/// serve_cold reads its peak RSS after this many measured requests: the
/// server keeps per-program state (breaker entries) for every program it
/// has seen, so its memory grows with requests served, and a fixed
/// request count keeps the metric from tracking the machine's speed.
constexpr size_t ColdRssAfterRequests = 30000;

/// Requests replayed single-threaded in a traced run.
constexpr size_t ReplayRequests = 2000;

/// One program of a request pool, with its checked reference. Kept
/// small: serve_cold holds a whole stream of these.
struct PoolProgram {
  std::string Name;
  /// The request object's members after "id" and "tenant".
  std::string Body;
  bool MinOne = false;
  /// Canonical key under the server's compile options.
  uint64_t Key = 0;
  /// Digest of the integer arrays after the ScalarInterp reference run.
  uint64_t Expected = 0;
  /// Offset in Body just past the program's name ("PROGRAM <name>").
  size_t NameEnd = 0;
};

transform::PipelineOptions serverOptionsFor(bool MinOne) {
  // What serve::Server compiles a static request under.
  transform::PipelineOptions PO;
  PO.Layout = machine::Layout::Cyclic;
  PO.Flatten = true;
  PO.AssumeInnerMinOneTrip = MinOne;
  return PO;
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

template <typename T>
std::string jsonMap(const std::map<std::string, std::vector<T>> &M) {
  std::string S = "{";
  for (const auto &[Name, Vals] : M) {
    if (S.size() > 1)
      S += ",";
    S += "\"" + json::escapeString(Name) + "\":[";
    for (size_t I = 0; I < Vals.size(); ++I) {
      if (I)
        S += ",";
      if constexpr (std::is_same_v<T, double>)
        S += jsonNumber(Vals[I]);
      else
        S += std::to_string(Vals[I]);
    }
    S += "]";
  }
  return S + "}";
}

/// Digest of integer arrays, names included, in map order.
uint64_t digest(const std::map<std::string, std::vector<int64_t>> &Arrays) {
  uint64_t H = fnv1a("");
  for (const auto &[Name, Vals] : Arrays) {
    H = fnv1a(Name + "=", H);
    H = fnv1a(std::string(reinterpret_cast<const char *>(Vals.data()),
                          Vals.size() * sizeof(int64_t)),
              H);
  }
  return H;
}

/// Builds a pool entry when the program passes hygiene: it parses and
/// its untransformed reference run completes without extern bindings.
/// Callers deduplicate by Key.
std::optional<PoolProgram>
admit(std::string Name, const std::string &Source,
      const std::map<std::string, int64_t> &Ints,
      const std::map<std::string, std::vector<int64_t>> &IntArrays,
      const std::map<std::string, std::vector<double>> &RealArrays,
      bool MinOne) {
  frontend::ParseResult PR = frontend::parseProgram(Source);
  if (!PR.ok())
    return std::nullopt;
  PoolProgram P;
  {
    interp::RunOptions RO;
    RO.Fuel = RequestFuel;
    // ScalarInterp keeps a reference to its machine: no temporary here.
    const machine::MachineConfig Sparc = machine::MachineConfig::sparc2();
    interp::ScalarInterp Ref(*PR.Prog, Sparc, /*Externs=*/nullptr, RO);
    for (const auto &[N, V] : Ints)
      Ref.store().setInt(N, V);
    for (const auto &[N, V] : IntArrays)
      Ref.store().setIntArray(N, V);
    for (const auto &[N, V] : RealArrays)
      Ref.store().setRealArray(N, V);
    auto R = Ref.run();
    if (!R)
      return std::nullopt;
    std::map<std::string, std::vector<int64_t>> Out;
    for (const ir::VarDecl &D : PR.Prog->vars())
      if (D.isArray() && D.Kind == ir::ScalarKind::Int)
        Out.emplace(D.Name, Ref.store().getIntArray(D.Name));
    P.Expected = digest(Out);
  }
  ir::Program Recovered = std::move(*PR.Prog);
  frontend::recoverGotoLoops(Recovered);
  P.Key = transform::canonicalKey(Recovered, serverOptionsFor(MinOne)).Hash;
  P.Name = std::move(Name);
  std::string IntsJson = "{";
  for (const auto &[N, V] : Ints)
    IntsJson += (IntsJson.size() > 1 ? ",\"" : "\"") +
                json::escapeString(N) + "\":" + std::to_string(V);
  IntsJson += "}";
  P.Body = "\"source\":\"" + json::escapeString(Source) +
           "\",\"ints\":" + IntsJson +
           ",\"int_arrays\":" + jsonMap(IntArrays) +
           ",\"real_arrays\":" + jsonMap(RealArrays) +
           ",\"lanes\":" + std::to_string(Lanes) +
           ",\"fuel\":" + std::to_string(RequestFuel) +
           ",\"min_one\":" + (MinOne ? "true" : "false") +
           ",\"want_arrays\":true}";
  P.NameEnd = P.Body.find("\\n");
  P.MinOne = MinOne;
  return P;
}

/// Valid generated programs: no trapping divisors or bounds, every row
/// at least one trip (the same options the serve campaign uses).
fuzz::GeneratorOptions validGenerator() {
  fuzz::GeneratorOptions GO;
  GO.AllowTrappyDiv = false;
  GO.AllowTrappyBounds = false;
  GO.AllowDegenerateTrips = false;
  GO.ForceMinOneTrips = true;
  return GO;
}

std::optional<PoolProgram> admitGenerated(uint64_t GenSeed) {
  fuzz::FuzzCase C = fuzz::generateCase(GenSeed, validGenerator());
  return admit(C.Name, ir::printProgram(C.Prog), C.Ints, C.IntArrays,
               C.RealArrays, C.MinOne);
}

/// Compares a reply against the reference; "" when right.
std::string checkReply(const serve::Reply &R, const PoolProgram &P) {
  if (R.Out != serve::Outcome::Served)
    return P.Name + ": " + serve::outcomeName(R.Out) + ": " + R.Error;
  if (R.Tele.Engine != "bytecode")
    return P.Name + ": ran on " + R.Tele.Engine;
  if (digest(R.IntArrays) != P.Expected)
    return P.Name + ": reply arrays differ from the ScalarInterp reference";
  return "";
}

/// The request line for \p P. A nonzero \p Variant renames the program
/// to <name>v<Variant>: a new canonical key, so a program the server has
/// never seen, with the same work and the same reference output.
std::string requestLine(uint64_t Id, const char *Tenant, const PoolProgram &P,
                        uint64_t Variant = 0) {
  std::string L = "{\"id\":" + std::to_string(Id) + ",\"tenant\":\"";
  L += Tenant;
  L += "\",";
  if (Variant == 0) {
    L += P.Body;
    return L;
  }
  L.append(P.Body, 0, P.NameEnd);
  L += "v" + std::to_string(Variant);
  L.append(P.Body, P.NameEnd, std::string::npos);
  return L;
}

const char *tenantOf(uint64_t Id) { return Id % 2 ? "beta" : "alpha"; }

/// Wire in: JSON line to Request, exactly as flattend reads a line.
std::optional<serve::Request> wireIn(const std::string &Line,
                                     std::string &Err) {
  auto V = json::Value::parse(Line);
  if (!V) {
    Err = "request line is not JSON: " + V.error().render();
    return std::nullopt;
  }
  auto R = serve::parseRequest(*V);
  if (!R) {
    Err = "request rejected: " + R.error();
    return std::nullopt;
  }
  return std::move(*R);
}

serve::ServerOptions serverOptions(size_t CacheCapacity) {
  serve::ServerOptions SO;
  SO.Workers = Workers;
  // Load past capacity must show as latency, not as sheds.
  SO.QueueCapacity = 1u << 16;
  SO.CacheCapacity = CacheCapacity;
  SO.Eng = interp::Engine::Bytecode;
  return SO;
}

/// One completed request, as the client saw it.
struct Done {
  size_t Prog = 0;
  double LatencyUs = 0;
  double WireUs = 0;
  /// From the reply's telemetry: only what the metrics read, so the
  /// per-request records stay small next to what they measure.
  int64_t QueueNanos = 0, CompileNanos = 0, RunNanos = 0;
};

/// The requests of one measured phase. A phase may run in segments:
/// each appends its requests and adds its wall and CPU time.
struct PhaseResult {
  std::vector<Done> Reqs;
  double WallS = 0, CpuS = 0;
  size_t SegmentsRun = 0;
  /// Server counters before the first segment and after the last.
  serve::ServerStats Before, After;
};

/// One request's trip through the wire path.
struct Trip {
  uint64_t Id = 0;
  size_t Prog = 0;
  /// Line in, request parsed, reply in hand.
  int64_t In = 0, Parsed = 0, Got = 0;
};

/// Reads \p Line the way flattend does and submits it, stamping T.In
/// and T.Parsed. A refused line is a failed operation and submits
/// nothing.
std::optional<std::future<serve::Reply>>
sendLine(serve::Server &S, const std::string &Line, Trip &T, Report &Rep,
         std::mutex &RepMu) {
  T.In = nowNs();
  std::string Err;
  std::optional<serve::Request> R;
  {
    Span Sp("serve.wire_in", static_cast<int64_t>(T.Id));
    R = wireIn(Line, Err);
  }
  T.Parsed = nowNs();
  if (!R) {
    std::lock_guard<std::mutex> L(RepMu);
    Rep.op(Err);
    return std::nullopt;
  }
  Span Sp("serve.submit", static_cast<int64_t>(T.Id));
  return S.submit(std::move(*R));
}

/// Wire out - the reply line, exactly as flattend writes it - then the
/// checks, and the request's record in \p Into.
void finishTrip(serve::Reply R, const Trip &T, const PoolProgram &P,
                Report &Rep, std::mutex &RepMu, PhaseResult &Into) {
  std::string Line;
  {
    Span Sp("serve.wire_out", static_cast<int64_t>(T.Id));
    Line = serve::toLine(serve::toJson(R));
  }
  int64_t Out = nowNs();
  recordSpan("serve.request", Tracer::get().newId(), T.In, Out,
             static_cast<int64_t>(T.Id));
  std::string Err = Line.empty() ? "empty reply line" : checkReply(R, P);
  Done D;
  D.Prog = T.Prog;
  D.LatencyUs = static_cast<double>(Out - T.In) * 1e-3;
  D.WireUs = static_cast<double>((T.Parsed - T.In) + (Out - T.Got)) * 1e-3;
  D.QueueNanos = R.Tele.QueueNanos;
  D.CompileNanos = R.Tele.CompileNanos;
  D.RunNanos = R.Tele.RunNanos;
  std::lock_guard<std::mutex> L(RepMu);
  Rep.op(Err);
  Into.Reqs.push_back(D);
}

std::vector<double> field(const std::vector<Done> &Reqs, double Done::*F) {
  std::vector<double> V;
  V.reserve(Reqs.size());
  for (const Done &D : Reqs)
    V.push_back(D.*F);
  return V;
}

std::vector<double> nanosAsUs(const std::vector<Done> &Reqs,
                              int64_t Done::*F) {
  std::vector<double> V;
  V.reserve(Reqs.size());
  for (const Done &D : Reqs)
    V.push_back(static_cast<double>(D.*F) * 1e-3);
  return V;
}

/// Geometric mean over programs of each program's median run time.
double runMsPerProgram(const std::vector<Done> &Reqs) {
  std::unordered_map<size_t, std::vector<double>> ByProg;
  for (const Done &D : Reqs)
    ByProg[D.Prog].push_back(static_cast<double>(D.RunNanos) * 1e-6);
  std::vector<double> Medians;
  for (auto &[P, V] : ByProg)
    Medians.push_back(median(std::move(V)));
  return geomean(Medians);
}

/// Replays requests single-threaded through the public calls the
/// server makes, so the parts the server's telemetry does not split
/// out (parse, key, interp set-up) get a time of their own.
struct RequestReplay {
  std::vector<double> ParseUs, KeyUs, PipelineUs, LowerUs, SetupUs, RunUs;
  StageReplay Stages;
};

void replayRequests(const std::vector<PoolProgram> &Pool,
                    const std::vector<size_t> &Progs, bool CompileEvery,
                    Report &Rep, RequestReplay &Out) {
  std::unordered_map<size_t, transform::CompiledSimdProgram> Compiled;
  machine::MachineConfig M;
  M.Name = "flattend";
  M.Processors = Lanes;
  M.Gran = Lanes;
  M.DataLayout = machine::Layout::Cyclic;
  auto Us = [](int64_t T0) { return static_cast<double>(nowNs() - T0) * 1e-3; };
  for (size_t I = 0; I < Progs.size(); ++I) {
    const PoolProgram &P = Pool[Progs[I]];
    std::string Err;
    std::optional<serve::Request> Req =
        wireIn(requestLine(I, tenantOf(I), P), Err);
    if (!Req) {
      Rep.op(Err);
      continue;
    }
    Span Whole("serve.replay", static_cast<int64_t>(I));
    int64_t T0 = nowNs();
    std::optional<ir::Program> Prog;
    {
      Span S("frontend.parse");
      frontend::ParseResult PR = frontend::parseProgram(Req->Source);
      if (PR.ok()) {
        Prog.emplace(std::move(*PR.Prog));
        frontend::recoverGotoLoops(*Prog);
      }
    }
    Out.ParseUs.push_back(Us(T0));
    if (!Prog) {
      Rep.op(P.Name + ": replay parse failed");
      continue;
    }
    transform::PipelineOptions PO = serverOptionsFor(P.MinOne);
    T0 = nowNs();
    {
      Span S("transform.canonical_key");
      transform::canonicalKey(*Prog, PO);
    }
    Out.KeyUs.push_back(Us(T0));
    auto It = Compiled.find(Progs[I]);
    if (It == Compiled.end() || CompileEvery) {
      T0 = nowNs();
      auto Simd = [&] {
        Span S("transform.pipeline");
        return transform::compileForSimd(*Prog, PO);
      }();
      Out.PipelineUs.push_back(Us(T0));
      if (!Simd) {
        Rep.op(P.Name + ": replay pipeline failed");
        continue;
      }
      T0 = nowNs();
      auto Code = [&] {
        Span S("exec.lower");
        return std::make_shared<const exec::Program>(
            exec::lower(*Simd, exec::Mode::Simd));
      }();
      Out.LowerUs.push_back(Us(T0));
      replayStages(*Prog, PO, Out.Stages);
      It = Compiled.insert_or_assign(Progs[I],
                                     transform::CompiledSimdProgram{
                                         std::move(*Simd), std::move(Code)})
               .first;
    }
    interp::RunOptions RO;
    RO.Fuel = RequestFuel;
    T0 = nowNs();
    std::optional<interp::SimdInterp> SI;
    {
      Span S("interp.setup");
      SI.emplace(It->second.Prog, M, nullptr, RO);
      SI->setCompiled(It->second.Code);
      interp::DataStore &St = SI->store();
      for (const auto &[N, V] : Req->Ints)
        St.setInt(N, V);
      for (const auto &[N, V] : Req->IntArrays)
        St.setIntArray(N, V);
      for (const auto &[N, V] : Req->RealArrays)
        St.setRealArray(N, V);
    }
    Out.SetupUs.push_back(Us(T0));
    T0 = nowNs();
    auto R = [&] {
      Span S("interp.run");
      return SI->run();
    }();
    Out.RunUs.push_back(Us(T0));
    if (!R) {
      Rep.op(P.Name + ": replay trapped: " + R.error().render());
      continue;
    }
    std::map<std::string, std::vector<int64_t>> Arrays;
    for (const ir::VarDecl &D : Prog->vars())
      if (D.isArray() && D.Kind == ir::ScalarKind::Int)
        Arrays.emplace(D.Name, SI->store().getIntArray(D.Name));
    Rep.op(digest(Arrays) == P.Expected
               ? ""
               : P.Name + ": replay arrays differ from the reference");
  }
}

/// The per-layer metrics the serve workload reports from a traced phase
/// and a replay; the kernels' rows read 0 here. The parts add up to
/// \p P50Us by construction: what they leave is serve.unattributed_us.
void serveLayers(Report &Rep, const PhaseResult &Traced, double P50Us,
                 double UntracedP50Us, const RequestReplay &RR) {
  double Wire = median(field(Traced.Reqs, &Done::WireUs));
  double Queue = median(nanosAsUs(Traced.Reqs, &Done::QueueNanos));
  double Compile = median(nanosAsUs(Traced.Reqs, &Done::CompileNanos));
  double Run = median(nanosAsUs(Traced.Reqs, &Done::RunNanos));
  double Parse = median(RR.ParseUs), Key = median(RR.KeyUs),
         Setup = median(RR.SetupUs);
  double Unattributed =
      P50Us - (Wire + Queue + Parse + Key + Compile + Setup + Run);

  Rep.metric("frontend.parse_us", Parse);
  Rep.metric("transform.canonical_key_us", Key);
  Rep.metric("transform.pipeline_us", median(RR.PipelineUs));
  Rep.metric("transform.flatten_us", median(RR.Stages.FlattenUs));
  Rep.metric("transform.simdize_us", median(RR.Stages.SimdizeUs));
  Rep.metric("transform.simplify_us", median(RR.Stages.SimplifyUs));
  Rep.metric("transform.verify_us", median(RR.Stages.VerifyUs));
  Rep.metric("exec.lower_us", median(RR.LowerUs));
  Rep.metric("interp.setup_us", Setup);
  Rep.metric("serve.wire_us", Wire);
  Rep.metric("serve.queue_us", Queue);
  Rep.metric("serve.compile_us", Compile);
  Rep.metric("serve.run_us", Run);
  Rep.metric("serve.unattributed_us", Unattributed);
  const serve::ServerStats &B = Traced.Before, &A = Traced.After;
  int64_t Hits = A.CacheHits - B.CacheHits;
  int64_t Misses = A.CacheMisses - B.CacheMisses;
  Rep.metric("serve.cache_hit_ratio",
             Hits + Misses == 0 ? 0.0
                                : static_cast<double>(Hits) /
                                      static_cast<double>(Hits + Misses));
  Rep.metric("serve.cache_evictions",
             static_cast<double>(A.CacheEvictions - B.CacheEvictions));
  Rep.metric("serve.shed", static_cast<double>(A.Shed - B.Shed));
  Rep.metric("trace.overhead_us", P50Us - UntracedP50Us);

  Rep.info("breakdown.latency_p50_us", P50Us, "us", "traced");
  for (auto [Name, V] : {std::pair<const char *, double>{"wire", Wire},
                         {"queue", Queue},
                         {"parse", Parse},
                         {"key", Key},
                         {"compile", Compile},
                         {"interp_setup", Setup},
                         {"run", Run},
                         {"unattributed", Unattributed}})
    Rep.info(std::string("breakdown.") + Name + "_us", V, "us");
}

void writeTrace(const Options &O, Report &Rep) {
  std::string Path = O.OutDir + "/trace-" + O.Workload + "-" +
                     std::to_string(O.Seed) + ".json";
  if (!Tracer::get().writeChromeTrace(Path))
    Rep.fail("cannot write the span trace to " + Path);
  Rep.meta("trace_file", Path);
}

/// One request of a stream: a pool program and the variant it is sent
/// as (see requestLine).
struct Ticket {
  const PoolProgram *P = nullptr;
  uint64_t Variant = 0;
};

/// Starts a server and warms its cache with \p Warm (every request in
/// flight together). Returns the set-up wall time.
double startAndWarm(std::unique_ptr<serve::Server> &S, size_t CacheCapacity,
                    const std::vector<Ticket> &Warm, Report &Rep,
                    uint64_t &NextId, int64_t *FuelSum = nullptr) {
  S.reset();
  // Lines are built before the clock starts: they are the client's
  // bytes, not set-up work.
  std::vector<std::string> Lines;
  for (const Ticket &T : Warm) {
    uint64_t Id = NextId++;
    Lines.push_back(requestLine(Id, tenantOf(Id), *T.P, T.Variant));
  }
  int64_t T0 = nowNs();
  S = std::make_unique<serve::Server>(serverOptions(CacheCapacity));
  std::vector<std::pair<size_t, std::future<serve::Reply>>> Fs;
  for (size_t I = 0; I < Lines.size(); ++I) {
    std::string Err;
    auto R = wireIn(Lines[I], Err);
    if (!R) {
      Rep.op(Err);
      continue;
    }
    Fs.emplace_back(I, S->submit(std::move(*R)));
  }
  std::vector<std::pair<size_t, serve::Reply>> Replies;
  for (auto &[I, F] : Fs)
    Replies.emplace_back(I, F.get());
  double Wall = static_cast<double>(nowNs() - T0) * 1e-9;
  for (const auto &[I, R] : Replies) {
    Rep.op(checkReply(R, *Warm[I].P));
    if (FuelSum)
      *FuelSum += R.Tele.FuelSpent;
  }
  return Wall;
}

/// The p50 of a phase's request latencies.
double latencyP50(const PhaseResult &P) {
  return median(field(P.Reqs, &Done::LatencyUs));
}

/// Every figure is taken over the whole measured phase. On the shared
/// virtual machine this benchmark was built on, the host's speed drifted
/// by up to a third over a few seconds; a whole-phase median or mean
/// averages those states, and spread less from run to run than low
/// quantiles or the fastest windows did (see README.md).
void reportEndToEnd(Report &Rep, const std::vector<double> &SetupS,
                    double PeakRssMb, const PhaseResult &P) {
  Rep.metric("setup_s", median(SetupS));
  Rep.metric("peak_rss_mb", PeakRssMb);
  Rep.metric("cpu_us_per_req",
             P.CpuS * 1e6 /
                 static_cast<double>(std::max<size_t>(P.Reqs.size(), 1)));
  Rep.metric("latency_us", latencyP50(P));
  Rep.metric("bytecode_kernel_ms", runMsPerProgram(P.Reqs));
  Rep.info("latency_p90_us", quantile(field(P.Reqs, &Done::LatencyUs), 0.9),
           "us", UngatedNote);
  Rep.info("throughput_rps", static_cast<double>(P.Reqs.size()) / P.WallS,
           "1/s", UngatedNote);
}

void reportInfo(Report &Rep, const PhaseResult &P) {
  std::vector<double> Lat = field(P.Reqs, &Done::LatencyUs);
  size_t N = Lat.size();
  Rep.info("whole_phase.latency_p50_us", quantile(Lat, 0.5), "us");
  Rep.info("whole_phase.latency_p90_us", quantile(Lat, 0.9), "us");
  Rep.info("whole_phase.latency_p99_us", quantile(Lat, 0.99), "us",
           std::to_string(N) + " samples, " +
               std::to_string(N - static_cast<size_t>(std::ceil(0.99 * N))) +
               " beyond p99");
  Rep.info("failed_share",
           static_cast<double>(Rep.failed()) /
               static_cast<double>(std::max<int64_t>(Rep.attempted(), 1)),
           "ratio");
  Rep.info("native_kernel_ms", 0, "ms", "not exercised (bytecode serving)");
  Rep.info("native_compile_s", 0, "s", "not exercised (bytecode serving)");
}

} // namespace

int runServeCold(const Options &O) {
  Report Rep(O);
  std::mutex RepMu;
  // The never-seen stream: ColdBasePrograms generated programs (seeds
  // from the run seed, kept when they pass hygiene, one per canonical
  // key), each sent under successive names - request K is program
  // K mod ColdBasePrograms as variant K / ColdBasePrograms. Every
  // request is a new canonical key; the server parses, compiles and
  // caches each one from scratch. Generated on four threads before
  // anything is timed.
  std::vector<std::optional<PoolProgram>> Slots(ColdBasePrograms * 2);
  {
    uint64_t Base = (O.Seed + 1) * 0x9E3779B97F4A7C15ull;
    std::vector<std::thread> Gen;
    for (size_t T = 0; T < 4; ++T)
      Gen.emplace_back([&, T] {
        for (size_t I = T; I < Slots.size(); I += 4)
          Slots[I] = admitGenerated(Base + I);
      });
    for (std::thread &T : Gen)
      T.join();
  }
  std::vector<PoolProgram> Stream;
  Stream.reserve(ColdBasePrograms);
  std::set<uint64_t> Keys;
  size_t Tried = 0;
  for (auto &P : Slots) {
    ++Tried;
    if (P && Keys.insert(P->Key).second)
      Stream.push_back(std::move(*P));
    if (Stream.size() == ColdBasePrograms)
      break;
  }
  Slots.clear();
  Slots.shrink_to_fit();
  resetPeakRss();
  Rep.meta("cold_programs", std::to_string(Stream.size()) + " programs (" +
                                std::to_string(Tried) +
                                " generator seeds tried)");
  if (Stream.size() < ColdCacheCapacity) {
    Rep.fail("the generator produced too few programs");
    return Rep.finish();
  }
  auto ticket = [&](size_t K) {
    return Ticket{&Stream[K % Stream.size()], K / Stream.size()};
  };

  // Set-up: server starts, each warming a full cache with its own
  // never-seen requests (tickets below SetupReps * ColdCacheCapacity),
  // so the measured phase evicts on every insert. The first set-up
  // starts the measured server; every later one a server of its own.
  IdlePollers Pollers;
  std::unique_ptr<serve::Server> S;
  uint64_t NextId = 1;
  std::vector<double> SetupS;
  int64_t WarmFuel = 0;
  auto setUpGap = [&] {
    std::unique_ptr<serve::Server> Probe;
    for (size_t I = 0; I < SetupRepsPerGap; ++I) {
      size_t Index = SetupS.size();
      std::vector<Ticket> Warm;
      for (size_t K = Index * ColdCacheCapacity;
           K < (Index + 1) * ColdCacheCapacity; ++K)
        Warm.push_back(ticket(K));
      SetupS.push_back(startAndWarm(S ? Probe : S, ColdCacheCapacity, Warm,
                                    Rep, NextId, &WarmFuel));
    }
  };
  std::atomic<size_t> Cursor{SetupReps * ColdCacheCapacity};
  std::atomic<size_t> Completed{0};
  double PeakRss = 0;

  // Closed loop: two clients, each on its own thread, each sending its
  // next program the moment its previous reply is out.
  auto closedLoop = [&](double Seconds, PhaseResult &Into) {
    if (Into.SegmentsRun++ == 0)
      Into.Before = S->stats();
    std::atomic<uint64_t> Id{NextId};
    double Cpu0 = cpuSeconds() - Pollers.cpuSeconds();
    int64_t T0 = nowNs();
    int64_t End = T0 + static_cast<int64_t>(Seconds * 1e9);
    auto Client = [&] {
      while (nowNs() < End) {
        Ticket Tk = ticket(Cursor.fetch_add(1));
        Trip T;
        T.Id = Id.fetch_add(1);
        T.Prog = static_cast<size_t>(Tk.P - Stream.data());
        std::string Line = requestLine(T.Id, tenantOf(T.Id), *Tk.P, Tk.Variant);
        auto F = sendLine(*S, Line, T, Rep, RepMu);
        if (!F)
          continue;
        serve::Reply R = [&] {
          Span Sp("serve.wait", static_cast<int64_t>(T.Id));
          return F->get();
        }();
        T.Got = nowNs();
        if (R.Tele.CacheHit) {
          std::lock_guard<std::mutex> L(RepMu);
          Rep.fail(Tk.P->Name + ": a never-seen program hit the cache");
        }
        finishTrip(std::move(R), T, *Tk.P, Rep, RepMu, Into);
        if (Completed.fetch_add(1) + 1 == ColdRssAfterRequests)
          PeakRss = peakRssMb();
      }
    };
    std::thread Second(Client);
    Client();
    Second.join();
    NextId = Id.load();
    Into.WallS += static_cast<double>(nowNs() - T0) * 1e-9;
    Into.CpuS += cpuSeconds() - Pollers.cpuSeconds() - Cpu0;
    Into.After = S->stats();
  };

  // The measured phase, in segments with set-ups in between; a traced
  // run's second half is traced.
  const double SegSeconds = O.Seconds / Segments;
  PhaseResult Untraced, Traced;
  // Above any rate this loop reaches, so the records never reallocate:
  // untouched capacity is never resident, and the peak RSS grows with
  // the requests served, not in doubling steps.
  for (PhaseResult *P : {&Untraced, &Traced})
    P->Reqs.reserve(static_cast<size_t>(O.Seconds * 50000));
  size_t FirstTraced = 0;
  for (size_t G = 0; G < Segments; ++G) {
    setUpGap();
    bool T = O.Trace && G >= Segments / 2;
    if (T && Traced.SegmentsRun == 0)
      FirstTraced = Cursor.load();
    Tracer::get().setEnabled(T);
    closedLoop(SegSeconds, T ? Traced : Untraced);
    Tracer::get().setEnabled(false);
  }
  setUpGap();
  // A model counter that must repeat across runs of this build and seed.
  Rep.checkCounterDrift(
      {{"serve_cold.warmup_fuel", static_cast<double>(WarmFuel)}});
  const PhaseResult &Main = O.Trace ? Traced : Untraced;
  if (PeakRss == 0) {
    PeakRss = peakRssMb();
    Rep.info("rss_read_at_end", 1, "flag",
             "fewer than " + std::to_string(ColdRssAfterRequests) +
                 " requests were measured");
  }
  if (!O.Trace) {
    reportEndToEnd(Rep, SetupS, PeakRss, Main);
  } else {
    RequestReplay RR;
    std::vector<size_t> ReplayProgs;
    for (size_t K = FirstTraced;
         K < Cursor.load() && ReplayProgs.size() < ReplayRequests / 2; ++K)
      ReplayProgs.push_back(K % Stream.size());
    Tracer::get().setEnabled(true);
    replayRequests(Stream, ReplayProgs, /*CompileEvery=*/true, Rep, RR);
    Tracer::get().setEnabled(false);
    serveLayers(Rep, Traced, latencyP50(Traced), latencyP50(Untraced), RR);
    writeTrace(O, Rep);
  }
  reportInfo(Rep, Main);
  S.reset();
  return Rep.finish();
}

} // namespace perfbench
