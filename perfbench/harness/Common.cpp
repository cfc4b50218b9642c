//===- perfbench/harness/Common.cpp ----------------------------*- C++ -*-===//
//
// Part of simdflat's wall-clock benchmark. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "frontend/GotoRecovery.h"
#include "ir/Verify.h"
#include "ir/Walk.h"
#include "transform/Flatten.h"
#include "transform/Pipeline.h"
#include "transform/Simdize.h"
#include "transform/Simplify.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

namespace fs = std::filesystem;

namespace perfbench {

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(Q * static_cast<double>(V.size()));
  size_t Idx = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-300));
  return std::exp(LogSum / static_cast<double>(V.size()));
}

const std::vector<MetricSpec> &endToEndMetrics() {
  static const std::vector<MetricSpec> M = {{"setup_s", "s"},
                                            {"peak_rss_mb", "MB"},
                                            {"cpu_us_per_req", "us"},
                                            {"latency_us", "us"},
                                            {"bytecode_kernel_ms", "ms"}};
  return M;
}

const std::vector<MetricSpec> &perLayerMetrics() {
  static const std::vector<MetricSpec> M = [] {
    std::vector<MetricSpec> V = {
        {"frontend.parse_us", "us"},       {"transform.canonical_key_us", "us"},
        {"transform.pipeline_us", "us"},   {"transform.flatten_us", "us"},
        {"transform.simdize_us", "us"},    {"transform.simplify_us", "us"},
        {"transform.verify_us", "us"},     {"exec.lower_us", "us"}};
    auto PerKernel = [&](const std::string &Prefix, const std::string &Unit,
                         bool FlooredOnly = false) {
      for (const KernelInfo &K : KernelTable)
        if (K.HasFloor || !FlooredOnly)
          V.push_back({Prefix + K.Name, Unit});
    };
    PerKernel("exec.bytecode_instrs.", "count");
    V.push_back({"interp.setup_us", "us"});
    for (const KernelInfo &K : KernelTable) {
      V.push_back({std::string("interp.run_ms.") + K.Name + ".bytecode", "ms"});
      V.push_back({std::string("interp.run_ms.") + K.Name + ".native", "ms"});
    }
    PerKernel("interp.instructions.", "count");
    PerKernel("interp.lane_utilization.", "ratio");
    PerKernel("codegen.emit_us.", "us");
    PerKernel("codegen.emit_bytes.", "bytes");
    PerKernel("codegen.host_compile_s.", "s");
    V.push_back({"codegen.native_compile_s", "s"});
    V.push_back({"codegen.artifact_bytes", "bytes"});
    V.push_back({"codegen.jit_failures", "count"});
    PerKernel("codegen.native_over_floor.", "ratio", true);
    PerKernel("native.floor_ms.", "ms", true);
    for (const char *N : {"serve.wire_us", "serve.queue_us", "serve.compile_us",
                          "serve.run_us", "serve.unattributed_us"})
      V.push_back({N, "us"});
    V.push_back({"serve.cache_hit_ratio", "ratio"});
    V.push_back({"serve.cache_evictions", "count"});
    V.push_back({"serve.shed", "count"});
    V.push_back({"trace.overhead_us", "us"});
    return V;
  }();
  return M;
}

double cpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Key;
  while (In >> Key) {
    if (Key == "VmHWM:") {
      double Kib = 0;
      In >> Kib;
      return Kib / 1024.0;
    }
    In.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux
}

void resetPeakRss() {
#ifdef __GLIBC__
  // Hand the generator's freed blocks back first, or they stay resident.
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

uint64_t fnv1a(const std::string &Bytes, uint64_t H) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {

struct ThreadBuf {
  int Tid = 0;
  std::vector<SpanRec> Spans;
};

struct Registry {
  std::mutex Mu;
  std::vector<std::shared_ptr<ThreadBuf>> Bufs;
  std::atomic<int64_t> NextId{1};
};

Registry &registry() {
  static Registry R;
  return R;
}

ThreadBuf &myBuf() {
  thread_local std::shared_ptr<ThreadBuf> Mine;
  if (!Mine) {
    Mine = std::make_shared<ThreadBuf>();
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mu);
    Mine->Tid = static_cast<int>(R.Bufs.size()) + 1;
    Mine->Spans.reserve(1 << 14);
    R.Bufs.push_back(Mine);
  }
  return *Mine;
}

thread_local std::vector<int64_t> OpenSpans;

} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

int64_t Tracer::newId() { return registry().NextId.fetch_add(1); }

void Tracer::record(const SpanRec &R) {
  ThreadBuf &B = myBuf();
  B.Spans.push_back(R);
  B.Spans.back().Tid = B.Tid;
}

std::vector<SpanRec> Tracer::collect() const {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  std::vector<SpanRec> All;
  for (const auto &B : R.Bufs)
    All.insert(All.end(), B->Spans.begin(), B->Spans.end());
  return All;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::vector<SpanRec> All = collect();
  int64_t T0 = All.empty() ? 0 : All.front().StartNs;
  for (const SpanRec &S : All)
    T0 = std::min(T0, S.StartNs);
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  Out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char Buf[512];
  for (size_t I = 0; I < All.size(); ++I) {
    const SpanRec &S = All[I];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%lld,\"parent\":%lld,\"req\":%lld}}%s\n",
                  S.Name, S.Tid, static_cast<double>(S.StartNs - T0) * 1e-3,
                  static_cast<double>(S.EndNs - S.StartNs) * 1e-3,
                  static_cast<long long>(S.Id),
                  static_cast<long long>(S.Parent),
                  static_cast<long long>(S.Req),
                  I + 1 == All.size() ? "" : ",");
    Out << Buf;
  }
  Out << "]}\n";
  return static_cast<bool>(Out.flush());
}

Span::Span(const char *Name, int64_t Req) : Active(Tracer::get().enabled()) {
  if (!Active)
    return;
  Rec.Id = Tracer::get().newId();
  Rec.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  Rec.Name = Name;
  Rec.Req = Req;
  OpenSpans.push_back(Rec.Id);
  Rec.StartNs = nowNs();
}

Span::~Span() {
  if (!Active)
    return;
  Rec.EndNs = nowNs();
  OpenSpans.pop_back();
  Tracer::get().record(Rec);
}

void recordSpan(const char *Name, int64_t Id, int64_t StartNs,
                int64_t EndNs, int64_t Req) {
  if (!Tracer::get().enabled())
    return;
  SpanRec R;
  R.Id = Id;
  R.Name = Name;
  R.StartNs = StartNs;
  R.EndNs = EndNs;
  R.Req = Req;
  Tracer::get().record(R);
}

//===----------------------------------------------------------------------===//
// Stage replay
//===----------------------------------------------------------------------===//

void replayStages(const simdflat::ir::Program &P,
                  const simdflat::transform::PipelineOptions &PO,
                  StageReplay &Out) {
  using namespace simdflat;
  Span Whole("transform.stage_replay");
  ir::Program Work = ir::cloneProgram(P);
  frontend::recoverGotoLoops(Work);
  double VerifyUs = 0;
  auto Verify = [&](const ir::Program &Q) {
    Span S("transform.verify");
    int64_t T0 = nowNs();
    bool Ok = ir::verifyProgram(Q).empty();
    VerifyUs += static_cast<double>(nowNs() - T0) * 1e-3;
    return Ok;
  };
  Verify(Work);
  transform::FlattenOptions FO;
  FO.AssumeInnerMinOneTrip = PO.AssumeInnerMinOneTrip;
  FO.DistributeOuter = PO.Layout;
  int64_t T0 = nowNs();
  {
    Span S("transform.flatten");
    transform::flattenNest(Work, FO);
  }
  Out.FlattenUs.push_back(static_cast<double>(nowNs() - T0) * 1e-3);
  Verify(Work);
  transform::SimdizeOptions SO;
  SO.DoAllLayout = PO.Layout;
  T0 = nowNs();
  ir::Program Simd = [&] {
    Span S("transform.simdize");
    return transform::simdize(Work, SO);
  }();
  Out.SimdizeUs.push_back(static_cast<double>(nowNs() - T0) * 1e-3);
  Verify(Simd);
  T0 = nowNs();
  {
    Span S("transform.simplify");
    transform::simplifyProgram(Simd);
  }
  Out.SimplifyUs.push_back(static_cast<double>(nowNs() - T0) * 1e-3);
  Verify(Simd);
  Out.VerifyUs.push_back(VerifyUs);
}

//===----------------------------------------------------------------------===//
// Private JIT directory
//===----------------------------------------------------------------------===//

PrivateJitDir::PrivateJitDir(const std::string &Parent) {
  if (const char *Old = std::getenv("TMPDIR"))
    OldTmpDir = Old;
  std::error_code EC;
  fs::create_directories(Parent, EC);
  std::string Templ = (fs::absolute(Parent, EC) / "jit-XXXXXX").string();
  std::vector<char> Buf(Templ.begin(), Templ.end());
  Buf.push_back('\0');
  // mkdtemp creates the directory 0700: nobody else can plant an
  // artifact in it.
  if (!::mkdtemp(Buf.data()))
    return;
  Path = Buf.data();
  ::setenv("SIMDFLAT_JIT_DIR", Path.c_str(), 1);
  ::setenv("TMPDIR", Path.c_str(), 1);
}

PrivateJitDir::~PrivateJitDir() {
  if (Path.empty())
    return;
  ::unsetenv("SIMDFLAT_JIT_DIR");
  if (OldTmpDir)
    ::setenv("TMPDIR", OldTmpDir->c_str(), 1);
  else
    ::unsetenv("TMPDIR");
  std::error_code EC;
  fs::remove_all(Path, EC);
}

//===----------------------------------------------------------------------===//
// Idle pollers
//===----------------------------------------------------------------------===//

struct IdlePollers::State {
  std::atomic<bool> On{true};
  std::vector<std::thread> Threads;
  std::mutex Mu;
  /// Guarded by Mu.
  std::vector<clockid_t> Clocks;
  size_t Started = 0;
};

IdlePollers::IdlePollers() : S(std::make_unique<State>()) {
  unsigned N = std::max(1u, std::thread::hardware_concurrency());
  try {
    for (unsigned I = 0; I < N; ++I)
      S->Threads.emplace_back([St = S.get()] {
        sched_param P{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &P);
        {
          clockid_t C;
          std::lock_guard<std::mutex> L(St->Mu);
          if (pthread_getcpuclockid(pthread_self(), &C) == 0)
            St->Clocks.push_back(C);
          ++St->Started;
        }
        while (St->On.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
  } catch (...) {
    stop();
    throw;
  }
  // Every poller's clock is known before anyone reads cpuSeconds().
  for (;;) {
    {
      std::lock_guard<std::mutex> L(S->Mu);
      if (S->Started == S->Threads.size())
        break;
    }
    std::this_thread::yield();
  }
}

IdlePollers::~IdlePollers() { stop(); }

void IdlePollers::stop() {
  S->On = false;
  for (std::thread &T : S->Threads)
    if (T.joinable())
      T.join();
}

double IdlePollers::cpuSeconds() const {
  std::lock_guard<std::mutex> L(S->Mu);
  double Sum = 0;
  for (clockid_t C : S->Clocks) {
    timespec T{};
    if (clock_gettime(C, &T) == 0)
      Sum += static_cast<double>(T.tv_sec) +
             static_cast<double>(T.tv_nsec) * 1e-9;
  }
  return Sum;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::metric(const std::string &Name, double Value) {
  const std::vector<MetricSpec> &Table =
      Opts.Trace ? perLayerMetrics() : endToEndMetrics();
  if (std::none_of(Table.begin(), Table.end(),
                   [&](const MetricSpec &M) { return M.Name == Name; }))
    fail("metric " + Name + " is not in the benchmark's metric table");
  if (!std::isfinite(Value)) {
    fail("metric " + Name + " is not a finite number");
    Value = 0.0;
  }
  Metrics[Name] = Value;
}

void Report::info(const std::string &Name, double Value,
                  const std::string &Unit, const std::string &Note) {
  Infos.push_back({Name, Value, Unit, Note});
}

void Report::meta(const std::string &Key, const std::string &Value) {
  Meta.emplace_back(Key, Value);
}

void Report::op(const std::string &Error) {
  ++Attempted;
  if (!Error.empty()) {
    ++Failed;
    if (Errors.size() < 20)
      Errors.push_back(Error);
  }
}

void Report::fail(const std::string &Error) {
  HardFailure = true;
  if (Errors.size() < 20)
    Errors.push_back(Error);
}

void Report::checkCounterDrift(
    const std::map<std::string, double> &Counters) {
  std::ifstream Exe("/proc/self/exe", std::ios::binary);
  std::stringstream Bytes;
  Bytes << Exe.rdbuf();
  char Build[32];
  std::snprintf(Build, sizeof(Build), "%016llx",
                static_cast<unsigned long long>(fnv1a(Bytes.str())));
  meta("build_id", Build);

  std::error_code EC;
  fs::path Dir = fs::path(Opts.OutDir) / "counters";
  fs::create_directories(Dir, EC);
  fs::path File = Dir / (std::string(Build) + "-" + Opts.Workload + "-" +
                         std::to_string(Opts.Seed) + ".txt");
  std::map<std::string, double> Before;
  {
    std::ifstream In(File);
    std::string Name;
    double V = 0;
    while (In >> Name >> V)
      Before[Name] = V;
  }
  // A counter is compared when an earlier run recorded it too (a traced
  // run may record counters the untraced one does not).
  std::map<std::string, double> Union = Before;
  for (const auto &[Name, V] : Counters) {
    auto [It, New] = Union.emplace(Name, V);
    if (New || It->second == V)
      continue;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "model counter drift: %s = %.17g, an earlier run of this "
                  "build and seed recorded %.17g",
                  Name.c_str(), V, It->second);
    fail(Buf);
  }
  meta("counter_record", Before.empty() ? "written" : "compared");
  if (Union.size() == Before.size())
    return;
  fs::path Tmp = File;
  Tmp += ".tmp" + std::to_string(::getpid());
  {
    std::ofstream Out(Tmp, std::ios::trunc);
    char Buf[64];
    for (const auto &[Name, V] : Union) {
      std::snprintf(Buf, sizeof(Buf), "%.17g", V);
      Out << Name << " " << Buf << "\n";
    }
  }
  fs::rename(Tmp, File, EC);
}

int Report::finish() {
  const std::vector<MetricSpec> &Table =
      Opts.Trace ? perLayerMetrics() : endToEndMetrics();
  std::vector<Row> Rows;
  // A run that failed a check may stop before measuring anything; only
  // a complete one must report every end-to-end metric.
  bool Measured = ok();
  for (const MetricSpec &M : Table) {
    auto It = Metrics.find(M.Name);
    if (It != Metrics.end() || Opts.Trace)
      Rows.push_back(
          {M.Name, It == Metrics.end() ? 0.0 : It->second, M.Unit, ""});
    else if (Measured)
      fail("end-to-end metric " + M.Name + " was not measured");
  }
  bool Correct = Failed == 0 && !HardFailure;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              Opts.Workload.c_str(),
              static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
              Opts.Trace ? 1 : 0);
  for (const auto &[K, V] : Meta)
    std::printf("  meta %-28s %s\n", K.c_str(), V.c_str());
  std::printf("  %-40s %16s  %s\n", Opts.Trace ? "per-layer metric" :
                                                 "end-to-end metric",
              "value", "unit");
  for (const Row &R : Rows)
    std::printf("  %-40s %16.6g  %s\n", R.Name.c_str(), R.Value,
                R.Unit.c_str());
  if (!Infos.empty()) {
    std::printf("  %-40s %16s  %s\n", "also measured", "value", "unit");
    for (const Row &R : Infos)
      std::printf("  %-40s %16.6g  %s%s%s\n", R.Name.c_str(), R.Value,
                  R.Unit.c_str(), R.Note.empty() ? "" : "  ",
                  R.Note.c_str());
  }
  std::printf("  operations: %lld attempted, %lld failed\n",
              static_cast<long long>(Attempted),
              static_cast<long long>(Failed));
  for (const std::string &E : Errors)
    std::printf("  FAILED: %s\n", E.c_str());

  std::string Line = "{\"correct\": ";
  Line += Correct ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(std::max<int64_t>(Attempted, 1));
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  char Buf[128];
  for (size_t I = 0; I < Rows.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", Rows[I].Value);
    Line += (I ? ", \"" : "\"") + Rows[I].Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + Rows[I].Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

} // namespace perfbench
