//===- perfbench/harness/Common.h - Shared benchmark plumbing ---*- C++ -*-===//
//
// Part of simdflat's wall-clock benchmark. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: command-line options, clocks and order
/// statistics, process counters (CPU time, peak RSS), the span recorder
/// for traced runs, the private JIT directory, and the result printer
/// that ends every run with the one-line JSON verdict.
///
/// Spans are recorded only by the benchmark, around calls into the
/// program's public functions; nothing inside the program is traced.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace simdflat {
namespace ir {
class Program;
} // namespace ir
namespace transform {
struct PipelineOptions;
} // namespace transform
} // namespace simdflat

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  /// Length of the measured phase.
  double Seconds = 10.0;
  /// Per-layer run: spans on, stage and request replays, per-layer
  /// metrics instead of end-to-end ones.
  bool Trace = false;
  /// Directory for traces, counter records and the private JIT dir.
  std::string OutDir = ".bench_build/perfbench";
};

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// \name Order statistics (inputs by value: they are sorted in place).
/// @{
double median(std::vector<double> V);
/// Nearest-rank quantile, \p Q in (0, 1]; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);
/// @}

/// The kernels workload's kernels in run order, and which of them have
/// a hand-written native floor. The per-layer metric names are built
/// from this one table.
struct KernelInfo {
  const char *Name;
  bool HasFloor;
};
inline constexpr KernelInfo KernelTable[] = {{"nbforce", true},
                                             {"mandelbrot", true},
                                             {"spmv", true},
                                             {"region_grow", false}};
inline constexpr size_t NumKernels = std::size(KernelTable);

/// A metric's name and unit.
struct MetricSpec {
  std::string Name, Unit;
};
/// Every end-to-end metric, which every workload reports.
const std::vector<MetricSpec> &endToEndMetrics();
/// Every per-layer metric. A layer a workload does not exercise reads
/// 0 there: the report fills in whatever the workload left out.
const std::vector<MetricSpec> &perLayerMetrics();

/// CPU time (user + system) of this process so far, in seconds.
double cpuSeconds();
/// Peak resident set size of this process (VmHWM), in MB.
double peakRssMb();
/// Restarts the peak-RSS count at the current resident size, so the
/// benchmark's own input generation does not set the peak.
void resetPeakRss();

/// 64-bit FNV-1a over \p Bytes.
uint64_t fnv1a(const std::string &Bytes, uint64_t H = 1469598103934665603ull);

/// One recorded span: a call into the program, timed from outside.
struct SpanRec {
  int64_t Id = 0;
  /// Enclosing span on the same thread; -1 for a root.
  int64_t Parent = -1;
  const char *Name = "";
  int Tid = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  /// Request id for serve spans, -1 otherwise.
  int64_t Req = -1;
};

/// Process-wide span store. Each thread appends to its own buffer, so
/// recording takes no lock; collect() merges the buffers after the
/// recording threads have been joined.
class Tracer {
public:
  static Tracer &get();
  bool enabled() const { return On; }
  void setEnabled(bool E) { On = E; }
  int64_t newId();
  void record(const SpanRec &R);
  std::vector<SpanRec> collect() const;
  /// Writes every span as Chrome trace-event JSON ("X" events).
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool On = false;
};

/// RAII span on the current thread, nested in the thread's innermost
/// open span. Free when tracing is off.
class Span {
public:
  explicit Span(const char *Name, int64_t Req = -1);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  bool Active;
  SpanRec Rec;
};

/// Records a span whose interval was measured elsewhere (a request's
/// line-in to reply-out lifetime, spanning threads).
void recordSpan(const char *Name, int64_t Id, int64_t StartNs,
                int64_t EndNs, int64_t Req);

/// A fresh, empty, owner-only directory that SIMDFLAT_JIT_DIR and
/// TMPDIR point at while it lives; removed with its contents on
/// destruction, so every owner compiles cold.
class PrivateJitDir {
public:
  explicit PrivateJitDir(const std::string &Parent);
  ~PrivateJitDir();
  PrivateJitDir(const PrivateJitDir &) = delete;
  PrivateJitDir &operator=(const PrivateJitDir &) = delete;
  bool ok() const { return !Path.empty(); }

private:
  std::string Path;
  std::optional<std::string> OldTmpDir;
};

/// Keeps every vCPU polling while it lives: one SCHED_IDLE spinner per
/// CPU, which runs only when nothing else wants that CPU. On a virtual
/// machine whose guest idles with HLT (no cpuidle-haltpoll driver), a
/// thread woken on an idle vCPU first waits for the host to resume that
/// vCPU - a host-dependent delay that swamped serve latencies and
/// changed from run to run. With the pollers, a wake-up
/// preempts a spinner inside the guest instead. Their CPU time is
/// reported separately so it can be left out of the program's.
class IdlePollers {
public:
  IdlePollers();
  ~IdlePollers();
  IdlePollers(const IdlePollers &) = delete;
  IdlePollers &operator=(const IdlePollers &) = delete;
  /// CPU seconds the pollers have used so far.
  double cpuSeconds() const;

private:
  struct State;
  void stop();
  std::unique_ptr<State> S;
};

/// Collects a run's metrics and failures and prints the verdict: a
/// human-readable block, then, as the last line of stdout, the JSON
/// object {"correct", "attempted", "failed", "metrics"}.
class Report {
public:
  explicit Report(const Options &O) : Opts(O) {}

  /// A metric of the JSON verdict: one of endToEndMetrics() with
  /// --trace 0, one of perLayerMetrics() with --trace 1. The verdict
  /// lists them in table order; a missing end-to-end metric fails the
  /// run, a missing per-layer one reads 0.
  void metric(const std::string &Name, double Value);
  /// A figure printed in the human-readable block only.
  void info(const std::string &Name, double Value, const std::string &Unit,
            const std::string &Note = "");
  void meta(const std::string &Key, const std::string &Value);

  /// One checked operation; \p Error empty means it was right.
  void op(const std::string &Error = "");
  /// A failed check that is not an operation (set-up, counter drift).
  void fail(const std::string &Error);

  int64_t attempted() const { return Attempted; }
  /// No operation and no other check has failed so far.
  bool ok() const { return Failed == 0 && !HardFailure; }
  int64_t failed() const { return Failed; }

  /// Fails unless this run's model counters match the ones an earlier
  /// run of the same build and seed recorded.
  void checkCounterDrift(const std::map<std::string, double> &Counters);

  /// Prints everything; returns the process exit code (0 only when
  /// every check passed).
  int finish();

private:
  struct Row {
    std::string Name;
    double Value;
    std::string Unit;
    std::string Note;
  };
  const Options &Opts;
  std::map<std::string, double> Metrics;
  std::vector<Row> Infos;
  std::vector<std::pair<std::string, std::string>> Meta;
  std::vector<std::string> Errors;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  bool HardFailure = false;
};

/// Per-program stage times of a replay of the pipeline through its
/// public stage functions - recoverGotoLoops, flattenNest, simdize,
/// simplifyProgram, with verifyProgram after each - so every stage's
/// cost shows on its own (compileForSimd reports none).
struct StageReplay {
  std::vector<double> FlattenUs, SimdizeUs, SimplifyUs, VerifyUs;
};
void replayStages(const simdflat::ir::Program &P,
                  const simdflat::transform::PipelineOptions &PO,
                  StageReplay &Out);

/// Printed beside figures that are measured and printed on every run but
/// are not JSON metrics (latency_p90_us, throughput_rps, and on kernels
/// the native runs' p50): on the shared 4-vCPU machine this benchmark was
/// built on, their spread across identical runs came too close to, or
/// past, the largest bound a metric may have (see README.md).
inline constexpr const char *UngatedNote = "not gated: see README";

/// Workload entry points (Kernels.cpp, Serve.cpp).
int runKernels(const Options &O);
int runServeCold(const Options &O);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
