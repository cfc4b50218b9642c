//===- bench/GoogleBenchAdapter.h - BenchReporter x google-benchmark -----===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue for the two google-benchmark binaries: a ConsoleReporter subclass
/// that mirrors every finished run into a BenchReporter, and a shared
/// main() body. Wall-clock-derived numbers (real time, rate counters)
/// are recorded ungated; plain user counters (e.g. lane_slots) are
/// deterministic schedule outputs and gate perf_compare.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_BENCH_GOOGLEBENCHADAPTER_H
#define SIMDFLAT_BENCH_GOOGLEBENCHADAPTER_H

#include "bench/BenchReporter.h"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

namespace simdflat {
namespace bench {

/// Forwards console output unchanged and records each per-iteration run
/// into the BenchReporter.
class RecordingReporter : public benchmark::ConsoleReporter {
public:
  explicit RecordingReporter(BenchReporter &Rep) : Rep(Rep) {}

  void ReportRuns(const std::vector<Run> &Reports) override {
    benchmark::ConsoleReporter::ReportRuns(Reports);
    for (const Run &R : Reports) {
      if (R.run_type != Run::RT_Iteration || R.error_occurred)
        continue;
      std::string Case = R.benchmark_name();
      Rep.record(Case, "real_time_ns", R.GetAdjustedRealTime(), "ns",
                 /*Gate=*/false);
      for (const auto &[Name, Counter] : R.counters) {
        // A rate (items_per_second) is wall-derived, so informational,
        // and more is better: perf_compare reads the direction from the
        // baseline row.
        bool Rate = (Counter.flags & benchmark::Counter::kIsRate) != 0;
        Rep.record(Case, Name, Counter.value, Rate ? "per_s" : "",
                   /*Gate=*/!Rate,
                   Rate ? Direction::HigherIsBetter
                        : Direction::LowerIsBetter);
      }
    }
  }

private:
  BenchReporter &Rep;
};

/// Runs google-benchmark with BenchReporter's leftover argv; smoke mode
/// shortens each measurement (1.7.x flag form: a plain double).
inline int runGoogleBenchmarks(BenchReporter &Rep) {
  std::vector<char *> Args(Rep.argv(), Rep.argv() + Rep.argc());
  std::string MinTime = "--benchmark_min_time=0.01";
  if (Rep.smoke())
    Args.push_back(MinTime.data());
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data())) {
    Rep.setPassed(false);
    return Rep.finish(1);
  }
  RecordingReporter Recorder(Rep);
  size_t Ran = benchmark::RunSpecifiedBenchmarks(&Recorder);
  benchmark::Shutdown();
  Rep.setPassed(Ran > 0);
  return Rep.finish(Ran > 0 ? 0 : 1);
}

} // namespace bench
} // namespace simdflat

#endif // SIMDFLAT_BENCH_GOOGLEBENCHADAPTER_H
