//===- bench/bench_engine_dispatch.cpp -------------------------*- C++ -*-===//
//
// Measures what the lowered execution core buys over the tree-walk
// interpreter on three interpreter-bound workloads (EXAMPLE, Mandelbrot
// escape iteration, region growing), each compiled once through the
// full flattening pipeline and then executed repeatedly under both
// interpreters (tree, bytecode). The model counters (steps, cycles,
// utilization) must be identical across engines - they are the gated
// metrics perf_compare diffs across commits - while the wall-clock
// ratio tree/bytecode is the measured dispatch speedup (ungated: CI
// hardware varies). The scalar and MIMD EXAMPLE rows gate the counters
// of one run of those tree-only baselines.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchReporter.h"
#include "interp/MimdInterp.h"
#include "interp/SimdInterp.h"
#include "support/Format.h"
#include "support/Table.h"
#include "transform/Pipeline.h"
#include "workloads/Mandelbrot.h"
#include "workloads/PaperKernels.h"
#include "workloads/RegionGrow.h"
#include "workloads/TripCounts.h"

#include <algorithm>
#include <cstdio>
#include <functional>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::ir;
using namespace simdflat::workloads;

namespace {

/// One measured workload: a pipeline-compiled program plus its input
/// seeding and the lane count it runs on.
struct Workload {
  std::string Name;
  transform::CompiledSimdProgram Compiled;
  std::function<void(DataStore &)> Seed;
  int64_t Lanes = 64;
  /// Store target whose writes count as work steps (the same variable
  /// the workload's dedicated bench gates on).
  std::string WorkTarget;
};

machine::MachineConfig machineFor(int64_t Lanes) {
  machine::MachineConfig M;
  M.Name = "dispatch";
  M.Processors = Lanes;
  M.Gran = Lanes;
  M.DataLayout = machine::Layout::Cyclic;
  return M;
}

SimdRunResult runOnce(const Workload &W, Engine Eng) {
  RunOptions Opts;
  Opts.Eng = Eng;
  Opts.WorkTargets = {W.WorkTarget};
  SimdInterp I(W.Compiled.Prog, machineFor(W.Lanes), nullptr, Opts);
  I.setCompiled(W.Compiled.Code);
  W.Seed(I.store());
  return I.run().value();
}

bool sameStats(const RunStats &A, const RunStats &B) {
  return A.WorkSteps == B.WorkSteps && A.Instructions == B.Instructions &&
         A.WorkActiveLanes == B.WorkActiveLanes &&
         A.WorkTotalLanes == B.WorkTotalLanes &&
         A.CommAccesses == B.CommAccesses && A.Cycles == B.Cycles &&
         A.Seconds == B.Seconds;
}

} // namespace

int main(int argc, char **argv) {
  bench::BenchReporter Rep("engine_dispatch", argc, argv);
  bool Smoke = Rep.smoke();

  auto compileOrDie = [](const ir::Program &P,
                         transform::PipelineOptions PO) {
    auto C = transform::compileForSimdExec(P, PO);
    if (!C) {
      std::fprintf(stderr, "engine_dispatch: %s\n",
                   C.error().render().c_str());
      std::exit(1);
    }
    return std::move(*C);
  };

  std::vector<Workload> Workloads;
  {
    ExampleSpec Spec;
    Spec.K = Smoke ? 256 : 1024;
    Spec.L = generateTripCounts(TripDist::Geometric, Spec.K, 12, 7);
    transform::PipelineOptions PO;
    PO.AssumeInnerMinOneTrip = true;
    Workloads.push_back(
        {"example", compileOrDie(makeExample(Spec), PO),
         [Spec](DataStore &S) {
           S.setInt("K", Spec.K);
           S.setIntArray("L", Spec.L);
         },
         64, "X"});
  }
  {
    MandelbrotSpec Spec;
    Spec.Width = Smoke ? 32 : 48;
    Spec.Height = Smoke ? 24 : 32;
    Spec.MaxIter = Smoke ? 64 : 96;
    transform::PipelineOptions PO;
    PO.AssumeInnerMinOneTrip = true;
    Workloads.push_back(
        {"mandelbrot", compileOrDie(mandelbrotF77(Spec), PO),
         [Spec](DataStore &S) { S.setInt("maxIter", Spec.MaxIter); },
         64, "tmp"});
  }
  {
    RegionGrowSpec Spec;
    if (Smoke) {
      Spec.Width = 48;
      Spec.Height = 48;
      Spec.NumRegions = 24;
    }
    std::vector<int64_t> Sizes = regionSizes(Spec);
    int64_t MaxSize = *std::max_element(Sizes.begin(), Sizes.end());
    transform::PipelineOptions PO;
    PO.AssumeInnerMinOneTrip = true;
    Workloads.push_back(
        {"region_grow",
         compileOrDie(regionGrowF77(Spec.NumRegions, MaxSize), PO),
         [Spec, Sizes](DataStore &S) {
           S.setInt("nRegions", Spec.NumRegions);
           S.setIntArray("SIZE", Sizes);
         },
         16, "GROWN"});
  }

  TextTable T;
  T.setHeader({"workload", "tree s", "bytecode s", "byte x", "steps"});
  bool StatsMatch = true;
  double WorstSpeedup = 1e9;
  for (const Workload &W : Workloads) {
    // Cross-check first: both engines must report identical model
    // counters, or the timing comparison is meaningless.
    SimdRunResult TreeR = runOnce(W, Engine::Tree);
    SimdRunResult ByteR = runOnce(W, Engine::Bytecode);
    if (!sameStats(TreeR.Stats, ByteR.Stats)) {
      std::fprintf(stderr,
                   "engine_dispatch: %s: engines disagree on model "
                   "counters\n",
                   W.Name.c_str());
      StatsMatch = false;
    }

    double TreeS = Rep.timeSecondsMedian(
        [&] { runOnce(W, Engine::Tree); }, /*Warmup=*/1, /*Repeats=*/5);
    double ByteS = Rep.timeSecondsMedian(
        [&] { runOnce(W, Engine::Bytecode); }, /*Warmup=*/1,
        /*Repeats=*/5);
    double Speedup = ByteS > 0.0 ? TreeS / ByteS : 0.0;
    WorstSpeedup = std::min(WorstSpeedup, Speedup);

    T.addRow({W.Name, formatf("%.4f", TreeS), formatf("%.4f", ByteS),
              formatf("%.2fx", Speedup),
              std::to_string(ByteR.Stats.WorkSteps)});
    Rep.recordRunStats(W.Name, ByteR.Stats);
    Rep.record(W.Name, "tree_wall_seconds", TreeS, "s", /*Gate=*/false);
    Rep.record(W.Name, "bytecode_wall_seconds", ByteS, "s",
               /*Gate=*/false);
    Rep.record(W.Name, "dispatch_speedup", Speedup, "ratio",
               /*Gate=*/false, bench::Direction::HigherIsBetter);
  }
  std::fputs(T.render().c_str(), stdout);

  // The scalar and MIMD baselines have no bytecode: one tree run each
  // keeps their model counters gated next to the SIMD rows.
  {
    ExampleSpec Spec;
    Spec.K = Smoke ? 256 : 1024;
    Spec.L = generateTripCounts(TripDist::Geometric, Spec.K, 12, 7);
    ir::Program Scalar = makeExample(Spec);
    auto Seed = [&Spec](DataStore &S) {
      S.setInt("K", Spec.K);
      S.setIntArray("L", Spec.L);
    };
    machine::MachineConfig M = machineFor(64);
    RunOptions Opts;
    Opts.WorkTargets = {"X"};

    ScalarInterp SI(Scalar, M, nullptr, Opts);
    Seed(SI.store());
    Rep.recordRunStats("scalar_example", SI.run().value().Stats);

    MimdInterp MI(Scalar, M, nullptr, /*NumProcs=*/8,
                  machine::Layout::Cyclic, Opts);
    Rep.record("mimd_example", "time_steps",
               (double)MI.run(Seed).value().TimeSteps, "steps");
  }

  std::printf("\n%s\n",
              StatsMatch
                  ? formatf("PASS: engines agree on all model counters; "
                            "worst tree/bytecode speedup %.2fx",
                            WorstSpeedup)
                        .c_str()
                  : "FAIL: engine counter divergence");
  Rep.setPassed(StatsMatch);
  return Rep.finish(StatsMatch ? 0 : 1);
}
