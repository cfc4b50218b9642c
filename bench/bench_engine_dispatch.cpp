//===- bench/bench_engine_dispatch.cpp -------------------------*- C++ -*-===//
//
// Measures what the lowered execution cores buy over the tree-walk
// interpreter on three interpreter-bound workloads (EXAMPLE, Mandelbrot
// escape iteration, region growing), each compiled once through the
// full flattening pipeline and then executed repeatedly under both
// interpreters (tree, bytecode). The model counters (steps, cycles,
// utilization) must be identical across engines - they are the gated
// metrics perf_compare diffs across commits - while the wall-clock
// ratio tree/bytecode is the measured dispatch speedup (ungated: CI
// hardware varies).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchReporter.h"
#include "exec/Lower.h"
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

  // Scalar and MIMD dispatch: the in-place register discipline ported
  // from the SIMD bytecode policy means the scalar policy no longer
  // boxes a ScalVal per instruction, and these rows pin that it pays
  // off outside the SIMD path too. Counters must agree tree vs
  // bytecode (gated); the speedups are measured wall-clock (ungated).
  {
    ExampleSpec Spec;
    Spec.K = Smoke ? 256 : 1024;
    Spec.L = generateTripCounts(TripDist::Geometric, Spec.K, 12, 7);
    ir::Program Scalar = makeExample(Spec);
    auto Seed = [&Spec](DataStore &S) {
      S.setInt("K", Spec.K);
      S.setIntArray("L", Spec.L);
    };
    auto Lowered = std::make_shared<const exec::Program>(
        exec::lower(Scalar, exec::Mode::Scalar));
    machine::MachineConfig M = machineFor(64);

    auto scalarOnce = [&](Engine Eng) {
      RunOptions Opts;
      Opts.Eng = Eng;
      Opts.WorkTargets = {"X"};
      ScalarInterp I(Scalar, M, nullptr, Opts);
      if (Eng == Engine::Bytecode)
        I.setCompiled(Lowered);
      Seed(I.store());
      return I.run().value();
    };
    ScalarRunResult STree = scalarOnce(Engine::Tree);
    ScalarRunResult SByte = scalarOnce(Engine::Bytecode);
    if (!sameStats(STree.Stats, SByte.Stats)) {
      std::fprintf(stderr, "engine_dispatch: scalar: engines disagree "
                           "on model counters\n");
      StatsMatch = false;
    }
    double ScalarTreeS = Rep.timeSecondsMedian(
        [&] { scalarOnce(Engine::Tree); }, /*Warmup=*/1, /*Repeats=*/5);
    double ScalarByteS = Rep.timeSecondsMedian(
        [&] { scalarOnce(Engine::Bytecode); }, /*Warmup=*/1,
        /*Repeats=*/5);
    double ScalarX = ScalarByteS > 0.0 ? ScalarTreeS / ScalarByteS : 0.0;
    Rep.recordRunStats("scalar_example", SByte.Stats);
    Rep.record("scalar_example", "tree_wall_seconds", ScalarTreeS, "s",
               /*Gate=*/false);
    Rep.record("scalar_example", "bytecode_wall_seconds", ScalarByteS,
               "s", /*Gate=*/false);
    Rep.record("scalar_example", "dispatch_speedup", ScalarX, "ratio",
               /*Gate=*/false, bench::Direction::HigherIsBetter);

    auto mimdOnce = [&](Engine Eng) {
      RunOptions Opts;
      Opts.Eng = Eng;
      Opts.WorkTargets = {"X"};
      MimdInterp I(Scalar, M, nullptr, /*NumProcs=*/8,
                   machine::Layout::Cyclic, Opts);
      return I.run(Seed).value();
    };
    MimdRunResult MTree = mimdOnce(Engine::Tree);
    MimdRunResult MByte = mimdOnce(Engine::Bytecode);
    if (MTree.TimeSteps != MByte.TimeSteps ||
        MTree.Seconds != MByte.Seconds) {
      std::fprintf(stderr, "engine_dispatch: mimd: engines disagree on "
                           "model counters\n");
      StatsMatch = false;
    }
    double MimdTreeS = Rep.timeSecondsMedian(
        [&] { mimdOnce(Engine::Tree); }, /*Warmup=*/1, /*Repeats=*/5);
    double MimdByteS = Rep.timeSecondsMedian(
        [&] { mimdOnce(Engine::Bytecode); }, /*Warmup=*/1,
        /*Repeats=*/5);
    double MimdX = MimdByteS > 0.0 ? MimdTreeS / MimdByteS : 0.0;
    Rep.record("mimd_example", "time_steps", (double)MByte.TimeSteps,
               "steps");
    Rep.record("mimd_example", "tree_wall_seconds", MimdTreeS, "s",
               /*Gate=*/false);
    Rep.record("mimd_example", "bytecode_wall_seconds", MimdByteS, "s",
               /*Gate=*/false);
    Rep.record("mimd_example", "dispatch_speedup", MimdX, "ratio",
               /*Gate=*/false, bench::Direction::HigherIsBetter);

    std::printf("\nscalar tree %.4fs bytecode %.4fs (%.2fx); "
                "mimd(8) tree %.4fs bytecode %.4fs (%.2fx)\n",
                ScalarTreeS, ScalarByteS, ScalarX, MimdTreeS, MimdByteS,
                MimdX);
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
