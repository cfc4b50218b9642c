//===- bench/bench_codegen_native.cpp --------------------------*- C++ -*-===//
//
// The native codegen tier against the bytecode engine on the paper's
// evaluation workloads: Mandelbrot escape iteration (divergent WHERE),
// region growing (data-dependent inner trips), and CSR SpMV
// (gather-bound). Both engines execute the same lowered exec::Program
// with the same masked-commit discipline, so every model counter must
// be identical - those are the gated metrics. The JIT compile happens
// once per workload via prepareNative before any clock starts, mirroring
// how serve keeps compiles off the hot path; the timed region is pure
// execution. The wall-clock ratio bytecode/native is then required to
// clear NATIVE_MIN_SPEEDUP on mandelbrot and spmv (region_grow rides
// along ungated: its 16-lane grid is too small to amortize the ABI
// boundary). measured_over_model records wall seconds against the
// Sec. 6 cost model's predicted seconds so the emitted loops' real
// overhead stays visible next to the model's claim. emitted_lane_loops
// counts the lane loops codegen::emitCpp prints for each workload; it is
// gated, so a change that splits fused statements back into one loop
// per instruction fails CI.
//
// Builds without a JIT (SIMDFLAT_ENABLE_JIT=OFF) or hosts without a
// toolchain skip with a message and exit 0: absence of a compiler is a
// configuration, not a regression.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchReporter.h"
#include "codegen/CppEmitter.h"
#include "codegen/NativeEngine.h"
#include "interp/SimdInterp.h"
#include "support/Format.h"
#include "support/Table.h"
#include "transform/Pipeline.h"
#include "workloads/Mandelbrot.h"
#include "workloads/RegionGrow.h"
#include "workloads/SpMV.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::ir;
using namespace simdflat::workloads;

namespace {

/// Wall-clock speedup bytecode/native each gated workload must clear.
constexpr double NATIVE_MIN_SPEEDUP = 1.3;

struct Workload {
  std::string Name;
  transform::CompiledSimdProgram Compiled;
  std::function<void(DataStore &)> Seed;
  int64_t Lanes = 64;
  std::string WorkTarget;
  /// Whether the wall-clock speedup gate applies (mandelbrot, spmv).
  bool GateSpeedup = false;
  /// Optional output check run once per engine; returns true when the
  /// results are right.
  std::function<bool(DataStore &)> Check;
};

machine::MachineConfig machineFor(int64_t Lanes) {
  machine::MachineConfig M;
  M.Name = "native";
  M.Processors = Lanes;
  M.Gran = Lanes;
  M.DataLayout = machine::Layout::Cyclic;
  return M;
}

SimdRunResult runOnce(const Workload &W, Engine Eng, bool *CheckOk) {
  RunOptions Opts;
  Opts.Eng = Eng;
  Opts.WorkTargets = {W.WorkTarget};
  SimdInterp I(W.Compiled.Prog, machineFor(W.Lanes), nullptr, Opts);
  I.setCompiled(W.Compiled.Code);
  W.Seed(I.store());
  SimdRunResult R = I.run().value();
  if (CheckOk)
    *CheckOk = !W.Check || W.Check(I.store());
  return R;
}

/// Lane loops in \p W's emitted module.
int64_t emittedLaneLoops(const Workload &W) {
  std::string Src = codegen::emitCpp(*W.Compiled.Code, W.Compiled.Prog,
                                     machineFor(W.Lanes));
  int64_t N = 0;
  for (size_t P = Src.find("for (int64_t L"); P != std::string::npos;
       P = Src.find("for (int64_t L", P + 1))
    ++N;
  return N;
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
  bench::BenchReporter Rep("codegen_native", argc, argv);
  Rep.setEngine(Engine::Native);
  Rep.meta("native_available", codegen::nativeAvailable() ? int64_t(1)
                                                          : int64_t(0));
  bool Smoke = Rep.smoke();

  if (!codegen::nativeAvailable()) {
    std::printf("SKIP: native codegen unavailable (SIMDFLAT_ENABLE_JIT "
                "off or no host compiler); nothing to gate\n");
    return Rep.finish(0);
  }

  auto compileOrDie = [](const ir::Program &P,
                         transform::PipelineOptions PO) {
    auto C = transform::compileForSimdExec(P, PO);
    if (!C) {
      std::fprintf(stderr, "codegen_native: %s\n",
                   C.error().render().c_str());
      std::exit(1);
    }
    return std::move(*C);
  };

  std::vector<Workload> Workloads;
  {
    MandelbrotSpec Spec;
    Spec.Width = Smoke ? 32 : 64;
    Spec.Height = Smoke ? 24 : 48;
    Spec.MaxIter = Smoke ? 64 : 128;
    transform::PipelineOptions PO;
    PO.AssumeInnerMinOneTrip = true;
    Workloads.push_back(
        {"mandelbrot", compileOrDie(mandelbrotF77(Spec), PO),
         [Spec](DataStore &S) { S.setInt("maxIter", Spec.MaxIter); },
         64, "tmp", /*GateSpeedup=*/true, nullptr});
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
         16, "GROWN", /*GateSpeedup=*/false, nullptr});
  }
  {
    SpMVSpec Spec;
    Spec.Rows = Spec.Cols = Smoke ? 128 : 256;
    Spec.MeanRowNnz = 8;
    CsrMatrix M = makeSparseMatrix(Spec);
    std::vector<double> X(static_cast<size_t>(M.Cols), 1.0);
    for (size_t I = 0; I < X.size(); ++I)
      X[I] = 0.125 * static_cast<double>(I % 16) - 1.0;
    std::vector<double> Want = M.multiply(X);
    transform::PipelineOptions PO;
    PO.AssumeInnerMinOneTrip = true;
    int64_t MaxRows = M.Rows, MaxNnz = M.nnz();
    std::vector<int64_t> RowPtr(static_cast<size_t>(MaxRows + 1), 0);
    std::copy(M.RowPtr.begin(), M.RowPtr.end(), RowPtr.begin());
    Workloads.push_back(
        {"spmv", compileOrDie(spmvF77(MaxRows, MaxNnz), PO),
         [M, RowPtr, X](DataStore &S) {
           S.setInt("nRows", M.Rows);
           S.setIntArray("rowPtr", RowPtr);
           S.setIntArray("col", M.Col);
           S.setRealArray("val", M.Val);
           S.setRealArray("x", X);
         },
         64, "y", /*GateSpeedup=*/true,
         [M, Want](DataStore &S) {
           std::vector<double> Y = S.getRealArray("y");
           for (int64_t Row = 0; Row < M.Rows; ++Row)
             if (std::abs(Y[static_cast<size_t>(Row)] -
                          Want[static_cast<size_t>(Row)]) >= 1e-9)
               return false;
           return true;
         }});
  }

  TextTable T;
  T.setHeader({"workload", "bytecode s", "native s", "speedup", "gate",
               "wall/model"});
  bool Ok = true;
  for (const Workload &W : Workloads) {
    // Compile + load outside every clock, exactly like serve's
    // single-flight prepare keeps compiles off the hot path.
    if (!codegen::prepareNative(*W.Compiled.Code, W.Compiled.Prog,
                                machineFor(W.Lanes))) {
      std::fprintf(stderr,
                   "codegen_native: %s: prepareNative failed with a "
                   "toolchain present\n",
                   W.Name.c_str());
      Ok = false;
      continue;
    }

    bool ByteOk = true, NativeOk = true;
    SimdRunResult ByteR = runOnce(W, Engine::Bytecode, &ByteOk);
    SimdRunResult NativeR = runOnce(W, Engine::Native, &NativeOk);
    if (NativeR.EngineUsed != Engine::Native) {
      std::fprintf(stderr,
                   "codegen_native: %s: degraded to %s after a "
                   "successful prepare\n",
                   W.Name.c_str(), engineName(NativeR.EngineUsed));
      Ok = false;
    }
    if (!sameStats(ByteR.Stats, NativeR.Stats)) {
      std::fprintf(
          stderr, "codegen_native: %s: engines disagree on model counters\n",
          W.Name.c_str());
      Ok = false;
    }
    if (!ByteOk || !NativeOk) {
      std::fprintf(stderr, "codegen_native: %s: wrong results (%s)\n",
                   W.Name.c_str(), !NativeOk ? "native" : "bytecode");
      Ok = false;
    }

    double ByteS = Rep.timeSecondsMedian(
        [&] { runOnce(W, Engine::Bytecode, nullptr); }, /*Warmup=*/1,
        /*Repeats=*/5);
    double NativeS = Rep.timeSecondsMedian(
        [&] { runOnce(W, Engine::Native, nullptr); }, /*Warmup=*/1,
        /*Repeats=*/5);
    double Speedup = NativeS > 0.0 ? ByteS / NativeS : 0.0;
    bool GatePassed = !W.GateSpeedup || Speedup >= NATIVE_MIN_SPEEDUP;
    if (!GatePassed) {
      std::fprintf(stderr,
                   "codegen_native: %s: native %.2fx bytecode, gate "
                   "needs %.2fx\n",
                   W.Name.c_str(), Speedup, NATIVE_MIN_SPEEDUP);
      Ok = false;
    }
    // Wall time against the cost model's prediction for the same run:
    // the emitted loops' real overhead next to the model's claim.
    double MeasuredOverModel =
        NativeR.Stats.Seconds > 0.0 ? NativeS / NativeR.Stats.Seconds : 0.0;

    T.addRow({W.Name, formatf("%.4f", ByteS), formatf("%.4f", NativeS),
              formatf("%.2fx", Speedup),
              W.GateSpeedup ? (GatePassed ? "pass" : "FAIL") : "-",
              formatf("%.3f", MeasuredOverModel)});
    Rep.recordRunStats(W.Name, NativeR.Stats);
    Rep.record(W.Name, "emitted_lane_loops",
               static_cast<double>(emittedLaneLoops(W)), "loops");
    Rep.record(W.Name, "bytecode_wall_seconds", ByteS, "s",
               /*Gate=*/false);
    Rep.record(W.Name, "native_wall_seconds", NativeS, "s",
               /*Gate=*/false);
    Rep.record(W.Name, "native_over_bytecode", Speedup, "ratio",
               /*Gate=*/false, bench::Direction::HigherIsBetter);
    Rep.record(W.Name, "measured_over_model", MeasuredOverModel, "ratio",
               /*Gate=*/false);
  }
  std::fputs(T.render().c_str(), stdout);
  std::printf("\n%s (gate: native >= %.1fx bytecode on mandelbrot and "
              "spmv)\n",
              Ok ? "PASS: native matches bytecode on every model counter "
                   "and clears the speedup gate"
                 : "FAIL: native diverges or misses the speedup gate",
              NATIVE_MIN_SPEEDUP);
  Rep.setPassed(Ok);
  return Rep.finish(Ok ? 0 : 1);
}
