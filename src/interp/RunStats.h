//===- interp/RunStats.h - Execution statistics and traces -----*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters the experiments report: work-step counts (the paper's
/// Eq. 1/2 iteration counts and Table 2's Force-call counts), cycle/time
/// accounting (Table 1), lane utilization (idle masked lanes are the
/// effect under study) and execution traces (Figs. 4 and 6).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_INTERP_RUNSTATS_H
#define SIMDFLAT_INTERP_RUNSTATS_H

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace simdflat {
namespace interp {

/// Which engine runs a program on the SIMD machine (SimdInterp). All
/// engines produce identical observable behavior (stores, stats,
/// traces, traps) - the differential fuzzer enforces it. Bytecode
/// lowers once and runs a flat instruction stream while Tree re-walks
/// the AST per statement. Native compiles the lowered bytecode to a
/// real C++ translation unit (codegen::CppEmitter), builds it with the
/// host toolchain and runs the dlopen'd loops; when no toolchain is
/// available (SIMDFLAT_ENABLE_JIT=OFF, missing compiler, compile
/// failure) it degrades to the Bytecode path, so selecting it is always
/// safe. Tree survives as the reference oracle. The scalar and MIMD
/// executors are exact baselines and always walk the tree, whatever
/// the engine.
enum class Engine {
  Tree,
  Bytecode,
  Native,
};

/// Stable name for an engine ("tree" / "bytecode" / "native").
inline const char *engineName(Engine E) {
  switch (E) {
  case Engine::Tree:
    return "tree";
  case Engine::Bytecode:
    return "bytecode";
  case Engine::Native:
    return "native";
  }
  return "bytecode";
}

/// Parses an engine name; returns false if \p Name matches none.
inline bool engineFromName(const std::string &Name, Engine &Out) {
  if (Name == "tree") {
    Out = Engine::Tree;
    return true;
  }
  if (Name == "bytecode") {
    Out = Engine::Bytecode;
    return true;
  }
  if (Name == "native") {
    Out = Engine::Native;
    return true;
  }
  return false;
}

/// Compact distribution of observed inner-loop trip counts for one
/// loop nest. Small counts (the interesting regime for the Sec. 6
/// model: a trip of 0 vs 3 vs 7 changes the strategy ranking) are
/// counted exactly; everything >= NumExact falls into log2-width
/// buckets, so the footprint is fixed no matter how hot the loop is.
/// Recording is uncharged bookkeeping: it never contributes to
/// Instructions/Cycles, so histogram collection cannot perturb the
/// counters the differential oracle compares.
struct TripHistogram {
  /// Trip counts 0..NumExact-1 are counted exactly.
  static constexpr int64_t NumExact = 8;
  /// Buckets for trips >= NumExact: bucket b holds [2^(b+3), 2^(b+4)).
  static constexpr int64_t NumLog2 = 61;
  /// Serialization version of the histogram block (StatsJson).
  static constexpr int64_t Version = 1;

  std::array<int64_t, NumExact> Exact{};
  std::array<int64_t, NumLog2> Log2{};
  /// Trip counts recorded (== sum of all bucket counts).
  int64_t Samples = 0;
  /// Exact sum of recorded trip counts (buckets quantize; this does
  /// not, so mean() is exact).
  int64_t Sum = 0;
  /// Largest trip count recorded.
  int64_t Max = 0;

  /// Bucket index for \p Trips >= NumExact (0-based into Log2).
  static int64_t log2Bucket(int64_t Trips) {
    int64_t B = 0;
    for (int64_t T = Trips >> 4; T > 0; T >>= 1)
      ++B;
    return std::min<int64_t>(B, NumLog2 - 1);
  }
  /// Inclusive lower edge of log2 bucket \p B.
  static int64_t log2BucketLo(int64_t B) { return int64_t{1} << (B + 3); }
  /// Deterministic representative trip count for log2 bucket \p B (the
  /// midpoint of [lo, 2*lo)).
  static int64_t log2BucketMid(int64_t B) {
    int64_t Lo = log2BucketLo(B);
    return Lo + (Lo >> 1);
  }

  void record(int64_t Trips) {
    if (Trips < 0)
      Trips = 0;
    if (Trips < NumExact)
      ++Exact[static_cast<size_t>(Trips)];
    else
      ++Log2[static_cast<size_t>(log2Bucket(Trips))];
    ++Samples;
    Sum += Trips;
    Max = std::max(Max, Trips);
  }

  void merge(const TripHistogram &O) {
    for (size_t I = 0; I < Exact.size(); ++I)
      Exact[I] += O.Exact[I];
    for (size_t I = 0; I < Log2.size(); ++I)
      Log2[I] += O.Log2[I];
    Samples += O.Samples;
    Sum += O.Sum;
    Max = std::max(Max, O.Max);
  }

  bool empty() const { return Samples == 0; }
  double mean() const {
    return Samples == 0 ? 0.0
                        : static_cast<double>(Sum) /
                              static_cast<double>(Samples);
  }

  /// Bucket counts are internally consistent: non-negative, they sum to
  /// Samples, and Sum/Max are plausible for the occupied buckets.
  bool consistent() const {
    int64_t N = 0;
    for (int64_t C : Exact) {
      if (C < 0)
        return false;
      N += C;
    }
    for (int64_t C : Log2) {
      if (C < 0)
        return false;
      N += C;
    }
    return N == Samples && Sum >= 0 && Max >= 0 &&
           (Samples > 0 || (Sum == 0 && Max == 0));
  }
};

/// Trip statistics for one instrumented loop nest: where it lives (the
/// lowered loop's label) and the distribution of its per-activation
/// trip counts. SIMD engines record one sample per lane activation of
/// the loop; scalar engines one per execution of the loop.
struct NestTripStats {
  /// Stable label assigned at lowering ("L0 do", "L2 while", ...).
  std::string Name;
  /// Nesting depth at lowering time (0 = outermost).
  int64_t Depth = 0;
  TripHistogram Hist;
};

/// Folds \p From's per-nest histograms into \p Into, matching nests by
/// name; a nest \p Into lacks is appended.
inline void mergeTripNests(std::vector<NestTripStats> &Into,
                           const std::vector<NestTripStats> &From) {
  for (const NestTripStats &N : From) {
    auto It = std::find_if(Into.begin(), Into.end(),
                           [&](const NestTripStats &Mine) {
                             return Mine.Name == N.Name;
                           });
    if (It == Into.end()) {
      Into.push_back(NestTripStats{N.Name, N.Depth, {}});
      It = Into.end() - 1;
    }
    It->Hist.merge(N.Hist);
  }
}

/// Counters accumulated by one execution.
struct RunStats {
  /// Executions of designated "work" statements (assignments to
  /// WorkTargets arrays, calls to WorkCalls externs). On the SIMD
  /// machine this counts vector steps; on MIMD/scalar, executions.
  int64_t WorkSteps = 0;
  /// Vector instructions issued (SIMD) / operations executed (scalar).
  int64_t Instructions = 0;
  /// Sum over work steps of the number of active lanes.
  int64_t WorkActiveLanes = 0;
  /// Sum over work steps of the lane width (Gran).
  int64_t WorkTotalLanes = 0;
  /// Accesses to distributed array elements homed on another lane. The
  /// paper excludes communication; our kernels keep this zero (tested).
  int64_t CommAccesses = 0;
  /// Model cycles consumed.
  double Cycles = 0.0;
  /// Cycles scaled by the machine's SecondsPerCycle.
  double Seconds = 0.0;
  /// Per-nest trip-count distributions, indexed by the lowered
  /// program's loop id (exec::Program::LoopNames order). Populated
  /// identically by the bytecode and native engines; the tree oracle
  /// leaves it empty (it is informational telemetry, never compared by
  /// the differential oracle and never charged against fuel/cycles).
  std::vector<NestTripStats> TripNests;

  /// Fraction of work-step lane slots doing useful work (1.0 = no idle
  /// processors). The paper's Fig. 6 trace shows exactly these gaps.
  /// A run with no work steps reports 0.0, not 1.0: "perfect
  /// utilization" for doing nothing would skew bench aggregation.
  double workUtilization() const {
    return WorkTotalLanes == 0
               ? 0.0
               : static_cast<double>(WorkActiveLanes) /
                     static_cast<double>(WorkTotalLanes);
  }
};

/// A recorded execution trace: one entry per work step with the values of
/// the watched (integer) variables on every lane plus the activity mask.
struct Trace {
  /// Names of watched variables (set via RunOptions::Watch).
  std::vector<std::string> Watch;
  int64_t Lanes = 1;

  struct Step {
    /// Values indexed [watchIdx * Lanes + lane].
    std::vector<int64_t> Values;
    /// Activity per lane (scalar machine: always 1).
    std::vector<uint8_t> Active;
  };
  std::vector<Step> Steps;

  int64_t value(size_t StepIdx, size_t WatchIdx, int64_t Lane) const {
    return Steps[StepIdx]
        .Values[WatchIdx * static_cast<size_t>(Lanes) +
                static_cast<size_t>(Lane)];
  }
  bool active(size_t StepIdx, int64_t Lane) const {
    return Steps[StepIdx].Active[static_cast<size_t>(Lane)] != 0;
  }
};

/// How often (in charged instructions) the engines poll the wall clock
/// for RunOptions::Deadline. Checks land at instruction counts 1, 65,
/// 129, ...: both engines charge identical instruction streams, so a
/// deadline that is already expired when the run starts traps at the
/// same statement with the same detail under Tree and Bytecode - the
/// agreement the differential tests pin. Polling every instruction
/// would put a clock read on the dispatch hot path.
constexpr int64_t DeadlineCheckInterval = 64;

/// Options controlling statistics collection and safety limits.
struct RunOptions {
  /// Array/variable names whose assignments count as work steps.
  std::vector<std::string> WorkTargets;
  /// Extern function names whose calls count as work steps.
  std::vector<std::string> WorkCalls;
  /// Integer variables snapshotted into the trace at each work step.
  /// Empty disables tracing.
  std::vector<std::string> Watch;
  /// Raise a FuelExhausted trap after this many loop iterations (guards
  /// against transformed code that fails to terminate).
  int64_t MaxLoopIterations = 200'000'000;
  /// Watchdog fuel budget: raise a FuelExhausted trap once this many
  /// machine instructions have issued. 0 means unlimited. Unlike
  /// MaxLoopIterations (a backstop for compiler bugs) the fuel budget is
  /// a per-run serving limit: a hosted caller sets it so no request can
  /// consume unbounded simulator time.
  int64_t Fuel = 0;
  /// Wall-clock deadline for this run (unset = none). Checked alongside
  /// fuel every DeadlineCheckInterval charged instructions; once the
  /// clock passes it the run unwinds with a DeadlineExpired trap. A
  /// serving layer derives it from the request's end-to-end budget so a
  /// stuck or oversized program cannot hold a worker past its slot.
  std::optional<std::chrono::steady_clock::time_point> Deadline;
  /// SIMD execution engine. Bytecode is the default hot path; Tree is
  /// the tree-walking reference oracle the differential tests compare
  /// against; Native runs JIT-compiled loops and degrades to Bytecode
  /// when no toolchain is available. ScalarInterp and MimdInterp ignore
  /// it: they always walk the tree.
  Engine Eng = Engine::Bytecode;
};

/// True when \p Opts carries a deadline, \p Instructions is a poll
/// point, and the clock has passed it. Shared by every engine's
/// charge() so the poll cadence cannot drift between them.
inline bool deadlineExpired(const RunOptions &Opts, int64_t Instructions) {
  return Opts.Deadline && Instructions % DeadlineCheckInterval == 1 &&
         std::chrono::steady_clock::now() >= *Opts.Deadline;
}

} // namespace interp
} // namespace simdflat

#endif // SIMDFLAT_INTERP_RUNSTATS_H
