//===- bench/NBForceHarness.h - Shared Table 1/2, Fig. 19 driver *- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared experiment driver for the NBFORCE evaluation (Sec. 5): builds
/// the synthetic SOD molecule once, caches pairlists per cutoff, runs
/// the three loop versions (L1u, L2u, Lf) on a machine model, and
/// returns seconds + Force-step counts. Used by bench_table1_runtime,
/// bench_table2_force_calls and bench_fig19_scaling.
///
/// Machine calibration (documented in EXPERIMENTS.md): per-machine
/// Force-routine cycle costs and layer-check costs are single constants
/// chosen so the simulated seconds land in the paper's magnitude range;
/// every *relative* effect (who wins, crossovers, scaling) comes out of
/// the machine model, not the calibration.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_BENCH_NBFORCEHARNESS_H
#define SIMDFLAT_BENCH_NBFORCEHARNESS_H

#include "interp/RunStats.h"
#include "machine/Machine.h"
#include "md/NBForce.h"

#include <map>
#include <vector>
#include <string>

namespace simdflat {
namespace bench {

/// The three measured loop versions of Table 1.
enum class LoopVersion { L1u, L2u, Lf };

const char *loopVersionName(LoopVersion V);

/// One simulated run.
struct NBRunResult {
  double Seconds = 0.0;
  /// Vector steps that invoked the Force routine (Table 2's counts).
  int64_t ForceSteps = 0;
  /// Lane utilization over force steps.
  double Utilization = 0.0;
  int64_t CommAccesses = 0;
};

/// Cached-molecule experiment driver.
class NBForceExperiment {
public:
  /// \p NMax mirrors the paper's compile-time maximum problem size.
  explicit NBForceExperiment(int64_t NMax = 8192);

  const md::Molecule &molecule() const { return Mol; }
  int64_t nmax() const { return NMax; }

  /// Pairlist for \p Cutoff (built once, min-one-partner enforced).
  const md::PairList &pairlist(double Cutoff);

  /// Engine of the SIMD runs (default bytecode). Benches forward
  /// BenchReporter::engine() so --engine=tree selects the tree-walk
  /// reference; the Sparc-2 runs always walk the tree.
  void setEngine(interp::Engine E) { Eng = E; }

  /// Runs \p Version on \p Machine at \p Cutoff.
  NBRunResult run(LoopVersion Version,
                  const machine::MachineConfig &Machine, double Cutoff);

  /// Runs the sequential kernel on the Sparc-2 model.
  NBRunResult runSparc(double Cutoff);

  /// Per-machine Force-routine cost in cycles (calibration constants).
  static double forceCostFor(const machine::MachineConfig &Machine);

  /// CM-2 and DECmpp models with the layer-check calibration applied.
  static machine::MachineConfig cm2(int64_t Processors);
  static machine::MachineConfig decmpp(int64_t Processors);

private:
  struct CachedInputs {
    std::vector<int64_t> PCnt;
    std::vector<int64_t> Partners;
    int64_t MaxP = 0;
  };
  const CachedInputs &inputs(double Cutoff);

  int64_t NMax;
  interp::Engine Eng = interp::Engine::Bytecode;
  md::Molecule Mol;
  std::map<double, md::PairList> Pairlists;
  std::map<double, CachedInputs> Inputs;
};

/// True when the SIMDFLAT_QUICK environment variable requests reduced
/// parameter grids.
bool quickMode();

} // namespace bench
} // namespace simdflat

#endif // SIMDFLAT_BENCH_NBFORCEHARNESS_H
