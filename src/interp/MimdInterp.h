//===- interp/MimdInterp.h - MIMD reference executor -----------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an F77 program the way the Fortran D compiler's MIMD backend
/// would (Fig. 3): the outermost parallel (DOALL) loop's iteration space
/// is partitioned across P processors under the owner-computes rule; each
/// processor runs independently with its own name space. The reported
/// time is the *maximum* over processors (Eq. 1: a max of sums), the
/// bound loop flattening reaches on the SIMD machine.
///
/// Stores are merged from per-processor write sets; overlapping writes
/// of different values from different processors are a safety violation
/// and raise a WriteConflict trap (this doubles as a dynamic
/// parallelizability check in the tests). A trap raised by any
/// processor's scalar engine propagates out annotated with the
/// processor index.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_INTERP_MIMDINTERP_H
#define SIMDFLAT_INTERP_MIMDINTERP_H

#include "interp/ScalarInterp.h"

#include <functional>
#include <memory>

namespace simdflat {
namespace interp {

/// Result of a MIMD execution.
struct MimdRunResult {
  /// Per-processor stats (WorkSteps is each processor's Eq. 1 summand).
  std::vector<RunStats> PerProc;
  /// Per-processor traces (Fig. 4 is rendered from these).
  std::vector<Trace> PerProcTrace;
  /// max_p WorkSteps_p - Eq. 1.
  int64_t TimeSteps = 0;
  /// max_p Seconds_p.
  double Seconds = 0.0;
  /// Stores merged from the per-processor write sets.
  std::unique_ptr<DataStore> Merged;
};

/// MIMD executor built on per-processor ScalarInterp slices.
class MimdInterp {
public:
  /// \p NumProcs processors partition the outermost DOALL under
  /// \p PartLayout. \p Init seeds each processor's (identical) input
  /// state and the merged output store.
  MimdInterp(const ir::Program &P, const machine::MachineConfig &Machine,
             const ExternRegistry *Externs, int64_t NumProcs,
             machine::Layout PartLayout, RunOptions Opts = {});

  /// Runs all processors; \p Init is invoked on every processor's store
  /// before execution. A trap on any processor (or a cross-processor
  /// write conflict) stops the run and returns the trap.
  RunOutcome<MimdRunResult> run(const std::function<void(DataStore &)> &Init);

private:
  const ir::Program &Prog;
  machine::MachineConfig Machine;
  const ExternRegistry *Externs;
  int64_t NumProcs;
  machine::Layout PartLayout;
  RunOptions Opts;
};

} // namespace interp
} // namespace simdflat

#endif // SIMDFLAT_INTERP_MIMDINTERP_H
