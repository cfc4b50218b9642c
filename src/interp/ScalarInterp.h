//===- interp/ScalarInterp.h - Sequential reference executor ---*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tree-walking interpreter for F77-dialect programs. It serves three
/// roles: the functional-correctness oracle for every transformation
/// (flattening must preserve observable stores and the order of
/// executed instructions, Sec. 4), the Sparc-2 sequential baseline of
/// Sec. 5.5, and - through iteration-space slicing plus write-set
/// merging - the per-processor engine of the MIMD executor. It is an
/// exact baseline, not a hot path, so it always walks the tree
/// (RunOptions::Eng selects only the SIMD engine).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_INTERP_SCALARINTERP_H
#define SIMDFLAT_INTERP_SCALARINTERP_H

#include "interp/Extern.h"
#include "interp/RunStats.h"
#include "interp/Store.h"
#include "interp/Trap.h"
#include "machine/Machine.h"

#include <optional>

namespace simdflat {
namespace interp {

/// Restricts the outermost parallel (DOALL) loop to the iterations owned
/// by processor \c Proc out of \c NumProcs under \c PartLayout - how the
/// Fortran D compiler partitions the iteration space per the owner
/// computes rule (Fig. 3).
struct ParallelSlice {
  int64_t Proc = 0;
  int64_t NumProcs = 1;
  machine::Layout PartLayout = machine::Layout::Block;
};

/// One recorded array-element write (for MIMD write-set merging and
/// disjointness checking).
struct WriteRecord {
  std::string Name;
  int64_t FlatIndex = 0;
  ScalVal Value;
};

/// Result of one scalar execution.
struct ScalarRunResult {
  RunStats Stats;
  Trace Tr;
  /// Array writes in execution order (only when RecordWrites is set).
  std::vector<WriteRecord> Writes;
};

/// Sequential interpreter over a DataStore.
class ScalarInterp {
public:
  /// \p Machine provides the cost table (use MachineConfig::sparc2() for
  /// the workstation baseline). \p Externs may be null if the program
  /// calls nothing.
  ScalarInterp(const ir::Program &P, const machine::MachineConfig &Machine,
               const ExternRegistry *Externs, RunOptions Opts = {});

  DataStore &store() { return Store; }
  const DataStore &store() const { return Store; }

  /// Restricts the outermost DOALL to a processor's slice.
  void setSlice(ParallelSlice S) { Slice = S; }

  /// Records array writes into the result (MIMD merging).
  void setRecordWrites(bool On) { RecordWrites = On; }

  /// Executes the program body once. May be called once per interpreter.
  /// Runtime faults of the program under execution (out-of-bounds
  /// subscripts, division by zero, fuel exhaustion...) return a Trap;
  /// the store keeps whatever was committed before the fault.
  RunOutcome<ScalarRunResult> run();

private:
  class Impl;
  const ir::Program &Prog;
  machine::MachineConfig Machine;
  const ExternRegistry *Externs;
  RunOptions Opts;
  DataStore Store;
  std::optional<ParallelSlice> Slice;
  bool RecordWrites = false;
  bool HasRun = false;
};

} // namespace interp
} // namespace simdflat

#endif // SIMDFLAT_INTERP_SCALARINTERP_H
