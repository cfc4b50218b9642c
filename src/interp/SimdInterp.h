//===- interp/SimdInterp.h - Lockstep SIMD machine executor ----*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes F90simd-dialect programs the way a SIMD machine does: one
/// control unit, Gran lanes stepping in lockstep through every vector
/// instruction, a WHERE mask stack deciding which lanes commit stores.
/// Masked-out lanes pay full instruction time - the restriction the
/// paper's loop flattening attacks.
///
/// Semantics notes:
///  * IF / WHILE / REPEAT conditions and DO bounds must be
///    control-uniform (identical on all lanes); lane-varying conditionals
///    must use WHERE, lane-varying loops WHILE ANY(...). Violations
///    raise NonUniformControl traps - they are exactly the "SIMDization"
///    bugs the transform must avoid.
///  * Lane reductions (ANY/ALL/MAXRED/SUMRED) reduce over the currently
///    *active* lanes and broadcast the result.
///  * FORALL (e = 1 : N) sweeps the distributed index space; when N
///    exceeds the granularity the sweep serializes over memory layers,
///    charging each layer (Sec. 5.2/5.3).
///  * Reads/writes of distributed array elements homed on another lane
///    are counted as communication (the paper's measurements exclude
///    comm; our kernels keep the count at zero and tests assert it).
///  * Out-of-bounds subscripts raise an OutOfBounds trap naming the
///    faulting lanes if any such lane is active, and yield 0 on idle
///    lanes (idle lanes still execute gathers with whatever garbage
///    indices they hold - that is faithful to the hardware).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_INTERP_SIMDINTERP_H
#define SIMDFLAT_INTERP_SIMDINTERP_H

#include "interp/Extern.h"
#include "interp/RunStats.h"
#include "interp/Store.h"
#include "interp/Trap.h"
#include "machine/Machine.h"
#include "machine/MaskStack.h"

#include <memory>

namespace simdflat {
namespace exec {
struct Program;
} // namespace exec

namespace interp {

/// Result of one SIMD execution.
struct SimdRunResult {
  RunStats Stats;
  Trace Tr;
  /// The engine that actually ran. Differs from RunOptions::Eng only
  /// for Engine::Native, which degrades to Bytecode when no toolchain
  /// or compiled artifact is available (serving telemetry reports it).
  Engine EngineUsed = Engine::Bytecode;
};

/// Lockstep interpreter over Gran lanes.
class SimdInterp {
public:
  SimdInterp(const ir::Program &P, const machine::MachineConfig &Machine,
             const ExternRegistry *Externs, RunOptions Opts = {});
  ~SimdInterp();

  DataStore &store();
  const machine::MachineConfig &machineConfig() const;

  /// Supplies an already-lowered bytecode program (exec::lower) so
  /// callers running one pipeline stage many times (benches, fuzz
  /// oracle) lower once. Ignored under Engine::Tree.
  void setCompiled(std::shared_ptr<const exec::Program> Prog);

  /// Executes the program body once. May be called once per interpreter.
  /// Lane faults (an active lane out of bounds or dividing by zero,
  /// lane-varying uniform control, an exhausted fuel budget) return a
  /// Trap carrying the faulting lane set and statement location; the
  /// store keeps whatever committed before the fault.
  RunOutcome<SimdRunResult> run();

private:
  class Impl;
  std::unique_ptr<Impl> P;
};

} // namespace interp
} // namespace simdflat

#endif // SIMDFLAT_INTERP_SIMDINTERP_H
