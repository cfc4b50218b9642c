//===- exec/Engine.h - Bytecode evaluation core ----------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation core for lowered SIMD programs: structure-of-arrays
/// lane vectors under a machine::MaskStack. It throws
/// interp::TrapException on a program fault; SimdInterp catches it and
/// returns the Trap through Expected, exactly like its tree-walking
/// path.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_EXEC_ENGINE_H
#define SIMDFLAT_EXEC_ENGINE_H

#include "exec/Bytecode.h"
#include "interp/SimdInterp.h"

namespace simdflat {
namespace exec {

/// Runs a lowered program over \p Store (lanes = Machine.Gran).
/// Throws interp::TrapException on a fault.
void runSimd(const Program &EP, const machine::MachineConfig &Machine,
             const interp::ExternRegistry *Externs,
             const interp::RunOptions &Opts, interp::DataStore &Store,
             interp::SimdRunResult &Result);

} // namespace exec
} // namespace simdflat

#endif // SIMDFLAT_EXEC_ENGINE_H
