//===- exec/Engine.h - Bytecode evaluation core ----------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One evaluation core for lowered programs, parameterized by execution
/// policy: the scalar policy runs single-lane ScalVal registers (and,
/// with a ParallelSlice, one MIMD processor); the SIMD policy runs
/// structure-of-arrays lane vectors under a machine::MaskStack. Both
/// entry points throw interp::TrapException on a program fault - the
/// public interpreters catch it and return the Trap through Expected,
/// exactly like their tree-walking paths.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_EXEC_ENGINE_H
#define SIMDFLAT_EXEC_ENGINE_H

#include "exec/Bytecode.h"
#include "interp/ScalarInterp.h"
#include "interp/SimdInterp.h"

#include <optional>

namespace simdflat {
namespace exec {

/// Runs a Scalar-mode program over \p Store. \p Slice / \p RecordWrites
/// mirror ScalarInterp's MIMD hooks. Appends to \p Result; throws
/// interp::TrapException on a fault.
void runScalar(const Program &EP, const machine::MachineConfig &Machine,
               const interp::ExternRegistry *Externs,
               const interp::RunOptions &Opts, interp::DataStore &Store,
               const std::optional<interp::ParallelSlice> &Slice,
               bool RecordWrites, interp::ScalarRunResult &Result);

/// Runs a Simd-mode program over \p Store (lanes = Machine.Gran).
/// Throws interp::TrapException on a fault.
void runSimd(const Program &EP, const machine::MachineConfig &Machine,
             const interp::ExternRegistry *Externs,
             const interp::RunOptions &Opts, interp::DataStore &Store,
             interp::SimdRunResult &Result);

} // namespace exec
} // namespace simdflat

#endif // SIMDFLAT_EXEC_ENGINE_H
