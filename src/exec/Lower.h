//===- exec/Lower.h - ir:: -> bytecode lowering ----------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers an F90simd ir::Program into an exec::Program. The lowering is
/// a direct transcription of the SIMD tree walker: every charge(), trap
/// check and store the tree performs has a bytecode instruction in the
/// same order, so the engines are differentially identical (stores,
/// RunStats, traces, trap kind + lane set + location + detail).
///
/// Register discipline: an expression lowered at depth d leaves its
/// result in register d and evaluates operands into d+1, d+2, ... -
/// destinations never alias operands, which keeps the SIMD handlers
/// free of read/write hazards on the lane vectors. Labels and GOTOs
/// lower to the tree's InvalidProgram trap; statement locations are
/// prerendered into a deduplicated pool.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_EXEC_LOWER_H
#define SIMDFLAT_EXEC_LOWER_H

#include "exec/Bytecode.h"

namespace simdflat {
namespace ir {
class Program;
} // namespace ir

namespace exec {

/// Lowers \p P for the SIMD machine; \p M has the single value
/// Mode::Simd. Running the result requires the F90simd dialect, like
/// the tree walker.
Program lower(const ir::Program &P, Mode M);

} // namespace exec
} // namespace simdflat

#endif // SIMDFLAT_EXEC_LOWER_H
