//===- interp/Trap.h - Structured runtime faults ---------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured traps: when a *program under execution* faults (an active
/// lane subscripts out of bounds, divides by zero, drives control flow
/// with lane-varying values, exhausts its fuel budget, or calls a
/// broken extern), the interpreters unwind and return a Trap through
/// Expected instead of aborting the process. A Trap carries the fault
/// kind, the set of faulting lanes, the statement location at which the
/// machine stopped, and a human-readable rendering — enough for a
/// serving layer to log, reject the one request, and keep running.
///
/// The differential tests lean on a cross-executor invariant: the
/// scalar oracle, the MIMD executor and the (flattened or unflattened)
/// SIMD machine must agree on the *kind* of the first trap a faulty
/// program raises, the error-path extension of the paper's "same
/// instructions, same order" equivalence argument.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_INTERP_TRAP_H
#define SIMDFLAT_INTERP_TRAP_H

#include "support/Result.h"

#include <cstdint>
#include <string>
#include <vector>

namespace simdflat {
namespace ir {
class Stmt;
} // namespace ir

namespace interp {

/// What went wrong. Kinds are shared across the scalar, MIMD and SIMD
/// executors so differential tests can compare them directly.
enum class TrapKind {
  /// An active lane subscripted an array outside its declared extents.
  OutOfBounds,
  /// Integer division or MOD by zero on an active lane.
  DivByZero,
  /// A numeric domain fault (SQRT of a negative, empty MAXRED/MINRED).
  DomainError,
  /// Lane-varying values drove uniform control flow (IF/DO/WHILE
  /// conditions, stores to control variables).
  NonUniformControl,
  /// The fuel budget (RunOptions::Fuel) or the loop-iteration guard
  /// (RunOptions::MaxLoopIterations) was exhausted.
  FuelExhausted,
  /// The wall-clock deadline (RunOptions::Deadline) passed mid-run. The
  /// serving layer derives it from a request's end-to-end budget; unlike
  /// fuel it bounds real time, not simulated instructions.
  DeadlineExpired,
  /// An extern call failed: unbound name, missing registry, or the
  /// binding itself reported an ExternError.
  ExternFailure,
  /// Two MIMD processors wrote conflicting values to one element (the
  /// dynamic non-parallelizability check).
  WriteConflict,
  /// The program reached a state only a malformed tree produces (GOTO
  /// to a missing label, zero DO step, whole-array scalar reference).
  InvalidProgram,
};

/// Stable lowercase name for a kind ("out-of-bounds", "div-by-zero"...).
const char *trapKindName(TrapKind K);

/// One structured runtime fault.
struct Trap {
  TrapKind Kind = TrapKind::InvalidProgram;
  /// 0-based faulting lanes; empty when the fault is in the (scalar)
  /// control unit rather than on specific lanes.
  std::vector<int64_t> Lanes;
  /// Statement location where execution stopped, rendered as the chain
  /// of enclosing statements, e.g. "DO i / WHERE / assign A".
  std::string Location;
  /// Specifics of the fault ("lane 2 reads A(9) but A has extent 8").
  std::string Detail;

  /// One-line human-readable rendering of the whole trap.
  std::string render() const;
};

/// Internal unwinding vehicle: interpreter guts throw this; the public
/// run() entry points catch it and return the Trap through Expected.
/// Never escapes the interp layer.
struct TrapException {
  Trap T;
};

/// The result type of every executor: a run result or a trap.
template <typename T> using RunOutcome = Expected<T, Trap>;

/// Renders a stack of enclosing statements (outermost first) into a
/// Trap::Location string like "DO i / WHERE / assign A". The executors
/// keep this stack as raw pointers and only render on the trap path, so
/// the hot loop pays one push/pop per statement.
std::string renderStmtLocation(const std::vector<const ir::Stmt *> &Stack);

} // namespace interp
} // namespace simdflat

#endif // SIMDFLAT_INTERP_TRAP_H
