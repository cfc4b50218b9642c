//===- codegen/NativeEngine.h - Run programs via JIT'd loops ---*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Engine::Native execution path: emits C++ for a lowered SIMD
/// program (CppEmitter), compiles + loads it (JitCache), marshals one
/// run through the SfContext ABI (NativeAbi.h), and replays every host
/// side effect - traps, deadline polls, work steps, trip samples,
/// extern calls - exactly as the interpreter's exec::detail::Core
/// would. Observable behavior (stores, stats, traces, traps, per-lane
/// fault sets, extern call order) is bit-identical to runSimd; the
/// three-engine fuzz oracle enforces it.
///
/// Every entry point degrades instead of failing: when the build has no
/// JIT, the program is not emittable (see codegen::emitCpp), or
/// the compile fails, runSimdNative returns false and the caller runs
/// the bytecode engine. Selecting Engine::Native is therefore always
/// safe.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_CODEGEN_NATIVEENGINE_H
#define SIMDFLAT_CODEGEN_NATIVEENGINE_H

namespace simdflat {
namespace ir {
class Program;
} // namespace ir
namespace exec {
struct Program;
} // namespace exec
namespace machine {
struct MachineConfig;
} // namespace machine
namespace interp {
class DataStore;
class ExternRegistry;
struct RunOptions;
struct SimdRunResult;
} // namespace interp

namespace codegen {

/// True when this build can ever run natively (SIMDFLAT_ENABLE_JIT was
/// ON and a compiler is configured). A true return does not guarantee a
/// given program compiles - runSimdNative still reports per-program.
bool nativeAvailable();

/// Warms the JIT cache for \p EP: emits + compiles + loads without
/// running. Returns true when a native entry point is ready (serve
/// calls this off the hot path, under its single-flight compile).
bool prepareNative(const exec::Program &EP, const ir::Program &IRP,
                   const machine::MachineConfig &Machine);

/// Runs \p EP natively over \p Store. Returns true when the native
/// module ran to completion or trapped (traps propagate as
/// interp::TrapException exactly like runSimd); false when no native
/// path exists for this program - the caller then falls back to the
/// bytecode engine with \p Result untouched.
bool runSimdNative(const exec::Program &EP, const ir::Program &IRP,
                   const machine::MachineConfig &Machine,
                   const interp::ExternRegistry *Externs,
                   const interp::RunOptions &Opts,
                   interp::DataStore &Store,
                   interp::SimdRunResult &Result);

} // namespace codegen
} // namespace simdflat

#endif // SIMDFLAT_CODEGEN_NATIVEENGINE_H
