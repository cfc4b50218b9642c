//===- codegen/NativeAbi.h - Host <-> JIT'd loop ABI -----------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C ABI between the host process and a translation unit emitted by
/// codegen::CppEmitter, compiled by the host toolchain and dlopen'd by
/// codegen::JitCache. The emitted source carries its own textual copy of
/// these structs (an .so must stay self-contained), so any layout change
/// here must bump SfNativeAbiVersion and update the emitter's prologue;
/// the entry point cross-checks both the version and sizeof(SfContext)
/// and refuses to run on a mismatch, turning skew into a clean bytecode
/// fallback instead of memory corruption.
///
/// Division of labor: everything statically known at emit time (lane
/// count, data layout, pools, slot shapes/kinds/names, messages, trap
/// locations) is baked into the generated code; everything per-run
/// (store payloads, cost table, fuel/deadline, work-step flags, extern
/// bindings) flows through SfContext. Side effects the generated loops
/// cannot perform themselves - throwing traps, reading the wall clock,
/// recording work steps and trip samples, invoking extern bindings -
/// are host callbacks.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_CODEGEN_NATIVEABI_H
#define SIMDFLAT_CODEGEN_NATIVEABI_H

#include <cstdint>

namespace simdflat {
namespace codegen {

/// Bumped whenever SfSlot/SfContext change layout or meaning. Version
/// 2 replaced the per-lane extern callback with one CallVec per CALL.
constexpr int32_t SfNativeAbiVersion = 2;

/// Name of the exported entry point of every generated module.
constexpr const char *SfNativeEntryName = "simdflat_native_run";

/// Runtime payload of one store slot, in exec::Program::SlotNames
/// order. Shape, kind and name are baked into the generated code; only
/// the (per-run) payload pointers and width cross the ABI.
struct SfSlot {
  int64_t *I; ///< Integer/logical payload (null for real slots).
  double *R;  ///< Real payload (null for integer slots).
  int64_t Width;
};

/// Everything a generated module needs for one run. All callbacks take
/// the opaque \c Host pointer first. The stat fields are in-out: the
/// host seeds them from the accumulated RunStats (fuel spans runs of
/// one interpreter) and the module writes them back at every host
/// upcall and at halt.
struct SfContext {
  int32_t AbiVersion;   ///< Host writes SfNativeAbiVersion.
  uint32_t StructBytes; ///< Host writes sizeof(SfContext).
  void *Host;           ///< Opaque host state, first arg of callbacks.
  SfSlot *Slots;        ///< SlotNames-indexed runtime payloads.

  /// machine::CostTable entries in exec::CostKind order.
  double Costs[10];
  int64_t Fuel;              ///< RunOptions::Fuel (0 = unlimited).
  int64_t MaxLoopIterations; ///< RunOptions::MaxLoopIterations.
  int32_t HasDeadline;       ///< 1 when RunOptions::Deadline is set.
  int32_t HasExterns;        ///< 1 when an ExternRegistry is present.

  /// In-out accumulated stats (see struct comment).
  double Cycles;
  int64_t Instructions;
  int64_t CommAccesses;

  /// Per-callee runtime facts, exec::Program::Callees order (null when
  /// the program declares no externs).
  double *CalleeCosts;   ///< ExternImpl::Cost per callee.
  uint8_t *CalleeBound;  ///< 1 when the registry binds the callee.
  uint8_t *CalleeWork;   ///< 1 when the callee is in WorkCalls.
  /// Per-slot work flag, SlotNames order (1 = name in WorkTargets).
  uint8_t *SlotWork;

  /// Throws the trap on the host side; never returns. \p Lanes may be
  /// null when \p NumLanes is 0. \p LocIdx indexes Program::Locs (-1 =
  /// no location).
  void (*Trap)(void *Host, int32_t Kind, int32_t LocIdx,
               const char *Detail, const int64_t *Lanes, int64_t NumLanes);
  /// Wall-clock poll at a DeadlineCheckInterval boundary; returns 1
  /// when the deadline has passed.
  int32_t (*DeadlineExpired)(void *Host, int64_t Instructions);
  /// Records one trip-count sample for loop \p LoopId.
  void (*TripRec)(void *Host, int32_t LoopId, int64_t Trips);
  /// Records one work step; \p Mask points at the current per-lane
  /// activity mask (lane count is baked and known to the host).
  void (*WorkStep)(void *Host, const uint8_t *Mask);
  /// Invokes extern \p Callee once per active lane of \p Mask, in lane
  /// order (one callback per CALL instruction). \p Args holds one
  /// lane array per argument: int64_t lanes when \p ArgKinds says Int
  /// or Bool (ir::ScalarKind values 0=Int, 1=Real, 2=Bool), double lanes
  /// for Real. When \p Ret is non-null the host fills every lane of it,
  /// typed by \p RetKind the same way: the result (the raw integer
  /// payload, or the asNumeric value for Real) on active lanes, zero on
  /// idle ones. Extern failures throw on the host side and do not
  /// return; the lanes before the failing one have been called.
  void (*CallVec)(void *Host, int32_t Callee, int32_t LocIdx,
                  const uint8_t *Mask, int32_t NumArgs,
                  const int8_t *ArgKinds, const void *const *Args,
                  int32_t RetKind, void *Ret);
};

/// Entry point type: returns 0 on a completed run, 1 on an ABI
/// mismatch (the host then falls back to bytecode). Traps leave via a
/// host callback that throws.
using SfNativeRunFn = int32_t (*)(SfContext *);

} // namespace codegen
} // namespace simdflat

#endif // SIMDFLAT_CODEGEN_NATIVEABI_H
