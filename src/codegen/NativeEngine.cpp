//===- codegen/NativeEngine.cpp -------------------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/NativeEngine.h"

#include "codegen/CppEmitter.h"
#include "codegen/JitCache.h"
#include "codegen/NativeAbi.h"
#include "exec/Bytecode.h"
#include "interp/Extern.h"
#include "interp/SimdInterp.h"
#include "interp/Store.h"
#include "machine/Machine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

using namespace simdflat;
using namespace simdflat::codegen;

namespace {

/// Content hash of everything emission depends on: re-emitting the
/// source just to discover a cache hit would put O(source) string work
/// on the hot path, so repeated runs key the entry point off the
/// program content directly.
uint64_t programKey(const exec::Program &EP,
                    const machine::MachineConfig &Machine) {
  uint64_t H = 14695981039346656037ULL;
  auto Mix = [&H](const void *P, size_t N) {
    const unsigned char *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 1099511628211ULL;
    }
  };
  auto MixStr = [&](const std::string &S) {
    Mix(S.data(), S.size());
    Mix("\0", 1);
  };
  MixStr(EP.ProgName);
  int64_t Shape[4] = {Machine.Gran,
                      Machine.DataLayout == machine::Layout::Cyclic ? 1
                                                                    : 0,
                      EP.NumRegs, EP.NumCtl};
  Mix(Shape, sizeof(Shape));
  if (!EP.Code.empty())
    Mix(EP.Code.data(), EP.Code.size() * sizeof(exec::Instr));
  if (!EP.IntPool.empty())
    Mix(EP.IntPool.data(), EP.IntPool.size() * sizeof(int64_t));
  if (!EP.RealPool.empty())
    Mix(EP.RealPool.data(), EP.RealPool.size() * sizeof(double));
  if (!EP.Extra.empty())
    Mix(EP.Extra.data(), EP.Extra.size() * sizeof(int32_t));
  for (const std::string &S : EP.SlotNames)
    MixStr(S);
  for (const std::string &S : EP.Callees)
    MixStr(S);
  for (const std::string &S : EP.Msgs)
    MixStr(S);
  return H;
}

struct Memo {
  std::mutex Mu;
  /// Key -> entry point; null means "tried and failed" (an unemittable
  /// or uncompilable program stays on bytecode without re-trying).
  std::map<uint64_t, SfNativeRunFn> Entries;
};

Memo &memo() {
  static Memo M;
  return M;
}

/// Emits + compiles + loads (or replays the memoized outcome).
SfNativeRunFn entryFor(const exec::Program &EP, const ir::Program &IRP,
                       const machine::MachineConfig &Machine) {
  if (!jitAvailable() || Machine.Gran < 1)
    return nullptr;
  uint64_t Key = programKey(EP, Machine);
  Memo &M = memo();
  {
    std::lock_guard<std::mutex> Lk(M.Mu);
    auto It = M.Entries.find(Key);
    if (It != M.Entries.end())
      return It->second;
  }
  // Emission and compilation run unlocked; JitCache's own single-flight
  // dedups concurrent compiles of the same source.
  std::string Source = emitCpp(EP, IRP, Machine);
  SfNativeRunFn Fn =
      Source.empty() ? nullptr : getOrCompile(Source);
  {
    std::lock_guard<std::mutex> Lk(M.Mu);
    M.Entries[Key] = Fn;
  }
  return Fn;
}

/// Per-run host state the generated module's callbacks operate on.
struct HostState {
  const exec::Program *EP = nullptr;
  const interp::RunOptions *Opts = nullptr;
  interp::RunStats *Stats = nullptr;
  interp::Trace *Tr = nullptr;
  int64_t Lanes = 1;
  std::vector<const interp::ExternImpl *> CalleeImpls;
  /// Watched slots resolved once (Trace::Step reads them per step).
  std::vector<const interp::Slot *> WatchSlots;
  SfContext *Ctx = nullptr;

  void syncStats() {
    Stats->Cycles = Ctx->Cycles;
    Stats->Instructions = Ctx->Instructions;
    Stats->CommAccesses = Ctx->CommAccesses;
  }

  [[noreturn]] void trap(int32_t Kind, int32_t LocIdx, std::string Detail,
                         const int64_t *Lanes_, int64_t NumLanes) {
    interp::Trap T;
    T.Kind = static_cast<interp::TrapKind>(Kind);
    if (Lanes_ && NumLanes > 0)
      T.Lanes.assign(Lanes_, Lanes_ + NumLanes);
    if (LocIdx >= 0)
      T.Location = EP->Locs[static_cast<size_t>(LocIdx)];
    T.Detail = std::move(Detail);
    throw interp::TrapException{std::move(T)};
  }
};

void cbTrap(void *Host, int32_t Kind, int32_t LocIdx, const char *Detail,
            const int64_t *Lanes, int64_t NumLanes) {
  HostState &H = *static_cast<HostState *>(Host);
  H.syncStats();
  H.trap(Kind, LocIdx, Detail ? Detail : "", Lanes, NumLanes);
}

int32_t cbDeadlineExpired(void *Host, int64_t /*Instructions*/) {
  HostState &H = *static_cast<HostState *>(Host);
  // The module already applied the DeadlineCheckInterval cadence and
  // the HasDeadline gate; only the clock comparison lives here.
  return H.Opts->Deadline &&
                 std::chrono::steady_clock::now() >= *H.Opts->Deadline
             ? 1
             : 0;
}

void cbTripRec(void *Host, int32_t LoopId, int64_t Trips) {
  HostState &H = *static_cast<HostState *>(Host);
  H.Stats->TripNests[static_cast<size_t>(LoopId)].Hist.record(Trips);
}

void cbWorkStep(void *Host, const uint8_t *Mask) {
  HostState &H = *static_cast<HostState *>(Host);
  interp::RunStats &Stats = *H.Stats;
  Stats.WorkSteps += 1;
  int64_t Active = 0;
  for (int64_t L = 0; L < H.Lanes; ++L)
    Active += Mask[L] != 0;
  Stats.WorkActiveLanes += Active;
  Stats.WorkTotalLanes += H.Lanes;
  if (H.WatchSlots.empty())
    return;
  interp::Trace::Step Step;
  Step.Values.reserve(H.WatchSlots.size() * static_cast<size_t>(H.Lanes));
  for (const interp::Slot *S : H.WatchSlots)
    for (int64_t L = 0; L < H.Lanes; ++L)
      Step.Values.push_back(
          S->I[static_cast<size_t>(S->Width == 1 ? 0 : L)]);
  Step.Active.assign(Mask, Mask + H.Lanes);
  H.Tr->Steps.push_back(std::move(Step));
}

void cbCallVec(void *Host, int32_t Callee, int32_t LocIdx,
               const uint8_t *Mask, int32_t NumArgs, const int8_t *ArgKinds,
               const void *const *Args, int32_t RetKind, void *Ret) {
  HostState &H = *static_cast<HostState *>(Host);
  const interp::ExternImpl *Impl =
      H.CalleeImpls[static_cast<size_t>(Callee)];
  // One argument buffer for the whole CALL, on the stack up to eight
  // arguments.
  constexpr int32_t StackArgs = 8;
  interp::ScalVal Stack[StackArgs];
  std::vector<interp::ScalVal> Spill;
  interp::ScalVal *Buf = Stack;
  if (NumArgs > StackArgs) {
    Spill.resize(static_cast<size_t>(NumArgs));
    Buf = Spill.data();
  }
  std::span<const interp::ScalVal> ArgSpan(Buf,
                                           static_cast<size_t>(NumArgs));
  bool RetReal = RetKind == static_cast<int32_t>(ir::ScalarKind::Real);
  for (int64_t L = 0; L < H.Lanes; ++L) {
    interp::ScalVal R;
    if (Mask[L]) {
      for (int32_t A = 0; A < NumArgs; ++A) {
        auto K = static_cast<ir::ScalarKind>(ArgKinds[A]);
        // Reproduces VecVal::lane(): the kind plus exactly the matching
        // payload, the other one zero.
        if (K == ir::ScalarKind::Real)
          Buf[A] = interp::ScalVal::makeReal(
              static_cast<const double *>(Args[A])[L]);
        else
          Buf[A] = interp::ScalVal{
              K, static_cast<const int64_t *>(Args[A])[L], 0.0};
      }
      try {
        R = Impl->Fn(ArgSpan);
      } catch (const interp::ExternError &E) {
        H.syncStats();
        H.trap(static_cast<int32_t>(interp::TrapKind::ExternFailure),
               LocIdx,
               "extern '" + H.EP->Callees[static_cast<size_t>(Callee)] +
                   "' failed: " + E.Message,
               &L, 1);
      }
    }
    if (!Ret)
      continue;
    if (RetReal)
      static_cast<double *>(Ret)[L] = Mask[L] ? R.asNumeric() : 0.0;
    else
      static_cast<int64_t *>(Ret)[L] = Mask[L] ? R.I : 0;
  }
}

} // namespace

bool codegen::nativeAvailable() { return jitAvailable(); }

bool codegen::prepareNative(const exec::Program &EP,
                            const ir::Program &IRP,
                            const machine::MachineConfig &Machine) {
  return entryFor(EP, IRP, Machine) != nullptr;
}

bool codegen::runSimdNative(const exec::Program &EP,
                            const ir::Program &IRP,
                            const machine::MachineConfig &Machine,
                            const interp::ExternRegistry *Externs,
                            const interp::RunOptions &Opts,
                            interp::DataStore &Store,
                            interp::SimdRunResult &Result) {
  SfNativeRunFn Fn = entryFor(EP, IRP, Machine);
  if (!Fn)
    return false;

  int64_t Lanes = Machine.Gran;
  interp::RunStats &Stats = Result.Stats;
  interp::Trace &Tr = Result.Tr;

  // Pre-run setup identical to exec::detail::Core's constructor.
  Tr.Watch = Opts.Watch;
  Tr.Lanes = Lanes;
  if (Stats.TripNests.size() != EP.LoopNames.size()) {
    Stats.TripNests.resize(EP.LoopNames.size());
    for (size_t K = 0; K < EP.LoopNames.size(); ++K) {
      Stats.TripNests[K].Name = EP.LoopNames[K];
      Stats.TripNests[K].Depth = EP.LoopDepths[K];
    }
  }

  HostState H;
  H.EP = &EP;
  H.Opts = &Opts;
  H.Stats = &Stats;
  H.Tr = &Tr;
  H.Lanes = Lanes;

  size_t NumSlots = EP.SlotNames.size();
  size_t NumCallees = EP.Callees.size();
  std::vector<SfSlot> Slots(std::max<size_t>(NumSlots, 1));
  std::vector<uint8_t> SlotWork(std::max<size_t>(NumSlots, 1), 0);
  for (size_t I = 0; I < NumSlots; ++I) {
    interp::Slot &S = Store.slot(EP.SlotNames[I]);
    Slots[I].I = S.I.empty() ? nullptr : S.I.data();
    Slots[I].R = S.R.empty() ? nullptr : S.R.data();
    Slots[I].Width = S.Width;
    SlotWork[I] =
        std::find(Opts.WorkTargets.begin(), Opts.WorkTargets.end(),
                  EP.SlotNames[I]) != Opts.WorkTargets.end()
            ? 1
            : 0;
  }
  H.CalleeImpls.resize(NumCallees, nullptr);
  std::vector<double> CalleeCosts(std::max<size_t>(NumCallees, 1), 0.0);
  std::vector<uint8_t> CalleeBound(std::max<size_t>(NumCallees, 1), 0);
  std::vector<uint8_t> CalleeWork(std::max<size_t>(NumCallees, 1), 0);
  for (size_t I = 0; I < NumCallees; ++I) {
    const interp::ExternImpl *Impl =
        Externs ? Externs->lookup(EP.Callees[I]) : nullptr;
    H.CalleeImpls[I] = Impl;
    CalleeCosts[I] = Impl ? Impl->Cost : 0.0;
    CalleeBound[I] = Impl ? 1 : 0;
    CalleeWork[I] = std::find(Opts.WorkCalls.begin(),
                              Opts.WorkCalls.end(),
                              EP.Callees[I]) != Opts.WorkCalls.end()
                        ? 1
                        : 0;
  }
  H.WatchSlots.reserve(Opts.Watch.size());
  for (const std::string &W : Opts.Watch)
    H.WatchSlots.push_back(&Store.slot(W));

  SfContext Ctx;
  std::memset(&Ctx, 0, sizeof(Ctx));
  Ctx.AbiVersion = SfNativeAbiVersion;
  Ctx.StructBytes = static_cast<uint32_t>(sizeof(SfContext));
  Ctx.Host = &H;
  Ctx.Slots = Slots.data();
  const machine::CostTable &C = Machine.Costs;
  double Costs[10] = {C.IntOp,     C.RealOp,    C.CmpOp,   C.LogicOp,
                      C.MoveOp,    C.GatherOp,  C.ScatterOp,
                      C.ReduceOp,  C.LayerCheck, C.LoopOverhead};
  std::memcpy(Ctx.Costs, Costs, sizeof(Costs));
  Ctx.Fuel = Opts.Fuel;
  Ctx.MaxLoopIterations = Opts.MaxLoopIterations;
  Ctx.HasDeadline = Opts.Deadline ? 1 : 0;
  Ctx.HasExterns = Externs ? 1 : 0;
  // In-out stats seeded from the accumulated record (fuel and cycle
  // budgets span runs against one RunStats, exactly like charge()).
  Ctx.Cycles = Stats.Cycles;
  Ctx.Instructions = Stats.Instructions;
  Ctx.CommAccesses = Stats.CommAccesses;
  Ctx.CalleeCosts = CalleeCosts.data();
  Ctx.CalleeBound = CalleeBound.data();
  Ctx.CalleeWork = CalleeWork.data();
  Ctx.SlotWork = SlotWork.data();
  Ctx.Trap = cbTrap;
  Ctx.DeadlineExpired = cbDeadlineExpired;
  Ctx.TripRec = cbTripRec;
  Ctx.WorkStep = cbWorkStep;
  Ctx.CallVec = cbCallVec;
  H.Ctx = &Ctx;

  int32_t RC;
  try {
    RC = Fn(&Ctx);
  } catch (...) {
    // Traps unwind through the module frame; the trapping callback
    // already synced, but a sync here also covers a throwing extern the
    // registry let escape as something other than ExternError.
    H.syncStats();
    throw;
  }
  if (RC != 0)
    return false; // ABI skew: clean bytecode fallback.
  H.syncStats();
  Stats.Seconds = Stats.Cycles * Machine.SecondsPerCycle;
  return true;
}
