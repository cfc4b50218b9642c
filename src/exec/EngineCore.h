//===- exec/EngineCore.h - The bytecode evaluation core -------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation core behind exec::runSimd: VecVal lane-vector
/// registers under a MaskStack, one instruction at a time.
///
/// Every handler is a transcription of the SIMD tree walker's path:
/// same charges in the same order, same trap kinds, messages and lane
/// sets.
///
/// This is a private header of src/exec; include it only from engine
/// translation units.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_EXEC_ENGINECORE_H
#define SIMDFLAT_EXEC_ENGINECORE_H

#include "exec/Engine.h"

#include "interp/Extern.h"
#include "machine/MaskStack.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace simdflat {
namespace exec {
namespace detail {

using interp::DataStore;
using interp::ExternError;
using interp::ExternImpl;
using interp::ExternRegistry;
using interp::RunOptions;
using interp::RunStats;
using interp::ScalVal;
using interp::Slot;
using interp::Trace;
using interp::TrapException;
using interp::TrapKind;
using interp::VecVal;

//===----------------------------------------------------------------------===//
// Dense per-lane loops. Only trap-free math lives
// here; anything that collects faulting lane sets, calls an extern, or
// reduces in lane order stays in Core's dispatch.
//===----------------------------------------------------------------------===//

inline void negI(int64_t *O, const int64_t *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = -A[L];
}
inline void negR(double *O, const double *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = -A[L];
}
inline void notI(int64_t *O, const int64_t *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = !A[L];
}
inline void logicOp(bool IsAnd, int64_t *O, const int64_t *A,
                    const int64_t *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = IsAnd ? (A[L] && B[L]) : (A[L] || B[L]);
}
inline void cmpRR(Opcode Op, int64_t *O, const double *A, const double *B,
                  size_t N) {
  switch (Op) {
  case Opcode::CmpEq:
    for (size_t L = 0; L < N; ++L)
      O[L] = A[L] == B[L];
    break;
  case Opcode::CmpNe:
    for (size_t L = 0; L < N; ++L)
      O[L] = A[L] != B[L];
    break;
  case Opcode::CmpLt:
    for (size_t L = 0; L < N; ++L)
      O[L] = A[L] < B[L];
    break;
  case Opcode::CmpLe:
    for (size_t L = 0; L < N; ++L)
      O[L] = A[L] <= B[L];
    break;
  case Opcode::CmpGt:
    for (size_t L = 0; L < N; ++L)
      O[L] = A[L] > B[L];
    break;
  case Opcode::CmpGe:
    for (size_t L = 0; L < N; ++L)
      O[L] = A[L] >= B[L];
    break;
  default:
    SIMDFLAT_UNREACHABLE("not a comparison");
  }
}
inline void addI(int64_t *O, const int64_t *A, const int64_t *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = A[L] + B[L];
}
inline void subI(int64_t *O, const int64_t *A, const int64_t *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = A[L] - B[L];
}
inline void mulI(int64_t *O, const int64_t *A, const int64_t *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = A[L] * B[L];
}
inline void addR(double *O, const double *A, const double *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = A[L] + B[L];
}
inline void subR(double *O, const double *A, const double *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = A[L] - B[L];
}
inline void mulR(double *O, const double *A, const double *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = A[L] * B[L];
}
/// The guarded divide: a zero divisor yields 0.0 (active-lane zero
/// divisors do not trap on the real path; the language defines the
/// quotient away instead).
inline void divR(double *O, const double *A, const double *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = B[L] == 0.0 ? 0.0 : A[L] / B[L];
}
inline void minmaxI(bool IsMax, int64_t *O, const int64_t *A,
                    const int64_t *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = IsMax ? std::max(A[L], B[L]) : std::min(A[L], B[L]);
}
inline void minmaxR(bool IsMax, double *O, const double *A,
                    const double *B, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = IsMax ? std::max(A[L], B[L]) : std::min(A[L], B[L]);
}
inline void absI(int64_t *O, const int64_t *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = std::llabs(A[L]);
}
inline void absR(double *O, const double *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = std::fabs(A[L]);
}
/// True when any lane is strictly negative (NaN lanes are not). The
/// sqrt fast path uses this to skip the trap-collecting sweep.
inline bool anyNegative(const double *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    if (A[L] < 0.0)
      return true;
  return false;
}
/// Plain sqrt over every lane; only called once anyNegative said no
/// lane traps (so no lane needs the negative-input guard).
inline void sqrtR(double *O, const double *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = std::sqrt(A[L]);
}
/// Masked commit: lanes with a zero mask byte keep their old value.
inline void maskedStoreI(int64_t *Dst, const int64_t *Src,
                         const uint8_t *M, size_t N) {
  for (size_t L = 0; L < N; ++L)
    if (M[L])
      Dst[L] = Src[L];
}
inline void maskedStoreR(double *Dst, const double *Src, const uint8_t *M,
                         size_t N) {
  for (size_t L = 0; L < N; ++L)
    if (M[L])
      Dst[L] = Src[L];
}

/// The evaluation core.
class Core {
public:
  Core(const Program &EP, const machine::MachineConfig &Machine,
       const ExternRegistry *Externs, const RunOptions &Opts,
       DataStore &Store, RunStats &Stats, Trace &Tr)
      : EP(EP), Machine(Machine), Externs(Externs), Opts(Opts),
        Store(Store), Stats(Stats), Tr(Tr), Lanes(Machine.Gran),
        Mask(Lanes) {
    Tr.Watch = Opts.Watch;
    Tr.Lanes = Lanes;
    Slots.reserve(EP.SlotNames.size());
    SlotWork.reserve(EP.SlotNames.size());
    for (const std::string &Name : EP.SlotNames) {
      Slots.push_back(&Store.slot(Name));
      SlotWork.push_back(std::find(Opts.WorkTargets.begin(),
                                   Opts.WorkTargets.end(),
                                   Name) != Opts.WorkTargets.end());
    }
    CalleeImpls.reserve(EP.Callees.size());
    CalleeWork.reserve(EP.Callees.size());
    for (const std::string &Name : EP.Callees) {
      CalleeImpls.push_back(Externs ? Externs->lookup(Name) : nullptr);
      CalleeWork.push_back(std::find(Opts.WorkCalls.begin(),
                                     Opts.WorkCalls.end(),
                                     Name) != Opts.WorkCalls.end());
    }
    Regs.resize(static_cast<size_t>(EP.NumRegs));
    Ctl.assign(static_cast<size_t>(EP.NumCtl), 0);
    // Per-nest trip telemetry: one histogram per instrumented loop,
    // indexed by TripRec's loop id. Repeated runs against the same
    // RunStats keep accumulating into the existing nests.
    if (Stats.TripNests.size() != EP.LoopNames.size()) {
      Stats.TripNests.resize(EP.LoopNames.size());
      for (size_t K = 0; K < EP.LoopNames.size(); ++K) {
        Stats.TripNests[K].Name = EP.LoopNames[K];
        Stats.TripNests[K].Depth = EP.LoopDepths[K];
      }
    }
  }

  void run();

private:
  const Program &EP;
  const machine::MachineConfig &Machine;
  const ExternRegistry *Externs;
  const RunOptions &Opts;
  DataStore &Store;
  RunStats &Stats;
  Trace &Tr;
  int64_t Lanes;
  machine::MaskStack Mask;
  std::vector<VecVal> Regs;
  std::vector<int64_t> Ctl;
  /// Scratch buffers, reused across instructions so the dispatch loop
  /// is allocation-free in steady state.
  VecVal CoerceA, CoerceB;
  std::vector<int64_t> FlatsTmp;
  std::vector<uint8_t> MaskTmp;
  std::vector<Slot *> Slots;
  std::vector<uint8_t> SlotWork;
  std::vector<const ExternImpl *> CalleeImpls;
  std::vector<uint8_t> CalleeWork;
  int64_t LoopIterations = 0;
  /// Location of the executing instruction, for traps.
  int32_t CurLoc = -1;

  size_t laneCount() const { return static_cast<size_t>(Lanes); }

  /// In-place destination writers. Lowering gives an expression at
  /// depth d register d and its operands registers d+1, d+2, ..., so a
  /// destination never aliases an operand and a handler may fill its
  /// output payload while operand registers are still live. Reusing the
  /// register's own vectors keeps steady-state execution
  /// allocation-free; callers must overwrite every lane.
  std::vector<int64_t> &outI(int32_t R, ir::ScalarKind K) {
    VecVal &V = Regs[static_cast<size_t>(R)];
    V.Kind = K;
    V.R.clear();
    V.I.resize(laneCount());
    return V.I;
  }
  std::vector<double> &outR(int32_t R) {
    VecVal &V = Regs[static_cast<size_t>(R)];
    V.Kind = ir::ScalarKind::Real;
    V.I.clear();
    V.R.resize(laneCount());
    return V.R;
  }

  /// Register read with int<->real assignment coercion but no copy
  /// when the kinds already match; a coerced value lands in \p Tmp
  /// (capacity reused). Distinct Tmps let two operands coexist.
  const VecVal &readVec(int32_t R, ir::ScalarKind K, VecVal &Tmp) {
    const VecVal &V = Regs[static_cast<size_t>(R)];
    if (V.Kind == K)
      return V;
    Tmp.Kind = K;
    if (K == ir::ScalarKind::Real) {
      Tmp.I.clear();
      Tmp.R.resize(V.I.size());
      for (size_t L = 0; L < V.I.size(); ++L)
        Tmp.R[L] = static_cast<double>(V.I[L]);
      return Tmp;
    }
    if (K == ir::ScalarKind::Int && V.Kind == ir::ScalarKind::Real) {
      Tmp.R.clear();
      Tmp.I.resize(V.R.size());
      for (size_t L = 0; L < V.R.size(); ++L)
        Tmp.I[L] = static_cast<int64_t>(V.R[L]);
      return Tmp;
    }
    reportFatalError("simd interp: invalid vector coercion");
  }

  /// Reads a register as a real lane vector for the kernel loops. All
  /// comparisons and real arithmetic evaluate through double exactly
  /// like the tree walker (int operands widen per lane).
  const VecVal &readReal(int32_t R, VecVal &Tmp) {
    return readVec(R, ir::ScalarKind::Real, Tmp);
  }

  [[noreturn]] void trap(TrapKind K, std::string Detail,
                         std::vector<int64_t> FaultLanes = {}) {
    throw TrapException{{K, std::move(FaultLanes),
                         CurLoc >= 0 ? EP.Locs[static_cast<size_t>(CurLoc)]
                                     : std::string(),
                         std::move(Detail)}};
  }

  void charge(double Cycles) {
    Stats.Cycles += Cycles;
    Stats.Instructions += 1;
    if (Opts.Fuel > 0 && Stats.Instructions > Opts.Fuel)
      trap(TrapKind::FuelExhausted,
           "fuel budget of " + std::to_string(Opts.Fuel) +
               " instructions exhausted in '" + EP.ProgName + "'");
    if (deadlineExpired(Opts, Stats.Instructions))
      trap(TrapKind::DeadlineExpired,
           "wall-clock deadline expired in '" + EP.ProgName + "'");
  }

  void countLoopIteration() {
    if (++LoopIterations > Opts.MaxLoopIterations)
      trap(TrapKind::FuelExhausted,
           "loop iteration limit of " +
               std::to_string(Opts.MaxLoopIterations) + " exceeded in '" +
               EP.ProgName + "' (non-terminating transform?)");
    charge(Machine.Costs.LoopOverhead);
  }

  double cost(int32_t K) const {
    const machine::CostTable &C = Machine.Costs;
    switch (static_cast<CostKind>(K)) {
    case CostKind::IntOp:
      return C.IntOp;
    case CostKind::RealOp:
      return C.RealOp;
    case CostKind::CmpOp:
      return C.CmpOp;
    case CostKind::LogicOp:
      return C.LogicOp;
    case CostKind::MoveOp:
      return C.MoveOp;
    case CostKind::GatherOp:
      return C.GatherOp;
    case CostKind::ScatterOp:
      return C.ScatterOp;
    case CostKind::ReduceOp:
      return C.ReduceOp;
    case CostKind::LayerCheck:
      return C.LayerCheck;
    case CostKind::LoopOverhead:
      return C.LoopOverhead;
    }
    SIMDFLAT_UNREACHABLE("bad CostKind");
  }

  void recordWorkStep() {
    Stats.WorkSteps += 1;
    // Active counts the mask over the machine's real lanes, total
    // counts Gran. Padded tail layers show up as active < total,
    // exactly the idle slots the paper's utilization measures.
    Stats.WorkActiveLanes += Mask.activeCount();
    Stats.WorkTotalLanes += Lanes;
    if (Opts.Watch.empty())
      return;
    Trace::Step Step;
    Step.Values.reserve(Opts.Watch.size() * laneCount());
    for (const std::string &W : Opts.Watch) {
      const Slot &S = Store.slot(W);
      assert(!S.isReal() && "watched variables must be integer/logical");
      for (int64_t L = 0; L < Lanes; ++L)
        Step.Values.push_back(
            S.I[static_cast<size_t>(S.Width == 1 ? 0 : L)]);
    }
    Step.Active = Mask.current();
    Tr.Steps.push_back(std::move(Step));
  }

  /// Requires \p V to hold the same value on every lane and returns it.
  int64_t uniformInt(const VecVal &V, const std::string &What) {
    assert(V.Kind != ir::ScalarKind::Real && "uniformInt of a real");
    int64_t First = V.I[0];
    std::vector<int64_t> Divergent;
    for (size_t L = 0; L < V.I.size(); ++L)
      if (V.I[L] != First)
        Divergent.push_back(static_cast<int64_t>(L));
    if (!Divergent.empty())
      trap(TrapKind::NonUniformControl,
           What + " is not control-uniform across lanes; "
                  "lane-varying control flow needs WHERE / "
                  "WHILE ANY(...)",
           std::move(Divergent));
    return First;
  }

  /// Operand-register list behind an Extra offset: [count, regs...].
  const int32_t *extra(int32_t Off) const { return &EP.Extra[Off]; }
};

inline void Core::run() {
  size_t PC = 0;
  for (;;) {
    const Instr &I = EP.Code[PC];
    ++PC;
    CurLoc = I.Loc;
    switch (I.Op) {
    case Opcode::LdInt:
      outI(I.A, ir::ScalarKind::Int).assign(laneCount(), EP.IntPool[I.B]);
      break;
    case Opcode::LdReal:
      outR(I.A).assign(laneCount(), EP.RealPool[I.B]);
      break;
    case Opcode::LdBool:
      outI(I.A, ir::ScalarKind::Bool).assign(laneCount(), I.B != 0 ? 1 : 0);
      break;
    case Opcode::LdVar: {
      const Slot &S = *Slots[I.B];
      if (S.Decl->isArray())
        trap(TrapKind::InvalidProgram, "whole-array reference to '" +
                                           S.Decl->Name +
                                           "' outside a reduction");
      if (S.isReal()) {
        std::vector<double> &Out = outR(I.A);
        if (S.Width == 1)
          Out.assign(laneCount(), S.R[0]);
        else
          Out = S.R;
      } else {
        std::vector<int64_t> &Out = outI(I.A, S.Decl->Kind);
        if (S.Width == 1)
          Out.assign(laneCount(), S.I[0]);
        else
          Out = S.I;
      }
      break;
    }
    case Opcode::Gather: {
      const Slot &S = *Slots[I.B];
      const ir::VarDecl &D = *S.Decl;
      const int32_t *Ops = extra(I.C);
      int32_t N = Ops[0];
      charge(Machine.Costs.GatherOp);
      if (S.isReal())
        outR(I.A).assign(laneCount(), 0.0);
      else
        outI(I.A, D.Kind).assign(laneCount(), 0);
      VecVal &Out = Regs[static_cast<size_t>(I.A)];
      std::vector<int64_t> BadLanes;
      for (int64_t L = 0; L < Lanes; ++L) {
        int64_t Flat = 0;
        bool InBounds = true;
        for (int32_t Dim = 0; Dim < N; ++Dim) {
          int64_t IdxV = Regs[Ops[1 + Dim]].I[static_cast<size_t>(L)];
          if (IdxV < 1 || IdxV > D.Dims[Dim]) {
            InBounds = false;
            break;
          }
          Flat = Flat * D.Dims[Dim] + (IdxV - 1);
        }
        if (!InBounds) {
          if (Mask.isActive(L))
            BadLanes.push_back(L);
          continue; // idle lane gathers garbage; leave 0
        }
        if (D.Distribution == ir::Dist::Distributed && Mask.isActive(L)) {
          int64_t Dim0 = Regs[Ops[1]].I[static_cast<size_t>(L)];
          if (Machine.laneOf(Dim0, D.Dims[0]) != L)
            Stats.CommAccesses += 1;
        }
        if (S.isReal())
          Out.R[static_cast<size_t>(L)] = S.R[static_cast<size_t>(Flat)];
        else
          Out.I[static_cast<size_t>(L)] = S.I[static_cast<size_t>(Flat)];
      }
      if (!BadLanes.empty())
        trap(TrapKind::OutOfBounds,
             "active lane(s) read out of bounds from '" + D.Name + "'",
             std::move(BadLanes));
      break;
    }
    case Opcode::StVar: {
      Slot &S = *Slots[I.A];
      const VecVal &C = readVec(I.B, S.Decl->Kind, CoerceA);
      charge(Machine.Costs.MoveOp);
      if (S.Width == 1) {
        // Control variable: value must be uniform over active lanes.
        int64_t FirstActive = -1;
        for (int64_t L = 0; L < Lanes; ++L)
          if (Mask.isActive(L)) {
            FirstActive = L;
            break;
          }
        if (FirstActive >= 0) {
          std::vector<int64_t> VaryLanes;
          if (S.isReal()) {
            double Val = C.R[static_cast<size_t>(FirstActive)];
            for (int64_t L = FirstActive; L < Lanes; ++L)
              if (Mask.isActive(L) && C.R[static_cast<size_t>(L)] != Val)
                VaryLanes.push_back(L);
            if (VaryLanes.empty())
              S.R[0] = Val;
          } else {
            int64_t Val = C.I[static_cast<size_t>(FirstActive)];
            for (int64_t L = FirstActive; L < Lanes; ++L)
              if (Mask.isActive(L) && C.I[static_cast<size_t>(L)] != Val)
                VaryLanes.push_back(L);
            if (VaryLanes.empty())
              S.I[0] = Val;
          }
          if (!VaryLanes.empty())
            trap(TrapKind::NonUniformControl,
                 "lane-varying store to control variable '" +
                     S.Decl->Name + "'",
                 std::move(VaryLanes));
        }
      } else {
        // Masked commit: idle lanes keep their old value.
        if (S.isReal())
          maskedStoreR(S.R.data(), C.R.data(), Mask.current().data(),
                       laneCount());
        else
          maskedStoreI(S.I.data(), C.I.data(), Mask.current().data(),
                       laneCount());
      }
      if (SlotWork[I.A])
        recordWorkStep();
      break;
    }
    case Opcode::StArr: {
      Slot &S = *Slots[I.A];
      const ir::VarDecl &D = *S.Decl;
      const int32_t *Ops = extra(I.C);
      int32_t N = Ops[0];
      const VecVal &C = readVec(I.B, D.Kind, CoerceA);
      charge(Machine.Costs.ScatterOp);
      // Validate every active lane before committing any store: a
      // scatter with a faulting lane must not half-commit.
      FlatsTmp.assign(laneCount(), -1);
      std::vector<int64_t> &Flats = FlatsTmp;
      std::vector<int64_t> BadLanes;
      for (int64_t L = 0; L < Lanes; ++L) {
        if (!Mask.isActive(L))
          continue;
        int64_t Flat = 0;
        bool InBounds = true;
        for (int32_t Dim = 0; Dim < N; ++Dim) {
          int64_t IdxV = Regs[Ops[1 + Dim]].I[static_cast<size_t>(L)];
          if (IdxV < 1 || IdxV > D.Dims[Dim]) {
            InBounds = false;
            break;
          }
          Flat = Flat * D.Dims[Dim] + (IdxV - 1);
        }
        if (!InBounds) {
          BadLanes.push_back(L);
          continue;
        }
        Flats[static_cast<size_t>(L)] = Flat;
      }
      if (!BadLanes.empty())
        trap(TrapKind::OutOfBounds,
             "active lane(s) write out of bounds to '" + D.Name + "'",
             std::move(BadLanes));
      for (int64_t L = 0; L < Lanes; ++L) {
        if (!Mask.isActive(L))
          continue;
        int64_t Flat = Flats[static_cast<size_t>(L)];
        if (D.Distribution == ir::Dist::Distributed) {
          int64_t Dim0 = Regs[Ops[1]].I[static_cast<size_t>(L)];
          if (Machine.laneOf(Dim0, D.Dims[0]) != L)
            Stats.CommAccesses += 1;
        }
        if (S.isReal())
          S.R[static_cast<size_t>(Flat)] = C.R[static_cast<size_t>(L)];
        else
          S.I[static_cast<size_t>(Flat)] = C.I[static_cast<size_t>(L)];
      }
      if (SlotWork[I.A])
        recordWorkStep();
      break;
    }
    case Opcode::SetIdx: {
      Slot &IV = *Slots[I.A];
      IV.I.assign(IV.I.size(), Ctl[I.B]);
      break;
    }
    case Opcode::Neg: {
      const VecVal &V = Regs[I.B];
      charge(V.Kind == ir::ScalarKind::Real ? Machine.Costs.RealOp
                                            : Machine.Costs.IntOp);
      if (V.Kind == ir::ScalarKind::Real)
        negR(outR(I.A).data(), V.R.data(), laneCount());
      else
        negI(outI(I.A, V.Kind).data(), V.I.data(), laneCount());
      break;
    }
    case Opcode::NotOp: {
      charge(Machine.Costs.LogicOp);
      const VecVal &V = Regs[I.B];
      notI(outI(I.A, V.Kind).data(), V.I.data(), laneCount());
      break;
    }
    case Opcode::AndOp:
    case Opcode::OrOp: {
      charge(Machine.Costs.LogicOp);
      bool IsAnd = I.Op == Opcode::AndOp;
      const VecVal &L = Regs[I.B], &R = Regs[I.C];
      logicOp(IsAnd, outI(I.A, ir::ScalarKind::Bool).data(), L.I.data(),
              R.I.data(), laneCount());
      break;
    }
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe: {
      charge(Machine.Costs.CmpOp);
      // Comparisons evaluate through double on every lane (the tree
      // walker's rule, int operands included); widen once into the
      // coercion scratch and run one real-compare kernel.
      const VecVal &L = readReal(I.B, CoerceA);
      const VecVal &R = readReal(I.C, CoerceB);
      cmpRR(I.Op, outI(I.A, ir::ScalarKind::Bool).data(), L.R.data(),
            R.R.data(), laneCount());
      break;
    }
    case Opcode::AddI:
    case Opcode::SubI:
    case Opcode::MulI: {
      charge(Machine.Costs.IntOp);
      const VecVal &L = Regs[I.B], &R = Regs[I.C];
      std::vector<int64_t> &Out = outI(I.A, ir::ScalarKind::Int);
      if (I.Op == Opcode::AddI)
        addI(Out.data(), L.I.data(), R.I.data(), laneCount());
      else if (I.Op == Opcode::SubI)
        subI(Out.data(), L.I.data(), R.I.data(), laneCount());
      else
        mulI(Out.data(), L.I.data(), R.I.data(), laneCount());
      break;
    }
    case Opcode::DivI:
    case Opcode::ModI: {
      // The zero-divisor sweep collects the faulting active-lane set
      // for the trap.
      charge(Machine.Costs.IntOp);
      const VecVal &L = Regs[I.B], &R = Regs[I.C];
      std::vector<int64_t> &Out = outI(I.A, ir::ScalarKind::Int);
      std::vector<int64_t> ZeroLanes;
      for (size_t K = 0; K < laneCount(); ++K) {
        int64_t LV = L.I[K], RV = R.I[K];
        // Division by zero on an idle lane is a don't-care; active
        // lanes dividing by zero trap.
        if (RV == 0) {
          if (Mask.isActive(static_cast<int64_t>(K)))
            ZeroLanes.push_back(static_cast<int64_t>(K));
          Out[K] = 0;
        } else {
          Out[K] = I.Op == Opcode::DivI ? LV / RV : LV % RV;
        }
      }
      if (!ZeroLanes.empty())
        trap(TrapKind::DivByZero,
             std::string(I.Op == Opcode::ModI ? "MOD" : "division") +
                 " by zero on active lane(s)",
             std::move(ZeroLanes));
      break;
    }
    case Opcode::AddR:
    case Opcode::SubR:
    case Opcode::MulR:
    case Opcode::DivR: {
      charge(Machine.Costs.RealOp);
      const VecVal &L = readReal(I.B, CoerceA);
      const VecVal &R = readReal(I.C, CoerceB);
      std::vector<double> &Out = outR(I.A);
      switch (I.Op) {
      case Opcode::AddR:
        addR(Out.data(), L.R.data(), R.R.data(), laneCount());
        break;
      case Opcode::SubR:
        subR(Out.data(), L.R.data(), R.R.data(), laneCount());
        break;
      case Opcode::MulR:
        mulR(Out.data(), L.R.data(), R.R.data(), laneCount());
        break;
      case Opcode::DivR:
        divR(Out.data(), L.R.data(), R.R.data(), laneCount());
        break;
      default:
        SIMDFLAT_UNREACHABLE("bad real arithmetic op");
      }
      break;
    }
    case Opcode::MaxMin: {
      bool IsMax = (I.D & 1) != 0;
      auto K = static_cast<ir::ScalarKind>(I.D >> 1);
      bool Real = K == ir::ScalarKind::Real;
      const VecVal &A = readVec(I.B, K, CoerceA);
      const VecVal &B = readVec(I.C, K, CoerceB);
      charge(Real ? Machine.Costs.RealOp : Machine.Costs.IntOp);
      if (Real)
        minmaxR(IsMax, outR(I.A).data(), A.R.data(), B.R.data(), laneCount());
      else
        minmaxI(IsMax, outI(I.A, K).data(), A.I.data(), B.I.data(),
                laneCount());
      break;
    }
    case Opcode::AbsOp: {
      const VecVal &A = Regs[I.B];
      charge(A.Kind == ir::ScalarKind::Real ? Machine.Costs.RealOp
                                            : Machine.Costs.IntOp);
      if (A.Kind == ir::ScalarKind::Real)
        absR(outR(I.A).data(), A.R.data(), laneCount());
      else
        absI(outI(I.A, A.Kind).data(), A.I.data(), laneCount());
      break;
    }
    case Opcode::SqrtOp: {
      charge(Machine.Costs.RealOp);
      const VecVal &A = Regs[I.B];
      std::vector<double> &Out = outR(I.A);
      if (anyNegative(A.R.data(), laneCount())) {
        // Slow path: some lane is negative. Sweep generically to
        // collect the faulting *active* lanes; idle negative lanes
        // produce the defined-away 0.0 without trapping.
        std::vector<int64_t> NegLanes;
        for (size_t L = 0; L < laneCount(); ++L) {
          if (A.R[L] < 0.0 && Mask.isActive(static_cast<int64_t>(L)))
            NegLanes.push_back(static_cast<int64_t>(L));
          Out[L] = A.R[L] < 0.0 ? 0.0 : std::sqrt(A.R[L]);
        }
        if (!NegLanes.empty())
          trap(TrapKind::DomainError,
               "SQRT of a negative on active lane(s)",
               std::move(NegLanes));
      } else {
        sqrtR(Out.data(), A.R.data(), laneCount());
      }
      break;
    }
    case Opcode::LaneIdx: {
      std::vector<int64_t> &Out = outI(I.A, ir::ScalarKind::Int);
      for (size_t L = 0; L < laneCount(); ++L)
        Out[L] = static_cast<int64_t>(L) + 1;
      break;
    }
    case Opcode::NumLanesOp:
      outI(I.A, ir::ScalarKind::Int).assign(laneCount(), Lanes);
      break;
    case Opcode::AnyAll: {
      charge(Machine.Costs.ReduceOp);
      bool IsAll = I.D != 0;
      const VecVal &A = Regs[I.B];
      bool Acc = IsAll;
      for (int64_t L = 0; L < Lanes; ++L) {
        if (!Mask.isActive(L))
          continue;
        bool V = A.I[static_cast<size_t>(L)] != 0;
        Acc = IsAll ? (Acc && V) : (Acc || V);
      }
      outI(I.A, ir::ScalarKind::Bool).assign(laneCount(), Acc ? 1 : 0);
      break;
    }
    case Opcode::LaneRed: {
      charge(Machine.Costs.ReduceOp);
      const VecVal &A = Regs[I.B];
      bool IsMax = I.D == 0, IsMin = I.D == 1;
      if ((IsMax || IsMin) && Mask.noneActive())
        trap(TrapKind::DomainError,
             std::string(IsMax ? "MAXRED" : "MINRED") +
                 " with no active lanes");
      auto Combine = [&](auto Acc, auto V) {
        if (IsMax)
          return std::max(Acc, V);
        if (IsMin)
          return std::min(Acc, V);
        return Acc + V;
      };
      // Masked, in lane order: a SUM reduction must accumulate left
      // to right for FP bit-identity across engines.
      if (A.Kind == ir::ScalarKind::Real) {
        double Acc = IsMax   ? -std::numeric_limits<double>::infinity()
                     : IsMin ? std::numeric_limits<double>::infinity()
                             : 0.0;
        for (int64_t L = 0; L < Lanes; ++L)
          if (Mask.isActive(L))
            Acc = Combine(Acc, A.R[static_cast<size_t>(L)]);
        outR(I.A).assign(laneCount(), Acc);
      } else {
        int64_t Acc = IsMax   ? std::numeric_limits<int64_t>::min()
                      : IsMin ? std::numeric_limits<int64_t>::max()
                              : 0;
        for (int64_t L = 0; L < Lanes; ++L)
          if (Mask.isActive(L))
            Acc = Combine(Acc, A.I[static_cast<size_t>(L)]);
        outI(I.A, ir::ScalarKind::Int).assign(laneCount(), Acc);
      }
      break;
    }
    case Opcode::ArrRed: {
      const Slot &S = *Slots[I.B];
      charge(Machine.Costs.ReduceOp *
             static_cast<double>(Machine.layersFor(S.Width)));
      bool IsSum = I.D == 1;
      if (S.isReal()) {
        double Acc =
            IsSum ? 0.0 : -std::numeric_limits<double>::infinity();
        for (double X : S.R)
          Acc = IsSum ? Acc + X : std::max(Acc, X);
        outR(I.A).assign(laneCount(), Acc);
      } else {
        int64_t Acc = IsSum ? 0 : std::numeric_limits<int64_t>::min();
        for (int64_t X : S.I)
          Acc = IsSum ? Acc + X : std::max(Acc, X);
        outI(I.A, ir::ScalarKind::Int).assign(laneCount(), Acc);
      }
      break;
    }
    case Opcode::CallCheck: {
      if (!Externs)
        trap(TrapKind::ExternFailure,
             "no extern registry for call to '" + EP.Callees[I.B] + "'");
      if (!CalleeImpls[I.B])
        trap(TrapKind::ExternFailure,
             "unbound extern '" + EP.Callees[I.B] + "'");
      break;
    }
    case Opcode::CallOp: {
      const ExternImpl *Impl = CalleeImpls[I.B];
      assert(Impl && "CallOp without a passing CallCheck");
      const int32_t *Ops = extra(I.C);
      int32_t N = Ops[0];
      charge(Impl->Cost);
      if (CalleeWork[I.B])
        recordWorkStep();
      auto RetKind = static_cast<ir::ScalarKind>(I.D);
      // Result register never aliases the argument registers, so the
      // output can be filled in place while lanes read arguments; a
      // result-less call statement writes a discarded scratch.
      VecVal &Out =
          I.A >= 0 ? Regs[static_cast<size_t>(I.A)] : CoerceA;
      Out.Kind = RetKind;
      if (RetKind == ir::ScalarKind::Real) {
        Out.I.clear();
        Out.R.assign(laneCount(), 0.0);
      } else {
        Out.R.clear();
        Out.I.assign(laneCount(), 0);
      }
      std::vector<ScalVal> LaneArgs(static_cast<size_t>(N));
      for (int64_t L = 0; L < Lanes; ++L) {
        if (!Mask.isActive(L))
          continue;
        for (int32_t A = 0; A < N; ++A)
          LaneArgs[static_cast<size_t>(A)] = Regs[Ops[1 + A]].lane(L);
        ScalVal R;
        try {
          R = Impl->Fn(LaneArgs);
        } catch (const ExternError &E) {
          trap(TrapKind::ExternFailure,
               "extern '" + EP.Callees[I.B] + "' failed: " + E.Message,
               {L});
        }
        if (RetKind == ir::ScalarKind::Real)
          Out.R[static_cast<size_t>(L)] = R.asNumeric();
        else
          Out.I[static_cast<size_t>(L)] = R.I;
      }
      break;
    }
    case Opcode::Jmp:
      PC = static_cast<size_t>(I.D);
      break;
    case Opcode::UBrFalse:
      if (uniformInt(Regs[I.A], EP.Msgs[I.B]) == 0)
        PC = static_cast<size_t>(I.D);
      break;
    case Opcode::ChargeOp:
      charge(cost(I.A));
      break;
    case Opcode::LoopIter:
      countLoopIteration();
      break;
    case Opcode::TrapMsg:
      trap(static_cast<TrapKind>(I.A), EP.Msgs[I.B]);
      break;
    case Opcode::Halt:
      Stats.Seconds = Stats.Cycles * Machine.SecondsPerCycle;
      return;
    case Opcode::CtlFromReg:
      Ctl[I.A] = uniformInt(Regs[I.B], EP.Msgs[I.C]);
      break;
    case Opcode::CtlImm:
      Ctl[I.A] = EP.IntPool[I.B];
      break;
    case Opcode::CheckStep:
      if (Ctl[I.A] == 0)
        trap(TrapKind::InvalidProgram, EP.Msgs[I.B]);
      break;
    case Opcode::CtlInc:
      Ctl[I.A] += 1;
      break;
    case Opcode::TripRec:
      // Uncharged telemetry: the loop's trip counter (a dedicated ctl
      // slot) lands in its histogram at loop exit. The native tier
      // records the same samples; the tree oracle has none, which is
      // fine because the oracle compares TripNests only between those
      // two.
      Stats.TripNests[static_cast<size_t>(I.B)].Hist.record(Ctl[I.A]);
      break;
    case Opcode::DoTest: {
      int64_t Step = Ctl[I.A + 2];
      if (!(Step > 0 ? Ctl[I.A] <= Ctl[I.A + 1]
                     : Ctl[I.A] >= Ctl[I.A + 1]))
        PC = static_cast<size_t>(I.D);
      break;
    }
    case Opcode::DoStep:
      Ctl[I.A] += Ctl[I.A + 2];
      break;
    case Opcode::FaBegin: {
      Slot &IV = *Slots[I.A];
      if (IV.Width != Lanes)
        trap(TrapKind::InvalidProgram,
             "FORALL index '" + IV.Decl->Name +
                 "' must be a replicated variable");
      if (Ctl[I.B + 1] < Ctl[I.B]) {
        PC = static_cast<size_t>(I.D);
      } else {
        Ctl[I.B + 2] = 0;
        Ctl[I.B + 3] = Machine.layersFor(Ctl[I.B + 1]);
      }
      break;
    }
    case Opcode::FaLayerTest:
      if (Ctl[I.A + 2] >= Ctl[I.A + 3])
        PC = static_cast<size_t>(I.D);
      break;
    case Opcode::FaLayerMask: {
      Slot &IV = *Slots[I.A];
      int64_t Layer = Ctl[I.B + 2];
      int64_t Lo = Ctl[I.B], Hi = Ctl[I.B + 1];
      int64_t Chunk = Ctl[I.B + 3]; // block chunk height
      MaskTmp.assign(laneCount(), 0);
      std::vector<uint8_t> &Exists = MaskTmp;
      for (int64_t L = 0; L < Lanes; ++L) {
        int64_t E;
        if (Machine.DataLayout == machine::Layout::Cyclic)
          E = Layer * Lanes + L + 1;
        else
          E = L * Chunk + Layer + 1;
        IV.I[static_cast<size_t>(L)] = E;
        Exists[static_cast<size_t>(L)] = E >= Lo && E <= Hi;
      }
      charge(Machine.Costs.LogicOp);
      Mask.pushAnd(Exists);
      break;
    }
    case Opcode::WherePush: {
      const VecVal &C = Regs[I.A];
      MaskTmp.resize(laneCount());
      for (size_t K = 0; K < laneCount(); ++K)
        MaskTmp[K] = C.I[K] != 0;
      charge(Machine.Costs.LogicOp);
      Mask.pushAnd(MaskTmp);
      break;
    }
    case Opcode::WhereFlip:
      charge(Machine.Costs.LogicOp);
      Mask.flipTop();
      break;
    case Opcode::MaskPop:
      Mask.pop();
      break;
    }
  }
}

} // namespace detail
} // namespace exec
} // namespace simdflat

#endif // SIMDFLAT_EXEC_ENGINECORE_H
