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
/// sets. The hot handlers first take a branch-free pass that computes
/// the same result whenever no lane faults; only when one does do they
/// collect the trap's lane set or run that per-lane sweep (DESIGN.md
/// s11).
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
#include <cstring>
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
/// Comparisons evaluate through double on every lane (the tree
/// walker's rule: integers beyond 2^53 compare as their doubles); each
/// operand lane widens inside the loop, one instantiation per pair of
/// int64_t/double payloads.
template <typename TA, typename TB>
inline void cmpLanes(Opcode Op, int64_t *O, const TA *A, const TB *B,
                     size_t N) {
  auto W = [](auto X) { return static_cast<double>(X); };
  switch (Op) {
  case Opcode::CmpEq:
    for (size_t L = 0; L < N; ++L)
      O[L] = W(A[L]) == W(B[L]);
    break;
  case Opcode::CmpNe:
    for (size_t L = 0; L < N; ++L)
      O[L] = W(A[L]) != W(B[L]);
    break;
  case Opcode::CmpLt:
    for (size_t L = 0; L < N; ++L)
      O[L] = W(A[L]) < W(B[L]);
    break;
  case Opcode::CmpLe:
    for (size_t L = 0; L < N; ++L)
      O[L] = W(A[L]) <= W(B[L]);
    break;
  case Opcode::CmpGt:
    for (size_t L = 0; L < N; ++L)
      O[L] = W(A[L]) > W(B[L]);
    break;
  case Opcode::CmpGe:
    for (size_t L = 0; L < N; ++L)
      O[L] = W(A[L]) >= W(B[L]);
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
/// All-ones on an active lane, zero on an idle one.
inline uint64_t laneMask(uint8_t M) {
  return -static_cast<uint64_t>(M != 0);
}
/// Top bit set iff \p V is zero: (V | -V) has it set iff V is not.
inline uint64_t zeroBit(uint64_t V) { return ~(V | (0 - V)); }
/// Masked commit as a bitwise select: lanes with a zero mask byte keep
/// every bit of their old value (-0.0 and NaN payloads included).
inline void maskedStoreI(int64_t *Dst, const int64_t *Src,
                         const uint8_t *M, size_t N) {
  for (size_t L = 0; L < N; ++L) {
    uint64_t Sel = laneMask(M[L]);
    Dst[L] = static_cast<int64_t>((static_cast<uint64_t>(Src[L]) & Sel) |
                                  (static_cast<uint64_t>(Dst[L]) & ~Sel));
  }
}
inline void maskedStoreR(double *Dst, const double *Src, const uint8_t *M,
                         size_t N) {
  for (size_t L = 0; L < N; ++L) {
    uint64_t Sel = laneMask(M[L]), New, Old;
    std::memcpy(&New, &Src[L], sizeof(New));
    std::memcpy(&Old, &Dst[L], sizeof(Old));
    Old = (New & Sel) | (Old & ~Sel);
    std::memcpy(&Dst[L], &Old, sizeof(Old));
  }
}
/// Mask bytes of a logical lane vector: 1 where the value is nonzero.
inline void truthBytes(uint8_t *O, const int64_t *A, size_t N) {
  for (size_t L = 0; L < N; ++L)
    O[L] = static_cast<uint8_t>(~zeroBit(static_cast<uint64_t>(A[L])) >> 63);
}
/// \p V where \p Keep is all-ones, all bits clear (0, +0.0) where it
/// is zero.
inline int64_t keepBits(int64_t V, uint64_t Keep) {
  return static_cast<int64_t>(static_cast<uint64_t>(V) & Keep);
}
inline double keepBits(double V, uint64_t Keep) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  B &= Keep;
  std::memcpy(&V, &B, sizeof(V));
  return V;
}
/// The bound of a dimension of \p Extent elements: an extent below 1
/// admits no index.
inline uint64_t indexBound(int64_t Extent) {
  return Extent < 1 ? 0 : static_cast<uint64_t>(Extent);
}
/// Top bit set iff \p IdxV lies outside [1, \p Bound]: IdxV - 1 and
/// Bound - IdxV both have a clear top bit exactly when it is inside (in
/// wrapping unsigned arithmetic, for any IdxV and Bound < 2^63), so a
/// bounds pass needs no 64-bit compare and vectorizes on the baseline
/// ISA.
inline uint64_t outOfRange(int64_t IdxV, uint64_t Bound) {
  auto U = static_cast<uint64_t>(IdxV);
  return (U - 1) | (Bound - U);
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
  std::vector<uint64_t> FlatsTmp, OutTmp;
  std::vector<uint8_t> MaskTmp;
  std::vector<ScalVal> CallArgs;
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
    // An OR reduction decides; only the failing path collects lanes.
    uint64_t Diff = 0;
    for (size_t L = 0; L < V.I.size(); ++L)
      Diff |= static_cast<uint64_t>(V.I[L] ^ First);
    if (!Diff)
      return First;
    std::vector<int64_t> Divergent;
    for (size_t L = 0; L < V.I.size(); ++L)
      if (V.I[L] != First)
        Divergent.push_back(static_cast<int64_t>(L));
    trap(TrapKind::NonUniformControl,
         What + " is not control-uniform across lanes; "
                "lane-varying control flow needs WHERE / "
                "WHILE ANY(...)",
         std::move(Divergent));
  }

  /// The gather as one masked pass over every lane: lane L reads its
  /// element, or 0 where an index is out of bounds (a read of the first
  /// element, selected away). \p Ok[L] is 1 where lane L is active and
  /// in bounds. Returns true when some active lane is out of bounds.
  template <typename T>
  bool gatherLanes(T *O, const std::vector<T> &Src, const ir::VarDecl &D,
                   const int32_t *Ops, uint8_t *Ok) {
    static constexpr T Zero{};
    const T *Base = Src.empty() ? &Zero : Src.data();
    const uint8_t *M = Mask.current().data();
    uint64_t ActiveOut = 0;
    auto Pass = [&](auto Flat, auto Out) {
      for (size_t L = 0; L < laneCount(); ++L) {
        uint64_t Keep = (Out(L) >> 63) - 1;
        O[L] = keepBits(Base[Flat(L) & Keep], Keep);
        Ok[L] = static_cast<uint8_t>(M[L] & Keep);
        ActiveOut |= ~Keep & laneMask(M[L]);
      }
    };
    if (Ops[0] == 1) {
      // A 1-D reference reads its index register in place.
      const int64_t *X = Regs[Ops[1]].I.data();
      uint64_t Bound = indexBound(D.Dims[0]);
      Pass([X](size_t L) { return static_cast<uint64_t>(X[L]) - 1; },
           [X, Bound](size_t L) { return outOfRange(X[L], Bound); });
    } else {
      // Deeper ones fold row-major offsets and out-of-range bits into
      // two scratch rows, one dimension at a time.
      FlatsTmp.assign(laneCount(), 0);
      OutTmp.assign(laneCount(), 0);
      uint64_t *F = FlatsTmp.data(), *B = OutTmp.data();
      for (int32_t Dim = 0; Dim < Ops[0]; ++Dim) {
        const int64_t *X = Regs[Ops[1 + Dim]].I.data();
        auto Ext = static_cast<uint64_t>(D.Dims[Dim]);
        uint64_t Bound = indexBound(D.Dims[Dim]);
        for (size_t L = 0; L < laneCount(); ++L) {
          F[L] = F[L] * Ext + (static_cast<uint64_t>(X[L]) - 1);
          B[L] |= outOfRange(X[L], Bound);
        }
      }
      Pass([F](size_t L) { return F[L]; }, [B](size_t L) { return B[L]; });
    }
    return ActiveOut != 0;
  }

  /// True when some active lane indexes outside \p D's extents: one OR
  /// reduction per dimension, no lane set.
  bool anyActiveOutOfBounds(const ir::VarDecl &D, const int32_t *Ops) const {
    const uint8_t *M = Mask.current().data();
    uint64_t Out = 0;
    for (int32_t Dim = 0; Dim < Ops[0]; ++Dim) {
      const int64_t *X = Regs[Ops[1 + Dim]].I.data();
      uint64_t Bound = indexBound(D.Dims[Dim]);
      for (size_t L = 0; L < laneCount(); ++L)
        Out |= outOfRange(X[L], Bound) & laneMask(M[L]);
    }
    return (Out >> 63) != 0;
  }

  /// Masked scatter of an index tuple that is in bounds on every active
  /// lane, committed in lane order (a later lane wins a conflict).
  template <typename T>
  void scatterLanes(T *Dst, const T *Src, const ir::VarDecl &D,
                    const int32_t *Ops) {
    const uint8_t *M = Mask.current().data();
    size_t N = laneCount();
    if (Ops[0] == 1) {
      const int64_t *X = Regs[Ops[1]].I.data();
      for (size_t L = 0; L < N; ++L)
        if (M[L])
          Dst[X[L] - 1] = Src[L];
      return;
    }
    for (size_t L = 0; L < N; ++L) {
      if (!M[L])
        continue;
      int64_t Flat = 0;
      for (int32_t Dim = 0; Dim < Ops[0]; ++Dim)
        Flat = Flat * D.Dims[Dim] + (Regs[Ops[1 + Dim]].I[L] - 1);
      Dst[Flat] = Src[L];
    }
  }

  /// Lanes marked in \p Sel whose element \p X0[L] of a distributed
  /// dimension of \p Extent elements lives on another lane:
  /// MachineConfig::laneOf with the layout decided once (a power-of-two
  /// cyclic machine masks, and that loop vectorizes). Unmarked lanes may
  /// hold any index; their home is computed in unsigned arithmetic and
  /// discarded.
  int64_t remoteLanes(const int64_t *X0, int64_t Extent,
                      const uint8_t *Sel) const {
    auto G = static_cast<uint64_t>(Lanes);
    uint64_t Count = 0;
    auto CountIf = [&](auto Home) {
      for (size_t L = 0; L < laneCount(); ++L) {
        uint64_t Away = Home(static_cast<uint64_t>(X0[L]) - 1) ^ L;
        Count += (~zeroBit(Away) >> 63) & static_cast<uint64_t>(Sel[L] != 0);
      }
    };
    if (Machine.DataLayout == machine::Layout::Cyclic) {
      if ((G & (G - 1)) == 0)
        CountIf([G](uint64_t E) { return E & (G - 1); });
      else
        CountIf([G](uint64_t E) { return E % G; });
    } else {
      auto Chunk = static_cast<uint64_t>(Machine.layersFor(Extent));
      CountIf([Chunk](uint64_t E) { return E / Chunk; });
    }
    return static_cast<int64_t>(Count);
  }

  /// Operand-register list behind an Extra offset: [count, regs...].
  const int32_t *extra(int32_t Off) const { return &EP.Extra[Off]; }
};

// Pinned to a cache line: the dispatch loop's speed otherwise moves
// with wherever the linker happens to place it.
[[gnu::aligned(64)]] inline void Core::run() {
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
      charge(Machine.Costs.GatherOp);
      // One masked pass over every lane: out-of-bounds lanes read 0, and
      // MaskTmp marks the active in-bounds ones.
      MaskTmp.resize(laneCount());
      bool ActiveOut =
          S.isReal() ? gatherLanes(outR(I.A).data(), S.R, D, Ops,
                                   MaskTmp.data())
                     : gatherLanes(outI(I.A, D.Kind).data(), S.I, D, Ops,
                                   MaskTmp.data());
      if (D.Distribution == ir::Dist::Distributed && Ops[0] > 0)
        Stats.CommAccesses +=
            remoteLanes(Regs[Ops[1]].I.data(), D.Dims[0], MaskTmp.data());
      if (ActiveOut) {
        std::vector<int64_t> BadLanes;
        for (int64_t L = 0; L < Lanes; ++L)
          if (Mask.isActive(L) && !MaskTmp[static_cast<size_t>(L)])
            BadLanes.push_back(L);
        trap(TrapKind::OutOfBounds,
             "active lane(s) read out of bounds from '" + D.Name + "'",
             std::move(BadLanes));
      }
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
      // A scatter with an active lane out of bounds commits nothing and
      // traps with those lanes.
      if (anyActiveOutOfBounds(D, Ops)) {
        std::vector<int64_t> BadLanes;
        for (int64_t L = 0; L < Lanes; ++L) {
          if (!Mask.isActive(L))
            continue;
          for (int32_t Dim = 0; Dim < N; ++Dim)
            if (outOfRange(Regs[Ops[1 + Dim]].I[static_cast<size_t>(L)],
                           indexBound(D.Dims[Dim])) >> 63) {
              BadLanes.push_back(L);
              break;
            }
        }
        trap(TrapKind::OutOfBounds,
             "active lane(s) write out of bounds to '" + D.Name + "'",
             std::move(BadLanes));
      }
      if (D.Distribution == ir::Dist::Distributed && N > 0)
        Stats.CommAccesses += remoteLanes(Regs[Ops[1]].I.data(), D.Dims[0],
                                          Mask.current().data());
      if (S.isReal())
        scatterLanes(S.R.data(), C.R.data(), D, Ops);
      else
        scatterLanes(S.I.data(), C.I.data(), D, Ops);
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
      const VecVal &L = Regs[I.B], &R = Regs[I.C];
      int64_t *Out = outI(I.A, ir::ScalarKind::Bool).data();
      bool LReal = L.Kind == ir::ScalarKind::Real;
      bool RReal = R.Kind == ir::ScalarKind::Real;
      if (LReal && RReal)
        cmpLanes(I.Op, Out, L.R.data(), R.R.data(), laneCount());
      else if (LReal)
        cmpLanes(I.Op, Out, L.R.data(), R.I.data(), laneCount());
      else if (RReal)
        cmpLanes(I.Op, Out, L.I.data(), R.R.data(), laneCount());
      else
        cmpLanes(I.Op, Out, L.I.data(), R.I.data(), laneCount());
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
      charge(Machine.Costs.IntOp);
      const VecVal &L = Regs[I.B], &R = Regs[I.C];
      std::vector<int64_t> &Out = outI(I.A, ir::ScalarKind::Int);
      bool IsDiv = I.Op == Opcode::DivI;
      // The zero-divisor sweep collects the faulting active-lane set
      // for the trap. (A zero check ahead of a dense divide measured
      // slower: the 64 divides dominate either way.)
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
          Out[K] = IsDiv ? interp::divInt(LV, RV) : interp::modInt(LV, RV);
        }
      }
      if (!ZeroLanes.empty())
        trap(TrapKind::DivByZero,
             std::string(IsDiv ? "division" : "MOD") +
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
      const int64_t *A = Regs[I.B].I.data();
      const uint8_t *M = Mask.current().data();
      // One OR reduction: some active lane true (ANY), some active lane
      // false (not ALL; a top bit). No active lane: ANY is false, ALL
      // is true.
      uint64_t Hit = 0;
      if (IsAll)
        for (size_t L = 0; L < laneCount(); ++L)
          Hit |= zeroBit(static_cast<uint64_t>(A[L])) & laneMask(M[L]);
      else
        for (size_t L = 0; L < laneCount(); ++L)
          Hit |= static_cast<uint64_t>(A[L]) & laneMask(M[L]);
      bool Acc = IsAll ? (Hit >> 63) == 0 : Hit != 0;
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
      CallArgs.resize(static_cast<size_t>(N));
      for (int64_t L = 0; L < Lanes; ++L) {
        if (!Mask.isActive(L))
          continue;
        for (int32_t A = 0; A < N; ++A)
          CallArgs[static_cast<size_t>(A)] = Regs[Ops[1 + A]].lane(L);
        ScalVal R;
        try {
          R = Impl->Fn(CallArgs);
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
      truthBytes(MaskTmp.data(), C.I.data(), laneCount());
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
