//===- interp/SimdInterp.cpp ----------------------------------*- C++ -*-===//

#include "interp/SimdInterp.h"

#include "codegen/NativeEngine.h"
#include "exec/Engine.h"
#include "exec/Lower.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::ir;

namespace {

/// Coerces a lane vector to \p K (int<->real conversion on assignment).
VecVal coerceVec(VecVal V, ScalarKind K) {
  if (V.Kind == K)
    return V;
  VecVal Out;
  Out.Kind = K;
  if (K == ScalarKind::Real) {
    Out.R.reserve(V.I.size());
    for (int64_t X : V.I)
      Out.R.push_back(static_cast<double>(X));
    return Out;
  }
  if (K == ScalarKind::Int && V.Kind == ScalarKind::Real) {
    Out.I.reserve(V.R.size());
    for (double X : V.R)
      Out.I.push_back(static_cast<int64_t>(X));
    return Out;
  }
  reportFatalError("simd interp: invalid vector coercion");
}

} // namespace

class SimdInterp::Impl {
public:
  Impl(const Program &Prog, const machine::MachineConfig &Machine,
       const ExternRegistry *Externs, RunOptions Opts)
      : Prog(Prog), Machine(Machine), Externs(Externs),
        Opts(std::move(Opts)), Store(Prog, Machine.Gran),
        Mask(Machine.Gran), Lanes(Machine.Gran) {}

  const Program &Prog;
  machine::MachineConfig Machine;
  const ExternRegistry *Externs;
  RunOptions Opts;
  DataStore Store;
  machine::MaskStack Mask;
  int64_t Lanes;
  SimdRunResult Result;
  std::shared_ptr<const exec::Program> Compiled;
  int64_t LoopIterations = 0;
  bool HasRun = false;

  RunOutcome<SimdRunResult> run() {
    assert(!HasRun && "SimdInterp::run() may be called once");
    HasRun = true;
    // API misuse, not a program fault: running the lockstep machine on
    // an unconverted program is a caller bug.
    if (Prog.dialect() != Dialect::F90Simd)
      reportFatalError("simd interp: program '" + Prog.name() +
                       "' is not in the F90simd dialect (run "
                       "transform::simdize first)");
    if (Opts.Eng != Engine::Tree) {
      if (!Compiled)
        Compiled = std::make_shared<exec::Program>(
            exec::lower(Prog, exec::Mode::Simd));
      Result.EngineUsed = Opts.Eng;
      try {
        // Native runs the JIT-compiled loops when a toolchain produced
        // them, and degrades to the bytecode core otherwise (the result
        // records which engine actually ran).
        if (Opts.Eng != Engine::Native ||
            !codegen::runSimdNative(*Compiled, Prog, Machine, Externs, Opts,
                                    Store, Result)) {
          Result.EngineUsed = Engine::Bytecode;
          exec::runSimd(*Compiled, Machine, Externs, Opts, Store, Result);
        }
      } catch (TrapException &E) {
        return std::move(E.T);
      }
      return std::move(Result);
    }
    Result.EngineUsed = Engine::Tree;
    Result.Tr.Watch = Opts.Watch;
    Result.Tr.Lanes = Lanes;
    try {
      execBody(Prog.body());
    } catch (TrapException &E) {
      return std::move(E.T);
    }
    Result.Stats.Seconds = Result.Stats.Cycles * Machine.SecondsPerCycle;
    return std::move(Result);
  }

private:
  /// Enclosing statements, outermost first; rendered lazily on traps.
  std::vector<const Stmt *> StmtStack;

  size_t laneCount() const { return static_cast<size_t>(Lanes); }

  [[noreturn]] void trap(TrapKind K, std::string Detail,
                         std::vector<int64_t> FaultLanes = {}) {
    throw TrapException{{K, std::move(FaultLanes),
                         renderStmtLocation(StmtStack), std::move(Detail)}};
  }

  void charge(double Cycles) {
    Result.Stats.Cycles += Cycles;
    Result.Stats.Instructions += 1;
    if (Opts.Fuel > 0 && Result.Stats.Instructions > Opts.Fuel)
      trap(TrapKind::FuelExhausted,
           "fuel budget of " + std::to_string(Opts.Fuel) +
               " instructions exhausted in '" + Prog.name() + "'");
    if (deadlineExpired(Opts, Result.Stats.Instructions))
      trap(TrapKind::DeadlineExpired,
           "wall-clock deadline expired in '" + Prog.name() + "'");
  }

  void countLoopIteration() {
    if (++LoopIterations > Opts.MaxLoopIterations)
      trap(TrapKind::FuelExhausted,
           "loop iteration limit of " +
               std::to_string(Opts.MaxLoopIterations) + " exceeded in '" +
               Prog.name() + "' (non-terminating transform?)");
    charge(Machine.Costs.LoopOverhead);
  }

  bool isWorkTarget(const std::string &Name) const {
    return std::find(Opts.WorkTargets.begin(), Opts.WorkTargets.end(),
                     Name) != Opts.WorkTargets.end();
  }

  bool isWorkCall(const std::string &Name) const {
    return std::find(Opts.WorkCalls.begin(), Opts.WorkCalls.end(), Name) !=
           Opts.WorkCalls.end();
  }

  void recordWorkStep() {
    Result.Stats.WorkSteps += 1;
    Result.Stats.WorkActiveLanes += Mask.activeCount();
    Result.Stats.WorkTotalLanes += Lanes;
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
    Result.Tr.Steps.push_back(std::move(Step));
  }

  /// Requires \p V to hold the same value on every lane and returns it.
  int64_t uniformInt(const VecVal &V, const char *What) {
    assert(V.Kind != ScalarKind::Real && "uniformInt of a real");
    int64_t First = V.I[0];
    std::vector<int64_t> Divergent;
    for (size_t L = 0; L < V.I.size(); ++L)
      if (V.I[L] != First)
        Divergent.push_back(static_cast<int64_t>(L));
    if (!Divergent.empty())
      trap(TrapKind::NonUniformControl,
           std::string(What) + " is not control-uniform across lanes; "
                               "lane-varying control flow needs WHERE / "
                               "WHILE ANY(...)",
           std::move(Divergent));
    return First;
  }

  bool uniformBool(const VecVal &V, const char *What) {
    return uniformInt(V, What) != 0;
  }

  VecVal eval(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::IntLit:
      return VecVal::broadcastInt(cast<IntLit>(&E)->value(), Lanes);
    case Expr::Kind::RealLit:
      return VecVal::broadcastReal(cast<RealLit>(&E)->value(), Lanes);
    case Expr::Kind::BoolLit:
      return VecVal::broadcastBool(cast<BoolLit>(&E)->value(), Lanes);
    case Expr::Kind::VarRef: {
      const Slot &S = Store.slot(cast<VarRef>(&E)->name());
      if (S.Decl->isArray())
        trap(TrapKind::InvalidProgram, "whole-array reference to '" +
                                           S.Decl->Name +
                                           "' outside a reduction");
      VecVal Out;
      Out.Kind = S.Decl->Kind;
      if (S.isReal()) {
        if (S.Width == 1)
          Out.R.assign(laneCount(), S.R[0]);
        else
          Out.R = S.R;
      } else {
        if (S.Width == 1)
          Out.I.assign(laneCount(), S.I[0]);
        else
          Out.I = S.I;
      }
      return Out;
    }
    case Expr::Kind::ArrayRef:
      return evalGather(*cast<ArrayRef>(&E));
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      VecVal V = eval(U->operand());
      if (U->op() == UnOp::Not) {
        charge(Machine.Costs.LogicOp);
        for (int64_t &X : V.I)
          X = !X;
        return V;
      }
      charge(V.Kind == ScalarKind::Real ? Machine.Costs.RealOp
                                        : Machine.Costs.IntOp);
      if (V.Kind == ScalarKind::Real)
        for (double &X : V.R)
          X = -X;
      else
        for (int64_t &X : V.I)
          X = -X;
      return V;
    }
    case Expr::Kind::Binary:
      return evalBinary(*cast<BinaryExpr>(&E));
    case Expr::Kind::Intrinsic:
      return evalIntrinsic(*cast<IntrinsicExpr>(&E));
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(&E);
      return evalCall(C->callee(), C->args(), C->type());
    }
    }
    SIMDFLAT_UNREACHABLE("bad Expr kind");
  }

  VecVal evalGather(const ArrayRef &A) {
    const Slot &S = Store.slot(A.name());
    const VarDecl &D = *S.Decl;
    std::vector<VecVal> Idx;
    Idx.reserve(A.indices().size());
    for (const ExprPtr &I : A.indices())
      Idx.push_back(eval(*I));
    charge(Machine.Costs.GatherOp);
    VecVal Out;
    Out.Kind = D.Kind;
    if (S.isReal())
      Out.R.assign(laneCount(), 0.0);
    else
      Out.I.assign(laneCount(), 0);
    std::vector<int64_t> BadLanes;
    for (int64_t L = 0; L < Lanes; ++L) {
      int64_t Flat = 0;
      bool InBounds = true;
      for (size_t Dim = 0; Dim < Idx.size(); ++Dim) {
        int64_t IdxV = Idx[Dim].I[static_cast<size_t>(L)];
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
      if (D.Distribution == Dist::Distributed && Mask.isActive(L)) {
        int64_t Dim0 = Idx[0].I[static_cast<size_t>(L)];
        if (Machine.laneOf(Dim0, D.Dims[0]) != L)
          Result.Stats.CommAccesses += 1;
      }
      if (S.isReal())
        Out.R[static_cast<size_t>(L)] = S.R[static_cast<size_t>(Flat)];
      else
        Out.I[static_cast<size_t>(L)] = S.I[static_cast<size_t>(Flat)];
    }
    if (!BadLanes.empty())
      trap(TrapKind::OutOfBounds,
           "active lane(s) read out of bounds from '" + A.name() + "'",
           std::move(BadLanes));
    return Out;
  }

  VecVal evalBinary(const BinaryExpr &B) {
    VecVal L = eval(B.lhs());
    VecVal R = eval(B.rhs());
    BinOp Op = B.op();
    VecVal Out;
    Out.Kind = B.type();
    if (Op == BinOp::And || Op == BinOp::Or) {
      charge(Machine.Costs.LogicOp);
      Out.I.resize(laneCount());
      for (size_t I = 0; I < laneCount(); ++I)
        Out.I[I] = Op == BinOp::And ? (L.I[I] && R.I[I]) : (L.I[I] || R.I[I]);
      return Out;
    }
    if (isComparison(Op)) {
      charge(Machine.Costs.CmpOp);
      Out.I.resize(laneCount());
      bool Real = L.Kind == ScalarKind::Real || R.Kind == ScalarKind::Real;
      for (size_t I = 0; I < laneCount(); ++I) {
        double LV = Real ? (L.Kind == ScalarKind::Real
                                ? L.R[I]
                                : static_cast<double>(L.I[I]))
                         : static_cast<double>(L.I[I]);
        double RV = Real ? (R.Kind == ScalarKind::Real
                                ? R.R[I]
                                : static_cast<double>(R.I[I]))
                         : static_cast<double>(R.I[I]);
        bool V = false;
        switch (Op) {
        case BinOp::Eq:
          V = LV == RV;
          break;
        case BinOp::Ne:
          V = LV != RV;
          break;
        case BinOp::Lt:
          V = LV < RV;
          break;
        case BinOp::Le:
          V = LV <= RV;
          break;
        case BinOp::Gt:
          V = LV > RV;
          break;
        case BinOp::Ge:
          V = LV >= RV;
          break;
        default:
          SIMDFLAT_UNREACHABLE("not a comparison");
        }
        Out.I[I] = V;
      }
      return Out;
    }
    // Arithmetic.
    bool Real = B.type() == ScalarKind::Real;
    charge(Real ? Machine.Costs.RealOp : Machine.Costs.IntOp);
    if (Real) {
      VecVal LC = coerceVec(std::move(L), ScalarKind::Real);
      VecVal RC = coerceVec(std::move(R), ScalarKind::Real);
      Out.R.resize(laneCount());
      for (size_t I = 0; I < laneCount(); ++I) {
        switch (Op) {
        case BinOp::Add:
          Out.R[I] = LC.R[I] + RC.R[I];
          break;
        case BinOp::Sub:
          Out.R[I] = LC.R[I] - RC.R[I];
          break;
        case BinOp::Mul:
          Out.R[I] = LC.R[I] * RC.R[I];
          break;
        case BinOp::Div:
          Out.R[I] = RC.R[I] == 0.0 ? 0.0 : LC.R[I] / RC.R[I];
          break;
        default:
          SIMDFLAT_UNREACHABLE("bad real arithmetic op");
        }
      }
      return Out;
    }
    Out.I.resize(laneCount());
    std::vector<int64_t> ZeroLanes;
    for (size_t I = 0; I < laneCount(); ++I) {
      int64_t LV = L.I[I], RV = R.I[I];
      switch (Op) {
      case BinOp::Add:
        Out.I[I] = LV + RV;
        break;
      case BinOp::Sub:
        Out.I[I] = LV - RV;
        break;
      case BinOp::Mul:
        Out.I[I] = LV * RV;
        break;
      case BinOp::Div:
        // Division by zero on an idle lane is a don't-care; active lanes
        // dividing by zero trap.
        if (RV == 0) {
          if (Mask.isActive(static_cast<int64_t>(I)))
            ZeroLanes.push_back(static_cast<int64_t>(I));
          Out.I[I] = 0;
        } else {
          Out.I[I] = divInt(LV, RV);
        }
        break;
      case BinOp::Mod:
        if (RV == 0) {
          if (Mask.isActive(static_cast<int64_t>(I)))
            ZeroLanes.push_back(static_cast<int64_t>(I));
          Out.I[I] = 0;
        } else {
          Out.I[I] = modInt(LV, RV);
        }
        break;
      default:
        SIMDFLAT_UNREACHABLE("bad int arithmetic op");
      }
    }
    if (!ZeroLanes.empty())
      trap(TrapKind::DivByZero,
           std::string(Op == BinOp::Mod ? "MOD" : "division") +
               " by zero on active lane(s)",
           std::move(ZeroLanes));
    return Out;
  }

  VecVal evalIntrinsic(const IntrinsicExpr &In) {
    switch (In.op()) {
    case IntrinsicOp::Max:
    case IntrinsicOp::Min: {
      VecVal A = coerceVec(eval(*In.args()[0]), In.type());
      VecVal B = coerceVec(eval(*In.args()[1]), In.type());
      bool Real = In.type() == ScalarKind::Real;
      charge(Real ? Machine.Costs.RealOp : Machine.Costs.IntOp);
      bool IsMax = In.op() == IntrinsicOp::Max;
      if (Real) {
        for (size_t I = 0; I < laneCount(); ++I)
          A.R[I] = IsMax ? std::max(A.R[I], B.R[I]) : std::min(A.R[I], B.R[I]);
      } else {
        for (size_t I = 0; I < laneCount(); ++I)
          A.I[I] = IsMax ? std::max(A.I[I], B.I[I]) : std::min(A.I[I], B.I[I]);
      }
      return A;
    }
    case IntrinsicOp::Abs: {
      VecVal A = eval(*In.args()[0]);
      charge(A.Kind == ScalarKind::Real ? Machine.Costs.RealOp
                                        : Machine.Costs.IntOp);
      if (A.Kind == ScalarKind::Real)
        for (double &X : A.R)
          X = std::fabs(X);
      else
        for (int64_t &X : A.I)
          X = std::llabs(X);
      return A;
    }
    case IntrinsicOp::Sqrt: {
      VecVal A = eval(*In.args()[0]);
      charge(Machine.Costs.RealOp);
      std::vector<int64_t> NegLanes;
      for (size_t I = 0; I < laneCount(); ++I) {
        if (A.R[I] < 0.0 && Mask.isActive(static_cast<int64_t>(I)))
          NegLanes.push_back(static_cast<int64_t>(I));
        A.R[I] = A.R[I] < 0.0 ? 0.0 : std::sqrt(A.R[I]);
      }
      if (!NegLanes.empty())
        trap(TrapKind::DomainError, "SQRT of a negative on active lane(s)",
             std::move(NegLanes));
      return A;
    }
    case IntrinsicOp::LaneIndex: {
      VecVal Out;
      Out.Kind = ScalarKind::Int;
      Out.I.resize(laneCount());
      for (size_t I = 0; I < laneCount(); ++I)
        Out.I[I] = static_cast<int64_t>(I) + 1;
      return Out;
    }
    case IntrinsicOp::NumLanes:
      return VecVal::broadcastInt(Lanes, Lanes);
    case IntrinsicOp::Any:
    case IntrinsicOp::All: {
      VecVal A = eval(*In.args()[0]);
      charge(Machine.Costs.ReduceOp);
      bool Acc = In.op() == IntrinsicOp::All;
      for (int64_t L = 0; L < Lanes; ++L) {
        if (!Mask.isActive(L))
          continue;
        bool V = A.I[static_cast<size_t>(L)] != 0;
        Acc = In.op() == IntrinsicOp::Any ? (Acc || V) : (Acc && V);
      }
      return VecVal::broadcastBool(Acc, Lanes);
    }
    case IntrinsicOp::MaxRed:
    case IntrinsicOp::MinRed:
    case IntrinsicOp::SumRed: {
      VecVal A = eval(*In.args()[0]);
      charge(Machine.Costs.ReduceOp);
      bool IsMax = In.op() == IntrinsicOp::MaxRed;
      bool IsMin = In.op() == IntrinsicOp::MinRed;
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
      if (A.Kind == ScalarKind::Real) {
        double Acc = IsMax   ? -std::numeric_limits<double>::infinity()
                     : IsMin ? std::numeric_limits<double>::infinity()
                             : 0.0;
        for (int64_t L = 0; L < Lanes; ++L)
          if (Mask.isActive(L))
            Acc = Combine(Acc, A.R[static_cast<size_t>(L)]);
        return VecVal::broadcastReal(Acc, Lanes);
      }
      int64_t Acc = IsMax   ? std::numeric_limits<int64_t>::min()
                    : IsMin ? std::numeric_limits<int64_t>::max()
                            : 0;
      for (int64_t L = 0; L < Lanes; ++L)
        if (Mask.isActive(L))
          Acc = Combine(Acc, A.I[static_cast<size_t>(L)]);
      return VecVal::broadcastInt(Acc, Lanes);
    }
    case IntrinsicOp::MaxVal:
    case IntrinsicOp::SumVal: {
      const auto *V = cast<VarRef>(In.args()[0].get());
      const Slot &S = Store.slot(V->name());
      assert(S.Decl->isArray() && "array reduction of a scalar");
      charge(Machine.Costs.ReduceOp *
             static_cast<double>(Machine.layersFor(S.Width)));
      bool IsMax = In.op() == IntrinsicOp::MaxVal;
      if (S.isReal()) {
        double Acc = IsMax ? -std::numeric_limits<double>::infinity() : 0.0;
        for (double X : S.R)
          Acc = IsMax ? std::max(Acc, X) : Acc + X;
        return VecVal::broadcastReal(Acc, Lanes);
      }
      int64_t Acc = IsMax ? std::numeric_limits<int64_t>::min() : 0;
      for (int64_t X : S.I)
        Acc = IsMax ? std::max(Acc, X) : Acc + X;
      return VecVal::broadcastInt(Acc, Lanes);
    }
    }
    SIMDFLAT_UNREACHABLE("bad IntrinsicOp");
  }

  VecVal evalCall(const std::string &Callee,
                  const std::vector<ExprPtr> &Args, ScalarKind RetKind) {
    if (!Externs)
      trap(TrapKind::ExternFailure,
           "no extern registry for call to '" + Callee + "'");
    const ExternImpl *Impl = Externs->lookup(Callee);
    if (!Impl)
      trap(TrapKind::ExternFailure, "unbound extern '" + Callee + "'");
    std::vector<VecVal> ArgVecs;
    ArgVecs.reserve(Args.size());
    for (const ExprPtr &A : Args)
      ArgVecs.push_back(eval(*A));
    charge(Impl->Cost);
    if (isWorkCall(Callee))
      recordWorkStep();
    VecVal Out;
    Out.Kind = RetKind;
    if (RetKind == ScalarKind::Real)
      Out.R.assign(laneCount(), 0.0);
    else
      Out.I.assign(laneCount(), 0);
    std::vector<ScalVal> LaneArgs(Args.size());
    for (int64_t L = 0; L < Lanes; ++L) {
      if (!Mask.isActive(L))
        continue;
      for (size_t A = 0; A < ArgVecs.size(); ++A)
        LaneArgs[A] = ArgVecs[A].lane(L);
      ScalVal R;
      try {
        R = Impl->Fn(LaneArgs);
      } catch (const ExternError &E) {
        trap(TrapKind::ExternFailure,
             "extern '" + Callee + "' failed: " + E.Message, {L});
      }
      if (RetKind == ScalarKind::Real)
        Out.R[static_cast<size_t>(L)] = R.asNumeric();
      else
        Out.I[static_cast<size_t>(L)] = R.I;
    }
    return Out;
  }

  void execAssign(const AssignStmt &A) {
    VecVal V = eval(A.value());
    if (const auto *T = dyn_cast<VarRef>(&A.target())) {
      Slot &S = Store.slot(T->name());
      assert(S.Decl->isScalar() && "assignment to whole array");
      VecVal C = coerceVec(std::move(V), S.Decl->Kind);
      charge(Machine.Costs.MoveOp);
      if (S.Width == 1) {
        // Control variable: the value must be uniform over active lanes.
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
              if (Mask.isActive(L) &&
                  C.R[static_cast<size_t>(L)] != Val)
                VaryLanes.push_back(L);
            if (VaryLanes.empty())
              S.R[0] = Val;
          } else {
            int64_t Val = C.I[static_cast<size_t>(FirstActive)];
            for (int64_t L = FirstActive; L < Lanes; ++L)
              if (Mask.isActive(L) &&
                  C.I[static_cast<size_t>(L)] != Val)
                VaryLanes.push_back(L);
            if (VaryLanes.empty())
              S.I[0] = Val;
          }
          if (!VaryLanes.empty())
            trap(TrapKind::NonUniformControl,
                 "lane-varying store to control variable '" + T->name() +
                     "'",
                 std::move(VaryLanes));
        }
      } else {
        for (int64_t L = 0; L < Lanes; ++L) {
          if (!Mask.isActive(L))
            continue;
          if (S.isReal())
            S.R[static_cast<size_t>(L)] = C.R[static_cast<size_t>(L)];
          else
            S.I[static_cast<size_t>(L)] = C.I[static_cast<size_t>(L)];
        }
      }
      if (isWorkTarget(T->name()))
        recordWorkStep();
      return;
    }
    const auto *T = cast<ArrayRef>(&A.target());
    Slot &S = Store.slot(T->name());
    const VarDecl &D = *S.Decl;
    std::vector<VecVal> Idx;
    Idx.reserve(T->indices().size());
    for (const ExprPtr &I : T->indices())
      Idx.push_back(eval(*I));
    VecVal C = coerceVec(std::move(V), D.Kind);
    charge(Machine.Costs.ScatterOp);
    // Validate every active lane before committing any store: a scatter
    // with a faulting lane must not half-commit.
    std::vector<int64_t> Flats(laneCount(), -1);
    std::vector<int64_t> BadLanes;
    for (int64_t L = 0; L < Lanes; ++L) {
      if (!Mask.isActive(L))
        continue;
      int64_t Flat = 0;
      bool InBounds = true;
      for (size_t Dim = 0; Dim < Idx.size(); ++Dim) {
        int64_t IdxV = Idx[Dim].I[static_cast<size_t>(L)];
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
           "active lane(s) write out of bounds to '" + T->name() + "'",
           std::move(BadLanes));
    for (int64_t L = 0; L < Lanes; ++L) {
      if (!Mask.isActive(L))
        continue;
      int64_t Flat = Flats[static_cast<size_t>(L)];
      if (D.Distribution == Dist::Distributed) {
        int64_t Dim0 = Idx[0].I[static_cast<size_t>(L)];
        if (Machine.laneOf(Dim0, D.Dims[0]) != L)
          Result.Stats.CommAccesses += 1;
      }
      if (S.isReal())
        S.R[static_cast<size_t>(Flat)] = C.R[static_cast<size_t>(L)];
      else
        S.I[static_cast<size_t>(Flat)] = C.I[static_cast<size_t>(L)];
    }
    if (isWorkTarget(T->name()))
      recordWorkStep();
  }

  void execForall(const ForallStmt &F) {
    int64_t Lo = uniformInt(eval(F.lo()), "FORALL lower bound");
    int64_t Hi = uniformInt(eval(F.hi()), "FORALL upper bound");
    Slot &IV = Store.slot(F.indexVar());
    if (IV.Width != Lanes)
      trap(TrapKind::InvalidProgram, "FORALL index '" + F.indexVar() +
                                         "' must be a replicated variable");
    if (Hi < Lo)
      return;
    int64_t Layers = Machine.layersFor(Hi);
    for (int64_t Layer = 0; Layer < Layers; ++Layer) {
      countLoopIteration();
      // Per-lane element ids for this layer under the machine layout.
      std::vector<uint8_t> Exists(laneCount(), 0);
      int64_t Chunk = Machine.layersFor(Hi); // block chunk height
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
      if (F.mask()) {
        VecVal UserMask = eval(*F.mask());
        std::vector<uint8_t> M(laneCount());
        for (size_t I = 0; I < laneCount(); ++I)
          M[I] = UserMask.I[I] != 0;
        charge(Machine.Costs.LogicOp);
        Mask.pushAnd(M);
        execBody(F.body());
        Mask.pop();
      } else {
        execBody(F.body());
      }
      Mask.pop();
    }
  }

  void execBody(const Body &B) {
    for (const StmtPtr &SP : B) {
      const Stmt &S = *SP;
      StmtStack.push_back(&S);
      switch (S.kind()) {
      case Stmt::Kind::Assign:
        execAssign(*cast<AssignStmt>(&S));
        break;
      case Stmt::Kind::If: {
        const auto *I = cast<IfStmt>(&S);
        charge(Machine.Costs.CmpOp);
        if (uniformBool(eval(I->cond()), "IF condition"))
          execBody(I->thenBody());
        else
          execBody(I->elseBody());
        break;
      }
      case Stmt::Kind::Where: {
        const auto *W = cast<WhereStmt>(&S);
        VecVal CondV = eval(W->cond());
        std::vector<uint8_t> M(laneCount());
        for (size_t I = 0; I < laneCount(); ++I)
          M[I] = CondV.I[I] != 0;
        charge(Machine.Costs.LogicOp);
        Mask.pushAnd(M);
        execBody(W->thenBody());
        if (!W->elseBody().empty()) {
          charge(Machine.Costs.LogicOp);
          Mask.flipTop();
          execBody(W->elseBody());
        }
        Mask.pop();
        break;
      }
      case Stmt::Kind::Do: {
        const auto *D = cast<DoStmt>(&S);
        int64_t Lo = uniformInt(eval(D->lo()), "DO lower bound");
        int64_t Hi = uniformInt(eval(D->hi()), "DO upper bound");
        int64_t Step =
            D->step() ? uniformInt(eval(*D->step()), "DO step") : 1;
        if (Step == 0)
          trap(TrapKind::InvalidProgram, "DO step of zero");
        Slot &IV = Store.slot(D->indexVar());
        for (int64_t V = Lo; Step > 0 ? V <= Hi : V >= Hi; V += Step) {
          countLoopIteration();
          IV.I.assign(IV.I.size(), V);
          execBody(D->body());
        }
        int64_t Trips = Step > 0 ? (Hi >= Lo ? (Hi - Lo) / Step + 1 : 0)
                                 : (Lo >= Hi ? (Lo - Hi) / (-Step) + 1 : 0);
        IV.I.assign(IV.I.size(), Lo + Trips * Step);
        break;
      }
      case Stmt::Kind::While: {
        const auto *W = cast<WhileStmt>(&S);
        while (uniformBool(eval(W->cond()), "WHILE condition")) {
          countLoopIteration();
          execBody(W->body());
        }
        break;
      }
      case Stmt::Kind::Repeat: {
        const auto *R = cast<RepeatStmt>(&S);
        do {
          countLoopIteration();
          execBody(R->body());
        } while (!uniformBool(eval(R->untilCond()), "UNTIL condition"));
        break;
      }
      case Stmt::Kind::Forall:
        execForall(*cast<ForallStmt>(&S));
        break;
      case Stmt::Kind::Call: {
        const auto *C = cast<CallStmt>(&S);
        evalCall(C->callee(), C->args(), ScalarKind::Int);
        break;
      }
      case Stmt::Kind::Label:
      case Stmt::Kind::Goto:
        trap(TrapKind::InvalidProgram,
             "GOTO-form control flow is not executable on the SIMD "
             "machine; run the front end's loop recovery first");
      }
      StmtStack.pop_back();
    }
  }
};

SimdInterp::SimdInterp(const Program &Prog,
                       const machine::MachineConfig &Machine,
                       const ExternRegistry *Externs, RunOptions Opts)
    : P(std::make_unique<Impl>(Prog, Machine, Externs, std::move(Opts))) {}

SimdInterp::~SimdInterp() = default;

DataStore &SimdInterp::store() { return P->Store; }

void SimdInterp::setCompiled(std::shared_ptr<const exec::Program> Prog) {
  P->Compiled = std::move(Prog);
}

const machine::MachineConfig &SimdInterp::machineConfig() const {
  return P->Machine;
}

RunOutcome<SimdRunResult> SimdInterp::run() { return P->run(); }
