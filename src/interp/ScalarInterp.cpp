//===- interp/ScalarInterp.cpp --------------------------------*- C++ -*-===//

#include "interp/ScalarInterp.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::ir;

namespace {

/// "(3, 9)" for a subscript list (trap details).
std::string renderIndices(const std::vector<int64_t> &Idx) {
  std::string Out = " (";
  for (size_t I = 0; I < Idx.size(); ++I) {
    if (I > 0)
      Out += ", ";
    Out += std::to_string(Idx[I]);
  }
  Out += ')';
  return Out;
}

ScalVal coerce(const ScalVal &V, ScalarKind K) {
  if (V.Kind == K)
    return V;
  if (K == ScalarKind::Real)
    return ScalVal::makeReal(V.asNumeric());
  if (K == ScalarKind::Int && V.Kind == ScalarKind::Real)
    return ScalVal::makeInt(static_cast<int64_t>(V.R));
  reportFatalError("scalar interp: invalid coercion");
}

} // namespace

class ScalarInterp::Impl {
public:
  Impl(const Program &Prog, const machine::MachineConfig &Machine,
       const ExternRegistry *Externs, const RunOptions &Opts,
       DataStore &Store, const std::optional<ParallelSlice> &Slice,
       bool RecordWrites, ScalarRunResult &Result)
      : Prog(Prog), Machine(Machine), Externs(Externs), Opts(Opts),
        Store(Store), Slice(Slice), RecordWrites(RecordWrites),
        Result(Result) {
    Result.Tr.Watch = Opts.Watch;
    Result.Tr.Lanes = 1;
    IsWork.reserve(Opts.WorkTargets.size());
  }

  void run() {
    execBody(Prog.body());
    Result.Stats.Seconds = Result.Stats.Cycles * Machine.SecondsPerCycle;
  }

private:
  const Program &Prog;
  const machine::MachineConfig &Machine;
  const ExternRegistry *Externs;
  const RunOptions &Opts;
  DataStore &Store;
  const std::optional<ParallelSlice> &Slice;
  bool RecordWrites;
  ScalarRunResult &Result;
  /// Nesting depth of sliced parallel loops: every top-level DOALL is
  /// partitioned, but a DOALL nested inside an already-sliced one runs
  /// in full (nested parallelism is not re-partitioned).
  int SliceDepth = 0;
  int64_t LoopIterations = 0;
  std::vector<std::string> IsWork;
  /// Enclosing statements, outermost first; rendered lazily on traps.
  std::vector<const Stmt *> StmtStack;

  [[noreturn]] void trap(TrapKind K, std::string Detail) {
    throw TrapException{
        {K, {}, renderStmtLocation(StmtStack), std::move(Detail)}};
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
    Result.Stats.WorkActiveLanes += 1;
    Result.Stats.WorkTotalLanes += 1;
    if (Opts.Watch.empty())
      return;
    Trace::Step Step;
    Step.Values.reserve(Opts.Watch.size());
    for (const std::string &W : Opts.Watch)
      Step.Values.push_back(Store.getInt(W));
    Step.Active.assign(1, 1);
    Result.Tr.Steps.push_back(std::move(Step));
  }

  ScalVal evalCall(const std::string &Callee,
                   const std::vector<ExprPtr> &Args) {
    if (!Externs)
      trap(TrapKind::ExternFailure,
           "no extern registry for call to '" + Callee + "'");
    const ExternImpl *Impl = Externs->lookup(Callee);
    if (!Impl)
      trap(TrapKind::ExternFailure, "unbound extern '" + Callee + "'");
    std::vector<ScalVal> Vals;
    Vals.reserve(Args.size());
    for (const ExprPtr &A : Args)
      Vals.push_back(eval(*A));
    charge(Impl->Cost);
    if (isWorkCall(Callee))
      recordWorkStep();
    try {
      return Impl->Fn(Vals);
    } catch (const ExternError &E) {
      trap(TrapKind::ExternFailure,
           "extern '" + Callee + "' failed: " + E.Message);
    }
  }

  ScalVal eval(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::IntLit:
      return ScalVal::makeInt(cast<IntLit>(&E)->value());
    case Expr::Kind::RealLit:
      return ScalVal::makeReal(cast<RealLit>(&E)->value());
    case Expr::Kind::BoolLit:
      return ScalVal::makeBool(cast<BoolLit>(&E)->value());
    case Expr::Kind::VarRef: {
      const Slot &S = Store.slot(cast<VarRef>(&E)->name());
      if (S.Decl->isArray())
        trap(TrapKind::InvalidProgram, "whole-array reference to '" +
                                           S.Decl->Name +
                                           "' outside a reduction");
      ScalVal V;
      V.Kind = S.Decl->Kind;
      if (S.isReal())
        V.R = S.R[0];
      else
        V.I = S.I[0];
      return V;
    }
    case Expr::Kind::ArrayRef: {
      const auto *A = cast<ArrayRef>(&E);
      const Slot &S = Store.slot(A->name());
      std::vector<int64_t> Idx;
      Idx.reserve(A->indices().size());
      for (const ExprPtr &I : A->indices())
        Idx.push_back(eval(*I).asInt());
      int64_t Flat = DataStore::flatIndex(*S.Decl, Idx);
      if (Flat < 0)
        trap(TrapKind::OutOfBounds,
             "index out of bounds reading '" + A->name() + "'" +
                 renderIndices(Idx));
      charge(Machine.Costs.GatherOp);
      ScalVal V;
      V.Kind = S.Decl->Kind;
      if (S.isReal())
        V.R = S.R[static_cast<size_t>(Flat)];
      else
        V.I = S.I[static_cast<size_t>(Flat)];
      return V;
    }
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      ScalVal V = eval(U->operand());
      if (U->op() == UnOp::Not) {
        charge(Machine.Costs.LogicOp);
        return ScalVal::makeBool(!V.asBool());
      }
      charge(V.Kind == ScalarKind::Real ? Machine.Costs.RealOp
                                        : Machine.Costs.IntOp);
      if (V.Kind == ScalarKind::Real)
        return ScalVal::makeReal(-V.R);
      return ScalVal::makeInt(-V.I);
    }
    case Expr::Kind::Binary:
      return evalBinary(*cast<BinaryExpr>(&E));
    case Expr::Kind::Intrinsic:
      return evalIntrinsic(*cast<IntrinsicExpr>(&E));
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(&E);
      return evalCall(C->callee(), C->args());
    }
    }
    SIMDFLAT_UNREACHABLE("bad Expr kind");
  }

  ScalVal evalBinary(const BinaryExpr &B) {
    ScalVal L = eval(B.lhs());
    ScalVal R = eval(B.rhs());
    BinOp Op = B.op();
    if (Op == BinOp::And || Op == BinOp::Or) {
      charge(Machine.Costs.LogicOp);
      bool LV = L.asBool(), RV = R.asBool();
      return ScalVal::makeBool(Op == BinOp::And ? (LV && RV) : (LV || RV));
    }
    if (isComparison(Op)) {
      charge(Machine.Costs.CmpOp);
      if (L.Kind == ScalarKind::Bool || R.Kind == ScalarKind::Bool) {
        assert(L.Kind == ScalarKind::Bool && R.Kind == ScalarKind::Bool &&
               "mixed bool comparison");
        bool LV = L.asBool(), RV = R.asBool();
        return ScalVal::makeBool(Op == BinOp::Eq ? LV == RV : LV != RV);
      }
      double LV = L.asNumeric(), RV = R.asNumeric();
      bool Out = false;
      switch (Op) {
      case BinOp::Eq:
        Out = LV == RV;
        break;
      case BinOp::Ne:
        Out = LV != RV;
        break;
      case BinOp::Lt:
        Out = LV < RV;
        break;
      case BinOp::Le:
        Out = LV <= RV;
        break;
      case BinOp::Gt:
        Out = LV > RV;
        break;
      case BinOp::Ge:
        Out = LV >= RV;
        break;
      default:
        SIMDFLAT_UNREACHABLE("not a comparison");
      }
      return ScalVal::makeBool(Out);
    }
    // Arithmetic.
    bool RealOp = B.type() == ScalarKind::Real;
    charge(RealOp ? Machine.Costs.RealOp : Machine.Costs.IntOp);
    if (RealOp) {
      double LV = L.asNumeric(), RV = R.asNumeric();
      switch (Op) {
      case BinOp::Add:
        return ScalVal::makeReal(LV + RV);
      case BinOp::Sub:
        return ScalVal::makeReal(LV - RV);
      case BinOp::Mul:
        return ScalVal::makeReal(LV * RV);
      case BinOp::Div:
        return ScalVal::makeReal(LV / RV);
      default:
        SIMDFLAT_UNREACHABLE("bad real arithmetic op");
      }
    }
    int64_t LV = L.asInt(), RV = R.asInt();
    switch (Op) {
    case BinOp::Add:
      return ScalVal::makeInt(LV + RV);
    case BinOp::Sub:
      return ScalVal::makeInt(LV - RV);
    case BinOp::Mul:
      return ScalVal::makeInt(LV * RV);
    case BinOp::Div:
      if (RV == 0)
        trap(TrapKind::DivByZero, "integer division by zero");
      return ScalVal::makeInt(divInt(LV, RV));
    case BinOp::Mod:
      if (RV == 0)
        trap(TrapKind::DivByZero, "MOD by zero");
      return ScalVal::makeInt(modInt(LV, RV));
    default:
      SIMDFLAT_UNREACHABLE("bad int arithmetic op");
    }
  }

  ScalVal evalIntrinsic(const IntrinsicExpr &I) {
    switch (I.op()) {
    case IntrinsicOp::Max:
    case IntrinsicOp::Min: {
      ScalVal A = eval(*I.args()[0]);
      ScalVal B = eval(*I.args()[1]);
      bool RealOp = I.type() == ScalarKind::Real;
      charge(RealOp ? Machine.Costs.RealOp : Machine.Costs.IntOp);
      bool TakeA = I.op() == IntrinsicOp::Max ? A.asNumeric() >= B.asNumeric()
                                              : A.asNumeric() <= B.asNumeric();
      ScalVal Out = TakeA ? A : B;
      return coerce(Out, I.type());
    }
    case IntrinsicOp::Abs: {
      ScalVal A = eval(*I.args()[0]);
      charge(A.Kind == ScalarKind::Real ? Machine.Costs.RealOp
                                        : Machine.Costs.IntOp);
      if (A.Kind == ScalarKind::Real)
        return ScalVal::makeReal(std::fabs(A.R));
      return ScalVal::makeInt(std::llabs(A.I));
    }
    case IntrinsicOp::Sqrt: {
      ScalVal A = eval(*I.args()[0]);
      charge(Machine.Costs.RealOp);
      if (A.R < 0.0)
        trap(TrapKind::DomainError, "SQRT of a negative value");
      return ScalVal::makeReal(std::sqrt(A.R));
    }
    case IntrinsicOp::LaneIndex:
      return ScalVal::makeInt(1);
    case IntrinsicOp::NumLanes:
      return ScalVal::makeInt(1);
    case IntrinsicOp::Any:
    case IntrinsicOp::All: {
      // Single lane: the reduction is the operand itself.
      ScalVal A = eval(*I.args()[0]);
      charge(Machine.Costs.ReduceOp);
      return ScalVal::makeBool(A.asBool());
    }
    case IntrinsicOp::MaxRed:
    case IntrinsicOp::MinRed:
    case IntrinsicOp::SumRed: {
      ScalVal A = eval(*I.args()[0]);
      charge(Machine.Costs.ReduceOp);
      return A;
    }
    case IntrinsicOp::MaxVal:
    case IntrinsicOp::SumVal: {
      const auto *V = cast<VarRef>(I.args()[0].get());
      const Slot &S = Store.slot(V->name());
      assert(S.Decl->isArray() && "array reduction of a scalar");
      charge(Machine.Costs.ReduceOp *
             static_cast<double>(Machine.layersFor(S.Width)));
      if (S.isReal()) {
        double Acc = I.op() == IntrinsicOp::SumVal
                         ? 0.0
                         : -std::numeric_limits<double>::infinity();
        for (double X : S.R)
          Acc = I.op() == IntrinsicOp::SumVal ? Acc + X : std::max(Acc, X);
        return ScalVal::makeReal(Acc);
      }
      int64_t Acc = I.op() == IntrinsicOp::SumVal
                        ? 0
                        : std::numeric_limits<int64_t>::min();
      for (int64_t X : S.I)
        Acc = I.op() == IntrinsicOp::SumVal ? Acc + X : std::max(Acc, X);
      return ScalVal::makeInt(Acc);
    }
    }
    SIMDFLAT_UNREACHABLE("bad IntrinsicOp");
  }

  void execAssign(const AssignStmt &A) {
    ScalVal V = eval(A.value());
    if (const auto *T = dyn_cast<VarRef>(&A.target())) {
      Slot &S = Store.slot(T->name());
      assert(S.Decl->isScalar() && "assignment to whole array");
      ScalVal C = coerce(V, S.Decl->Kind);
      charge(Machine.Costs.MoveOp);
      if (S.isReal())
        S.R.assign(S.R.size(), C.R);
      else
        S.I.assign(S.I.size(), C.I);
      if (isWorkTarget(T->name()))
        recordWorkStep();
      return;
    }
    const auto *T = cast<ArrayRef>(&A.target());
    Slot &S = Store.slot(T->name());
    std::vector<int64_t> Idx;
    Idx.reserve(T->indices().size());
    for (const ExprPtr &I : T->indices())
      Idx.push_back(eval(*I).asInt());
    int64_t Flat = DataStore::flatIndex(*S.Decl, Idx);
    if (Flat < 0)
      trap(TrapKind::OutOfBounds,
           "index out of bounds writing '" + T->name() + "'" +
               renderIndices(Idx));
    ScalVal C = coerce(V, S.Decl->Kind);
    charge(Machine.Costs.ScatterOp);
    if (S.isReal())
      S.R[static_cast<size_t>(Flat)] = C.R;
    else
      S.I[static_cast<size_t>(Flat)] = C.I;
    if (RecordWrites)
      Result.Writes.push_back({T->name(), Flat, C});
    if (isWorkTarget(T->name()))
      recordWorkStep();
  }

  /// Returns the slice of iterations processor Proc owns for a parallel
  /// loop running Lo..Hi (step 1): [begin, end] with stride Stride.
  struct OwnedRange {
    int64_t Begin, End, Stride;
  };
  OwnedRange sliceOf(int64_t Lo, int64_t Hi) const {
    const ParallelSlice &S = *Slice;
    int64_t Count = Hi - Lo + 1;
    if (Count < 0)
      Count = 0;
    if (S.PartLayout == machine::Layout::Block) {
      int64_t Chunk = (Count + S.NumProcs - 1) / S.NumProcs;
      int64_t Begin = Lo + S.Proc * Chunk;
      int64_t End = std::min(Hi, Begin + Chunk - 1);
      return {Begin, End, 1};
    }
    return {Lo + S.Proc, Hi, S.NumProcs};
  }

  void execDo(const DoStmt &D) {
    int64_t Lo = eval(D.lo()).asInt();
    int64_t Hi = eval(D.hi()).asInt();
    int64_t Step = D.step() ? eval(*D.step()).asInt() : 1;
    if (Step == 0)
      trap(TrapKind::InvalidProgram,
           "DO " + D.indexVar() + " has a step of zero");
    bool DoSlice = D.isParallel() && Slice && SliceDepth == 0;
    if (DoSlice) {
      assert(Step == 1 && "sliced parallel loop must have unit step");
      ++SliceDepth;
      OwnedRange R = sliceOf(Lo, Hi);
      Lo = R.Begin;
      Hi = R.End;
      Step = R.Stride;
    }
    Slot &IV = Store.slot(D.indexVar());
    assert(IV.Decl->isScalar() && !IV.isReal() && "bad DO index variable");
    for (int64_t V = Lo; Step > 0 ? V <= Hi : V >= Hi; V += Step) {
      countLoopIteration();
      IV.I.assign(IV.I.size(), V);
      execBody(D.body());
    }
    // Fortran leaves the index one step past the last iteration.
    int64_t Trips = Step > 0 ? (Hi >= Lo ? (Hi - Lo) / Step + 1 : 0)
                             : (Lo >= Hi ? (Lo - Hi) / (-Step) + 1 : 0);
    IV.I.assign(IV.I.size(), Lo + Trips * Step);
    if (DoSlice)
      --SliceDepth;
  }

  void execForall(const ForallStmt &F) {
    int64_t Lo = eval(F.lo()).asInt();
    int64_t Hi = eval(F.hi()).asInt();
    Slot &IV = Store.slot(F.indexVar());
    for (int64_t V = Lo; V <= Hi; ++V) {
      countLoopIteration();
      IV.I.assign(IV.I.size(), V);
      if (F.mask() && !eval(*F.mask()).asBool())
        continue;
      execBody(F.body());
    }
  }

  void execBody(const Body &B) {
    size_t PC = 0;
    while (PC < B.size()) {
      const Stmt &S = *B[PC];
      StmtStack.push_back(&S);
      switch (S.kind()) {
      case Stmt::Kind::Assign:
        execAssign(*cast<AssignStmt>(&S));
        break;
      case Stmt::Kind::If: {
        const auto *I = cast<IfStmt>(&S);
        charge(Machine.Costs.CmpOp);
        if (eval(I->cond()).asBool())
          execBody(I->thenBody());
        else
          execBody(I->elseBody());
        break;
      }
      case Stmt::Kind::Where: {
        // Single lane: WHERE degenerates to IF.
        const auto *W = cast<WhereStmt>(&S);
        charge(Machine.Costs.LogicOp);
        if (eval(W->cond()).asBool())
          execBody(W->thenBody());
        else
          execBody(W->elseBody());
        break;
      }
      case Stmt::Kind::Do:
        execDo(*cast<DoStmt>(&S));
        break;
      case Stmt::Kind::While: {
        const auto *W = cast<WhileStmt>(&S);
        while (eval(W->cond()).asBool()) {
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
        } while (!eval(R->untilCond()).asBool());
        break;
      }
      case Stmt::Kind::Forall:
        execForall(*cast<ForallStmt>(&S));
        break;
      case Stmt::Kind::Call: {
        const auto *C = cast<CallStmt>(&S);
        evalCall(C->callee(), C->args());
        break;
      }
      case Stmt::Kind::Label:
        break;
      case Stmt::Kind::Goto: {
        const auto *G = cast<GotoStmt>(&S);
        bool Take = true;
        if (G->cond()) {
          charge(Machine.Costs.CmpOp);
          Take = eval(*G->cond()).asBool();
        }
        if (Take) {
          countLoopIteration();
          size_t Target = B.size();
          for (size_t I = 0; I < B.size(); ++I) {
            if (const auto *L = dyn_cast<LabelStmt>(B[I].get());
                L && L->label() == G->label()) {
              Target = I;
              break;
            }
          }
          if (Target == B.size())
            trap(TrapKind::InvalidProgram,
                 "GOTO target not in the same body");
          PC = Target;
        }
        break;
      }
      }
      StmtStack.pop_back();
      ++PC;
    }
  }
};

ScalarInterp::ScalarInterp(const Program &P,
                           const machine::MachineConfig &Machine,
                           const ExternRegistry *Externs, RunOptions Opts)
    : Prog(P), Machine(Machine), Externs(Externs), Opts(std::move(Opts)),
      Store(P, /*Lanes=*/1) {}

RunOutcome<ScalarRunResult> ScalarInterp::run() {
  assert(!HasRun && "ScalarInterp::run() may be called once");
  HasRun = true;
  ScalarRunResult Result;
  Impl I(Prog, Machine, Externs, Opts, Store, Slice, RecordWrites, Result);
  try {
    I.run();
  } catch (TrapException &E) {
    return std::move(E.T);
  }
  return Result;
}
