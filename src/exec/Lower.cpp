//===- exec/Lower.cpp - ir:: -> bytecode lowering --------------*- C++ -*-===//

#include "exec/Lower.h"

#include "interp/Trap.h"
#include "ir/Program.h"
#include "support/Error.h"

#include <cassert>
#include <unordered_map>

using namespace simdflat;
using namespace simdflat::exec;
using namespace simdflat::ir;

namespace {

class Lowering {
public:
  explicit Lowering(const ir::Program &P) : Prog(P) {
    Out.ProgName = P.name();
  }

  exec::Program run() {
    lowerBody(Prog.body());
    emit(Opcode::Halt);
    return std::move(Out);
  }

private:
  const ir::Program &Prog;
  exec::Program Out;

  std::unordered_map<std::string, int32_t> SlotIdx, CalleeIdx, MsgIdx,
      LocIdx;
  std::unordered_map<int64_t, int32_t> IntIdx;
  /// Enclosing statements at the current lowering point; mirrors the
  /// tree-walkers' runtime StmtStack (which is purely syntactic), so the
  /// prerendered location of an instruction equals what the tree would
  /// render when trapping there.
  std::vector<const Stmt *> StmtStack;
  int32_t CurLoc = -1;
  bool LocDirty = true;
  /// Control-slot allocation follows loop nesting (stack discipline), so
  /// sibling loops reuse slots and NumCtl stays small.
  int32_t CtlTop = 0;
  /// Static loop nesting depth at the current lowering point (0 =
  /// outermost); recorded per instrumented loop for the trip telemetry.
  int32_t LoopDepth = 0;

  /// Registers one instrumented loop; returns its id (TripRec's B
  /// operand). Every loop form gets a zero-initialized trip-counter ctl
  /// slot, an uncharged CtlInc next to its LoopIter, and a TripRec at
  /// the loop exit - pure telemetry that never touches charged
  /// counters, so tree/bytecode equality is unaffected.
  int32_t newLoop(const std::string &Kind) {
    int32_t Id = static_cast<int32_t>(Out.LoopNames.size());
    // Appended piecewise: GCC 12's -O2 -Werror=restrict misfires on
    // the `"lit" + std::string&&` concatenation chain here.
    std::string Name = "L";
    Name += std::to_string(Id);
    Name += ' ';
    Name += Kind;
    Out.LoopNames.push_back(std::move(Name));
    Out.LoopDepths.push_back(LoopDepth);
    return Id;
  }

  int32_t loc() {
    if (LocDirty) {
      CurLoc = internLoc(interp::renderStmtLocation(StmtStack));
      LocDirty = false;
    }
    return CurLoc;
  }

  size_t emit(Opcode Op, int32_t A = 0, int32_t B = 0, int32_t C = 0,
              int32_t D = 0) {
    Out.Code.push_back({Op, A, B, C, D, loc()});
    return Out.Code.size() - 1;
  }

  int32_t here() const { return static_cast<int32_t>(Out.Code.size()); }

  void patch(size_t InstrIdx, int32_t Target) {
    Out.Code[InstrIdx].D = Target;
  }

  void useReg(int32_t R) {
    if (R + 1 > Out.NumRegs)
      Out.NumRegs = R + 1;
  }

  int32_t allocCtl(int32_t N) {
    int32_t Base = CtlTop;
    CtlTop += N;
    if (CtlTop > Out.NumCtl)
      Out.NumCtl = CtlTop;
    return Base;
  }
  void releaseCtl(int32_t Base) { CtlTop = Base; }

  template <typename Map, typename Pool, typename Key>
  int32_t intern(Map &M, Pool &P, const Key &K) {
    auto It = M.find(K);
    if (It != M.end())
      return It->second;
    int32_t Idx = static_cast<int32_t>(P.size());
    P.push_back(K);
    M.emplace(K, Idx);
    return Idx;
  }

  int32_t internSlot(const std::string &Name) {
    return intern(SlotIdx, Out.SlotNames, Name);
  }
  int32_t internCallee(const std::string &Name) {
    return intern(CalleeIdx, Out.Callees, Name);
  }
  int32_t internMsg(const std::string &Msg) {
    return intern(MsgIdx, Out.Msgs, Msg);
  }
  int32_t internLoc(const std::string &L) {
    return intern(LocIdx, Out.Locs, L);
  }
  int32_t internInt(int64_t V) { return intern(IntIdx, Out.IntPool, V); }
  int32_t internReal(double V) {
    // Reals are rare enough to skip dedup (and NaN keys would not
    // round-trip through a map anyway).
    Out.RealPool.push_back(V);
    return static_cast<int32_t>(Out.RealPool.size() - 1);
  }

  int32_t extraList(const std::vector<int32_t> &Regs) {
    int32_t Off = static_cast<int32_t>(Out.Extra.size());
    Out.Extra.push_back(static_cast<int32_t>(Regs.size()));
    for (int32_t R : Regs)
      Out.Extra.push_back(R);
    return Off;
  }

  const VarDecl &declOf(const std::string &Name) const {
    const VarDecl *D = Prog.lookupVar(Name);
    if (!D)
      reportFatalError("exec lower: reference to undeclared variable '" +
                       Name + "'");
    return *D;
  }

  //===--------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------===//

  /// Lowers \p E so its value lands in register \p Dst; uses registers
  /// > Dst as scratch.
  void evalInto(const Expr &E, int32_t Dst) {
    useReg(Dst);
    switch (E.kind()) {
    case Expr::Kind::IntLit:
      emit(Opcode::LdInt, Dst, internInt(cast<IntLit>(&E)->value()));
      return;
    case Expr::Kind::RealLit:
      emit(Opcode::LdReal, Dst, internReal(cast<RealLit>(&E)->value()));
      return;
    case Expr::Kind::BoolLit:
      emit(Opcode::LdBool, Dst, cast<BoolLit>(&E)->value() ? 1 : 0);
      return;
    case Expr::Kind::VarRef:
      emit(Opcode::LdVar, Dst, internSlot(cast<VarRef>(&E)->name()));
      return;
    case Expr::Kind::ArrayRef: {
      const auto *A = cast<ArrayRef>(&E);
      std::vector<int32_t> IdxRegs;
      IdxRegs.reserve(A->indices().size());
      for (size_t I = 0; I < A->indices().size(); ++I) {
        int32_t R = Dst + 1 + static_cast<int32_t>(I);
        evalInto(*A->indices()[I], R);
        IdxRegs.push_back(R);
      }
      emit(Opcode::Gather, Dst, internSlot(A->name()),
           extraList(IdxRegs));
      return;
    }
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      evalInto(U->operand(), Dst + 1);
      emit(U->op() == UnOp::Not ? Opcode::NotOp : Opcode::Neg, Dst,
           Dst + 1);
      return;
    }
    case Expr::Kind::Binary:
      lowerBinary(*cast<BinaryExpr>(&E), Dst);
      return;
    case Expr::Kind::Intrinsic:
      lowerIntrinsic(*cast<IntrinsicExpr>(&E), Dst);
      return;
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(&E);
      lowerCall(C->callee(), C->args(), Dst, C->type());
      return;
    }
    }
    SIMDFLAT_UNREACHABLE("bad Expr kind");
  }

  void lowerBinary(const BinaryExpr &B, int32_t Dst) {
    evalInto(B.lhs(), Dst + 1);
    evalInto(B.rhs(), Dst + 2);
    Opcode Op = Opcode::Halt;
    switch (B.op()) {
    case BinOp::And:
      Op = Opcode::AndOp;
      break;
    case BinOp::Or:
      Op = Opcode::OrOp;
      break;
    case BinOp::Eq:
      Op = Opcode::CmpEq;
      break;
    case BinOp::Ne:
      Op = Opcode::CmpNe;
      break;
    case BinOp::Lt:
      Op = Opcode::CmpLt;
      break;
    case BinOp::Le:
      Op = Opcode::CmpLe;
      break;
    case BinOp::Gt:
      Op = Opcode::CmpGt;
      break;
    case BinOp::Ge:
      Op = Opcode::CmpGe;
      break;
    case BinOp::Add:
    case BinOp::Sub:
    case BinOp::Mul:
    case BinOp::Div:
    case BinOp::Mod: {
      // The tree splits the arithmetic path on the *static* expression
      // type; transcribe that decision into the opcode.
      bool Real = B.type() == ScalarKind::Real;
      switch (B.op()) {
      case BinOp::Add:
        Op = Real ? Opcode::AddR : Opcode::AddI;
        break;
      case BinOp::Sub:
        Op = Real ? Opcode::SubR : Opcode::SubI;
        break;
      case BinOp::Mul:
        Op = Real ? Opcode::MulR : Opcode::MulI;
        break;
      case BinOp::Div:
        Op = Real ? Opcode::DivR : Opcode::DivI;
        break;
      case BinOp::Mod:
        assert(!Real && "real MOD is not in the dialect");
        Op = Opcode::ModI;
        break;
      default:
        SIMDFLAT_UNREACHABLE("not arithmetic");
      }
      break;
    }
    }
    emit(Op, Dst, Dst + 1, Dst + 2);
  }

  void lowerIntrinsic(const IntrinsicExpr &In, int32_t Dst) {
    switch (In.op()) {
    case IntrinsicOp::Max:
    case IntrinsicOp::Min: {
      evalInto(*In.args()[0], Dst + 1);
      evalInto(*In.args()[1], Dst + 2);
      int32_t Flags = (In.op() == IntrinsicOp::Max ? 1 : 0) |
                      (static_cast<int32_t>(In.type()) << 1);
      emit(Opcode::MaxMin, Dst, Dst + 1, Dst + 2, Flags);
      return;
    }
    case IntrinsicOp::Abs:
      evalInto(*In.args()[0], Dst + 1);
      emit(Opcode::AbsOp, Dst, Dst + 1);
      return;
    case IntrinsicOp::Sqrt:
      evalInto(*In.args()[0], Dst + 1);
      emit(Opcode::SqrtOp, Dst, Dst + 1);
      return;
    case IntrinsicOp::LaneIndex:
      emit(Opcode::LaneIdx, Dst);
      return;
    case IntrinsicOp::NumLanes:
      emit(Opcode::NumLanesOp, Dst);
      return;
    case IntrinsicOp::Any:
    case IntrinsicOp::All:
      evalInto(*In.args()[0], Dst + 1);
      emit(Opcode::AnyAll, Dst, Dst + 1, 0,
           In.op() == IntrinsicOp::All ? 1 : 0);
      return;
    case IntrinsicOp::MaxRed:
    case IntrinsicOp::MinRed:
    case IntrinsicOp::SumRed: {
      evalInto(*In.args()[0], Dst + 1);
      int32_t Which = In.op() == IntrinsicOp::MaxRed   ? 0
                      : In.op() == IntrinsicOp::MinRed ? 1
                                                       : 2;
      emit(Opcode::LaneRed, Dst, Dst + 1, 0, Which);
      return;
    }
    case IntrinsicOp::MaxVal:
    case IntrinsicOp::SumVal: {
      const auto *V = cast<VarRef>(In.args()[0].get());
      assert(declOf(V->name()).isArray() && "array reduction of a scalar");
      emit(Opcode::ArrRed, Dst, internSlot(V->name()), 0,
           In.op() == IntrinsicOp::MaxVal ? 0 : 1);
      return;
    }
    }
    SIMDFLAT_UNREACHABLE("bad IntrinsicOp");
  }

  /// Lowers a call; \p Dst < 0 discards the result (CALL statement).
  /// The registry checks precede argument evaluation in the tree, hence
  /// the CallCheck instruction up front.
  void lowerCall(const std::string &Callee,
                 const std::vector<ExprPtr> &Args, int32_t Dst,
                 ScalarKind RetKind) {
    int32_t CalleeIx = internCallee(Callee);
    emit(Opcode::CallCheck, 0, CalleeIx);
    int32_t Base = Dst < 0 ? 0 : Dst + 1;
    std::vector<int32_t> ArgRegs;
    ArgRegs.reserve(Args.size());
    for (size_t I = 0; I < Args.size(); ++I) {
      int32_t R = Base + static_cast<int32_t>(I);
      evalInto(*Args[I], R);
      ArgRegs.push_back(R);
    }
    emit(Opcode::CallOp, Dst, CalleeIx, extraList(ArgRegs),
         static_cast<int32_t>(RetKind));
  }

  //===--------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------===//

  void lowerAssign(const AssignStmt &A) {
    evalInto(A.value(), 0);
    if (const auto *T = dyn_cast<VarRef>(&A.target())) {
      assert(declOf(T->name()).isScalar() && "assignment to whole array");
      emit(Opcode::StVar, internSlot(T->name()), 0);
      return;
    }
    const auto *T = cast<ArrayRef>(&A.target());
    std::vector<int32_t> IdxRegs;
    IdxRegs.reserve(T->indices().size());
    for (size_t I = 0; I < T->indices().size(); ++I) {
      int32_t R = 1 + static_cast<int32_t>(I);
      evalInto(*T->indices()[I], R);
      IdxRegs.push_back(R);
    }
    emit(Opcode::StArr, internSlot(T->name()), 0, extraList(IdxRegs));
  }

  void lowerDo(const DoStmt &D) {
    int32_t C = allocCtl(4); // cur/hi/step + trip counter at C+3
    int32_t LoopId = newLoop("do " + D.indexVar());
    evalInto(D.lo(), 0);
    emit(Opcode::CtlFromReg, C + 0, 0, internMsg("DO lower bound"));
    evalInto(D.hi(), 0);
    emit(Opcode::CtlFromReg, C + 1, 0, internMsg("DO upper bound"));
    if (D.step()) {
      evalInto(*D.step(), 0);
      emit(Opcode::CtlFromReg, C + 2, 0, internMsg("DO step"));
    } else {
      emit(Opcode::CtlImm, C + 2, internInt(1));
    }
    emit(Opcode::CheckStep, C + 2, internMsg("DO step of zero"));
    emit(Opcode::CtlImm, C + 3, internInt(0));
    int32_t IvSlot = internSlot(D.indexVar());
    assert(declOf(D.indexVar()).isScalar() &&
           declOf(D.indexVar()).Kind != ScalarKind::Real &&
           "bad DO index variable");
    int32_t Head = here();
    size_t Test = emit(Opcode::DoTest, C);
    emit(Opcode::LoopIter);
    emit(Opcode::CtlInc, C + 3);
    emit(Opcode::SetIdx, IvSlot, C + 0);
    ++LoopDepth;
    lowerBody(D.body());
    --LoopDepth;
    emit(Opcode::DoStep, C);
    emit(Opcode::Jmp, 0, 0, 0, Head);
    patch(Test, here());
    emit(Opcode::TripRec, C + 3, LoopId);
    // Fortran leaves the index one step past the last iteration; the
    // loop counter exits holding exactly Lo + Trips * Step.
    emit(Opcode::SetIdx, IvSlot, C + 0);
    releaseCtl(C);
  }

  void lowerForall(const ForallStmt &F) {
    int32_t C = allocCtl(5); // base 4 layer state + trip counter at C+4
    int32_t LoopId = newLoop("forall " + F.indexVar());
    evalInto(F.lo(), 0);
    emit(Opcode::CtlFromReg, C + 0, 0, internMsg("FORALL lower bound"));
    evalInto(F.hi(), 0);
    emit(Opcode::CtlFromReg, C + 1, 0, internMsg("FORALL upper bound"));
    emit(Opcode::CtlImm, C + 4, internInt(0));
    int32_t IvSlot = internSlot(F.indexVar());
    size_t Begin = emit(Opcode::FaBegin, IvSlot, C);
    int32_t Head = here();
    size_t Test = emit(Opcode::FaLayerTest, C);
    emit(Opcode::LoopIter);
    emit(Opcode::CtlInc, C + 4);
    emit(Opcode::FaLayerMask, IvSlot, C);
    if (F.mask()) {
      evalInto(*F.mask(), 0);
      emit(Opcode::WherePush, 0);
    }
    ++LoopDepth;
    lowerBody(F.body());
    --LoopDepth;
    if (F.mask())
      emit(Opcode::MaskPop);
    emit(Opcode::MaskPop);
    emit(Opcode::CtlInc, C + 2);
    emit(Opcode::Jmp, 0, 0, 0, Head);
    patch(Begin, here());
    patch(Test, here());
    emit(Opcode::TripRec, C + 4, LoopId);
    releaseCtl(C);
  }

  /// Emits the shared IF-shaped diamond after the condition charge and
  /// eval: branch-to-else, then-body, jump-over, else-body.
  void lowerCondBodies(size_t Br, const Body &Then, const Body &Else) {
    lowerBody(Then);
    if (Else.empty()) {
      patch(Br, here());
      return;
    }
    size_t Over = emit(Opcode::Jmp);
    patch(Br, here());
    lowerBody(Else);
    patch(Over, here());
  }

  void lowerStmt(const Stmt &S) {
    switch (S.kind()) {
    case Stmt::Kind::Assign:
      lowerAssign(*cast<AssignStmt>(&S));
      return;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(&S);
      emit(Opcode::ChargeOp, static_cast<int32_t>(CostKind::CmpOp));
      evalInto(I->cond(), 0);
      size_t Br = emit(Opcode::UBrFalse, 0, internMsg("IF condition"));
      lowerCondBodies(Br, I->thenBody(), I->elseBody());
      return;
    }
    case Stmt::Kind::Where: {
      const auto *W = cast<WhereStmt>(&S);
      evalInto(W->cond(), 0);
      emit(Opcode::WherePush, 0);
      lowerBody(W->thenBody());
      if (!W->elseBody().empty()) {
        emit(Opcode::WhereFlip);
        lowerBody(W->elseBody());
      }
      emit(Opcode::MaskPop);
      return;
    }
    case Stmt::Kind::Do:
      lowerDo(*cast<DoStmt>(&S));
      return;
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(&S);
      int32_t C = allocCtl(1); // trip counter
      int32_t LoopId = newLoop("while");
      emit(Opcode::CtlImm, C, internInt(0));
      int32_t Head = here();
      evalInto(W->cond(), 0);
      size_t Br = emit(Opcode::UBrFalse, 0, internMsg("WHILE condition"));
      emit(Opcode::LoopIter);
      emit(Opcode::CtlInc, C);
      ++LoopDepth;
      lowerBody(W->body());
      --LoopDepth;
      emit(Opcode::Jmp, 0, 0, 0, Head);
      patch(Br, here());
      emit(Opcode::TripRec, C, LoopId);
      releaseCtl(C);
      return;
    }
    case Stmt::Kind::Repeat: {
      const auto *R = cast<RepeatStmt>(&S);
      int32_t C = allocCtl(1); // trip counter
      int32_t LoopId = newLoop("repeat");
      emit(Opcode::CtlImm, C, internInt(0));
      int32_t Head = here();
      emit(Opcode::LoopIter);
      emit(Opcode::CtlInc, C);
      ++LoopDepth;
      lowerBody(R->body());
      --LoopDepth;
      evalInto(R->untilCond(), 0);
      // Loop again while the UNTIL condition is false.
      emit(Opcode::UBrFalse, 0, internMsg("UNTIL condition"), 0, Head);
      emit(Opcode::TripRec, C, LoopId);
      releaseCtl(C);
      return;
    }
    case Stmt::Kind::Forall:
      lowerForall(*cast<ForallStmt>(&S));
      return;
    case Stmt::Kind::Call: {
      const auto *C = cast<CallStmt>(&S);
      lowerCall(C->callee(), C->args(), -1, ScalarKind::Int);
      return;
    }
    case Stmt::Kind::Label:
    case Stmt::Kind::Goto:
      // Like the tree walker: unstructured control traps when reached.
      emit(Opcode::TrapMsg,
           static_cast<int32_t>(interp::TrapKind::InvalidProgram),
           internMsg("GOTO-form control flow is not executable on the "
                     "SIMD machine; run the front end's loop recovery "
                     "first"));
      return;
    }
    SIMDFLAT_UNREACHABLE("bad Stmt kind");
  }

  void lowerBody(const Body &B) {
    for (const StmtPtr &S : B) {
      StmtStack.push_back(S.get());
      LocDirty = true;
      lowerStmt(*S);
      StmtStack.pop_back();
      LocDirty = true;
    }
  }
};

} // namespace

exec::Program exec::lower(const ir::Program &P, Mode) {
  return Lowering(P).run();
}
