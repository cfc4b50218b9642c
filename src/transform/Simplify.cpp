//===- transform/Simplify.cpp ---------------------------------*- C++ -*-===//

#include "transform/Simplify.h"

#include "interp/Value.h"
#include "ir/Walk.h"

#include <cmath>

using namespace simdflat;
using namespace simdflat::ir;
using namespace simdflat::transform;

namespace {

// Per-run counter. thread_local because the serving core compiles
// programs from several worker threads concurrently.
thread_local int Rewrites;

bool isIntLit(const Expr &E, int64_t &Out) {
  if (const auto *L = dyn_cast<IntLit>(&E)) {
    Out = L->value();
    return true;
  }
  return false;
}

bool isBoolLit(const Expr &E, bool &Out) {
  if (const auto *L = dyn_cast<BoolLit>(&E)) {
    Out = L->value();
    return true;
  }
  return false;
}

ExprPtr intLit(int64_t V) { return std::make_unique<IntLit>(V); }
ExprPtr boolLit(bool V) { return std::make_unique<BoolLit>(V); }

ExprPtr simplify(ExprPtr E);

/// Folds a binary with two literal operands; null if not applicable.
ExprPtr foldLiterals(const BinaryExpr &B) {
  int64_t L, R;
  bool LB, RB;
  // Integer x integer.
  if (isIntLit(B.lhs(), L) && isIntLit(B.rhs(), R)) {
    switch (B.op()) {
    case BinOp::Add:
      return intLit(L + R);
    case BinOp::Sub:
      return intLit(L - R);
    case BinOp::Mul:
      return intLit(L * R);
    case BinOp::Div:
      return R == 0 ? nullptr : intLit(interp::divInt(L, R));
    case BinOp::Mod:
      return R == 0 ? nullptr : intLit(interp::modInt(L, R));
    case BinOp::Eq:
      return boolLit(L == R);
    case BinOp::Ne:
      return boolLit(L != R);
    case BinOp::Lt:
      return boolLit(L < R);
    case BinOp::Le:
      return boolLit(L <= R);
    case BinOp::Gt:
      return boolLit(L > R);
    case BinOp::Ge:
      return boolLit(L >= R);
    default:
      return nullptr;
    }
  }
  // Logical x logical.
  if (isBoolLit(B.lhs(), LB) && isBoolLit(B.rhs(), RB)) {
    switch (B.op()) {
    case BinOp::And:
      return boolLit(LB && RB);
    case BinOp::Or:
      return boolLit(LB || RB);
    case BinOp::Eq:
      return boolLit(LB == RB);
    case BinOp::Ne:
      return boolLit(LB != RB);
    default:
      return nullptr;
    }
  }
  return nullptr;
}

/// Identity and literal-absorption rules. Takes ownership of B's
/// operands through the enclosing unique_ptr; returns null if nothing
/// applies.
ExprPtr foldIdentities(BinaryExpr &B) {
  int64_t L = 0, R = 0;
  bool LB = false, RB = false;
  bool LIsInt = isIntLit(B.lhs(), L), RIsInt = isIntLit(B.rhs(), R);
  bool LIsBool = isBoolLit(B.lhs(), LB), RIsBool = isBoolLit(B.rhs(), RB);
  // Only rules that drop a *literal* operand are safe unconditionally.
  switch (B.op()) {
  case BinOp::Add:
    if (RIsInt && R == 0)
      return std::move(B.lhsPtr());
    if (LIsInt && L == 0)
      return std::move(B.rhsPtr());
    // lit + (x - lit) and (x - lit) + lit: fold across.
    if (LIsInt) {
      if (auto *Sub = dyn_cast<BinaryExpr>(B.rhsPtr().get());
          Sub && Sub->op() == BinOp::Sub) {
        int64_t C;
        if (isIntLit(Sub->rhs(), C) &&
            Sub->lhs().type() == ScalarKind::Int) {
          if (L == C)
            return std::move(Sub->lhsPtr());
          return std::make_unique<BinaryExpr>(
              BinOp::Add, std::move(Sub->lhsPtr()), intLit(L - C),
              ScalarKind::Int);
        }
      }
    }
    if (RIsInt) {
      if (auto *Sub = dyn_cast<BinaryExpr>(B.lhsPtr().get());
          Sub && Sub->op() == BinOp::Sub) {
        int64_t C;
        if (isIntLit(Sub->rhs(), C) &&
            Sub->lhs().type() == ScalarKind::Int) {
          if (R == C)
            return std::move(Sub->lhsPtr());
          return std::make_unique<BinaryExpr>(
              BinOp::Add, std::move(Sub->lhsPtr()), intLit(R - C),
              ScalarKind::Int);
        }
      }
      // (x + a) + b -> x + (a+b)
      if (auto *Add = dyn_cast<BinaryExpr>(B.lhsPtr().get());
          Add && Add->op() == BinOp::Add) {
        int64_t C;
        if (isIntLit(Add->rhs(), C) &&
            Add->lhs().type() == ScalarKind::Int)
          return std::make_unique<BinaryExpr>(
              BinOp::Add, std::move(Add->lhsPtr()), intLit(C + R),
              ScalarKind::Int);
      }
    }
    return nullptr;
  case BinOp::Sub:
    if (RIsInt && R == 0)
      return std::move(B.lhsPtr());
    return nullptr;
  case BinOp::Mul:
    if (RIsInt && R == 1)
      return std::move(B.lhsPtr());
    if (LIsInt && L == 1)
      return std::move(B.rhsPtr());
    return nullptr;
  case BinOp::Div:
    if (RIsInt && R == 1)
      return std::move(B.lhsPtr());
    return nullptr;
  case BinOp::And:
    if (RIsBool && RB)
      return std::move(B.lhsPtr());
    if (LIsBool && LB)
      return std::move(B.rhsPtr());
    return nullptr;
  case BinOp::Or:
    if (RIsBool && !RB)
      return std::move(B.lhsPtr());
    if (LIsBool && !LB)
      return std::move(B.rhsPtr());
    return nullptr;
  default:
    return nullptr;
  }
}

ExprPtr simplify(ExprPtr E) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::RealLit:
  case Expr::Kind::BoolLit:
  case Expr::Kind::VarRef:
    return E;
  case Expr::Kind::ArrayRef: {
    auto *A = cast<ArrayRef>(E.get());
    for (ExprPtr &I : A->indices())
      I = simplify(std::move(I));
    return E;
  }
  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(E.get());
    U->operandPtr() = simplify(std::move(U->operandPtr()));
    if (U->op() == UnOp::Not) {
      bool V;
      if (isBoolLit(U->operand(), V)) {
        ++Rewrites;
        return boolLit(!V);
      }
      // .NOT. .NOT. x -> x
      if (auto *Inner = dyn_cast<UnaryExpr>(U->operandPtr().get());
          Inner && Inner->op() == UnOp::Not) {
        ++Rewrites;
        return std::move(Inner->operandPtr());
      }
      return E;
    }
    int64_t V;
    if (isIntLit(U->operand(), V)) {
      ++Rewrites;
      return intLit(-V);
    }
    if (const auto *RL = dyn_cast<RealLit>(&U->operand())) {
      ++Rewrites;
      return std::make_unique<RealLit>(-RL->value());
    }
    return E;
  }
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E.get());
    B->lhsPtr() = simplify(std::move(B->lhsPtr()));
    B->rhsPtr() = simplify(std::move(B->rhsPtr()));
    if (ExprPtr Folded = foldLiterals(*B)) {
      ++Rewrites;
      return Folded;
    }
    if (ExprPtr Folded = foldIdentities(*B)) {
      ++Rewrites;
      return simplify(std::move(Folded));
    }
    return E;
  }
  case Expr::Kind::Intrinsic: {
    auto *I = cast<IntrinsicExpr>(E.get());
    for (ExprPtr &A : I->args())
      A = simplify(std::move(A));
    int64_t A0, A1;
    if (I->op() == IntrinsicOp::Max || I->op() == IntrinsicOp::Min) {
      if (isIntLit(*I->args()[0], A0) && isIntLit(*I->args()[1], A1)) {
        ++Rewrites;
        return intLit(I->op() == IntrinsicOp::Max ? std::max(A0, A1)
                                                  : std::min(A0, A1));
      }
    }
    if (I->op() == IntrinsicOp::Abs && isIntLit(*I->args()[0], A0)) {
      ++Rewrites;
      return intLit(A0 < 0 ? -A0 : A0);
    }
    return E;
  }
  case Expr::Kind::Call: {
    auto *C = cast<CallExpr>(E.get());
    for (ExprPtr &A : C->args())
      A = simplify(std::move(A));
    return E;
  }
  }
  return E;
}

void simplifyBody(Body &B);

void simplifyStmt(StmtPtr &SP, Body &Out) {
  Stmt &S = *SP;
  switch (S.kind()) {
  case Stmt::Kind::Assign: {
    auto *A = cast<AssignStmt>(&S);
    A->targetPtr() = simplify(std::move(A->targetPtr()));
    A->valuePtr() = simplify(std::move(A->valuePtr()));
    Out.push_back(std::move(SP));
    return;
  }
  case Stmt::Kind::If: {
    auto *I = cast<IfStmt>(&S);
    I->condPtr() = simplify(std::move(I->condPtr()));
    simplifyBody(I->thenBody());
    simplifyBody(I->elseBody());
    bool V;
    if (isBoolLit(I->cond(), V)) {
      ++Rewrites;
      Body &Taken = V ? I->thenBody() : I->elseBody();
      for (StmtPtr &T : Taken)
        Out.push_back(std::move(T));
      return;
    }
    Out.push_back(std::move(SP));
    return;
  }
  case Stmt::Kind::Where: {
    auto *W = cast<WhereStmt>(&S);
    W->condPtr() = simplify(std::move(W->condPtr()));
    simplifyBody(W->thenBody());
    simplifyBody(W->elseBody());
    bool V;
    if (isBoolLit(W->cond(), V)) {
      ++Rewrites;
      Body &Taken = V ? W->thenBody() : W->elseBody();
      for (StmtPtr &T : Taken)
        Out.push_back(std::move(T));
      return;
    }
    Out.push_back(std::move(SP));
    return;
  }
  case Stmt::Kind::Do: {
    auto *D = cast<DoStmt>(&S);
    D->loPtr() = simplify(std::move(D->loPtr()));
    D->hiPtr() = simplify(std::move(D->hiPtr()));
    if (D->step())
      D->stepPtr() = simplify(std::move(D->stepPtr()));
    simplifyBody(D->body());
    Out.push_back(std::move(SP));
    return;
  }
  case Stmt::Kind::While: {
    auto *W = cast<WhileStmt>(&S);
    W->condPtr() = simplify(std::move(W->condPtr()));
    simplifyBody(W->body());
    Out.push_back(std::move(SP));
    return;
  }
  case Stmt::Kind::Repeat: {
    auto *R = cast<RepeatStmt>(&S);
    simplifyBody(R->body());
    R->untilCondPtr() = simplify(std::move(R->untilCondPtr()));
    Out.push_back(std::move(SP));
    return;
  }
  case Stmt::Kind::Forall: {
    auto *F = cast<ForallStmt>(&S);
    F->loPtr() = simplify(std::move(F->loPtr()));
    F->hiPtr() = simplify(std::move(F->hiPtr()));
    if (F->mask())
      F->maskPtr() = simplify(std::move(F->maskPtr()));
    simplifyBody(F->body());
    Out.push_back(std::move(SP));
    return;
  }
  case Stmt::Kind::Call: {
    auto *C = cast<CallStmt>(&S);
    for (ExprPtr &A : C->args())
      A = simplify(std::move(A));
    Out.push_back(std::move(SP));
    return;
  }
  case Stmt::Kind::Label:
  case Stmt::Kind::Goto:
    if (auto *G = dyn_cast<GotoStmt>(&S); G && G->cond())
      G->condPtr() = simplify(std::move(G->condPtr()));
    Out.push_back(std::move(SP));
    return;
  }
}

void simplifyBody(Body &B) {
  Body Out;
  Out.reserve(B.size());
  for (StmtPtr &SP : B)
    simplifyStmt(SP, Out);
  B = std::move(Out);
}

} // namespace

ir::ExprPtr transform::simplifyExpr(ir::ExprPtr E) {
  return simplify(std::move(E));
}

int transform::simplifyProgram(ir::Program &P) {
  Rewrites = 0;
  int Total = 0;
  // Iterate to a fixpoint (a rewrite can expose another).
  do {
    Rewrites = 0;
    simplifyBody(P.body());
    Total += Rewrites;
  } while (Rewrites > 0);
  return Total;
}
