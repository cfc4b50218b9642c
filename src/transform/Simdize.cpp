//===- transform/Simdize.cpp ----------------------------------*- C++ -*-===//

#include "transform/Simdize.h"

#include "ir/Builder.h"
#include "ir/Walk.h"
#include "support/Error.h"

#include <cassert>
#include <set>

using namespace simdflat;
using namespace simdflat::transform;
using namespace simdflat::ir;

namespace {

class Simdizer {
public:
  Simdizer(Program &P, const SimdizeOptions &Opts) : P(P), B(P),
                                                     Opts(Opts) {}

  /// Loop shapes the SIMD machine cannot execute, one issue each.
  std::vector<std::string> Unsupported;

  void run() {
    computeVariance();
    Body NewBody = convertBody(P.body(), /*Ctx=*/false);
    P.setBody(std::move(NewBody));
    for (const std::string &Name : Varying) {
      VarDecl *D = P.lookupVar(Name);
      assert(D && D->isScalar() && "varying non-scalar?");
      D->Distribution = Dist::Replicated;
    }
    P.setDialect(Dialect::F90Simd);
  }

private:
  Program &P;
  Builder B;
  const SimdizeOptions &Opts;
  std::set<std::string> Varying;
  bool Changed = false;

  /// True if \p E may evaluate to different values on different lanes.
  bool varies(const Expr &E) const {
    switch (E.kind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::RealLit:
    case Expr::Kind::BoolLit:
      return false;
    case Expr::Kind::VarRef:
      return Varying.count(cast<VarRef>(&E)->name()) != 0;
    case Expr::Kind::ArrayRef: {
      // An element load is lane-varying iff a subscript is; a uniform
      // subscript loads the same element on every lane.
      for (const ExprPtr &I : cast<ArrayRef>(&E)->indices())
        if (varies(*I))
          return true;
      return false;
    }
    case Expr::Kind::Unary:
      return varies(cast<UnaryExpr>(&E)->operand());
    case Expr::Kind::Binary:
      return varies(cast<BinaryExpr>(&E)->lhs()) ||
             varies(cast<BinaryExpr>(&E)->rhs());
    case Expr::Kind::Intrinsic: {
      const auto *I = cast<IntrinsicExpr>(&E);
      if (I->op() == IntrinsicOp::LaneIndex)
        return true;
      // Reductions broadcast their result: never lane-varying.
      if (isLaneReduction(I->op()) || isArrayReduction(I->op()) ||
          I->op() == IntrinsicOp::NumLanes)
        return false;
      for (const ExprPtr &A : I->args())
        if (varies(*A))
          return true;
      return false;
    }
    case Expr::Kind::Call:
      // Elementwise extern: varying iff any argument is.
      for (const ExprPtr &A : cast<CallExpr>(&E)->args())
        if (varies(*A))
          return true;
      return false;
    }
    SIMDFLAT_UNREACHABLE("bad Expr kind");
  }

  void markVarying(const std::string &Name) {
    if (Varying.insert(Name).second)
      Changed = true;
  }

  /// One fixpoint sweep: a scalar assigned a lane-varying value, or
  /// assigned under a lane-varying mask context, becomes lane-varying.
  void sweep(const Body &Stmts, bool Ctx) {
    for (const StmtPtr &SP : Stmts) {
      const Stmt &S = *SP;
      switch (S.kind()) {
      case Stmt::Kind::Assign: {
        const auto *A = cast<AssignStmt>(&S);
        if (const auto *V = dyn_cast<VarRef>(&A->target()))
          if (Ctx || varies(A->value()))
            markVarying(V->name());
        break;
      }
      case Stmt::Kind::If: {
        const auto *I = cast<IfStmt>(&S);
        bool C = Ctx || varies(I->cond());
        sweep(I->thenBody(), C);
        sweep(I->elseBody(), C);
        break;
      }
      case Stmt::Kind::Where: {
        const auto *W = cast<WhereStmt>(&S);
        bool C = Ctx || varies(W->cond());
        sweep(W->thenBody(), C);
        sweep(W->elseBody(), C);
        break;
      }
      case Stmt::Kind::Do: {
        const auto *D = cast<DoStmt>(&S);
        if (D->isParallel()) {
          markVarying(D->indexVar());
          sweep(D->body(), /*Ctx=*/true);
        } else {
          sweep(D->body(), Ctx || varies(D->lo()) || varies(D->hi()));
        }
        break;
      }
      case Stmt::Kind::While: {
        const auto *W = cast<WhileStmt>(&S);
        sweep(W->body(), Ctx || varies(W->cond()));
        break;
      }
      case Stmt::Kind::Repeat: {
        const auto *R = cast<RepeatStmt>(&S);
        sweep(R->body(), Ctx || varies(R->untilCond()));
        break;
      }
      case Stmt::Kind::Forall: {
        const auto *F = cast<ForallStmt>(&S);
        markVarying(F->indexVar());
        sweep(F->body(), /*Ctx=*/true);
        break;
      }
      case Stmt::Kind::Call:
        break;
      case Stmt::Kind::Label:
      case Stmt::Kind::Goto:
        reportFatalError("simdize: unstructured control flow in '" +
                         P.name() + "'; run GOTO-loop recovery first");
      }
    }
  }

  void computeVariance() {
    do {
      Changed = false;
      sweep(P.body(), /*Ctx=*/false);
    } while (Changed);
  }

  Body convertBody(const Body &Stmts, bool Ctx) {
    Body Out;
    for (const StmtPtr &SP : Stmts)
      convertStmt(*SP, Ctx, Out);
    return Out;
  }

  void convertStmt(const Stmt &S, bool Ctx, Body &Out) {
    switch (S.kind()) {
    case Stmt::Kind::Assign:
    case Stmt::Kind::Call:
    case Stmt::Kind::Label:
    case Stmt::Kind::Goto:
      Out.push_back(cloneStmt(S));
      return;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(&S);
      bool C = varies(I->cond());
      Body Then = convertBody(I->thenBody(), Ctx || C);
      Body Else = convertBody(I->elseBody(), Ctx || C);
      if (C)
        Out.push_back(B.where(cloneExpr(I->cond()), std::move(Then),
                              std::move(Else)));
      else
        Out.push_back(B.ifStmt(cloneExpr(I->cond()), std::move(Then),
                               std::move(Else)));
      return;
    }
    case Stmt::Kind::Where: {
      const auto *W = cast<WhereStmt>(&S);
      Out.push_back(B.where(cloneExpr(W->cond()),
                            convertBody(W->thenBody(), true),
                            convertBody(W->elseBody(), true)));
      return;
    }
    case Stmt::Kind::Do: {
      const auto *D = cast<DoStmt>(&S);
      if (D->isParallel()) {
        convertDoAll(*D, Ctx, Out);
        return;
      }
      if (varies(D->lo()))
        Unsupported.push_back("lane-varying DO lower bound for '" +
                              D->indexVar() + "' is not supported");
      if (D->step() && varies(*D->step()))
        Unsupported.push_back("lane-varying DO step for '" +
                              D->indexVar() + "' is not supported");
      Body NewBody = convertBody(D->body(), Ctx || varies(D->hi()));
      if (varies(D->hi())) {
        // DO j = lo, <reduction over lanes>; guard the body (Fig. 5).
        // Ascending loops take the MAX bound with a <= guard; descending
        // ones (negative literal step) the MIN bound with a >= guard.
        bool Descending = false;
        if (D->step()) {
          if (const auto *Lit = dyn_cast<IntLit>(D->step()))
            Descending = Lit->value() < 0;
          else
            Unsupported.push_back("lane-varying DO bound for '" +
                                  D->indexVar() +
                                  "' with a non-literal step is not "
                                  "supported");
        }
        ExprPtr Guard =
            Descending ? B.ge(B.var(D->indexVar()), cloneExpr(D->hi()))
                       : B.le(B.var(D->indexVar()), cloneExpr(D->hi()));
        ExprPtr Bound = Descending ? B.minRed(cloneExpr(D->hi()))
                                   : B.maxRed(cloneExpr(D->hi()));
        Body Guarded;
        Guarded.push_back(B.where(std::move(Guard), std::move(NewBody)));
        Out.push_back(B.doLoop(D->indexVar(), cloneExpr(D->lo()),
                               std::move(Bound), std::move(Guarded),
                               D->step() ? cloneExpr(*D->step()) : nullptr));
      } else {
        Out.push_back(B.doLoop(D->indexVar(), cloneExpr(D->lo()),
                               cloneExpr(D->hi()), std::move(NewBody),
                               D->step() ? cloneExpr(*D->step()) : nullptr));
      }
      return;
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(&S);
      bool C = varies(W->cond());
      Body NewBody = convertBody(W->body(), Ctx || C);
      if (C) {
        // WHILE ANY(cond) { WHERE (cond) body } (Figs. 7/14/15).
        Body Guarded;
        Guarded.push_back(B.where(cloneExpr(W->cond()), std::move(NewBody)));
        Out.push_back(B.whileLoop(B.any(cloneExpr(W->cond())),
                                  std::move(Guarded)));
      } else {
        Out.push_back(B.whileLoop(cloneExpr(W->cond()), std::move(NewBody)));
      }
      return;
    }
    case Stmt::Kind::Repeat: {
      const auto *R = cast<RepeatStmt>(&S);
      bool C = varies(R->untilCond());
      if (!C) {
        Out.push_back(B.repeatUntil(convertBody(R->body(), Ctx),
                                    cloneExpr(R->untilCond())));
        return;
      }
      // REPEAT B UNTIL c  ==>  B ; WHILE ANY(.NOT. c) { WHERE(.NOT. c) B }
      Body First = convertBody(R->body(), Ctx);
      for (StmtPtr &FS : First)
        Out.push_back(std::move(FS));
      ExprPtr NotC = B.lnot(cloneExpr(R->untilCond()));
      Body Guarded;
      Guarded.push_back(B.where(B.lnot(cloneExpr(R->untilCond())),
                                convertBody(R->body(), true)));
      Out.push_back(B.whileLoop(B.any(std::move(NotC)), std::move(Guarded)));
      return;
    }
    case Stmt::Kind::Forall: {
      const auto *F = cast<ForallStmt>(&S);
      Out.push_back(B.forall(F->indexVar(), cloneExpr(F->lo()),
                             cloneExpr(F->hi()),
                             F->mask() ? cloneExpr(*F->mask()) : nullptr,
                             convertBody(F->body(), true)));
      return;
    }
    }
    SIMDFLAT_UNREACHABLE("bad Stmt kind");
  }

  /// Rewrites a DOALL into a control loop over lane blocks with a
  /// replicated per-lane index (the Fig. 5 / Fig. 14 shape).
  void convertDoAll(const DoStmt &D, bool Ctx, Body &Out) {
    if (D.step()) {
      const auto *Lit = dyn_cast<IntLit>(D.step());
      if (!Lit || Lit->value() != 1)
        Unsupported.push_back("DOALL '" + D.indexVar() +
                              "' must have unit step");
    }
    const std::string &IV = D.indexVar();
    // blocks = ceil((hi - lo + 1) / NUMLANES())
    ExprPtr Blocks = B.div(
        B.add(B.sub(cloneExpr(D.hi()), cloneExpr(D.lo())), B.numLanes()),
        B.numLanes());
    // addFreshVar returns a reference into the program's declaration
    // vector; any later addFreshVar (including those made while
    // converting the nested body below) may reallocate it, so keep only
    // the name.
    const std::string Blk = P.addFreshVar(IV + "blk", ScalarKind::Int).Name;
    Body LoopBody;
    if (Opts.DoAllLayout == machine::Layout::Cyclic) {
      // i = lo + (blk-1)*NUMLANES() + LANEINDEX() - 1
      LoopBody.push_back(B.set(
          IV, B.add(cloneExpr(D.lo()),
                    B.sub(B.add(B.mul(B.sub(B.var(Blk), B.lit(1)),
                                      B.numLanes()),
                                B.laneIndex()),
                          B.lit(1)))));
    } else {
      // Block layout: lane p owns a contiguous chunk of `blocks` rows:
      // i = lo + (LANEINDEX()-1)*blocks + blk - 1
      const std::string Chunk =
          P.addFreshVar(IV + "chunk", ScalarKind::Int).Name;
      Out.push_back(B.set(Chunk, cloneExpr(*Blocks)));
      Blocks = B.var(Chunk);
      LoopBody.push_back(B.set(
          IV, B.add(cloneExpr(D.lo()),
                    B.sub(B.add(B.mul(B.sub(B.laneIndex(), B.lit(1)),
                                      B.var(Chunk)),
                                B.var(Blk)),
                          B.lit(1)))));
    }
    markVarying(IV);
    VarDecl *IVDecl = P.lookupVar(IV);
    assert(IVDecl && "undeclared DOALL index");
    (void)IVDecl;
    // Guard the ragged final block: WHERE (i <= hi) body.
    Body Guarded;
    Guarded.push_back(B.where(B.le(B.var(IV), cloneExpr(D.hi())),
                              convertBody(D.body(), true)));
    for (StmtPtr &GS : Guarded)
      LoopBody.push_back(std::move(GS));
    (void)Ctx;
    Out.push_back(B.doLoop(Blk, B.lit(1), std::move(Blocks),
                           std::move(LoopBody)));
  }
};

} // namespace

ir::Program transform::simdize(const Program &P, SimdizeOptions Opts,
                               std::vector<std::string> *Unsupported) {
  if (P.dialect() == Dialect::F90Simd)
    reportFatalError("simdize: program '" + P.name() +
                     "' is already in the F90simd dialect");
  Program Out = cloneProgram(P);
  Simdizer S(Out, Opts);
  S.run();
  if (!S.Unsupported.empty() && !Unsupported)
    reportFatalError("simdize: " + S.Unsupported.front());
  if (Unsupported)
    *Unsupported = std::move(S.Unsupported);
  return Out;
}
