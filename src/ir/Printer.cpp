//===- ir/Printer.cpp -----------------------------------------*- C++ -*-===//

#include "ir/Printer.h"

#include "support/Error.h"
#include "support/Format.h"

#include <cassert>

using namespace simdflat;
using namespace simdflat::ir;

namespace {

/// Binding strengths for parenthesization (higher binds tighter).
enum Precedence {
  PrecOr = 1,
  PrecAnd = 2,
  PrecNot = 3,
  PrecCmp = 4,
  PrecAdd = 5,
  PrecMul = 6,
  PrecNeg = 7,
  PrecPrimary = 8,
};

int binOpPrecedence(BinOp Op) {
  switch (Op) {
  case BinOp::Or:
    return PrecOr;
  case BinOp::And:
    return PrecAnd;
  case BinOp::Eq:
  case BinOp::Ne:
  case BinOp::Lt:
  case BinOp::Le:
  case BinOp::Gt:
  case BinOp::Ge:
    return PrecCmp;
  case BinOp::Add:
  case BinOp::Sub:
    return PrecAdd;
  case BinOp::Mul:
  case BinOp::Div:
    return PrecMul;
  case BinOp::Mod:
    return PrecPrimary; // Printed function-style: MOD(a, b).
  }
  SIMDFLAT_UNREACHABLE("bad BinOp");
}

const char *binOpPrintSpelling(BinOp Op) {
  // Like binOpSpelling but with unambiguous equality for re-parsing.
  if (Op == BinOp::Eq)
    return "==";
  return binOpSpelling(Op);
}

class PrinterImpl {
public:
  explicit PrinterImpl(PrintOptions Opts) : Opts(Opts) {}

  std::string Out;

  void expr(const Expr &E, int ParentPrec) {
    switch (E.kind()) {
    case Expr::Kind::IntLit:
      Out += std::to_string(cast<IntLit>(&E)->value());
      return;
    case Expr::Kind::RealLit:
      Out += formatDouble(cast<RealLit>(&E)->value());
      return;
    case Expr::Kind::BoolLit:
      Out += cast<BoolLit>(&E)->value() ? ".TRUE." : ".FALSE.";
      return;
    case Expr::Kind::VarRef:
      Out += cast<VarRef>(&E)->name();
      return;
    case Expr::Kind::ArrayRef: {
      const auto *A = cast<ArrayRef>(&E);
      Out += A->name();
      Out += "(";
      for (size_t I = 0; I < A->indices().size(); ++I) {
        if (I != 0)
          Out += ", ";
        expr(*A->indices()[I], 0);
      }
      Out += ")";
      return;
    }
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      int Prec = U->op() == UnOp::Not ? PrecNot : PrecNeg;
      bool Parens = Prec < ParentPrec;
      if (Parens)
        Out += "(";
      Out += U->op() == UnOp::Not ? ".NOT. " : "-";
      expr(U->operand(), Prec + 1);
      if (Parens)
        Out += ")";
      return;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      if (B->op() == BinOp::Mod) {
        Out += "MOD(";
        expr(B->lhs(), 0);
        Out += ", ";
        expr(B->rhs(), 0);
        Out += ")";
        return;
      }
      int Prec = binOpPrecedence(B->op());
      bool Parens = Prec < ParentPrec;
      if (Parens)
        Out += "(";
      expr(B->lhs(), Prec);
      Out += " ";
      Out += binOpPrintSpelling(B->op());
      Out += " ";
      // Left-associative: the right child needs strictly higher binding.
      expr(B->rhs(), Prec + 1);
      if (Parens)
        Out += ")";
      return;
    }
    case Expr::Kind::Intrinsic: {
      const auto *I = cast<IntrinsicExpr>(&E);
      Out += intrinsicName(I->op());
      Out += "(";
      for (size_t A = 0; A < I->args().size(); ++A) {
        if (A != 0)
          Out += ", ";
        expr(*I->args()[A], 0);
      }
      Out += ")";
      return;
    }
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(&E);
      Out += C->callee();
      Out += "(";
      for (size_t A = 0; A < C->args().size(); ++A) {
        if (A != 0)
          Out += ", ";
        expr(*C->args()[A], 0);
      }
      Out += ")";
      return;
    }
    }
    SIMDFLAT_UNREACHABLE("bad Expr kind");
  }

  void indent(int Level) {
    Out += std::string(static_cast<size_t>(Level * Opts.IndentWidth), ' ');
  }

  void body(const Body &B, int Level) {
    for (const StmtPtr &S : B)
      stmt(*S, Level);
  }

  void stmt(const Stmt &S, int Level) {
    switch (S.kind()) {
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      indent(Level);
      expr(A->target(), 0);
      Out += " = ";
      expr(A->value(), 0);
      Out += "\n";
      return;
    }
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(&S);
      // Conditional GOTO prints on one line (Fortran style).
      if (I->elseBody().empty() && I->thenBody().size() == 1) {
        if (const auto *G = dyn_cast<GotoStmt>(I->thenBody()[0].get());
            G && !G->cond()) {
          indent(Level);
          Out += "IF (";
          expr(I->cond(), 0);
          Out += formatf(") GOTO %d\n", G->label());
          return;
        }
      }
      indent(Level);
      Out += "IF (";
      expr(I->cond(), 0);
      Out += ") THEN\n";
      body(I->thenBody(), Level + 1);
      if (!I->elseBody().empty()) {
        indent(Level);
        Out += "ELSE\n";
        body(I->elseBody(), Level + 1);
      }
      indent(Level);
      Out += "ENDIF\n";
      return;
    }
    case Stmt::Kind::Where: {
      const auto *W = cast<WhereStmt>(&S);
      indent(Level);
      Out += "WHERE (";
      expr(W->cond(), 0);
      Out += ")\n";
      body(W->thenBody(), Level + 1);
      if (!W->elseBody().empty()) {
        indent(Level);
        Out += "ELSEWHERE\n";
        body(W->elseBody(), Level + 1);
      }
      indent(Level);
      Out += "ENDWHERE\n";
      return;
    }
    case Stmt::Kind::Do: {
      const auto *D = cast<DoStmt>(&S);
      indent(Level);
      Out += D->isParallel() ? "DOALL " : "DO ";
      Out += D->indexVar();
      Out += " = ";
      expr(D->lo(), 0);
      Out += ", ";
      expr(D->hi(), 0);
      if (D->step()) {
        Out += ", ";
        expr(*D->step(), 0);
      }
      Out += "\n";
      body(D->body(), Level + 1);
      indent(Level);
      Out += "ENDDO\n";
      return;
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(&S);
      indent(Level);
      Out += "WHILE (";
      expr(W->cond(), 0);
      Out += ")\n";
      body(W->body(), Level + 1);
      indent(Level);
      Out += "ENDWHILE\n";
      return;
    }
    case Stmt::Kind::Repeat: {
      const auto *R = cast<RepeatStmt>(&S);
      indent(Level);
      Out += "REPEAT\n";
      body(R->body(), Level + 1);
      indent(Level);
      Out += "UNTIL (";
      expr(R->untilCond(), 0);
      Out += ")\n";
      return;
    }
    case Stmt::Kind::Forall: {
      const auto *F = cast<ForallStmt>(&S);
      indent(Level);
      Out += "FORALL (";
      Out += F->indexVar();
      Out += " = ";
      expr(F->lo(), 0);
      Out += " : ";
      expr(F->hi(), 0);
      if (F->mask()) {
        Out += ", ";
        expr(*F->mask(), 0);
      }
      Out += ")\n";
      body(F->body(), Level + 1);
      indent(Level);
      Out += "ENDFORALL\n";
      return;
    }
    case Stmt::Kind::Call: {
      const auto *C = cast<CallStmt>(&S);
      indent(Level);
      Out += "CALL ";
      Out += C->callee();
      Out += "(";
      for (size_t A = 0; A < C->args().size(); ++A) {
        if (A != 0)
          Out += ", ";
        expr(*C->args()[A], 0);
      }
      Out += ")\n";
      return;
    }
    case Stmt::Kind::Label:
      indent(Level);
      Out += formatf("%d CONTINUE\n", cast<LabelStmt>(&S)->label());
      return;
    case Stmt::Kind::Goto: {
      const auto *G = cast<GotoStmt>(&S);
      indent(Level);
      if (G->cond()) {
        Out += "IF (";
        expr(*G->cond(), 0);
        Out += ") ";
      }
      Out += formatf("GOTO %d\n", G->label());
      return;
    }
    }
    SIMDFLAT_UNREACHABLE("bad Stmt kind");
  }

  void decls(const Program &P) {
    Out += "PROGRAM ";
    Out += P.name();
    Out += "\n";
    for (const ExternDecl &E : P.externs()) {
      Out += "EXTERN ";
      if (!E.Pure)
        Out += "IMPURE ";
      if (E.IsSubroutine) {
        Out += "SUBROUTINE ";
      } else {
        Out += formatf("%s FUNCTION ",
                       scalarKindUpper(scalarKindName(E.Ret)).c_str());
      }
      Out += E.Name;
      Out += "\n";
    }
    for (const VarDecl &V : P.vars()) {
      switch (V.Distribution) {
      case Dist::Control:
        break;
      case Dist::Replicated:
        Out += "REPLICATED ";
        break;
      case Dist::Distributed:
        Out += "DISTRIBUTED ";
        break;
      }
      Out += scalarKindUpper(scalarKindName(V.Kind));
      Out += " ";
      Out += V.Name;
      if (V.isArray()) {
        Out += "(";
        for (size_t D = 0; D < V.Dims.size(); ++D) {
          if (D != 0)
            Out += ", ";
          Out += std::to_string(V.Dims[D]);
        }
        Out += ")";
      }
      Out += "\n";
    }
  }

private:
  static std::string scalarKindUpper(const char *Name) {
    std::string S = Name;
    for (char &C : S)
      C = static_cast<char>(toupper(C));
    return S;
  }

  PrintOptions Opts;
};

} // namespace

std::string ir::printExpr(const Expr &E) {
  PrinterImpl P({});
  P.expr(E, 0);
  return P.Out;
}

std::string ir::printStmt(const Stmt &S, PrintOptions Opts) {
  PrinterImpl P(Opts);
  P.stmt(S, 0);
  return P.Out;
}

std::string ir::printBody(const Body &B, PrintOptions Opts) {
  PrinterImpl P(Opts);
  P.body(B, 0);
  return P.Out;
}

std::string ir::printProgram(const Program &Prog, PrintOptions Opts) {
  PrinterImpl P(Opts);
  if (Opts.ShowDecls) {
    P.decls(Prog);
    P.Out += "BEGIN\n";
  }
  P.body(Prog.body(), Opts.ShowDecls ? 1 : 0);
  if (Opts.ShowDecls)
    P.Out += "END\n";
  return P.Out;
}
