//===- interp/Trap.cpp ----------------------------------------*- C++ -*-===//

#include "interp/Trap.h"

#include "ir/Stmt.h"
#include "support/Casting.h"
#include "support/Error.h"

using namespace simdflat;
using namespace simdflat::interp;

const char *interp::trapKindName(TrapKind K) {
  switch (K) {
  case TrapKind::OutOfBounds:
    return "out-of-bounds";
  case TrapKind::DivByZero:
    return "div-by-zero";
  case TrapKind::DomainError:
    return "domain-error";
  case TrapKind::NonUniformControl:
    return "non-uniform-control";
  case TrapKind::FuelExhausted:
    return "fuel-exhausted";
  case TrapKind::DeadlineExpired:
    return "deadline-expired";
  case TrapKind::ExternFailure:
    return "extern-failure";
  case TrapKind::WriteConflict:
    return "write-conflict";
  case TrapKind::InvalidProgram:
    return "invalid-program";
  }
  SIMDFLAT_UNREACHABLE("bad TrapKind");
}

std::string Trap::render() const {
  std::string Out = "trap: ";
  Out += trapKindName(Kind);
  if (!Location.empty()) {
    Out += " at ";
    Out += Location;
  }
  if (!Lanes.empty()) {
    Out += " on lane(s)";
    for (int64_t L : Lanes) {
      Out += ' ';
      Out += std::to_string(L);
    }
  }
  if (!Detail.empty()) {
    Out += ": ";
    Out += Detail;
  }
  return Out;
}

namespace {

std::string describeStmt(const ir::Stmt &S) {
  using ir::Stmt;
  switch (S.kind()) {
  case Stmt::Kind::Assign: {
    const auto *A = cast<ir::AssignStmt>(&S);
    if (const auto *T = dyn_cast<ir::VarRef>(&A->target()))
      return "assign " + T->name();
    if (const auto *T = dyn_cast<ir::ArrayRef>(&A->target()))
      return "assign " + T->name();
    return "assign";
  }
  case Stmt::Kind::If:
    return "IF";
  case Stmt::Kind::Where:
    return "WHERE";
  case Stmt::Kind::Do:
    return "DO " + cast<ir::DoStmt>(&S)->indexVar();
  case Stmt::Kind::While:
    return "WHILE";
  case Stmt::Kind::Repeat:
    return "REPEAT";
  case Stmt::Kind::Forall:
    return "FORALL " + cast<ir::ForallStmt>(&S)->indexVar();
  case Stmt::Kind::Call:
    return "CALL " + cast<ir::CallStmt>(&S)->callee();
  case Stmt::Kind::Label:
    return "LABEL " + std::to_string(cast<ir::LabelStmt>(&S)->label());
  case Stmt::Kind::Goto:
    return "GOTO " + std::to_string(cast<ir::GotoStmt>(&S)->label());
  }
  SIMDFLAT_UNREACHABLE("bad Stmt kind");
}

} // namespace

std::string
interp::renderStmtLocation(const std::vector<const ir::Stmt *> &Stack) {
  if (Stack.empty())
    return "program body";
  std::string Out;
  for (const ir::Stmt *S : Stack) {
    if (!Out.empty())
      Out += " / ";
    Out += describeStmt(*S);
  }
  return Out;
}
