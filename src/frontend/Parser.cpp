//===- frontend/Parser.cpp ------------------------------------*- C++ -*-===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <map>

using namespace simdflat;
using namespace simdflat::frontend;
using namespace simdflat::ir;

namespace {

bool isNumeric(ScalarKind K) {
  return K == ScalarKind::Int || K == ScalarKind::Real;
}

ScalarKind promote(ScalarKind A, ScalarKind B) {
  return (A == ScalarKind::Real || B == ScalarKind::Real)
             ? ScalarKind::Real
             : ScalarKind::Int;
}

class Parser {
public:
  Parser(const std::string &Source, ParseResult &Result)
      : Result(Result) {
    Toks = tokenize(Source, Result.Diags);
  }

  void run() {
    skipNewlines();
    if (!expectKeyword("PROGRAM"))
      return;
    if (cur().Kind != TokKind::Identifier) {
      error("expected a program name after PROGRAM");
      return;
    }
    Result.Prog.emplace(cur().Text);
    P = &*Result.Prog;
    advance();
    expectNewline();
    parseDecls();
    if (!expectKeyword("BEGIN"))
      return;
    expectNewline();
    Body B = parseBody({"END"});
    expectKeyword("END");
    P->setBody(std::move(B));
    checkLabels();
  }

private:
  ParseResult &Result;
  std::vector<Token> Toks;
  size_t Pos = 0;
  Program *P = nullptr;
  /// First definition / first GOTO reference of each label number.
  std::map<int, SourceLoc> DefinedLabels;
  std::map<int, SourceLoc> GotoTargets;
  /// Nesting bookkeeping (see MaxNestingDepth): expression levels open
  /// on the parser's own stack, the height of the expression the last
  /// expression parser returned, and the open statement bodies.
  int OpenExprLevels = 0;
  int ExprHeight = 0;
  int OpenBodies = 0;
  bool TooDeep = false;

  //--- Token helpers ----------------------------------------------------

  const Token &cur() const { return Toks[Pos]; }
  const Token &la(size_t Ahead) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  void advance() {
    if (Pos + 1 < Toks.size())
      ++Pos;
  }
  bool atKeyword(const char *KW) const { return cur().isKeyword(KW); }

  void error(const std::string &Msg) {
    if (!TooDeep)
      Result.Diags.error(cur().Loc, Msg);
  }

  /// The input nests past MaxNestingDepth: report it once, then move
  /// the cursor to end of input so every parse loop unwinds at once
  /// (later diagnostics are suppressed).
  void tooDeep() {
    error(formatf("nesting deeper than %d levels", MaxNestingDepth));
    TooDeep = true;
    Pos = Toks.size() - 1;
  }

  /// Opens one expression level on the parser's stack; false (after
  /// tooDeep) when that would pass the bound. Pair with closeLevel.
  bool openLevel() {
    if (OpenExprLevels >= MaxNestingDepth) {
      tooDeep();
      return false;
    }
    ++OpenExprLevels;
    return true;
  }
  void closeLevel() { --OpenExprLevels; }

  /// Records the height of the expression about to be returned.
  void setHeight(int H) {
    ExprHeight = H;
    if (H > MaxNestingDepth)
      tooDeep();
  }

  void warning(SourceLoc Loc, const std::string &Msg) {
    Result.Diags.warning(Loc, Msg);
  }

  /// Labels nobody jumps to and jumps to nowhere are legal but almost
  /// always typos; the latter traps at run time, so flag both here.
  void checkLabels() {
    for (const auto &[Label, Loc] : DefinedLabels)
      if (!GotoTargets.count(Label))
        warning(Loc, formatf("label %d is never the target of a GOTO",
                             Label));
    for (const auto &[Label, Loc] : GotoTargets)
      if (!DefinedLabels.count(Label))
        warning(Loc, formatf("GOTO to undefined label %d", Label));
  }

  void skipNewlines() {
    while (cur().Kind == TokKind::Newline)
      advance();
  }

  /// Skips to just past the next newline (statement-level recovery).
  void recoverToNewline() {
    while (cur().Kind != TokKind::Newline && cur().Kind != TokKind::Eof)
      advance();
    skipNewlines();
  }

  bool expectKeyword(const char *KW) {
    if (atKeyword(KW)) {
      advance();
      return true;
    }
    error(formatf("expected %s", KW));
    return false;
  }

  bool expect(TokKind K, const char *What) {
    if (cur().Kind == K) {
      advance();
      return true;
    }
    error(formatf("expected %s", What));
    return false;
  }

  void expectNewline() {
    if (cur().Kind == TokKind::Newline || cur().Kind == TokKind::Eof) {
      skipNewlines();
      return;
    }
    error("expected end of statement");
    recoverToNewline();
  }

  //--- Declarations -----------------------------------------------------

  std::optional<ScalarKind> kindKeyword() {
    if (atKeyword("INTEGER"))
      return ScalarKind::Int;
    if (atKeyword("REAL"))
      return ScalarKind::Real;
    if (atKeyword("LOGICAL"))
      return ScalarKind::Bool;
    return std::nullopt;
  }

  void parseDecls() {
    while (true) {
      skipNewlines();
      if (atKeyword("EXTERN")) {
        parseExtern();
        continue;
      }
      Dist D = Dist::Control;
      size_t Save = Pos;
      if (atKeyword("REPLICATED")) {
        D = Dist::Replicated;
        advance();
      } else if (atKeyword("DISTRIBUTED")) {
        D = Dist::Distributed;
        advance();
      }
      std::optional<ScalarKind> K = kindKeyword();
      if (!K) {
        Pos = Save;
        return; // end of declarations
      }
      advance();
      parseVarDecl(*K, D);
    }
  }

  void parseExtern() {
    advance(); // EXTERN
    bool Pure = true;
    if (atKeyword("IMPURE")) {
      Pure = false;
      advance();
    }
    if (atKeyword("SUBROUTINE")) {
      advance();
      if (cur().Kind != TokKind::Identifier) {
        error("expected a subroutine name");
        recoverToNewline();
        return;
      }
      P->addExtern(cur().Text, ScalarKind::Int, Pure,
                   /*IsSubroutine=*/true);
      advance();
      expectNewline();
      return;
    }
    std::optional<ScalarKind> K = kindKeyword();
    if (!K) {
      error("expected INTEGER/REAL/LOGICAL or SUBROUTINE after EXTERN");
      recoverToNewline();
      return;
    }
    advance();
    if (!expectKeyword("FUNCTION")) {
      recoverToNewline();
      return;
    }
    if (cur().Kind != TokKind::Identifier) {
      error("expected a function name");
      recoverToNewline();
      return;
    }
    P->addExtern(cur().Text, *K, Pure);
    advance();
    expectNewline();
  }

  void parseVarDecl(ScalarKind K, Dist D) {
    if (cur().Kind != TokKind::Identifier) {
      error("expected a variable name");
      recoverToNewline();
      return;
    }
    std::string Name = cur().Text;
    advance();
    std::vector<int64_t> Dims;
    if (cur().Kind == TokKind::LParen) {
      advance();
      while (true) {
        if (cur().Kind != TokKind::IntLiteral) {
          error("array extents must be integer literals");
          recoverToNewline();
          return;
        }
        Dims.push_back(cur().IntValue);
        advance();
        if (cur().Kind == TokKind::Comma) {
          advance();
          continue;
        }
        break;
      }
      expect(TokKind::RParen, "')'");
    }
    if (P->lookupVar(Name)) {
      error(formatf("variable '%s' redeclared", Name.c_str()));
    } else {
      P->addVar(Name, K, std::move(Dims), D);
    }
    expectNewline();
  }

  //--- Expressions ------------------------------------------------------

  ExprPtr badExpr() {
    ExprHeight = 0;
    return std::make_unique<IntLit>(0);
  }

  ExprPtr parseExpr() { return parseOr(); }

  /// Height of a binary node whose left operand has height \p HL and
  /// whose right operand was just parsed.
  int linkHeight(int HL) const { return std::max(HL, ExprHeight) + 1; }

  ExprPtr parseOr() {
    ExprPtr L = parseAnd();
    int H = ExprHeight;
    while (cur().Kind == TokKind::DotOr) {
      advance();
      ExprPtr R = parseAnd();
      checkBool(*L, ".OR.");
      checkBool(*R, ".OR.");
      L = std::make_unique<BinaryExpr>(BinOp::Or, std::move(L),
                                       std::move(R), ScalarKind::Bool);
      setHeight(H = linkHeight(H));
    }
    return L;
  }

  ExprPtr parseAnd() {
    ExprPtr L = parseNot();
    int H = ExprHeight;
    while (cur().Kind == TokKind::DotAnd) {
      advance();
      ExprPtr R = parseNot();
      checkBool(*L, ".AND.");
      checkBool(*R, ".AND.");
      L = std::make_unique<BinaryExpr>(BinOp::And, std::move(L),
                                       std::move(R), ScalarKind::Bool);
      setHeight(H = linkHeight(H));
    }
    return L;
  }

  ExprPtr parseNot() {
    if (cur().Kind == TokKind::DotNot) {
      advance();
      if (!openLevel())
        return badExpr();
      ExprPtr E = parseNot();
      closeLevel();
      checkBool(*E, ".NOT.");
      setHeight(ExprHeight + 1);
      return std::make_unique<UnaryExpr>(UnOp::Not, std::move(E),
                                         ScalarKind::Bool);
    }
    return parseCmp();
  }

  ExprPtr parseCmp() {
    ExprPtr L = parseAdd();
    int H = ExprHeight;
    BinOp Op;
    switch (cur().Kind) {
    case TokKind::Eq:
      Op = BinOp::Eq;
      break;
    case TokKind::Ne:
      Op = BinOp::Ne;
      break;
    case TokKind::Lt:
      Op = BinOp::Lt;
      break;
    case TokKind::Le:
      Op = BinOp::Le;
      break;
    case TokKind::Gt:
      Op = BinOp::Gt;
      break;
    case TokKind::Ge:
      Op = BinOp::Ge;
      break;
    default:
      return L;
    }
    advance();
    ExprPtr R = parseAdd();
    bool BoolsOK = Op == BinOp::Eq || Op == BinOp::Ne;
    bool LB = L->type() == ScalarKind::Bool,
         RB = R->type() == ScalarKind::Bool;
    if ((LB || RB) && !(BoolsOK && LB && RB))
      error("cannot order logical values");
    setHeight(linkHeight(H));
    return std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R),
                                        ScalarKind::Bool);
  }

  ExprPtr parseAdd() {
    ExprPtr L = parseMul();
    int H = ExprHeight;
    while (cur().Kind == TokKind::Plus || cur().Kind == TokKind::Minus) {
      BinOp Op = cur().Kind == TokKind::Plus ? BinOp::Add : BinOp::Sub;
      advance();
      ExprPtr R = parseMul();
      checkNumeric(*L, "+/-");
      checkNumeric(*R, "+/-");
      ScalarKind Ty = promote(L->type(), R->type());
      L = std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R), Ty);
      setHeight(H = linkHeight(H));
    }
    return L;
  }

  ExprPtr parseMul() {
    ExprPtr L = parseUnary();
    int H = ExprHeight;
    while (cur().Kind == TokKind::Star || cur().Kind == TokKind::Slash) {
      BinOp Op = cur().Kind == TokKind::Star ? BinOp::Mul : BinOp::Div;
      advance();
      ExprPtr R = parseUnary();
      checkNumeric(*L, "*//");
      checkNumeric(*R, "*//");
      ScalarKind Ty = promote(L->type(), R->type());
      L = std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R), Ty);
      setHeight(H = linkHeight(H));
    }
    return L;
  }

  ExprPtr parseUnary() {
    if (cur().Kind == TokKind::Minus) {
      advance();
      if (!openLevel())
        return badExpr();
      ExprPtr E = parseUnary();
      closeLevel();
      checkNumeric(*E, "unary -");
      ScalarKind Ty = E->type();
      setHeight(ExprHeight + 1);
      return std::make_unique<UnaryExpr>(UnOp::Neg, std::move(E), Ty);
    }
    return parsePrimary();
  }

  void checkBool(const Expr &E, const char *Ctx) {
    if (E.type() != ScalarKind::Bool)
      error(formatf("%s requires logical operands", Ctx));
  }

  void checkNumeric(const Expr &E, const char *Ctx) {
    if (!isNumeric(E.type()))
      error(formatf("%s requires numeric operands", Ctx));
  }

  void checkInt(const Expr &E, const char *Ctx) {
    if (E.type() != ScalarKind::Int)
      error(formatf("%s must be an integer expression", Ctx));
  }

  ExprPtr parsePrimary() {
    ExprHeight = 0;
    switch (cur().Kind) {
    case TokKind::IntLiteral: {
      auto E = std::make_unique<IntLit>(cur().IntValue);
      advance();
      return E;
    }
    case TokKind::RealLiteral: {
      auto E = std::make_unique<RealLit>(cur().RealValue);
      advance();
      return E;
    }
    case TokKind::DotTrue:
      advance();
      return std::make_unique<BoolLit>(true);
    case TokKind::DotFalse:
      advance();
      return std::make_unique<BoolLit>(false);
    case TokKind::LParen: {
      advance();
      if (!openLevel())
        return badExpr();
      ExprPtr E = parseExpr();
      closeLevel();
      expect(TokKind::RParen, "')'");
      setHeight(ExprHeight + 1);
      return E;
    }
    case TokKind::Identifier:
      return parseNameExpr();
    default:
      error("expected an expression");
      advance();
      return badExpr();
    }
  }

  /// Parses `(a, b, ...)`; the list is one level above its deepest
  /// argument.
  std::vector<ExprPtr> parseArgList() {
    std::vector<ExprPtr> Args;
    advance(); // '('
    if (!openLevel())
      return Args;
    int H = 0;
    if (cur().Kind == TokKind::RParen) {
      advance();
    } else {
      while (true) {
        Args.push_back(parseExpr());
        H = std::max(H, ExprHeight);
        if (cur().Kind == TokKind::Comma) {
          advance();
          continue;
        }
        break;
      }
      expect(TokKind::RParen, "')'");
    }
    closeLevel();
    setHeight(H + 1);
    return Args;
  }

  /// Identifier in expression position: variable, array element,
  /// intrinsic or extern function call.
  ExprPtr parseNameExpr() {
    std::string Name = cur().Text;
    std::string Upper = Name;
    for (char &C : Upper)
      C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
    bool HasParen = la(1).Kind == TokKind::LParen;

    if (HasParen) {
      if (ExprPtr E = tryParseIntrinsic(Upper))
        return E;
      if (const ExternDecl *ED = P->lookupExtern(Name)) {
        if (ED->IsSubroutine)
          error(formatf("subroutine '%s' used as a function",
                        Name.c_str()));
        advance();
        std::vector<ExprPtr> Args = parseArgList();
        return std::make_unique<CallExpr>(Name, std::move(Args), ED->Ret);
      }
      // Array reference.
      const VarDecl *D = P->lookupVar(Name);
      if (!D) {
        error(formatf("reference to undeclared array '%s'", Name.c_str()));
        advance();
        parseArgList();
        return badExpr();
      }
      if (D->isScalar()) {
        error(formatf("'%s' is a scalar, not an array", Name.c_str()));
        advance();
        parseArgList();
        return badExpr();
      }
      advance();
      std::vector<ExprPtr> Indices = parseArgList();
      if (Indices.size() != D->Dims.size())
        error(formatf("'%s' has rank %zu but %zu subscripts given",
                      Name.c_str(), D->Dims.size(), Indices.size()));
      for (const ExprPtr &I : Indices)
        checkInt(*I, "array subscript");
      return std::make_unique<ArrayRef>(Name, D->Kind, std::move(Indices));
    }

    const VarDecl *D = P->lookupVar(Name);
    if (!D) {
      error(formatf("reference to undeclared variable '%s'",
                    Name.c_str()));
      // Implicitly declare as an integer scalar to limit error cascades.
      P->addVar(Name, ScalarKind::Int);
      D = P->lookupVar(Name);
    }
    advance();
    return std::make_unique<VarRef>(Name, D->Kind);
  }

  /// Intrinsics callable in expression position; MOD lowers to BinOp.
  ExprPtr tryParseIntrinsic(const std::string &Upper) {
    struct Entry {
      const char *Name;
      IntrinsicOp Op;
      int Arity;
    };
    static const Entry Table[] = {
        {"MAX", IntrinsicOp::Max, 2},
        {"MIN", IntrinsicOp::Min, 2},
        {"ABS", IntrinsicOp::Abs, 1},
        {"SQRT", IntrinsicOp::Sqrt, 1},
        {"LANEINDEX", IntrinsicOp::LaneIndex, 0},
        {"NUMLANES", IntrinsicOp::NumLanes, 0},
        {"ANY", IntrinsicOp::Any, 1},
        {"ALL", IntrinsicOp::All, 1},
        {"MAXRED", IntrinsicOp::MaxRed, 1},
        {"MINRED", IntrinsicOp::MinRed, 1},
        {"SUMRED", IntrinsicOp::SumRed, 1},
        {"MAXVAL", IntrinsicOp::MaxVal, 1},
        {"SUMVAL", IntrinsicOp::SumVal, 1},
    };
    if (Upper == "MOD") {
      advance();
      std::vector<ExprPtr> Args = parseArgList();
      if (Args.size() != 2) {
        error("MOD takes two arguments");
        return badExpr();
      }
      checkInt(*Args[0], "MOD argument");
      checkInt(*Args[1], "MOD argument");
      return std::make_unique<BinaryExpr>(BinOp::Mod, std::move(Args[0]),
                                          std::move(Args[1]),
                                          ScalarKind::Int);
    }
    for (const Entry &E : Table) {
      if (Upper != E.Name)
        continue;
      advance();
      std::vector<ExprPtr> Args = parseArgList();
      if (static_cast<int>(Args.size()) != E.Arity) {
        error(formatf("%s takes %d argument(s)", E.Name, E.Arity));
        return badExpr();
      }
      return finishIntrinsic(E.Op, std::move(Args));
    }
    return nullptr;
  }

  ExprPtr finishIntrinsic(IntrinsicOp Op, std::vector<ExprPtr> Args) {
    ScalarKind Ty = ScalarKind::Int;
    switch (Op) {
    case IntrinsicOp::Max:
    case IntrinsicOp::Min:
      checkNumeric(*Args[0], "MAX/MIN");
      checkNumeric(*Args[1], "MAX/MIN");
      Ty = promote(Args[0]->type(), Args[1]->type());
      break;
    case IntrinsicOp::Abs:
      checkNumeric(*Args[0], "ABS");
      Ty = Args[0]->type();
      break;
    case IntrinsicOp::Sqrt:
      if (Args[0]->type() != ScalarKind::Real)
        error("SQRT requires a real argument");
      Ty = ScalarKind::Real;
      break;
    case IntrinsicOp::LaneIndex:
    case IntrinsicOp::NumLanes:
      Ty = ScalarKind::Int;
      break;
    case IntrinsicOp::Any:
    case IntrinsicOp::All:
      checkBool(*Args[0], "ANY/ALL");
      Ty = ScalarKind::Bool;
      break;
    case IntrinsicOp::MaxRed:
    case IntrinsicOp::MinRed:
    case IntrinsicOp::SumRed:
      checkNumeric(*Args[0], "MAXRED/MINRED/SUMRED");
      Ty = Args[0]->type();
      break;
    case IntrinsicOp::MaxVal:
    case IntrinsicOp::SumVal: {
      const auto *V = dyn_cast<VarRef>(Args[0].get());
      const VarDecl *D = V ? P->lookupVar(V->name()) : nullptr;
      if (!D || !D->isArray())
        error("MAXVAL/SUMVAL requires a whole-array argument");
      Ty = D ? D->Kind : ScalarKind::Int;
      break;
    }
    }
    return std::make_unique<IntrinsicExpr>(Op, std::move(Args), Ty);
  }

  //--- Statements -------------------------------------------------------

  /// Parses statements until one of \p Terminators (keyword spellings)
  /// is at the cursor (not consumed). The program body is statement
  /// level 0; each block statement's body is one level deeper.
  Body parseBody(std::initializer_list<const char *> Terminators) {
    Body B;
    if (OpenBodies > MaxNestingDepth) {
      tooDeep();
      return B;
    }
    ++OpenBodies;
    while (true) {
      skipNewlines();
      if (cur().Kind == TokKind::Eof)
        break;
      bool AtTerm = false;
      for (const char *T : Terminators)
        AtTerm |= atKeyword(T);
      if (AtTerm)
        break;
      if (StmtPtr S = parseStmt())
        B.push_back(std::move(S));
      else
        recoverToNewline();
    }
    --OpenBodies;
    return B;
  }

  StmtPtr parseStmt() {
    // Label: `10 CONTINUE`.
    if (cur().Kind == TokKind::IntLiteral && la(1).isKeyword("CONTINUE")) {
      int Label = static_cast<int>(cur().IntValue);
      DefinedLabels.emplace(Label, cur().Loc);
      advance();
      advance();
      expectNewline();
      return std::make_unique<LabelStmt>(Label);
    }
    if (atKeyword("GOTO"))
      return parseGoto(nullptr);
    if (atKeyword("IF"))
      return parseIf();
    if (atKeyword("WHERE"))
      return parseWhere();
    if (atKeyword("DO") || atKeyword("DOALL"))
      return parseDo();
    if (atKeyword("WHILE"))
      return parseWhile();
    if (atKeyword("REPEAT"))
      return parseRepeat();
    if (atKeyword("FORALL"))
      return parseForall();
    if (atKeyword("CALL"))
      return parseCall();
    if (cur().Kind == TokKind::Identifier)
      return parseAssign();
    error("expected a statement");
    return nullptr;
  }

  StmtPtr parseGoto(ExprPtr Cond) {
    advance(); // GOTO
    if (cur().Kind != TokKind::IntLiteral) {
      error("expected a label after GOTO");
      return nullptr;
    }
    int Label = static_cast<int>(cur().IntValue);
    GotoTargets.emplace(Label, cur().Loc);
    advance();
    expectNewline();
    return std::make_unique<GotoStmt>(Label, std::move(Cond));
  }

  StmtPtr parseIf() {
    advance(); // IF
    if (!expect(TokKind::LParen, "'(' after IF"))
      return nullptr;
    ExprPtr Cond = parseExpr();
    checkBool(*Cond, "IF condition");
    if (!expect(TokKind::RParen, "')'"))
      return nullptr;
    if (atKeyword("GOTO"))
      return parseGoto(std::move(Cond));
    if (!expectKeyword("THEN"))
      return nullptr;
    expectNewline();
    Body Then = parseBody({"ELSE", "ENDIF"});
    Body Else;
    if (atKeyword("ELSE")) {
      advance();
      expectNewline();
      Else = parseBody({"ENDIF"});
    }
    expectKeyword("ENDIF");
    expectNewline();
    return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                    std::move(Else));
  }

  StmtPtr parseWhere() {
    advance(); // WHERE
    if (!expect(TokKind::LParen, "'(' after WHERE"))
      return nullptr;
    ExprPtr Cond = parseExpr();
    checkBool(*Cond, "WHERE mask");
    expect(TokKind::RParen, "')'");
    expectNewline();
    Body Then = parseBody({"ELSEWHERE", "ENDWHERE"});
    Body Else;
    if (atKeyword("ELSEWHERE")) {
      advance();
      expectNewline();
      Else = parseBody({"ENDWHERE"});
    }
    expectKeyword("ENDWHERE");
    expectNewline();
    return std::make_unique<WhereStmt>(std::move(Cond), std::move(Then),
                                       std::move(Else));
  }

  StmtPtr parseDo() {
    bool Parallel = atKeyword("DOALL");
    advance();
    if (cur().Kind != TokKind::Identifier) {
      error("expected an index variable after DO");
      return nullptr;
    }
    std::string IV = cur().Text;
    const VarDecl *D = P->lookupVar(IV);
    if (!D) {
      error(formatf("undeclared DO index '%s'", IV.c_str()));
      P->addVar(IV, ScalarKind::Int);
    } else if (D->Kind != ScalarKind::Int || D->isArray()) {
      error("DO index must be an integer scalar");
    }
    advance();
    if (!expect(TokKind::Assign, "'='"))
      return nullptr;
    ExprPtr Lo = parseExpr();
    checkInt(*Lo, "DO lower bound");
    if (!expect(TokKind::Comma, "','"))
      return nullptr;
    ExprPtr Hi = parseExpr();
    checkInt(*Hi, "DO upper bound");
    ExprPtr Step;
    if (cur().Kind == TokKind::Comma) {
      advance();
      Step = parseExpr();
      checkInt(*Step, "DO step");
    }
    expectNewline();
    Body B = parseBody({"ENDDO"});
    expectKeyword("ENDDO");
    expectNewline();
    return std::make_unique<DoStmt>(IV, std::move(Lo), std::move(Hi),
                                    std::move(Step), std::move(B),
                                    Parallel);
  }

  StmtPtr parseWhile() {
    advance();
    if (!expect(TokKind::LParen, "'(' after WHILE"))
      return nullptr;
    ExprPtr Cond = parseExpr();
    checkBool(*Cond, "WHILE condition");
    expect(TokKind::RParen, "')'");
    expectNewline();
    Body B = parseBody({"ENDWHILE"});
    expectKeyword("ENDWHILE");
    expectNewline();
    return std::make_unique<WhileStmt>(std::move(Cond), std::move(B));
  }

  StmtPtr parseRepeat() {
    advance();
    expectNewline();
    Body B = parseBody({"UNTIL"});
    if (!expectKeyword("UNTIL"))
      return nullptr;
    if (!expect(TokKind::LParen, "'(' after UNTIL"))
      return nullptr;
    ExprPtr Cond = parseExpr();
    checkBool(*Cond, "UNTIL condition");
    expect(TokKind::RParen, "')'");
    expectNewline();
    return std::make_unique<RepeatStmt>(std::move(B), std::move(Cond));
  }

  StmtPtr parseForall() {
    advance();
    if (!expect(TokKind::LParen, "'(' after FORALL"))
      return nullptr;
    if (cur().Kind != TokKind::Identifier) {
      error("expected an index variable in FORALL");
      return nullptr;
    }
    std::string IV = cur().Text;
    if (!P->lookupVar(IV)) {
      error(formatf("undeclared FORALL index '%s'", IV.c_str()));
      P->addVar(IV, ScalarKind::Int);
    }
    advance();
    if (!expect(TokKind::Assign, "'='"))
      return nullptr;
    ExprPtr Lo = parseExpr();
    checkInt(*Lo, "FORALL lower bound");
    if (!expect(TokKind::Colon, "':'"))
      return nullptr;
    ExprPtr Hi = parseExpr();
    checkInt(*Hi, "FORALL upper bound");
    ExprPtr Mask;
    if (cur().Kind == TokKind::Comma) {
      advance();
      Mask = parseExpr();
      checkBool(*Mask, "FORALL mask");
    }
    expect(TokKind::RParen, "')'");
    expectNewline();
    Body B = parseBody({"ENDFORALL"});
    expectKeyword("ENDFORALL");
    expectNewline();
    return std::make_unique<ForallStmt>(IV, std::move(Lo), std::move(Hi),
                                        std::move(Mask), std::move(B));
  }

  StmtPtr parseCall() {
    advance();
    if (cur().Kind != TokKind::Identifier) {
      error("expected a subroutine name after CALL");
      return nullptr;
    }
    std::string Name = cur().Text;
    const ExternDecl *E = P->lookupExtern(Name);
    if (!E || !E->IsSubroutine)
      error(formatf("CALL of undeclared subroutine '%s'", Name.c_str()));
    advance();
    std::vector<ExprPtr> Args;
    if (cur().Kind == TokKind::LParen)
      Args = parseArgList();
    expectNewline();
    return std::make_unique<CallStmt>(Name, std::move(Args));
  }

  StmtPtr parseAssign() {
    ExprPtr Target = parseNameExpr();
    if (!isa<VarRef>(Target.get()) && !isa<ArrayRef>(Target.get())) {
      error("invalid assignment target");
      return nullptr;
    }
    if (const auto *V = dyn_cast<VarRef>(Target.get())) {
      const VarDecl *D = P->lookupVar(V->name());
      if (D && D->isArray())
        error(formatf("cannot assign to whole array '%s'",
                      V->name().c_str()));
    }
    if (!expect(TokKind::Assign, "'=' in assignment"))
      return nullptr;
    ExprPtr Value = parseExpr();
    ScalarKind TK = Target->type(), VK = Value->type();
    if (TK != VK && !(isNumeric(TK) && isNumeric(VK)))
      error("assignment of incompatible types");
    expectNewline();
    return std::make_unique<AssignStmt>(std::move(Target),
                                        std::move(Value));
  }
};

} // namespace

ParseResult frontend::parseProgram(const std::string &Source) {
  ParseResult Result;
  Parser Psr(Source, Result);
  Psr.run();
  return Result;
}
