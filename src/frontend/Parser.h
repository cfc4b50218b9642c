//===- frontend/Parser.h - Mini-Fortran parser -----------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser and semantic checker for the pseudo-Fortran
/// concrete syntax:
///
/// \code
///   PROGRAM name
///   EXTERN [IMPURE] REAL FUNCTION Force
///   EXTERN [IMPURE] SUBROUTINE Dump
///   INTEGER K
///   DISTRIBUTED INTEGER L(8)
///   REPLICATED INTEGER i
///   BEGIN
///     <statements>
///   END
/// \endcode
///
/// Statements cover every loop form of Sec. 4/6: DO/DOALL, WHILE,
/// REPEAT/UNTIL, FORALL, IF/WHERE, CALL, labels and (conditional)
/// GOTOs. Semantic checks: declared symbols, array ranks, index and
/// operand types, call targets. Errors are collected (with source
/// locations) and parsing continues at the next statement - except past
/// MaxNestingDepth, where the parser reports once and stops.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_FRONTEND_PARSER_H
#define SIMDFLAT_FRONTEND_PARSER_H

#include "frontend/Diagnostics.h"
#include "ir/Program.h"

#include <optional>
#include <string>

namespace simdflat {
namespace frontend {

/// Deepest nesting the parser accepts, counted separately for
/// expressions and statements. An expression's depth is the height of
/// its tree, where a parenthesis, a subscript or argument list, a unary
/// operator and each link of an operator chain add one level; a
/// statement's depth is the number of block statements (IF, WHERE, DO,
/// WHILE, REPEAT, FORALL) enclosing it. Every pass after the parser
/// recurses over the tree, so an input nested past this bound is an
/// error rather than a stack overflow. It is far above any real
/// program; accepted trees keep their shape.
constexpr int MaxNestingDepth = 256;

/// Outcome of parsing: the program (present even with recoverable
/// errors, for tooling) plus diagnostics. Warnings alone do not make
/// the parse fail.
struct ParseResult {
  std::optional<ir::Program> Prog;
  Diagnostics Diags;

  bool ok() const { return Prog.has_value() && !Diags.hasErrors(); }
};

/// Parses a full `PROGRAM ... BEGIN ... END` unit.
ParseResult parseProgram(const std::string &Source);

} // namespace frontend
} // namespace simdflat

#endif // SIMDFLAT_FRONTEND_PARSER_H
