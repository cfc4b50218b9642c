//===- support/CommandLine.h - Strict command-line values ------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value parsers the command-line tools share: a strict integer
/// parse and the value of a `--opt=value` argument. A typo must be a
/// usage error, never a silently truncated number.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SUPPORT_COMMANDLINE_H
#define SIMDFLAT_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <string>

namespace simdflat {

/// Strict base-10 integer parse of all of \p S; rejects empty strings,
/// trailing junk, and out-of-range values. \p Out is set only on
/// success.
bool parseInt(const std::string &S, int64_t &Out);

/// Value of a `--opt=value` argument; fails (rather than returning the
/// whole argument) when the '=' is missing.
bool optionValue(const std::string &A, std::string &Out);

} // namespace simdflat

#endif // SIMDFLAT_SUPPORT_COMMANDLINE_H
