//===- support/CommandLine.h - Strict command-line values ------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value parsers the command-line tools share: a strict integer
/// parse and an exact `--name=value` flag matcher. A typo must be a
/// usage error, never a silently truncated number or a misread flag.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SUPPORT_COMMANDLINE_H
#define SIMDFLAT_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <string>
#include <string_view>

namespace simdflat {

/// Strict base-10 integer parse of all of \p S; rejects empty strings,
/// trailing junk, and out-of-range values. \p Out is set only on
/// success.
bool parseInt(const std::string &S, int64_t &Out);

/// Matches the value flag \p Name exactly: true when \p A is
/// `Name=value`, with \p Out set to everything after that '='. A longer
/// name sharing the prefix (`--lanesX=3` for "--lanes") or the bare
/// name does not match, so it reaches the caller's unknown-option
/// error. \p Out is set only on a match.
bool flagValue(const std::string &A, std::string_view Name,
               std::string &Out);

} // namespace simdflat

#endif // SIMDFLAT_SUPPORT_COMMANDLINE_H
