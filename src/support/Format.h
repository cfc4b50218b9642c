//===- support/Format.h - printf-style string formatting -------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers: printf-style formatting into std::string, padding,
/// and joining. These back the pretty-printer and the table writer.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SUPPORT_FORMAT_H
#define SIMDFLAT_SUPPORT_FORMAT_H

#include <cstdarg>
#include <string>
#include <vector>

namespace simdflat {

/// Formats like printf but returns a std::string.
std::string formatf(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// vprintf variant of formatf.
std::string vformatf(const char *Fmt, va_list Args);

/// Shortest decimal form that round-trips \p D; integral values keep a
/// ".0" so a reader can tell them from integers. Non-finite values
/// print as "%g" does.
std::string formatDouble(double D);

/// Pads \p S with spaces on the left to width \p Width (no-op if longer).
std::string padLeft(const std::string &S, size_t Width);

/// Pads \p S with spaces on the right to width \p Width (no-op if longer).
std::string padRight(const std::string &S, size_t Width);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Repeats \p S \p Count times.
std::string repeat(const std::string &S, size_t Count);

} // namespace simdflat

#endif // SIMDFLAT_SUPPORT_FORMAT_H
