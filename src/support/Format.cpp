//===- support/Format.cpp -------------------------------------*- C++ -*-===//

#include "support/Format.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace simdflat;

std::string simdflat::vformatf(const char *Fmt, va_list Args) {
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  assert(Needed >= 0 && "invalid format string");
  std::string Out(static_cast<size_t>(Needed), '\0');
  std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  return Out;
}

std::string simdflat::formatf(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::string Out = vformatf(Fmt, Args);
  va_end(Args);
  return Out;
}

std::string simdflat::formatDouble(double D) {
  if (!std::isfinite(D))
    return formatf("%g", D);
  for (int Prec = 1; Prec <= 17; ++Prec) {
    std::string S = formatf("%.*g", Prec, D);
    if (std::strtod(S.c_str(), nullptr) == D) {
      if (S.find_first_of(".eE") == std::string::npos)
        S += ".0";
      return S;
    }
  }
  return formatf("%.17g", D); // unreachable: 17 digits always round-trip
}

std::string simdflat::padLeft(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return std::string(Width - S.size(), ' ') + S;
}

std::string simdflat::padRight(const std::string &S, size_t Width) {
  if (S.size() >= Width)
    return S;
  return S + std::string(Width - S.size(), ' ');
}

std::string simdflat::join(const std::vector<std::string> &Parts,
                           const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string simdflat::repeat(const std::string &S, size_t Count) {
  std::string Out;
  Out.reserve(S.size() * Count);
  for (size_t I = 0; I < Count; ++I)
    Out += S;
  return Out;
}
