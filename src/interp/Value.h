//===- interp/Value.h - Runtime values --------------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime value representations: a scalar value (one lane) and a lane
/// vector (one value per lane of the SIMD machine). Ints and logicals
/// share the integer payload (logical = 0/1).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_INTERP_VALUE_H
#define SIMDFLAT_INTERP_VALUE_H

#include "ir/Type.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace simdflat {
namespace interp {

/// Integer DIV and MOD for a nonzero divisor, defined on every input:
/// DIV by -1 is the two's-complement negation (INT64_MIN / -1 is
/// INT64_MIN) and MOD by -1 is 0, where the host's / and % would trap.
/// Every engine and the literal folder divide through these; callers
/// handle a zero divisor.
inline int64_t divInt(int64_t A, int64_t B) {
  return B == -1 ? static_cast<int64_t>(0 - static_cast<uint64_t>(A)) : A / B;
}
inline int64_t modInt(int64_t A, int64_t B) { return B == -1 ? 0 : A % B; }

/// One scalar runtime value.
struct ScalVal {
  ir::ScalarKind Kind = ir::ScalarKind::Int;
  int64_t I = 0;
  double R = 0.0;

  static ScalVal makeInt(int64_t V) { return {ir::ScalarKind::Int, V, 0.0}; }
  static ScalVal makeReal(double V) { return {ir::ScalarKind::Real, 0, V}; }
  static ScalVal makeBool(bool V) {
    return {ir::ScalarKind::Bool, V ? 1 : 0, 0.0};
  }

  bool asBool() const {
    assert(Kind == ir::ScalarKind::Bool && "not a logical");
    return I != 0;
  }
  int64_t asInt() const {
    assert(Kind == ir::ScalarKind::Int && "not an integer");
    return I;
  }
  /// Numeric value as double (int or real).
  double asNumeric() const {
    return Kind == ir::ScalarKind::Real ? R : static_cast<double>(I);
  }
};

/// One value per lane. Only the payload matching \c Kind is populated.
struct VecVal {
  ir::ScalarKind Kind = ir::ScalarKind::Int;
  std::vector<int64_t> I; ///< Int and Bool payloads (Bool is 0/1).
  std::vector<double> R;  ///< Real payload.

  int64_t lanes() const {
    return static_cast<int64_t>(Kind == ir::ScalarKind::Real ? R.size()
                                                             : I.size());
  }

  static VecVal broadcastInt(int64_t V, int64_t Lanes) {
    VecVal Out;
    Out.Kind = ir::ScalarKind::Int;
    Out.I.assign(static_cast<size_t>(Lanes), V);
    return Out;
  }
  static VecVal broadcastReal(double V, int64_t Lanes) {
    VecVal Out;
    Out.Kind = ir::ScalarKind::Real;
    Out.R.assign(static_cast<size_t>(Lanes), V);
    return Out;
  }
  static VecVal broadcastBool(bool V, int64_t Lanes) {
    VecVal Out;
    Out.Kind = ir::ScalarKind::Bool;
    Out.I.assign(static_cast<size_t>(Lanes), V ? 1 : 0);
    return Out;
  }

  ScalVal lane(int64_t L) const {
    ScalVal S;
    S.Kind = Kind;
    if (Kind == ir::ScalarKind::Real)
      S.R = R[static_cast<size_t>(L)];
    else
      S.I = I[static_cast<size_t>(L)];
    return S;
  }
};

} // namespace interp
} // namespace simdflat

#endif // SIMDFLAT_INTERP_VALUE_H
