//===- machine/MaskStack.h - Nested WHERE activity masks -------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stack of lane-activity masks maintained by the SIMD control unit
/// for nested WHERE/ELSEWHERE regions. Lanes outside the current mask
/// still step through every instruction (and pay for it); they just do
/// not commit stores.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_MACHINE_MASKSTACK_H
#define SIMDFLAT_MACHINE_MASKSTACK_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace simdflat {
namespace machine {

/// Stack of AND-composed lane masks. Pushed levels live in flat rows
/// that only ever grow, so push, flip and pop copy bytes and allocate
/// only the first time the stack reaches a new depth.
class MaskStack {
public:
  explicit MaskStack(int64_t Lanes)
      : Lanes(Lanes), Current(static_cast<size_t>(Lanes), 1) {}

  int64_t lanes() const { return Lanes; }

  /// The effective mask (already AND-composed through all levels).
  const std::vector<uint8_t> &current() const { return Current; }

  /// Is lane \p L active?
  bool isActive(int64_t L) const {
    return Current[static_cast<size_t>(L)] != 0;
  }

  /// Pushes `current AND Cond` (entering a WHERE body).
  void pushAnd(const std::vector<uint8_t> &Cond);

  /// Pushes `parent AND NOT Cond` where parent is the mask *below* the
  /// top (entering an ELSEWHERE body after its WHERE body was popped is
  /// not how we drive it; instead call flipTop() while the WHERE mask is
  /// on top).
  void flipTop();

  /// Pops one level.
  void pop();

  /// Number of pushed levels (0 at top level).
  size_t depth() const { return Depth; }

  /// Number of active lanes.
  int64_t activeCount() const;

  /// True if no lane is active.
  bool noneActive() const { return activeCount() == 0; }

private:
  int64_t Lanes;
  std::vector<uint8_t> Current;
  /// Level D's parent mask (for pop and flip) and condition (for flip)
  /// at bytes [D * Lanes, (D + 1) * Lanes); rows past Depth are stale.
  std::vector<uint8_t> Parents, Conds;
  size_t Depth = 0;
};

} // namespace machine
} // namespace simdflat

#endif // SIMDFLAT_MACHINE_MASKSTACK_H
