//===- machine/MaskStack.cpp ----------------------------------*- C++ -*-===//

#include "machine/MaskStack.h"

#include <cassert>
#include <cstring>

using namespace simdflat;
using namespace simdflat::machine;

void MaskStack::pushAnd(const std::vector<uint8_t> &Cond) {
  assert(Cond.size() == Current.size() && "mask width mismatch");
  size_t N = Current.size(), Row = Depth * N;
  if (Parents.size() < Row + N) {
    Parents.resize(Row + N);
    Conds.resize(Row + N);
  }
  // Plain pointers: a byte store through Current[I] could alias the
  // vector's own fields and would keep the loop from vectorizing.
  uint8_t *Cur = Current.data();
  const uint8_t *C = Cond.data();
  std::memcpy(Parents.data() + Row, Cur, N);
  std::memcpy(Conds.data() + Row, C, N);
  for (size_t I = 0; I < N; ++I)
    Cur[I] = static_cast<uint8_t>(Cur[I] & C[I]);
  ++Depth;
}

void MaskStack::flipTop() {
  assert(Depth > 0 && "flipTop at top level");
  size_t N = Current.size(), Row = (Depth - 1) * N;
  const uint8_t *Parent = Parents.data() + Row, *Cond = Conds.data() + Row;
  uint8_t *Cur = Current.data();
  for (size_t I = 0; I < N; ++I)
    Cur[I] = static_cast<uint8_t>(Parent[I] & !Cond[I]);
}

void MaskStack::pop() {
  assert(Depth > 0 && "pop at top level");
  --Depth;
  std::memcpy(Current.data(), Parents.data() + Depth * Current.size(),
              Current.size());
}

int64_t MaskStack::activeCount() const {
  int64_t N = 0;
  for (uint8_t M : Current)
    N += M != 0;
  return N;
}
