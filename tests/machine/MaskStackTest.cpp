//===- tests/machine/MaskStackTest.cpp -------------------------*- C++ -*-===//

#include "machine/MaskStack.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace simdflat;
using namespace simdflat::machine;

TEST(MaskStack, StartsAllActive) {
  MaskStack M(4);
  EXPECT_EQ(M.activeCount(), 4);
  EXPECT_EQ(M.depth(), 0u);
  for (int64_t L = 0; L < 4; ++L)
    EXPECT_TRUE(M.isActive(L));
}

TEST(MaskStack, PushAndRestricts) {
  MaskStack M(4);
  M.pushAnd({1, 0, 1, 0});
  EXPECT_EQ(M.activeCount(), 2);
  EXPECT_TRUE(M.isActive(0));
  EXPECT_FALSE(M.isActive(1));
  M.pop();
  EXPECT_EQ(M.activeCount(), 4);
}

TEST(MaskStack, NestedAnd) {
  MaskStack M(4);
  M.pushAnd({1, 1, 0, 0});
  M.pushAnd({1, 0, 1, 0});
  EXPECT_TRUE(M.isActive(0));
  EXPECT_FALSE(M.isActive(1));
  EXPECT_FALSE(M.isActive(2)); // parent masked it out
  EXPECT_FALSE(M.isActive(3));
  M.pop();
  EXPECT_EQ(M.activeCount(), 2);
  M.pop();
  EXPECT_EQ(M.activeCount(), 4);
}

TEST(MaskStack, FlipTopIsElsewhere) {
  MaskStack M(4);
  M.pushAnd({1, 1, 0, 0});
  M.pushAnd({1, 0, 1, 0}); // WHERE: lanes {0}
  EXPECT_EQ(M.activeCount(), 1);
  M.flipTop(); // ELSEWHERE: parent {0,1} minus cond {0,2} = {1}
  EXPECT_FALSE(M.isActive(0));
  EXPECT_TRUE(M.isActive(1));
  EXPECT_FALSE(M.isActive(2));
  EXPECT_EQ(M.activeCount(), 1);
  M.pop();
  EXPECT_EQ(M.activeCount(), 2);
}

TEST(MaskStack, NoneActive) {
  MaskStack M(2);
  EXPECT_FALSE(M.noneActive());
  M.pushAnd({0, 0});
  EXPECT_TRUE(M.noneActive());
}

TEST(MaskStack, FlipInsideEmptyParent) {
  MaskStack M(2);
  M.pushAnd({0, 0});
  M.pushAnd({1, 1});
  EXPECT_TRUE(M.noneActive());
  M.flipTop();
  EXPECT_TRUE(M.noneActive()); // parent empty => elsewhere empty too
}

// A WHERE ladder ~100 deep: each level masks out one more lane-group
// slot of a 128-lane machine. Exercises the level rows far past any
// realistic program and checks pop unwinds exactly.
TEST(MaskStack, DeepNesting) {
  constexpr int64_t Lanes = 128;
  constexpr int Levels = 100;
  MaskStack M(Lanes);
  for (int D = 0; D < Levels; ++D) {
    // Level D turns off lane D and keeps everything else.
    std::vector<uint8_t> Cond(static_cast<size_t>(Lanes), 1);
    Cond[static_cast<size_t>(D)] = 0;
    M.pushAnd(Cond);
    EXPECT_EQ(M.depth(), static_cast<size_t>(D + 1));
    EXPECT_EQ(M.activeCount(), Lanes - (D + 1));
    EXPECT_FALSE(M.isActive(D));
    EXPECT_TRUE(M.isActive(Levels)); // never masked by any level
  }
  // flipTop at full depth: the parent (depth 99) has lanes 99..127
  // active, the top condition masks exactly lane 99, so the ELSEWHERE
  // flip yields parent AND NOT cond = {99}.
  M.flipTop();
  EXPECT_EQ(M.activeCount(), 1);
  EXPECT_TRUE(M.isActive(Levels - 1));
  for (int D = Levels; D > 0; --D) {
    M.pop();
    EXPECT_EQ(M.depth(), static_cast<size_t>(D - 1));
    EXPECT_EQ(M.activeCount(), Lanes - (D - 1));
  }
  EXPECT_EQ(M.activeCount(), Lanes);
}

// The level rows only ever grow and are reused: a stack popped back to
// the top and pushed deeper with new conditions must compute every mask
// from the new levels, never from a stale row of the earlier ones.
TEST(MaskStack, RegrowthMatchesPerLevelReference) {
  using Mask = std::vector<uint8_t>;
  constexpr size_t Lanes = 6;
  MaskStack M(static_cast<int64_t>(Lanes));
  // The reference keeps each level's (parent, condition) in vectors of
  // its own.
  std::vector<std::pair<Mask, Mask>> Levels;
  Mask Cur(Lanes, 1);
  auto Check = [&](const char *Step) {
    EXPECT_EQ(M.current(), Cur) << Step << " at depth " << Levels.size();
    EXPECT_EQ(M.depth(), Levels.size()) << Step;
  };
  auto Push = [&](const Mask &Cond) {
    Levels.emplace_back(Cur, Cond);
    for (size_t L = 0; L < Lanes; ++L)
      Cur[L] = static_cast<uint8_t>(Cur[L] & Cond[L]);
    M.pushAnd(Cond);
    Check("push");
  };
  auto Flip = [&] {
    const auto &[Parent, Cond] = Levels.back();
    for (size_t L = 0; L < Lanes; ++L)
      Cur[L] = static_cast<uint8_t>(Parent[L] & !Cond[L]);
    M.flipTop();
    Check("flip");
  };
  auto Pop = [&] {
    Cur = Levels.back().first;
    Levels.pop_back();
    M.pop();
    Check("pop");
  };
  // Depth 3, flipping at each level (each ELSEWHERE nests the next
  // WHERE), then back to the top.
  for (const Mask &Cond : {Mask{1, 1, 1, 1, 0, 1}, Mask{1, 0, 1, 1, 1, 1},
                           Mask{0, 1, 1, 0, 1, 1}}) {
    Push(Cond);
    Flip();
  }
  Pop();
  Pop();
  Pop();
  // Depth 4 with different conditions: three reused rows, one new.
  for (const Mask &Cond : {Mask{0, 1, 0, 1, 1, 1}, Mask{1, 1, 0, 0, 1, 0},
                           Mask{0, 1, 1, 1, 0, 1}, Mask{1, 0, 1, 0, 1, 1}}) {
    Push(Cond);
    Flip();
  }
  while (!Levels.empty())
    Pop();
  EXPECT_EQ(M.activeCount(), static_cast<int64_t>(Lanes));
}

// Once every lane is masked, further nesting keeps the machine fully
// idle no matter what conditions are pushed - the lockstep core still
// walks the bodies, but no level may reactivate a lane its parent
// masked. This is the invariant the bytecode engine's WherePush relies
// on when it skips noneActive store commits.
TEST(MaskStack, AllLanesMaskedStaysMasked) {
  MaskStack M(4);
  M.pushAnd({0, 0, 0, 0});
  EXPECT_TRUE(M.noneActive());
  M.pushAnd({1, 1, 1, 1});
  EXPECT_TRUE(M.noneActive());
  M.flipTop(); // NOT cond = all zero; parent empty anyway
  EXPECT_TRUE(M.noneActive());
  M.pushAnd({1, 0, 1, 0});
  EXPECT_TRUE(M.noneActive());
  EXPECT_EQ(M.depth(), 3u);
  M.pop();
  M.pop();
  M.pop();
  EXPECT_EQ(M.activeCount(), 4);
  EXPECT_EQ(M.depth(), 0u);
}

// Misuse of the stack protocol is a programming error in the control
// unit, caught by assertions: popping or flipping with no pushed level
// must abort in debug builds rather than corrupt the mask.
#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(MaskStackDeathTest, PopOnEmptyAsserts) {
  MaskStack M(4);
  EXPECT_DEATH(M.pop(), "pop at top level");
}

TEST(MaskStackDeathTest, FlipOnEmptyAsserts) {
  MaskStack M(4);
  EXPECT_DEATH(M.flipTop(), "flipTop at top level");
}

TEST(MaskStackDeathTest, WidthMismatchAsserts) {
  MaskStack M(4);
  EXPECT_DEATH(M.pushAnd({1, 0}), "mask width mismatch");
}
#endif
