//===- tests/interp/TripHistogramTest.cpp ----------------------*- C++ -*-===//
//
// Unit tests for the compact per-nest trip histogram: exact small
// counts, log2 bucketization of large trips, merge, and the bucket
// consistency invariant.
//
//===----------------------------------------------------------------------===//

#include "interp/RunStats.h"

#include <gtest/gtest.h>

#include <limits>

using namespace simdflat;
using namespace simdflat::interp;

namespace {

TEST(TripHistogram, SmallTripsAreExact) {
  TripHistogram H;
  for (int64_t T = 0; T < TripHistogram::NumExact; ++T)
    for (int64_t N = 0; N <= T; ++N)
      H.record(T);
  for (int64_t T = 0; T < TripHistogram::NumExact; ++T)
    EXPECT_EQ(H.Exact[static_cast<size_t>(T)], T + 1) << "trip " << T;
  EXPECT_EQ(H.Samples, 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8);
  EXPECT_TRUE(H.consistent());
}

TEST(TripHistogram, NegativeTripsClampToZero) {
  // A negative-trip DO executes zero iterations; the histogram must
  // agree rather than invent a bucket.
  TripHistogram H;
  H.record(-5);
  EXPECT_EQ(H.Exact[0], 1);
  EXPECT_EQ(H.Sum, 0);
  EXPECT_EQ(H.Max, 0);
  EXPECT_TRUE(H.consistent());
}

TEST(TripHistogram, Log2BucketBoundaries) {
  // Bucket b covers [2^(b+3), 2^(b+4)): 8 is the first bucketed trip.
  EXPECT_EQ(TripHistogram::log2Bucket(8), 0);
  EXPECT_EQ(TripHistogram::log2Bucket(15), 0);
  EXPECT_EQ(TripHistogram::log2Bucket(16), 1);
  EXPECT_EQ(TripHistogram::log2Bucket(31), 1);
  EXPECT_EQ(TripHistogram::log2Bucket(32), 2);
  EXPECT_EQ(TripHistogram::log2Bucket(1 << 20), 17); // [2^20, 2^21)
  // Bucket lo/mid representatives stay inside the bucket.
  for (int64_t B = 0; B < 20; ++B) {
    int64_t Lo = TripHistogram::log2BucketLo(B);
    EXPECT_EQ(TripHistogram::log2Bucket(Lo), B);
    EXPECT_EQ(TripHistogram::log2Bucket(TripHistogram::log2BucketMid(B)), B);
  }
}

TEST(TripHistogram, HugeTripsStayInRange) {
  // The largest representable trip lands in bucket 59 ([2^62, 2^63)),
  // comfortably inside the 61 buckets - no overflow, no clamping loss.
  int64_t Huge = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(TripHistogram::log2Bucket(Huge), 59);
  TripHistogram H;
  H.record(Huge);
  EXPECT_EQ(H.Log2[59], 1);
  EXPECT_TRUE(H.consistent());
}

TEST(TripHistogram, SumMaxMeanAreExact) {
  // The histogram buckets the distribution but keeps the first moments
  // exact, so mean trips never suffers bucketization error.
  TripHistogram H;
  H.record(3);
  H.record(100);
  H.record(1000);
  EXPECT_EQ(H.Samples, 3);
  EXPECT_EQ(H.Sum, 1103);
  EXPECT_EQ(H.Max, 1000);
  EXPECT_DOUBLE_EQ(H.mean(), 1103.0 / 3.0);
}

TEST(TripHistogram, MergeAddsCounts) {
  TripHistogram A, B;
  A.record(2);
  A.record(50);
  B.record(2);
  B.record(7000);
  A.merge(B);
  EXPECT_EQ(A.Samples, 4);
  EXPECT_EQ(A.Exact[2], 2);
  EXPECT_EQ(A.Sum, 2 + 50 + 2 + 7000);
  EXPECT_EQ(A.Max, 7000);
  EXPECT_TRUE(A.consistent());
}

TEST(TripHistogram, ConsistencyRejectsTamperedCounts) {
  TripHistogram H;
  H.record(4);
  EXPECT_TRUE(H.consistent());
  H.Samples = 5; // buckets no longer sum to Samples
  EXPECT_FALSE(H.consistent());
  H.Samples = 1;
  H.Exact[4] = -1;
  EXPECT_FALSE(H.consistent());
}

TEST(TripHistogram, MergeTripNestsMatchesByName) {
  std::vector<NestTripStats> A, B;
  A.push_back({"L0 do i", 0, {}});
  A[0].Hist.record(3);
  B.push_back({"L0 do i", 0, {}});
  B[0].Hist.record(5);
  B.push_back({"L1 while", 1, {}});
  B[1].Hist.record(9);
  mergeTripNests(A, B);
  ASSERT_EQ(A.size(), 2u);
  EXPECT_EQ(A[0].Hist.Samples, 2);
  EXPECT_EQ(A[1].Name, "L1 while");
  EXPECT_EQ(A[1].Hist.Samples, 1);
}

} // namespace
