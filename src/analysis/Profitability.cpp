//===- analysis/Profitability.cpp -----------------------------*- C++ -*-===//

#include "analysis/Profitability.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

using namespace simdflat;
using namespace simdflat::analysis;

TripDistribution::TripDistribution(std::span<const int64_t> TripCounts)
    : View(TripCounts) {
  Samples = static_cast<int64_t>(TripCounts.size());
  bool AnyNegative = false;
  for (int64_t T : TripCounts) {
    int64_t C = std::max<int64_t>(T, 0);
    AnyNegative |= T < 0;
    Sum += C;
    Max = std::max(Max, C);
  }
  // A negative trip count means "zero iterations" (Fortran DO
  // semantics); clamp into an owned copy so the evaluation below only
  // ever sees the executable counts.
  if (AnyNegative) {
    Owned.reserve(TripCounts.size());
    for (int64_t T : TripCounts)
      Owned.push_back(std::max<int64_t>(T, 0));
  }
}

TripDistribution::TripDistribution(const interp::TripHistogram &H) {
  Samples = H.Samples;
  Sum = H.Sum;
  Max = H.Max;
  if (H.Samples == 0)
    return;
  // Downsample factor: keep every occupied bucket (outliers must
  // survive), scale populous buckets so the expansion stays <=
  // ExpandCap entries.
  double Scale = H.Samples <= ExpandCap
                     ? 1.0
                     : static_cast<double>(ExpandCap) /
                           static_cast<double>(H.Samples);
  auto Emit = [&](int64_t Value, int64_t Count) {
    if (Count <= 0)
      return;
    int64_t N = std::max<int64_t>(
        1, static_cast<int64_t>(std::floor(
               static_cast<double>(Count) * Scale)));
    Owned.insert(Owned.end(), static_cast<size_t>(N), Value);
  };
  for (int64_t V = 0; V < interp::TripHistogram::NumExact; ++V)
    Emit(V, H.Exact[static_cast<size_t>(V)]);
  // Only occupied buckets get a midpoint: the top bucket's midpoint
  // overflows int64, and no recorded trip can land there.
  for (int64_t B = 0; B < interp::TripHistogram::NumLog2; ++B)
    if (int64_t Count = H.Log2[static_cast<size_t>(B)]; Count > 0)
      Emit(interp::TripHistogram::log2BucketMid(B), Count);
}

const interp::NestTripStats *analysis::dominantTripNest(
    const std::vector<interp::NestTripStats> &Nests) {
  const interp::NestTripStats *Best = nullptr;
  for (const interp::NestTripStats &N : Nests) {
    if (N.Hist.Samples <= 0)
      continue;
    if (!Best || N.Depth > Best->Depth ||
        (N.Depth == Best->Depth &&
         (N.Hist.Samples > Best->Hist.Samples ||
          (N.Hist.Samples == Best->Hist.Samples && N.Name < Best->Name))))
      Best = &N;
  }
  return Best;
}

ProfitEstimate analysis::estimateProfit(std::span<const int64_t> TripCounts,
                                        int64_t NumProcs,
                                        machine::Layout PartLayout) {
  assert(NumProcs >= 1 && "need at least one processor");
  ProfitEstimate E;
  int64_t K = static_cast<int64_t>(TripCounts.size());
  if (K == 0)
    return E;

  // Owner of outer iteration k (0-based) and its local position.
  int64_t Chunk = (K + NumProcs - 1) / NumProcs;
  auto OwnerOf = [&](int64_t Iter) {
    return PartLayout == machine::Layout::Block ? Iter / Chunk
                                                : Iter % NumProcs;
  };
  auto LocalOf = [&](int64_t Iter) {
    return PartLayout == machine::Layout::Block ? Iter % Chunk
                                                : Iter / NumProcs;
  };

  std::vector<int64_t> PerProcSum(static_cast<size_t>(NumProcs), 0);
  std::vector<int64_t> PerRowMax(static_cast<size_t>(Chunk), 0);
  int64_t Total = 0, MaxTrip = 0;
  for (int64_t Iter = 0; Iter < K; ++Iter) {
    int64_t L = TripCounts[static_cast<size_t>(Iter)];
    assert(L >= 0 && "negative trip count");
    PerProcSum[static_cast<size_t>(OwnerOf(Iter))] += L;
    int64_t Row = LocalOf(Iter);
    PerRowMax[static_cast<size_t>(Row)] =
        std::max(PerRowMax[static_cast<size_t>(Row)], L);
    Total += L;
    MaxTrip = std::max(MaxTrip, L);
  }

  for (int64_t S : PerProcSum)
    E.FlattenedSteps = std::max(E.FlattenedSteps, S);
  for (int64_t M : PerRowMax)
    E.UnflattenedSteps += M;

  E.Speedup = E.FlattenedSteps == 0
                  ? 1.0
                  : static_cast<double>(E.UnflattenedSteps) /
                        static_cast<double>(E.FlattenedSteps);
  double Avg = static_cast<double>(Total) / static_cast<double>(K);
  E.MaxOverAvg = Avg == 0.0 ? 1.0 : static_cast<double>(MaxTrip) / Avg;
  return E;
}

ProfitEstimate analysis::estimateProfit(const TripDistribution &Dist,
                                        int64_t NumProcs,
                                        machine::Layout PartLayout) {
  return estimateProfit(Dist.trips(), NumProcs, PartLayout);
}

StrategyChoice analysis::chooseStrategy(const TripDistribution &Dist,
                                        int64_t NumProcs,
                                        machine::Layout PartLayout,
                                        const StrategyCosts &Costs) {
  assert(NumProcs >= 1 && "need at least one processor");
  StrategyChoice C;
  if (Dist.empty())
    return C; // Static default: Flattened, zero confidence.

  C.Estimate = estimateProfit(Dist, NumProcs, PartLayout);

  constexpr double Inf = std::numeric_limits<double>::infinity();
  double Unflat = static_cast<double>(C.Estimate.UnflattenedSteps);
  double Flat =
      static_cast<double>(C.Estimate.FlattenedSteps) * Costs.FlattenOverhead;

  // Coalesced: the executor is a perfectly balanced DOALL over the
  // total iteration space (ceil(total / P) steps) after an inspector
  // pass over the outer iterations. Exact sample counts are known even
  // for histogram inputs, so use them rather than the expansion.
  int64_t Outer = Dist.samples();
  int64_t Total = Dist.sum();
  double Coal = std::ceil(static_cast<double>(Total) /
                          static_cast<double>(NumProcs)) +
                Costs.CoalesceInspectorPerOuter *
                    static_cast<double>(Outer);
  bool CoalEligible = true;
  if (Costs.CoalesceMaxOuter > 0 && Outer > Costs.CoalesceMaxOuter)
    CoalEligible = false;
  if (Costs.CoalesceMaxTotal > 0 &&
      static_cast<double>(Total) >
          Costs.CoalesceTotalMargin *
              static_cast<double>(Costs.CoalesceMaxTotal))
    CoalEligible = false;
  if (!CoalEligible)
    Coal = Inf;

  C.Score[static_cast<size_t>(Strategy::Unflattened)] = Unflat;
  C.Score[static_cast<size_t>(Strategy::Flattened)] = Flat;
  C.Score[static_cast<size_t>(Strategy::Coalesced)] = Coal;

  // Stable ranking: sort by score, ties broken by the static pipeline's
  // historical preference order (Flattened, Unflattened, Coalesced).
  std::array<Strategy, 3> Order = {Strategy::Flattened,
                                   Strategy::Unflattened,
                                   Strategy::Coalesced};
  std::stable_sort(Order.begin(), Order.end(),
                   [&](Strategy A, Strategy B) {
                     return C.scoreOf(A) < C.scoreOf(B);
                   });
  C.Ranked = Order;
  C.Primary = Order[0];

  double Best = C.scoreOf(Order[0]);
  double Runner = C.scoreOf(Order[1]);
  if (std::isinf(Runner))
    C.Confidence = 1.0;
  else if (Runner <= 0.0)
    C.Confidence = 0.0;
  else
    C.Confidence = std::clamp((Runner - Best) / Runner, 0.0, 1.0);
  return C;
}

int64_t analysis::estimateMsimdSteps(std::span<const int64_t> TripCounts,
                                     int64_t NumProcs, int64_t Groups,
                                     machine::Layout PartLayout) {
  assert(Groups >= 1 && NumProcs >= Groups && NumProcs % Groups == 0 &&
         "lanes must split evenly into clusters");
  int64_t K = static_cast<int64_t>(TripCounts.size());
  if (K == 0)
    return 0;
  int64_t Chunk = (K + NumProcs - 1) / NumProcs;
  int64_t LanesPerGroup = NumProcs / Groups;
  auto OwnerOf = [&](int64_t Iter) {
    return PartLayout == machine::Layout::Block ? Iter / Chunk
                                                : Iter % NumProcs;
  };
  auto LocalOf = [&](int64_t Iter) {
    return PartLayout == machine::Layout::Block ? Iter % Chunk
                                                : Iter / NumProcs;
  };
  // PerGroupRowMax[g * Chunk + row] = max trip among the group's lanes
  // at that local row.
  std::vector<int64_t> PerGroupRowMax(
      static_cast<size_t>(Groups * Chunk), 0);
  for (int64_t Iter = 0; Iter < K; ++Iter) {
    int64_t G = OwnerOf(Iter) / LanesPerGroup;
    int64_t Row = LocalOf(Iter);
    int64_t &Slot = PerGroupRowMax[static_cast<size_t>(G * Chunk + Row)];
    Slot = std::max(Slot, TripCounts[static_cast<size_t>(Iter)]);
  }
  int64_t Worst = 0;
  for (int64_t G = 0; G < Groups; ++G) {
    int64_t Sum = 0;
    for (int64_t Row = 0; Row < Chunk; ++Row)
      Sum += PerGroupRowMax[static_cast<size_t>(G * Chunk + Row)];
    Worst = std::max(Worst, Sum);
  }
  return Worst;
}
