//===- perfbench/harness/Floors.cpp ----------------------------*- C++ -*-===//
//
// Part of simdflat's wall-clock benchmark. MIT license.
//
// Compiled with the JIT's host-compiler flags (see CMakeLists.txt).
//
//===----------------------------------------------------------------------===//

#include "Floors.h"

#include "md/NBForce.h"
#include "native/FlattenedLoop.h"

using namespace simdflat;

namespace perfbench {

void mandelbrotFloor(const workloads::MandelbrotSpec &Spec,
                     std::vector<int64_t> &Out) {
  constexpr int W = FloorLanes;
  const int64_t N = Spec.numPixels();
  const int64_t MaxIt = Spec.MaxIter;
  // The same expressions, in the same order, as mandelbrotIterations
  // and the kernel: every pixel's count must match bit for bit.
  const double DX = (Spec.XMax - Spec.XMin) / static_cast<double>(Spec.Width);
  const double DY = (Spec.YMax - Spec.YMin) / static_cast<double>(Spec.Height);
  Out.assign(static_cast<size_t>(N), 0);

  double ZX[W], ZY[W], CX[W], CY[W];
  int64_t It[W], Pix[W];
  auto Start = [&](int L, int64_t P) {
    Pix[L] = P;
    ZX[L] = ZY[L] = 0.0;
    It[L] = 0;
    CX[L] = Spec.XMin + static_cast<double>(P % Spec.Width) * DX;
    CY[L] = Spec.YMin + static_cast<double>(P / Spec.Width) * DY;
  };
  int64_t Live = 0;
  for (int L = 0; L < W; ++L) {
    if (L < N) {
      Start(L, L);
      ++Live;
    } else {
      Pix[L] = N; // idle for good
      ZX[L] = ZY[L] = CX[L] = CY[L] = 0.0;
      It[L] = MaxIt;
    }
  }
  while (Live > 0) {
    // One lockstep step: every lane either iterates or is done.
    int64_t AnyDone = 0;
    for (int L = 0; L < W; ++L) {
      double X2 = ZX[L] * ZX[L], Y2 = ZY[L] * ZY[L];
      bool Act = It[L] < MaxIt && X2 + Y2 <= 4.0;
      double NX = X2 - Y2 + CX[L];
      double NY = 2.0 * ZX[L] * ZY[L] + CY[L];
      ZX[L] = Act ? NX : ZX[L];
      ZY[L] = Act ? NY : ZY[L];
      It[L] += Act;
      AnyDone |= !Act;
    }
    if (!AnyDone)
      continue;
    // Retire escaped pixels and hand their lanes the next one.
    for (int L = 0; L < W; ++L) {
      if (Pix[L] >= N ||
          (It[L] < MaxIt && ZX[L] * ZX[L] + ZY[L] * ZY[L] <= 4.0))
        continue;
      Out[static_cast<size_t>(Pix[L])] = It[L];
      int64_t Next = Pix[L] + W;
      if (Next < N) {
        Start(L, Next);
      } else {
        Pix[L] = N;
        It[L] = MaxIt;
        --Live;
      }
    }
  }
}

void spmvFloor(const workloads::CsrMatrix &M, const std::vector<double> &X,
               std::vector<double> &Y) {
  Y.assign(static_cast<size_t>(M.Rows), 0.0);
  const int64_t *RowPtr = M.RowPtr.data();
  const int64_t *Col = M.Col.data();
  const double *Val = M.Val.data();
  const double *XP = X.data();
  double *YP = Y.data();
  native::flattenedForEach<FloorLanes>(
      M.Rows, [&](int64_t O) { return RowPtr[O + 1] - RowPtr[O]; },
      [&](int64_t O, int64_t I) {
        int64_t K = RowPtr[O] - 1 + I;
        YP[O] += Val[K] * XP[Col[K] - 1];
      });
}

void nbforceFloor(const md::Molecule &Mol, const md::PairList &PL,
                  std::vector<double> &F) {
  F.assign(static_cast<size_t>(PL.numAtoms()), 0.0);
  const int64_t *PCnt = PL.PCnt.data();
  double *FP = F.data();
  native::flattenedForEach<FloorLanes>(
      PL.numAtoms(), [&](int64_t O) { return PCnt[O]; },
      [&](int64_t O, int64_t I) {
        FP[O] += md::pairForce(Mol, O + 1, PL.partner(O, I + 1));
      });
}

} // namespace perfbench
