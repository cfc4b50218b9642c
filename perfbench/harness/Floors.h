//===- perfbench/harness/Floors.h - Hand-written native floors --*- C++ -*-===//
//
// Part of simdflat's wall-clock benchmark. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Speed-of-light references for the kernels workload: the same
/// flattened schedules the pipeline produces, written by hand over
/// FloorLanes lanes. Floors.cpp is compiled with the flags the JIT
/// hands the host compiler, so native-over-floor compares generated
/// code against hand-written code, not one flag set against another.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_FLOORS_H
#define PERFBENCH_FLOORS_H

#include "md/PairList.h"
#include "workloads/Mandelbrot.h"
#include "workloads/SpMV.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// Lanes of every floor; the kernels run on a machine this wide too.
constexpr int FloorLanes = 64;

/// Lane-flattened escape loop: each lane walks its own pixels and
/// starts the next one the step after its current one escapes.
/// Writes iteration counts into \p Out (numPixels entries).
void mandelbrotFloor(const simdflat::workloads::MandelbrotSpec &Spec,
                     std::vector<int64_t> &Out);

/// y = A x over native::flattenedForEach; row lengths are input data.
void spmvFloor(const simdflat::workloads::CsrMatrix &M,
               const std::vector<double> &X, std::vector<double> &Y);

/// F(i) = sum of md::pairForce over i's partners, over
/// native::flattenedForEach; partner counts are input data.
void nbforceFloor(const simdflat::md::Molecule &Mol,
                  const simdflat::md::PairList &PL, std::vector<double> &F);

} // namespace perfbench

#endif // PERFBENCH_FLOORS_H
