//===- transform/Simdize.h - F77 -> F90simd conversion ---------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "SIMDizing a loop ... is a straightforward consequence of the SIMD
/// restricted control flow, yet it is the crucial motivation for the
/// concepts introduced in this paper" (Sec. 3). This pass converts an
/// F77(D) program into the F90simd dialect executable by the lockstep
/// SIMD interpreter:
///
///  * A DOALL loop becomes a control loop over lane blocks: each lane
///    owns iterations per the chosen layout, the index variable becomes
///    replicated, and the body is guarded by WHERE(index <= hi) for the
///    ragged final block (this is the Fig. 5 / Fig. 14 shape).
///  * An inner DO whose upper bound varies across lanes becomes
///    `DO j = lo, MAXRED(hi)` with the body under `WHERE (j <= hi)` -
///    "the upper bound L(i') had to be changed into the maximum over all
///    processors ... which necessitated a guard" (Sec. 3).
///  * A WHILE with a lane-varying condition becomes
///    `WHILE ANY(cond) { WHERE (cond) ... }` (Figs. 7, 14, 15).
///  * Lane-varying IFs become WHEREs.
///  * Scalars that carry lane-varying values (or are stored under a
///    lane-varying mask) are replicated, per the Sec. 2 convention.
///
/// Lane variance is computed by a fixpoint over assignments; LANEINDEX()
/// is the variance seed, reductions are variance sinks (their results
/// are broadcast).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_TRANSFORM_SIMDIZE_H
#define SIMDFLAT_TRANSFORM_SIMDIZE_H

#include "ir/Program.h"
#include "machine/Machine.h"

#include <string>
#include <vector>

namespace simdflat {
namespace transform {

/// Options for simdize.
struct SimdizeOptions {
  /// How DOALL iteration spaces map to lanes (match the machine's data
  /// layout so owner-computes accesses stay communication-free).
  machine::Layout DoAllLayout = machine::Layout::Cyclic;
};

/// Converts \p P (dialect F77) into a new F90simd program. Aborts on
/// unstructured control flow (run the front end's GOTO recovery first)
/// or if \p P is already SIMDized.
///
/// Some loop shapes have no SIMD form: a DOALL whose step is not 1, and
/// an inner DO with a lane-varying lower bound, a lane-varying step, or
/// a lane-varying upper bound under a non-literal step. With
/// \p Unsupported, each one is an issue naming its loop variable and
/// the returned program must be discarded when any is reported (the
/// pipeline turns them into a "simdize" PipelineError); without it, the
/// first one aborts.
ir::Program simdize(const ir::Program &P, SimdizeOptions Opts = {},
                    std::vector<std::string> *Unsupported = nullptr);

} // namespace transform
} // namespace simdflat

#endif // SIMDFLAT_TRANSFORM_SIMDIZE_H
