//===- fuzz/Oracle.h - Cross-executor differential oracle ------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle behind flattenfuzz: one FuzzCase is executed
/// by the scalar reference and then by every interesting (stage,
/// executor) variant - the scalar engine on the goto-recovered,
/// normalized, guard-introduced, simplified and coalesced trees, the
/// MIMD executor on the original tree, and the SIMD machine on the raw
/// simdized tree plus the full pipeline output (flattened, flattened
/// with the explicit Fig. 8/9 rewrites, and unflattened). Every variant
/// must match the reference on the observables the paper's equivalence
/// argument covers: final array stores (bitwise for reals, so NaN
/// poisoning is pinned too), work-step body counts, the extern-call
/// log, and - when the program faults - the structured Trap kind. A
/// trap is a verdict to reproduce, not a failure.
///
/// Comparison rules (see DESIGN.md Sec. 10 for the rationale):
///  * Trap runs compare kind only; the committed store prefix is
///    schedule-dependent and deliberately not compared.
///  * Scalar-engine variants preserve execution order, so their extern
///    logs must match the reference exactly, entry by entry.
///  * MIMD/SIMD variants legitimately reorder lanes/processors, so
///    their logs are compared as multisets - and guard probes (Tick)
///    are excluded, because a lockstep WHILE ANY() loop evaluates its
///    guard speculatively on lanes that already finished.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_FUZZ_ORACLE_H
#define SIMDFLAT_FUZZ_ORACLE_H

#include "fuzz/Case.h"
#include "interp/Extern.h"
#include "interp/RunStats.h"
#include "interp/Trap.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace simdflat {
namespace fuzz {

/// Oracle configuration.
struct OracleOptions {
  int64_t MimdProcs = 3;
  int64_t SimdGran = 4;
  /// Seeded bug switch: after guard introduction, re-evaluate each
  /// cached guard test a second time per iteration - exactly what a
  /// GuardIntro without the Fig. 9 side-effect cache would do. The
  /// oracle must catch this through the extern log whenever the guard
  /// has a side effect (GeneratorOptions::ForceGuardSideEffect).
  bool BreakGuardSideEffectCache = false;
  /// Also run every variant under Engine::Native (JIT-compiled host
  /// loops) and hold it to the same exact-equality bar, plus bitwise
  /// trip-histogram identity against the bytecode engine. Off by
  /// default: each distinct program shape costs one host-compiler
  /// invocation, so callers bound the case count (the codegen-smoke CI
  /// leg and the three-engine ctest). A build without a toolchain
  /// degrades Native to bytecode, which still must pass - the flag is
  /// always safe to set.
  bool Native = false;
};

/// What one (stage, executor) variant observed.
struct VariantOutcome {
  /// "scalar/original", "scalar/guard-intro", "mimd/original",
  /// "simd/flatten", ...
  std::string Variant;
  /// The stage declined this program shape (e.g. coalesce on a
  /// non-perfect nest); nothing was executed.
  bool Skipped = false;
  std::string SkipReason;
  /// Set when execution trapped; the observables below are then empty.
  std::optional<interp::Trap> T;
  /// Final contents of every array declared in the *original* program.
  std::map<std::string, std::vector<int64_t>> IntArrays;
  std::map<std::string, std::vector<double>> RealArrays;
  /// Extern-call log, e.g. "Note(104)"; execution order.
  std::vector<std::string> ExternLog;
  /// Work-statement executions: scalar/MIMD count executions, SIMD
  /// counts active lanes over work steps - the same quantity.
  int64_t BodyCount = 0;
  /// Full interpreter counters of a SIMD variant; used by the
  /// tree-vs-lowered engine comparison, which demands exact equality
  /// down to the charged cycle count. Empty for scalar/MIMD variants.
  interp::RunStats Stats;
};

/// Result of one differential run.
struct OracleResult {
  bool Diverged = false;
  /// One line per divergent variant; empty when !Diverged.
  std::vector<std::string> Failures;
  /// All variant outcomes, reference ("scalar/original") first.
  std::vector<VariantOutcome> Variants;

  const VariantOutcome &reference() const { return Variants.front(); }
  std::string report() const;
};

/// Bindings for the generator's Probe/Tick/Note hooks. Calls append
/// "Name(arg)" to \p Log; Probe throws ExternError when its argument
/// equals \p ExternTrapArg (the fault campaign's hostile extern).
interp::ExternRegistry makeFuzzRegistry(std::vector<std::string> &Log,
                                        int64_t ExternTrapArg = -1);

/// Runs every variant of \p C and compares against the scalar
/// reference. Never aborts on a trapping program.
///
/// Scalar and MIMD variants run once, on the tree walker: they are the
/// exact baselines. Every SIMD variant executes twice - tree-walk
/// engine, bytecode engine - three times with OracleOptions::Native,
/// which adds the JIT'd native tier. Each lowered engine must agree
/// with the tree *exactly*: same stores (bitwise), same body count,
/// same extern log entry by entry, same trap kind/lanes/location/detail,
/// same RunStats down to the charged cycle count; the lowered engines
/// must additionally agree among themselves on trip histograms
/// bitwise. A mismatch is reported as a failure for variant
/// "<name> [engine <eng>]"; Variants keeps the bytecode outcome.
OracleResult runOracle(const FuzzCase &C, const OracleOptions &Opts = {});

} // namespace fuzz
} // namespace simdflat

#endif // SIMDFLAT_FUZZ_ORACLE_H
