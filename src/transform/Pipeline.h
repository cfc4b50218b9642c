//===- transform/Pipeline.h - One-call compilation driver ------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole Sec. 6 story as one entry point: given an F77(D) program,
/// recover GOTO loops, verify safety, flatten the parallel nest at the
/// best valid level, distribute the induction per the machine layout,
/// and SIMDize - producing the program the SIMD interpreter executes,
/// plus a report of what each stage decided (for tools and logs).
///
/// The pipeline is guarded: ir::verifyProgram runs after every stage.
/// A stage that damages the tree is reverted when a safe fallback
/// exists (flatten falls back to the unflattened Fig. 5 path, simplify
/// reverts to the unsimplified tree); otherwise compileForSimd returns
/// a structured PipelineError naming the stage and the verifier issues.
/// It never returns an unverified program. Labels and GOTOs that GOTO
/// recovery cannot structure (crossing loops, forward jumps) are an
/// input error of stage "goto-recovery" naming each surviving label;
/// loops with no SIMD form (see transform::simdize) are an input error
/// of stage "simdize" naming each loop variable.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_TRANSFORM_PIPELINE_H
#define SIMDFLAT_TRANSFORM_PIPELINE_H

#include "analysis/Profitability.h"
#include "machine/Machine.h"
#include "support/Result.h"
#include "transform/Flatten.h"

#include <memory>

namespace simdflat {
namespace exec {
struct Program;
} // namespace exec

namespace transform {

/// Coalesce inspector bounds for builds chosen from a cost-model verdict
/// (flattenc --strategy/--adaptive, the adaptive server): the static
/// dimensions the inspector arrays get, and the limits past which the
/// model rules coalescing out (analysis::StrategyCosts).
constexpr int64_t DefaultCoalesceMaxOuter = 64;
constexpr int64_t DefaultCoalesceMaxTotal = 4096;

/// The strategy-selection seam: which loop-nest build the pipeline
/// produces. Historically the pipeline had one global order (flatten
/// then simdize, with the Flatten flag as the only knob); a policy
/// makes the choice explicit and per-compilation, so callers - the CLI
/// via --strategy=, the serving layer via live trip histograms - can
/// build exactly the variant the profitability model ranked best.
///
/// Coalesced builds run the inspector/executor rewrite
/// (transform::coalesceNest) on the recovered nest and skip flattening
/// (the executor is already a single perfectly balanced DOALL); when
/// the nest declines to coalesce, the pipeline falls back to the
/// flattened build and records why. Every strategy ends in the same
/// simdize + simplify tail, so the tree/fuzz oracles gate all three.
struct StrategyPolicy {
  analysis::Strategy Chosen = analysis::Strategy::Flattened;
  /// Static dimensions of the coalesce inspector arrays (Coalesced
  /// only). Runtime totals beyond them trap OutOfBounds, so pick them
  /// from the observed distribution with margin.
  int64_t CoalesceMaxOuter = DefaultCoalesceMaxOuter;
  int64_t CoalesceMaxTotal = DefaultCoalesceMaxTotal;

  static StrategyPolicy unflattened() {
    return {analysis::Strategy::Unflattened, 0, 0};
  }
  static StrategyPolicy flattened() {
    return {analysis::Strategy::Flattened, 0, 0};
  }
  static StrategyPolicy
  coalesced(int64_t MaxOuter = DefaultCoalesceMaxOuter,
            int64_t MaxTotal = DefaultCoalesceMaxTotal) {
    return {analysis::Strategy::Coalesced, MaxOuter, MaxTotal};
  }
  /// Adopts a ranked model verdict under the default coalesce bounds
  /// (they only matter for Coalesced).
  static StrategyPolicy fromChoice(const analysis::StrategyChoice &C) {
    return {C.Primary, DefaultCoalesceMaxOuter, DefaultCoalesceMaxTotal};
  }
};

/// Options for compileForSimd.
struct PipelineOptions {
  /// Lane layout for the parallel dimension (match the target machine).
  machine::Layout Layout = machine::Layout::Cyclic;
  /// Skip flattening (produce the Fig. 5/14 unflattened SIMD program).
  bool Flatten = true;
  /// Forwarded to flattenNest.
  std::optional<FlattenLevel> ForceLevel;
  bool AssumeInnerMinOneTrip = false;
  /// Run the explicit Fig. 8/9 normalize + guard-introduction rewrites
  /// before flattening. Off by default: the flattener extracts the same
  /// normal form non-destructively through analysis::normalFormOf, so
  /// the explicit passes are for demonstration and differential testing.
  bool ExplicitNormalize = false;
  /// Explicit strategy selection. Unset preserves the legacy behavior
  /// (the Flatten flag picks flattened vs unflattened); set, it
  /// overrides Flatten and may request the coalesced build.
  std::optional<StrategyPolicy> Strategy;
};

/// Verification outcome of one pipeline stage.
struct StageOutcome {
  /// "goto-recovery", "normalize", "guard-intro", "coalesce",
  /// "flatten", "simdize", "simplify".
  std::string Stage;
  /// The stage executed (false: disabled by options or folded into a
  /// later stage's analysis).
  bool Ran = false;
  /// ir::verifyProgram was clean after the stage (meaningless when
  /// !Ran).
  bool Verified = false;
  /// What the stage did, or why it was skipped or reverted.
  std::string Note;
};

/// What the pipeline did.
struct PipelineReport {
  int GotoLoopsRecovered = 0;
  bool Flattened = false;
  FlattenLevel LevelApplied = FlattenLevel::General;
  /// Non-empty when flattening was requested but skipped (or reverted).
  std::string FlattenSkipReason;
  /// Strategy the pipeline actually built, after any fallback (a
  /// declined coalesce falls back to Flattened; a declined flatten to
  /// Unflattened).
  analysis::Strategy StrategyApplied = analysis::Strategy::Unflattened;
  /// Per-stage verification outcomes, in execution order.
  std::vector<StageOutcome> Stages;

  /// Human-readable one-liner per stage.
  std::string summary() const;
};

/// Structured failure of the pipeline: the stage that produced an
/// invalid tree (and could not be reverted), with the verifier issues,
/// the "goto-recovery" stage with one issue per surviving label, or the
/// "simdize" stage with one issue per loop that has no SIMD form.
struct PipelineError {
  std::string Stage;
  std::vector<std::string> Issues;

  std::string render() const;
};

/// Runs the full pipeline on a copy of \p P and returns the F90simd
/// program, or a PipelineError naming the failing stage. \p Report
/// (optional) receives the stage decisions either way.
Expected<ir::Program, PipelineError>
compileForSimd(const ir::Program &P, PipelineOptions Opts = {},
               PipelineReport *Report = nullptr);

/// A pipeline product ready for repeated execution: the F90simd tree
/// plus its lowered bytecode. Callers that run one stage many times
/// (benches, the fuzz oracle) hand Code to SimdInterp::setCompiled so
/// lowering happens once per stage, not once per run.
struct CompiledSimdProgram {
  ir::Program Prog;
  std::shared_ptr<const exec::Program> Code;
};

/// compileForSimd followed by one exec::lower of the result. The
/// returned Code is always non-null on success.
Expected<CompiledSimdProgram, PipelineError>
compileForSimdExec(const ir::Program &P, PipelineOptions Opts = {},
                   PipelineReport *Report = nullptr);

/// Identity of one (program, pipeline options) compilation, used as the
/// compiled-program cache key by the serving layer. Text is the
/// canonically printed IR plus an encoding of every option that changes
/// the compiled output, so two sources that parse to the same tree (and
/// differ only in whitespace, comments or statement spelling the
/// printer normalizes) share one cache entry; Hash is its FNV-1a digest.
struct CanonicalKey {
  uint64_t Hash = 0;
  std::string Text;
};

/// Computes the cache identity of compiling \p P under \p Opts. Pure
/// function of its arguments: no pipeline stage runs.
CanonicalKey canonicalKey(const ir::Program &P,
                          const PipelineOptions &Opts = {});

} // namespace transform
} // namespace simdflat

#endif // SIMDFLAT_TRANSFORM_PIPELINE_H
