//===- transform/Pipeline.cpp ---------------------------------*- C++ -*-===//

#include "transform/Pipeline.h"

#include "exec/Lower.h"
#include "frontend/GotoRecovery.h"
#include "ir/Printer.h"
#include "ir/Verify.h"
#include "ir/Walk.h"
#include "support/Format.h"
#include "transform/Coalesce.h"
#include "transform/GuardIntro.h"
#include "transform/Normalize.h"
#include "transform/Simdize.h"
#include "transform/Simplify.h"

#include <set>

using namespace simdflat;
using namespace simdflat::transform;

namespace {

/// One issue per label GOTO-loop recovery left behind, as a label or as
/// a GOTO target, in label order.
std::vector<std::string> survivingLabels(const ir::Program &P) {
  std::set<int> Labels;
  ir::forEachStmt(P.body(), [&Labels](const ir::Stmt &S) {
    if (const auto *L = dyn_cast<ir::LabelStmt>(&S))
      Labels.insert(L->label());
    else if (const auto *G = dyn_cast<ir::GotoStmt>(&S))
      Labels.insert(G->label());
  });
  std::vector<std::string> Issues;
  for (int L : Labels)
    Issues.push_back(formatf("label %d survives GOTO-loop recovery; the "
                             "SIMD machine cannot execute unstructured "
                             "control flow",
                             L));
  return Issues;
}

} // namespace

std::string PipelineReport::summary() const {
  std::string Out;
  if (GotoLoopsRecovered > 0)
    Out += formatf("recovered %d GOTO loop(s)\n", GotoLoopsRecovered);
  if (Flattened)
    Out += formatf("flattened at the %s level\n",
                   flattenLevelName(LevelApplied));
  else if (!FlattenSkipReason.empty())
    Out += "not flattened: " + FlattenSkipReason + "\n";
  Out += "SIMDized\n";
  for (const StageOutcome &S : Stages) {
    Out += formatf("stage %-13s %s", S.Stage.c_str(),
                   !S.Ran ? "skipped" : S.Verified ? "ok" : "FAILED verify");
    if (!S.Note.empty())
      Out += " (" + S.Note + ")";
    Out += "\n";
  }
  return Out;
}

std::string PipelineError::render() const {
  std::string Out = "pipeline failed in stage '" + Stage + "':";
  for (const std::string &I : Issues)
    Out += "\n  " + I;
  return Out;
}

Expected<ir::Program, PipelineError>
transform::compileForSimd(const ir::Program &P, PipelineOptions Opts,
                          PipelineReport *Report) {
  PipelineReport Local;
  PipelineReport &R = Report ? *Report : Local;

  // Verify-and-record for a stage that just ran over \p Prog. Returns
  // true when the tree is still well formed.
  auto checkStage = [&R](const char *Stage, const ir::Program &Prog,
                         std::string Note,
                         std::vector<std::string> *IssuesOut = nullptr) {
    std::vector<std::string> Issues = ir::verifyProgram(Prog);
    R.Stages.push_back({Stage, /*Ran=*/true, Issues.empty(), std::move(Note)});
    bool Ok = Issues.empty();
    if (IssuesOut)
      *IssuesOut = std::move(Issues);
    return Ok;
  };
  auto skipStage = [&R](const char *Stage, std::string Note) {
    R.Stages.push_back({Stage, /*Ran=*/false, false, std::move(Note)});
  };

  // A malformed input is the caller's problem, not a compiler bug:
  // report it structurally instead of transforming garbage.
  {
    std::vector<std::string> Issues = ir::verifyProgram(P);
    if (!Issues.empty())
      return PipelineError{"input", std::move(Issues)};
  }

  ir::Program Work = ir::cloneProgram(P);

  R.GotoLoopsRecovered = frontend::recoverGotoLoops(Work);
  {
    std::vector<std::string> Issues;
    if (!checkStage("goto-recovery", Work,
                    formatf("recovered %d loop(s)", R.GotoLoopsRecovered),
                    &Issues))
      return PipelineError{"goto-recovery", std::move(Issues)};
  }
  // Recovery structures only single-entry backward loops; what it
  // leaves (crossing loops, forward jumps) is the input's error, not a
  // reason to abort in simdize.
  if (frontend::hasUnstructuredControl(Work))
    return PipelineError{"goto-recovery", survivingLabels(Work)};

  // Resolve the strategy seam: an explicit policy overrides the legacy
  // Flatten flag (which only distinguishes flattened vs unflattened).
  analysis::Strategy Strat =
      Opts.Strategy ? Opts.Strategy->Chosen
                    : (Opts.Flatten ? analysis::Strategy::Flattened
                                    : analysis::Strategy::Unflattened);

  // Coalesced build: run the inspector/executor rewrite on the
  // recovered nest. A successful coalesce replaces the nest with one
  // perfectly balanced DOALL, so the flatten stage is skipped; a
  // declined or damaged coalesce falls back to the flattened build.
  bool CoalescedApplied = false;
  if (Strat == analysis::Strategy::Coalesced) {
    ir::Program Backup = ir::cloneProgram(Work);
    CoalesceResult CR =
        coalesceNest(Work, Opts.Strategy->CoalesceMaxOuter,
                     Opts.Strategy->CoalesceMaxTotal);
    std::string Note = CR.Changed
                           ? formatf("coalesced (total var %s)",
                                     CR.TotalVar.c_str())
                           : "declined: " + CR.Reason +
                                 "; falling back to flattened";
    std::vector<std::string> Issues;
    if (!checkStage("coalesce", Work, std::move(Note), &Issues)) {
      if (!CR.Changed)
        return PipelineError{"coalesce", std::move(Issues)};
      Work = std::move(Backup);
      R.Stages.back().Note = "produced an invalid program (" +
                             Issues.front() +
                             "); falling back to flattened";
    } else if (CR.Changed) {
      CoalescedApplied = true;
    }
    if (!CoalescedApplied)
      Strat = analysis::Strategy::Flattened;
  } else {
    skipStage("coalesce", "not selected by strategy");
  }

  // When explicit normalization peels a REPEAT's first execution, the
  // residual pre-test loop runs one trip fewer than the original; a
  // caller-asserted min-one guarantee does not survive the peel, and
  // flattening at the optimized level on its strength would run one
  // iteration too many on exactly-one-trip rows.
  bool MinOneSurvives = Opts.AssumeInnerMinOneTrip;
  if (Opts.ExplicitNormalize) {
    int Peeled = 0;
    int Normalized = normalizeLoops(Work, {}, &Peeled);
    if (Peeled > 0)
      MinOneSurvives = false;
    {
      std::vector<std::string> Issues;
      if (!checkStage("normalize", Work,
                      formatf("normalized %d loop(s)", Normalized), &Issues))
        return PipelineError{"normalize", std::move(Issues)};
    }
    int Guarded = introduceGuards(Work);
    {
      std::vector<std::string> Issues;
      if (!checkStage("guard-intro", Work,
                      formatf("guarded %d loop(s)", Guarded), &Issues))
        return PipelineError{"guard-intro", std::move(Issues)};
    }
  } else {
    skipStage("normalize", "folded into flatten's normal-form analysis");
    skipStage("guard-intro", "folded into flatten's normal-form analysis");
  }

  if (!CoalescedApplied && Strat == analysis::Strategy::Flattened) {
    FlattenOptions FOpts;
    FOpts.Force = Opts.ForceLevel;
    FOpts.AssumeInnerMinOneTrip = MinOneSurvives;
    FOpts.DistributeOuter = Opts.Layout;
    // Keep the pre-flatten tree: a flatten that damages the program is
    // reverted and the pipeline falls back to the unflattened Fig. 5
    // path rather than failing the compilation.
    ir::Program Backup = ir::cloneProgram(Work);
    FlattenResult FR = flattenNest(Work, FOpts);
    R.Flattened = FR.Changed;
    R.LevelApplied = FR.Applied;
    if (!FR.Changed)
      R.FlattenSkipReason = FR.Reason;
    std::string Note =
        FR.Changed ? formatf("%s level", flattenLevelName(FR.Applied))
                   : "skipped: " + FR.Reason;
    std::vector<std::string> Issues;
    if (!checkStage("flatten", Work, std::move(Note), &Issues)) {
      if (!FR.Changed)
        // Flatten declined and the tree is still bad: not flatten's
        // doing, nothing to revert.
        return PipelineError{"flatten", std::move(Issues)};
      Work = std::move(Backup);
      R.Flattened = false;
      R.FlattenSkipReason =
          "flatten produced an invalid program (" + Issues.front() +
          "); reverted to the unflattened path";
      R.Stages.back().Note = R.FlattenSkipReason;
    }
  } else {
    skipStage("flatten", CoalescedApplied
                             ? "coalesced nest needs no flattening"
                             : "strategy unflattened");
  }

  R.StrategyApplied = CoalescedApplied ? analysis::Strategy::Coalesced
                      : R.Flattened    ? analysis::Strategy::Flattened
                                       : analysis::Strategy::Unflattened;

  SimdizeOptions SOpts;
  SOpts.DoAllLayout = Opts.Layout;
  std::vector<std::string> Unsupported;
  ir::Program Out = simdize(Work, SOpts, &Unsupported);
  // A loop shape with no SIMD form is the input's error, like GOTOs
  // recovery could not structure.
  if (!Unsupported.empty())
    return PipelineError{"simdize", std::move(Unsupported)};
  {
    std::vector<std::string> Issues;
    if (!checkStage("simdize", Out, "F77 -> F90simd", &Issues))
      // No fallback exists: the SIMD machine only executes F90simd.
      return PipelineError{"simdize", std::move(Issues)};
  }

  {
    ir::Program PreSimplify = ir::cloneProgram(Out);
    simplifyProgram(Out);
    std::vector<std::string> Issues;
    if (!checkStage("simplify", Out, "", &Issues)) {
      // Simplify is an optimization; losing it is always safe.
      Out = std::move(PreSimplify);
      R.Stages.back().Note =
          "produced an invalid program (" + Issues.front() + "); reverted";
    }
  }

  return Out;
}

Expected<CompiledSimdProgram, PipelineError>
transform::compileForSimdExec(const ir::Program &P, PipelineOptions Opts,
                              PipelineReport *Report) {
  Expected<ir::Program, PipelineError> Simd =
      compileForSimd(P, std::move(Opts), Report);
  if (!Simd)
    return Simd.error();
  std::shared_ptr<const exec::Program> Code =
      std::make_shared<exec::Program>(
          exec::lower(*Simd, exec::Mode::Simd));
  return CompiledSimdProgram{std::move(*Simd), std::move(Code)};
}

CanonicalKey transform::canonicalKey(const ir::Program &P,
                                     const PipelineOptions &Opts) {
  CanonicalKey K;
  K.Text = ir::printProgram(P);
  K.Text += "\n|layout=";
  K.Text += Opts.Layout == machine::Layout::Block ? "block" : "cyclic";
  K.Text += "|flatten=";
  K.Text += Opts.Flatten ? "1" : "0";
  K.Text += "|level=";
  K.Text += Opts.ForceLevel ? flattenLevelName(*Opts.ForceLevel) : "auto";
  K.Text += "|min-one=";
  K.Text += Opts.AssumeInnerMinOneTrip ? "1" : "0";
  K.Text += "|explicit-normalize=";
  K.Text += Opts.ExplicitNormalize ? "1" : "0";
  K.Text += "|strategy=";
  if (Opts.Strategy) {
    K.Text += analysis::strategyName(Opts.Strategy->Chosen);
    K.Text += "|coal-outer=";
    K.Text += std::to_string(Opts.Strategy->CoalesceMaxOuter);
    K.Text += "|coal-total=";
    K.Text += std::to_string(Opts.Strategy->CoalesceMaxTotal);
  } else {
    K.Text += "legacy";
  }
  // FNV-1a, 64-bit.
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : K.Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  K.Hash = H;
  return K;
}
