//===- fuzz/Oracle.cpp - Cross-executor differential oracle ----*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "frontend/GotoRecovery.h"
#include "fuzz/Generator.h"
#include "interp/MimdInterp.h"
#include "interp/ScalarInterp.h"
#include "interp/SimdInterp.h"
#include "transform/Coalesce.h"
#include "transform/GuardIntro.h"
#include "transform/Normalize.h"
#include "transform/Pipeline.h"
#include "transform/Simdize.h"
#include "transform/Simplify.h"

#include <algorithm>
#include <cstring>
#include <sstream>

using namespace simdflat;
using namespace simdflat::fuzz;
using namespace simdflat::interp;
using namespace simdflat::ir;

std::string OracleResult::report() const {
  std::ostringstream OS;
  for (const std::string &F : Failures)
    OS << F << "\n";
  return OS.str();
}

ExternRegistry fuzz::makeFuzzRegistry(std::vector<std::string> &Log,
                                      int64_t ExternTrapArg) {
  ExternRegistry Reg;
  Reg.bind(ProbeFn,
           [&Log, ExternTrapArg](std::span<const ScalVal> A) -> ScalVal {
             if (A[0].I == ExternTrapArg)
               throw ExternError{"Probe rejected " +
                                 std::to_string(A[0].I)};
             Log.push_back("Probe(" + std::to_string(A[0].I) + ")");
             return ScalVal::makeInt(A[0].I % 7);
           });
  Reg.bind(TickFn, [&Log](std::span<const ScalVal> A) -> ScalVal {
    Log.push_back("Tick(" + std::to_string(A[0].I) + ")");
    return ScalVal::makeInt(0);
  });
  Reg.bind(NoteSub, [&Log](std::span<const ScalVal> A) -> ScalVal {
    Log.push_back("Note(" + std::to_string(A[0].I) + ")");
    return ScalVal::makeInt(0);
  });
  return Reg;
}

namespace {

constexpr int64_t CoalesceMaxOuter = 16;
constexpr int64_t CoalesceMaxTotal = 512;

RunOptions runOptionsFor(const FuzzCase &C) {
  RunOptions O;
  O.WorkTargets = {"X", "A", "C", "R"};
  O.WorkCalls = {ProbeFn, NoteSub};
  O.Fuel = C.Fuel;
  if (C.DeadlineNs >= 0)
    O.Deadline = std::chrono::steady_clock::now() +
                 std::chrono::nanoseconds(C.DeadlineNs);
  // Generated programs need a few hundred iterations at most; a tight
  // backstop keeps shrinker candidates that loop forever (the increment
  // was deleted) from stalling the whole run on the default 2e8 guard.
  O.MaxLoopIterations = 100'000;
  return O;
}

void seedStore(DataStore &S, const FuzzCase &C) {
  for (const auto &[Name, V] : C.Ints)
    S.setInt(Name, V);
  for (const auto &[Name, V] : C.IntArrays)
    S.setIntArray(Name, V);
  for (const auto &[Name, V] : C.RealArrays)
    S.setRealArray(Name, V);
}

/// Copies the final contents of every array the *original* program
/// declares out of \p S. Arrays a transformation introduced (guard
/// flags, coalesce inspector tables) are implementation detail.
void captureArrays(const DataStore &S, const ir::Program &Orig,
                   VariantOutcome &Out) {
  for (const VarDecl &V : Orig.vars()) {
    if (!V.isArray())
      continue;
    if (V.Kind == ScalarKind::Real)
      Out.RealArrays[V.Name] = S.getRealArray(V.Name);
    else
      Out.IntArrays[V.Name] = S.getIntArray(V.Name);
  }
}

/// The seeded guard-intro bug: duplicate the `t = test` re-evaluation
/// at the bottom of every guarded WHILE, so the test's side effects run
/// twice per iteration (a GuardIntro without the Fig. 9 cache).
void breakGuardCache(Body &B) {
  for (StmtPtr &S : B) {
    if (auto *W = dyn_cast<WhileStmt>(S.get())) {
      breakGuardCache(W->body());
      if (isa<VarRef>(&W->cond()) && !W->body().empty() &&
          isa<AssignStmt>(W->body().back().get()))
        W->body().push_back(cloneStmt(*W->body().back()));
      continue;
    }
    if (auto *D = dyn_cast<DoStmt>(S.get()))
      breakGuardCache(D->body());
    else if (auto *R = dyn_cast<RepeatStmt>(S.get()))
      breakGuardCache(R->body());
    else if (auto *F = dyn_cast<ForallStmt>(S.get()))
      breakGuardCache(F->body());
    else if (auto *I = dyn_cast<IfStmt>(S.get())) {
      breakGuardCache(I->thenBody());
      breakGuardCache(I->elseBody());
    } else if (auto *Wh = dyn_cast<WhereStmt>(S.get())) {
      breakGuardCache(Wh->thenBody());
      breakGuardCache(Wh->elseBody());
    }
  }
}

VariantOutcome runScalarOn(const std::string &Name, const ir::Program &P,
                           const FuzzCase &C, const ir::Program &Orig) {
  VariantOutcome Out;
  Out.Variant = Name;
  ExternRegistry Reg = makeFuzzRegistry(Out.ExternLog, C.ExternTrapArg);
  ScalarInterp I(P, machine::MachineConfig::sparc2(), &Reg,
                 runOptionsFor(C));
  seedStore(I.store(), C);
  RunOutcome<ScalarRunResult> R = I.run();
  if (!R) {
    Out.T = R.error();
    return Out;
  }
  Out.BodyCount = R->Stats.WorkSteps;
  captureArrays(I.store(), Orig, Out);
  return Out;
}

VariantOutcome runMimdOn(const FuzzCase &C, const OracleOptions &Opts) {
  VariantOutcome Out;
  Out.Variant = "mimd/original";
  ExternRegistry Reg = makeFuzzRegistry(Out.ExternLog, C.ExternTrapArg);
  MimdInterp I(C.Prog, machine::MachineConfig::sparc2(), &Reg,
               Opts.MimdProcs, machine::Layout::Block, runOptionsFor(C));
  RunOutcome<MimdRunResult> R =
      I.run([&](DataStore &S) { seedStore(S, C); });
  if (!R) {
    Out.T = R.error();
    return Out;
  }
  for (const RunStats &S : R->PerProc)
    Out.BodyCount += S.WorkSteps;
  captureArrays(*R->Merged, C.Prog, Out);
  return Out;
}

VariantOutcome runSimdOn(const std::string &Name, const ir::Program &P,
                         const FuzzCase &C, const OracleOptions &Opts,
                         Engine E,
                         std::shared_ptr<const exec::Program> Code) {
  VariantOutcome Out;
  Out.Variant = Name;
  machine::MachineConfig M;
  M.Name = "fuzz";
  M.Processors = Opts.SimdGran;
  M.Gran = Opts.SimdGran;
  M.DataLayout = machine::Layout::Cyclic;
  ExternRegistry Reg = makeFuzzRegistry(Out.ExternLog, C.ExternTrapArg);
  RunOptions RO = runOptionsFor(C);
  RO.Eng = E;
  SimdInterp I(P, M, &Reg, std::move(RO));
  if (Code)
    I.setCompiled(std::move(Code));
  seedStore(I.store(), C);
  RunOutcome<SimdRunResult> R = I.run();
  if (!R) {
    Out.T = R.error();
    return Out;
  }
  // On the lockstep machine one work step covers all active lanes, so
  // the sum of active lanes is the executions the scalar engine counts.
  Out.BodyCount = R->Stats.WorkActiveLanes;
  Out.Stats = R->Stats;
  captureArrays(I.store(), C.Prog, Out);
  return Out;
}

bool bitwiseEqual(const std::vector<double> &A,
                  const std::vector<double> &B) {
  if (A.size() != B.size())
    return false;
  return A.empty() ||
         std::memcmp(A.data(), B.data(), A.size() * sizeof(double)) == 0;
}

/// Renders a lane set for twin-divergence messages.
std::string lanesOf(const Trap &T) {
  std::string Out = "{";
  for (size_t I = 0; I < T.Lanes.size(); ++I) {
    if (I)
      Out += ",";
    Out += std::to_string(T.Lanes[I]);
  }
  Out += "}";
  return Out;
}

/// Every lowered engine (bytecode, native) claims bit-identical
/// semantics with the tree walker; hold each to it. Unlike
/// compareVariant below, nothing here is schedule-dependent: same
/// program, same store seed, same machine - every observable must match
/// exactly, including trap location/detail and the charged cycle count.
/// \p EngName labels the non-tree engine in failure messages.
void compareEngines(const VariantOutcome &TreeOut,
                    const VariantOutcome &ByteOut, const char *EngName,
                    std::vector<std::string> &Failures) {
  auto Fail = [&](const std::string &What) {
    Failures.push_back(ByteOut.Variant + " [engine " + EngName +
                       "]: " + What);
  };
  if (TreeOut.Skipped || ByteOut.Skipped)
    return;
  if (TreeOut.T.has_value() != ByteOut.T.has_value()) {
    Fail(ByteOut.T
             ? std::string(EngName) + " trapped (" + ByteOut.T->render() +
                   ") but tree completed"
             : std::string(EngName) +
                   " completed but tree trapped (" + TreeOut.T->render() +
                   ")");
    return;
  }
  if (TreeOut.T) {
    if (TreeOut.T->Kind != ByteOut.T->Kind)
      Fail("trap kind " + std::string(trapKindName(ByteOut.T->Kind)) +
           " != tree " + trapKindName(TreeOut.T->Kind));
    if (TreeOut.T->Lanes != ByteOut.T->Lanes)
      Fail("trap lanes " + lanesOf(*ByteOut.T) + " != tree " +
           lanesOf(*TreeOut.T));
    if (TreeOut.T->Location != ByteOut.T->Location)
      Fail("trap location '" + ByteOut.T->Location + "' != tree '" +
           TreeOut.T->Location + "'");
    if (TreeOut.T->Detail != ByteOut.T->Detail)
      Fail("trap detail '" + ByteOut.T->Detail + "' != tree '" +
           TreeOut.T->Detail + "'");
    return;
  }
  if (TreeOut.IntArrays != ByteOut.IntArrays)
    Fail("int arrays differ between engines");
  for (const auto &[Name, Want] : TreeOut.RealArrays) {
    auto It = ByteOut.RealArrays.find(Name);
    if (It == ByteOut.RealArrays.end() || !bitwiseEqual(It->second, Want))
      Fail("real array " + Name + " differs between engines (bitwise)");
  }
  if (TreeOut.BodyCount != ByteOut.BodyCount)
    Fail("body count " + std::to_string(ByteOut.BodyCount) + " != tree " +
         std::to_string(TreeOut.BodyCount));
  if (TreeOut.ExternLog != ByteOut.ExternLog)
    Fail("extern log differs between engines (" +
         std::to_string(ByteOut.ExternLog.size()) + " vs " +
         std::to_string(TreeOut.ExternLog.size()) + " entries)");
  const RunStats &A = TreeOut.Stats, &B = ByteOut.Stats;
  if (A.WorkSteps != B.WorkSteps || A.Instructions != B.Instructions ||
      A.WorkActiveLanes != B.WorkActiveLanes ||
      A.WorkTotalLanes != B.WorkTotalLanes ||
      A.CommAccesses != B.CommAccesses || A.Cycles != B.Cycles ||
      A.Seconds != B.Seconds)
    Fail("RunStats differ between engines");
}

/// Bitwise trip-histogram identity between two lowered engines (the
/// tree oracle records none, so this compares bytecode against
/// native). Histograms are uncharged telemetry, but the
/// serving layer's adaptive respecialization keys off them - an engine
/// that drifts here silently changes strategy decisions.
void compareTripNests(const VariantOutcome &ByteOut,
                      const VariantOutcome &Other, const char *EngName,
                      std::vector<std::string> &Failures) {
  if (ByteOut.Skipped || Other.Skipped)
    return;
  auto Fail = [&](const std::string &What) {
    Failures.push_back(ByteOut.Variant + " [engine " + EngName +
                       "]: " + What);
  };
  const auto &A = ByteOut.Stats.TripNests, &B = Other.Stats.TripNests;
  if (A.size() != B.size()) {
    Fail("trip nest count " + std::to_string(B.size()) +
         " != bytecode " + std::to_string(A.size()));
    return;
  }
  for (size_t I = 0; I < A.size(); ++I) {
    const interp::NestTripStats &X = A[I], &Y = B[I];
    if (X.Name != Y.Name || X.Depth != Y.Depth ||
        X.Hist.Exact != Y.Hist.Exact || X.Hist.Log2 != Y.Hist.Log2 ||
        X.Hist.Samples != Y.Hist.Samples || X.Hist.Sum != Y.Hist.Sum ||
        X.Hist.Max != Y.Hist.Max)
      Fail("trip histogram for nest '" + X.Name +
           "' differs from bytecode");
  }
}

/// Tick entries are excluded from multiset comparison: a lockstep
/// WHILE ANY() guard is evaluated speculatively on finished lanes.
std::vector<std::string> sortedLogLessTicks(
    const std::vector<std::string> &Log) {
  std::vector<std::string> Out;
  for (const std::string &E : Log)
    if (E.compare(0, 5, "Tick(") != 0)
      Out.push_back(E);
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Appends a failure line if \p V disagrees with the reference \p Ref.
/// \p ExactLog selects entry-by-entry log equality (order-preserving
/// scalar variants) vs. multiset-without-Tick (MIMD/SIMD).
void compareVariant(const VariantOutcome &Ref, const VariantOutcome &V,
                    bool ExactLog, std::vector<std::string> &Failures) {
  auto Fail = [&](const std::string &What) {
    Failures.push_back(V.Variant + ": " + What);
  };
  if (V.Skipped)
    return;
  if (Ref.T.has_value() != V.T.has_value()) {
    Fail(V.T ? "trapped (" + V.T->render() + ") but reference completed"
             : "completed but reference trapped (" + Ref.T->render() +
                   ")");
    return;
  }
  if (Ref.T) {
    if (Ref.T->Kind != V.T->Kind)
      Fail("trap kind " + std::string(trapKindName(V.T->Kind)) +
           " != reference " + trapKindName(Ref.T->Kind));
    return;
  }
  for (const auto &[Name, Want] : Ref.IntArrays) {
    auto It = V.IntArrays.find(Name);
    if (It == V.IntArrays.end() || It->second != Want)
      Fail("int array " + Name + " differs");
  }
  for (const auto &[Name, Want] : Ref.RealArrays) {
    auto It = V.RealArrays.find(Name);
    if (It == V.RealArrays.end() || !bitwiseEqual(It->second, Want))
      Fail("real array " + Name + " differs (bitwise)");
  }
  if (V.BodyCount != Ref.BodyCount)
    Fail("body count " + std::to_string(V.BodyCount) + " != reference " +
         std::to_string(Ref.BodyCount));
  if (ExactLog) {
    if (V.ExternLog != Ref.ExternLog)
      Fail("extern log differs (" + std::to_string(V.ExternLog.size()) +
           " vs " + std::to_string(Ref.ExternLog.size()) + " entries)");
  } else if (sortedLogLessTicks(V.ExternLog) !=
             sortedLogLessTicks(Ref.ExternLog)) {
    Fail("extern call multiset differs");
  }
}

} // namespace

OracleResult fuzz::runOracle(const FuzzCase &C, const OracleOptions &Opts) {
  OracleResult Res;

  // Every SIMD variant runs twice - tree-walk reference engine, then
  // the bytecode engine - three times with Opts.Native (the JIT'd
  // native tier) - and each lowered engine is held to exact equality
  // with the tree before the bytecode outcome joins the cross-executor
  // comparison below. Scalar and MIMD variants have only the tree
  // walker and run once.
  auto pushTwin = [&Res, &Opts](auto Make) {
    VariantOutcome TreeOut = Make(Engine::Tree);
    VariantOutcome ByteOut = Make(Engine::Bytecode);
    compareEngines(TreeOut, ByteOut, "bytecode", Res.Failures);
    if (Opts.Native) {
      // The native leg: JIT'd native loops, held to the same bar (on a
      // toolchain-less build Native degrades to bytecode and trivially
      // agrees - the leg then pins the fallback plumbing instead).
      VariantOutcome NatOut = Make(Engine::Native);
      compareEngines(TreeOut, NatOut, "native", Res.Failures);
      compareTripNests(ByteOut, NatOut, "native", Res.Failures);
    }
    Res.Variants.push_back(std::move(ByteOut));
  };

  // Reference: the scalar engine on the untouched tree (GOTOs and all).
  Res.Variants.push_back(runScalarOn("scalar/original", C.Prog, C, C.Prog));

  // Scalar engine over each explicit rewrite stage. Order-preserving,
  // so these must reproduce the extern log exactly.
  {
    ir::Program P = cloneProgram(C.Prog);
    frontend::recoverGotoLoops(P);
    Res.Variants.push_back(
        runScalarOn("scalar/goto-recovered", P, C, C.Prog));

    transform::normalizeLoops(P);
    Res.Variants.push_back(runScalarOn("scalar/normalized", P, C, C.Prog));

    transform::introduceGuards(P);
    if (Opts.BreakGuardSideEffectCache)
      breakGuardCache(P.body());
    Res.Variants.push_back(runScalarOn("scalar/guard-intro", P, C, C.Prog));
  }
  {
    ir::Program P = cloneProgram(C.Prog);
    frontend::recoverGotoLoops(P);
    transform::simplifyProgram(P);
    Res.Variants.push_back(runScalarOn("scalar/simplified", P, C, C.Prog));
  }
  {
    ir::Program P = cloneProgram(C.Prog);
    frontend::recoverGotoLoops(P);
    transform::CoalesceResult CR =
        transform::coalesceNest(P, CoalesceMaxOuter, CoalesceMaxTotal);
    if (CR.Changed) {
      Res.Variants.push_back(runScalarOn("scalar/coalesced", P, C, C.Prog));
    } else {
      VariantOutcome Out;
      Out.Variant = "scalar/coalesced";
      Out.Skipped = true;
      Out.SkipReason = CR.Reason;
      Res.Variants.push_back(std::move(Out));
    }
  }

  // Parallel executors (lane/processor order differs legitimately).
  Res.Variants.push_back(runMimdOn(C, Opts));
  {
    ir::Program P = cloneProgram(C.Prog);
    frontend::recoverGotoLoops(P);
    transform::SimdizeOptions SO;
    SO.DoAllLayout = machine::Layout::Cyclic;
    ir::Program Simd = transform::simdize(P, SO);
    pushTwin([&](Engine E) {
      return runSimdOn("simd/raw", Simd, C, Opts, E, nullptr);
    });
  }
  // Pipeline variants: compile (and lower) once per variant, then run
  // both engines on the shared CompiledSimdProgram - exactly the reuse
  // benches and the transform::Pipeline cache rely on.
  auto pushPipelineTwin = [&](const std::string &Name, bool Flatten,
                              bool ExplicitNormalize) {
    transform::PipelineOptions PO;
    PO.Layout = machine::Layout::Cyclic;
    PO.Flatten = Flatten;
    PO.AssumeInnerMinOneTrip = C.MinOne;
    PO.ExplicitNormalize = ExplicitNormalize;
    Expected<transform::CompiledSimdProgram, transform::PipelineError> P =
        transform::compileForSimdExec(C.Prog, PO);
    if (!P) {
      // compileForSimd reverts damaged stages; a structured error on a
      // well-formed input is itself a robustness finding.
      VariantOutcome Out;
      Out.Variant = Name;
      Out.T = Trap{TrapKind::InvalidProgram, {}, P.error().Stage,
                   P.error().render()};
      Res.Variants.push_back(std::move(Out));
      return;
    }
    pushTwin([&](Engine E) {
      return runSimdOn(Name, P->Prog, C, Opts, E, P->Code);
    });
  };
  pushPipelineTwin("simd/unflattened", /*Flatten=*/false,
                   /*ExplicitNormalize=*/false);
  pushPipelineTwin("simd/flatten", /*Flatten=*/true,
                   /*ExplicitNormalize=*/false);
  pushPipelineTwin("simd/flatten-explicit", /*Flatten=*/true,
                   /*ExplicitNormalize=*/true);
  // The strategy seam, forced to each variant it can build. Strategy
  // selection may only change performance, never observables: the
  // coalesced build (or its flattened fallback when the nest declines)
  // must agree with the scalar reference like every other variant.
  auto pushStrategyTwin = [&](const std::string &Name,
                              transform::StrategyPolicy SP) {
    transform::PipelineOptions PO;
    PO.Layout = machine::Layout::Cyclic;
    PO.AssumeInnerMinOneTrip = C.MinOne;
    PO.Strategy = SP;
    Expected<transform::CompiledSimdProgram, transform::PipelineError> P =
        transform::compileForSimdExec(C.Prog, PO);
    if (!P) {
      VariantOutcome Out;
      Out.Variant = Name;
      Out.T = Trap{TrapKind::InvalidProgram, {}, P.error().Stage,
                   P.error().render()};
      Res.Variants.push_back(std::move(Out));
      return;
    }
    pushTwin([&](Engine E) {
      return runSimdOn(Name, P->Prog, C, Opts, E, P->Code);
    });
  };
  pushStrategyTwin("simd/strategy-unflattened",
                   transform::StrategyPolicy::unflattened());
  pushStrategyTwin("simd/strategy-flattened",
                   transform::StrategyPolicy::flattened());
  pushStrategyTwin("simd/strategy-coalesced",
                   transform::StrategyPolicy::coalesced(CoalesceMaxOuter,
                                                        CoalesceMaxTotal));

  const VariantOutcome &Ref = Res.Variants.front();
  for (const VariantOutcome &V : Res.Variants) {
    if (&V == &Ref)
      continue;
    bool ExactLog = V.Variant.compare(0, 7, "scalar/") == 0;
    compareVariant(Ref, V, ExactLog, Res.Failures);
  }
  Res.Diverged = !Res.Failures.empty();
  return Res;
}
