//===- tools/flattenfuzz/main.cpp - Differential fuzzing driver -*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// flattenfuzz: randomized differential testing of the flattening
/// pipeline. Generates seeded loop-nest programs, runs each through
/// every (stage, executor) variant, and reports any divergence from the
/// scalar reference; diverging cases are shrunk and written as replay
/// files for the regression corpus.
///
/// Examples:
///   flattenfuzz --seed=1 --count=500          # the CI smoke run
///   flattenfuzz --seed=1 --time-budget=30     # fuzz for ~30 seconds
///   flattenfuzz --campaign=faults --count=200 # fault-injection sweep
///   flattenfuzz --replay tests/fuzz/corpus/case.json
///   flattenfuzz --seed=7 --export=case.json   # checkpoint one case
///
/// Exit codes: 0 success, 1 divergence (or replay verdict mismatch),
/// 2 bad command line or unreadable file.
///
//===----------------------------------------------------------------------===//

#include "fuzz/AdaptiveCampaign.h"
#include "fuzz/Campaign.h"
#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"
#include "fuzz/ServeCampaign.h"
#include "fuzz/Shrinker.h"
#include "interp/Trap.h"
#include "ir/Printer.h"
#include "ir/Walk.h"
#include "support/CommandLine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace simdflat;
using namespace simdflat::fuzz;

namespace {

struct CliOptions {
  uint64_t Seed = 1;
  int64_t Count = 100;
  int64_t TimeBudgetSec = 0; // 0 = no wall-clock cap
  std::string ReplayPath;
  std::string ExportPath;
  std::string Campaign;          // "" or "faults"
  std::string OutDir = "";       // where shrunk divergences are written
  bool BreakGuardCache = false;  // seeded-bug demonstration switch
  bool Native = false;           // three-engine oracle (JIT per case)
};

void usage() {
  std::fprintf(
      stderr,
      "usage: flattenfuzz [options]\n"
      "  --seed=N           first seed (default 1)\n"
      "  --count=N          cases to run (default 100)\n"
      "  --time-budget=SEC  stop after SEC seconds of fuzzing\n"
      "  --replay PATH      run one corpus case and check its verdict\n"
      "  --campaign=faults  fault-injection campaign (fuel, deadline,\n"
      "                     hostile externs, NaN inputs; default\n"
      "                     --count=200)\n"
      "  --campaign=serve   serving-core fault campaign (mixed hostile\n"
      "                     traffic, queue saturation, injected compile\n"
      "                     failures, mid-flight eviction)\n"
      "  --campaign=adaptive\n"
      "                     adaptive-strategy campaign (drifting trip\n"
      "                     distributions, strategy flips under cache\n"
      "                     chaos, poisoned-primary fallback; exactness\n"
      "                     and accounting must hold throughout)\n"
      "  --export=PATH      write the --seed case as a corpus file\n"
      "  --out=DIR          directory for shrunk divergence cases\n"
      "  --break-guard-cache\n"
      "                     seed the known GuardIntro-cache bug (the\n"
      "                     oracle must catch it; for demonstration)\n"
      "  --native           three-engine oracle: also run every variant\n"
      "                     under Engine::Native (one host-compiler\n"
      "                     invocation per distinct program shape -\n"
      "                     keep --count small; degrades to bytecode\n"
      "                     on toolchain-less builds)\n"
      "exit codes: 0 success, 1 divergence/verdict mismatch, 2 bad\n"
      "command line or unreadable file\n");
}

[[nodiscard]] bool cliError(const char *Fmt, const std::string &Arg) {
  std::fprintf(stderr, Fmt, Arg.c_str());
  std::fprintf(stderr, "\n");
  usage();
  return false;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  bool CountSet = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string V;
    int64_t N = 0;
    if (flagValue(A, "--seed", V)) {
      if (!parseInt(V, N) || N < 0)
        return cliError("flattenfuzz: --seed expects a non-negative "
                        "integer, got '%s'",
                        A);
      Opts.Seed = static_cast<uint64_t>(N);
    } else if (flagValue(A, "--count", V)) {
      if (!parseInt(V, N) || N <= 0)
        return cliError("flattenfuzz: --count expects a positive "
                        "integer, got '%s'",
                        A);
      Opts.Count = N;
      CountSet = true;
    } else if (flagValue(A, "--time-budget", V)) {
      if (!parseInt(V, N) || N < 0)
        return cliError("flattenfuzz: --time-budget expects seconds, "
                        "got '%s'",
                        A);
      Opts.TimeBudgetSec = N;
    } else if (A == "--replay") {
      if (I + 1 >= Argc)
        return cliError("flattenfuzz: %s expects a file argument", A);
      Opts.ReplayPath = Argv[++I];
    } else if (flagValue(A, "--replay", V)) {
      if (V.empty())
        return cliError("flattenfuzz: --replay expects a path, got '%s'",
                        A);
      Opts.ReplayPath = V;
    } else if (flagValue(A, "--campaign", V)) {
      if (V != "faults" && V != "serve" && V != "adaptive")
        return cliError("flattenfuzz: --campaign expects 'faults', "
                        "'serve' or 'adaptive', got '%s'",
                        A);
      Opts.Campaign = V;
    } else if (flagValue(A, "--export", V)) {
      if (V.empty())
        return cliError("flattenfuzz: --export expects a path, got '%s'",
                        A);
      Opts.ExportPath = V;
    } else if (flagValue(A, "--out", V)) {
      if (V.empty())
        return cliError("flattenfuzz: --out expects a directory, "
                        "got '%s'",
                        A);
      Opts.OutDir = V;
    } else if (A == "--break-guard-cache") {
      Opts.BreakGuardCache = true;
    } else if (A == "--native") {
      Opts.Native = true;
    } else if (A == "--help" || A == "-h") {
      usage();
      return false;
    } else {
      return cliError("flattenfuzz: unknown argument '%s'", A);
    }
  }
  if (!Opts.Campaign.empty() && !CountSet)
    Opts.Count = 200;
  return true;
}

/// Stamps the reference verdict of \p OR into \p C so a corpus replay
/// can assert it.
void recordVerdict(FuzzCase &C, const OracleResult &OR) {
  const VariantOutcome &Ref = OR.reference();
  if (Ref.T) {
    C.Expect = ExpectedVerdict::Trap;
    C.ExpectTrapKind = interp::trapKindName(Ref.T->Kind);
  } else {
    C.Expect = ExpectedVerdict::Complete;
    C.ExpectTrapKind.clear();
  }
}

int runReplay(const CliOptions &Opts) {
  Expected<FuzzCase, CorpusError> C = readCase(Opts.ReplayPath);
  if (!C) {
    std::fprintf(stderr, "flattenfuzz: %s\n", C.error().Message.c_str());
    return 2;
  }
  OracleOptions OO;
  OO.BreakGuardSideEffectCache = Opts.BreakGuardCache;
  OO.Native = Opts.Native;
  OracleResult OR = runOracle(*C, OO);
  if (OR.Diverged) {
    std::fprintf(stderr, "flattenfuzz: %s diverged:\n%s",
                 C->Name.c_str(), OR.report().c_str());
    return 1;
  }
  const VariantOutcome &Ref = OR.reference();
  bool VerdictOk = true;
  switch (C->Expect) {
  case ExpectedVerdict::Any:
    break;
  case ExpectedVerdict::Complete:
    VerdictOk = !Ref.T;
    break;
  case ExpectedVerdict::Trap:
    VerdictOk = Ref.T && interp::trapKindName(Ref.T->Kind) ==
                             C->ExpectTrapKind;
    break;
  }
  if (!VerdictOk) {
    std::fprintf(stderr,
                 "flattenfuzz: %s verdict mismatch: expected %s, got "
                 "%s\n",
                 C->Name.c_str(),
                 C->Expect == ExpectedVerdict::Trap
                     ? ("trap " + C->ExpectTrapKind).c_str()
                     : "complete",
                 Ref.T ? Ref.T->render().c_str() : "complete");
    return 1;
  }
  std::printf("flattenfuzz: %s ok (%s)\n", C->Name.c_str(),
              Ref.T ? Ref.T->render().c_str() : "completed");
  return 0;
}

int runServe(const CliOptions &Opts) {
  ServeCampaignOptions SO;
  SO.BaseSeed = Opts.Seed;
  // --count sizes the mixed-traffic phase; the saturation,
  // poisoned-primary and eviction phases are fixed-shape.
  SO.Count = static_cast<int>(std::min<int64_t>(Opts.Count, 10'000));
  ServeCampaignResult SR = runServeCampaign(SO);
  for (const std::string &F : SR.Failures)
    std::fprintf(stderr, "flattenfuzz: %s\n", F.c_str());
  std::printf("flattenfuzz: serve campaign submitted %lld request(s): "
              "%lld served, %lld trapped, %lld shed, %lld compile "
              "error(s); %zu failure(s)\n",
              static_cast<long long>(SR.Submitted),
              static_cast<long long>(SR.Served),
              static_cast<long long>(SR.Trapped),
              static_cast<long long>(SR.Shed),
              static_cast<long long>(SR.CompileErrors),
              SR.Failures.size());
  return SR.ok() ? 0 : 1;
}

int runAdaptive(const CliOptions &Opts) {
  AdaptiveCampaignOptions AO;
  AO.BaseSeed = Opts.Seed;
  // --count sizes each drift regime; the chaos and fallback phases
  // scale with it or are fixed-shape.
  AO.Count = static_cast<int>(std::min<int64_t>(Opts.Count, 1'000));
  AdaptiveCampaignResult AR = runAdaptiveCampaign(AO);
  for (const std::string &F : AR.Failures)
    std::fprintf(stderr, "flattenfuzz: %s\n", F.c_str());
  std::string Strategies;
  for (const std::string &S : AR.StrategiesSeen)
    Strategies += (Strategies.empty() ? "" : ",") + S;
  std::printf("flattenfuzz: adaptive campaign submitted %lld "
              "request(s): %lld served, %lld trapped, %lld shed, %lld "
              "compile error(s); %lld decision(s), %lld "
              "respecialization(s), strategies [%s]; %zu failure(s)\n",
              static_cast<long long>(AR.Submitted),
              static_cast<long long>(AR.Served),
              static_cast<long long>(AR.Trapped),
              static_cast<long long>(AR.Shed),
              static_cast<long long>(AR.CompileErrors),
              static_cast<long long>(AR.Decisions),
              static_cast<long long>(AR.Respecializations),
              Strategies.c_str(), AR.Failures.size());
  return AR.ok() ? 0 : 1;
}

int runCampaign(const CliOptions &Opts) {
  CampaignOptions CO;
  CO.BaseSeed = Opts.Seed;
  CO.Count = static_cast<int>(Opts.Count);
  OracleOptions OO;
  OO.Native = Opts.Native;
  CampaignResult CR = runFaultCampaign(CO, OO);
  for (const std::string &F : CR.Failures)
    std::fprintf(stderr, "flattenfuzz: %s\n", F.c_str());
  std::printf("flattenfuzz: campaign ran %d fault cases (%d trapped), "
              "%zu failure(s)\n",
              CR.Ran, CR.Trapped, CR.Failures.size());
  return CR.ok() ? 0 : 1;
}

int runExport(const CliOptions &Opts) {
  FuzzCase C = generateCase(Opts.Seed);
  recordVerdict(C, runOracle(C));
  if (!writeCase(C, Opts.ExportPath)) {
    std::fprintf(stderr, "flattenfuzz: cannot write '%s'\n",
                 Opts.ExportPath.c_str());
    return 2;
  }
  std::printf("flattenfuzz: wrote %s (%s)\n", Opts.ExportPath.c_str(),
              C.Name.c_str());
  return 0;
}

int runFuzz(const CliOptions &Opts) {
  OracleOptions OO;
  OO.BreakGuardSideEffectCache = Opts.BreakGuardCache;
  OO.Native = Opts.Native;
  GeneratorOptions GO;
  // The seeded-bug demonstration needs the guard's side effect present,
  // or the broken cache is unobservable.
  GO.ForceGuardSideEffect = Opts.BreakGuardCache;

  auto Start = std::chrono::steady_clock::now();
  int64_t Ran = 0, Divergences = 0;
  for (int64_t I = 0; I < Opts.Count; ++I) {
    if (Opts.TimeBudgetSec > 0) {
      auto Elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
      if (Elapsed >= Opts.TimeBudgetSec)
        break;
    }
    uint64_t Seed = Opts.Seed + static_cast<uint64_t>(I);
    FuzzCase C = generateCase(Seed, GO);
    OracleResult OR = runOracle(C, OO);
    ++Ran;
    if (!OR.Diverged)
      continue;
    ++Divergences;
    std::fprintf(stderr, "flattenfuzz: seed %llu diverged:\n%s",
                 static_cast<unsigned long long>(Seed),
                 OR.report().c_str());
    ShrinkResult SR = shrinkCase(C, OO);
    recordVerdict(SR.Case, runOracle(SR.Case, OO));
    std::fprintf(stderr,
                 "flattenfuzz: shrunk to %zu statement(s) in %d "
                 "step(s):\n%s",
                 ir::countStmts(SR.Case.Prog.body()), SR.StepsTried,
                 ir::printProgram(SR.Case.Prog).c_str());
    if (!Opts.OutDir.empty()) {
      std::string Path = Opts.OutDir + "/" + SR.Case.Name + ".json";
      if (writeCase(SR.Case, Path))
        std::fprintf(stderr, "flattenfuzz: wrote %s\n", Path.c_str());
      else
        std::fprintf(stderr, "flattenfuzz: cannot write %s\n",
                     Path.c_str());
    }
  }
  std::printf("flattenfuzz: ran %lld case(s), %lld divergence(s)\n",
              static_cast<long long>(Ran),
              static_cast<long long>(Divergences));
  return Divergences == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 2;
  if (!Opts.ReplayPath.empty())
    return runReplay(Opts);
  if (Opts.Campaign == "serve")
    return runServe(Opts);
  if (Opts.Campaign == "adaptive")
    return runAdaptive(Opts);
  if (!Opts.Campaign.empty())
    return runCampaign(Opts);
  if (!Opts.ExportPath.empty())
    return runExport(Opts);
  return runFuzz(Opts);
}
