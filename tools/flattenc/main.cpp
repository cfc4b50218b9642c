//===- tools/flattenc/main.cpp - Source-to-source driver -------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// flattenc: the command-line face of the simdflat pipeline. Reads a
/// mini-Fortran program, recovers GOTO loops, optionally flattens the
/// parallel nest (Sec. 4) and SIMDizes it (Sec. 3), prints the result,
/// and can execute it on the SIMD machine simulator.
///
/// Examples:
///   flattenc example.f                      # flatten + SIMDize, print
///   flattenc --emit=flat example.f          # flattened F77 only
///   flattenc --level=general example.f      # force the Fig. 10 form
///   flattenc --run --lanes=4 --set K=8
///            --set-array L=4,1,2,1,1,3,1,3 example.f (one line)
///
/// Exit codes: 0 success, 1 front-end or pipeline error, 2 bad command
/// line, 3 runtime trap under --run, 4 internal error (the top-level
/// exception barrier fired).
///
//===----------------------------------------------------------------------===//

#include "analysis/LoopNests.h"
#include "analysis/Profitability.h"
#include "analysis/Safety.h"
#include "exec/Bytecode.h"
#include "exec/Lower.h"
#include "frontend/GotoRecovery.h"
#include "frontend/Parser.h"
#include "interp/SimdInterp.h"
#include "interp/StatsJson.h"
#include "ir/Printer.h"
#include "ir/Walk.h"
#include "support/CommandLine.h"
#include "support/Json.h"
#include "transform/Flatten.h"
#include "transform/Pipeline.h"
#include "transform/ReportJson.h"
#include "transform/Simdize.h"
#include "transform/Simplify.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace simdflat;

namespace {

struct CliOptions {
  std::string InputPath;
  std::string Emit = "simd"; // f77 | flat | simd
  std::string Layout = "cyclic";
  std::optional<transform::FlattenLevel> Level;
  bool AssumeMinOne = false;
  bool NoFlatten = false;
  std::optional<analysis::Strategy> Strategy;
  bool Adaptive = false;
  bool Analyze = false;
  bool Run = false;
  bool DumpBytecode = false;
  interp::Engine Eng = interp::Engine::Bytecode;
  bool TestThrow = false;
  int64_t Lanes = 4;
  int64_t Fuel = 0;
  std::string StatsJsonPath;
  std::vector<std::pair<std::string, int64_t>> Sets;
  std::vector<std::pair<std::string, std::vector<int64_t>>> SetArrays;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: flattenc [options] file.f\n"
      "  --emit=f77|flat|simd   output stage (default simd)\n"
      "  --level=general|optimized|done\n"
      "                         pin the flattening level (Figs. 10-12)\n"
      "  --assume-min-one       assert inner loops run at least once\n"
      "  --layout=cyclic|block  lane layout for the parallel loop\n"
      "  --no-flatten           SIMDize without flattening (Fig. 5 path)\n"
      "  --strategy=unflattened|flattened|coalesced\n"
      "                         build the nest under an explicit loop\n"
      "                         strategy (with --emit=simd)\n"
      "  --adaptive             two-pass profile-guided build (with\n"
      "                         --run): execute the unflattened variant\n"
      "                         on the given inputs to observe the trip\n"
      "                         distribution, let the Sec. 6 cost model\n"
      "                         pick the strategy, then build and run it\n"
      "  --analyze              print the loop-nest analysis and exit\n"
      "  --run                  execute on the SIMD simulator\n"
      "  --engine=tree|bytecode|native\n"
      "                         interpreter engine for --run (default\n"
      "                         bytecode; tree is the reference oracle,\n"
      "                         native JIT-compiles the schedule to\n"
      "                         host loops and falls back to bytecode\n"
      "                         without a toolchain)\n"
      "  --dump-bytecode        disassemble the lowered bytecode of the\n"
      "                         emitted program to stdout (with\n"
      "                         --emit=simd)\n"
      "  --lanes=N              simulator lanes (with --run, N >= 1)\n"
      "  --fuel=N               watchdog: trap after N instructions\n"
      "                         (with --run; 0 = unlimited)\n"
      "  --stats-json=PATH      dump pipeline stage outcomes (and, with\n"
      "                         --run, interpreter RunStats) as JSON\n"
      "  --set NAME=V           set an integer input (with --run)\n"
      "  --set-array NAME=a,b,c set an integer array input (with --run)\n"
      "exit codes: 0 success, 1 front-end/pipeline error, 2 bad command\n"
      "line, 3 runtime trap, 4 internal error\n");
}

[[nodiscard]] bool cliError(const char *Fmt, const std::string &Arg) {
  std::fprintf(stderr, Fmt, Arg.c_str());
  std::fprintf(stderr, "\n");
  usage();
  return false;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string V;
    if (flagValue(A, "--emit", V)) {
      if (V != "f77" && V != "flat" && V != "simd")
        return cliError("flattenc: --emit expects f77|flat|simd, got '%s'",
                        A);
      Opts.Emit = V;
    } else if (flagValue(A, "--level", V)) {
      if (V == "general")
        Opts.Level = transform::FlattenLevel::General;
      else if (V == "optimized")
        Opts.Level = transform::FlattenLevel::Optimized;
      else if (V == "done")
        Opts.Level = transform::FlattenLevel::DoneTest;
      else
        return cliError("flattenc: unknown level '%s'", V);
    } else if (A == "--assume-min-one") {
      Opts.AssumeMinOne = true;
    } else if (flagValue(A, "--layout", V)) {
      if (V != "cyclic" && V != "block")
        return cliError("flattenc: --layout expects cyclic|block, got '%s'",
                        A);
      Opts.Layout = V;
    } else if (A == "--no-flatten") {
      Opts.NoFlatten = true;
    } else if (flagValue(A, "--strategy", V)) {
      analysis::Strategy St;
      if (!analysis::strategyFromName(V, St))
        return cliError("flattenc: --strategy expects unflattened|"
                        "flattened|coalesced, got '%s'",
                        A);
      Opts.Strategy = St;
    } else if (A == "--adaptive") {
      Opts.Adaptive = true;
    } else if (A == "--analyze") {
      Opts.Analyze = true;
    } else if (A == "--run") {
      Opts.Run = true;
    } else if (A == "--dump-bytecode") {
      Opts.DumpBytecode = true;
    } else if (flagValue(A, "--engine", V)) {
      if (!interp::engineFromName(V, Opts.Eng))
        return cliError("flattenc: --engine expects "
                        "tree|bytecode|native, got '%s'",
                        A);
    } else if (flagValue(A, "--lanes", V)) {
      if (!parseInt(V, Opts.Lanes) || Opts.Lanes <= 0)
        return cliError("flattenc: --lanes expects a positive integer, "
                        "got '%s'",
                        A);
    } else if (flagValue(A, "--fuel", V)) {
      if (!parseInt(V, Opts.Fuel) || Opts.Fuel < 0)
        return cliError("flattenc: --fuel expects a non-negative integer, "
                        "got '%s'",
                        A);
    } else if (flagValue(A, "--stats-json", V)) {
      if (V.empty())
        return cliError("flattenc: --stats-json expects a non-empty "
                        "path, got '%s'",
                        A);
      Opts.StatsJsonPath = V;
    } else if (A == "--set") {
      if (I + 1 >= Argc)
        return cliError("flattenc: %s expects a NAME=VALUE argument", A);
      std::string KV = Argv[++I];
      size_t Eq = KV.find('=');
      int64_t Val = 0;
      if (Eq == std::string::npos || Eq == 0 ||
          !parseInt(KV.substr(Eq + 1), Val))
        return cliError("flattenc: --set expects NAME=VALUE, got '%s'",
                        KV);
      Opts.Sets.emplace_back(KV.substr(0, Eq), Val);
    } else if (A == "--set-array") {
      if (I + 1 >= Argc)
        return cliError("flattenc: %s expects a NAME=a,b,c argument", A);
      std::string KV = Argv[++I];
      size_t Eq = KV.find('=');
      if (Eq == std::string::npos || Eq == 0)
        return cliError("flattenc: --set-array expects NAME=a,b,c, "
                        "got '%s'",
                        KV);
      std::vector<int64_t> Vals;
      std::stringstream SS(KV.substr(Eq + 1));
      std::string Item;
      while (std::getline(SS, Item, ',')) {
        int64_t Val = 0;
        if (!parseInt(Item, Val))
          return cliError("flattenc: bad integer in --set-array '%s'",
                          KV);
        Vals.push_back(Val);
      }
      if (Vals.empty())
        return cliError("flattenc: --set-array expects at least one "
                        "value, got '%s'",
                        KV);
      Opts.SetArrays.emplace_back(KV.substr(0, Eq), std::move(Vals));
    } else if (A == "--test-throw") {
      // Undocumented: fires the exception barrier so the CLI test can
      // assert the structured-diagnostic + exit-4 contract.
      Opts.TestThrow = true;
    } else if (A == "--help" || A == "-h") {
      usage();
      return false;
    } else if (!A.empty() && A[0] == '-') {
      return cliError("flattenc: unknown option '%s'", A);
    } else if (!Opts.InputPath.empty()) {
      return cliError("flattenc: more than one input file ('%s')", A);
    } else {
      Opts.InputPath = A;
    }
  }
  if (Opts.InputPath.empty()) {
    usage();
    return false;
  }
  if (Opts.Adaptive && Opts.Strategy) {
    std::fprintf(stderr, "flattenc: --adaptive picks the strategy itself; "
                         "drop --strategy\n");
    usage();
    return false;
  }
  if (Opts.Adaptive && !Opts.Run) {
    std::fprintf(stderr, "flattenc: --adaptive profiles a real execution; "
                         "it requires --run\n");
    usage();
    return false;
  }
  if (Opts.DumpBytecode && Opts.Emit != "simd") {
    std::fprintf(stderr, "flattenc: --dump-bytecode requires --emit=simd "
                         "(only the SIMD machine has a bytecode)\n");
    usage();
    return false;
  }
  if ((Opts.Adaptive || Opts.Strategy) &&
      (Opts.Emit != "simd" || Opts.NoFlatten)) {
    std::fprintf(stderr, "flattenc: --strategy/--adaptive drive the full "
                         "SIMD pipeline; they need --emit=simd and no "
                         "--no-flatten\n");
    usage();
    return false;
  }
  return true;
}

/// Checks a --set / --set-array name against the program's declarations
/// so a typo is a clean diagnostic, not an interpreter fault.
bool checkSetName(const ir::Program &P, const std::string &Name,
                  bool WantArray) {
  const ir::VarDecl *D = P.lookupVar(Name);
  if (!D) {
    std::fprintf(stderr, "flattenc: --set%s names undeclared variable "
                         "'%s'\n",
                 WantArray ? "-array" : "", Name.c_str());
    return false;
  }
  if (D->Kind != ir::ScalarKind::Int) {
    std::fprintf(stderr, "flattenc: '%s' is not an integer variable\n",
                 Name.c_str());
    return false;
  }
  if (D->isArray() != WantArray) {
    std::fprintf(stderr, "flattenc: '%s' is %s; use %s\n", Name.c_str(),
                 D->isArray() ? "an array" : "a scalar",
                 D->isArray() ? "--set-array" : "--set");
    return false;
  }
  return true;
}

/// Maps a cost-model verdict onto the pipeline policy that builds it.
/// Coalesced builds get the default static inspector bounds; the
/// profiling pass already rejected distributions that exceed them.
transform::StrategyPolicy policyFor(analysis::Strategy S) {
  switch (S) {
  case analysis::Strategy::Unflattened:
    return transform::StrategyPolicy::unflattened();
  case analysis::Strategy::Flattened:
    return transform::StrategyPolicy::flattened();
  case analysis::Strategy::Coalesced:
    return transform::StrategyPolicy::coalesced();
  }
  return transform::StrategyPolicy::flattened();
}

} // namespace

int realMain(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 2;
  if (Opts.TestThrow)
    throw std::runtime_error("--test-throw requested");

  std::ifstream In(Opts.InputPath);
  if (!In) {
    std::fprintf(stderr, "flattenc: cannot open '%s'\n",
                 Opts.InputPath.c_str());
    return 2;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();

  frontend::ParseResult PR = frontend::parseProgram(Buf.str());
  if (!PR.Diags.empty())
    std::fprintf(stderr, "%s", PR.Diags.renderAll().c_str());
  if (!PR.ok())
    return 1;
  ir::Program P = std::move(*PR.Prog);

  int Recovered = frontend::recoverGotoLoops(P);
  if (Recovered > 0)
    std::fprintf(stderr, "flattenc: recovered %d GOTO loop(s)\n",
                 Recovered);

  machine::Layout Layout = Opts.Layout == "block"
                               ? machine::Layout::Block
                               : machine::Layout::Cyclic;

  // Telemetry accumulated along whichever path runs; flushed by
  // writeStats() at the successful exits.
  std::optional<transform::PipelineReport> PipelineRep;
  std::optional<interp::RunStats> RunStats;
  // Engine that actually ran, not the one requested: a native request
  // without a toolchain degrades to bytecode, and telemetry must say so.
  std::optional<interp::Engine> EngineRan;
  std::optional<json::Value> AdaptiveJson;
  auto writeStats = [&]() -> bool {
    if (Opts.StatsJsonPath.empty())
      return true;
    json::Value Doc = json::Value::object();
    Doc.set("schema", "simdflat-stats-v1");
    Doc.set("input", Opts.InputPath);
    Doc.set("goto_loops_recovered", static_cast<int64_t>(Recovered));
    if (PipelineRep)
      Doc.set("pipeline", transform::toJson(*PipelineRep));
    if (AdaptiveJson)
      Doc.set("adaptive", *AdaptiveJson);
    if (RunStats) {
      interp::Engine Eng = EngineRan.value_or(Opts.Eng);
      Doc.set("engine", interp::engineName(Eng));
      Doc.set("run_stats", interp::toJson(*RunStats, Eng));
    }
    if (!json::writeFile(Opts.StatsJsonPath, Doc)) {
      std::fprintf(stderr, "flattenc: cannot write '%s'\n",
                   Opts.StatsJsonPath.c_str());
      return false;
    }
    return true;
  };

  if (Opts.Analyze) {
    std::printf("loop nests:\n%s",
                analysis::renderLoopNests(
                    analysis::findLoopNests(P))
                    .c_str());
    // Safety verdict for every parallel-marked loop.
    for (const analysis::LoopNestNode &N : analysis::findLoopNests(P)) {
      if (!N.Parallel)
        continue;
      const auto *D = cast<ir::DoStmt>(N.Loop);
      analysis::SafetyResult SR = analysis::checkParallelizable(*D, P);
      std::printf("DOALL %s: %s%s\n", N.IndexVar.c_str(),
                  SR.Parallelizable ? "provably parallelizable"
                                    : "not provable: ",
                  SR.Parallelizable ? "" : SR.Reason.c_str());
    }
    // What would flattening do?
    ir::Program Copy = ir::cloneProgram(P);
    transform::FlattenOptions FOpts;
    FOpts.AssumeInnerMinOneTrip = Opts.AssumeMinOne;
    transform::FlattenResult FR = transform::flattenNest(Copy, FOpts);
    if (FR.Changed)
      std::printf("flattening: applicable at the %s level\n",
                  transform::flattenLevelName(FR.Applied));
    else
      std::printf("flattening: not applicable: %s\n", FR.Reason.c_str());
    // Dry-run the full pipeline and report each stage's verification.
    transform::PipelineOptions PO;
    PO.Layout = Layout;
    PO.Flatten = !Opts.NoFlatten;
    PO.AssumeInnerMinOneTrip = Opts.AssumeMinOne;
    transform::PipelineReport Rep;
    auto Compiled = transform::compileForSimd(P, PO, &Rep);
    std::printf("pipeline stages:\n");
    for (const transform::StageOutcome &S : Rep.Stages) {
      std::printf("  %-13s %s", S.Stage.c_str(),
                  !S.Ran ? "skipped"
                         : S.Verified ? "verified" : "FAILED verify");
      if (!S.Note.empty())
        std::printf(" (%s)", S.Note.c_str());
      std::printf("\n");
    }
    PipelineRep = Rep;
    if (!Compiled) {
      std::printf("pipeline: %s\n", Compiled.error().render().c_str());
      (void)writeStats();
      return 1;
    }
    return writeStats() ? 0 : 2;
  }

  // --adaptive pass 1: build and run the *unflattened* variant on the
  // provided inputs. Its inner serial loop records one trip sample per
  // source row -- exactly the distribution the Sec. 6 cost model
  // consumes (a transformed variant would report its own schedule and
  // hide the source skew). The verdict then drives the real build.
  if (Opts.Adaptive) {
    transform::PipelineOptions PPO;
    PPO.Layout = Layout;
    PPO.AssumeInnerMinOneTrip = Opts.AssumeMinOne;
    PPO.Strategy = transform::StrategyPolicy::unflattened();
    auto Profiled = transform::compileForSimd(P, PPO, nullptr);
    if (!Profiled) {
      std::fprintf(stderr, "flattenc: %s\n",
                   Profiled.error().render().c_str());
      return 1;
    }
    for (const auto &[Name, V] : Opts.Sets)
      if (!checkSetName(*Profiled, Name, /*WantArray=*/false))
        return 2;
    for (const auto &[Name, Vals] : Opts.SetArrays) {
      if (!checkSetName(*Profiled, Name, /*WantArray=*/true))
        return 2;
      int64_t Want = Profiled->lookupVar(Name)->numElements();
      if (static_cast<int64_t>(Vals.size()) != Want) {
        std::fprintf(stderr,
                     "flattenc: --set-array '%s' expects %lld value(s), "
                     "got %zu\n",
                     Name.c_str(), static_cast<long long>(Want),
                     Vals.size());
        return 2;
      }
    }
    machine::MachineConfig PM;
    PM.Name = "flattenc-profile";
    PM.Processors = Opts.Lanes;
    PM.Gran = Opts.Lanes;
    PM.DataLayout = Layout;
    interp::RunOptions PRO;
    PRO.Fuel = Opts.Fuel;
    // The tree engine records no trip nests; profile on bytecode
    // regardless of which engine --engine picked for the real run.
    PRO.Eng = interp::Engine::Bytecode;
    interp::SimdInterp Profiler(*Profiled, PM, nullptr, PRO);
    for (const auto &[Name, V] : Opts.Sets)
      Profiler.store().setInt(Name, V);
    for (const auto &[Name, Vals] : Opts.SetArrays)
      Profiler.store().setIntArray(Name, Vals);
    interp::RunOutcome<interp::SimdRunResult> POut = Profiler.run();
    if (!POut) {
      std::fprintf(stderr, "flattenc: profiling run: %s\n",
                   POut.error().render().c_str());
      return 3;
    }
    const interp::NestTripStats *Dom =
        analysis::dominantTripNest(POut->Stats.TripNests);
    analysis::StrategyCosts Costs;
    Costs.CoalesceMaxOuter = transform::DefaultCoalesceMaxOuter;
    Costs.CoalesceMaxTotal = transform::DefaultCoalesceMaxTotal;
    analysis::StrategyChoice C;
    if (Dom)
      C = analysis::chooseStrategy(
          analysis::TripDistribution(Dom->Hist), Opts.Lanes, Layout,
          Costs);
    std::fprintf(stderr,
                 "flattenc: adaptive profile chose %s "
                 "(confidence %.2f, %lld trip sample(s))\n",
                 analysis::strategyName(C.Primary), C.Confidence,
                 static_cast<long long>(Dom ? Dom->Hist.Samples : 0));
    Opts.Strategy = C.Primary;
    json::Value AJ = json::Value::object();
    AJ.set("chosen", analysis::strategyName(C.Primary));
    AJ.set("confidence", C.Confidence);
    AJ.set("profiled_samples",
           Dom ? Dom->Hist.Samples : static_cast<int64_t>(0));
    json::Value Scores = json::Value::object();
    for (analysis::Strategy S :
         {analysis::Strategy::Unflattened, analysis::Strategy::Flattened,
          analysis::Strategy::Coalesced})
      Scores.set(analysis::strategyName(S), C.scoreOf(S));
    AJ.set("scores", std::move(Scores));
    AdaptiveJson = std::move(AJ);
  }

  if (Opts.Emit == "flat" && !Opts.NoFlatten) {
    transform::FlattenOptions FOpts;
    FOpts.Force = Opts.Level;
    FOpts.AssumeInnerMinOneTrip = Opts.AssumeMinOne;
    transform::FlattenResult FR = transform::flattenNest(P, FOpts);
    if (!FR.Changed) {
      std::fprintf(stderr, "flattenc: not flattened: %s\n",
                   FR.Reason.c_str());
      if (Opts.Level)
        return 1;
    } else {
      std::fprintf(stderr, "flattenc: flattened at the %s level\n",
                   transform::flattenLevelName(FR.Applied));
    }
    transform::simplifyProgram(P);
  } else if (Opts.Emit == "simd") {
    transform::PipelineOptions PO;
    PO.Layout = Layout;
    PO.Flatten = !Opts.NoFlatten;
    PO.ForceLevel = Opts.Level;
    PO.AssumeInnerMinOneTrip = Opts.AssumeMinOne;
    if (Opts.Strategy)
      PO.Strategy = policyFor(*Opts.Strategy);
    transform::PipelineReport Rep;
    auto Compiled = transform::compileForSimd(P, PO, &Rep);
    std::fputs(("flattenc: " + Rep.summary()).c_str(), stderr);
    if (Opts.Strategy)
      std::fprintf(stderr, "flattenc: strategy: %s\n",
                   analysis::strategyName(Rep.StrategyApplied));
    PipelineRep = Rep;
    if (!Compiled) {
      std::fprintf(stderr, "flattenc: %s\n",
                   Compiled.error().render().c_str());
      (void)writeStats();
      return 1;
    }
    P = std::move(*Compiled);
    if (Opts.Level && !Rep.Flattened) {
      (void)writeStats();
      return 1;
    }
  }

  std::fputs(ir::printProgram(P).c_str(), stdout);

  if (Opts.DumpBytecode)
    std::fputs(exec::disassemble(exec::lower(P, exec::Mode::Simd)).c_str(),
               stdout);

  if (!Opts.Run)
    return writeStats() ? 0 : 2;
  if (P.dialect() != ir::Dialect::F90Simd) {
    std::fprintf(stderr,
                 "flattenc: --run requires --emit=simd (the simulator "
                 "executes the F90simd dialect)\n");
    return 2;
  }
  for (const auto &[Name, V] : Opts.Sets)
    if (!checkSetName(P, Name, /*WantArray=*/false))
      return 2;
  for (const auto &[Name, Vals] : Opts.SetArrays) {
    if (!checkSetName(P, Name, /*WantArray=*/true))
      return 2;
    int64_t Want = P.lookupVar(Name)->numElements();
    if (static_cast<int64_t>(Vals.size()) != Want) {
      std::fprintf(stderr,
                   "flattenc: --set-array '%s' expects %lld value(s), "
                   "got %zu\n",
                   Name.c_str(), static_cast<long long>(Want),
                   Vals.size());
      return 2;
    }
  }
  machine::MachineConfig M;
  M.Name = "flattenc-sim";
  M.Processors = Opts.Lanes;
  M.Gran = Opts.Lanes;
  M.DataLayout = Layout;
  interp::RunOptions ROpts;
  ROpts.Fuel = Opts.Fuel;
  ROpts.Eng = Opts.Eng;
  interp::SimdInterp Interp(P, M, nullptr, ROpts);
  for (const auto &[Name, V] : Opts.Sets)
    Interp.store().setInt(Name, V);
  for (const auto &[Name, Vals] : Opts.SetArrays)
    Interp.store().setIntArray(Name, Vals);
  interp::RunOutcome<interp::SimdRunResult> Out = Interp.run();
  if (!Out) {
    std::fprintf(stderr, "flattenc: %s\n", Out.error().render().c_str());
    (void)writeStats();
    return 3;
  }
  const interp::SimdRunResult &R = *Out;
  RunStats = R.Stats;
  EngineRan = R.EngineUsed;
  std::fprintf(stderr,
               "flattenc: executed on %lld lanes: %lld instructions, "
               "%.1f cycles, comm accesses %lld\n",
               static_cast<long long>(Opts.Lanes),
               static_cast<long long>(R.Stats.Instructions),
               R.Stats.Cycles,
               static_cast<long long>(R.Stats.CommAccesses));
  // Print distributed integer arrays so results are inspectable.
  for (const ir::VarDecl &V : P.vars()) {
    if (!V.isArray() || V.Kind != ir::ScalarKind::Int ||
        V.numElements() > 64)
      continue;
    std::fprintf(stderr, "  %s =", V.Name.c_str());
    for (int64_t X : Interp.store().getIntArray(V.Name))
      std::fprintf(stderr, " %lld", static_cast<long long>(X));
    std::fprintf(stderr, "\n");
  }
  return writeStats() ? 0 : 2;
}

int main(int Argc, char **Argv) {
  // Top-level exception barrier: an escaped exception (std::bad_alloc
  // on a hostile input, a container throw from a bug) is a structured
  // one-line diagnostic and a distinct exit code, never std::terminate.
  try {
    return realMain(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "flattenc: internal error: %s\n", E.what());
    return 4;
  } catch (...) {
    std::fprintf(stderr, "flattenc: internal error: unknown exception\n");
    return 4;
  }
}
