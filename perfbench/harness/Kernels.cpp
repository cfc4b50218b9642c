//===- perfbench/harness/Kernels.cpp - The kernels workload -----*- C++ -*-===//
//
// Part of simdflat's wall-clock benchmark. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compile-once/run-many on the paper's evaluation kernels (nbforce,
/// mandelbrot, spmv, region_grow). Set-up pays the cold path for every
/// kernel - pipeline, lowering, C++ emission, host compile, dlopen -
/// into a fresh private JIT directory, three times (twice in forked
/// children so each one starts with an empty in-memory JIT cache too)
/// and reports the median. The measured phase is one thread that
/// alternates a bytecode run, a native run and, where one exists, the
/// hand-written floor of each kernel. Every run is checked against a
/// C++ oracle, and bytecode and native must agree bit for bit on the
/// store and on RunStats. Only the program's runs count as operations
/// and toward cpu_us_per_req; a floor is the benchmark's own code, timed
/// alone and checked outside its timed interval.
///
/// The kernels enter as the IR the workloads library builds: the
/// printer renders reals with %g, so a source round trip would change
/// Mandelbrot's constants. frontend therefore reads 0 here.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Floors.h"

#include "codegen/CppEmitter.h"
#include "codegen/JitCache.h"
#include "exec/Bytecode.h"
#include "exec/Lower.h"
#include "interp/SimdInterp.h"
#include "md/NBForce.h"
#include "transform/Pipeline.h"
#include "workloads/Mandelbrot.h"
#include "workloads/RegionGrow.h"
#include "workloads/SpMV.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <type_traits>

#include <sys/wait.h>
#include <unistd.h>

using namespace simdflat;

namespace perfbench {
namespace {

/// Cold set-ups per run; setup_s is their median.
constexpr int SetupReps = 3;
/// Untimed rounds before the measured phase (fill the native memo,
/// fault in pages).
constexpr int WarmupRounds = 2;

struct Kernel {
  std::string Name;
  ir::Program IR{""};
  transform::PipelineOptions PO;
  machine::MachineConfig Machine;
  interp::ExternRegistry Externs;
  bool UsesExterns = false;
  std::vector<std::string> WorkTargets, WorkCalls;
  std::function<void(interp::DataStore &)> Seed;
  /// Checks a finished store against the C++ oracle; "" when right.
  std::function<std::string(const interp::DataStore &)> Check;
  /// Runs the hand-written floor into an output buffer it keeps (so a
  /// timed call allocates nothing), and checks that buffer against the
  /// oracle; both empty when no floor exists.
  std::function<void()> FloorRun;
  std::function<std::string()> FloorCheck;

  transform::CompiledSimdProgram Compiled{ir::Program(""), nullptr};
};

/// The cold path of one kernel, stage by stage, in seconds.
struct StageTimes {
  double Pipeline = 0, Lower = 0, Emit = 0, HostCompile = 0;
  int64_t EmitBytes = 0, BytecodeInstrs = 0;
  double total() const { return Pipeline + Lower + Emit + HostCompile; }
};

/// One cold set-up of every kernel, as shipped from a child.
struct SetupRecord {
  double WallS = 0;
  StageTimes Stages[NumKernels];
  int64_t JitCompiles = 0, JitDiskHits = 0, JitFailures = 0;
  char Error[256] = {0};
};

machine::MachineConfig machineOf(int64_t Lanes) {
  machine::MachineConfig M;
  M.Name = "perfbench";
  M.Processors = Lanes;
  M.Gran = Lanes;
  M.DataLayout = machine::Layout::Cyclic;
  return M;
}

std::string mismatch(const std::string &What, int64_t Idx) {
  return What + " differs from the oracle at element " + std::to_string(Idx);
}

/// Builds the four kernels and their oracles from \p Seed. Sizes are
/// chosen so one bytecode run takes a few milliseconds. The seed draws
/// input contents (atom charges, the SpMV vector, Mandelbrot's
/// viewport offset); shapes that set the amount of work - the molecule's
/// geometry, the matrix's row lengths, the region sizes - are fixed, so
/// every seed costs the same.
std::vector<std::unique_ptr<Kernel>> makeKernels(uint64_t Seed) {
  std::vector<std::unique_ptr<Kernel>> Ks;
  std::mt19937_64 Rng(Seed);
  auto Jitter = [&](double Scale) {
    return Scale * (static_cast<double>(Rng() % 2001) / 1000.0 - 1.0);
  };
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;

  {
    // Sec. 5: nonbonded forces of a synthetic SOD fragment through the
    // Force extern.
    auto K = std::make_unique<Kernel>();
    K->Name = "nbforce";
    md::SodParams SP;
    SP.NumAtoms = 640;
    std::vector<md::Atom> Atoms = md::Molecule::syntheticSOD(SP).atoms();
    for (md::Atom &A : Atoms)
      A.Charge *= 1.0 + Jitter(0.1);
    auto Mol = std::make_shared<md::Molecule>(std::move(Atoms));
    auto PL = std::make_shared<md::PairList>(md::buildPairList(*Mol, 8.0));
    PL->ensureMinOnePartner();
    int64_t NMax = Mol->size(), MaxP = PL->maxPCnt();
    K->IR = md::nbforceF77(NMax, MaxP);
    K->PO = PO;
    K->Machine = machineOf(FloorLanes);
    md::bindForceExterns(K->Externs, *Mol, /*ForceCost=*/1.0,
                         /*LayerCheckCost=*/0.0);
    K->UsesExterns = true;
    K->WorkCalls = {"Force"};
    auto PCnt = std::make_shared<std::vector<int64_t>>(PL->paddedPCnt(NMax));
    auto Partners = std::make_shared<std::vector<int64_t>>(
        PL->rectangularPartners(NMax, MaxP));
    K->Seed = [PCnt, Partners, NMax](interp::DataStore &S) {
      S.setInt("nAtoms", NMax);
      S.setIntArray("pCnt", *PCnt);
      S.setIntArray("partners", *Partners);
    };
    auto Want = std::make_shared<std::vector<double>>(NMax, 0.0);
    for (int64_t I = 0; I < NMax; ++I)
      for (int64_t P = 1; P <= PL->PCnt[static_cast<size_t>(I)]; ++P)
        (*Want)[static_cast<size_t>(I)] +=
            md::pairForce(*Mol, I + 1, PL->partner(I, P));
    auto Close = [](double A, double B) {
      return std::abs(A - B) <= 1e-9 * std::max(1.0, std::abs(B));
    };
    K->Check = [Want, Close](const interp::DataStore &S) -> std::string {
      std::vector<double> F = S.getRealArray("F");
      for (size_t I = 0; I < Want->size(); ++I)
        if (!Close(F[I], (*Want)[I]))
          return mismatch("nbforce F", static_cast<int64_t>(I));
      return "";
    };
    auto FloorF = std::make_shared<std::vector<double>>();
    K->FloorRun = [Mol, PL, FloorF] { nbforceFloor(*Mol, *PL, *FloorF); };
    K->FloorCheck = [FloorF, Want, Close]() -> std::string {
      for (size_t I = 0; I < Want->size(); ++I)
        if (!Close((*FloorF)[I], (*Want)[I]))
          return mismatch("nbforce floor F", static_cast<int64_t>(I));
      return "";
    };
    Ks.push_back(std::move(K));
  }
  {
    // Divergent escape loop: trip counts vary wildly across lanes.
    auto K = std::make_unique<Kernel>();
    K->Name = "mandelbrot";
    workloads::MandelbrotSpec Spec;
    Spec.Width = 40;
    Spec.Height = 30;
    Spec.MaxIter = 64;
    double DX = Jitter(0.005), DY = Jitter(0.005);
    Spec.XMin += DX;
    Spec.XMax += DX;
    Spec.YMin += DY;
    Spec.YMax += DY;
    K->IR = workloads::mandelbrotF77(Spec);
    K->PO = PO;
    K->Machine = machineOf(FloorLanes);
    K->WorkTargets = {"tmp"};
    int64_t MaxIter = Spec.MaxIter;
    K->Seed = [MaxIter](interp::DataStore &S) { S.setInt("maxIter", MaxIter); };
    auto Want = std::make_shared<std::vector<int64_t>>(
        workloads::mandelbrotIterations(Spec));
    K->Check = [Want](const interp::DataStore &S) -> std::string {
      std::vector<int64_t> It = S.getIntArray("IT");
      for (size_t I = 0; I < Want->size(); ++I)
        if (It[I] != (*Want)[I])
          return mismatch("mandelbrot IT", static_cast<int64_t>(I));
      return "";
    };
    auto FloorIt = std::make_shared<std::vector<int64_t>>();
    K->FloorRun = [Spec, FloorIt] { mandelbrotFloor(Spec, *FloorIt); };
    K->FloorCheck = [FloorIt, Want]() -> std::string {
      for (size_t I = 0; I < Want->size(); ++I)
        if ((*FloorIt)[I] != (*Want)[I])
          return mismatch("mandelbrot floor IT", static_cast<int64_t>(I));
      return "";
    };
    Ks.push_back(std::move(K));
  }
  {
    // Power-law CSR rows: gather-bound, data-dependent row lengths.
    auto K = std::make_unique<Kernel>();
    K->Name = "spmv";
    workloads::SpMVSpec Spec;
    Spec.Rows = Spec.Cols = 1024;
    Spec.MeanRowNnz = 8;
    auto M = std::make_shared<workloads::CsrMatrix>(
        workloads::makeSparseMatrix(Spec));
    auto X = std::make_shared<std::vector<double>>(M->Cols);
    for (double &V : *X)
      V = static_cast<double>(static_cast<int64_t>(Rng() % 64) - 32) / 16.0;
    K->IR = workloads::spmvF77(M->Rows, M->nnz());
    K->PO = PO;
    K->Machine = machineOf(FloorLanes);
    K->WorkTargets = {"y"};
    K->Seed = [M, X](interp::DataStore &S) {
      S.setInt("nRows", M->Rows);
      S.setIntArray("rowPtr", M->RowPtr);
      S.setIntArray("col", M->Col);
      S.setRealArray("val", M->Val);
      S.setRealArray("x", *X);
    };
    auto Want = std::make_shared<std::vector<double>>(M->multiply(*X));
    K->Check = [Want](const interp::DataStore &S) -> std::string {
      std::vector<double> Y = S.getRealArray("y");
      for (size_t I = 0; I < Want->size(); ++I)
        if (std::abs(Y[I] - (*Want)[I]) > 1e-9)
          return mismatch("spmv y", static_cast<int64_t>(I));
      return "";
    };
    auto FloorY = std::make_shared<std::vector<double>>();
    K->FloorRun = [M, X, FloorY] { spmvFloor(*M, *X, *FloorY); };
    K->FloorCheck = [FloorY, Want]() -> std::string {
      for (size_t I = 0; I < Want->size(); ++I)
        if (std::abs((*FloorY)[I] - (*Want)[I]) > 1e-9)
          return mismatch("spmv floor y", static_cast<int64_t>(I));
      return "";
    };
    Ks.push_back(std::move(K));
  }
  {
    // Region growing: trip counts are the grown regions' sizes.
    auto K = std::make_unique<Kernel>();
    K->Name = "region_grow";
    workloads::RegionGrowSpec Spec;
    Spec.Width = Spec.Height = 128;
    Spec.NumRegions = 512;
    auto Sizes = std::make_shared<std::vector<int64_t>>(
        workloads::regionSizes(Spec));
    int64_t MaxSize = *std::max_element(Sizes->begin(), Sizes->end());
    K->IR = workloads::regionGrowF77(Spec.NumRegions, MaxSize);
    K->PO = PO;
    K->Machine = machineOf(FloorLanes);
    K->WorkTargets = {"GROWN"};
    int64_t N = Spec.NumRegions;
    K->Seed = [Sizes, N](interp::DataStore &S) {
      S.setInt("nRegions", N);
      S.setIntArray("SIZE", *Sizes);
    };
    K->Check = [Sizes](const interp::DataStore &S) -> std::string {
      std::vector<int64_t> G = S.getIntArray("GROWN");
      for (size_t I = 0; I < Sizes->size(); ++I) {
        int64_t Z = (*Sizes)[I];
        if (G[I] != Z * (Z + 1) / 2)
          return mismatch("region_grow GROWN", static_cast<int64_t>(I));
      }
      return "";
    };
    Ks.push_back(std::move(K));
  }
  return Ks;
}

double secondsSince(int64_t T0) {
  return static_cast<double>(nowNs() - T0) * 1e-9;
}

/// The cold path of \p K: pipeline, lowering, emission, host compile
/// and dlopen. Fills K.Compiled; returns "" or what went wrong.
std::string coldCompile(Kernel &K, StageTimes &T) {
  Span Whole("kernels.cold_compile");
  int64_t T0 = nowNs();
  Expected<ir::Program, transform::PipelineError> Simd = [&] {
    Span S("transform.pipeline");
    return transform::compileForSimd(K.IR, K.PO);
  }();
  T.Pipeline = secondsSince(T0);
  if (!Simd)
    return K.Name + ": pipeline failed: " + Simd.error().render();

  T0 = nowNs();
  std::shared_ptr<const exec::Program> Code = [&] {
    Span S("exec.lower");
    return std::make_shared<const exec::Program>(
        exec::lower(*Simd, exec::Mode::Simd));
  }();
  T.Lower = secondsSince(T0);
  T.BytecodeInstrs = static_cast<int64_t>(Code->Code.size());

  T0 = nowNs();
  std::string Source = [&] {
    Span S("codegen.emit");
    return codegen::emitCpp(*Code, *Simd, K.Machine);
  }();
  T.Emit = secondsSince(T0);
  T.EmitBytes = static_cast<int64_t>(Source.size());
  if (Source.empty())
    return K.Name + ": the emitter declined the kernel";

  T0 = nowNs();
  codegen::SfNativeRunFn Fn = [&] {
    Span S("codegen.host_compile");
    return codegen::getOrCompile(Source);
  }();
  T.HostCompile = secondsSince(T0);
  if (!Fn)
    return K.Name + ": host compile or dlopen failed";

  K.Compiled = transform::CompiledSimdProgram{std::move(*Simd), std::move(Code)};
  return "";
}

/// One cold set-up of every kernel in this process.
SetupRecord setupAll(std::vector<std::unique_ptr<Kernel>> &Ks) {
  SetupRecord R;
  int64_t T0 = nowNs();
  for (size_t I = 0; I < Ks.size(); ++I) {
    std::string Err = coldCompile(*Ks[I], R.Stages[I]);
    if (!Err.empty()) {
      std::snprintf(R.Error, sizeof(R.Error), "%s", Err.c_str());
      break;
    }
  }
  R.WallS = secondsSince(T0);
  codegen::JitStats JS = codegen::jitStats();
  R.JitCompiles = JS.Compiles;
  R.JitDiskHits = JS.DiskHits;
  R.JitFailures = JS.Failures;
  return R;
}

/// A cold set-up in a forked child with its own private JIT directory:
/// the child's in-memory JIT cache is as empty as its artifact store.
bool setupInChild(std::vector<std::unique_ptr<Kernel>> &Ks,
                  const Options &O, SetupRecord &Out) {
  PrivateJitDir Dir(O.OutDir);
  if (!Dir.ok())
    return false;
  int Fds[2];
  if (::pipe(Fds) != 0)
    return false;
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    return false;
  }
  if (Pid == 0) {
    ::close(Fds[0]);
    SetupRecord R = setupAll(Ks);
    const char *P = reinterpret_cast<const char *>(&R);
    size_t Left = sizeof(R);
    while (Left > 0) {
      ssize_t N = ::write(Fds[1], P, Left);
      if (N <= 0)
        ::_exit(1);
      P += N;
      Left -= static_cast<size_t>(N);
    }
    ::_exit(0);
  }
  ::close(Fds[1]);
  char *P = reinterpret_cast<char *>(&Out);
  size_t Got = 0;
  while (Got < sizeof(Out)) {
    ssize_t N = ::read(Fds[0], P + Got, sizeof(Out) - Got);
    if (N <= 0)
      break;
    Got += static_cast<size_t>(N);
  }
  ::close(Fds[0]);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
  return Got == sizeof(Out) && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

/// A finished store and its RunStats, for bitwise engine comparison.
struct Snapshot {
  std::vector<std::vector<int64_t>> Ints;
  std::vector<std::vector<double>> Reals;
  interp::RunStats Stats;
  bool Taken = false;
};

bool sameBits(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }

bool sameStats(const interp::RunStats &A, const interp::RunStats &B) {
  if (A.WorkSteps != B.WorkSteps || A.Instructions != B.Instructions ||
      A.WorkActiveLanes != B.WorkActiveLanes ||
      A.WorkTotalLanes != B.WorkTotalLanes ||
      A.CommAccesses != B.CommAccesses || !sameBits(A.Cycles, B.Cycles) ||
      !sameBits(A.Seconds, B.Seconds) ||
      A.TripNests.size() != B.TripNests.size())
    return false;
  for (size_t I = 0; I < A.TripNests.size(); ++I) {
    const interp::TripHistogram &X = A.TripNests[I].Hist,
                                &Y = B.TripNests[I].Hist;
    if (A.TripNests[I].Name != B.TripNests[I].Name || X.Exact != Y.Exact ||
        X.Log2 != Y.Log2 || X.Samples != Y.Samples || X.Sum != Y.Sum ||
        X.Max != Y.Max)
      return false;
  }
  return true;
}

/// Compares (or, the first time, records) the store and stats bit for
/// bit; "" when identical.
std::string compareSnapshot(const Kernel &K, const interp::DataStore &S,
                            const interp::RunStats &Stats, Snapshot &Ref) {
  const auto &Vars = K.Compiled.Prog.vars();
  if (!Ref.Taken) {
    for (const ir::VarDecl &D : Vars) {
      const interp::Slot &Sl = S.slot(D.Name);
      Ref.Ints.push_back(Sl.I);
      Ref.Reals.push_back(Sl.R);
    }
    Ref.Stats = Stats;
    Ref.Taken = true;
    return "";
  }
  for (size_t I = 0; I < Vars.size(); ++I) {
    const interp::Slot &Sl = S.slot(Vars[I].Name);
    if (Sl.I != Ref.Ints[I] || Sl.R.size() != Ref.Reals[I].size() ||
        (!Sl.R.empty() && std::memcmp(Sl.R.data(), Ref.Reals[I].data(),
                                      Sl.R.size() * sizeof(double)) != 0))
      return K.Name + ": store slot " + Vars[I].Name +
             " differs between engines or runs";
  }
  if (!sameStats(Stats, Ref.Stats))
    return K.Name + ": RunStats differ between engines or runs";
  return "";
}

/// A kernel's time is this quantile of its runs in the measured phase.
/// On the shared virtual machine this benchmark was built on, the
/// kernels' loops ran either in a fast state or in one up to half as
/// fast, switching within a second, and the share of slow runs changed
/// from run to run. Over five 20 s runs, the per-kernel median spread
/// 0.28-0.31 (IQR over median) and this quantile 0.05. A change to the
/// program moves every run; the host's interference only some.
constexpr double FastQuantile = 0.05;

/// One kernel's runs on one engine in a measured phase.
struct Samples {
  /// Construct + seed, the run alone, construct + seed + run, and the
  /// process CPU time of the whole, one entry per run.
  std::vector<double> SetupUs, RunMs, TotalUs, CpuUs;
};

} // namespace

int runKernels(const Options &O) {
  Report Rep(O);
  Rep.meta("jit_compiler", std::getenv("SIMDFLAT_JIT_CC")
                               ? std::getenv("SIMDFLAT_JIT_CC")
                               : PERFBENCH_JIT_COMPILER);
  Rep.meta("jit_flags", PERFBENCH_JIT_FLAGS);
  Rep.meta("lanes", std::to_string(FloorLanes));
  if (!codegen::jitAvailable()) {
    Rep.fail("this build cannot JIT (SIMDFLAT_ENABLE_JIT off or no "
             "compiler); the kernels workload measures the native tier");
    return Rep.finish();
  }

  // Input generation and oracles: the benchmark's own work, untimed.
  std::vector<std::unique_ptr<Kernel>> Ks = makeKernels(O.Seed);
  resetPeakRss();
  const size_t NK = Ks.size();
  static_assert(std::is_trivially_copyable_v<SetupRecord>,
                "set-up records cross a pipe as raw bytes");
  bool SameTable = NK == NumKernels;
  for (size_t KI = 0; SameTable && KI < NK; ++KI)
    SameTable = Ks[KI]->Name == KernelTable[KI].Name &&
                static_cast<bool>(Ks[KI]->FloorRun) == KernelTable[KI].HasFloor;
  if (!SameTable) {
    Rep.fail("the kernels and KernelTable disagree");
    return Rep.finish();
  }

  // --- Set-up: SetupReps cold compiles, children first (a child forked
  // after the in-process set-up would inherit a warm JIT cache).
  std::vector<SetupRecord> Setups;
  for (int I = 0; I + 1 < SetupReps; ++I) {
    SetupRecord R;
    if (!setupInChild(Ks, O, R)) {
      Rep.fail("a set-up child did not report back");
      return Rep.finish();
    }
    Setups.push_back(R);
  }
  PrivateJitDir Jit(O.OutDir);
  if (!Jit.ok()) {
    Rep.fail("cannot create a private JIT directory under " + O.OutDir);
    return Rep.finish();
  }
  Tracer::get().setEnabled(O.Trace);
  Setups.push_back(setupAll(Ks));
  for (const SetupRecord &R : Setups) {
    if (R.Error[0])
      Rep.fail(std::string("set-up: ") + R.Error);
    if (R.JitCompiles != static_cast<int64_t>(NK) || R.JitDiskHits != 0 ||
        R.JitFailures != 0)
      Rep.fail("set-up was not a cold compile: jit compiles=" +
               std::to_string(R.JitCompiles) +
               " disk_hits=" + std::to_string(R.JitDiskHits) +
               " failures=" + std::to_string(R.JitFailures));
  }
  if (!Rep.ok())
    return Rep.finish();

  // --- Measured phase.
  std::vector<Snapshot> Refs(NK);
  auto invoke = [&](size_t KI, interp::Engine E, Samples *Out) {
    Kernel &K = *Ks[KI];
    Span Whole(E == interp::Engine::Native ? "kernels.run_native"
                                           : "kernels.run_bytecode");
    interp::RunOptions RO;
    RO.Eng = E;
    RO.WorkTargets = K.WorkTargets;
    RO.WorkCalls = K.WorkCalls;
    double Cpu0 = cpuSeconds();
    int64_t T0 = nowNs();
    std::optional<interp::SimdInterp> I;
    {
      Span S("interp.setup");
      I.emplace(K.Compiled.Prog, K.Machine,
                K.UsesExterns ? &K.Externs : nullptr, RO);
      I->setCompiled(K.Compiled.Code);
      K.Seed(I->store());
    }
    int64_t T1 = nowNs();
    interp::RunOutcome<interp::SimdRunResult> R = [&] {
      Span S("interp.run");
      return I->run();
    }();
    int64_t T2 = nowNs();
    double Cpu = cpuSeconds() - Cpu0;
    std::string Err;
    if (!R)
      Err = K.Name + ": trapped: " + R.error().render();
    else if (R->EngineUsed != E)
      Err = K.Name + ": " + interp::engineName(E) + " run degraded to " +
            interp::engineName(R->EngineUsed);
    else if (std::string C = K.Check(I->store()); !C.empty())
      Err = C + " (" + interp::engineName(E) + ")";
    else
      Err = compareSnapshot(K, I->store(), R->Stats, Refs[KI]);
    Rep.op(Err);
    if (Out) {
      Out->SetupUs.push_back(static_cast<double>(T1 - T0) * 1e-3);
      Out->RunMs.push_back(static_cast<double>(T2 - T1) * 1e-6);
      Out->TotalUs.push_back(static_cast<double>(T2 - T0) * 1e-3);
      Out->CpuUs.push_back(Cpu * 1e6);
    }
  };
  // The floor alone is timed; its oracle check runs after the clock
  // stops. A wrong floor fails the run but is not one of the program's
  // operations.
  auto floorRun = [&](size_t KI, std::vector<double> *Out) {
    Kernel &K = *Ks[KI];
    if (!K.FloorRun)
      return;
    int64_t T0 = nowNs();
    {
      Span S("native.floor");
      K.FloorRun();
    }
    double Ms = static_cast<double>(nowNs() - T0) * 1e-6;
    if (std::string Err = K.FloorCheck(); !Err.empty())
      Rep.fail(Err);
    if (Out)
      Out->push_back(Ms);
  };

  Tracer::get().setEnabled(false);
  for (int W = 0; W < WarmupRounds; ++W)
    for (size_t KI = 0; KI < NK; ++KI) {
      invoke(KI, interp::Engine::Bytecode, nullptr);
      invoke(KI, interp::Engine::Native, nullptr);
      floorRun(KI, nullptr);
    }
  // Every run of the program has happened once by now, and the measured
  // phase repeats them. Its only growth is the benchmark's own sample
  // records, whose size follows the host's speed: leave them out.
  double PeakRss = peakRssMb();

  // A traced run measures its first half untraced and its second half
  // traced; the difference is the tracing overhead.
  struct Phase {
    std::vector<Samples> Byte, Native;
    std::vector<std::vector<double>> Floor;
    double WallS = 0;
    /// The program's runs.
    int64_t Runs = 0;
    /// Process CPU time per run: the mean over kernels and engines of
    /// each one's FastQuantile.
    double CpuUsPerRun = 0;
  };
  auto measure = [&](double Seconds, bool Traced) {
    Phase P;
    P.Byte.resize(NK);
    P.Native.resize(NK);
    P.Floor.resize(NK);
    Tracer::get().setEnabled(Traced);
    int64_t T0 = nowNs();
    int64_t End = T0 + static_cast<int64_t>(Seconds * 1e9);
    do {
      for (size_t KI = 0; KI < NK; ++KI) {
        invoke(KI, interp::Engine::Bytecode, &P.Byte[KI]);
        invoke(KI, interp::Engine::Native, &P.Native[KI]);
        floorRun(KI, &P.Floor[KI]);
      }
    } while (nowNs() < End);
    P.WallS = secondsSince(T0);
    double CpuSum = 0;
    for (const std::vector<Samples> *Engine : {&P.Byte, &P.Native})
      for (const Samples &S : *Engine) {
        P.Runs += static_cast<int64_t>(S.RunMs.size());
        CpuSum += quantile(S.CpuUs, FastQuantile);
      }
    P.CpuUsPerRun = CpuSum / static_cast<double>(2 * NK);
    Tracer::get().setEnabled(false);
    return P;
  };

  std::vector<Phase> Phases;
  if (O.Trace) {
    Phases.push_back(measure(O.Seconds / 2, false));
    Phases.push_back(measure(O.Seconds / 2, true));
  } else {
    Phases.push_back(measure(O.Seconds, false));
  }
  const Phase &Main = Phases.back();

  codegen::JitStats JS = codegen::jitStats();
  if (JS.Compiles != static_cast<int64_t>(NK) || JS.DiskHits != 0 ||
      JS.Failures != 0)
    Rep.fail("JIT counters after the run: compiles=" +
             std::to_string(JS.Compiles) +
             " disk_hits=" + std::to_string(JS.DiskHits) +
             " failures=" + std::to_string(JS.Failures) +
             " (want a cold compile of every kernel and nothing else)");

  // Model counters must repeat exactly: across every run of this
  // process (compareSnapshot) and across runs of this build and seed.
  std::map<std::string, double> Counters;
  for (size_t KI = 0; KI < NK; ++KI) {
    const std::string &N = Ks[KI]->Name;
    const interp::RunStats &St = Refs[KI].Stats;
    Counters["interp.instructions." + N] = static_cast<double>(St.Instructions);
    Counters["interp.lane_utilization." + N] = St.workUtilization();
    Counters["exec.bytecode_instrs." + N] =
        static_cast<double>(Setups.back().Stages[KI].BytecodeInstrs);
    Counters["codegen.emit_bytes." + N] =
        static_cast<double>(Setups.back().Stages[KI].EmitBytes);
    for (const SetupRecord &R : Setups)
      if (R.Stages[KI].EmitBytes != Setups.back().Stages[KI].EmitBytes ||
          R.Stages[KI].BytecodeInstrs != Setups.back().Stages[KI].BytecodeInstrs)
        Rep.fail(N + ": emitted code differs between cold set-ups");
  }
  Rep.checkCounterDrift(Counters);

  std::vector<double> SetupWall, ColdPath;
  for (const SetupRecord &R : Setups)
    SetupWall.push_back(R.WallS);
  for (size_t KI = 0; KI < NK; ++KI) {
    std::vector<double> V;
    for (const SetupRecord &R : Setups)
      V.push_back(R.Stages[KI].total());
    ColdPath.push_back(median(V));
  }
  // Quantile Q of each kernel's runs, geometric mean over kernels.
  auto figure = [&](const std::vector<Samples> &S, double Q) {
    std::vector<double> V;
    for (const Samples &X : S)
      V.push_back(quantile(X.TotalUs, Q));
    return geomean(V);
  };
  auto fast = [](const std::vector<double> &V) {
    return quantile(V, FastQuantile);
  };
  double NativeUs = figure(Main.Native, FastQuantile);
  double ByteMs = figure(Main.Byte, FastQuantile) * 1e-3;
  size_t PerKernelSamples = Main.Native.front().TotalUs.size();

  if (!O.Trace) {
    Rep.metric("setup_s", median(SetupWall));
    Rep.metric("peak_rss_mb", PeakRss);
    Rep.metric("cpu_us_per_req", Main.CpuUsPerRun);
    Rep.metric("latency_us", NativeUs);
    Rep.metric("bytecode_kernel_ms", ByteMs);
    Rep.info("latency_p50_us", figure(Main.Native, 0.5), "us", UngatedNote);
    Rep.info("latency_p90_us", figure(Main.Native, 0.9), "us", UngatedNote);
    Rep.info("throughput_rps", static_cast<double>(Main.Runs) / Main.WallS,
             "1/s", UngatedNote);
  } else {
    // Per-kernel medians across the cold set-ups, for the stage times.
    auto stageMedian = [&](double StageTimes::*F) {
      std::vector<double> PerK;
      for (size_t KI = 0; KI < NK; ++KI) {
        std::vector<double> V;
        for (const SetupRecord &R : Setups)
          V.push_back(R.Stages[KI].*F);
        PerK.push_back(median(V));
      }
      return PerK;
    };
    StageReplay SR;
    std::vector<double> KeyUs;
    Tracer::get().setEnabled(true);
    for (const auto &K : Ks) {
      replayStages(K->IR, K->PO, SR);
      int64_t T0 = nowNs();
      {
        Span S("transform.canonical_key");
        transform::canonicalKey(K->IR, K->PO);
      }
      KeyUs.push_back(static_cast<double>(nowNs() - T0) * 1e-3);
    }
    Tracer::get().setEnabled(false);

    Rep.metric("transform.canonical_key_us", median(KeyUs));
    Rep.metric("transform.pipeline_us",
               median(stageMedian(&StageTimes::Pipeline)) * 1e6);
    Rep.metric("transform.flatten_us", median(SR.FlattenUs));
    Rep.metric("transform.simdize_us", median(SR.SimdizeUs));
    Rep.metric("transform.simplify_us", median(SR.SimplifyUs));
    Rep.metric("transform.verify_us", median(SR.VerifyUs));
    Rep.metric("exec.lower_us", median(stageMedian(&StageTimes::Lower)) * 1e6);
    std::vector<double> SetupUs;
    for (size_t KI = 0; KI < NK; ++KI) {
      SetupUs.push_back(fast(Main.Byte[KI].SetupUs));
      SetupUs.push_back(fast(Main.Native[KI].SetupUs));
    }
    Rep.metric("interp.setup_us", geomean(SetupUs));
    std::vector<double> EmitS = stageMedian(&StageTimes::Emit),
                        HostS = stageMedian(&StageTimes::HostCompile);
    for (size_t KI = 0; KI < NK; ++KI) {
      const std::string &N = Ks[KI]->Name;
      for (const char *C : {"exec.bytecode_instrs.", "interp.instructions.",
                            "interp.lane_utilization.", "codegen.emit_bytes."})
        Rep.metric(C + N, Counters[C + N]);
      Rep.metric("interp.run_ms." + N + ".bytecode", fast(Main.Byte[KI].RunMs));
      Rep.metric("interp.run_ms." + N + ".native", fast(Main.Native[KI].RunMs));
      Rep.metric("codegen.emit_us." + N, EmitS[KI] * 1e6);
      Rep.metric("codegen.host_compile_s." + N, HostS[KI]);
      if (!Ks[KI]->FloorRun)
        continue;
      Rep.metric("codegen.native_over_floor." + N,
                 fast(Main.Native[KI].RunMs) / fast(Main.Floor[KI]));
      Rep.metric("native.floor_ms." + N, fast(Main.Floor[KI]));
    }
    Rep.metric("codegen.native_compile_s", geomean(ColdPath));
    Rep.metric("codegen.artifact_bytes", static_cast<double>(JS.ArtifactBytes));
    Rep.metric("codegen.jit_failures", static_cast<double>(JS.Failures));
    Rep.metric("trace.overhead_us",
               NativeUs - figure(Phases.front().Native, FastQuantile));

    std::string TracePath = O.OutDir + "/trace-kernels-" +
                            std::to_string(O.Seed) + ".json";
    if (!Tracer::get().writeChromeTrace(TracePath))
      Rep.fail("cannot write the span trace to " + TracePath);
    Rep.meta("trace_file", TracePath);
  }

  Rep.info("native_kernel_ms", NativeUs * 1e-3, "ms",
           "geomean of per-kernel 5th-percentile native runs");
  Rep.info("native_compile_s", geomean(ColdPath), "s",
           "geomean of per-kernel cold paths (median of set-ups)");
  Rep.info("whole_phase.latency_p99_us", figure(Main.Native, 0.99), "us",
           std::to_string(PerKernelSamples) + " native runs per kernel");
  Rep.info("failed_share",
           static_cast<double>(Rep.failed()) /
               static_cast<double>(std::max<int64_t>(Rep.attempted(), 1)),
           "ratio");
  for (size_t KI = 0; KI < NK; ++KI)
    Rep.info("cold_path_s." + Ks[KI]->Name, ColdPath[KI], "s");
  for (size_t KI = 0; KI < NK; ++KI)
    Rep.info("bytecode_ms." + Ks[KI]->Name, fast(Main.Byte[KI].TotalUs) * 1e-3,
             "ms", "5th-percentile invocation");
  for (size_t KI = 0; KI < NK; ++KI)
    Rep.info("native_over_bytecode." + Ks[KI]->Name,
             fast(Main.Byte[KI].RunMs) / fast(Main.Native[KI].RunMs), "ratio",
             "same-run");
  return Rep.finish();
}

} // namespace perfbench
