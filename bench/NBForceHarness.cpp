//===- bench/NBForceHarness.cpp -------------------------------*- C++ -*-===//

#include "bench/NBForceHarness.h"

#include "interp/ScalarInterp.h"
#include "interp/SimdInterp.h"
#include "support/Error.h"

#include <cstdlib>

using namespace simdflat;
using namespace simdflat::bench;
using namespace simdflat::interp;
using namespace simdflat::md;

const char *bench::loopVersionName(LoopVersion V) {
  switch (V) {
  case LoopVersion::L1u:
    return "L1u";
  case LoopVersion::L2u:
    return "L2u";
  case LoopVersion::Lf:
    return "Lf";
  }
  SIMDFLAT_UNREACHABLE("bad LoopVersion");
}

bool bench::quickMode() { return std::getenv("SIMDFLAT_QUICK") != nullptr; }

NBForceExperiment::NBForceExperiment(int64_t NMax)
    : NMax(NMax), Mol(Molecule::syntheticSOD()) {}

const PairList &NBForceExperiment::pairlist(double Cutoff) {
  auto It = Pairlists.find(Cutoff);
  if (It != Pairlists.end())
    return It->second;
  PairList PL = buildPairList(Mol, Cutoff);
  PL.ensureMinOnePartner();
  return Pairlists.emplace(Cutoff, std::move(PL)).first->second;
}

const NBForceExperiment::CachedInputs &
NBForceExperiment::inputs(double Cutoff) {
  auto It = Inputs.find(Cutoff);
  if (It != Inputs.end())
    return It->second;
  const PairList &PL = pairlist(Cutoff);
  CachedInputs CI;
  CI.MaxP = PL.maxPCnt();
  CI.PCnt = PL.paddedPCnt(NMax);
  CI.Partners = PL.rectangularPartners(NMax, CI.MaxP);
  return Inputs.emplace(Cutoff, std::move(CI)).first->second;
}

double
NBForceExperiment::forceCostFor(const machine::MachineConfig &Machine) {
  // Calibration constants (see EXPERIMENTS.md): the 64-bit force
  // routine is many vector instructions on the CM-2's bit-serial PEs
  // behind FPAs, fewer on the DECmpp's 4-bit PEs, and ~1.4k cycles of
  // f77 code on the 28 Mips Sparc.
  if (Machine.Name == "CM-2")
    return 700.0;
  if (Machine.Name == "DECmpp-12000")
    return 250.0;
  return 1350.0; // Sparc-2
}

machine::MachineConfig NBForceExperiment::cm2(int64_t Processors) {
  machine::MachineConfig M = machine::MachineConfig::cm2(Processors);
  // Slicewise section-descriptor overhead per touched layer: large
  // enough that L1u's explicit 1:Lrs sections lose to L2u's whole-array
  // sweeps (Sec. 5.3 observes exactly that on the CM-2).
  M.Costs.LayerCheck = 450.0;
  return M;
}

machine::MachineConfig NBForceExperiment::decmpp(int64_t Processors) {
  machine::MachineConfig M = machine::MachineConfig::decmpp(Processors);
  // Cheap per-layer activity test: L1u wins whenever it actually prunes
  // layers, and loses slightly when Lrs == maxLrs.
  M.Costs.LayerCheck = 25.0;
  return M;
}

NBRunResult NBForceExperiment::run(LoopVersion Version,
                                   const machine::MachineConfig &Machine,
                                   double Cutoff) {
  const PairList &PL = pairlist(Cutoff);
  int64_t MaxP = PL.maxPCnt();

  ir::Program P = [&] {
    switch (Version) {
    case LoopVersion::L1u:
      return nbforceL1u(NMax, MaxP);
    case LoopVersion::L2u:
      return nbforceL2u(NMax, MaxP);
    case LoopVersion::Lf:
      return nbforceFlattenedSimd(NMax, MaxP, Machine.DataLayout);
    }
    SIMDFLAT_UNREACHABLE("bad LoopVersion");
  }();

  // L1u prunes to the active layers unless the virtual-processor model
  // sweeps everything anyway (CM-2, Sec. 5.3); L2u always sweeps the
  // declared maximum.
  int64_t Sweep = NMax;
  if (Version == LoopVersion::L1u && !Machine.VirtualProcessorSweep)
    Sweep = PL.numAtoms();
  int64_t LayersSwept = Machine.layersFor(Sweep);

  ExternRegistry Reg;
  bindForceExterns(Reg, Mol, forceCostFor(Machine),
                   Machine.Costs.LayerCheck *
                       static_cast<double>(LayersSwept));

  RunOptions Opts;
  Opts.WorkCalls = {"Force"};
  Opts.Eng = Eng;
  SimdInterp Interp(P, Machine, &Reg, Opts);
  const CachedInputs &CI = inputs(Cutoff);
  Interp.store().setInt("nAtoms", PL.numAtoms());
  Interp.store().setIntArray("pCnt", CI.PCnt);
  Interp.store().setIntArray("partners", CI.Partners);
  if (Interp.store().program().lookupVar("sweep"))
    Interp.store().setInt("sweep", Sweep);
  SimdRunResult R = Interp.run().value();

  NBRunResult Out;
  Out.Seconds = R.Stats.Seconds;
  Out.ForceSteps = R.Stats.WorkSteps;
  Out.Utilization = R.Stats.workUtilization();
  Out.CommAccesses = R.Stats.CommAccesses;
  return Out;
}

NBRunResult NBForceExperiment::runSparc(double Cutoff) {
  const PairList &PL = pairlist(Cutoff);
  int64_t MaxP = PL.maxPCnt();
  ir::Program P = nbforceF77(NMax, MaxP);
  machine::MachineConfig M = machine::MachineConfig::sparc2();
  ExternRegistry Reg;
  bindForceExterns(Reg, Mol, forceCostFor(M), 0.0);
  RunOptions Opts;
  Opts.WorkCalls = {"Force"};
  ScalarInterp Interp(P, M, &Reg, Opts);
  setNBForceInputs(Interp.store(), PL, NMax, MaxP, NMax);
  ScalarRunResult R = Interp.run().value();
  NBRunResult Out;
  Out.Seconds = R.Stats.Seconds;
  Out.ForceSteps = R.Stats.WorkSteps;
  Out.Utilization = 1.0;
  return Out;
}
