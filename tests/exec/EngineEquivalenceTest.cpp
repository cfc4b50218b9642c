//===- tests/exec/EngineEquivalenceTest.cpp --------------------*- C++ -*-===//
//
// Three-engine equivalence on the SIMD machine: the bytecode core and
// the native tier must be observably identical to the tree-walking
// reference on stores, every RunStats counter, traces, and traps (kind,
// lanes, location, detail). These are the focused unit-level checks;
// the differential fuzzer covers the same contract at scale.
//
//===----------------------------------------------------------------------===//

#include "interp/SimdInterp.h"
#include "transform/Pipeline.h"
#include "workloads/PaperKernels.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::interp;
using namespace simdflat::workloads;

namespace {

void expectSameStats(const RunStats &A, const RunStats &B) {
  EXPECT_EQ(A.WorkSteps, B.WorkSteps);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.WorkActiveLanes, B.WorkActiveLanes);
  EXPECT_EQ(A.WorkTotalLanes, B.WorkTotalLanes);
  EXPECT_EQ(A.CommAccesses, B.CommAccesses);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Seconds, B.Seconds);
}

void expectSameTrace(const Trace &A, const Trace &B) {
  EXPECT_EQ(A.Watch, B.Watch);
  EXPECT_EQ(A.Lanes, B.Lanes);
  ASSERT_EQ(A.Steps.size(), B.Steps.size());
  for (size_t S = 0; S < A.Steps.size(); ++S) {
    EXPECT_EQ(A.Steps[S].Values, B.Steps[S].Values) << "step " << S;
    EXPECT_EQ(A.Steps[S].Active, B.Steps[S].Active) << "step " << S;
  }
}

RunOptions optsFor(Engine E) {
  RunOptions O;
  O.WorkTargets = {"X"};
  O.Eng = E;
  return O;
}

TEST(EngineEquivalence, SimdTraceAndStats) {
  // The flattened EXAMPLE on a 2-lane machine, with the Fig. 6 trace
  // recorded: step-by-step values and activity masks must be identical.
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M;
  M.Name = "test-2";
  M.Processors = 2;
  M.Gran = 2;
  M.DataLayout = machine::Layout::Cyclic;
  SimdRunResult R[3];
  int I = 0;
  for (Engine E : {Engine::Tree, Engine::Bytecode, Engine::Native}) {
    RunOptions O = optsFor(E);
    O.Watch = {"i", "j"};
    SimdInterp Interp(C->Prog, M, nullptr, O);
    if (E != Engine::Tree)
      Interp.setCompiled(C->Code);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    R[I++] = Interp.run().value();
  }
  expectSameStats(R[0].Stats, R[1].Stats);
  expectSameStats(R[0].Stats, R[2].Stats);
  expectSameTrace(R[0].Tr, R[1].Tr);
  expectSameTrace(R[0].Tr, R[2].Tr);
}

TEST(EngineEquivalence, SharedCompiledProgramReuse) {
  // One lowered Program serves many interpreter instances (the pipeline
  // cache contract): repeated runs keep producing identical results.
  ExampleSpec Spec = paperExampleSpec();
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(makeExample(Spec), PO);
  ASSERT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M;
  M.Name = "test-4";
  M.Processors = 4;
  M.Gran = 4;
  M.DataLayout = machine::Layout::Cyclic;
  RunStats First;
  for (int Round = 0; Round < 3; ++Round) {
    SimdInterp Interp(C->Prog, M, nullptr, optsFor(Engine::Bytecode));
    Interp.setCompiled(C->Code);
    Interp.store().setInt("K", Spec.K);
    Interp.store().setIntArray("L", Spec.L);
    SimdRunResult R = Interp.run().value();
    if (Round == 0)
      First = R.Stats;
    else
      expectSameStats(First, R.Stats);
  }
}

} // namespace
