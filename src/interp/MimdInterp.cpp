//===- interp/MimdInterp.cpp ----------------------------------*- C++ -*-===//

#include "interp/MimdInterp.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace simdflat;
using namespace simdflat::interp;

MimdInterp::MimdInterp(const ir::Program &P,
                       const machine::MachineConfig &Machine,
                       const ExternRegistry *Externs, int64_t NumProcs,
                       machine::Layout PartLayout, RunOptions Opts)
    : Prog(P), Machine(Machine), Externs(Externs), NumProcs(NumProcs),
      PartLayout(PartLayout), Opts(std::move(Opts)) {
  assert(NumProcs >= 1 && "need at least one processor");
}

RunOutcome<MimdRunResult>
MimdInterp::run(const std::function<void(DataStore &)> &Init) {
  MimdRunResult Result;
  Result.Merged = std::make_unique<DataStore>(Prog, /*Lanes=*/1);
  if (Init)
    Init(*Result.Merged);

  // Track the first writer of every array element to diagnose overlap.
  // Redundant writes of the *same* value from different processors are
  // benign (replicated computation, e.g. an inspector loop every
  // processor runs); conflicting values raise a WriteConflict trap.
  struct WriterInfo {
    int64_t Proc;
    ScalVal Value;
  };
  std::map<std::pair<std::string, int64_t>, WriterInfo> Writer;

  for (int64_t P = 0; P < NumProcs; ++P) {
    ScalarInterp Interp(Prog, Machine, Externs, Opts);
    if (Init)
      Init(Interp.store());
    Interp.setSlice({P, NumProcs, PartLayout});
    Interp.setRecordWrites(true);
    RunOutcome<ScalarRunResult> Out = Interp.run();
    if (!Out) {
      // Propagate the processor's trap, annotated with who raised it.
      Trap T = Out.error();
      T.Detail = "processor " + std::to_string(P) + ": " + T.Detail;
      return T;
    }
    ScalarRunResult R = std::move(*Out);

    for (const WriteRecord &W : R.Writes) {
      auto Key = std::make_pair(W.Name, W.FlatIndex);
      auto [It, Fresh] = Writer.emplace(Key, WriterInfo{P, W.Value});
      if (!Fresh && It->second.Proc != P) {
        bool SameValue = It->second.Value.Kind == W.Value.Kind &&
                         It->second.Value.I == W.Value.I &&
                         It->second.Value.R == W.Value.R;
        if (!SameValue)
          return Trap{TrapKind::WriteConflict,
                      {It->second.Proc, P},
                      "merge of processor write sets",
                      "processors " + std::to_string(It->second.Proc) +
                          " and " + std::to_string(P) +
                          " wrote different values to " + W.Name +
                          " - the DOALL loop is not parallelizable"};
        It->second = {P, W.Value};
      } else if (!Fresh) {
        It->second = {P, W.Value};
      }
      Slot &S = Result.Merged->slot(W.Name);
      if (S.isReal())
        S.R[static_cast<size_t>(W.FlatIndex)] = W.Value.R;
      else
        S.I[static_cast<size_t>(W.FlatIndex)] = W.Value.I;
    }

    Result.TimeSteps = std::max(Result.TimeSteps, R.Stats.WorkSteps);
    Result.Seconds = std::max(Result.Seconds, R.Stats.Seconds);
    Result.PerProc.push_back(R.Stats);
    Result.PerProcTrace.push_back(std::move(R.Tr));
  }
  return Result;
}
