//===- exec/Engine.cpp - Bytecode evaluation core --------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode engine's entry point over the evaluation core
/// (exec/EngineCore.h), bit-identical to the SIMD tree walker.
///
//===----------------------------------------------------------------------===//

#include "exec/EngineCore.h"

using namespace simdflat;
using namespace simdflat::exec;
using namespace simdflat::interp;

void exec::runSimd(const Program &EP, const machine::MachineConfig &Machine,
                   const ExternRegistry *Externs, const RunOptions &Opts,
                   DataStore &Store, SimdRunResult &Result) {
  detail::Core C(EP, Machine, Externs, Opts, Store, Result.Stats,
                 Result.Tr);
  C.run();
}
