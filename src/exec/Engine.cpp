//===- exec/Engine.cpp - Bytecode evaluation core --------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two instantiations of the shared evaluation core
/// (exec/EngineCore.h): the bytecode engine, bit-identical to the tree
/// walkers.
///
//===----------------------------------------------------------------------===//

#include "exec/EngineCore.h"

using namespace simdflat;
using namespace simdflat::exec;
using namespace simdflat::interp;

void exec::runScalar(const Program &EP,
                     const machine::MachineConfig &Machine,
                     const ExternRegistry *Externs, const RunOptions &Opts,
                     DataStore &Store,
                     const std::optional<ParallelSlice> &Slice,
                     bool RecordWrites, ScalarRunResult &Result) {
  assert(EP.M == Mode::Scalar && "scalar engine needs a Scalar program");
  detail::Core<false> C(EP, Machine, Externs, Opts, Store, &Slice,
                        RecordWrites, Result.Stats, Result.Tr,
                        &Result.Writes);
  C.run();
}

void exec::runSimd(const Program &EP, const machine::MachineConfig &Machine,
                   const ExternRegistry *Externs, const RunOptions &Opts,
                   DataStore &Store, SimdRunResult &Result) {
  assert(EP.M == Mode::Simd && "simd engine needs a Simd program");
  detail::Core<true> C(EP, Machine, Externs, Opts, Store, nullptr,
                       /*RecordWrites=*/false, Result.Stats, Result.Tr,
                       /*Writes=*/nullptr);
  C.run();
}
