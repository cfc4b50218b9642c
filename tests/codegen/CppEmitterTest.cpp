//===- tests/codegen/CppEmitterTest.cpp ------------------------*- C++ -*-===//
//
// Contract tests for codegen::emitCpp and the JitCache keying layer
// that do not need a host toolchain: which programs the emitter
// accepts, what the generated TU must structurally contain, and that
// source keys are stable and content-sensitive.
//
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"
#include "codegen/JitCache.h"
#include "transform/Pipeline.h"
#include "workloads/PaperKernels.h"

#include <gtest/gtest.h>

using namespace simdflat;
using namespace simdflat::workloads;

namespace {

std::string emitExample() {
  transform::PipelineOptions PO;
  PO.AssumeInnerMinOneTrip = true;
  auto C = transform::compileForSimdExec(
      makeExample(paperExampleSpec()), PO);
  EXPECT_TRUE(static_cast<bool>(C));
  machine::MachineConfig M = machine::MachineConfig::sparc2();
  return codegen::emitCpp(*C->Code, C->Prog, M);
}

TEST(CppEmitter, SimdProgramEmitsEntryAndAbiGuard) {
  std::string Src = emitExample();
  ASSERT_FALSE(Src.empty());
  // Structural landmarks the loader and the ABI contract rely on.
  EXPECT_NE(Src.find("simdflat_native_run"), std::string::npos);
  EXPECT_NE(Src.find("SfContext"), std::string::npos);
  EXPECT_NE(Src.find("AbiVersion"), std::string::npos);
  EXPECT_NE(Src.find("return 1;"), std::string::npos);
  // Masked execution scaffolding must be present.
  EXPECT_NE(Src.find("MaskCur"), std::string::npos);
  // Real-constant pools are emitted as bit-exact hexfloat literals.
  EXPECT_EQ(Src.find("e+0"), std::string::npos)
      << "decimal real literal leaked into generated source";
}

TEST(CppEmitter, EmissionIsDeterministic) {
  EXPECT_EQ(emitExample(), emitExample());
}

TEST(JitCache, SourceKeyStableAndContentSensitive) {
  std::string A = "int f() { return 1; }";
  EXPECT_EQ(codegen::sourceKey(A), codegen::sourceKey(A));
  EXPECT_NE(codegen::sourceKey(A),
            codegen::sourceKey("int f() { return 2; }"));
}

TEST(JitCache, AvailabilityMatchesBuildConfig) {
  // jitAvailable() may be false (SIMDFLAT_ENABLE_JIT=OFF), but must be
  // callable and stable either way.
  EXPECT_EQ(codegen::jitAvailable(), codegen::jitAvailable());
}

} // namespace
