//===- tests/codegen/CppEmitterTest.cpp ------------------------*- C++ -*-===//
//
// Contract tests for codegen::emitCpp and the JitCache keying layer
// that do not need a host toolchain: which programs the emitter
// accepts (and the static-kind refusal rule), what the generated TU
// must structurally contain, and that source keys are stable and
// content-sensitive.
//
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"
#include "codegen/JitCache.h"
#include "codegen/NativeAbi.h"
#include "exec/Bytecode.h"
#include "frontend/Parser.h"
#include "interp/SimdInterp.h"
#include "transform/Pipeline.h"
#include "workloads/PaperKernels.h"

#include <gtest/gtest.h>

#include <memory>

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

TEST(CppEmitter, EmittedModuleHasStaticKindsAndCHeadersOnly) {
  // Registers are typed at emit time: no runtime kind tag, no coercion
  // helpers, no C++ library containers - the prologue needs C headers
  // only, which keeps every host compile short.
  std::string Src = emitExample();
  ASSERT_FALSE(Src.empty());
  EXPECT_EQ(codegen::SfNativeAbiVersion, 2);
  EXPECT_NE(Src.find("AbiVersion != 2"), std::string::npos);
  EXPECT_NE(Src.find("CallVec"), std::string::npos);
  for (const char *Gone :
       {"std::string", "std::vector", "#include <string>",
        "#include <vector>", "#include <algorithm>", "#include <cmath>",
        "std::sqrt", "std::fabs", "std::max", "std::min",
        "numeric_limits", "SfReg", ".K ==", "sfToReal", "sfToKind",
        "CallLane"})
    EXPECT_EQ(Src.find(Gone), std::string::npos) << Gone;
}

TEST(CppEmitter, MaskedStatementIsOneLaneLoop) {
  // The WHERE's condition, its mask push and the whole masked statement
  // into `t` are lane-local: they print as one block holding one lane
  // loop, with all six charges (compare, push, mul, add, sub, move)
  // ahead of it and the commit as a bitwise select.
  const char *Source = "PROGRAM FUSE\n"
                       "DISTRIBUTED REAL A(8)\n"
                       "DISTRIBUTED REAL Y(8)\n"
                       "REAL a\n"
                       "REAL t\n"
                       "INTEGER k\n"
                       "BEGIN\n"
                       "  DOALL k = 1, 8\n"
                       "    a = A(k)\n"
                       "    WHERE (a > 0.0)\n"
                       "      t = a * a + a - 2.0\n"
                       "    ELSEWHERE\n"
                       "      t = -a\n"
                       "    ENDWHERE\n"
                       "    Y(k) = t\n"
                       "  ENDDO\n"
                       "END\n";
  frontend::ParseResult PR = frontend::parseProgram(Source);
  ASSERT_TRUE(PR.ok()) << PR.Diags.renderAll();
  auto C = transform::compileForSimdExec(*PR.Prog);
  ASSERT_TRUE(static_cast<bool>(C)) << C.error().render();
  machine::MachineConfig M;
  M.Name = "test-4";
  M.Processors = M.Gran = 4;
  std::string Src = codegen::emitCpp(*C->Code, C->Prog, M);
  ASSERT_FALSE(Src.empty());

  // The block of the statement: from the `{` before the first masked
  // commit to `t` to the `}` after it.
  int32_t T = -1;
  for (size_t S = 0; S < C->Code->SlotNames.size(); ++S)
    if (C->Code->SlotNames[S] == "t")
      T = static_cast<int32_t>(S);
  ASSERT_GE(T, 0);
  std::string Commit = "S" + std::to_string(T) + "[L] = sfSelR(";
  size_t At = Src.find(Commit);
  ASSERT_NE(At, std::string::npos) << Src;
  size_t Open = Src.rfind("\n  {\n", At), Close = Src.find("\n  }\n", At);
  ASSERT_NE(Open, std::string::npos);
  ASSERT_NE(Close, std::string::npos);
  std::string Block = Src.substr(Open, Close - Open);
  auto count = [&](const std::string &Needle) {
    size_t N = 0;
    for (size_t P = Block.find(Needle); P != std::string::npos;
         P = Block.find(Needle, P + 1))
      ++N;
    return N;
  };
  EXPECT_EQ(count("for (int64_t L"), 1u) << Block;
  EXPECT_EQ(count("sfCharge("), 6u) << Block;
  EXPECT_LT(Block.rfind("sfCharge("), Block.find("for (int64_t L")) << Block;
  // The commit selects on the level the loop itself pushed.
  EXPECT_NE(Block.find(Commit + "m"), std::string::npos) << Block;
}

/// A hand-lowered program whose register 1 is an integer on one path
/// and a real on the other when both reach the store into `x`; with
/// \p SameKind both paths load integers instead.
std::shared_ptr<exec::Program> twoPathProgram(bool SameKind) {
  using exec::Instr;
  using exec::Opcode;
  auto EP = std::make_shared<exec::Program>();
  EP->ProgName = "mixed";
  EP->IntPool = {5, 6};
  EP->RealPool = {2.5};
  EP->SlotNames = {"x"};
  EP->Msgs = {"IF condition"};
  EP->Locs = {"assign x"};
  EP->NumRegs = 2;
  EP->Code = {
      Instr{Opcode::LdBool, 0, 1, 0, 0, 0},
      Instr{Opcode::UBrFalse, 0, 0, 0, 4, 0},
      Instr{Opcode::LdInt, 1, 0, 0, 0, 0},
      Instr{Opcode::Jmp, 0, 0, 0, 5, 0},
      SameKind ? Instr{Opcode::LdInt, 1, 1, 0, 0, 0}
               : Instr{Opcode::LdReal, 1, 0, 0, 0, 0},
      Instr{Opcode::StVar, 0, 1, 0, 0, 0},
      Instr{Opcode::Halt, 0, 0, 0, 0, 0},
  };
  return EP;
}

TEST(CppEmitter, RegisterWithTwoKindsAtAUseIsRefused) {
  ir::Program P("mixed");
  P.setDialect(ir::Dialect::F90Simd);
  P.addVar("x", ir::ScalarKind::Int, {}, ir::Dist::Replicated);
  machine::MachineConfig M;
  M.Name = "test-2";
  M.Processors = M.Gran = 2;
  EXPECT_FALSE(codegen::emitCpp(*twoPathProgram(true), P, M).empty());
  std::shared_ptr<exec::Program> Mixed = twoPathProgram(false);
  EXPECT_EQ(codegen::emitCpp(*Mixed, P, M), "");

  // The refused program still runs: Engine::Native serves it on
  // bytecode, which takes the integer path.
  interp::RunOptions O;
  O.Eng = interp::Engine::Native;
  interp::SimdInterp Interp(P, M, nullptr, O);
  Interp.setCompiled(Mixed);
  auto R = Interp.run();
  ASSERT_TRUE(static_cast<bool>(R)) << R.error().render();
  EXPECT_EQ(R->EngineUsed, interp::Engine::Bytecode);
  EXPECT_EQ(Interp.store().slot("x").I, (std::vector<int64_t>{5, 5}));
  EXPECT_EQ(R->Stats.Instructions, 1);
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
