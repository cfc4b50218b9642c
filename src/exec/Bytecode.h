//===- exec/Bytecode.h - Register bytecode for the executors ---*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact register-based bytecode the SIMD interpreter executes
/// instead of re-walking the ir:: tree on every iteration. One lowering
/// pass (exec/Lower.h) turns an F90simd program into a flat instruction
/// stream; one evaluation core (exec/Engine.h) runs it on the
/// masked-lockstep machine. The bytecode transcribes the SIMD tree
/// walker instruction by instruction, so the tree and bytecode engines
/// are bit-identical in stores, counters, traps and traces. The scalar
/// and MIMD executors have no bytecode: they are exact baselines and
/// always walk the tree.
///
/// Trap locations are prerendered: lowering tracks the enclosing
/// statement chain and tags every instruction with an index into a
/// deduplicated location-string pool, so the hot loop carries no
/// statement stack at all.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_EXEC_BYTECODE_H
#define SIMDFLAT_EXEC_BYTECODE_H

#include <cstdint>
#include <string>
#include <vector>

namespace simdflat {
namespace exec {

/// The dialect a lowering targets. Only the SIMD machine has a
/// bytecode; the enum stays so exec::lower keeps its two-argument
/// signature for existing callers.
enum class Mode {
  Simd,
};

/// Cost-table entry an instruction charges (resolved against the
/// machine::CostTable at run time, so one lowered program serves every
/// machine configuration).
enum class CostKind : uint8_t {
  IntOp,
  RealOp,
  CmpOp,
  LogicOp,
  MoveOp,
  GatherOp,
  ScatterOp,
  ReduceOp,
  LayerCheck,
  LoopOverhead,
};

/// Opcodes. Operand meaning is per-opcode (see exec/Engine.cpp); the
/// common conventions are A = destination register or control slot,
/// B/C = source registers or pool indices, D = branch target or flags.
enum class Opcode : uint8_t {
  // Loads (uncharged, like literal evaluation in the tree).
  LdInt,      ///< reg[A] = Int IntPool[B]
  LdReal,     ///< reg[A] = Real RealPool[B]
  LdBool,     ///< reg[A] = Bool (B != 0)
  LdVar,      ///< reg[A] = scalar slot B (whole-array reference traps)

  // Memory.
  Gather,     ///< reg[A] = slot B subscripted by Extra[C] index regs
  StVar,      ///< scalar slot A = reg[B] (coerce + MoveOp)
  StArr,      ///< slot A subscripted by Extra[C] = reg[B] (ScatterOp)
  SetIdx,     ///< slot A's integer payload = Ctl[B] (uncharged)

  // Unary.
  Neg,        ///< reg[A] = -reg[B] (charges by runtime kind)
  NotOp,      ///< reg[A] = .NOT. reg[B] (LogicOp)

  // Binary logicals / comparisons (result kind Bool).
  AndOp,      ///< reg[A] = reg[B] .AND. reg[C]
  OrOp,       ///< reg[A] = reg[B] .OR. reg[C]
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,

  // Arithmetic, split by the static expression type like the tree.
  AddI,
  SubI,
  MulI,
  DivI,       ///< traps DivByZero
  ModI,       ///< traps DivByZero
  AddR,
  SubR,
  MulR,
  DivR,       ///< silent 0.0 on zero divisor (tree behavior)

  // Intrinsics.
  MaxMin,     ///< reg[A] = max/min(reg[B], reg[C]); D bit0 = IsMax,
              ///< D bit1 = static type is Real
  AbsOp,      ///< reg[A] = ABS(reg[B]) (charges by runtime kind)
  SqrtOp,     ///< reg[A] = SQRT(reg[B]) (DomainError on negative)
  LaneIdx,    ///< reg[A] = LANEINDEX() (uncharged)
  NumLanesOp, ///< reg[A] = NUMLANES() (uncharged)
  AnyAll,     ///< reg[A] = ANY/ALL(reg[B]); D = 1 for ALL
  LaneRed,    ///< reg[A] = MAXRED/MINRED/SUMRED(reg[B]); D = 0/1/2
  ArrRed,     ///< reg[A] = MAXVAL/SUMVAL(slot B); D = 0 for MAXVAL

  // Extern calls: args are Extra[C] regs, callee Callees[B]; result in
  // reg[A] unless A < 0 (CALL statement). D = ScalarKind of the result.
  // CallCheck runs the registry checks *before* argument evaluation,
  // matching the tree's evalCall order.
  CallCheck,
  CallOp,

  // Control flow.
  Jmp,        ///< pc = D
  UBrFalse,   ///< if !uniformBool(reg[A], Msgs[B]) pc = D
  ChargeOp,   ///< charge(cost A) - IF/WHERE/GOTO condition charges
  LoopIter,   ///< countLoopIteration() (limit check + LoopOverhead)
  TrapMsg,    ///< trap(TrapKind A, Msgs[B])
  Halt,       ///< end of program

  // Control slots (int64 loop state, indices into a Ctl array).
  CtlFromReg, ///< Ctl[A] = reg[B], checked uniform with Msgs[C]
  CtlImm,     ///< Ctl[A] = IntPool[B] (default DO step; uncharged)
  CheckStep,  ///< if Ctl[A] == 0 trap InvalidProgram Msgs[B]
  CtlInc,     ///< Ctl[A] += 1
  TripRec,    ///< record Ctl[A] into loop B's trip histogram (uncharged
              ///< telemetry: no cost, no fuel, no observable effect)

  // DO loops over ctl base A: {A+0 = cur, A+1 = hi, A+2 = step}.
  DoTest,     ///< if loop condition fails pc = D
  DoStep,     ///< Ctl[A] += Ctl[A+2]

  // FORALL over ctl base B: {B+0 = lo, B+1 = hi, B+2 = layer,
  // B+3 = layers}; A names the replicated index slot.
  FaBegin,      ///< replicated-index check, empty-range exit to D
  FaLayerTest,  ///< if Ctl[A+2] >= Ctl[A+3] pc = D
  FaLayerMask,  ///< set per-lane ids, push the existence mask

  // WHERE masks (also the FORALL user mask).
  WherePush,  ///< build mask from reg[A], charge LogicOp, pushAnd
  WhereFlip,  ///< charge LogicOp, flipTop (ELSEWHERE)
  MaskPop,    ///< pop one mask level
};

/// Returns the mnemonic of \p Op ("ld.int", "st.arr", "do.test", ...).
const char *opcodeName(Opcode Op);

/// One instruction. Loc indexes the program's prerendered location pool
/// and is carried by every instruction so traps (including fuel traps
/// raised by any charge) report the same statement chain as the tree.
struct Instr {
  Opcode Op = Opcode::Halt;
  int32_t A = 0;
  int32_t B = 0;
  int32_t C = 0;
  int32_t D = 0;
  int32_t Loc = -1;
};

/// A lowered program: the instruction stream plus its constant pools.
/// Lowered code is machine-independent (costs and layouts resolve at run
/// time), so one Program is shared across runs, lanes and machines.
struct Program {
  /// Source program name (fuel trap messages embed it).
  std::string ProgName;
  std::vector<Instr> Code;
  std::vector<int64_t> IntPool;
  std::vector<double> RealPool;
  /// Variable names, bound to store slots once at engine start.
  std::vector<std::string> SlotNames;
  /// Extern callee names.
  std::vector<std::string> Callees;
  /// Static trap/check message fragments.
  std::vector<std::string> Msgs;
  /// Deduplicated prerendered statement locations.
  std::vector<std::string> Locs;
  /// Operand lists ([count, operand...]) for Gather/StArr/CallOp.
  std::vector<int32_t> Extra;
  /// Size of the value register file.
  int32_t NumRegs = 0;
  /// Size of the control (int64 loop state) file.
  int32_t NumCtl = 0;
  /// Stable labels of the instrumented loops, indexed by TripRec's B
  /// operand ("L0 do @<loc>", ...). Parallel array LoopDepths carries
  /// each loop's static nesting depth (0 = outermost).
  std::vector<std::string> LoopNames;
  std::vector<int32_t> LoopDepths;
};

/// Renders \p P as text, one instruction per line, for --dump-bytecode
/// and the golden tests.
std::string disassemble(const Program &P);

} // namespace exec
} // namespace simdflat

#endif // SIMDFLAT_EXEC_BYTECODE_H
