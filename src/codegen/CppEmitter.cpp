//===- codegen/CppEmitter.cpp ---------------------------------*- C++ -*-===//
//
// Every emitted handler is a transcription of exec/EngineCore.h's
// Core::run(): same charges in the same order, same trap kinds /
// messages / faulting lane sets, same in-lane-order reductions (FP
// bit-identity), same masked commits.
// Deviations allowed: scratch-only effects the interpreter never
// observes (which lanes of a register an idle lane scribbles, whether a
// masked commit rewrites an idle lane with its own bits, the mask
// levels' bytes, whether a fused statement computes its registers and
// mask levels before or after its charges), and fast paths that
// provably reach the same result.
//
// Emission is two passes over flat per-program tables. The first is a
// forward kind-and-constant dataflow over the lowered CFG: per block
// entry, every register's static kind (or "undefined"/"mixed") and
// known constant, plus the static mask depth. The second walks the code
// in PC order, replays the transfer function and prints each reachable
// instruction with its operands' static kinds, so the module carries no
// runtime kind tag and no mask-stack pointer. A run of lane-local
// instructions in one block - one statement, up to and including its
// masked commit - prints as one fused lane loop that reads its own
// definitions as loop-local scalars (docs/CODEGEN.md "Fused
// statements").
//
//===----------------------------------------------------------------------===//

#include "codegen/CppEmitter.h"

#include "codegen/NativeAbi.h"
#include "exec/Bytecode.h"
#include "interp/RunStats.h"
#include "interp/Trap.h"
#include "ir/Program.h"
#include "machine/Machine.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace simdflat;
using namespace simdflat::codegen;
using namespace simdflat::exec;

namespace {

/// Escapes \p S as the body of a C++ string literal (octal escapes for
/// anything outside plain printable ASCII, so a following character can
/// never extend an escape).
std::string escapeString(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C >= 0x20 && C < 0x7F) {
      Out += static_cast<char>(C);
    } else {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\%03o", C);
      Out += Buf;
    }
  }
  return Out;
}

uint64_t bitsOf(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

/// Bit-exact C++ literal for \p V: hexfloat for finite values, a
/// bit-pattern reinterpretation for NaN/Inf.
std::string realLiteral(double V) {
  char Buf[64];
  if (V == V && V <= 1.7976931348623157e308 && V >= -1.7976931348623157e308)
    std::snprintf(Buf, sizeof(Buf), "%a", V);
  else
    std::snprintf(Buf, sizeof(Buf), "sfBits(UINT64_C(0x%016" PRIx64 "))",
                  bitsOf(V));
  return Buf;
}

std::string intLiteral(int64_t V) {
  if (V == INT64_MIN)
    return "INT64_MIN";
  return "INT64_C(" + std::to_string(V) + ")";
}

/// Static per-slot facts baked into the generated code.
struct SlotFacts {
  std::string Name;
  bool IsArray = false;
  bool IsReal = false;
  int Kind = 0; ///< ir::ScalarKind as int (0=Int, 1=Real, 2=Bool).
  bool Distributed = false;
  /// Stored values: 1 (control scalar), LANES (replicated scalar) or
  /// numElements() (array) - mirrors interp::DataStore.
  int64_t Width = 0;
  std::vector<int64_t> Dims;
};

int trapCode(interp::TrapKind K) { return static_cast<int>(K); }

/// Static register kinds: the ir::ScalarKind values plus two lattice
/// points for "no definition reaches" and "definitions disagree".
enum : uint8_t { KInt = 0, KReal = 1, KBool = 2, KUndef = 3, KMixed = 4 };

/// What the dataflow knows about one register at one program point.
struct RegFact {
  uint8_t Kind = KUndef;
  bool HasConst = false;
  /// The constant: an integer/logical value, or a real's bit pattern.
  int64_t Bits = 0;
  bool operator==(const RegFact &O) const {
    return Kind == O.Kind && HasConst == O.HasConst &&
           (!HasConst || Bits == O.Bits);
  }
};

/// Stack frames above this many bytes live in one heap block instead
/// (lane counts in the thousands would otherwise overflow a thread's
/// stack).
constexpr int64_t MaxStackFrameBytes = 256 * 1024;

bool isBranch(Opcode Op) {
  switch (Op) {
  case Opcode::Jmp:
  case Opcode::UBrFalse:
  case Opcode::DoTest:
  case Opcode::FaBegin:
  case Opcode::FaLayerTest:
    return true;
  default:
    return false;
  }
}

bool fallsThrough(Opcode Op) {
  return Op != Opcode::Jmp && Op != Opcode::Halt && Op != Opcode::TrapMsg;
}

/// A register or mask level the group being printed has not defined
/// (read its array); a defined one maps to its definition's PC.
constexpr int32_t NoLocal = -1;

/// The pieces of one fused group, printed in this order.
struct GroupText {
  std::string Pre;     ///< work the interpreter does before the first charge
  std::string Charges; ///< the group's sfCharge calls, in program order
  std::string Body;    ///< the lane loop's body
  std::string Tail;    ///< the commit's work-step record
};

class Emitter {
public:
  Emitter(const Program &EP, const ir::Program &IRP,
          const machine::MachineConfig &Machine)
      : EP(EP), IRP(IRP), Machine(Machine), Lanes(Machine.Gran),
        Cyclic(Machine.DataLayout == machine::Layout::Cyclic),
        NumRegs(EP.NumRegs) {}

  std::string emit();

private:
  const Program &EP;
  const ir::Program &IRP;
  const machine::MachineConfig &Machine;
  int64_t Lanes;
  bool Cyclic;
  int32_t NumRegs;
  std::vector<SlotFacts> Slots;
  std::string Out;
  bool Failed = false;

  // Flat per-program analysis tables.
  /// PC -> block index for block leaders, -1 elsewhere.
  std::vector<int32_t> BlockAt;
  /// Branch targets (the only PCs that get a label).
  std::vector<uint8_t> IsTarget;
  /// NumBlocks x NumRegs register facts at each block entry.
  std::vector<RegFact> BlockIn;
  /// Mask depth at each block entry; -1 = not reached.
  std::vector<int32_t> BlockDepth;
  int32_t MaxDepth = 0;

  /// Facts at the current program point (one row, reused).
  std::vector<RegFact> Cur;
  int32_t Depth = 0;
  /// Scratch row: the facts at a group's start.
  std::vector<RegFact> GroupIn;

  // The group being printed (InGroup): each register's local, and each
  // mask level's local value and condition (a PC, or NoLocal).
  bool InGroup = false;
  std::vector<int32_t> Local, MaskLocal, CondLocal;

  /// Per register: bit 0 = integer payload referenced, bit 1 = real.
  std::vector<uint8_t> RegUse;
  int32_t MaxArgs = 0;
  bool HasCalls = false;

  void ln(const std::string &S) {
    Out += S;
    Out += '\n';
  }
  static std::string i2s(int64_t V) { return std::to_string(V); }

  bool collectSlots();
  bool analyze();
  void loadBlock(int32_t B);
  bool flowTo(int32_t PC);
  void step(const Instr &I);
  void define(int32_t R, uint8_t Kind, bool HasConst = false,
              int64_t Bits = 0);
  /// Whether \p I joins a fused group under the current facts.
  bool fusible(const Instr &I);
  /// Prints the group starting at \p PC as one lane loop; returns the
  /// PC after it.
  size_t emitGroup(size_t PC);
  /// Adds the fused form of \p I to \p G.
  void fuse(size_t PC, const Instr &I, GroupText &G);
  void emitInstr(size_t PC, const Instr &I);
  std::string frame(int64_t &Bytes, bool Heap);
  /// The constant a load puts in every lane: its kind and bits (a
  /// real's bit pattern). False for other opcodes and for a pool index
  /// out of range.
  bool loadedConst(const Instr &I, uint8_t &Kind, int64_t &Bits) const;
  /// Bit-exact C++ literal of a constant of kind \p K.
  static std::string literal(uint8_t K, int64_t Bits) {
    if (K != KReal)
      return intLiteral(Bits);
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return realLiteral(V);
  }

  // Operand checks and views. Each one refuses (Failed) a register whose
  // static kind the interpreter's handler could not read, so the
  // emitted module never has to dispatch on a runtime kind.
  bool validReg(int32_t R) {
    if (R < 0 || R >= NumRegs) {
      Failed = true;
      return false;
    }
    return true;
  }
  uint8_t kindOf(int32_t R) {
    if (!validReg(R))
      return KMixed;
    uint8_t K = Cur[static_cast<size_t>(R)].Kind;
    if (K > KBool)
      Failed = true;
    return K;
  }
  const SlotFacts *slot(int32_t S) {
    if (S < 0 || static_cast<size_t>(S) >= Slots.size()) {
      Failed = true;
      return nullptr;
    }
    return &Slots[static_cast<size_t>(S)];
  }
  /// Operand list behind an Extra offset: [count, regs...].
  const int32_t *extra(int32_t Off) {
    if (Off < 0 || static_cast<size_t>(Off) >= EP.Extra.size() ||
        EP.Extra[static_cast<size_t>(Off)] < 0 ||
        static_cast<size_t>(Off) + 1 +
                static_cast<size_t>(EP.Extra[static_cast<size_t>(Off)]) >
            EP.Extra.size()) {
      Failed = true;
      return nullptr;
    }
    return &EP.Extra[static_cast<size_t>(Off)];
  }
  std::string msg(int32_t M) {
    if (M < 0 || static_cast<size_t>(M) >= EP.Msgs.size()) {
      Failed = true;
      return "";
    }
    return EP.Msgs[static_cast<size_t>(M)];
  }
  // lit, cost and flatExpr append piecewise: GCC 12's -O2
  // -Werror=restrict misfires on `"lit" + std::string&&` chains.
  /// C++ string literal for \p S.
  static std::string lit(const std::string &S) {
    std::string Out = "\"";
    Out += escapeString(S);
    Out += '"';
    return Out;
  }
  std::string cost(CostKind K) {
    std::string Out = "C";
    Out += i2s(static_cast<int>(K));
    return Out;
  }
  /// One charge of \p Cycles (a C++ expression) at \p Loc.
  void charge(const std::string &Cycles, const std::string &Loc) {
    ln("    sfCharge(" + Cycles + ", " + Loc + ");");
  }

  /// Destination payloads.
  std::string dstI(int32_t R) {
    RegUse[static_cast<size_t>(R)] |= 1;
    return "Ri" + i2s(R);
  }
  std::string dstR(int32_t R) {
    RegUse[static_cast<size_t>(R)] |= 2;
    return "Rr" + i2s(R);
  }
  /// Lane \p Ln of \p R's payload: the fused group's local when the
  /// group defined it, the lane array otherwise.
  std::string reg(int32_t R, bool Real, const std::string &Ln) {
    int32_t D = InGroup ? Local[static_cast<size_t>(R)] : NoLocal;
    if (D >= 0)
      return "x" + i2s(D);
    return (Real ? dstR(R) : dstI(R)) + "[" + Ln + "]";
  }
  /// Integer/logical payload of \p R at lane \p Ln (a literal when the
  /// value is a known constant); a real register is refused.
  std::string iv(int32_t R, const std::string &Ln = "L") {
    uint8_t K = kindOf(R);
    if (Failed)
      return "0";
    if (K == KReal) {
      Failed = true;
      return "0";
    }
    const RegFact &F = Cur[static_cast<size_t>(R)];
    if (F.HasConst)
      return literal(K, F.Bits);
    return reg(R, false, Ln);
  }
  /// Real view of \p R (readReal): int and logical lanes widen.
  std::string rv(int32_t R, const std::string &Ln = "L") {
    uint8_t K = kindOf(R);
    if (Failed)
      return "0.0";
    const RegFact &F = Cur[static_cast<size_t>(R)];
    if (K != KReal)
      return "(double)" + iv(R, Ln);
    if (F.HasConst)
      return literal(K, F.Bits);
    return reg(R, true, Ln);
  }
  /// readVec(R, K): the same kind reads as is, int/logical -> real
  /// widens, real -> int truncates; any other pairing is refused (the
  /// interpreter treats it as a fatal error).
  std::string asKind(int32_t R, int K, const std::string &Ln = "L") {
    uint8_t Have = kindOf(R);
    if (Failed)
      return "0";
    if (K == KReal)
      return rv(R, Ln);
    if (Have == K)
      return iv(R, Ln);
    if (K != KInt || Have != KReal) {
      Failed = true;
      return "0";
    }
    const RegFact &F = Cur[static_cast<size_t>(R)];
    if (!F.HasConst)
      return "(int64_t)" + rv(R, Ln);
    // A constant in range truncates exactly here. Outside it (and for
    // NaN) the host's conversion instruction decides, as it does in
    // the interpreter: keep that a run-time conversion, which the host
    // compiler's constant folder (it saturates) must not see.
    double V;
    std::memcpy(&V, &F.Bits, sizeof(V));
    if (V >= -0x1p63 && V < 0x1p63)
      return intLiteral(static_cast<int64_t>(V));
    return "(int64_t)sfOpaque(" + realLiteral(V) + ")";
  }
  /// Activity of lane \p Ln under the current (static-depth) mask; the
  /// base level is all ones, and a level the fused group wrote is its
  /// local.
  std::string act(const std::string &Ln = "L") {
    if (Depth == 0)
      return "1";
    if (InGroup && MaskLocal[static_cast<size_t>(Depth)] >= 0)
      return "m" + i2s(MaskLocal[static_cast<size_t>(Depth)]);
    return "MaskCur[" + i2s(Depth * Lanes) + " + " + Ln + "]";
  }
  std::string maskPtr() { return "MaskCur + " + i2s(Depth * Lanes); }
  std::string trap(interp::TrapKind K, const std::string &Loc,
                   const std::string &Detail, bool WithLanes) {
    return "sfTrap(" + i2s(trapCode(K)) + ", " + Loc + ", " + Detail +
           (WithLanes ? ", BadL, NBad);" : ", nullptr, 0);");
  }

  /// "Lane L of a subscript is out of bounds" over \p N index registers
  /// of \p S, as one branch-free expression.
  std::string oobExpr(const SlotFacts &S, const int32_t *Ops, int32_t N);
  /// Row-major flat offset of the in-bounds subscripts at lane L.
  std::string flatExpr(const SlotFacts &S, const int32_t *Ops, int32_t N);
  std::string commExpr(const SlotFacts &S, const int32_t *Ops);
  /// Uniformity check of \p R (uniformInt); leaves the value in First.
  void emitUniform(int32_t R, const std::string &What,
                   const std::string &Loc);
};

bool Emitter::collectSlots() {
  Slots.reserve(EP.SlotNames.size());
  for (const std::string &Name : EP.SlotNames) {
    const ir::VarDecl *D = IRP.lookupVar(Name);
    if (!D)
      return false;
    SlotFacts F;
    F.Name = Name;
    F.IsArray = D->isArray();
    F.IsReal = D->Kind == ir::ScalarKind::Real;
    F.Kind = static_cast<int>(D->Kind);
    F.Distributed = D->Distribution == ir::Dist::Distributed;
    F.Dims = D->Dims;
    if (F.IsArray)
      F.Width = D->numElements();
    else
      F.Width = D->Distribution == ir::Dist::Replicated ? Lanes : 1;
    Slots.push_back(std::move(F));
  }
  return true;
}

bool Emitter::loadedConst(const Instr &I, uint8_t &Kind,
                          int64_t &Bits) const {
  switch (I.Op) {
  case Opcode::LdInt:
    if (I.B < 0 || static_cast<size_t>(I.B) >= EP.IntPool.size())
      return false;
    Kind = KInt;
    Bits = EP.IntPool[static_cast<size_t>(I.B)];
    return true;
  case Opcode::LdReal:
    if (I.B < 0 || static_cast<size_t>(I.B) >= EP.RealPool.size())
      return false;
    Kind = KReal;
    Bits = static_cast<int64_t>(bitsOf(EP.RealPool[static_cast<size_t>(I.B)]));
    return true;
  case Opcode::LdBool:
    Kind = KBool;
    Bits = I.B != 0 ? 1 : 0;
    return true;
  case Opcode::NumLanesOp:
    Kind = KInt;
    Bits = Lanes;
    return true;
  default:
    return false;
  }
}

void Emitter::define(int32_t R, uint8_t Kind, bool HasConst, int64_t Bits) {
  if (!validReg(R))
    return;
  RegFact &F = Cur[static_cast<size_t>(R)];
  F.Kind = Kind;
  F.HasConst = HasConst;
  F.Bits = HasConst ? Bits : 0;
}

/// The transfer function: what \p I defines and how it moves the mask.
void Emitter::step(const Instr &I) {
  auto srcKind = [&](int32_t R) {
    return R >= 0 && R < NumRegs ? Cur[static_cast<size_t>(R)].Kind
                                 : static_cast<uint8_t>(KMixed);
  };
  switch (I.Op) {
  case Opcode::LdInt:
  case Opcode::LdReal:
  case Opcode::LdBool:
  case Opcode::NumLanesOp: {
    uint8_t K;
    int64_t Bits;
    if (!loadedConst(I, K, Bits)) {
      Failed = true;
      return;
    }
    define(I.A, K, true, Bits);
    return;
  }
  case Opcode::LdVar:
  case Opcode::Gather:
    if (const SlotFacts *S = slot(I.B))
      define(I.A, static_cast<uint8_t>(S->Kind));
    return;
  case Opcode::Neg:
  case Opcode::AbsOp:
  case Opcode::NotOp:
    define(I.A, srcKind(I.B));
    return;
  case Opcode::AndOp:
  case Opcode::OrOp:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::AnyAll:
    define(I.A, KBool);
    return;
  case Opcode::AddI:
  case Opcode::SubI:
  case Opcode::MulI:
  case Opcode::DivI:
  case Opcode::ModI:
  case Opcode::LaneIdx:
    define(I.A, KInt);
    return;
  case Opcode::AddR:
  case Opcode::SubR:
  case Opcode::MulR:
  case Opcode::DivR:
  case Opcode::SqrtOp:
    define(I.A, KReal);
    return;
  case Opcode::MaxMin:
    if ((I.D >> 1) > KBool || I.D < 0) {
      Failed = true;
      return;
    }
    define(I.A, static_cast<uint8_t>(I.D >> 1));
    return;
  case Opcode::LaneRed:
    define(I.A, srcKind(I.B) == KReal ? KReal : KInt);
    return;
  case Opcode::ArrRed:
    if (const SlotFacts *S = slot(I.B))
      define(I.A, S->IsReal ? KReal : KInt);
    return;
  case Opcode::CallOp:
    if (I.D < 0 || I.D > KBool) {
      Failed = true;
      return;
    }
    if (I.A >= 0)
      define(I.A, static_cast<uint8_t>(I.D));
    return;
  case Opcode::WherePush:
  case Opcode::FaLayerMask:
    ++Depth;
    if (Depth > MaxDepth)
      MaxDepth = Depth;
    return;
  case Opcode::WhereFlip:
    if (Depth < 1)
      Failed = true;
    return;
  case Opcode::MaskPop:
    if (--Depth < 0)
      Failed = true;
    return;
  default:
    return;
  }
}

void Emitter::loadBlock(int32_t B) {
  size_t Row = static_cast<size_t>(B) * static_cast<size_t>(NumRegs);
  for (size_t R = 0; R < static_cast<size_t>(NumRegs); ++R)
    Cur[R] = BlockIn[Row + R];
  Depth = BlockDepth[static_cast<size_t>(B)];
}

/// Merges the current facts into the entry of the block at \p PC;
/// returns true when that entry changed.
bool Emitter::flowTo(int32_t PC) {
  int32_t B = BlockAt[static_cast<size_t>(PC)];
  size_t Row = static_cast<size_t>(B) * static_cast<size_t>(NumRegs);
  int32_t &D = BlockDepth[static_cast<size_t>(B)];
  if (D < 0) {
    D = Depth;
    for (size_t R = 0; R < static_cast<size_t>(NumRegs); ++R)
      BlockIn[Row + R] = Cur[R];
    return true;
  }
  // The mask discipline is structural: every path into a block must
  // arrive at one depth, or the program is not emitted.
  if (D != Depth) {
    Failed = true;
    return false;
  }
  bool Changed = false;
  for (size_t R = 0; R < static_cast<size_t>(NumRegs); ++R) {
    RegFact &In = BlockIn[Row + R];
    RegFact M = In;
    if (M.Kind != Cur[R].Kind)
      M.Kind = KMixed;
    if (!(M.HasConst && Cur[R].HasConst && M.Bits == Cur[R].Bits)) {
      M.HasConst = false;
      M.Bits = 0;
    }
    if (!(M == In)) {
      In = M;
      Changed = true;
    }
  }
  return Changed;
}

bool Emitter::analyze() {
  size_t N = EP.Code.size();
  if (N == 0 || NumRegs < 0)
    return false;
  BlockAt.assign(N, -1);
  IsTarget.assign(N, 0);
  BlockAt[0] = 0;
  for (size_t PC = 0; PC < N; ++PC) {
    const Instr &I = EP.Code[PC];
    if (isBranch(I.Op)) {
      if (I.D < 0 || static_cast<size_t>(I.D) >= N)
        return false;
      IsTarget[static_cast<size_t>(I.D)] = 1;
      BlockAt[static_cast<size_t>(I.D)] = 0;
    }
    if (fallsThrough(I.Op) && PC + 1 == N)
      return false; // control would run off the end
    if ((isBranch(I.Op) || !fallsThrough(I.Op)) && PC + 1 < N)
      BlockAt[PC + 1] = 0;
  }
  int32_t NumBlocks = 0;
  for (int32_t &B : BlockAt)
    if (B >= 0)
      B = NumBlocks++;
  BlockIn.assign(static_cast<size_t>(NumBlocks) *
                     static_cast<size_t>(NumRegs),
                 RegFact{});
  BlockDepth.assign(static_cast<size_t>(NumBlocks), -1);
  BlockDepth[0] = 0;
  Cur.assign(static_cast<size_t>(NumRegs), RegFact{});

  for (bool Changed = true; Changed;) {
    Changed = false;
    bool Live = false;
    for (size_t PC = 0; PC < N; ++PC) {
      int32_t B = BlockAt[PC];
      if (B >= 0) {
        // Falling into a leader already merged this block's facts.
        Live = BlockDepth[static_cast<size_t>(B)] >= 0;
        if (Live)
          loadBlock(B);
      }
      if (!Live)
        continue;
      const Instr &I = EP.Code[PC];
      step(I);
      if (isBranch(I.Op))
        Changed |= flowTo(I.D);
      if (fallsThrough(I.Op) && BlockAt[PC + 1] >= 0)
        Changed |= flowTo(static_cast<int32_t>(PC + 1));
      if (Failed)
        return false;
      if (!fallsThrough(I.Op))
        Live = false;
    }
  }
  return true;
}

bool Emitter::fusible(const Instr &I) {
  switch (I.Op) {
  case Opcode::LdInt:
  case Opcode::LdReal:
  case Opcode::LdBool:
  case Opcode::NumLanesOp:
  case Opcode::LaneIdx:
  case Opcode::Neg:
  case Opcode::AbsOp:
  case Opcode::NotOp:
  case Opcode::AndOp:
  case Opcode::OrOp:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::AddI:
  case Opcode::SubI:
  case Opcode::MulI:
  case Opcode::AddR:
  case Opcode::SubR:
  case Opcode::MulR:
  case Opcode::DivR:
  case Opcode::MaxMin:
  case Opcode::WherePush:
  case Opcode::WhereFlip:
  case Opcode::FaLayerMask:
    return true;
  case Opcode::LdVar: {
    const SlotFacts *S = slot(I.B);
    return S && !S->IsArray; // a whole-array read traps
  }
  case Opcode::StVar: {
    const SlotFacts *S = slot(I.A);
    return S && S->Width != 1; // a control-variable store checks lanes
  }
  case Opcode::DivI:
  case Opcode::ModI: {
    // Only a literal divisor other than 0 and -1 cannot trap.
    if (!validReg(I.C))
      return false;
    const RegFact &D = Cur[static_cast<size_t>(I.C)];
    return D.HasConst && D.Bits != 0 && D.Bits != -1;
  }
  default:
    return false;
  }
}

size_t Emitter::emitGroup(size_t PC) {
  // The extent: lane-local instructions up to and including the first
  // masked commit. A FORALL layer mask writes its index slot before its
  // charge, so it only ever leads a group (see fuse()).
  GroupIn.assign(Cur.begin(), Cur.end());
  int32_t Depth0 = Depth;
  size_t End = PC;
  for (size_t P = PC;; ++P) {
    const Instr &I = EP.Code[P];
    if (P > PC && (BlockAt[P] >= 0 || I.Op == Opcode::FaLayerMask ||
                   !fusible(I)))
      break;
    End = P;
    step(I);
    if (Failed || I.Op == Opcode::StVar)
      break;
  }
  std::copy(GroupIn.begin(), GroupIn.end(), Cur.begin());
  Depth = Depth0;
  if (Failed)
    return End + 1;

  GroupText G;
  InGroup = true;
  Local.assign(static_cast<size_t>(NumRegs), NoLocal);
  MaskLocal.assign(static_cast<size_t>(MaxDepth) + 1, NoLocal);
  CondLocal.assign(static_cast<size_t>(MaxDepth) + 1, NoLocal);
  for (size_t P = PC; P <= End && !Failed; ++P) {
    fuse(P, EP.Code[P], G);
    step(EP.Code[P]);
  }
  InGroup = false;

  if (IsTarget[PC])
    ln("L" + i2s(static_cast<int64_t>(PC)) + ":;");
  ln("  {");
  Out += G.Pre;
  Out += G.Charges;
  ln("    for (int64_t L = 0; L < SF_LANES; ++L) {");
  Out += G.Body;
  ln("    }");
  Out += G.Tail;
  ln("  }");
  return End + 1;
}

void Emitter::fuse(size_t PC, const Instr &I, GroupText &G) {
  const std::string Loc = i2s(I.Loc);
  auto chargeOf = [&](CostKind K) {
    G.Charges += "    sfCharge(" + cost(K) + ", " + Loc + ");\n";
  };
  auto line = [&](const std::string &S) { G.Body += "      " + S + "\n"; };
  std::string V; // the value I defines, of kind K
  uint8_t K = KInt;
  switch (I.Op) {
  case Opcode::LdInt:
  case Opcode::LdReal:
  case Opcode::LdBool:
  case Opcode::NumLanesOp: {
    int64_t Bits;
    if (!loadedConst(I, K, Bits)) {
      Failed = true;
      return;
    }
    V = literal(K, Bits);
    break;
  }
  case Opcode::LdVar: {
    const SlotFacts *S = slot(I.B);
    if (!S)
      return;
    K = static_cast<uint8_t>(S->Kind);
    V = "S" + i2s(I.B) + (S->Width == 1 ? "[0]" : "[L]");
    break;
  }
  case Opcode::LaneIdx:
    V = "L + 1";
    break;
  case Opcode::Neg:
  case Opcode::AbsOp: {
    bool IsAbs = I.Op == Opcode::AbsOp;
    K = kindOf(I.B);
    if (Failed)
      return;
    chargeOf(K == KReal ? CostKind::RealOp : CostKind::IntOp);
    if (K == KReal)
      V = (IsAbs ? "__builtin_fabs(" : "-(") + rv(I.B) + ")";
    else
      V = (IsAbs ? "std::llabs(" : "-(") + iv(I.B) + ")";
    break;
  }
  case Opcode::NotOp:
    K = kindOf(I.B);
    chargeOf(CostKind::LogicOp);
    V = "!" + iv(I.B);
    break;
  case Opcode::AndOp:
  case Opcode::OrOp:
    K = KBool;
    chargeOf(CostKind::LogicOp);
    V = "(int64_t)((" + iv(I.B) + " != 0) " +
        (I.Op == Opcode::AndOp ? "&" : "|") + " (" + iv(I.C) + " != 0))";
    break;
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe: {
    const char *Op = I.Op == Opcode::CmpEq   ? " == "
                     : I.Op == Opcode::CmpNe ? " != "
                     : I.Op == Opcode::CmpLt ? " < "
                     : I.Op == Opcode::CmpLe ? " <= "
                     : I.Op == Opcode::CmpGt ? " > "
                                             : " >= ";
    K = KBool;
    chargeOf(CostKind::CmpOp);
    // Comparisons evaluate through double on every lane (the tree
    // walker's rule, int operands included).
    V = rv(I.B) + Op + rv(I.C);
    break;
  }
  case Opcode::AddI:
  case Opcode::SubI:
  case Opcode::MulI:
  case Opcode::DivI:
  case Opcode::ModI: {
    // fusible() let DivI/ModI in only with a literal divisor other than
    // 0 and -1, so no lane can trap or overflow.
    const char *Op = I.Op == Opcode::AddI   ? " + "
                     : I.Op == Opcode::SubI ? " - "
                     : I.Op == Opcode::MulI ? " * "
                     : I.Op == Opcode::DivI ? " / "
                                            : " % ";
    chargeOf(CostKind::IntOp);
    V = iv(I.B) + Op + iv(I.C);
    break;
  }
  case Opcode::AddR:
  case Opcode::SubR:
  case Opcode::MulR:
  case Opcode::DivR: {
    std::string Lh = rv(I.B), Rh = rv(I.C);
    K = KReal;
    chargeOf(CostKind::RealOp);
    if (I.Op == Opcode::DivR)
      // The guarded divide: a zero divisor yields 0.0 (tree behavior).
      V = Rh + " == 0.0 ? 0.0 : " + Lh + " / " + Rh;
    else
      V = Lh +
          (I.Op == Opcode::AddR   ? " + "
           : I.Op == Opcode::SubR ? " - "
                                  : " * ") +
          Rh;
    break;
  }
  case Opcode::MaxMin: {
    bool IsMax = (I.D & 1) != 0;
    K = static_cast<uint8_t>(I.D >> 1);
    if (I.D < 0 || K > KBool) {
      Failed = true;
      return;
    }
    std::string A = asKind(I.B, K), B = asKind(I.C, K);
    chargeOf(K == KReal ? CostKind::RealOp : CostKind::IntOp);
    // The comparisons std::max / std::min make, so NaN and signed-zero
    // operands pick the same side.
    V = IsMax ? "(" + A + " < " + B + ") ? " + B + " : " + A
              : "(" + B + " < " + A + ") ? " + B + " : " + A;
    break;
  }
  case Opcode::FaLayerMask:
  case Opcode::WherePush: {
    int32_t Lvl = Depth + 1;
    std::string Next = i2s(Lvl * Lanes), Par = act(), Cnd;
    if (I.Op == Opcode::FaLayerMask) {
      const SlotFacts *S = slot(I.A);
      if (!S)
        return;
      if (S->IsReal) {
        Failed = true;
        return;
      }
      // The interpreter sets the index lanes before it charges the mask,
      // so a trap at the charge sees them: that store leads the group.
      std::string E =
          Cyclic ? "Layer * SF_LANES + L + 1" : "L * Chunk + Layer + 1";
      G.Pre += "    const int64_t Layer = Ctl[" + i2s(I.B + 2) + "];\n";
      G.Pre += "    const int64_t Lo = Ctl[" + i2s(I.B) + "], Hi = Ctl[" +
               i2s(I.B + 1) + "];\n";
      G.Pre += "    const int64_t Chunk = Ctl[" + i2s(I.B + 3) +
               "]; (void)Chunk;\n";
      G.Pre += "    for (int64_t L = 0; L < SF_LANES; ++L) S" + i2s(I.A) +
               "[L] = " + E + ";\n";
      line("const int64_t E = " + E + ";");
      Cnd = "(uint8_t)(E >= Lo && E <= Hi)";
    } else {
      Cnd = "(uint8_t)(" + iv(I.A) + " != 0)";
    }
    chargeOf(CostKind::LogicOp);
    std::string C = "c" + i2s(static_cast<int64_t>(PC));
    std::string M = "m" + i2s(static_cast<int64_t>(PC));
    line("const uint8_t " + C + " = " + Cnd + ";");
    line("MaskCond[" + Next + " + L] = " + C + ";");
    line("const uint8_t " + M + " = (uint8_t)(" + Par + " & " + C + ");");
    line("MaskCur[" + Next + " + L] = " + M + ";");
    MaskLocal[static_cast<size_t>(Lvl)] = static_cast<int32_t>(PC);
    CondLocal[static_cast<size_t>(Lvl)] = static_cast<int32_t>(PC);
    return;
  }
  case Opcode::WhereFlip: {
    if (Depth < 1) {
      Failed = true;
      return;
    }
    size_t Lvl = static_cast<size_t>(Depth);
    --Depth;
    std::string Par = act();
    ++Depth;
    std::string Here = i2s(Depth * Lanes);
    std::string Cond = CondLocal[Lvl] >= 0
                           ? "c" + i2s(CondLocal[Lvl])
                           : "MaskCond[" + Here + " + L]";
    chargeOf(CostKind::LogicOp);
    std::string M = "m" + i2s(static_cast<int64_t>(PC));
    line("const uint8_t " + M + " = (uint8_t)(" + Par + " & !" + Cond +
         ");");
    line("MaskCur[" + Here + " + L] = " + M + ";");
    MaskLocal[Lvl] = static_cast<int32_t>(PC);
    return;
  }
  case Opcode::StVar: {
    const SlotFacts *S = slot(I.A);
    if (!S)
      return;
    std::string Val = asKind(I.B, S->Kind);
    chargeOf(CostKind::MoveOp);
    std::string Dst = "S" + i2s(I.A) + "[L]";
    // The masked commit selects bits, not values: idle lanes keep their
    // exact payload (-0.0, NaN), and the arithmetic above stays
    // unconditional, so the loop vectorizes. At depth 0 it is a store.
    if (Depth == 0)
      line(Dst + " = " + Val + ";");
    else
      line(Dst + " = " + (S->IsReal ? "sfSelR(" : "sfSelI(") + act() +
           ", " + Val + ", " + Dst + ");");
    G.Tail = "    if (W" + i2s(I.A) + ") sfWork(" + maskPtr() + ");\n";
    return;
  }
  default:
    Failed = true;
    return;
  }
  if (Failed || !validReg(I.A))
    return;
  // Later readers in the group use the local; every other reader, in
  // this block or past a branch, reads the lane array.
  std::string X = "x" + i2s(static_cast<int64_t>(PC));
  line(std::string(K == KReal ? "const double " : "const int64_t ") + X +
       " = " + V + ";");
  line((K == KReal ? dstR(I.A) : dstI(I.A)) + "[L] = " + X + ";");
  Local[static_cast<size_t>(I.A)] = static_cast<int32_t>(PC);
}

std::string Emitter::oobExpr(const SlotFacts &S, const int32_t *Ops,
                             int32_t N) {
  std::string E;
  for (int32_t Dim = 0; Dim < N; ++Dim) {
    int64_t Extent = Dim < static_cast<int32_t>(S.Dims.size())
                         ? S.Dims[static_cast<size_t>(Dim)]
                         : 0;
    if (!E.empty())
      E += " | ";
    // IdxV < 1 || IdxV > Extent, as one unsigned compare.
    if (Extent < 1)
      E += "1";
    else
      E += "(uint64_t)((uint64_t)" + iv(Ops[1 + Dim]) +
           " - 1 >= UINT64_C(" + i2s(Extent) + "))";
  }
  return E.empty() ? "0" : "(" + E + ")";
}

std::string Emitter::flatExpr(const SlotFacts &S, const int32_t *Ops,
                              int32_t N) {
  std::string E = "0";
  for (int32_t Dim = 0; Dim < N; ++Dim) {
    int64_t Extent = Dim < static_cast<int32_t>(S.Dims.size())
                         ? S.Dims[static_cast<size_t>(Dim)]
                         : 0;
    std::string Idx = "(";
    Idx += iv(Ops[1 + Dim]);
    Idx += " - 1)";
    E = Dim == 0 ? Idx : "(" + E + ") * " + i2s(Extent) + " + " + Idx;
  }
  return E;
}

std::string Emitter::commExpr(const SlotFacts &S, const int32_t *Ops) {
  return "(sfLaneOf(" + iv(Ops[1]) + ", " + i2s(S.Dims[0]) + ") != L)";
}

void Emitter::emitUniform(int32_t R, const std::string &What,
                          const std::string &Loc) {
  std::string V0 = iv(R, "0");
  if (Failed)
    return;
  ln("    const int64_t First = " + V0 + ";");
  if (Cur[static_cast<size_t>(R)].HasConst)
    return;
  // An OR reduction decides; only the failing path collects lanes.
  ln("    uint64_t Diff = 0;");
  ln("    for (int64_t L = 0; L < SF_LANES; ++L) Diff |= (uint64_t)(" +
     iv(R) + " != First);");
  ln("    if (Diff) {");
  ln("      NBad = 0;");
  ln("      for (int64_t L = 0; L < SF_LANES; ++L)");
  ln("        if (" + iv(R) + " != First) BadL[NBad++] = L;");
  ln("      " +
     trap(interp::TrapKind::NonUniformControl, Loc,
          lit(What + " is not control-uniform across lanes; lane-varying "
                     "control flow needs WHERE / WHILE ANY(...)"),
          true));
  ln("    }");
}

void Emitter::emitInstr(size_t PC, const Instr &I) {
  std::string Loc = i2s(I.Loc);
  if (IsTarget[PC])
    ln("L" + i2s(static_cast<int64_t>(PC)) + ":;");
  if (I.Op == Opcode::MaskPop)
    return; // the depth is static; popping is free
  ln("  {");
  const std::string Lp = "    for (int64_t L = 0; L < SF_LANES; ++L) ";
  switch (I.Op) {
  case Opcode::LdVar: {
    // Only the whole-array form reaches here (fusible() takes the rest).
    const SlotFacts *S = slot(I.B);
    if (S)
      ln("    " + trap(interp::TrapKind::InvalidProgram, Loc,
                       lit("whole-array reference to '" + S->Name +
                           "' outside a reduction"),
                       false));
    break;
  }
  case Opcode::Gather: {
    const SlotFacts *S = slot(I.B);
    const int32_t *Ops = extra(I.C);
    if (!S || !Ops || !validReg(I.A))
      break;
    int32_t N = Ops[0];
    std::string Dst = (S->IsReal ? dstR(I.A) : dstI(I.A)) + "[L]";
    std::string Sp = "S" + i2s(I.B);
    bool Comm = S->Distributed && !S->Dims.empty() && N >= 1;
    std::string Oob = oobExpr(*S, Ops, N);
    std::string Flat = flatExpr(*S, Ops, N);
    charge(cost(CostKind::GatherOp), Loc);
    // One bounds pass over every lane; the dense gather runs when no
    // lane (active or idle) is out of bounds.
    ln("    uint64_t Oob = 0;");
    ln(Lp + "Oob |= " + Oob + ";");
    ln("    if (!Oob) {");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L) {");
    if (Comm)
      ln("        Comm += (int64_t)(" + act() + " & " + commExpr(*S, Ops) +
         ");");
    ln("        " + Dst + " = " + Sp + "[" + Flat + "];");
    ln("      }");
    ln("    } else {");
    // The interpreter's sweep: idle out-of-bounds lanes read 0, active
    // ones are the trap's lane set.
    ln("      NBad = 0;");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L) {");
    ln("        " + Dst + " = " + (S->IsReal ? "0.0" : "0") + ";");
    ln("        if (" + Oob + ") {");
    ln("          if (" + act() + ") BadL[NBad++] = L;");
    ln("          continue;");
    ln("        }");
    if (Comm)
      ln("        if (" + act() + " && " + commExpr(*S, Ops) +
         ") Comm += 1;");
    ln("        " + Dst + " = " + Sp + "[" + Flat + "];");
    ln("      }");
    ln("      if (NBad)");
    ln("        " + trap(interp::TrapKind::OutOfBounds, Loc,
                         lit("active lane(s) read out of bounds from '" +
                             S->Name + "'"),
                         true));
    ln("    }");
    break;
  }
  case Opcode::StVar: {
    const SlotFacts *S = slot(I.A);
    if (!S)
      break;
    // A control variable (fusible() takes the masked commits): the
    // value must be uniform over active lanes.
    std::string V0 = asKind(I.B, S->Kind, "FirstActive");
    std::string V = asKind(I.B, S->Kind);
    charge(cost(CostKind::MoveOp), Loc);
    ln("    int64_t FirstActive = -1;");
    ln(Lp + "if (" + act() + ") { FirstActive = L; break; }");
    ln("    if (FirstActive >= 0) {");
    ln(std::string("      const ") + (S->IsReal ? "double" : "int64_t") +
       " Val = " + V0 + ";");
    ln("      uint64_t Diff = 0;");
    ln("      for (int64_t L = FirstActive; L < SF_LANES; ++L)");
    ln("        Diff |= (uint64_t)(" + act() + " & (" + V + " != Val));");
    ln("      if (Diff) {");
    ln("        NBad = 0;");
    ln("        for (int64_t L = FirstActive; L < SF_LANES; ++L)");
    ln("          if (" + act() + " && " + V + " != Val) BadL[NBad++] = L;");
    ln("        " + trap(interp::TrapKind::NonUniformControl, Loc,
                         lit("lane-varying store to control variable '" +
                             S->Name + "'"),
                         true));
    ln("      }");
    ln("      S" + i2s(I.A) + "[0] = Val;");
    ln("    }");
    ln("    if (W" + i2s(I.A) + ") sfWork(" + maskPtr() + ");");
    break;
  }
  case Opcode::StArr: {
    const SlotFacts *S = slot(I.A);
    const int32_t *Ops = extra(I.C);
    if (!S || !Ops)
      break;
    int32_t N = Ops[0];
    std::string Sp = "S" + i2s(I.A);
    std::string V = asKind(I.B, S->Kind);
    std::string Oob = oobExpr(*S, Ops, N);
    std::string Flat = flatExpr(*S, Ops, N);
    charge(cost(CostKind::ScatterOp), Loc);
    // Validate every active lane before committing any store: a
    // scatter with a faulting lane must not half-commit.
    ln("    uint64_t Oob = 0;");
    ln(Lp + "Oob |= (uint64_t)" + act() + " & " + Oob + ";");
    ln("    if (Oob) {");
    ln("      NBad = 0;");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L)");
    ln("        if (" + act() + " && " + Oob + ") BadL[NBad++] = L;");
    ln("      " + trap(interp::TrapKind::OutOfBounds, Loc,
                       lit("active lane(s) write out of bounds to '" +
                           S->Name + "'"),
                       true));
    ln("    }");
    // In lane order: of two active lanes hitting one element, the
    // later lane's value stays.
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) {");
    ln("      if (!" + act() + ") continue;");
    if (S->Distributed && !S->Dims.empty() && N >= 1)
      ln("      Comm += (int64_t)" + commExpr(*S, Ops) + ";");
    ln("      " + Sp + "[" + Flat + "] = " + V + ";");
    ln("    }");
    ln("    if (W" + i2s(I.A) + ") sfWork(" + maskPtr() + ");");
    break;
  }
  case Opcode::SetIdx: {
    const SlotFacts *S = slot(I.A);
    if (!S)
      break;
    if (S->IsReal) {
      Failed = true;
      break;
    }
    ln("    for (int64_t K2 = 0; K2 < " + i2s(S->Width) + "; ++K2) S" +
       i2s(I.A) + "[K2] = Ctl[" + i2s(I.B) + "];");
    break;
  }
  case Opcode::DivI:
  case Opcode::ModI: {
    if (!validReg(I.A))
      break;
    std::string Lh = iv(I.B), Rh = iv(I.C);
    if (Failed)
      break;
    charge(cost(CostKind::IntOp), Loc);
    std::string Dst = dstI(I.A) + "[L]";
    // A register divisor or the literals 0 and -1 (fusible() takes the
    // others). Division by zero on an idle lane is a don't-care (0);
    // active lanes dividing by zero trap. interp::divInt/modInt's rule
    // for -1: DIV negates through uint64_t, MOD is 0.
    std::string Q =
        I.Op == Opcode::ModI
            ? "(" + Rh + " == -1 ? 0 : " + Lh + " % " + Rh + ")"
            : "(" + Rh + " == -1 ? (int64_t)(0 - (uint64_t)" + Lh +
                  ") : " + Lh + " / " + Rh + ")";
    ln("    NBad = 0;");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) {");
    ln("      if (" + Rh + " == 0) {");
    ln("        if (" + act() + ") BadL[NBad++] = L;");
    ln("        " + Dst + " = 0;");
    ln("      } else {");
    ln("        " + Dst + " = " + Q + ";");
    ln("      }");
    ln("    }");
    ln("    if (NBad)");
    ln("      " +
       trap(interp::TrapKind::DivByZero, Loc,
            lit(std::string(I.Op == Opcode::ModI ? "MOD" : "division") +
                " by zero on active lane(s)"),
            true));
    break;
  }
  case Opcode::SqrtOp: {
    if (!validReg(I.A))
      break;
    if (kindOf(I.B) != KReal) {
      Failed = true;
      break;
    }
    std::string V = rv(I.B), Dst = dstR(I.A) + "[L]";
    charge(cost(CostKind::RealOp), Loc);
    ln("    uint64_t AnyNeg = 0;");
    ln(Lp + "AnyNeg |= (uint64_t)(" + V + " < 0.0);");
    ln("    if (AnyNeg) {");
    // Idle negative lanes produce the defined-away 0.0 without
    // trapping; active ones collect into the fault set.
    ln("      NBad = 0;");
    ln("      for (int64_t L = 0; L < SF_LANES; ++L) {");
    ln("        if (" + V + " < 0.0 && " + act() + ") BadL[NBad++] = L;");
    ln("        " + Dst + " = " + V + " < 0.0 ? 0.0 : __builtin_sqrt(" + V +
       ");");
    ln("      }");
    ln("      if (NBad)");
    ln("        " + trap(interp::TrapKind::DomainError, Loc,
                         lit("SQRT of a negative on active lane(s)"), true));
    ln("    } else {");
    ln("  " + Lp + Dst + " = __builtin_sqrt(" + V + ");");
    ln("    }");
    break;
  }
  case Opcode::AnyAll: {
    bool IsAll = I.D != 0;
    if (!validReg(I.A))
      break;
    charge(cost(CostKind::ReduceOp), Loc);
    // ANY ORs active true lanes; ALL ORs active false lanes and negates.
    ln("    uint64_t Hit = 0;");
    ln(Lp + "Hit |= (uint64_t)" + act() + " & (uint64_t)(" + iv(I.B) +
       (IsAll ? " == 0);" : " != 0);"));
    ln(Lp + dstI(I.A) + "[L] = " + (IsAll ? "Hit == 0" : "Hit != 0") +
       ";");
    break;
  }
  case Opcode::LaneRed: {
    bool IsMax = I.D == 0, IsMin = I.D == 1;
    uint8_t K = kindOf(I.B);
    if (Failed || !validReg(I.A))
      break;
    bool Real = K == KReal;
    charge(cost(CostKind::ReduceOp), Loc);
    if (IsMax || IsMin) {
      ln("    uint64_t AnyAct = 0;");
      ln(Lp + "AnyAct |= " + act() + ";");
      ln("    if (!AnyAct)");
      ln("      " + trap(interp::TrapKind::DomainError, Loc,
                         lit(std::string(IsMax ? "MAXRED" : "MINRED") +
                             " with no active lanes"),
                         false));
    }
    std::string V = Real ? rv(I.B) : iv(I.B);
    std::string Init = IsMax ? (Real ? realLiteral(-HUGE_VAL) : "INT64_MIN")
                       : IsMin ? (Real ? realLiteral(HUGE_VAL) : "INT64_MAX")
                       : (Real ? "0.0" : "INT64_C(0)");
    std::string Comb = IsMax   ? "(Acc < X) ? X : Acc"
                       : IsMin ? "(X < Acc) ? X : Acc"
                               : "Acc + X";
    // Masked, in lane order: SUM must accumulate left to right for FP
    // bit-identity across engines.
    ln(std::string("    ") + (Real ? "double" : "int64_t") + " Acc = " +
       Init + ";");
    ln("    for (int64_t L = 0; L < SF_LANES; ++L) {");
    ln(std::string("      const ") + (Real ? "double" : "int64_t") +
       " X = " + V + ";");
    ln("      Acc = " + act() + " ? " + Comb + " : Acc;");
    ln("    }");
    ln(Lp + (Real ? dstR(I.A) : dstI(I.A)) + "[L] = Acc;");
    break;
  }
  case Opcode::ArrRed: {
    const SlotFacts *S = slot(I.B);
    if (!S || !validReg(I.A))
      break;
    bool IsSum = I.D == 1;
    int64_t Layers = Machine.layersFor(S->Width);
    charge(cost(CostKind::ReduceOp) + " * " + i2s(Layers) + ".0", Loc);
    std::string T = S->IsReal ? "double" : "int64_t";
    std::string Init = IsSum ? (S->IsReal ? "0.0" : "INT64_C(0)")
                             : (S->IsReal ? realLiteral(-HUGE_VAL)
                                          : "INT64_MIN");
    ln("    " + T + " Acc = " + Init + ";");
    ln("    for (int64_t K2 = 0; K2 < " + i2s(S->Width) + "; ++K2) {");
    ln("      const " + T + " X = S" + i2s(I.B) + "[K2];");
    ln(std::string("      Acc = ") +
       (IsSum ? "Acc + X" : "(Acc < X) ? X : Acc") + ";");
    ln("    }");
    ln(Lp + (S->IsReal ? dstR(I.A) : dstI(I.A)) + "[L] = Acc;");
    break;
  }
  case Opcode::CallCheck: {
    if (I.B < 0 || static_cast<size_t>(I.B) >= EP.Callees.size()) {
      Failed = true;
      break;
    }
    const std::string &Callee = EP.Callees[static_cast<size_t>(I.B)];
    ln("    if (!Ctx->HasExterns)");
    ln("      " + trap(interp::TrapKind::ExternFailure, Loc,
                       lit("no extern registry for call to '" + Callee +
                           "'"),
                       false));
    ln("    if (!Ctx->CalleeBound[" + i2s(I.B) + "])");
    ln("      " + trap(interp::TrapKind::ExternFailure, Loc,
                       lit("unbound extern '" + Callee + "'"), false));
    break;
  }
  case Opcode::CallOp: {
    const int32_t *Ops = extra(I.C);
    if (!Ops || I.B < 0 || static_cast<size_t>(I.B) >= EP.Callees.size() ||
        (I.A >= 0 && !validReg(I.A))) {
      Failed = true;
      break;
    }
    int32_t N = Ops[0];
    int RetKind = I.D;
    HasCalls = true;
    if (N > MaxArgs)
      MaxArgs = N;
    charge("Ctx->CalleeCosts[" + i2s(I.B) + "]", Loc);
    ln("    if (Ctx->CalleeWork[" + i2s(I.B) + "]) sfWork(" + maskPtr() +
       ");");
    // Arguments go through the escaping argument buffers, so the
    // register arrays themselves never leave this frame.
    std::string Kinds, Ptrs;
    for (int32_t A = 0; A < N; ++A) {
      int32_t R = Ops[1 + A];
      uint8_t K = kindOf(R);
      if (Failed)
        break;
      std::string Buf = std::string(K == KReal ? "SfArgR" : "SfArgI") +
                        " + " + i2s(A * Lanes);
      ln(Lp + "(" + Buf + ")[L] = " + (K == KReal ? rv(R) : iv(R)) + ";");
      Kinds += i2s(K) + ", ";
      Ptrs += Buf + ", ";
    }
    if (Failed)
      break;
    ln("    static const int8_t Kinds[] = {" + Kinds + "0};");
    ln("    const void *const Args[] = {" + Ptrs + "nullptr};");
    // The callback gets a copy of the mask: the levels never escape.
    ln("    std::memcpy(MaskX, " + maskPtr() + ", SF_LANES);");
    ln("    sfSync();");
    std::string Ret =
        I.A < 0 ? "nullptr" : (RetKind == KReal ? "SfRetR" : "SfRetI");
    ln("    Ctx->CallVec(Ctx->Host, " + i2s(I.B) + ", " + Loc +
       ", MaskX, " + i2s(N) + ", Kinds, Args, " + i2s(RetKind) + ", " +
       Ret + ");");
    if (I.A >= 0)
      ln(Lp + (RetKind == KReal ? dstR(I.A) : dstI(I.A)) + "[L] = " + Ret +
         "[L];");
    break;
  }
  case Opcode::Jmp:
    ln("    goto L" + i2s(I.D) + ";");
    break;
  case Opcode::UBrFalse:
    emitUniform(I.A, msg(I.B), Loc);
    ln("    if (First == 0)");
    ln("      goto L" + i2s(I.D) + ";");
    break;
  case Opcode::ChargeOp:
    if (I.A < 0 || I.A > static_cast<int32_t>(CostKind::LoopOverhead)) {
      Failed = true;
      break;
    }
    charge(cost(static_cast<CostKind>(I.A)), Loc);
    break;
  case Opcode::LoopIter:
    ln("    sfLoopIter(" + Loc + ");");
    break;
  case Opcode::TrapMsg:
    ln("    sfTrap(" + i2s(I.A) + ", " + Loc + ", " + lit(msg(I.B)) +
       ", nullptr, 0);");
    break;
  case Opcode::Halt:
    ln("    sfSync();");
    ln("    return 0;");
    break;
  case Opcode::CtlFromReg:
    emitUniform(I.B, msg(I.C), Loc);
    ln("    Ctl[" + i2s(I.A) + "] = First;");
    break;
  case Opcode::CtlImm:
    if (I.B < 0 || static_cast<size_t>(I.B) >= EP.IntPool.size()) {
      Failed = true;
      break;
    }
    ln("    Ctl[" + i2s(I.A) + "] = " +
       intLiteral(EP.IntPool[static_cast<size_t>(I.B)]) + ";");
    break;
  case Opcode::CheckStep:
    ln("    if (Ctl[" + i2s(I.A) + "] == 0)");
    ln("      " + trap(interp::TrapKind::InvalidProgram, Loc, lit(msg(I.B)),
                       false));
    break;
  case Opcode::CtlInc:
    ln("    Ctl[" + i2s(I.A) + "] += 1;");
    break;
  case Opcode::TripRec:
    ln("    Ctx->TripRec(Ctx->Host, " + i2s(I.B) + ", Ctl[" + i2s(I.A) +
       "]);");
    break;
  case Opcode::DoTest:
    ln("    if (!(Ctl[" + i2s(I.A + 2) + "] > 0 ? Ctl[" + i2s(I.A) +
       "] <= Ctl[" + i2s(I.A + 1) + "] : Ctl[" + i2s(I.A) + "] >= Ctl[" +
       i2s(I.A + 1) + "]))");
    ln("      goto L" + i2s(I.D) + ";");
    break;
  case Opcode::DoStep:
    ln("    Ctl[" + i2s(I.A) + "] += Ctl[" + i2s(I.A + 2) + "];");
    break;
  case Opcode::FaBegin: {
    const SlotFacts *S = slot(I.A);
    if (!S)
      break;
    if (S->Width != Lanes) {
      ln("    " + trap(interp::TrapKind::InvalidProgram, Loc,
                       lit("FORALL index '" + S->Name +
                           "' must be a replicated variable"),
                       false));
      break;
    }
    ln("    if (Ctl[" + i2s(I.B + 1) + "] < Ctl[" + i2s(I.B) + "])");
    ln("      goto L" + i2s(I.D) + ";");
    ln("    Ctl[" + i2s(I.B + 2) + "] = 0;");
    ln("    Ctl[" + i2s(I.B + 3) + "] = sfLayers(Ctl[" + i2s(I.B + 1) +
       "]);");
    break;
  }
  case Opcode::FaLayerTest:
    ln("    if (Ctl[" + i2s(I.A + 2) + "] >= Ctl[" + i2s(I.A + 3) + "])");
    ln("      goto L" + i2s(I.D) + ";");
    break;
  case Opcode::MaskPop:
    break;
  case Opcode::LdInt:
  case Opcode::LdReal:
  case Opcode::LdBool:
  case Opcode::NumLanesOp:
  case Opcode::LaneIdx:
  case Opcode::Neg:
  case Opcode::AbsOp:
  case Opcode::NotOp:
  case Opcode::AndOp:
  case Opcode::OrOp:
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::AddI:
  case Opcode::SubI:
  case Opcode::MulI:
  case Opcode::AddR:
  case Opcode::SubR:
  case Opcode::MulR:
  case Opcode::DivR:
  case Opcode::MaxMin:
  case Opcode::WherePush:
  case Opcode::WhereFlip:
  case Opcode::FaLayerMask:
    Failed = true; // always fusible: emitGroup prints these
    break;
  }
  ln("  }");
}

/// The run's scratch: register payloads, mask levels and callback
/// buffers, as fixed-size arrays - on the stack, or carved out of one
/// heap block when \p Heap. Adds their size to \p Bytes.
std::string Emitter::frame(int64_t &Bytes, bool Heap) {
  std::string S;
  auto Array = [&](const char *Type, const std::string &Name, int64_t N,
                   int64_t Elem) {
    if (Heap)
      S += "  " + std::string(Type) + " *const " + Name + " = (" + Type +
           " *)(SfHeap.P + " + i2s(Bytes) + ");\n";
    else
      S += "  alignas(64) " + std::string(Type) + " " + Name + "[" + i2s(N) +
           "];\n";
    Bytes += (N * Elem + 63) / 64 * 64;
  };
  for (int32_t R = 0; R < NumRegs; ++R) {
    if (RegUse[static_cast<size_t>(R)] & 1)
      Array("int64_t", "Ri" + i2s(R), Lanes, 8);
    if (RegUse[static_cast<size_t>(R)] & 2)
      Array("double", "Rr" + i2s(R), Lanes, 8);
  }
  int64_t Levels = static_cast<int64_t>(MaxDepth) + 1;
  Array("uint8_t", "MaskCur", Levels * Lanes, 1);
  Array("uint8_t", "MaskCond", Levels * Lanes, 1);
  Array("int64_t", "BadL", Lanes, 8);
  Array("uint8_t", "MaskX", Lanes, 1);
  if (HasCalls) {
    int64_t Cells = (MaxArgs > 0 ? MaxArgs : 1) * Lanes;
    Array("int64_t", "SfArgI", Cells, 8);
    Array("double", "SfArgR", Cells, 8);
    Array("int64_t", "SfRetI", Lanes, 8);
    Array("double", "SfRetR", Lanes, 8);
  }
  return S;
}

std::string Emitter::emit() {
  if (Lanes < 1 || NumRegs < 0 || EP.NumCtl < 0)
    return {};
  if (!collectSlots())
    return {};
  if (!analyze())
    return {};

  // Body first: it decides which payloads and buffers the frame needs.
  RegUse.assign(static_cast<size_t>(NumRegs), 0);
  Out.reserve(EP.Code.size() * 160);
  bool Live = false;
  int32_t Block = 0;
  for (size_t PC = 0; PC < EP.Code.size();) {
    if (BlockAt[PC] >= 0) {
      Block = BlockAt[PC];
      Live = BlockDepth[static_cast<size_t>(Block)] >= 0;
      if (Live)
        loadBlock(Block);
    }
    // Unreachable code is not emitted; nothing reachable jumps there.
    if (!Live) {
      ++PC;
      continue;
    }
    const Instr &I = EP.Code[PC];
    if (fusible(I)) {
      PC = emitGroup(PC);
    } else {
      emitInstr(PC, I);
      step(I);
      if (!fallsThrough(I.Op))
        Live = false;
      ++PC;
    }
    if (Failed)
      return {};
  }
  std::string Body = std::move(Out);
  Out.clear();

  int64_t Bytes = 0;
  std::string Frame = frame(Bytes, false);
  bool Heap = Bytes > MaxStackFrameBytes;
  if (Heap) {
    Bytes = 0;
    Frame = frame(Bytes, true);
  }

  const std::string Prog = escapeString(EP.ProgName);
  // Room for the longest fuel / loop-limit detail around the name.
  const std::string DetailBytes = i2s(
      static_cast<int64_t>(EP.ProgName.size()) + 128);
  Out.reserve(Body.size() + Frame.size() + 8192);
  ln("// Generated by simdflat codegen::CppEmitter - do not edit.");
  ln("// program '" + Prog + "', lanes " + i2s(Lanes) + ", layout " +
     (Cyclic ? "cyclic" : "block") + ".");
  ln("#include <cstdint>");
  ln("#include <cstdio>");
  ln("#include <cstdlib>");
  ln("#include <cstring>");
  ln("");
  // Textual copy of the NativeAbi.h structs; the entry point verifies
  // AbiVersion + sizeof before touching anything else.
  ln("struct SfSlot { int64_t *I; double *R; int64_t Width; };");
  ln("struct SfContext {");
  ln("  int32_t AbiVersion; uint32_t StructBytes; void *Host;");
  ln("  SfSlot *Slots; double Costs[10]; int64_t Fuel;");
  ln("  int64_t MaxLoopIterations; int32_t HasDeadline; int32_t "
     "HasExterns;");
  ln("  double Cycles; int64_t Instructions; int64_t CommAccesses;");
  ln("  double *CalleeCosts; uint8_t *CalleeBound; uint8_t *CalleeWork;");
  ln("  uint8_t *SlotWork;");
  ln("  void (*Trap)(void *, int32_t, int32_t, const char *, const "
     "int64_t *, int64_t);");
  ln("  int32_t (*DeadlineExpired)(void *, int64_t);");
  ln("  void (*TripRec)(void *, int32_t, int64_t);");
  ln("  void (*WorkStep)(void *, const uint8_t *);");
  ln("  void (*CallVec)(void *, int32_t, int32_t, const uint8_t *, "
     "int32_t, const int8_t *, const void *const *, int32_t, void *);");
  ln("};");
  ln("");
  ln("#define SF_PROG \"" + Prog + "\"");
  ln("static constexpr int64_t SF_LANES = " + i2s(Lanes) + ";");
  ln("");
  ln("static inline double sfBits(uint64_t B) {");
  ln("  double V; std::memcpy(&V, &B, sizeof(V)); return V;");
  ln("}");
  // The masked commit: all bits of A on an active lane, of B on an idle
  // one.
  ln("static inline int64_t sfSelI(uint8_t Act, int64_t A, int64_t B) {");
  ln("  const int64_t M = -(int64_t)Act; return (A & M) | (B & ~M);");
  ln("}");
  ln("static inline double sfSelR(uint8_t Act, double A, double B) {");
  ln("  const uint64_t M = -(uint64_t)Act; uint64_t X, Y;");
  ln("  __builtin_memcpy(&X, &A, 8); __builtin_memcpy(&Y, &B, 8);");
  ln("  X = (X & M) | (Y & ~M); __builtin_memcpy(&A, &X, 8); return A;");
  ln("}");
  ln("static inline double sfOpaque(double V) {");
  ln("  volatile double X = V; return X;");
  ln("}");
  ln("static inline int64_t sfLayers(int64_t E) {");
  ln("  return E <= 0 ? 1 : (E + SF_LANES - 1) / SF_LANES;");
  ln("}");
  if (Cyclic)
    ln("static inline int64_t sfLaneOf(int64_t Index, int64_t) {"
       " return (Index - 1) % SF_LANES; }");
  else
    ln("static inline int64_t sfLaneOf(int64_t Index, int64_t Extent) {"
       " return (Index - 1) / sfLayers(Extent); }");
  ln("");
  // Cold exits, out of line so the hot function stays small. A trap
  // never returns: the host callback throws through this frame (the
  // module has unwind tables like everything else); abort() is a belt
  // for a misbehaving host.
  ln("__attribute__((noreturn, noinline, cold)) static void");
  ln("sfTrapOut(SfContext *Ctx, double Cy, int64_t In, int64_t Co, "
     "int32_t Kind,");
  ln("          int32_t Loc, const char *D, const int64_t *Lns, int64_t "
     "N) {");
  ln("  Ctx->Cycles = Cy; Ctx->Instructions = In; Ctx->CommAccesses = Co;");
  ln("  Ctx->Trap(Ctx->Host, Kind, Loc, D, Lns, N);");
  ln("  std::abort();");
  ln("}");
  ln("__attribute__((noreturn, noinline, cold)) static void");
  ln("sfFuelOut(SfContext *Ctx, double Cy, int64_t In, int64_t Co, int32_t "
     "Loc) {");
  ln("  char D[" + DetailBytes + "];");
  ln("  std::snprintf(D, sizeof(D), \"fuel budget of %lld instructions "
     "exhausted in '%s'\",");
  ln("                (long long)Ctx->Fuel, SF_PROG);");
  ln("  sfTrapOut(Ctx, Cy, In, Co, " +
     i2s(trapCode(interp::TrapKind::FuelExhausted)) +
     ", Loc, D, nullptr, 0);");
  ln("}");
  ln("__attribute__((noreturn, noinline, cold)) static void");
  ln("sfLoopOut(SfContext *Ctx, double Cy, int64_t In, int64_t Co, int32_t "
     "Loc) {");
  ln("  char D[" + DetailBytes + "];");
  ln("  std::snprintf(D, sizeof(D), \"loop iteration limit of %lld "
     "exceeded in '%s' \"");
  ln("                \"(non-terminating transform?)\",");
  ln("                (long long)Ctx->MaxLoopIterations, SF_PROG);");
  ln("  sfTrapOut(Ctx, Cy, In, Co, " +
     i2s(trapCode(interp::TrapKind::FuelExhausted)) +
     ", Loc, D, nullptr, 0);");
  ln("}");
  ln("__attribute__((noinline, cold)) static void");
  ln("sfPoll(SfContext *Ctx, double Cy, int64_t In, int64_t Co, int32_t "
     "Loc) {");
  ln("  Ctx->Cycles = Cy; Ctx->Instructions = In; Ctx->CommAccesses = Co;");
  ln("  if (Ctx->DeadlineExpired(Ctx->Host, In))");
  ln("    sfTrapOut(Ctx, Cy, In, Co, " +
     i2s(trapCode(interp::TrapKind::DeadlineExpired)) +
     ", Loc, \"wall-clock deadline expired in '\" SF_PROG \"'\", "
     "nullptr, 0);");
  ln("}");
  ln("");
  ln("extern \"C\" int32_t simdflat_native_run(SfContext *Ctx) {");
  ln("  if (Ctx->AbiVersion != " + i2s(SfNativeAbiVersion) +
     " || Ctx->StructBytes != (uint32_t)sizeof(SfContext))");
  ln("    return 1;");
  if (Heap) {
    ln("  struct SfBlock { char *P; ~SfBlock() { std::free(P); } };");
    ln("  SfBlock SfHeap{(char *)std::calloc(1, " + i2s(Bytes) + ")};");
    ln("  if (!SfHeap.P) return 1;");
  }
  Out += Frame;
  ln("  int64_t Ctl[" + i2s(static_cast<int64_t>(EP.NumCtl) + 1) +
     "] = {};");
  ln("  int64_t NBad = 0; (void)NBad;");
  ln("  for (int64_t L = 0; L < SF_LANES; ++L) MaskCur[L] = 1;");
  // Per-run facts, read once: nothing the module calls changes them.
  for (size_t S = 0; S < Slots.size(); ++S) {
    std::string N = i2s(static_cast<int64_t>(S));
    ln(std::string("  ") + (Slots[S].IsReal ? "double" : "int64_t") +
       " *const S" + N + " = Ctx->Slots[" + N + "]." +
       (Slots[S].IsReal ? "R" : "I") + "; (void)S" + N + ";");
    ln("  const bool W" + N + " = Ctx->SlotWork[" + N + "] != 0; (void)W" +
       N + ";");
  }
  for (int K = 0; K <= static_cast<int>(CostKind::LoopOverhead); ++K)
    ln("  const double C" + i2s(K) + " = Ctx->Costs[" + i2s(K) +
       "]; (void)C" + i2s(K) + ";");
  ln("  const int64_t FuelCap = Ctx->Fuel > 0 ? Ctx->Fuel : INT64_MAX;");
  ln("  const int64_t MaxLoopIters = Ctx->MaxLoopIterations;");
  ln("  const bool HasDeadline = Ctx->HasDeadline != 0;");
  ln("  double Cycles = Ctx->Cycles;");
  ln("  int64_t Instructions = Ctx->Instructions;");
  ln("  int64_t Comm = Ctx->CommAccesses;");
  ln("  int64_t LoopIterations = 0;");
  ln("");
  ln("  auto sfSync = [&]() {");
  ln("    Ctx->Cycles = Cycles;");
  ln("    Ctx->Instructions = Instructions;");
  ln("    Ctx->CommAccesses = Comm;");
  ln("  };");
  ln("  auto sfTrap = [&](int32_t Kind, int32_t Loc, const char *D,");
  ln("                    const int64_t *Lns, int64_t N) {");
  ln("    sfTrapOut(Ctx, Cycles, Instructions, Comm, Kind, Loc, D, Lns, N);");
  ln("  };");
  ln("  auto sfCharge = [&](double C, int32_t Loc) {");
  ln("    Cycles += C;");
  ln("    Instructions += 1;");
  ln("    if (__builtin_expect(Instructions > FuelCap, 0))");
  ln("      sfFuelOut(Ctx, Cycles, Instructions, Comm, Loc);");
  ln("    if (HasDeadline && Instructions % " +
     i2s(interp::DeadlineCheckInterval) + " == 1)");
  ln("      sfPoll(Ctx, Cycles, Instructions, Comm, Loc);");
  ln("  };");
  ln("  auto sfLoopIter = [&](int32_t Loc) {");
  ln("    if (__builtin_expect(++LoopIterations > MaxLoopIters, 0))");
  ln("      sfLoopOut(Ctx, Cycles, Instructions, Comm, Loc);");
  ln("    sfCharge(" + cost(CostKind::LoopOverhead) + ", Loc);");
  ln("  };");
  ln("  auto sfWork = [&](const uint8_t *M) {");
  ln("    std::memcpy(MaskX, M, SF_LANES);");
  ln("    sfSync();");
  ln("    Ctx->WorkStep(Ctx->Host, MaskX);");
  ln("  };");
  ln("  (void)sfTrap; (void)sfLoopIter; (void)sfWork;");
  ln("");
  Out += Body;
  // Unreachable tail (every path returns through Halt or a trap).
  ln("  return 0;");
  ln("}");
  return std::move(Out);
}

} // namespace

std::string codegen::emitCpp(const Program &EP, const ir::Program &IRP,
                             const machine::MachineConfig &Machine) {
  return Emitter(EP, IRP, Machine).emit();
}
