//===- exec/Disassembler.cpp ----------------------------------*- C++ -*-===//

#include "exec/Bytecode.h"

#include "interp/Trap.h"
#include "support/Error.h"

#include <cstdio>

using namespace simdflat;
using namespace simdflat::exec;

const char *exec::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::LdInt:
    return "ld.int";
  case Opcode::LdReal:
    return "ld.real";
  case Opcode::LdBool:
    return "ld.bool";
  case Opcode::LdVar:
    return "ld.var";
  case Opcode::Gather:
    return "gather";
  case Opcode::StVar:
    return "st.var";
  case Opcode::StArr:
    return "st.arr";
  case Opcode::SetIdx:
    return "set.idx";
  case Opcode::Neg:
    return "neg";
  case Opcode::NotOp:
    return "not";
  case Opcode::AndOp:
    return "and";
  case Opcode::OrOp:
    return "or";
  case Opcode::CmpEq:
    return "cmp.eq";
  case Opcode::CmpNe:
    return "cmp.ne";
  case Opcode::CmpLt:
    return "cmp.lt";
  case Opcode::CmpLe:
    return "cmp.le";
  case Opcode::CmpGt:
    return "cmp.gt";
  case Opcode::CmpGe:
    return "cmp.ge";
  case Opcode::AddI:
    return "add.i";
  case Opcode::SubI:
    return "sub.i";
  case Opcode::MulI:
    return "mul.i";
  case Opcode::DivI:
    return "div.i";
  case Opcode::ModI:
    return "mod.i";
  case Opcode::AddR:
    return "add.r";
  case Opcode::SubR:
    return "sub.r";
  case Opcode::MulR:
    return "mul.r";
  case Opcode::DivR:
    return "div.r";
  case Opcode::MaxMin:
    return "maxmin";
  case Opcode::AbsOp:
    return "abs";
  case Opcode::SqrtOp:
    return "sqrt";
  case Opcode::LaneIdx:
    return "laneindex";
  case Opcode::NumLanesOp:
    return "numlanes";
  case Opcode::AnyAll:
    return "anyall";
  case Opcode::LaneRed:
    return "lanered";
  case Opcode::ArrRed:
    return "arrred";
  case Opcode::CallCheck:
    return "call.check";
  case Opcode::CallOp:
    return "call";
  case Opcode::Jmp:
    return "jmp";
  case Opcode::UBrFalse:
    return "ubr.false";
  case Opcode::ChargeOp:
    return "charge";
  case Opcode::LoopIter:
    return "loop.iter";
  case Opcode::TrapMsg:
    return "trap";
  case Opcode::Halt:
    return "halt";
  case Opcode::CtlFromReg:
    return "ctl.fromreg";
  case Opcode::CtlImm:
    return "ctl.imm";
  case Opcode::CheckStep:
    return "check.step";
  case Opcode::CtlInc:
    return "ctl.inc";
  case Opcode::TripRec:
    return "trip.rec";
  case Opcode::DoTest:
    return "do.test";
  case Opcode::DoStep:
    return "do.step";
  case Opcode::FaBegin:
    return "fa.begin";
  case Opcode::FaLayerTest:
    return "fa.layertest";
  case Opcode::FaLayerMask:
    return "fa.layermask";
  case Opcode::WherePush:
    return "where.push";
  case Opcode::WhereFlip:
    return "where.flip";
  case Opcode::MaskPop:
    return "mask.pop";
  }
  SIMDFLAT_UNREACHABLE("bad Opcode");
}

namespace {

/// Human-oriented annotation for operands that index a pool.
std::string annotate(const Program &P, const Instr &I) {
  auto Slot = [&](int32_t S) { return " ; " + P.SlotNames[S]; };
  switch (I.Op) {
  case Opcode::LdInt:
  case Opcode::CtlImm:
    return " ; " + std::to_string(P.IntPool[I.B]);
  case Opcode::LdReal:
    return " ; " + std::to_string(P.RealPool[I.B]);
  case Opcode::LdVar:
  case Opcode::Gather:
    return Slot(I.B);
  case Opcode::StVar:
  case Opcode::StArr:
  case Opcode::SetIdx:
  case Opcode::FaBegin:
  case Opcode::FaLayerMask:
    return Slot(I.A);
  case Opcode::ArrRed:
    return Slot(I.B);
  case Opcode::CallCheck:
  case Opcode::CallOp:
    return " ; " + P.Callees[I.B];
  case Opcode::TrapMsg:
    // A is a TrapKind, not a register: show its name so a reader does
    // not chase a phantom register index.
    return " ; " +
           std::string(interp::trapKindName(
               static_cast<interp::TrapKind>(I.A))) +
           " \"" + P.Msgs[I.B] + "\"";
  case Opcode::CheckStep:
    return " ; \"" + P.Msgs[I.B] + "\"";
  case Opcode::UBrFalse:
    // B is the uniformity-violation message index.
    return " ; \"" + P.Msgs[I.B] + "\"";
  case Opcode::CtlFromReg:
    // C names the uniformity message.
    return " ; \"" + P.Msgs[I.C] + "\"";
  case Opcode::TripRec:
    return " ; " + P.LoopNames[I.B];
  default:
    return {};
  }
}

} // namespace

std::string exec::disassemble(const Program &P) {
  std::string Out;
  Out += "program '" + P.ProgName +
         "' regs=" + std::to_string(P.NumRegs) +
         " ctl=" + std::to_string(P.NumCtl) +
         " code=" + std::to_string(P.Code.size()) + "\n";
  for (size_t PC = 0; PC < P.Code.size(); ++PC) {
    const Instr &I = P.Code[PC];
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "%5zu: %-13s %6d %6d %6d %6d", PC,
                  opcodeName(I.Op), I.A, I.B, I.C, I.D);
    Out += Buf;
    Out += annotate(P, I);
    Out += '\n';
  }
  return Out;
}
