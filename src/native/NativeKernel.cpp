//===- NativeKernel.cpp - Bytecode -> host-executable lowering -------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// Forward plane dataflow over the bytecode's structured control flow.
// Typed opcodes carry their plane in the instruction; the analysis exists
// for the untyped ones: the synthesizer reuses scratch registers across
// planes (an int immediate at one PC, a float at the next), so "which
// plane is live in r6" is a property of the program point, not the
// register. The lattice per (point, register) is
//
//   All < {Int, F32, F64} < Conflict
//
// where All (bottom) means every plane holds the same value — true at
// kernel entry for both never-written registers (all planes zero) and
// scalar parameters (the launcher fills all planes, exactly like the
// interpreter binding a whole Cell) — and Conflict (top) means different
// control-flow paths left the live value on different planes.
//
// The flow follows *per-lane* paths, not the interpreter's instruction
// pointer. The interpreter runs both sides of a divergent if under masks
// and skips a side only when its mask is empty, so the naive CFG edges
// push.if->else.if->pop.if would carry stale pre-branch state into the
// join and report conflicts no lane can observe (each lane executes
// exactly one side). Instead the analysis walks the structured
// constructs: both branch bodies start from the pre-if state and merge at
// the pop.if join; loops iterate body-exit state into the head until
// fixpoint, and the loop's exit state is the merge over every loop.test
// evaluation (a lane leaves at whichever test fails for it).
//
// Reads are validated against the final states: a typed read must find
// its operand on the instruction's plane (or All), and untyped
// copies/stores record the plane to move per PC. Conflict at any read
// rejects the kernel; the caller keeps interpreting it.
//
//===----------------------------------------------------------------------===//

#include "native/NativeKernel.h"

#include "native/VecTraits.h"
#include "support/ReduceOp.h"
#include "support/StringUtils.h"

using namespace tangram;
using namespace tangram::ir;
using namespace tangram::native;
using support::Expected;
using support::Status;
using support::StatusCode;

const char *tangram::native::getHostSimdIsa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__) || defined(__x86_64__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

namespace {

/// Lattice values for the per-point register state.
enum : uint8_t { LAll = 0, LInt = 1, LF32 = 2, LF64 = 3, LConflict = 4 };

uint8_t latOf(Plane P) {
  switch (P) {
  case Plane::Int:
    return LInt;
  case Plane::F32:
    return LF32;
  case Plane::F64:
    return LF64;
  }
  return LConflict;
}

uint8_t mergeLat(uint8_t A, uint8_t B) {
  if (A == B || B == LAll)
    return A;
  if (A == LAll)
    return B;
  return LConflict;
}

const char *latName(uint8_t L) {
  switch (L) {
  case LAll:
    return "uniform";
  case LInt:
    return "int";
  case LF32:
    return "f32";
  case LF64:
    return "f64";
  }
  return "conflicting";
}

ValuePlane valuePlaneOf(uint8_t L) {
  switch (L) {
  case LInt:
    return ValuePlane::Int;
  case LF32:
    return ValuePlane::F32;
  case LF64:
    return ValuePlane::F64;
  default:
    return ValuePlane::All;
  }
}

/// Applies one instruction's register writes to the lattice state \p S.
/// Reads are not checked here (validation runs once against the final
/// fixpoint states).
void transfer(const CompiledKernel &K, const Instr &In, std::vector<uint8_t> &S) {
  switch (In.Op) {
  case Opcode::MovImmI:
  case Opcode::ReadSpecial:
    S[In.Dst] = LInt;
    break;
  case Opcode::MovImmF:
  case Opcode::Cast:
  case Opcode::Neg:
  case Opcode::Red:
    S[In.Dst] = latOf(planeOf(In.Ty));
    break;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Div:
  case Opcode::Rem:
  case Opcode::Min:
  case Opcode::Max:
    S[In.Dst] = latOf(planeOf(In.Ty));
    break;
  case Opcode::SetLT:
  case Opcode::SetGT:
  case Opcode::SetLE:
  case Opcode::SetGE:
  case Opcode::SetEQ:
  case Opcode::SetNE:
  case Opcode::LAnd:
  case Opcode::LOr:
  case Opcode::Not:
    // Comparisons/logic read operands of the instruction type but always
    // produce a 0/1 integer (the interpreter's setI).
    S[In.Dst] = LInt;
    break;
  case Opcode::Mov:
  case Opcode::Shfl:
  case Opcode::MkPair:
    // Untyped copy: the destination holds whatever plane the source did.
    S[In.Dst] = S[In.Src1];
    break;
  case Opcode::LdGlobal:
    S[In.Dst] = latOf(planeOf(In.Ty));
    break;
  case Opcode::LdShared:
    if (In.MemId < K.SharedArrays.size())
      S[In.Dst] = latOf(planeOf(K.SharedArrays[In.MemId]->Elem));
    break;
  default:
    break; // Stores, atomics, control flow: no register writes.
  }
}

/// Walks the structured control flow, computing the per-lane entry state
/// at every reachable instruction (the merge over all paths a lane can
/// take to it).
struct StructuredFlow {
  const CompiledKernel &K;
  /// Entry state per PC; empty means never reached by any lane.
  std::vector<std::vector<uint8_t>> Entry;
  Status Fail;

  explicit StructuredFlow(const CompiledKernel &Kernel)
      : K(Kernel), Entry(Kernel.Code.size()) {}

  void record(uint32_t PC, const std::vector<uint8_t> &S) {
    if (Entry[PC].empty()) {
      Entry[PC] = S;
      return;
    }
    for (size_t R = 0; R != S.size(); ++R)
      Entry[PC][R] = mergeLat(Entry[PC][R], S[R]);
  }

  static void mergeInto(std::vector<uint8_t> &A,
                        const std::vector<uint8_t> &B) {
    for (size_t R = 0; R != A.size(); ++R)
      A[R] = mergeLat(A[R], B[R]);
  }

  bool structural(uint32_t PC, const char *What) {
    if (Fail.ok())
      Fail = Status(StatusCode::SynthesisError,
                    strformat("native lowering: %s (pc %u)", What, PC));
    return false;
  }

  /// Walks [From, To); \p S is the lane state on entry and holds the
  /// state at \p To on return. Returns false when no lane reaches \p To
  /// (the path hit Exit, or Fail is set).
  bool walk(uint32_t From, uint32_t To, std::vector<uint8_t> &S) {
    uint32_t PC = From;
    while (PC < To) {
      if (!Fail.ok())
        return false;
      const Instr &In = K.Code[PC];
      record(PC, S);
      switch (In.Op) {
      case Opcode::PushIf: {
        // Each lane runs exactly one side; the interpreter's empty-mask
        // skip jumps never leave per-lane state, so both bodies start
        // from the pre-if state and merge at the join.
        uint32_t Else = In.Target;
        if (Else <= PC || Else >= To)
          return structural(PC, "push.if target out of range");
        uint32_t Join = Else;
        bool ThenLive = true, ElseLive = true;
        std::vector<uint8_t> SThen = S;
        std::vector<uint8_t> SElse = std::move(S);
        if (K.Code[Else].Op == Opcode::ElseIf) {
          Join = K.Code[Else].Target;
          if (Join <= Else || Join >= To || K.Code[Join].Op != Opcode::PopIf)
            return structural(Else, "else.if without matching pop.if");
          ThenLive = walk(PC + 1, Else, SThen);
          ElseLive = walk(Else + 1, Join, SElse);
        } else if (K.Code[Else].Op == Opcode::PopIf) {
          ThenLive = walk(PC + 1, Else, SThen); // No else body.
        } else {
          return structural(PC, "push.if without else.if/pop.if target");
        }
        if (!Fail.ok())
          return false;
        if (ThenLive && ElseLive) {
          S = std::move(SThen);
          mergeInto(S, SElse);
        } else if (ThenLive) {
          S = std::move(SThen);
        } else if (ElseLive) {
          S = std::move(SElse);
        } else {
          return false; // Both sides exited.
        }
        PC = Join + 1; // Past the pop.if.
        break;
      }
      case Opcode::PushLoop: {
        // Layout: push.loop; head (predicate); loop.test ->exit; body;
        // jump ->head; exit. Iterate body-exit into the head state until
        // fixpoint; lanes leave at the test, so the state after the loop
        // is the merge over every test evaluation.
        uint32_t LT = PC + 1;
        while (LT < To && K.Code[LT].Op != Opcode::LoopTest) {
          if (K.Code[LT].Op == Opcode::PushLoop)
            return structural(PC, "nested loop in loop head");
          ++LT;
        }
        if (LT == To)
          return structural(PC, "push.loop without loop.test");
        uint32_t ExitPC = K.Code[LT].Target;
        if (ExitPC <= LT + 1 || ExitPC > To ||
            K.Code[ExitPC - 1].Op != Opcode::Jump ||
            K.Code[ExitPC - 1].Target != PC + 1)
          return structural(PC, "push.loop without matching back-edge");
        uint32_t Back = ExitPC - 1;
        std::vector<uint8_t> SExit;
        while (true) {
          std::vector<uint8_t> SIt = S;
          if (!walk(PC + 1, LT, SIt))
            return false; // Exit inside a loop head: treat as dead path.
          record(LT, SIt);
          if (SExit.empty())
            SExit = SIt;
          else
            mergeInto(SExit, SIt);
          bool BodyLive = walk(LT + 1, Back, SIt);
          if (!Fail.ok())
            return false;
          if (!BodyLive)
            break; // Body exits every lane; no back-edge state.
          bool Changed = false;
          for (size_t R = 0; R != S.size(); ++R) {
            uint8_t M = mergeLat(S[R], SIt[R]);
            if (M != S[R]) {
              S[R] = M;
              Changed = true;
            }
          }
          if (!Changed)
            break;
        }
        S = std::move(SExit);
        PC = ExitPC;
        break;
      }
      case Opcode::ElseIf:
      case Opcode::PopIf:
      case Opcode::LoopTest:
      case Opcode::Jump:
        // Only reachable through the structured cases above.
        return structural(PC, "unstructured control flow");
      case Opcode::Exit:
        return false; // This path's lanes are done.
      default:
        transfer(K, In, S);
        ++PC;
        break;
      }
    }
    return true;
  }
};

} // namespace

Expected<NativeKernel> tangram::native::lowerToNative(const CompiledKernel &K) {
  if (!K.Source)
    return Status(StatusCode::SynthesisError,
                  "native lowering: kernel has no source IR");
  const size_t NumInstr = K.Code.size();
  if (NumInstr == 0)
    return Status(StatusCode::SynthesisError,
                  "native lowering: empty kernel");

  // Shared accesses must name a known array (the machine sizes per-block
  // stack buffers from the declaration).
  for (uint32_t PC = 0; PC != NumInstr; ++PC) {
    const Instr &In = K.Code[PC];
    if ((In.Op == Opcode::LdShared || In.Op == Opcode::StShared ||
         In.Op == Opcode::AtomShared) &&
        In.MemId >= K.SharedArrays.size())
      return Status(StatusCode::SynthesisError,
                    strformat("native lowering: shared access to unknown "
                              "array %u (pc %u)",
                              In.MemId, PC));
  }

  // Per-lane structured flow: computes the entry state at every
  // reachable instruction. An empty state means no lane reaches it.
  StructuredFlow Flow(K);
  {
    std::vector<uint8_t> S(K.NumRegisters, LAll);
    Flow.walk(0, static_cast<uint32_t>(NumInstr), S);
  }
  if (!Flow.Fail.ok())
    return Flow.Fail;
  const std::vector<std::vector<uint8_t>> &Entry = Flow.Entry;

  NativeKernel NK;
  NK.Code = &K;
  NK.OperandPlane.assign(NumInstr, ValuePlane::All);

  // Validate every read against the final states and annotate the
  // plane-ambiguous operands.
  Status Fail;
  auto readAs = [&](const std::vector<uint8_t> &S, uint16_t Reg, Plane P,
                    uint32_t PC) {
    if (!Fail.ok() || S[Reg] == LAll || S[Reg] == latOf(P))
      return;
    Fail = Status(StatusCode::SynthesisError,
                  strformat("native lowering: register r%u holds %s data "
                            "but is read as %s (pc %u)",
                            Reg, latName(S[Reg]), getPlaneName(P), PC));
  };
  auto copyOf = [&](const std::vector<uint8_t> &S, uint16_t Reg,
                    uint32_t PC) -> ValuePlane {
    if (S[Reg] == LConflict && Fail.ok())
      Fail = Status(StatusCode::SynthesisError,
                    strformat("native lowering: register r%u holds values "
                              "from conflicting planes (pc %u)",
                              Reg, PC));
    return valuePlaneOf(S[Reg]);
  };

  for (uint32_t PC = 0; PC != NumInstr && Fail.ok(); ++PC) {
    const std::vector<uint8_t> &S = Entry[PC];
    if (S.empty())
      continue; // Unreachable; never executes.
    const Instr &In = K.Code[PC];
    Plane TyP = planeOf(In.Ty);
    switch (In.Op) {
    case Opcode::Mov:
      NK.OperandPlane[PC] = copyOf(S, In.Src1, PC);
      break;
    case Opcode::Shfl:
      NK.OperandPlane[PC] = copyOf(S, In.Src1, PC);
      readAs(S, In.Src2, Plane::Int, PC);
      break;
    case Opcode::MkPair:
      NK.OperandPlane[PC] = copyOf(S, In.Src1, PC);
      readAs(S, In.Src2, Plane::Int, PC);
      NK.PairMode = true;
      break;
    case Opcode::Cast:
      readAs(S, In.Src1, planeOf(static_cast<ScalarType>(In.Aux)), PC);
      break;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::Min:
    case Opcode::Max:
    case Opcode::SetLT:
    case Opcode::SetGT:
    case Opcode::SetLE:
    case Opcode::SetGE:
    case Opcode::SetEQ:
    case Opcode::SetNE:
    case Opcode::LAnd:
    case Opcode::LOr:
      readAs(S, In.Src1, TyP, PC);
      readAs(S, In.Src2, TyP, PC);
      break;
    case Opcode::Not:
    case Opcode::Neg:
      readAs(S, In.Src1, TyP, PC);
      break;
    case Opcode::Red:
      readAs(S, In.Src1, TyP, PC);
      readAs(S, In.Src2, TyP, PC);
      if (isArgReduce(static_cast<ReduceOp>(In.Aux)))
        NK.PairMode = true;
      break;
    case Opcode::LdGlobal:
    case Opcode::LdShared:
      readAs(S, In.Src1, Plane::Int, PC);
      break;
    case Opcode::StGlobal:
    case Opcode::StShared:
      readAs(S, In.Src1, Plane::Int, PC);
      NK.OperandPlane[PC] = copyOf(S, In.Src2, PC);
      break;
    case Opcode::AtomGlobal:
    case Opcode::AtomShared:
      readAs(S, In.Src1, Plane::Int, PC);
      NK.OperandPlane[PC] = copyOf(S, In.Src2, PC);
      if (isArgReduce(static_cast<ReduceOp>(In.Aux)))
        NK.PairMode = true;
      break;
    case Opcode::PushIf:
    case Opcode::LoopTest:
      // Predicates read the integer lane (interpreter: `.I != 0`); the
      // synthesizer materializes them via Set*/logic ops.
      readAs(S, In.Src1, Plane::Int, PC);
      break;
    case Opcode::MovImmI:
    case Opcode::MovImmF:
    case Opcode::ReadSpecial:
    case Opcode::Bar:
    case Opcode::ElseIf:
    case Opcode::PopIf:
    case Opcode::PushLoop:
    case Opcode::Jump:
    case Opcode::Exit:
      break;
    }
  }
  if (!Fail.ok())
    return Fail;

  // Plane usage: the integer plane always exists (addresses, predicates);
  // float planes are allocated when any instruction type, shared array, or
  // parameter touches them.
  NK.UsesInt = true;
  auto noteTy = [&](ScalarType Ty) {
    NK.UsesF32 |= planeOf(Ty) == Plane::F32;
    NK.UsesF64 |= planeOf(Ty) == Plane::F64;
  };
  for (const Instr &In : K.Code) {
    noteTy(In.Ty);
    if (In.Op == Opcode::Cast)
      noteTy(static_cast<ScalarType>(In.Aux));
  }
  for (const SharedArray *A : K.SharedArrays)
    noteTy(A->Elem);
  for (const auto &[P, Reg] : K.ScalarParamRegs) {
    (void)Reg;
    noteTy(P->Elem);
  }
  return NK;
}
