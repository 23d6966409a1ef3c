//===- CudaEmitter.cpp - CUDA C source emission -----------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "codegen/CudaEmitter.h"

#include "reduce/OpDef.h"
#include "support/ErrorHandling.h"
#include "support/StringUtils.h"

#include <climits>
#include <set>
#include <sstream>
#include <tuple>

using namespace tangram;
using namespace tangram::codegen;
using namespace tangram::ir;

namespace {

//===----------------------------------------------------------------------===//
// Pair / CAS usage analysis
//===----------------------------------------------------------------------===//

/// What the kernel needs from the emitted preamble: which locals, shared
/// arrays, and params carry (value, index) pairs, and which helper
/// functions (pair struct, combine, pair shuffle, CAS-loop atomics) must
/// be defined before the kernel. Empty for the canonical F32/Add kernels,
/// so their emission is byte-identical to the pre-op-axis output.
struct PairUsage {
  std::set<const Local *> PairLocals;
  std::set<const SharedArray *> PairArrays;
  std::set<const Param *> PairParams;
  /// Element types needing a `tgr_pair_<ty>` struct + make_pair helper.
  std::set<ScalarType> PairTypes;
  /// (op, elem) combine helpers (ArgMin/ArgMax).
  std::set<std::pair<ReduceOp, ScalarType>> CombineHelpers;
  /// (mode, elem) pair shuffle helpers.
  std::set<std::pair<ShuffleMode, ScalarType>> ShuffleHelpers;
  /// (op, elem, isPair) CAS-loop atomic helpers.
  std::set<std::tuple<ReduceOp, ScalarType, bool>> CasHelpers;
  /// Any pair-typed CAS helper uses the one-word spinlock emulation.
  bool NeedsPairLock = false;

  bool empty() const {
    return PairTypes.empty() && CasHelpers.empty();
  }

  void merge(const PairUsage &O) {
    PairLocals.insert(O.PairLocals.begin(), O.PairLocals.end());
    PairArrays.insert(O.PairArrays.begin(), O.PairArrays.end());
    PairParams.insert(O.PairParams.begin(), O.PairParams.end());
    PairTypes.insert(O.PairTypes.begin(), O.PairTypes.end());
    CombineHelpers.insert(O.CombineHelpers.begin(), O.CombineHelpers.end());
    ShuffleHelpers.insert(O.ShuffleHelpers.begin(), O.ShuffleHelpers.end());
    CasHelpers.insert(O.CasHelpers.begin(), O.CasHelpers.end());
    NeedsPairLock |= O.NeedsPairLock;
  }
};

/// Walks the kernel to a fixpoint, propagating pair-ness through locals,
/// shared arrays, and output params, then collects the helper set.
class PairScan {
public:
  void run(const Kernel &K) {
    // Fixpoint: pair-ness flows through assignments and stores.
    do {
      Changed = false;
      for (const Stmt *S : K.getBody())
        scanStmt(S);
    } while (Changed);
    Collect = true;
    for (const Stmt *S : K.getBody())
      scanStmt(S);
  }

  const PairUsage &usage() const { return U; }

  bool isPair(const Expr *E) const {
    switch (E->getKind()) {
    case Expr::Kind::MakePair:
      return true;
    case Expr::Kind::Combine:
      return reduce::getOpDef(cast<CombineExpr>(E)->getOp()).NeedsIndex;
    case Expr::Kind::Select: {
      const auto *S = cast<SelectExpr>(E);
      return isPair(S->getTrueVal()) || isPair(S->getFalseVal());
    }
    case Expr::Kind::Shuffle:
      return isPair(cast<ShuffleExpr>(E)->getValue());
    case Expr::Kind::LocalRef:
      return U.PairLocals.count(cast<LocalRefExpr>(E)->getLocal());
    case Expr::Kind::LoadShared:
      return U.PairArrays.count(cast<LoadSharedExpr>(E)->getArray());
    case Expr::Kind::LoadGlobal:
      return U.PairParams.count(cast<LoadGlobalExpr>(E)->getParam());
    default:
      return false;
    }
  }

private:
  template <typename SetT, typename ElemT>
  void mark(SetT &Set, ElemT E) {
    if (Set.insert(E).second)
      Changed = true;
  }

  void collectExpr(const Expr *E) {
    switch (E->getKind()) {
    case Expr::Kind::MakePair: {
      const auto *P = cast<MakePairExpr>(E);
      U.PairTypes.insert(P->getType());
      collectExpr(P->getValue());
      collectExpr(P->getIndex());
      return;
    }
    case Expr::Kind::Combine: {
      const auto *C = cast<CombineExpr>(E);
      if (reduce::getOpDef(C->getOp()).NeedsIndex) {
        U.PairTypes.insert(C->getType());
        U.CombineHelpers.emplace(C->getOp(), C->getType());
      }
      collectExpr(C->getLHS());
      collectExpr(C->getRHS());
      return;
    }
    case Expr::Kind::Shuffle: {
      const auto *S = cast<ShuffleExpr>(E);
      if (isPair(S->getValue()))
        U.ShuffleHelpers.emplace(S->getMode(), S->getType());
      collectExpr(S->getValue());
      collectExpr(S->getOffset());
      return;
    }
    case Expr::Kind::Select: {
      const auto *S = cast<SelectExpr>(E);
      collectExpr(S->getCond());
      collectExpr(S->getTrueVal());
      collectExpr(S->getFalseVal());
      return;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryOpExpr>(E);
      collectExpr(B->getLHS());
      collectExpr(B->getRHS());
      return;
    }
    case Expr::Kind::Unary:
      collectExpr(cast<UnaryOpExpr>(E)->getSub());
      return;
    case Expr::Kind::Cast:
      collectExpr(cast<CastExpr>(E)->getSub());
      return;
    case Expr::Kind::LoadGlobal:
      collectExpr(cast<LoadGlobalExpr>(E)->getIndex());
      return;
    case Expr::Kind::LoadShared:
      collectExpr(cast<LoadSharedExpr>(E)->getIndex());
      return;
    default:
      return;
    }
  }

  void recordAtomic(ReduceOp Op, ScalarType Elem, AtomicImpl Impl,
                    const Expr *Value) {
    bool Pair = reduce::getOpDef(Op).NeedsIndex || isPair(Value);
    if (Impl != AtomicImpl::CasLoop)
      return;
    U.CasHelpers.emplace(Op, Elem, Pair);
    if (Pair) {
      // The lock body folds through the combine helper.
      U.PairTypes.insert(Elem);
      U.CombineHelpers.emplace(Op, Elem);
      U.NeedsPairLock = true;
    }
  }

  void scanStmt(const Stmt *S) {
    switch (S->getKind()) {
    case Stmt::Kind::DeclLocal: {
      const auto *D = cast<DeclLocalStmt>(S);
      if (D->getInit()) {
        if (isPair(D->getInit()))
          mark(U.PairLocals, D->getLocal());
        if (Collect)
          collectExpr(D->getInit());
      }
      return;
    }
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      if (isPair(A->getValue()))
        mark(U.PairLocals, A->getLocal());
      if (Collect)
        collectExpr(A->getValue());
      return;
    }
    case Stmt::Kind::StoreGlobal: {
      const auto *St = cast<StoreGlobalStmt>(S);
      if (isPair(St->getValue()))
        mark(U.PairParams, St->getParam());
      if (Collect) {
        collectExpr(St->getIndex());
        collectExpr(St->getValue());
      }
      return;
    }
    case Stmt::Kind::StoreShared: {
      const auto *St = cast<StoreSharedStmt>(S);
      if (isPair(St->getValue()))
        mark(U.PairArrays, St->getArray());
      if (Collect) {
        collectExpr(St->getIndex());
        collectExpr(St->getValue());
      }
      return;
    }
    case Stmt::Kind::AtomicGlobal: {
      const auto *A = cast<AtomicGlobalStmt>(S);
      if (reduce::getOpDef(A->getOp()).NeedsIndex || isPair(A->getValue()))
        mark(U.PairParams, A->getParam());
      if (Collect) {
        recordAtomic(A->getOp(), A->getParam()->Elem, A->getImpl(),
                     A->getValue());
        collectExpr(A->getIndex());
        collectExpr(A->getValue());
      }
      return;
    }
    case Stmt::Kind::AtomicShared: {
      const auto *A = cast<AtomicSharedStmt>(S);
      if (reduce::getOpDef(A->getOp()).NeedsIndex || isPair(A->getValue()))
        mark(U.PairArrays, A->getArray());
      if (Collect) {
        recordAtomic(A->getOp(), A->getArray()->Elem, A->getImpl(),
                     A->getValue());
        collectExpr(A->getIndex());
        collectExpr(A->getValue());
      }
      return;
    }
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      if (Collect)
        collectExpr(I->getCond());
      for (const Stmt *Child : I->getThen())
        scanStmt(Child);
      for (const Stmt *Child : I->getElse())
        scanStmt(Child);
      return;
    }
    case Stmt::Kind::For: {
      const auto *F = cast<ForStmt>(S);
      if (Collect) {
        collectExpr(F->getInit());
        collectExpr(F->getCond());
        collectExpr(F->getStep());
      }
      for (const Stmt *Child : F->getBody())
        scanStmt(Child);
      return;
    }
    case Stmt::Kind::Barrier:
      return;
    }
  }

  PairUsage U;
  bool Changed = false;
  bool Collect = false;
};

std::string pairTypeName(ScalarType Ty) {
  return std::string("tgr_pair_") + reduce::getScalarTypeSpelling(Ty);
}

const char *shuffleModeName(ShuffleMode M) {
  switch (M) {
  case ShuffleMode::Down:
    return "down";
  case ShuffleMode::Up:
    return "up";
  case ShuffleMode::Xor:
    return "xor";
  case ShuffleMode::Idx:
    return "idx";
  }
  tgr_unreachable("unknown shuffle mode");
}

/// `__shfl_down` / `__shfl_down_sync` / `__shfl` spelling for a mode.
std::string shuffleIntrinsic(ShuffleMode M, bool Sync) {
  std::string Name = "__shfl";
  if (M != ShuffleMode::Idx)
    Name += std::string("_") + shuffleModeName(M);
  if (Sync)
    Name += "_sync";
  return Name;
}

/// The scalar CAS retry loop: reinterpret the accumulator word, fold the
/// update in the value domain, publish with atomicCAS until stable.
void renderScalarCasHelper(std::ostringstream &OS, ReduceOp Op,
                           ScalarType Ty) {
  const char *C = getScalarTypeName(Ty);
  const char *Suffix = reduce::getScalarTypeSpelling(Ty);
  bool Wide = is64BitType(Ty);
  const char *Word = Wide ? "unsigned long long" : "unsigned int";

  auto FromWord = [&](const char *W) -> std::string {
    if (Ty == ScalarType::F32)
      return std::string("__uint_as_float(") + W + ")";
    if (Ty == ScalarType::F64)
      return std::string("__longlong_as_double((long long)") + W + ")";
    return std::string("(") + C + ")" + W;
  };
  auto ToWord = [&](const char *V) -> std::string {
    if (Ty == ScalarType::F32)
      return std::string("__float_as_uint(") + V + ")";
    if (Ty == ScalarType::F64)
      return std::string("(unsigned long long)__double_as_longlong(") + V +
             ")";
    return std::string("(") + Word + ")" + V;
  };

  std::string Next;
  switch (Op) {
  case ReduceOp::Add:
    Next = "cur + val";
    break;
  case ReduceOp::Sub:
    Next = "cur - val";
    break;
  case ReduceOp::Min:
    Next = "min(cur, val)";
    break;
  case ReduceOp::Max:
    Next = "max(cur, val)";
    break;
  case ReduceOp::Any:
    Next = std::string("((cur != 0 || val != 0) ? (") + C + ")1 : (" + C +
           ")0)";
    break;
  case ReduceOp::ArgMin:
  case ReduceOp::ArgMax:
    tgr_unreachable("arg ops take the pair helper");
  }

  OS << "__device__ inline void tgr_atomic_" << getReduceOpSpelling(Op) << "_"
     << Suffix << "(" << C << " *addr, " << C << " val) {\n"
     << "  " << Word << " *word = (" << Word << " *)addr;\n"
     << "  " << Word << " seen = *word, assumed;\n"
     << "  do {\n"
     << "    assumed = seen;\n"
     << "    " << C << " cur = " << FromWord("assumed") << ";\n"
     << "    " << C << " next = " << Next << ";\n"
     << "    if (next == cur) break;\n"
     << "    seen = atomicCAS(word, assumed, " << ToWord("next") << ");\n"
     << "  } while (seen != assumed);\n"
     << "}\n";
}

/// The device-side helper preamble: pair structs, combine/shuffle helpers,
/// and CAS-loop atomics. Empty usage renders nothing, keeping the
/// canonical F32/Add emission untouched.
std::string renderPreamble(const PairUsage &U, const CudaEmitOptions &Options) {
  if (U.empty())
    return {};
  std::ostringstream OS;
  OS << "// Reduction-op runtime helpers (reduce::OpDef consumers).\n";

  for (ScalarType Ty : U.PairTypes) {
    const char *C = getScalarTypeName(Ty);
    std::string P = pairTypeName(Ty);
    const char *Suffix = reduce::getScalarTypeSpelling(Ty);
    OS << "struct " << P << " { " << C << " v; long long i; };\n";
    OS << "__device__ inline " << P << " tgr_make_pair_" << Suffix << "(" << C
       << " v, long long i) {\n  " << P << " p; p.v = v; p.i = i; return p;\n"
       << "}\n";
  }

  for (const auto &[Op, Ty] : U.CombineHelpers) {
    std::string P = pairTypeName(Ty);
    const char *Cmp = Op == ReduceOp::ArgMax ? ">" : "<";
    OS << "__device__ inline " << P << " tgr_combine_"
       << getReduceOpSpelling(Op) << "_" << reduce::getScalarTypeSpelling(Ty)
       << "(" << P << " a, " << P << " b) {\n"
       << "  if (a.v " << Cmp << " b.v) return a;\n"
       << "  if (b.v " << Cmp << " a.v) return b;\n"
       << "  return a.i <= b.i ? a : b; // Ties keep the smaller index.\n"
       << "}\n";
  }

  for (const auto &[Mode, Ty] : U.ShuffleHelpers) {
    std::string P = pairTypeName(Ty);
    std::string Intr = shuffleIntrinsic(Mode, Options.SyncShuffles);
    const char *Mask = Options.SyncShuffles ? "0xffffffff, " : "";
    OS << "__device__ inline " << P << " tgr_shfl_" << shuffleModeName(Mode)
       << "_" << reduce::getScalarTypeSpelling(Ty) << "(" << P
       << " p, int offset, int width) {\n"
       << "  " << P << " r;\n"
       << "  r.v = " << Intr << "(" << Mask << "p.v, offset, width);\n"
       << "  r.i = " << Intr << "(" << Mask << "p.i, offset, width);\n"
       << "  return r;\n"
       << "}\n";
  }

  if (U.NeedsPairLock)
    OS << "__device__ int tgr_pair_lock = 0;\n";

  for (const auto &[Op, Ty, Pair] : U.CasHelpers) {
    if (!Pair) {
      renderScalarCasHelper(OS, Op, Ty);
      continue;
    }
    // Paired-word update under the one-word spinlock; the OpDef lattice
    // only admits this emulation where forward progress is guaranteed
    // (Maxwell+), refusing it on Kepler.
    std::string P = pairTypeName(Ty);
    std::string Combine = std::string("tgr_combine_") +
                          getReduceOpSpelling(Op) + "_" +
                          reduce::getScalarTypeSpelling(Ty);
    OS << "__device__ inline void tgr_atomic_" << getReduceOpSpelling(Op)
       << "_" << reduce::getScalarTypeSpelling(Ty) << "(" << P << " *addr, "
       << P << " val) {\n"
       << "  for (;;) {\n"
       << "    if (atomicExch(&tgr_pair_lock, 1) == 0) {\n"
       << "      *addr = " << Combine << "(*addr, val);\n"
       << "      __threadfence();\n"
       << "      atomicExch(&tgr_pair_lock, 0);\n"
       << "      break;\n"
       << "    }\n"
       << "  }\n"
       << "}\n";
  }

  OS << "\n";
  return OS.str();
}

const char *binOpSpelling(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "/";
  case BinOp::Rem:
    return "%";
  case BinOp::LT:
    return "<";
  case BinOp::GT:
    return ">";
  case BinOp::LE:
    return "<=";
  case BinOp::GE:
    return ">=";
  case BinOp::EQ:
    return "==";
  case BinOp::NE:
    return "!=";
  case BinOp::LAnd:
    return "&&";
  case BinOp::LOr:
    return "||";
  case BinOp::Min:
  case BinOp::Max:
    tgr_unreachable("min/max print as calls");
  }
  tgr_unreachable("unknown binary op");
}

class Emitter {
public:
  Emitter(const Kernel &K, const CudaEmitOptions &Options,
          const PairScan &Scan)
      : K(K), Options(Options), Scan(Scan) {}

  /// Single-slot shared accumulators print in the paper's scalar form
  /// (`__shared__ int partial;`, Listing 3 line 5).
  static bool isScalarShared(const SharedArray *A) {
    if (A->IsDynamic || !A->Extent)
      return false;
    const auto *C = dyn_cast<IntConstExpr>(A->Extent);
    return C && C->getValue() == 1;
  }

  std::string run() {
    emitSignature();
    OS << " {\n";
    Depth = 1;
    emitSharedDecls();
    for (const Stmt *S : K.getBody())
      emitStmt(S);
    OS << "}\n";
    if (Options.EmitHostWrapper)
      emitHostWrapper();
    return OS.str();
  }

private:
  void indent() {
    for (unsigned I = 0; I != Depth; ++I)
      OS << "  ";
  }

  /// The printable C type of a value slot, pair-aware.
  std::string typeName(ScalarType Ty, bool Pair) const {
    return Pair ? pairTypeName(Ty) : getScalarTypeName(Ty);
  }

  std::string paramTypeName(const Param *P) const {
    return typeName(P->Elem, Scan.usage().PairParams.count(P) != 0);
  }

  void emitSignature() {
    OS << "__global__\nvoid " << K.getName() << "(";
    bool First = true;
    for (const auto &P : K.getParams()) {
      if (!First)
        OS << ", ";
      First = false;
      OS << paramTypeName(P.get()) << (P->IsPointer ? " *" : " ") << P->Name;
    }
    OS << ")";
  }

  /// True when an extent expression is launch-dependent (references
  /// blockDim/gridDim), requiring the `extern __shared__` form the paper's
  /// Listing 3 uses for dynamically-sized arrays.
  static bool isLaunchDependent(const Expr *E) {
    switch (E->getKind()) {
    case Expr::Kind::Special: {
      SpecialReg R = cast<SpecialExpr>(E)->getReg();
      return R == SpecialReg::BlockDimX || R == SpecialReg::GridDimX;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryOpExpr>(E);
      return isLaunchDependent(B->getLHS()) || isLaunchDependent(B->getRHS());
    }
    case Expr::Kind::Unary:
      return isLaunchDependent(cast<UnaryOpExpr>(E)->getSub());
    default:
      return false;
    }
  }

  std::string arrayTypeName(const SharedArray *A) const {
    return typeName(A->Elem, Scan.usage().PairArrays.count(A) != 0);
  }

  void emitSharedDecls() {
    for (const auto &A : K.getSharedArrays()) {
      indent();
      bool Dynamic = A->IsDynamic || (A->Extent && isLaunchDependent(A->Extent));
      if (Dynamic) {
        OS << "extern __shared__ " << arrayTypeName(A.get()) << " "
           << A->Name << "[];\n";
        continue;
      }
      OS << "__shared__ " << arrayTypeName(A.get()) << " " << A->Name;
      if (A->Extent && !isScalarShared(A.get())) {
        OS << "[";
        emitExpr(A->Extent);
        OS << "]";
      }
      OS << ";\n";
    }
  }

  void emitExpr(const Expr *E) {
    switch (E->getKind()) {
    case Expr::Kind::IntConst: {
      const auto *I = cast<IntConstExpr>(E);
      if (I->getType() == ScalarType::I64 && I->getValue() == LLONG_MIN) {
        // LLONG_MIN has no literal form (the unary minus applies to an
        // out-of-range constant).
        OS << "(-9223372036854775807ll - 1)";
        return;
      }
      OS << I->getValue();
      if (I->getType() == ScalarType::U32 && I->getValue() >= 0)
        OS << "u";
      else if (I->getType() == ScalarType::I64)
        OS << "ll";
      return;
    }
    case Expr::Kind::FloatConst: {
      const auto *F = cast<FloatConstExpr>(E);
      std::string Text = strformat("%g", F->getValue());
      if (Text.find('.') == std::string::npos &&
          Text.find('e') == std::string::npos)
        Text += ".0";
      OS << Text;
      // Doubles print without the float suffix.
      if (F->getType() != ScalarType::F64)
        OS << "f";
      return;
    }
    case Expr::Kind::LocalRef:
      OS << cast<LocalRefExpr>(E)->getLocal()->Name;
      return;
    case Expr::Kind::ParamRef:
      OS << cast<ParamRefExpr>(E)->getParam()->Name;
      return;
    case Expr::Kind::Special:
      switch (cast<SpecialExpr>(E)->getReg()) {
      case SpecialReg::ThreadIdxX:
        OS << "threadIdx.x";
        return;
      case SpecialReg::BlockIdxX:
        OS << "blockIdx.x";
        return;
      case SpecialReg::BlockDimX:
        OS << "blockDim.x";
        return;
      case SpecialReg::GridDimX:
        OS << "gridDim.x";
        return;
      case SpecialReg::WarpSize:
        OS << "warpSize";
        return;
      }
      return;
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryOpExpr>(E);
      if (B->getOp() == BinOp::Min || B->getOp() == BinOp::Max) {
        OS << (B->getOp() == BinOp::Min ? "min(" : "max(");
        emitExpr(B->getLHS());
        OS << ", ";
        emitExpr(B->getRHS());
        OS << ")";
        return;
      }
      OS << "(";
      emitExpr(B->getLHS());
      OS << " " << binOpSpelling(B->getOp()) << " ";
      emitExpr(B->getRHS());
      OS << ")";
      return;
    }
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryOpExpr>(E);
      OS << (U->getOp() == UnOp::Neg ? "-" : "!");
      OS << "(";
      emitExpr(U->getSub());
      OS << ")";
      return;
    }
    case Expr::Kind::Select: {
      const auto *S = cast<SelectExpr>(E);
      OS << "(";
      emitExpr(S->getCond());
      OS << " ? ";
      emitExpr(S->getTrueVal());
      OS << " : ";
      emitExpr(S->getFalseVal());
      OS << ")";
      return;
    }
    case Expr::Kind::LoadGlobal: {
      const auto *L = cast<LoadGlobalExpr>(E);
      if (L->getVectorWidth() > 1) {
        // Vectorized loads print as the helper the bandwidth-tuned
        // baselines use.
        OS << "load_vec" << L->getVectorWidth() << "(" << L->getParam()->Name
           << ", ";
        emitExpr(L->getIndex());
        OS << ")";
        return;
      }
      OS << L->getParam()->Name << "[";
      emitExpr(L->getIndex());
      OS << "]";
      return;
    }
    case Expr::Kind::LoadShared: {
      const auto *L = cast<LoadSharedExpr>(E);
      OS << L->getArray()->Name;
      if (!isScalarShared(L->getArray())) {
        OS << "[";
        emitExpr(L->getIndex());
        OS << "]";
      }
      return;
    }
    case Expr::Kind::Shuffle: {
      const auto *S = cast<ShuffleExpr>(E);
      const char *Name = nullptr;
      switch (S->getMode()) {
      case ShuffleMode::Down:
        Name = Options.SyncShuffles ? "__shfl_down_sync" : "__shfl_down";
        break;
      case ShuffleMode::Up:
        Name = Options.SyncShuffles ? "__shfl_up_sync" : "__shfl_up";
        break;
      case ShuffleMode::Xor:
        Name = Options.SyncShuffles ? "__shfl_xor_sync" : "__shfl_xor";
        break;
      case ShuffleMode::Idx:
        Name = Options.SyncShuffles ? "__shfl_sync" : "__shfl";
        break;
      }
      if (Scan.isPair(S->getValue())) {
        // Pair values shuffle both lanes through the preamble helper.
        OS << "tgr_shfl_" << shuffleModeName(S->getMode()) << "_"
           << reduce::getScalarTypeSpelling(S->getType()) << "(";
        emitExpr(S->getValue());
        OS << ", ";
        emitExpr(S->getOffset());
        OS << ", " << S->getWidth() << ")";
        return;
      }
      OS << Name << "(";
      if (Options.SyncShuffles)
        OS << "0xffffffff, ";
      emitExpr(S->getValue());
      OS << ", ";
      emitExpr(S->getOffset());
      OS << ", " << S->getWidth() << ")";
      return;
    }
    case Expr::Kind::Cast: {
      const auto *C = cast<CastExpr>(E);
      OS << "(" << getScalarTypeName(C->getType()) << ")(";
      emitExpr(C->getSub());
      OS << ")";
      return;
    }
    case Expr::Kind::MakePair: {
      const auto *P = cast<MakePairExpr>(E);
      OS << "tgr_make_pair_" << reduce::getScalarTypeSpelling(P->getType())
         << "(";
      emitExpr(P->getValue());
      OS << ", ";
      emitExpr(P->getIndex());
      OS << ")";
      return;
    }
    case Expr::Kind::Combine: {
      const auto *C = cast<CombineExpr>(E);
      if (reduce::getOpDef(C->getOp()).NeedsIndex) {
        OS << "tgr_combine_" << getReduceOpSpelling(C->getOp()) << "_"
           << reduce::getScalarTypeSpelling(C->getType()) << "(";
        emitExpr(C->getLHS());
        OS << ", ";
        emitExpr(C->getRHS());
        OS << ")";
        return;
      }
      // Any (and, defensively, the plain ALU ops) print inline.
      switch (C->getOp()) {
      case ReduceOp::Any:
        OS << "((";
        emitExpr(C->getLHS());
        OS << " != 0 || ";
        emitExpr(C->getRHS());
        OS << " != 0) ? 1 : 0)";
        return;
      case ReduceOp::Min:
      case ReduceOp::Max:
        OS << (C->getOp() == ReduceOp::Min ? "min(" : "max(");
        emitExpr(C->getLHS());
        OS << ", ";
        emitExpr(C->getRHS());
        OS << ")";
        return;
      default:
        OS << "(";
        emitExpr(C->getLHS());
        OS << (C->getOp() == ReduceOp::Sub ? " - " : " + ");
        emitExpr(C->getRHS());
        OS << ")";
        return;
      }
    }
    }
    tgr_unreachable("unknown expression kind");
  }

  void emitAtomicCall(ReduceOp Op, AtomicScope Scope, AtomicImpl Impl,
                      ScalarType Elem, const std::string &Dest,
                      const Expr *Value) {
    if (Impl == AtomicImpl::CasLoop) {
      // The atomic-expand pass planned a CAS retry loop (or the pair
      // spinlock emulation); the helper lives in the preamble.
      OS << "tgr_atomic_" << getReduceOpSpelling(Op) << "_"
         << reduce::getScalarTypeSpelling(Elem) << "(&" << Dest << ", ";
      emitExpr(Value);
      OS << ");\n";
      return;
    }
    OS << "atomic" << getReduceOpName(Op);
    if (Scope == AtomicScope::Block)
      OS << "_block";
    else if (Scope == AtomicScope::System)
      OS << "_system";
    OS << "(&" << Dest << ", ";
    emitExpr(Value);
    OS << ");\n";
  }

  std::string indexedName(const std::string &Base, const Expr *Index) {
    std::ostringstream Saved;
    Saved.swap(OS);
    emitExpr(Index);
    std::string IndexText = OS.str();
    Saved.swap(OS);
    return Base + "[" + IndexText + "]";
  }

  void emitStmt(const Stmt *S) {
    switch (S->getKind()) {
    case Stmt::Kind::DeclLocal: {
      const auto *D = cast<DeclLocalStmt>(S);
      indent();
      OS << typeName(D->getLocal()->Ty,
                     Scan.usage().PairLocals.count(D->getLocal()) != 0)
         << " " << D->getLocal()->Name;
      if (D->getInit()) {
        OS << " = ";
        emitExpr(D->getInit());
      }
      OS << ";\n";
      return;
    }
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      indent();
      OS << A->getLocal()->Name << " = ";
      emitExpr(A->getValue());
      OS << ";\n";
      return;
    }
    case Stmt::Kind::StoreGlobal: {
      const auto *St = cast<StoreGlobalStmt>(S);
      indent();
      OS << St->getParam()->Name << "[";
      emitExpr(St->getIndex());
      OS << "] = ";
      emitExpr(St->getValue());
      OS << ";\n";
      return;
    }
    case Stmt::Kind::StoreShared: {
      const auto *St = cast<StoreSharedStmt>(S);
      indent();
      OS << St->getArray()->Name;
      if (!isScalarShared(St->getArray())) {
        OS << "[";
        emitExpr(St->getIndex());
        OS << "]";
      }
      OS << " = ";
      emitExpr(St->getValue());
      OS << ";\n";
      return;
    }
    case Stmt::Kind::AtomicGlobal: {
      const auto *A = cast<AtomicGlobalStmt>(S);
      indent();
      emitAtomicCall(A->getOp(), A->getScope(), A->getImpl(),
                     A->getParam()->Elem,
                     indexedName(A->getParam()->Name, A->getIndex()),
                     A->getValue());
      return;
    }
    case Stmt::Kind::AtomicShared: {
      const auto *A = cast<AtomicSharedStmt>(S);
      indent();
      emitAtomicCall(A->getOp(), AtomicScope::Device, A->getImpl(),
                     A->getArray()->Elem,
                     isScalarShared(A->getArray())
                         ? A->getArray()->Name
                         : indexedName(A->getArray()->Name, A->getIndex()),
                     A->getValue());
      return;
    }
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      indent();
      OS << "if (";
      emitExpr(I->getCond());
      OS << ") {\n";
      ++Depth;
      for (const Stmt *Child : I->getThen())
        emitStmt(Child);
      --Depth;
      if (!I->getElse().empty()) {
        indent();
        OS << "} else {\n";
        ++Depth;
        for (const Stmt *Child : I->getElse())
          emitStmt(Child);
        --Depth;
      }
      indent();
      OS << "}\n";
      return;
    }
    case Stmt::Kind::For: {
      const auto *F = cast<ForStmt>(S);
      indent();
      OS << "for (" << getScalarTypeName(F->getIndVar()->Ty) << " "
         << F->getIndVar()->Name << " = ";
      emitExpr(F->getInit());
      OS << "; ";
      emitExpr(F->getCond());
      OS << "; " << F->getIndVar()->Name << " = ";
      emitExpr(F->getStep());
      OS << ") {\n";
      ++Depth;
      for (const Stmt *Child : F->getBody())
        emitStmt(Child);
      --Depth;
      indent();
      OS << "}\n";
      return;
    }
    case Stmt::Kind::Barrier:
      indent();
      OS << "__syncthreads();\n";
      return;
    }
    tgr_unreachable("unknown statement kind");
  }

  /// The first global atomic into \p P, if any.
  static const AtomicGlobalStmt *
  findAtomicInto(const std::vector<Stmt *> &Body, const Param *P) {
    for (const Stmt *S : Body) {
      const AtomicGlobalStmt *Found = nullptr;
      if (const auto *A = dyn_cast<AtomicGlobalStmt>(S))
        Found = A->getParam() == P ? A : nullptr;
      else if (const auto *If = dyn_cast<IfStmt>(S)) {
        Found = findAtomicInto(If->getThen(), P);
        if (!Found)
          Found = findAtomicInto(If->getElse(), P);
      } else if (const auto *F = dyn_cast<ForStmt>(S))
        Found = findAtomicInto(F->getBody(), P);
      if (Found)
        return Found;
    }
    return nullptr;
  }

  /// Seeds the accumulator the kernel folds into with its op's identity.
  /// Zero is the identity of Add/Sub/Any (and what stores overwrite).
  void emitAccumulatorSeed(const Param *Acc, const std::string &RetTy) {
    const AtomicGlobalStmt *A = findAtomicInto(K.getBody(), Acc);
    reduce::IdentityCell Id =
        reduce::getKernelIdentity(A ? A->getOp() : ReduceOp::Add, Acc->Elem);
    if (Id.F == 0 && Id.I == 0 && Id.Idx == 0) {
      OS << "  cudaMemset(" << Acc->Name << ", 0, sizeof(" << RetTy
         << "));\n";
      return;
    }
    IntConstExpr IntValue(Id.I, Acc->Elem);
    FloatConstExpr FloatValue(Id.F, Acc->Elem);
    const Expr *Value = isFloatType(Acc->Elem)
                            ? static_cast<const Expr *>(&FloatValue)
                            : &IntValue;
    bool Pair = isArgReduce(A->getOp());
    OS << "  " << RetTy << " init;\n  init" << (Pair ? ".v" : "") << " = ";
    emitExpr(Value);
    OS << ";\n";
    if (Pair)
      OS << "  init.i = " << Id.Idx << "ll;\n";
    OS << "  cudaMemcpy(" << Acc->Name
       << ", &init, sizeof(init), cudaMemcpyHostToDevice);\n";
  }

  void emitHostWrapper() {
    // The Reduce_Grid shape of Listings 1/2: allocate the accumulator,
    // launch, return.
    const auto &Params = K.getParams();
    std::string RetTy = paramTypeName(Params[0].get());
    OS << "\n";
    OS << RetTy << " " << K.getName() << "_host(";
    bool First = true;
    for (const auto &P : Params) {
      if (P->Index == 0)
        continue; // The Return accumulator is allocated here.
      if (!First)
        OS << ", ";
      First = false;
      OS << paramTypeName(P.get()) << (P->IsPointer ? " *" : " ") << P->Name;
    }
    OS << ") {\n";
    OS << "  " << RetTy << " *" << Params[0]->Name << ";\n";
    OS << "  cudaMalloc(&" << Params[0]->Name << ", sizeof(" << RetTy
       << "));\n";
    emitAccumulatorSeed(Params[0].get(), RetTy);
    OS << "  " << K.getName() << "<<<" << Options.GridExpr << ", "
       << Options.BlockExpr << ", " << Options.BlockExpr << " * sizeof("
       << RetTy << ")>>>(";
    First = true;
    for (const auto &P : Params) {
      if (!First)
        OS << ", ";
      First = false;
      OS << P->Name;
    }
    OS << ");\n";
    OS << "  " << RetTy << " result;\n  cudaMemcpy(&result, "
       << Params[0]->Name
       << ", sizeof(result), cudaMemcpyDeviceToHost);\n";
    OS << "  return result;\n}\n";
  }

  const Kernel &K;
  const CudaEmitOptions &Options;
  const PairScan &Scan;
  std::ostringstream OS;
  unsigned Depth = 0;
};

} // namespace

std::string tangram::codegen::emitCuda(const Kernel &K,
                                       const CudaEmitOptions &Options) {
  PairScan Scan;
  Scan.run(K);
  return renderPreamble(Scan.usage(), Options) + Emitter(K, Options, Scan).run();
}

std::string tangram::codegen::emitCuda(const Module &M,
                                       const CudaEmitOptions &Options) {
  // One merged preamble serves every kernel of the module.
  std::vector<PairScan> Scans(M.getKernels().size());
  PairUsage Merged;
  for (size_t I = 0; I != M.getKernels().size(); ++I) {
    Scans[I].run(*M.getKernels()[I]);
    Merged.merge(Scans[I].usage());
  }
  std::string Out = renderPreamble(Merged, Options);
  for (size_t I = 0; I != M.getKernels().size(); ++I) {
    if (I)
      Out += "\n";
    Out += Emitter(*M.getKernels()[I], Options, Scans[I]).run();
  }
  return Out;
}
