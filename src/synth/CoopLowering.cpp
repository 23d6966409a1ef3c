//===- CoopLowering.cpp - Cooperative codelet AST lowering ------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "synth/CoopLowering.h"

#include "lang/ASTVisitor.h"
#include "reduce/OpDef.h"
#include "support/ErrorHandling.h"

using namespace tangram;
using namespace tangram::ir;
using namespace tangram::synth;
using namespace tangram::transforms;

// The lang AST and the kernel IR share several class names (Expr, Stmt,
// IfStmt, ForStmt); this file works in IR terms and imports the lang names
// it needs explicitly.
using tangram::lang::BinaryExpr;
using tangram::lang::BinaryOpKind;
using tangram::lang::CodeletDecl;
using tangram::lang::CompoundStmt;
using tangram::lang::ConditionalExpr;
using tangram::lang::DeclRefExpr;
using tangram::lang::DeclStmt;
using tangram::lang::FloatLiteralExpr;
using tangram::lang::getCompoundOpcode;
using tangram::lang::IndexExpr;
using tangram::lang::IntLiteralExpr;
using tangram::lang::MemberCallExpr;
using tangram::lang::MemberKind;
using tangram::lang::ParamDecl;
using tangram::lang::ReturnStmt;
using tangram::lang::UnaryExpr;
using tangram::lang::UnaryOpKind;
using tangram::lang::VarDecl;

Expr *tangram::synth::identityConst(Module &M, ScalarType Elem,
                                    ReduceOp Op) {
  // Single source of truth: the OpDef table's kernel-mode identity (the
  // printable near-extremes the canonical lowering has always emitted).
  reduce::IdentityCell Id = reduce::getKernelIdentity(Op, Elem);
  Expr *Value = isFloatType(Elem)
                    ? M.constF(Id.F, Elem)
                    : M.create<IntConstExpr>(Id.I, Elem);
  if (!isArgReduce(Op))
    return Value;
  // Arg-reductions carry an index payload; the identity's sentinel loses
  // every tie against a real element (smaller index wins).
  return M.makePair(Value,
                    M.create<IntConstExpr>(Id.Idx, ScalarType::I64));
}

Expr *tangram::synth::reduceExpr(Module &M, ReduceOp Op, Expr *Acc, Expr *V,
                                 ScalarType Elem) {
  switch (Op) {
  case ReduceOp::Add:
  case ReduceOp::Sub:
    return M.binary(BinOp::Add, Acc, V, Elem);
  case ReduceOp::Max:
    return M.binary(BinOp::Max, Acc, V, Elem);
  case ReduceOp::Min:
    return M.binary(BinOp::Min, Acc, V, Elem);
  case ReduceOp::ArgMin:
  case ReduceOp::ArgMax:
  case ReduceOp::Any:
    // No plain ALU opcode expresses these; the pair-aware Combine node
    // lowers to the Red bytecode op.
    return M.combine(Op, Acc, V, Elem);
  }
  tgr_unreachable("unknown reduce op");
}

CoopLowering::CoopLowering(Module &M, Kernel &K, const CodeletDecl &C,
                           const CodeletTransformInfo &Info,
                           const LoweringPlan &Plan, const InputView &View,
                           ReduceOp Op, ScalarType Elem)
    : M(M), K(K), C(C), Info(Info), Plan(Plan), View(View), Op(Op),
      Elem(Elem) {}

bool CoopLowering::lower(
    const std::function<void(std::vector<Stmt *> &, Expr *)> &EmitResult,
    std::string &Error) {
  this->EmitResult = &EmitResult;
  for (lang::Stmt *S : C.getBody()->getBody())
    if (!lowerStmt(S, K.getBody())) {
      Error = "unsupported construct in codelet '" + C.getTag() + "'";
      return false;
    }
  return true;
}

//===----------------------------------------------------------------------===//
// Expression mapping
//===----------------------------------------------------------------------===//

Expr *CoopLowering::threadIdx() { return M.special(SpecialReg::ThreadIdxX); }
Expr *CoopLowering::warpSize() { return M.special(SpecialReg::WarpSize); }

Expr *CoopLowering::lowerMember(const MemberCallExpr *E) {
  switch (E->getMemberKind()) {
  case MemberKind::ArraySize:
    return View.Size();
  case MemberKind::ArrayStride:
    return M.constU(1);
  case MemberKind::VectorSize:
    return warpSize();
  case MemberKind::VectorMaxSize:
    return M.constU(32);
  case MemberKind::VectorThreadId:
    return threadIdx();
  case MemberKind::VectorLaneId:
    return M.binary(BinOp::Rem, threadIdx(), warpSize(), ScalarType::U32);
  case MemberKind::VectorVectorId:
    return M.binary(BinOp::Div, threadIdx(), warpSize(), ScalarType::U32);
  default:
    return nullptr;
  }
}

/// `in[index]` under the current view, with the global-bounds guard
/// (Listing 3 lines 13-16).
Expr *CoopLowering::lowerInputRead(Expr *Index) {
  if (View.K == InputView::Kind::Register)
    return M.ref(View.PartialReg);
  Expr *Gidx = View.GlobalIndex(Index);
  Expr *Guard = M.cmp(BinOp::LT, Gidx, M.ref(View.SourceSize));
  Expr *Load = M.create<LoadGlobalExpr>(View.Input, Gidx);
  // Arg-reductions attach each element's global index as it is read; a
  // second-stage kernel's input already carries payloads (InputIsPairs),
  // which a re-attach would clobber with partial-buffer positions.
  if (isArgReduce(Op) && !View.InputIsPairs)
    Load = M.makePair(Load, Gidx);
  return M.create<SelectExpr>(Guard, Load, identityConst(M, Elem, Op), Elem);
}

Expr *CoopLowering::lowerExpr(const lang::Expr *E) {
  E = E->ignoreParens();
  switch (E->getKind()) {
  case lang::Stmt::Kind::IntLiteral: {
    long long V = cast<IntLiteralExpr>(E)->getValue();
    // Literal zero in reduction positions stands for the operator's
    // identity (the canonical source spells the guard arms `: 0`).
    if (V == 0 && InReductionRHS)
      return identityConst(M, Elem, Op);
    if (isFloatType(Elem) && E->getType() && E->getType()->isFloat())
      return M.constF(static_cast<double>(V), Elem);
    return M.constI(V);
  }
  case lang::Stmt::Kind::FloatLiteral: {
    double V = cast<FloatLiteralExpr>(E)->getValue();
    if (V == 0.0 && InReductionRHS)
      return identityConst(M, Elem, Op);
    return M.constF(V, isFloatType(Elem) ? Elem : ScalarType::F32);
  }
  case lang::Stmt::Kind::DeclRef: {
    const auto *Ref = cast<DeclRefExpr>(E);
    const auto *Var = dyn_cast_if_present<VarDecl>(Ref->getDecl());
    if (!Var)
      return nullptr;
    // A bare reference to a shared atomic accumulator reads element 0.
    auto AccIt = AtomicAccs.find(Var);
    if (AccIt != AtomicAccs.end())
      return M.create<LoadSharedExpr>(AccIt->second, M.constI(0));
    auto It = Locals.find(Var);
    if (It == Locals.end())
      return nullptr;
    return M.ref(It->second);
  }
  case lang::Stmt::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    Expr *Sub = lowerExpr(U->getSubExpr());
    if (!Sub)
      return nullptr;
    switch (U->getOp()) {
    case UnaryOpKind::Neg:
      return M.create<UnaryOpExpr>(UnOp::Neg, Sub, Sub->getType());
    case UnaryOpKind::Not:
      return M.create<UnaryOpExpr>(UnOp::Not, Sub, ScalarType::I32);
    default:
      return nullptr; // ++/-- never appear in cooperative codelets.
    }
  }
  case lang::Stmt::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if (B->isAssignment())
      return nullptr; // Assignments are statements here.
    Expr *L = lowerExpr(B->getLHS());
    Expr *R = lowerExpr(B->getRHS());
    if (!L || !R)
      return nullptr;
    BinOp IROp;
    bool IsCmp = false;
    switch (B->getOp()) {
    case BinaryOpKind::Add:
      IROp = BinOp::Add;
      break;
    case BinaryOpKind::Sub:
      IROp = BinOp::Sub;
      break;
    case BinaryOpKind::Mul:
      IROp = BinOp::Mul;
      break;
    case BinaryOpKind::Div:
      IROp = BinOp::Div;
      break;
    case BinaryOpKind::Rem:
      IROp = BinOp::Rem;
      break;
    case BinaryOpKind::LT:
      IROp = BinOp::LT;
      IsCmp = true;
      break;
    case BinaryOpKind::GT:
      IROp = BinOp::GT;
      IsCmp = true;
      break;
    case BinaryOpKind::LE:
      IROp = BinOp::LE;
      IsCmp = true;
      break;
    case BinaryOpKind::GE:
      IROp = BinOp::GE;
      IsCmp = true;
      break;
    case BinaryOpKind::EQ:
      IROp = BinOp::EQ;
      IsCmp = true;
      break;
    case BinaryOpKind::NE:
      IROp = BinOp::NE;
      IsCmp = true;
      break;
    case BinaryOpKind::LAnd:
      IROp = BinOp::LAnd;
      IsCmp = true;
      break;
    case BinaryOpKind::LOr:
      IROp = BinOp::LOr;
      IsCmp = true;
      break;
    default:
      return nullptr;
    }
    return IsCmp ? M.cmp(IROp, L, R) : M.arith(IROp, L, R);
  }
  case lang::Stmt::Kind::Conditional: {
    const auto *Cond = cast<ConditionalExpr>(E);
    Expr *C0 = lowerExpr(Cond->getCond());
    Expr *T = lowerExpr(Cond->getTrueExpr());
    // A guarded element read (`cond ? in[i] : 0`, `cond ? partial[l] : 0`)
    // feeds the accumulator: its literal-zero fallback stands for the
    // operator's identity, exactly like a `val += ...` operand.
    bool WasInReduction = InReductionRHS;
    if (isa<IndexExpr>(Cond->getTrueExpr()->ignoreParens()))
      InReductionRHS = true;
    Expr *F = lowerExpr(Cond->getFalseExpr());
    InReductionRHS = WasInReduction;
    if (!C0 || !T || !F)
      return nullptr;
    return M.create<SelectExpr>(C0, T, F,
                                promoteTypes(T->getType(), F->getType()));
  }
  case lang::Stmt::Kind::MemberCall:
    return lowerMember(cast<MemberCallExpr>(E));
  case lang::Stmt::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    const lang::Expr *Base = I->getBase()->ignoreParens();
    const auto *Ref = dyn_cast<DeclRefExpr>(Base);
    if (!Ref)
      return nullptr;
    // Input array read.
    if (isa_and_present<ParamDecl>(Ref->getDecl())) {
      Expr *Index = lowerExpr(I->getIndex());
      return Index ? lowerInputRead(Index) : nullptr;
    }
    // Shared array read.
    const auto *Var = dyn_cast_if_present<VarDecl>(Ref->getDecl());
    if (!Var)
      return nullptr;
    auto It = SharedArrays.find(Var);
    if (It == SharedArrays.end())
      return nullptr;
    Expr *Index = lowerExpr(I->getIndex());
    if (!Index)
      return nullptr;
    return M.create<LoadSharedExpr>(It->second, Index);
  }
  default:
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Statement mapping
//===----------------------------------------------------------------------===//

bool CoopLowering::lowerVarDecl(VarDecl *Var, std::vector<Stmt *> &Out) {
  const lang::Type *Ty = Var->getType();
  if (Ty->isVector())
    return true; // `Vector vthread();` declares the SIMT context.

  if (Var->isShared()) {
    if (Var->hasAtomicQualifier()) {
      // `__shared _atomicX T acc;` — single-slot accumulator with
      // thread-0 initialization (Listing 3 lines 5-8).
      SharedArray *Acc = K.addSharedArray(Var->getName(), Elem, M.constI(1));
      AtomicAccs[Var] = Acc;
      std::vector<Stmt *> Init = {M.create<StoreSharedStmt>(
          Acc, M.constI(0), identityConst(M, Elem, Op))};
      Out.push_back(M.create<ir::IfStmt>(
          M.cmp(BinOp::EQ, threadIdx(), M.constU(0)), std::move(Init),
          std::vector<Stmt *>{}));
      Out.push_back(M.create<BarrierStmt>());
      return true;
    }
    if (Plan.ElidedArrays.count(Var))
      return true; // The Fig. 4 pass removed this array (Listing 4).
    // `__shared T name[extent];` — extent is a launch-uniform function
    // of in.Size() / Vector.MaxSize().
    Expr *Extent =
        Var->getArraySize() ? lowerUniform(Var->getArraySize()) : nullptr;
    if (!Extent)
      return false;
    SharedArray *Arr = K.addSharedArray(Var->getName(), Elem, Extent);
    SharedArrays[Var] = Arr;
    // Cooperative initialization to the operator identity (Listing 3
    // lines 9-11 / Listing 4 lines 5-8); extents never exceed blockDim.
    std::vector<Stmt *> Init = {M.create<StoreSharedStmt>(
        Arr, threadIdx(), identityConst(M, Elem, Op))};
    Out.push_back(M.create<ir::IfStmt>(
        M.cmp(BinOp::LT, threadIdx(), lowerUniform(Var->getArraySize())),
        std::move(Init), std::vector<Stmt *>{}));
    Out.push_back(M.create<BarrierStmt>());
    return true;
  }

  // Scalar local.
  ScalarType LTy = Ty->isFloat()  ? ScalarType::F32
                   : Ty->isInt()  ? ScalarType::I32
                                  : ScalarType::U32;
  // The canonical sources declare accumulators with the element type.
  if (Ty->isScalar() && Ty == C.getReturnType())
    LTy = Elem;
  Local *L = K.addLocal(Var->getName(), LTy);
  Locals[Var] = L;
  Expr *Init = nullptr;
  if (Var->getInit()) {
    Init = lowerExpr(Var->getInit());
    if (!Init)
      return false;
  }
  Out.push_back(M.create<DeclLocalStmt>(L, Init));
  return true;
}

/// Lowers shared-array extents: `in.Size()` means the block's tile,
/// whose uniform extent is blockDim (direct) / blockDim (partials);
/// `vthread.MaxSize()` is 32.
Expr *CoopLowering::lowerUniform(const lang::Expr *E) {
  E = E->ignoreParens();
  if (const auto *MC = dyn_cast<MemberCallExpr>(E)) {
    if (MC->getMemberKind() == MemberKind::ArraySize)
      return M.special(SpecialReg::BlockDimX);
    if (MC->getMemberKind() == MemberKind::VectorMaxSize)
      return M.constU(32);
    return nullptr;
  }
  if (const auto *I = dyn_cast<IntLiteralExpr>(E))
    return M.constI(I->getValue());
  if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    Expr *L = lowerUniform(B->getLHS());
    Expr *R = lowerUniform(B->getRHS());
    if (!L || !R)
      return nullptr;
    switch (B->getOp()) {
    case BinaryOpKind::Add:
      return M.arith(BinOp::Add, L, R);
    case BinaryOpKind::Sub:
      return M.arith(BinOp::Sub, L, R);
    case BinaryOpKind::Mul:
      return M.arith(BinOp::Mul, L, R);
    case BinaryOpKind::Div:
      return M.arith(BinOp::Div, L, R);
    default:
      return nullptr;
    }
  }
  return nullptr;
}

/// The shuffle-lower plan's match for \p Loop, if any.
const ShuffleOpportunity *
CoopLowering::shuffleFor(const lang::ForStmt *Loop) const {
  auto It = Plan.ShuffleLoops.find(Loop);
  return It == Plan.ShuffleLoops.end() ? nullptr : It->second;
}

/// True when the statement subtree stores to a (non-elided) shared array
/// or atomic accumulator — such statements are followed by barriers.
bool CoopLowering::writesShared(const lang::Stmt *S) {
  struct Scan : lang::ASTVisitor<Scan> {
    explicit Scan(CoopLowering &Self) : Self(Self) {}
    bool visitBinaryExpr(BinaryExpr *B) {
      if (!B->isAssignment())
        return true;
      const lang::Expr *LHS = B->getLHS()->ignoreParens();
      const VarDecl *Var = nullptr;
      if (const auto *I = dyn_cast<lang::IndexExpr>(LHS)) {
        if (const auto *R =
                dyn_cast<DeclRefExpr>(I->getBase()->ignoreParens()))
          Var = dyn_cast_if_present<VarDecl>(R->getDecl());
      } else if (const auto *R = dyn_cast<DeclRefExpr>(LHS)) {
        Var = dyn_cast_if_present<VarDecl>(R->getDecl());
      }
      if (Var && Var->isShared() && !Self.Plan.ElidedArrays.count(Var))
        Found = true;
      return true;
    }
    CoopLowering &Self;
    bool Found = false;
  };
  Scan Sc(*this);
  Sc.traverseStmt(const_cast<lang::Stmt *>(S));
  return Sc.Found;
}

bool CoopLowering::lowerAssignment(const BinaryExpr *B,
                                   std::vector<Stmt *> &Out) {
  const lang::Expr *LHS = B->getLHS()->ignoreParens();

  // Writes to `__shared _atomicX` variables become atomic instructions
  // on shared memory (Section III-B).
  if (Info.SharedAtomics.isAtomicWrite(B)) {
    const auto *Ref = cast<DeclRefExpr>(LHS);
    const auto *Var = cast<VarDecl>(Ref->getDecl());
    SharedArray *Acc = AtomicAccs.at(Var);
    Expr *Value = lowerExpr(B->getRHS());
    if (!Value)
      return false;
    Out.push_back(M.create<AtomicSharedStmt>(Var->getAtomicOp(), Acc,
                                             M.constI(0), Value));
    return true;
  }

  // Shared-array element store.
  if (const auto *I = dyn_cast<lang::IndexExpr>(LHS)) {
    const auto *Ref = dyn_cast<DeclRefExpr>(I->getBase()->ignoreParens());
    const auto *Var =
        Ref ? dyn_cast_if_present<VarDecl>(Ref->getDecl()) : nullptr;
    if (!Var || !Var->isShared())
      return false;
    if (Plan.ElidedArrays.count(Var))
      return true; // Store elided with its array (Listing 4).
    SharedArray *Arr = SharedArrays.at(Var);
    Expr *Index = lowerExpr(I->getIndex());
    Expr *Value = lowerExpr(B->getRHS());
    if (!Index || !Value)
      return false;
    if (B->getOp() != BinaryOpKind::Assign)
      return false;
    Out.push_back(M.create<StoreSharedStmt>(Arr, Index, Value));
    return true;
  }

  // Scalar local assignment (plain or compound).
  const auto *Ref = dyn_cast<DeclRefExpr>(LHS);
  const auto *Var =
      Ref ? dyn_cast_if_present<VarDecl>(Ref->getDecl()) : nullptr;
  if (!Var)
    return false;
  auto It = Locals.find(Var);
  if (It == Locals.end())
    return false;
  const Local *L = It->second;

  if (B->getOp() == BinaryOpKind::Assign) {
    Expr *Value = lowerExpr(B->getRHS());
    if (!Value)
      return false;
    Out.push_back(M.create<AssignStmt>(L, Value));
    return true;
  }
  if (B->getOp() == BinaryOpKind::AddAssign) {
    // The spectrum's reduction slot: `val += x` accumulates with the
    // spectrum operator.
    InReductionRHS = true;
    Expr *Value = lowerExpr(B->getRHS());
    InReductionRHS = false;
    if (!Value)
      return false;
    Out.push_back(
        M.create<AssignStmt>(L, reduceExpr(M, Op, M.ref(L), Value, Elem)));
    return true;
  }
  return false;
}

bool CoopLowering::lowerFor(const lang::ForStmt *F,
                            std::vector<Stmt *> &Out) {
  const auto *InitDecl = dyn_cast_if_present<DeclStmt>(F->getInit());
  if (!InitDecl || !F->getCond() || !F->getInc())
    return false;
  VarDecl *IterVar = InitDecl->getVar();
  Local *Iter = K.addLocal(IterVar->getName(), ScalarType::I32);
  Locals[IterVar] = Iter;

  Expr *Init = lowerExpr(IterVar->getInit());
  Expr *Cond = lowerExpr(F->getCond());
  if (!Init || !Cond)
    return false;

  // Step: the canonical loops use `offset /= 2`; general compound
  // assignments and `i += c` work the same way.
  Expr *Step = nullptr;
  const auto *Inc = dyn_cast<BinaryExpr>(F->getInc()->ignoreParens());
  if (Inc && Inc->isAssignment() && Inc->getOp() != BinaryOpKind::Assign) {
    Expr *RHS = lowerExpr(Inc->getRHS());
    if (!RHS)
      return false;
    BinOp IROp;
    switch (getCompoundOpcode(Inc->getOp())) {
    case BinaryOpKind::Add:
      IROp = BinOp::Add;
      break;
    case BinaryOpKind::Sub:
      IROp = BinOp::Sub;
      break;
    case BinaryOpKind::Mul:
      IROp = BinOp::Mul;
      break;
    case BinaryOpKind::Div:
      IROp = BinOp::Div;
      break;
    default:
      return false;
    }
    Step = M.binary(IROp, M.ref(Iter), RHS, ScalarType::I32);
  } else if (Inc && Inc->getOp() == BinaryOpKind::Assign) {
    Step = lowerExpr(Inc->getRHS());
  }
  if (!Step)
    return false;

  std::vector<Stmt *> Body;
  if (const ShuffleOpportunity *Opp = shuffleFor(F)) {
    // Warp-shuffle rewrite (Listing 4): the whole tree-summation body
    // collapses to `val = op(val, shfl(val, offset))`.
    const Local *Acc = Locals.at(Opp->Accumulator);
    Expr *Shfl =
        M.create<ShuffleExpr>(Opp->Direction, M.ref(Acc), M.ref(Iter), 32);
    Body.push_back(M.create<AssignStmt>(
        Acc, reduceExpr(M, Op, M.ref(Acc), Shfl, Elem)));
  } else {
    bool SharedWrites = false;
    for (lang::Stmt *S : bodyOf(F->getBody())) {
      if (!lowerStmt(S, Body))
        return false;
      SharedWrites |= writesShared(S);
    }
    // Tree summation through shared memory synchronizes per level
    // (Listing 3 line 23) — unless the loop runs in a warp-local
    // region, where all traffic stays within one warp.
    if (SharedWrites && !InDivergent)
      Body.push_back(M.create<BarrierStmt>());
  }
  Out.push_back(
      M.create<ir::ForStmt>(Iter, Init, Cond, Step, std::move(Body)));
  return true;
}

std::vector<lang::Stmt *> CoopLowering::bodyOf(lang::Stmt *S) {
  if (auto *CS = dyn_cast<CompoundStmt>(S))
    return CS->getBody();
  return {S};
}

/// True when \p E depends on the thread identity — such conditions make
/// a region warp-local, where barriers are neither legal nor needed.
bool CoopLowering::isThreadDependentCond(const lang::Expr *E) {
  struct Scan : lang::ASTVisitor<Scan> {
    bool visitMemberCallExpr(MemberCallExpr *MC) {
      switch (MC->getMemberKind()) {
      case MemberKind::VectorThreadId:
      case MemberKind::VectorLaneId:
      case MemberKind::VectorVectorId:
        Found = true;
        break;
      default:
        break;
      }
      return true;
    }
    bool Found = false;
  };
  Scan Sc;
  Sc.traverseStmt(const_cast<lang::Expr *>(E));
  return Sc.Found;
}

/// Propagates \p Loc into every statement of the subtree that has no
/// location of its own. Child statements lowered from nested codelet
/// statements were stamped by their own lowerStmt call, so the most
/// precise (innermost) location always wins.
void CoopLowering::stampLoc(Stmt *S, SourceLoc Loc) {
  if (!S->getLoc().isValid())
    S->setLoc(Loc);
  if (auto *I = dyn_cast<ir::IfStmt>(S)) {
    for (Stmt *Child : I->getThen())
      stampLoc(Child, Loc);
    for (Stmt *Child : I->getElse())
      stampLoc(Child, Loc);
  } else if (auto *F = dyn_cast<ir::ForStmt>(S)) {
    for (Stmt *Child : F->getBody())
      stampLoc(Child, Loc);
  }
}

/// Lowers \p S, stamping every IR statement it produced with the codelet
/// source location (RaceCheck diagnostics map racing instructions back
/// through these).
bool CoopLowering::lowerStmt(lang::Stmt *S, std::vector<Stmt *> &Out) {
  size_t Before = Out.size();
  if (!lowerStmtImpl(S, Out))
    return false;
  SourceLoc Loc = S->getLoc();
  if (Loc.isValid())
    for (size_t I = Before; I != Out.size(); ++I)
      stampLoc(Out[I], Loc);
  return true;
}

bool CoopLowering::lowerStmtImpl(lang::Stmt *S, std::vector<Stmt *> &Out) {
  switch (S->getKind()) {
  case lang::Stmt::Kind::DeclStmt:
    return lowerVarDecl(cast<DeclStmt>(S)->getVar(), Out);
  case lang::Stmt::Kind::Compound: {
    for (lang::Stmt *Child : cast<CompoundStmt>(S)->getBody())
      if (!lowerStmt(Child, Out))
        return false;
    return true;
  }
  case lang::Stmt::Kind::If: {
    const auto *I = cast<lang::IfStmt>(S);
    Expr *Cond = lowerExpr(I->getCond());
    if (!Cond)
      return false;
    bool SavedDivergent = InDivergent;
    InDivergent = InDivergent || isThreadDependentCond(I->getCond());
    std::vector<Stmt *> Then, Else;
    for (lang::Stmt *Child : bodyOf(I->getThen()))
      if (!lowerStmt(Child, Then)) {
        InDivergent = SavedDivergent;
        return false;
      }
    if (I->getElse())
      for (lang::Stmt *Child : bodyOf(I->getElse()))
        if (!lowerStmt(Child, Else)) {
          InDivergent = SavedDivergent;
          return false;
        }
    InDivergent = SavedDivergent;
    Out.push_back(
        M.create<ir::IfStmt>(Cond, std::move(Then), std::move(Else)));
    // Cross-thread visibility: a branch that published values to shared
    // memory is followed by a barrier (Listing 3/4 shape) when we are
    // at block-uniform level.
    if (!InDivergent &&
        (writesShared(I->getThen()) ||
         (I->getElse() && writesShared(I->getElse()))))
      Out.push_back(M.create<BarrierStmt>());
    return true;
  }
  case lang::Stmt::Kind::For:
    return lowerFor(cast<lang::ForStmt>(S), Out);
  case lang::Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    if (!R->getValue())
      return false;
    // Return promotion: the shared-accumulator case reads after a full
    // barrier; the register case publishes thread 0's value.
    const lang::Expr *Val = R->getValue()->ignoreParens();
    if (const auto *Ref = dyn_cast<DeclRefExpr>(Val)) {
      const auto *Var = dyn_cast_if_present<VarDecl>(Ref->getDecl());
      if (Var && AtomicAccs.count(Var))
        Out.push_back(M.create<BarrierStmt>());
    }
    Expr *Value = lowerExpr(R->getValue());
    if (!Value)
      return false;
    std::vector<Stmt *> Then;
    (*EmitResult)(Then, Value);
    Out.push_back(M.create<ir::IfStmt>(
        M.cmp(BinOp::EQ, threadIdx(), M.constU(0)), std::move(Then),
        std::vector<Stmt *>{}));
    return true;
  }
  default: {
    // Expression statements: assignments and (ignored) primitive calls.
    auto *E = dyn_cast<lang::Expr>(S);
    if (!E)
      return false;
    const lang::Expr *Stripped = E->ignoreParens();
    if (const auto *B = dyn_cast<BinaryExpr>(Stripped)) {
      if (!lowerAssignment(B, Out))
        return false;
      // Publishing to shared memory at statement level synchronizes
      // (Listing 3 line 11/17-area barriers).
      if (!InDivergent && writesShared(const_cast<lang::Expr *>(Stripped)))
        Out.push_back(M.create<BarrierStmt>());
      return true;
    }
    return false;
  }
  }
}
