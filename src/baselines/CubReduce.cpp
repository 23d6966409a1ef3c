//===- CubReduce.cpp - CUB 1.8.0-style hand-written reduction --------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "baselines/CubReduce.h"

#include "gpusim/PerfModel.h"
#include "ir/Verifier.h"
#include "support/ErrorHandling.h"
#include "synth/CoopLowering.h"

#include <algorithm>
#include <functional>

using namespace tangram;
using namespace tangram::baselines;
using namespace tangram::ir;
using namespace tangram::sim;

ReductionFramework::~ReductionFramework() = default;

namespace {

/// Appends the canonical warp shuffle tree `for (o=16;o>0;o/=2) val =
/// combine(val, shfl_down(val,o))` to \p Body.
void appendShuffleTree(Module &M, Kernel &K, const Local *Val,
                       std::vector<Stmt *> &Body, const char *IterName,
                       ReduceOp Op, ScalarType Elem) {
  Local *Off = K.addLocal(IterName, ScalarType::I32);
  std::vector<Stmt *> LoopBody = {M.create<AssignStmt>(
      Val, synth::reduceExpr(M, Op, M.ref(Val),
                             M.create<ShuffleExpr>(ShuffleMode::Down,
                                                   M.ref(Val), M.ref(Off),
                                                   32),
                             Elem))};
  Body.push_back(M.create<ForStmt>(
      Off, M.constI(16), M.cmp(BinOp::GT, M.ref(Off), M.constI(0)),
      M.arith(BinOp::Div, M.ref(Off), M.constI(2)), std::move(LoopBody)));
}

/// Appends the block-level combine: lane 0 of each warp publishes to
/// `warpsum`, warp 0 re-reduces with shuffles, thread 0 runs \p Sink.
void appendBlockCombine(Module &M, Kernel &K, const Local *Val,
                        std::function<void(std::vector<Stmt *> &)> Sink,
                        ReduceOp Op, ScalarType Elem) {
  SharedArray *WarpSum = K.addSharedArray("warpsum", Elem, M.constI(32));
  Expr *Tid = M.special(SpecialReg::ThreadIdxX);
  Expr *Lane = M.binary(BinOp::Rem, Tid, M.special(SpecialReg::WarpSize),
                        ScalarType::U32);
  Expr *Warp = M.binary(BinOp::Div, M.special(SpecialReg::ThreadIdxX),
                        M.special(SpecialReg::WarpSize), ScalarType::U32);

  std::vector<Stmt *> Publish = {
      M.create<StoreSharedStmt>(WarpSum, Warp, M.ref(Val))};
  K.getBody().push_back(M.create<IfStmt>(M.cmp(BinOp::EQ, Lane, M.constU(0)),
                                         std::move(Publish),
                                         std::vector<Stmt *>{}));
  K.getBody().push_back(M.create<BarrierStmt>());

  Expr *NumWarps =
      M.binary(BinOp::Div, M.special(SpecialReg::BlockDimX),
               M.special(SpecialReg::WarpSize), ScalarType::U32);
  std::vector<Stmt *> Warp0;
  Warp0.push_back(M.create<AssignStmt>(
      Val, M.create<SelectExpr>(
               M.cmp(BinOp::LT, M.special(SpecialReg::ThreadIdxX), NumWarps),
               M.create<LoadSharedExpr>(
                   WarpSum, M.special(SpecialReg::ThreadIdxX)),
               synth::identityConst(M, Elem, Op), Elem)));
  appendShuffleTree(M, K, Val, Warp0, "offset2", Op, Elem);
  std::vector<Stmt *> Thread0;
  Sink(Thread0);
  Warp0.push_back(M.create<IfStmt>(
      M.cmp(BinOp::EQ, M.special(SpecialReg::ThreadIdxX), M.constU(0)),
      std::move(Thread0), std::vector<Stmt *>{}));
  K.getBody().push_back(M.create<IfStmt>(
      M.binary(BinOp::Div, M.special(SpecialReg::ThreadIdxX),
               M.special(SpecialReg::WarpSize), ScalarType::U32),
      std::vector<Stmt *>{},
      std::move(Warp0))); // warp != 0 -> empty then; warp 0 -> else.
}

} // namespace

CubReduce::CubReduce(ReduceOp Op, ir::ScalarType Elem)
    : M(std::make_unique<Module>()), Op(Op), Elem(Elem) {
  // The float4 fast path is the canonical sum's; other spectrum points
  // take scalar loads.
  Vec = (Op == ReduceOp::Add && Elem == ScalarType::F32) ? VecWidth : 1;
  // Pass 1: even-share tiles with vectorized loads.
  {
    Kernel *K = M->addKernel("cub_reduce_partial");
    Param *Partials = K->addPointerParam("partials", Elem);
    Param *In = K->addPointerParam("in", Elem);
    Param *N = K->addScalarParam("n", ScalarType::I32);
    Param *NumVecs = K->addScalarParam("num_vecs", ScalarType::I32);
    Param *Vpt = K->addScalarParam("vecs_per_thread", ScalarType::I32);

    Local *Val = K->addLocal("val", Elem);
    K->getBody().push_back(
        M->create<DeclLocalStmt>(Val, synth::identityConst(*M, Elem, Op)));

    // for (k = 0; k < vecs_per_thread; ++k)
    //   v = blockIdx*blockDim*vpt + k*blockDim + tid
    //   val += v < num_vecs ? vec4(in, v) : 0
    Local *KIdx = K->addLocal("k", ScalarType::I32);
    Expr *VecIdx = M->arith(
        BinOp::Add,
        M->arith(BinOp::Add,
                 M->arith(BinOp::Mul,
                          M->arith(BinOp::Mul,
                                   M->special(SpecialReg::BlockIdxX),
                                   M->special(SpecialReg::BlockDimX)),
                          M->ref(Vpt)),
                 M->arith(BinOp::Mul, M->ref(KIdx),
                          M->special(SpecialReg::BlockDimX))),
        M->special(SpecialReg::ThreadIdxX));
    Expr *Load = M->create<LoadGlobalExpr>(In, VecIdx, Vec);
    // Arg-reductions attach the element's position at the read (the
    // scalar path guarantees vec index == element index).
    if (isArgReduce(Op))
      Load = M->makePair(Load, VecIdx);
    Expr *Guarded = M->create<SelectExpr>(
        M->cmp(BinOp::LT, VecIdx, M->ref(NumVecs)), Load,
        synth::identityConst(*M, Elem, Op), Elem);
    std::vector<Stmt *> LoopBody = {M->create<AssignStmt>(
        Val, synth::reduceExpr(*M, Op, M->ref(Val), Guarded, Elem))};
    K->getBody().push_back(M->create<ForStmt>(
        KIdx, M->constI(0), M->cmp(BinOp::LT, M->ref(KIdx), M->ref(Vpt)),
        M->arith(BinOp::Add, M->ref(KIdx), M->constI(1)),
        std::move(LoopBody)));

    // Scalar tail (n % vec elements), picked up by block 0.
    Expr *TailBase = M->arith(BinOp::Mul, M->ref(NumVecs),
                              M->constI(static_cast<long long>(Vec)));
    Expr *TailIdx = M->arith(BinOp::Add, TailBase,
                             M->special(SpecialReg::ThreadIdxX));
    Expr *TailLoad = M->create<LoadGlobalExpr>(In, TailIdx);
    if (isArgReduce(Op))
      TailLoad = M->makePair(TailLoad, TailIdx);
    std::vector<Stmt *> Tail = {M->create<AssignStmt>(
        Val, synth::reduceExpr(
                 *M, Op, M->ref(Val),
                 M->create<SelectExpr>(
                     M->cmp(BinOp::LT, TailIdx, M->ref(N)), TailLoad,
                     synth::identityConst(*M, Elem, Op), Elem),
                 Elem))};
    K->getBody().push_back(M->create<IfStmt>(
        M->cmp(BinOp::EQ, M->special(SpecialReg::BlockIdxX), M->constU(0)),
        std::move(Tail), std::vector<Stmt *>{}));

    appendShuffleTree(*M, *K, Val, K->getBody(), "offset", Op, Elem);
    appendBlockCombine(
        *M, *K, Val,
        [&](std::vector<Stmt *> &Out) {
          Out.push_back(M->create<StoreGlobalStmt>(
              Partials, M->special(SpecialReg::BlockIdxX), M->ref(Val)));
        },
        Op, Elem);
    Partial = K;
  }

  // Pass 2: one block reduces the per-block partials.
  {
    Kernel *K = M->addKernel("cub_reduce_final");
    Param *Out = K->addPointerParam("out", Elem);
    Param *Partials = K->addPointerParam("partials", Elem);
    Param *Count = K->addScalarParam("count", ScalarType::I32);

    // Per-block partials already carry index payloads for arg ops (the
    // simulator's cells propagate them through loads), so pass 2 never
    // re-attaches MakePair.
    Local *Val = K->addLocal("val", Elem);
    K->getBody().push_back(M->create<DeclLocalStmt>(
        Val, M->create<SelectExpr>(
                 M->cmp(BinOp::LT, M->special(SpecialReg::ThreadIdxX),
                        M->ref(Count)),
                 M->create<LoadGlobalExpr>(
                     Partials, M->special(SpecialReg::ThreadIdxX)),
                 synth::identityConst(*M, Elem, Op), Elem)));

    Local *J = K->addLocal("j", ScalarType::I32);
    std::vector<Stmt *> Stride = {M->create<AssignStmt>(
        Val, synth::reduceExpr(*M, Op, M->ref(Val),
                               M->create<LoadGlobalExpr>(Partials, M->ref(J)),
                               Elem))};
    K->getBody().push_back(M->create<ForStmt>(
        J,
        M->arith(BinOp::Add, M->special(SpecialReg::ThreadIdxX),
                 M->special(SpecialReg::BlockDimX)),
        M->cmp(BinOp::LT, M->ref(J), M->ref(Count)),
        M->arith(BinOp::Add, M->ref(J), M->special(SpecialReg::BlockDimX)),
        std::move(Stride)));

    appendShuffleTree(*M, *K, Val, K->getBody(), "offset", Op, Elem);
    appendBlockCombine(
        *M, *K, Val,
        [&](std::vector<Stmt *> &OutStmts) {
          OutStmts.push_back(
              M->create<StoreGlobalStmt>(Out, M->constI(0), M->ref(Val)));
        },
        Op, Elem);
    Final = K;
  }

  std::vector<std::string> Errors;
  if (!verifyModule(*M, Errors))
    reportFatalError("CUB baseline IR invalid: " + Errors.front());
  PartialCompiled = compileKernel(*Partial);
  FinalCompiled = compileKernel(*Final);
}

CubReduce::~CubReduce() = default;

double CubReduce::getHostOverheadUs(const ArchDesc &Arch, size_t N) {
  // Temp-storage query + cudaMalloc + cudaFree per DeviceReduce call. The
  // decay models the measured behaviour the paper's curves imply: at
  // small/medium sizes the per-call allocation dominates, while at very
  // large sizes deployments amortize it (temp storage reused across
  // calls), letting CUB approach its bandwidth bound (Section IV-C1).
  double Base;
  switch (Arch.Gen) {
  case ArchGeneration::Kepler:
    Base = 150.0;
    break;
  case ArchGeneration::Maxwell:
    Base = 140.0;
    break;
  case ArchGeneration::Pascal:
    Base = 250.0;
    break;
  default:
    Base = 150.0;
    break;
  }
  constexpr double Knee = 4.0 * 1024 * 1024; // Elements.
  return Base * (Knee / (Knee + static_cast<double>(N)));
}

FrameworkResult CubReduce::run(engine::ExecutionEngine &E, BufferId In,
                               size_t N, ExecMode Mode) {
  FrameworkResult Result;
  Device &Dev = E.getDevice();
  const ArchDesc &Arch = E.getArch();
  long long NumVecs = static_cast<long long>(N / Vec);
  unsigned TileElems = BlockSize * Vec * VecsPerThread;
  unsigned Grid = static_cast<unsigned>(
      std::max<size_t>(1, (N + TileElems - 1) / TileElems));

  DeviceScope Scratch(Dev);
  BufferId Partials = Dev.alloc(Elem, Grid);
  BufferId Out = Dev.alloc(Elem, 1);

  LaunchResult R1 = E.launch(
      PartialCompiled, {Grid, BlockSize, 0},
      {ArgValue::buffer(Partials), ArgValue::buffer(In),
       ArgValue::scalar(static_cast<long long>(N)),
       ArgValue::scalar(NumVecs),
       ArgValue::scalar(static_cast<long long>(VecsPerThread))},
      Mode);
  if (!R1.ok()) {
    Result.Error = R1.Errors.front();
    return Result;
  }
  LaunchResult R2 = E.launch(
      FinalCompiled, {1, BlockSize, 0},
      {ArgValue::buffer(Out), ArgValue::buffer(Partials),
       ArgValue::scalar(static_cast<long long>(Grid))},
      ExecMode::Functional);
  if (!R2.ok()) {
    Result.Error = R2.Errors.front();
    return Result;
  }

  KernelTiming T1 = modelKernelTime(Arch, R1);
  KernelTiming T2 = modelKernelTime(Arch, R2);
  Result.Seconds = T1.TotalSeconds + T2.TotalSeconds +
                   getHostOverheadUs(Arch, N) * 1e-6;
  Result.Value = isFloatType(Elem)
                     ? Dev.readFloat(Out, 0)
                     : static_cast<double>(Dev.readInt(Out, 0));
  Result.IntValue = Dev.readInt(Out, 0);
  Result.Index = Dev.readIndex(Out, 0);
  Result.Ok = true;
  return Result;
}
