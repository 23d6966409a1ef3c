//===- KokkosReduce.cpp - Kokkos-style performance-portable reduce ---------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "baselines/KokkosReduce.h"

#include "gpusim/PerfModel.h"
#include "ir/Verifier.h"
#include "support/ErrorHandling.h"
#include "synth/CoopLowering.h"

#include <algorithm>

using namespace tangram;
using namespace tangram::baselines;
using namespace tangram::ir;
using namespace tangram::sim;

KokkosReduce::KokkosReduce(ReduceOp Op, ir::ScalarType Elem)
    : M(std::make_unique<Module>()), Op(Op), Elem(Elem) {
  Vec = (Op == ReduceOp::Add && Elem == ScalarType::F32) ? 2 : 1;
  // Main kernel: grid-stride team reduction with 64-bit staged loads,
  // shared-memory tree combine, per-league partial to the scratch space.
  {
    Kernel *K = M->addKernel("kokkos_parallel_reduce");
    Param *Partials = K->addPointerParam("partials", Elem);
    Param *In = K->addPointerParam("in", Elem);
    Param *NumVecs = K->addScalarParam("num_vecs", ScalarType::I32);
    Param *N = K->addScalarParam("n", ScalarType::I32);

    Local *Val = K->addLocal("val", Elem);
    K->getBody().push_back(
        M->create<DeclLocalStmt>(Val, synth::identityConst(*M, Elem, Op)));

    // Grid-stride loop over float2 vector units.
    Local *I = K->addLocal("i", ScalarType::I32);
    Expr *Start = M->arith(
        BinOp::Add,
        M->arith(BinOp::Mul, M->special(SpecialReg::BlockIdxX),
                 M->special(SpecialReg::BlockDimX)),
        M->special(SpecialReg::ThreadIdxX));
    Expr *Stride = M->arith(BinOp::Mul, M->special(SpecialReg::GridDimX),
                            M->special(SpecialReg::BlockDimX));
    Expr *StagedLoad = M->create<LoadGlobalExpr>(In, M->ref(I), Vec);
    // Arg-reductions attach the element's position at the read (the
    // scalar path guarantees vec index == element index).
    if (isArgReduce(Op))
      StagedLoad = M->makePair(StagedLoad, M->ref(I));
    std::vector<Stmt *> LoopBody = {M->create<AssignStmt>(
        Val, synth::reduceExpr(*M, Op, M->ref(Val), StagedLoad, Elem))};
    K->getBody().push_back(M->create<ForStmt>(
        I, Start, M->cmp(BinOp::LT, M->ref(I), M->ref(NumVecs)),
        M->arith(BinOp::Add, M->ref(I), Stride), std::move(LoopBody)));

    // Scalar tail handled by block 0.
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

    // Shared-memory tree over the team (Kokkos' team_reduce).
    SharedArray *Scratch = K->addSharedArray(
        "scratch", Elem, M->special(SpecialReg::BlockDimX));
    K->getBody().push_back(M->create<StoreSharedStmt>(
        Scratch, M->special(SpecialReg::ThreadIdxX), M->ref(Val)));
    K->getBody().push_back(M->create<BarrierStmt>());

    Local *S = K->addLocal("s", ScalarType::U32);
    Expr *Tid = M->special(SpecialReg::ThreadIdxX);
    std::vector<Stmt *> Guarded = {M->create<StoreSharedStmt>(
        Scratch, M->special(SpecialReg::ThreadIdxX),
        synth::reduceExpr(
            *M, Op,
            M->create<LoadSharedExpr>(Scratch,
                                      M->special(SpecialReg::ThreadIdxX)),
            M->create<LoadSharedExpr>(
                Scratch, M->arith(BinOp::Add,
                                  M->special(SpecialReg::ThreadIdxX),
                                  M->ref(S))),
            Elem))};
    std::vector<Stmt *> TreeBody = {
        M->create<IfStmt>(M->cmp(BinOp::LT, Tid, M->ref(S)),
                          std::move(Guarded), std::vector<Stmt *>{}),
        M->create<BarrierStmt>()};
    K->getBody().push_back(M->create<ForStmt>(
        S,
        M->binary(BinOp::Div, M->special(SpecialReg::BlockDimX),
                  M->constU(2), ScalarType::U32),
        M->cmp(BinOp::GT, M->ref(S), M->constU(0)),
        M->binary(BinOp::Div, M->ref(S), M->constU(2), ScalarType::U32),
        std::move(TreeBody)));

    std::vector<Stmt *> Publish = {M->create<StoreGlobalStmt>(
        Partials, M->special(SpecialReg::BlockIdxX),
        M->create<LoadSharedExpr>(Scratch, M->constU(0)))};
    K->getBody().push_back(M->create<IfStmt>(
        M->cmp(BinOp::EQ, M->special(SpecialReg::ThreadIdxX), M->constU(0)),
        std::move(Publish), std::vector<Stmt *>{}));
    Main = K;
  }

  // Final combine kernel (the Kokkos "join" pass).
  {
    Kernel *K = M->addKernel("kokkos_final_join");
    Param *Out = K->addPointerParam("out", Elem);
    Param *Partials = K->addPointerParam("partials", Elem);
    Param *Count = K->addScalarParam("count", ScalarType::I32);

    // Partials already carry index payloads for arg ops; no re-pairing.
    Local *Val = K->addLocal("val", Elem);
    K->getBody().push_back(
        M->create<DeclLocalStmt>(Val, synth::identityConst(*M, Elem, Op)));
    Local *J = K->addLocal("j", ScalarType::I32);
    std::vector<Stmt *> Acc = {M->create<AssignStmt>(
        Val, synth::reduceExpr(*M, Op, M->ref(Val),
                               M->create<LoadGlobalExpr>(Partials, M->ref(J)),
                               Elem))};
    std::vector<Stmt *> Then = {
        M->create<ForStmt>(J, M->constI(0),
                           M->cmp(BinOp::LT, M->ref(J), M->ref(Count)),
                           M->arith(BinOp::Add, M->ref(J), M->constI(1)),
                           std::move(Acc)),
        M->create<StoreGlobalStmt>(Out, M->constI(0), M->ref(Val))};
    K->getBody().push_back(M->create<IfStmt>(
        M->cmp(BinOp::EQ, M->special(SpecialReg::ThreadIdxX), M->constU(0)),
        std::move(Then), std::vector<Stmt *>{}));
    Final = K;
  }

  std::vector<std::string> Errors;
  if (!verifyModule(*M, Errors))
    reportFatalError("Kokkos baseline IR invalid: " + Errors.front());
  MainCompiled = compileKernel(*Main);
  FinalCompiled = compileKernel(*Final);
}

KokkosReduce::~KokkosReduce() = default;

double KokkosReduce::getDispatchOverheadUs(const ArchDesc &Arch) {
  // Functor dispatch, scratch setup, and the blocking fence after
  // parallel_reduce.
  switch (Arch.Gen) {
  case ArchGeneration::Kepler:
    return 210.0;
  case ArchGeneration::Maxwell:
    return 200.0;
  case ArchGeneration::Pascal:
    return 220.0;
  }
  return 200.0;
}

FrameworkResult KokkosReduce::run(engine::ExecutionEngine &E, BufferId In,
                                  size_t N, ExecMode Mode) {
  FrameworkResult Result;
  Device &Dev = E.getDevice();
  const ArchDesc &Arch = E.getArch();
  long long NumVecs = static_cast<long long>(N / Vec);

  // League sized to saturate the device (Kokkos' default heuristics).
  unsigned Grid = std::min<unsigned>(
      Arch.NumSMs * 8,
      static_cast<unsigned>(std::max<size_t>(
          1, (NumVecs + BlockSize - 1) / BlockSize)));

  DeviceScope Scratch(Dev);
  BufferId Partials = Dev.alloc(Elem, Grid);
  BufferId Out = Dev.alloc(Elem, 1);

  LaunchResult R1 = E.launch(
      MainCompiled, {Grid, BlockSize, 0},
      {ArgValue::buffer(Partials), ArgValue::buffer(In),
       ArgValue::scalar(NumVecs),
       ArgValue::scalar(static_cast<long long>(N))},
      Mode);
  if (!R1.ok()) {
    Result.Error = R1.Errors.front();
    return Result;
  }
  LaunchResult R2 = E.launch(
      FinalCompiled, {1, 64, 0},
      {ArgValue::buffer(Out), ArgValue::buffer(Partials),
       ArgValue::scalar(static_cast<long long>(Grid))},
      ExecMode::Functional);
  if (!R2.ok()) {
    Result.Error = R2.Errors.front();
    return Result;
  }

  // The staged main kernel's memory stream is priced at the staged-load
  // efficiency (compute-bound main kernel; Section IV-C2).
  TimingOptions StagedOptions;
  StagedOptions.MemoryEfficiencyOverride = Arch.StagedLoadEfficiency;
  KernelTiming T1 = modelKernelTime(Arch, R1, StagedOptions);
  KernelTiming T2 = modelKernelTime(Arch, R2);
  Result.Seconds = T1.TotalSeconds + T2.TotalSeconds +
                   getDispatchOverheadUs(Arch) * 1e-6;
  Result.Value = isFloatType(Elem)
                     ? Dev.readFloat(Out, 0)
                     : static_cast<double>(Dev.readInt(Out, 0));
  Result.IntValue = Dev.readInt(Out, 0);
  Result.Index = Dev.readIndex(Out, 0);
  Result.Ok = true;
  return Result;
}
