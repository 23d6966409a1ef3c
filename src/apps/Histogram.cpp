//===- Histogram.cpp - Histogram on the reduction substrate ----------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "apps/Histogram.h"

#include "ir/Verifier.h"
#include "support/ErrorHandling.h"

#include <algorithm>

using namespace tangram;
using namespace tangram::apps;
using namespace tangram::ir;
using namespace tangram::sim;

const char *tangram::apps::getHistogramStrategyName(HistogramStrategy S) {
  return S == HistogramStrategy::GlobalAtomics ? "global-atomics"
                                               : "shared-privatized";
}

std::vector<long long>
tangram::apps::referenceHistogram(const std::vector<int> &Keys,
                                  unsigned NumBins) {
  std::vector<long long> Bins(NumBins, 0);
  for (int K : Keys)
    if (K >= 0 && static_cast<unsigned>(K) < NumBins)
      ++Bins[K];
  return Bins;
}

Histogram::Histogram(unsigned NumBins, HistogramStrategy Strategy,
                     unsigned BlockSize, unsigned Coarsen)
    : NumBins(NumBins), Strategy(Strategy), BlockSize(BlockSize),
      Coarsen(Coarsen), M(std::make_unique<Module>()) {
  Kernel *Kern = M->addKernel(
      std::string("histogram_") +
      (Strategy == HistogramStrategy::GlobalAtomics ? "global" : "shared"));
  Param *Bins = Kern->addPointerParam("bins", ScalarType::I32);
  Param *In = Kern->addPointerParam("keys", ScalarType::I32);
  Param *N = Kern->addScalarParam("n", ScalarType::I32);
  Param *NumBinsP = Kern->addScalarParam("num_bins", ScalarType::I32);

  SharedArray *Priv = nullptr;
  if (Strategy == HistogramStrategy::SharedPrivatized) {
    Priv = Kern->addSharedArray("priv", ScalarType::I32,
                                M->ref(NumBinsP));
    // Cooperative zero-initialization: threads stride over the bins.
    Local *Z = Kern->addLocal("z", ScalarType::I32);
    std::vector<Stmt *> ZeroBody = {
        M->create<StoreSharedStmt>(Priv, M->ref(Z), M->constI(0))};
    Kern->getBody().push_back(M->create<ForStmt>(
        Z,
        M->create<CastExpr>(M->special(SpecialReg::ThreadIdxX),
                            ScalarType::I32),
        M->cmp(BinOp::LT, M->ref(Z), M->ref(NumBinsP)),
        M->arith(BinOp::Add, M->ref(Z),
                 M->create<CastExpr>(M->special(SpecialReg::BlockDimX),
                                     ScalarType::I32)),
        std::move(ZeroBody)));
    Kern->getBody().push_back(M->create<BarrierStmt>());
  }

  // Strided element loop: idx = (k * gridDim + blockIdx) * blockDim + tid.
  Local *KIdx = Kern->addLocal("k", ScalarType::I32);
  Expr *ElemIdx = M->arith(
      BinOp::Add,
      M->arith(BinOp::Mul,
               M->arith(BinOp::Add,
                        M->arith(BinOp::Mul, M->ref(KIdx),
                                 M->special(SpecialReg::GridDimX)),
                        M->special(SpecialReg::BlockIdxX)),
               M->special(SpecialReg::BlockDimX)),
      M->special(SpecialReg::ThreadIdxX));
  Local *Key = Kern->addLocal("key", ScalarType::I32);
  Kern->getBody().push_back(M->create<DeclLocalStmt>(Key, M->constI(0)));

  std::vector<Stmt *> Guarded;
  Guarded.push_back(M->create<AssignStmt>(
      Key, M->create<LoadGlobalExpr>(In, ElemIdx)));
  // Clamp-out-of-range keys are dropped (matching the host reference).
  std::vector<Stmt *> Update;
  if (Strategy == HistogramStrategy::GlobalAtomics)
    Update.push_back(M->create<AtomicGlobalStmt>(
        ReduceOp::Add, AtomicScope::Device, Bins, M->ref(Key),
        M->constI(1)));
  else
    Update.push_back(M->create<AtomicSharedStmt>(ReduceOp::Add, Priv,
                                                 M->ref(Key), M->constI(1)));
  Guarded.push_back(M->create<IfStmt>(
      M->binary(BinOp::LAnd,
                M->cmp(BinOp::GE, M->ref(Key), M->constI(0)),
                M->cmp(BinOp::LT, M->ref(Key), M->ref(NumBinsP)),
                ScalarType::I32),
      std::move(Update), std::vector<Stmt *>{}));

  // Recompute the element index for the guard (fresh expression tree).
  Expr *ElemIdx2 = M->arith(
      BinOp::Add,
      M->arith(BinOp::Mul,
               M->arith(BinOp::Add,
                        M->arith(BinOp::Mul, M->ref(KIdx),
                                 M->special(SpecialReg::GridDimX)),
                        M->special(SpecialReg::BlockIdxX)),
               M->special(SpecialReg::BlockDimX)),
      M->special(SpecialReg::ThreadIdxX));
  std::vector<Stmt *> LoopBody = {M->create<IfStmt>(
      M->cmp(BinOp::LT, ElemIdx2, M->ref(N)), std::move(Guarded),
      std::vector<Stmt *>{})};
  Kern->getBody().push_back(M->create<ForStmt>(
      KIdx, M->constI(0),
      M->cmp(BinOp::LT, M->ref(KIdx), M->constI((int)Coarsen)),
      M->arith(BinOp::Add, M->ref(KIdx), M->constI(1)),
      std::move(LoopBody)));

  if (Strategy == HistogramStrategy::SharedPrivatized) {
    // Merge the private copy into the global bins.
    Kern->getBody().push_back(M->create<BarrierStmt>());
    Local *J = Kern->addLocal("j", ScalarType::I32);
    std::vector<Stmt *> MergeBody = {M->create<AtomicGlobalStmt>(
        ReduceOp::Add, AtomicScope::Device, Bins, M->ref(J),
        M->create<LoadSharedExpr>(Priv, M->ref(J)))};
    Kern->getBody().push_back(M->create<ForStmt>(
        J,
        M->create<CastExpr>(M->special(SpecialReg::ThreadIdxX),
                            ScalarType::I32),
        M->cmp(BinOp::LT, M->ref(J), M->ref(NumBinsP)),
        M->arith(BinOp::Add, M->ref(J),
                 M->create<CastExpr>(M->special(SpecialReg::BlockDimX),
                                     ScalarType::I32)),
        std::move(MergeBody)));
  }

  std::vector<std::string> Errors;
  if (!verifyKernel(*Kern, Errors))
    reportFatalError("histogram kernel IR invalid: " + Errors.front());
  K = Kern;
  Compiled = compileKernel(*Kern);
}

HistogramResult Histogram::run(engine::ExecutionEngine &E, BufferId In,
                               size_t N, ExecMode Mode) const {
  HistogramResult Result;
  Device &Dev = E.getDevice();
  const ArchDesc &Arch = E.getArch();
  if (Strategy == HistogramStrategy::SharedPrivatized &&
      NumBins * 4ull > Arch.SharedMemPerBlockBytes) {
    Result.Error = "bins do not fit in shared memory";
    return Result;
  }

  DeviceScope Scratch(Dev);
  BufferId BinsBuf = Dev.alloc(ScalarType::I32, NumBins);
  size_t PerBlock = static_cast<size_t>(BlockSize) * Coarsen;
  unsigned Grid = static_cast<unsigned>(
      std::max<size_t>(1, (N + PerBlock - 1) / PerBlock));

  Result.Launch = E.launch(
      Compiled, {Grid, BlockSize, 0},
      {ArgValue::buffer(BinsBuf), ArgValue::buffer(In),
       ArgValue::scalar(static_cast<long long>(N)),
       ArgValue::scalar(NumBins)},
      Mode);
  if (!Result.Launch.ok()) {
    Result.Error = Result.Launch.Errors.front();
    return Result;
  }

  KernelTiming T = modelKernelTime(Arch, Result.Launch);
  Result.Seconds = T.TotalSeconds;
  Result.Bins.resize(NumBins);
  for (unsigned B = 0; B != NumBins; ++B)
    Result.Bins[B] = Dev.readInt(BinsBuf, B);
  Result.Ok = true;
  return Result;
}
