//===- Scan.cpp - Prefix sum on the reduction substrate --------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "apps/Scan.h"

#include "ir/Verifier.h"
#include "support/ErrorHandling.h"

#include <algorithm>

using namespace tangram;
using namespace tangram::apps;
using namespace tangram::ir;
using namespace tangram::sim;

const char *tangram::apps::getScanStrategyName(ScanStrategy S) {
  return S == ScanStrategy::SharedKoggeStone ? "shared-kogge-stone"
                                             : "shuffle-kogge-stone";
}

std::vector<long long>
tangram::apps::referenceInclusiveScan(const std::vector<int> &In) {
  std::vector<long long> Out(In.size());
  long long Acc = 0;
  for (size_t I = 0; I != In.size(); ++I) {
    Acc += In[I];
    Out[I] = static_cast<long long>(static_cast<int>(Acc));
  }
  return Out;
}

Scan::Scan(ScanStrategy Strategy, unsigned BlockSize)
    : Strategy(Strategy), BlockSize(BlockSize),
      M(std::make_unique<Module>()) {
  // --- Per-block inclusive scan kernel -----------------------------------
  {
    Kernel *K = M->addKernel(
        std::string("scan_block_") +
        (Strategy == ScanStrategy::SharedKoggeStone ? "shared" : "shfl"));
    Param *Out = K->addPointerParam("out", ScalarType::I32);
    Param *Sums = K->addPointerParam("block_sums", ScalarType::I32);
    Param *In = K->addPointerParam("in", ScalarType::I32);
    Param *N = K->addScalarParam("n", ScalarType::I32);

    Expr *Tid = M->special(SpecialReg::ThreadIdxX);
    auto Gid = [&]() -> Expr * {
      return M->arith(
          BinOp::Add,
          M->arith(BinOp::Mul, M->special(SpecialReg::BlockIdxX),
                   M->special(SpecialReg::BlockDimX)),
          M->special(SpecialReg::ThreadIdxX));
    };

    Local *Val = K->addLocal("val", ScalarType::I32);
    K->getBody().push_back(M->create<DeclLocalStmt>(
        Val, M->create<SelectExpr>(
                 M->cmp(BinOp::LT, Gid(), M->ref(N)),
                 M->create<LoadGlobalExpr>(In, Gid()), M->constI(0),
                 ScalarType::I32)));

    if (Strategy == ScanStrategy::SharedKoggeStone) {
      // Classic shared-memory Kogge-Stone ladder with two barriers per
      // doubling step.
      SharedArray *Buf = K->addSharedArray(
          "buf", ScalarType::I32, M->special(SpecialReg::BlockDimX));
      K->getBody().push_back(M->create<StoreSharedStmt>(Buf, Tid,
                                                        M->ref(Val)));
      K->getBody().push_back(M->create<BarrierStmt>());

      Local *D = K->addLocal("d", ScalarType::I32);
      Local *T = K->addLocal("t", ScalarType::I32);
      K->getBody().push_back(M->create<DeclLocalStmt>(T, M->constI(0)));
      std::vector<Stmt *> LoopBody;
      LoopBody.push_back(M->create<AssignStmt>(
          T, M->create<SelectExpr>(
                 M->cmp(BinOp::GE,
                        M->create<CastExpr>(
                            M->special(SpecialReg::ThreadIdxX),
                            ScalarType::I32),
                        M->ref(D)),
                 M->create<LoadSharedExpr>(
                     Buf, M->arith(BinOp::Sub,
                                   M->create<CastExpr>(
                                       M->special(
                                           SpecialReg::ThreadIdxX),
                                       ScalarType::I32),
                                   M->ref(D))),
                 M->constI(0), ScalarType::I32)));
      LoopBody.push_back(M->create<BarrierStmt>());
      LoopBody.push_back(M->create<StoreSharedStmt>(
          Buf, M->special(SpecialReg::ThreadIdxX),
          M->arith(BinOp::Add,
                   M->create<LoadSharedExpr>(
                       Buf, M->special(SpecialReg::ThreadIdxX)),
                   M->ref(T))));
      LoopBody.push_back(M->create<BarrierStmt>());
      K->getBody().push_back(M->create<ForStmt>(
          D, M->constI(1),
          M->cmp(BinOp::LT, M->ref(D),
                 M->create<CastExpr>(M->special(SpecialReg::BlockDimX),
                                     ScalarType::I32)),
          M->arith(BinOp::Mul, M->ref(D), M->constI(2)),
          std::move(LoopBody)));
      K->getBody().push_back(M->create<AssignStmt>(
          Val, M->create<LoadSharedExpr>(
                   Buf, M->special(SpecialReg::ThreadIdxX))));
    } else {
      // Register ladder with __shfl_up within each warp (the Fig. 4
      // rewrite applied to scan), warp totals combined through shared
      // memory.
      Expr *Lane = M->binary(BinOp::Rem, Tid,
                             M->special(SpecialReg::WarpSize),
                             ScalarType::U32);
      auto LaneExpr = [&]() -> Expr * {
        return M->binary(BinOp::Rem, M->special(SpecialReg::ThreadIdxX),
                         M->special(SpecialReg::WarpSize),
                         ScalarType::U32);
      };
      auto WarpExpr = [&]() -> Expr * {
        return M->binary(BinOp::Div, M->special(SpecialReg::ThreadIdxX),
                         M->special(SpecialReg::WarpSize),
                         ScalarType::U32);
      };
      (void)Lane;

      // Per-warp inclusive scan.
      Local *D = K->addLocal("d", ScalarType::I32);
      Local *T = K->addLocal("t", ScalarType::I32);
      K->getBody().push_back(M->create<DeclLocalStmt>(T, M->constI(0)));
      std::vector<Stmt *> WarpLadder;
      WarpLadder.push_back(M->create<AssignStmt>(
          T, M->create<ShuffleExpr>(ShuffleMode::Up, M->ref(Val),
                                    M->ref(D), 32)));
      std::vector<Stmt *> Apply = {M->create<AssignStmt>(
          Val, M->arith(BinOp::Add, M->ref(Val), M->ref(T)))};
      WarpLadder.push_back(M->create<IfStmt>(
          M->cmp(BinOp::GE,
                 M->create<CastExpr>(LaneExpr(), ScalarType::I32),
                 M->ref(D)),
          std::move(Apply), std::vector<Stmt *>{}));
      K->getBody().push_back(M->create<ForStmt>(
          D, M->constI(1), M->cmp(BinOp::LT, M->ref(D), M->constI(32)),
          M->arith(BinOp::Mul, M->ref(D), M->constI(2)),
          std::move(WarpLadder)));

      // Publish warp totals; warp 0 scans them with the same ladder.
      SharedArray *WarpSums =
          K->addSharedArray("warp_sums", ScalarType::I32, M->constI(32));
      std::vector<Stmt *> InitWS = {M->create<StoreSharedStmt>(
          WarpSums, M->special(SpecialReg::ThreadIdxX), M->constI(0))};
      K->getBody().push_back(M->create<IfStmt>(
          M->cmp(BinOp::LT, M->special(SpecialReg::ThreadIdxX),
                 M->constU(32)),
          std::move(InitWS), std::vector<Stmt *>{}));
      K->getBody().push_back(M->create<BarrierStmt>());
      std::vector<Stmt *> Publish = {M->create<StoreSharedStmt>(
          WarpSums, WarpExpr(), M->ref(Val))};
      K->getBody().push_back(M->create<IfStmt>(
          M->cmp(BinOp::EQ,
                 M->create<CastExpr>(LaneExpr(), ScalarType::I32),
                 M->constI(31)),
          std::move(Publish), std::vector<Stmt *>{}));
      K->getBody().push_back(M->create<BarrierStmt>());

      Local *Ws = K->addLocal("ws", ScalarType::I32);
      Local *D2 = K->addLocal("d2", ScalarType::I32);
      Local *T2 = K->addLocal("t2", ScalarType::I32);
      K->getBody().push_back(M->create<DeclLocalStmt>(Ws, M->constI(0)));
      K->getBody().push_back(M->create<DeclLocalStmt>(T2, M->constI(0)));
      std::vector<Stmt *> Warp0;
      Warp0.push_back(M->create<AssignStmt>(
          Ws, M->create<LoadSharedExpr>(
                  WarpSums, M->special(SpecialReg::ThreadIdxX))));
      std::vector<Stmt *> Ladder2;
      Ladder2.push_back(M->create<AssignStmt>(
          T2, M->create<ShuffleExpr>(ShuffleMode::Up, M->ref(Ws),
                                     M->ref(D2), 32)));
      std::vector<Stmt *> Apply2 = {M->create<AssignStmt>(
          Ws, M->arith(BinOp::Add, M->ref(Ws), M->ref(T2)))};
      Ladder2.push_back(M->create<IfStmt>(
          M->cmp(BinOp::GE,
                 M->create<CastExpr>(LaneExpr(), ScalarType::I32),
                 M->ref(D2)),
          std::move(Apply2), std::vector<Stmt *>{}));
      Warp0.push_back(M->create<ForStmt>(
          D2, M->constI(1), M->cmp(BinOp::LT, M->ref(D2), M->constI(32)),
          M->arith(BinOp::Mul, M->ref(D2), M->constI(2)),
          std::move(Ladder2)));
      Warp0.push_back(M->create<StoreSharedStmt>(
          WarpSums, M->special(SpecialReg::ThreadIdxX), M->ref(Ws)));
      K->getBody().push_back(M->create<IfStmt>(
          M->cmp(BinOp::LT, M->special(SpecialReg::ThreadIdxX),
                 M->constU(32)),
          std::move(Warp0), std::vector<Stmt *>{}));
      K->getBody().push_back(M->create<BarrierStmt>());

      // Add the exclusive prefix of the preceding warps.
      std::vector<Stmt *> AddPrev = {M->create<AssignStmt>(
          Val, M->arith(BinOp::Add, M->ref(Val),
                        M->create<LoadSharedExpr>(
                            WarpSums,
                            M->binary(BinOp::Sub, WarpExpr(),
                                      M->constU(1), ScalarType::U32))))};
      K->getBody().push_back(M->create<IfStmt>(
          M->cmp(BinOp::GT, WarpExpr(), M->constU(0)), std::move(AddPrev),
          std::vector<Stmt *>{}));
    }

    // Stores: the scanned element and the block total.
    std::vector<Stmt *> StoreOut = {
        M->create<StoreGlobalStmt>(Out, Gid(), M->ref(Val))};
    K->getBody().push_back(M->create<IfStmt>(
        M->cmp(BinOp::LT, Gid(), M->ref(N)), std::move(StoreOut),
        std::vector<Stmt *>{}));
    std::vector<Stmt *> StoreSum = {M->create<StoreGlobalStmt>(
        Sums, M->special(SpecialReg::BlockIdxX), M->ref(Val))};
    K->getBody().push_back(M->create<IfStmt>(
        M->cmp(BinOp::EQ, M->special(SpecialReg::ThreadIdxX),
               M->binary(BinOp::Sub, M->special(SpecialReg::BlockDimX),
                         M->constU(1), ScalarType::U32)),
        std::move(StoreSum), std::vector<Stmt *>{}));
    ScanK = K;
  }

  // --- Uniform-add kernel -------------------------------------------------
  {
    Kernel *K = M->addKernel("scan_uniform_add");
    Param *Out = K->addPointerParam("out", ScalarType::I32);
    Param *Sums = K->addPointerParam("scanned_sums", ScalarType::I32);
    Param *N = K->addScalarParam("n", ScalarType::I32);
    auto Gid = [&]() -> Expr * {
      return M->arith(
          BinOp::Add,
          M->arith(BinOp::Mul, M->special(SpecialReg::BlockIdxX),
                   M->special(SpecialReg::BlockDimX)),
          M->special(SpecialReg::ThreadIdxX));
    };
    std::vector<Stmt *> Add = {M->create<StoreGlobalStmt>(
        Out, Gid(),
        M->arith(BinOp::Add, M->create<LoadGlobalExpr>(Out, Gid()),
                 M->create<LoadGlobalExpr>(
                     Sums, M->binary(BinOp::Sub,
                                     M->special(SpecialReg::BlockIdxX),
                                     M->constU(1), ScalarType::U32))))};
    K->getBody().push_back(M->create<IfStmt>(
        M->binary(BinOp::LAnd, M->cmp(BinOp::LT, Gid(), M->ref(N)),
                  M->cmp(BinOp::GT, M->special(SpecialReg::BlockIdxX),
                         M->constU(0)),
                  ScalarType::I32),
        std::move(Add), std::vector<Stmt *>{}));
    AddK = K;
  }

  std::vector<std::string> Errors;
  if (!verifyModule(*M, Errors))
    reportFatalError("scan kernel IR invalid: " + Errors.front());
  ScanCompiled = compileKernel(*ScanK);
  AddCompiled = compileKernel(*AddK);
}

ScanResult Scan::runLevel(engine::ExecutionEngine &E, BufferId In,
                          BufferId Out, size_t N, ExecMode Mode,
                          unsigned Depth) const {
  ScanResult Result;
  if (Depth > 4) {
    Result.Error = "scan recursion too deep";
    return Result;
  }
  Device &Dev = E.getDevice();
  const ArchDesc &Arch = E.getArch();
  unsigned Grid = static_cast<unsigned>(
      std::max<size_t>(1, (N + BlockSize - 1) / BlockSize));
  DeviceScope Scratch(Dev);
  BufferId Sums = Dev.alloc(ScalarType::I32, Grid);

  LaunchResult R1 = E.launch(
      ScanCompiled, {Grid, BlockSize, 0},
      {ArgValue::buffer(Out), ArgValue::buffer(Sums), ArgValue::buffer(In),
       ArgValue::scalar(static_cast<long long>(N))},
      Mode);
  if (!R1.ok()) {
    Result.Error = R1.Errors.front();
    return Result;
  }
  Result.Seconds += modelKernelTime(Arch, R1).TotalSeconds;
  Result.KernelLaunches += 1;

  if (Grid > 1) {
    // Scan the block sums in place, then add them back.
    BufferId ScannedSums = Dev.alloc(ScalarType::I32, Grid);
    ScanResult Inner =
        runLevel(E, Sums, ScannedSums, Grid, Mode, Depth + 1);
    if (!Inner.Ok) {
      Result.Error = Inner.Error;
      return Result;
    }
    Result.Seconds += Inner.Seconds;
    Result.KernelLaunches += Inner.KernelLaunches;

    LaunchResult R2 = E.launch(
        AddCompiled, {Grid, BlockSize, 0},
        {ArgValue::buffer(Out), ArgValue::buffer(ScannedSums),
         ArgValue::scalar(static_cast<long long>(N))},
        Mode);
    if (!R2.ok()) {
      Result.Error = R2.Errors.front();
      return Result;
    }
    Result.Seconds += modelKernelTime(Arch, R2).TotalSeconds;
    Result.KernelLaunches += 1;
  }
  Result.Ok = true;
  return Result;
}

ScanResult Scan::run(engine::ExecutionEngine &E, BufferId In, BufferId Out,
                     size_t N, ExecMode Mode) const {
  return runLevel(E, In, Out, N, Mode, 0);
}
