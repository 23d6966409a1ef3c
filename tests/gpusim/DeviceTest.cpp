//===- DeviceTest.cpp - Device memory and virtual buffer tests ----------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Device.h"

#include "gpusim/SimtMachine.h"
#include "ir/Bytecode.h"

#include <gtest/gtest.h>

using namespace tangram;
using namespace tangram::ir;
using namespace tangram::sim;

namespace {

TEST(Device, DenseReadWriteRoundTrip) {
  Device Dev;
  BufferId Id = Dev.alloc(ScalarType::F32, 8);
  Dev.writeFloats(Id, {1.5f, -2.0f, 0.0f});
  EXPECT_FLOAT_EQ(Dev.readFloat(Id, 0), 1.5f);
  EXPECT_FLOAT_EQ(Dev.readFloat(Id, 1), -2.0f);
  EXPECT_FLOAT_EQ(Dev.readFloat(Id, 7), 0.0f); // Untouched cells are zero.

  BufferId IntId = Dev.alloc(ScalarType::I32, 4);
  Dev.writeInts(IntId, {7, -9});
  EXPECT_EQ(Dev.readInt(IntId, 0), 7);
  EXPECT_EQ(Dev.readInt(IntId, 1), -9);
}

TEST(Device, VirtualPatternValues) {
  VirtualPattern P;
  P.Base = 2.0;
  P.Scale = 0.5;
  P.Modulus = 4;
  // value(i) = 2 + 0.5 * (i % 4)
  EXPECT_FLOAT_EQ(P.at(0).F, 2.0f);
  EXPECT_FLOAT_EQ(P.at(3).F, 3.5f);
  EXPECT_FLOAT_EQ(P.at(4).F, 2.0f); // Wraps.
  EXPECT_FLOAT_EQ(P.at(7).F, 3.5f);
}

TEST(Device, VirtualPatternSumMatchesBruteForce) {
  VirtualPattern P;
  P.Base = -1.0;
  P.Scale = 0.25;
  P.Modulus = 13;
  for (uint64_t N : {1ull, 12ull, 13ull, 14ull, 100ull, 12345ull}) {
    double Brute = 0;
    for (uint64_t I = 0; I != N; ++I)
      Brute += P.at(I).F;
    EXPECT_NEAR(P.sumFirst(N), Brute, std::abs(Brute) * 1e-9 + 1e-9)
        << "N=" << N;
  }
}

TEST(Device, VirtualBufferReadsPattern) {
  Device Dev;
  VirtualPattern P;
  P.Modulus = 5;
  BufferId Id = Dev.allocVirtual(ScalarType::F32, 1000, P);
  EXPECT_TRUE(Dev.get(Id).isVirtual());
  EXPECT_FLOAT_EQ(Dev.readFloat(Id, 7), 2.0f); // 7 % 5 = 2.
  EXPECT_EQ(Dev.get(Id).getF32(), nullptr); // No storage until materialized.
}

TEST(Device, KernelWriteToVirtualBufferIsAnError) {
  Module M;
  Kernel *K = M.addKernel("store_virtual");
  Param *Out = K->addPointerParam("out", ScalarType::F32);
  K->getBody().push_back(
      M.create<StoreGlobalStmt>(Out, M.constI(0), M.constF(1.0)));
  CompiledKernel CK = compileKernel(*K);

  Device Dev;
  VirtualPattern P;
  BufferId Id = Dev.allocVirtual(ScalarType::F32, 64, P);
  SimtMachine Machine(Dev, getMaxwellGTX980());
  LaunchResult R = Machine.launch(CK, {1, 32, 0}, {ArgValue::buffer(Id)});
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Errors.front().find("read-only"), std::string::npos);
}

TEST(Device, KernelReductionOverVirtualBufferMatchesAnalyticSum) {
  // The bench-harness contract: a kernel that sums a virtual buffer must
  // produce VirtualPattern::sumFirst (float32 rounding aside).
  Module M;
  Kernel *K = M.addKernel("sum_virtual");
  Param *Out = K->addPointerParam("out", ScalarType::F32);
  Param *In = K->addPointerParam("in", ScalarType::F32);
  Param *N = K->addScalarParam("n", ScalarType::I32);
  Local *Tid = K->addLocal("tid", ScalarType::U32);
  K->getBody().push_back(M.create<DeclLocalStmt>(
      Tid, M.arith(BinOp::Add,
                   M.arith(BinOp::Mul, M.special(SpecialReg::BlockIdxX),
                           M.special(SpecialReg::BlockDimX)),
                   M.special(SpecialReg::ThreadIdxX))));
  Local *Val = K->addLocal("val", ScalarType::F32);
  K->getBody().push_back(M.create<DeclLocalStmt>(
      Val, M.create<SelectExpr>(
               M.cmp(BinOp::LT, M.ref(Tid), M.ref(N)),
               M.create<LoadGlobalExpr>(In, M.ref(Tid)), M.constF(0.0),
               ScalarType::F32)));
  K->getBody().push_back(M.create<AtomicGlobalStmt>(
      ReduceOp::Add, AtomicScope::Device, Out, M.constI(0), M.ref(Val)));
  CompiledKernel CK = compileKernel(*K);

  const unsigned Size = 10000;
  Device Dev;
  VirtualPattern P;
  P.Base = 0.5;
  P.Scale = 0.125;
  P.Modulus = 32; // Power of two: float32-exact partial sums.
  BufferId InBuf = Dev.allocVirtual(ScalarType::F32, Size, P);
  BufferId OutBuf = Dev.alloc(ScalarType::F32, 1);
  SimtMachine Machine(Dev, getPascalP100());
  LaunchResult R = Machine.launch(
      CK, {(Size + 255) / 256, 256, 0},
      {ArgValue::buffer(OutBuf), ArgValue::buffer(InBuf),
       ArgValue::scalar(Size)});
  ASSERT_TRUE(R.ok()) << R.Errors.front();
  EXPECT_NEAR(Dev.readFloat(OutBuf, 0), P.sumFirst(Size), 1e-1);
}

} // namespace
