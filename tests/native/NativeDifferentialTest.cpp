//===- NativeDifferentialTest.cpp - Native backend vs simulator oracle --------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// Differential acceptance for the native CPU backend (src/native): the
// simulator is the oracle, the native engine must agree with it on the
// same synthesized bytecode. Coverage:
//
//   * the full 68-variant search space, on every architecture model, at an
//     awkward N (partial warps, partial tail block);
//   * the reduce::OpDef spectrum ({Add, Min, Max, ArgMax} x {F32, I32,
//     I64}) on representative variants, bit-exact for integer and
//     arg-reductions (value AND index payload), ULP-bounded for float sum;
//   * bit-identical native results across engine thread counts (the
//     parallel effect-log path vs the sequential path);
//   * the engine contracts around the backend seam: backend-distinct
//     cache keys, validateVariant's three-way cross-check, the RaceCheck
//     refusal, and the DynamicSelector's native fallback tier.
//
// Registered under the `native` ctest label (tier1-native preset).
//
//===----------------------------------------------------------------------===//

#include "native/NativeKernel.h"
#include "reduce/OpDef.h"
#include "tangram/DynamicSelector.h"
#include "tangram/Tangram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace tangram;
using namespace tangram::sim;
using namespace tangram::synth;

using support::StatusCode;

namespace {

TangramReduction &facade() {
  static std::unique_ptr<TangramReduction> TR = [] {
    auto T = TangramReduction::create();
    EXPECT_TRUE(T.ok()) << T.status().toString();
    return std::move(*T);
  }();
  return *TR;
}

/// Float-sum oracle tolerance — the same bound ExecutionEngine's
/// cross-check applies: both engines evaluate f32 ops double-then-round
/// in the same order, so divergence beyond rounding noise is a bug.
double floatTol(double Oracle) { return std::abs(Oracle) * 1e-6 + 1e-9; }

//===----------------------------------------------------------------------===//
// Full-space sweep: every variant, every arch, simulator vs native.
//===----------------------------------------------------------------------===//

TEST(NativeDifferential, EveryVariantMatchesTheOracleOnEveryArch) {
  TangramReduction &TR = facade();
  // Partial warps and a partial tail block: 1777 = 55 * 32 + 17.
  const size_t N = 1777;

  unsigned ArchCount = 0;
  const ArchDesc *Archs = getAllArchs(ArchCount);
  ASSERT_GT(ArchCount, 0u);
  unsigned Compared = 0;
  for (unsigned A = 0; A != ArchCount; ++A) {
    engine::ExecutionEngine &E = TR.engineFor(Archs[A]);
    sim::DeviceScope Scratch(E.getDevice());
    VirtualPattern Pattern;
    BufferId In = E.getDevice().allocVirtual(ir::ScalarType::F32, N, Pattern);
    for (const VariantDescriptor &V : TR.getSearchSpace().All) {
      std::string Cell = Archs[A].Name + " / " + V.getName();
      engine::ReduceRequest Req{.Desc = V, .In = In, .N = N};
      auto Sim = E.run(Req);
      Req.BackendKind = engine::Backend::NativeCpu;
      auto Nat = E.run(Req);
      if (!Sim.ok()) {
        // Synthesis failures are backend-independent (e.g. an atomic the
        // arch model refuses): the native path must refuse identically,
        // not fabricate a result.
        EXPECT_FALSE(Nat.ok()) << Cell;
        continue;
      }
      ASSERT_TRUE(Nat.ok()) << Cell << ": " << Nat.status().toString();
      EXPECT_NEAR(Nat->FloatValue, Sim->FloatValue, floatTol(Sim->FloatValue))
          << Cell;
      ++Compared;
    }
  }
  // The default facade's space is fully legal on every modeled arch: the
  // sweep must actually have compared arch-count x 68 pairs, not skipped.
  EXPECT_EQ(Compared, ArchCount * TR.getSearchSpace().All.size());
}

//===----------------------------------------------------------------------===//
// The op x dtype spectrum on representative variants.
//===----------------------------------------------------------------------===//

struct MatrixPoint {
  ReduceOp Op;
  ir::ScalarType Elem;
};

std::string pointName(const MatrixPoint &P) {
  return std::string(getReduceOpSpelling(P.Op)) + "_" +
         reduce::getScalarTypeSpelling(P.Elem);
}

const MatrixPoint Matrix[] = {
    {ReduceOp::Add, ir::ScalarType::F32},
    {ReduceOp::Add, ir::ScalarType::I32},
    {ReduceOp::Add, ir::ScalarType::I64},
    {ReduceOp::Min, ir::ScalarType::F32},
    {ReduceOp::Min, ir::ScalarType::I32},
    {ReduceOp::Min, ir::ScalarType::I64},
    {ReduceOp::Max, ir::ScalarType::F32},
    {ReduceOp::Max, ir::ScalarType::I32},
    {ReduceOp::Max, ir::ScalarType::I64},
    {ReduceOp::ArgMax, ir::ScalarType::F32},
    {ReduceOp::ArgMax, ir::ScalarType::I32},
    {ReduceOp::ArgMax, ir::ScalarType::I64},
};

TangramReduction &facadeFor(const MatrixPoint &P) {
  static std::map<std::pair<ReduceOp, ir::ScalarType>,
                  std::unique_ptr<TangramReduction>>
      Cache;
  auto Key = std::make_pair(P.Op, P.Elem);
  auto It = Cache.find(Key);
  if (It == Cache.end()) {
    TangramReduction::Options Opts;
    Opts.Op = P.Op;
    Opts.Elem = P.Elem;
    auto TR = TangramReduction::create(Opts);
    EXPECT_TRUE(TR.ok()) << pointName(P) << ": " << TR.status().toString();
    It = Cache.emplace(Key, std::move(*TR)).first;
  }
  return *It->second;
}

class NativeOpMatrix : public ::testing::TestWithParam<MatrixPoint> {};

TEST_P(NativeOpMatrix, NativeAgreesWithTheOracle) {
  const MatrixPoint &P = GetParam();
  TangramReduction &TR = facadeFor(P);
  const ArchDesc &Arch = getPascalP100();
  engine::ExecutionEngine &E = TR.engineFor(Arch);

  // 1023 = 31 * 33: odd shape, and 37 is coprime with it, so the
  // permutation below yields pairwise-distinct values — the arg-reduction
  // winner index is unambiguous and must match bit-for-bit.
  const size_t N = 1023;
  sim::DeviceScope Scratch(E.getDevice());
  BufferId In = E.getDevice().alloc(P.Elem, N);
  if (P.Elem == ir::ScalarType::F32) {
    std::vector<float> Data(N);
    for (size_t I = 0; I != N; ++I)
      Data[I] = static_cast<float>(static_cast<long long>(I * 37 % N) -
                                   static_cast<long long>(N / 2));
    E.getDevice().writeFloats(In, Data);
  } else {
    std::vector<int> Data(N);
    for (size_t I = 0; I != N; ++I)
      Data[I] = static_cast<int>(I * 37 % N) - static_cast<int>(N / 2);
    E.getDevice().writeInts(In, Data);
  }

  bool Illegal = reduce::atomicLegality(P.Op, P.Elem, Arch.Gen) ==
                 reduce::AtomicSupport::Illegal;
  // "b" is pure shuffle-tree (no atomics); "p" layers shared CAS atomics
  // and the global combine on top — together they cross every lowering
  // layer the op axis parameterizes.
  for (const char *Label : {"b", "p"}) {
    const VariantDescriptor *V = findByFigure6Label(TR.getSearchSpace(), Label);
    ASSERT_NE(V, nullptr);
    std::string Cell = pointName(P) + " / " + Label;
    engine::ReduceRequest Req{.Desc = *V, .In = In, .N = N};
    auto Sim = E.run(Req);
    Req.BackendKind = engine::Backend::NativeCpu;
    auto Nat = E.run(Req);
    if (!Sim.ok()) {
      EXPECT_TRUE(Illegal) << Cell << ": " << Sim.status().toString();
      EXPECT_FALSE(Nat.ok()) << Cell;
      continue;
    }
    ASSERT_TRUE(Nat.ok()) << Cell << ": " << Nat.status().toString();
    if (P.Elem == ir::ScalarType::F32 && P.Op == ReduceOp::Add) {
      // Summation rounds; everything else below is exact selection.
      EXPECT_NEAR(Nat->FloatValue, Sim->FloatValue,
                  floatTol(Sim->FloatValue))
          << Cell;
    } else {
      EXPECT_EQ(Nat->FloatValue, Sim->FloatValue) << Cell;
      EXPECT_EQ(Nat->IntValue, Sim->IntValue) << Cell;
    }
    if (isArgReduce(P.Op)) {
      EXPECT_EQ(Nat->IndexValue, Sim->IndexValue) << Cell;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NativeOpMatrix, ::testing::ValuesIn(Matrix),
    [](const ::testing::TestParamInfo<MatrixPoint> &Info) {
      return pointName(Info.param);
    });

//===----------------------------------------------------------------------===//
// Determinism across thread counts (mirrors the engine's simulator test).
//===----------------------------------------------------------------------===//

TEST(NativeDifferential, ResultsAreBitIdenticalAcrossThreadCounts) {
  // Enough blocks that the 4-thread engine actually takes the parallel
  // effect-log path; float data with rounding-sensitive magnitudes so any
  // reassociation across the replay boundary would show.
  const size_t N = size_t{1} << 16;
  std::vector<float> Data(N);
  for (size_t I = 0; I != N; ++I)
    Data[I] = 1.0f + static_cast<float>(I % 193) * 0.03125f;

  double Got[2] = {0, 0};
  unsigned Threads[2] = {1, 4};
  for (int T = 0; T != 2; ++T) {
    TangramReduction::Options Opts;
    Opts.Engine.ThreadCount = Threads[T];
    auto TR = TangramReduction::create(Opts);
    ASSERT_TRUE(TR.ok()) << TR.status().toString();
    engine::ExecutionEngine &E = (*TR)->engineFor(getPascalP100());
    VariantDescriptor V = *findByFigure6Label((*TR)->getSearchSpace(), "b");
    V.BlockSize = 128;
    V.Coarsen = 4;
    BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
    E.getDevice().writeFloats(In, Data);
    auto Out = E.run(engine::ReduceRequest{
        .Desc = V,
        .In = In,
        .N = N,
        .BackendKind = engine::Backend::NativeCpu});
    ASSERT_TRUE(Out.ok()) << Out.status().toString();
    Got[T] = Out->FloatValue;
  }
  // Bitwise, not approximate: the schedule is fixed, only the host-side
  // execution strategy differs.
  EXPECT_EQ(Got[0], Got[1]);
}

//===----------------------------------------------------------------------===//
// Engine contracts around the backend seam.
//===----------------------------------------------------------------------===//

TEST(NativeDifferential, BackendsKeyTheVariantCacheApart) {
  TangramReduction &TR = facade();
  engine::ExecutionEngine &E = TR.engineFor(getMaxwellGTX980());
  const VariantDescriptor &D = *findByFigure6Label(TR.getSearchSpace(), "n");

  auto SimV = E.getVariant(D, {}, engine::Backend::Simulator);
  ASSERT_TRUE(SimV.ok()) << SimV.status().toString();
  EXPECT_EQ((*SimV)->Native, nullptr);

  auto NatV = E.getVariant(D, {}, engine::Backend::NativeCpu);
  ASSERT_TRUE(NatV.ok()) << NatV.status().toString();
  ASSERT_NE((*NatV)->Native, nullptr);
  EXPECT_TRUE((*NatV)->Native->PairMode == false);
  // Distinct cache entries: resolving natively must not retrofit the
  // simulator's entry (callers holding it assume Native stays null).
  EXPECT_NE(SimV->get(), NatV->get());

  // And the native entry is cached: the second resolve is the same object.
  auto Again = E.getVariant(D, {}, engine::Backend::NativeCpu);
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(NatV->get(), Again->get());
}

TEST(NativeDifferential, ValidateVariantCrossChecksNatively) {
  TangramReduction &TR = facade();
  engine::ExecutionEngine &E = TR.engineFor(getKeplerK40c());
  const VariantDescriptor &D = *findByFigure6Label(TR.getSearchSpace(), "b");
  engine::DiagnoseRequest DR;
  DR.Desc = D;
  DR.N = 2048;
  DR.BackendKind = engine::Backend::NativeCpu;
  auto Report = E.diagnose(DR);
  ASSERT_TRUE(Report.ok()) << Report.status().toString();
  support::Status S = Report->Validation;
  EXPECT_TRUE(S.ok()) << S.toString();
  EXPECT_FALSE(E.isQuarantined(D));
}

TEST(NativeDifferential, RaceCheckIsRefusedNatively) {
  TangramReduction &TR = facade();
  engine::ExecutionEngine &E = TR.engineFor(getPascalP100());
  const VariantDescriptor &D = *findByFigure6Label(TR.getSearchSpace(), "b");
  sim::DeviceScope Scratch(E.getDevice());
  VirtualPattern Pattern;
  BufferId In = E.getDevice().allocVirtual(ir::ScalarType::F32, 4096, Pattern);
  auto Out = E.run(engine::ReduceRequest{
      .Desc = D,
      .In = In,
      .N = 4096,
      .Mode = ExecMode::RaceCheck,
      .BackendKind = engine::Backend::NativeCpu});
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.status().Code, StatusCode::InvalidArgument);
}

TEST(NativeDifferential, SelectorFallsBackToNativeWhenSimulatorPathIsDead) {
  // Fresh facade: quarantine state is per-engine and must not leak into
  // the shared-facade tests above.
  auto TR = TangramReduction::create();
  ASSERT_TRUE(TR.ok()) << TR.status().toString();
  engine::ExecutionEngine &E = (*TR)->engineFor(getMaxwellGTX980());

  std::vector<VariantDescriptor> Portfolio = {
      *findByFigure6Label((*TR)->getSearchSpace(), "b"),
      *findByFigure6Label((*TR)->getSearchSpace(), "n"),
  };
  for (const VariantDescriptor &D : Portfolio)
    E.quarantineVariant(
        D, support::Status(StatusCode::DeadlineExceeded,
                           "synthetic quarantine for fallback test"));

  const size_t N = 4096;
  std::vector<float> Data(N);
  double Want = 0;
  for (size_t I = 0; I != N; ++I) {
    Data[I] = static_cast<float>(I % 97) * 0.25f;
    Want += Data[I];
  }
  BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
  E.getDevice().writeFloats(In, Data);

  DynamicSelector Sel(**TR, Portfolio);
  auto Out = Sel.reduce(E, engine::ReduceRequest{.In = In, .N = N});
  ASSERT_TRUE(Out.ok()) << Out.status().toString();
  // The native tier answered — not the host-loop last resort: quarantine
  // is a simulator-path verdict and does not damn the native backend.
  EXPECT_EQ(Sel.getNativeFallbackRuns(), 1u);
  EXPECT_EQ(Sel.getFallbackRuns(), 0u);
  EXPECT_NEAR(Out->FloatValue, Want, floatTol(Want));
}

//===----------------------------------------------------------------------===//
// Lowering regression: scratch-register plane reuse.
//===----------------------------------------------------------------------===//

TEST(NativeLowering, ScratchRegisterPlaneReuseLowers) {
  // Variant "m"'s bytecode reuses scratch registers across int and float
  // planes on either side of an if/else join — the shape that requires
  // the structured per-lane dataflow (a naive CFG-edge walk follows the
  // interpreter's empty-mask skip edges and reports a false conflict).
  TangramReduction &TR = facade();
  const VariantDescriptor *D = findByFigure6Label(TR.getSearchSpace(), "m");
  ASSERT_NE(D, nullptr);
  auto V = TR.synthesize(*D);
  ASSERT_TRUE(V.ok()) << V.status().toString();
  auto NK = native::lowerToNative((*V)->Compiled);
  ASSERT_TRUE(NK.ok()) << NK.status().toString();
  EXPECT_TRUE(NK->UsesF32);
  EXPECT_FALSE(NK->PairMode);
}

} // namespace
