//===- ExecutionEngineTest.cpp - Engine, cache, and determinism tests ---------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The tentpole guarantees of the execution layer: each variant identity is
// compiled at most once (cache hit/miss accounting), entries never leak
// across architectures or optimization-flag sets, LRU eviction is bounded,
// and block-parallel simulation is bit-identical to a 1-thread run in both
// functional results and modeled cycle totals.
//
//===----------------------------------------------------------------------===//

#include "engine/ExecutionEngine.h"
#include "tangram/Tangram.h"

#include <gtest/gtest.h>

using namespace tangram;
using namespace tangram::synth;

namespace {

std::unique_ptr<TangramReduction>
makeFacade(const TangramReduction::Options &Opts = {}) {
  auto TR = TangramReduction::create(Opts);
  EXPECT_TRUE(TR.ok()) << TR.status().toString();
  return TR ? std::move(*TR) : nullptr;
}

VariantDescriptor labeled(const TangramReduction &TR, const char *Label) {
  const VariantDescriptor *V = findByFigure6Label(TR.getSearchSpace(), Label);
  EXPECT_NE(V, nullptr) << Label;
  VariantDescriptor D = *V;
  D.BlockSize = 128;
  D.Coarsen = D.BlockDistributes ? 4 : 1;
  return D;
}

TEST(VariantCache, CompileOnceOnCacheHit) {
  auto TR = makeFacade();
  engine::ExecutionEngine &E = TR->engineFor(sim::getKeplerK40c());
  VariantDescriptor D = labeled(*TR, "a");

  auto First = E.getVariant(D);
  ASSERT_TRUE(First.ok()) << First.status().toString();
  auto Second = E.getVariant(D);
  ASSERT_TRUE(Second.ok()) << Second.status().toString();

  EXPECT_EQ(First->get(), Second->get());
  engine::CacheStats S = E.getCacheStats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_EQ(S.Evictions, 0u);
}

TEST(VariantCache, CrossArchKeyingNeverShares) {
  auto TR = makeFacade();
  engine::ExecutionEngine &Kepler = TR->engineFor(sim::getKeplerK40c());
  engine::ExecutionEngine &Maxwell = TR->engineFor(sim::getMaxwellGTX980());
  // The per-arch engines share one cache...
  ASSERT_EQ(Kepler.getCachePtr().get(), Maxwell.getCachePtr().get());

  VariantDescriptor D = labeled(*TR, "m");
  auto OnKepler = Kepler.getVariant(D);
  ASSERT_TRUE(OnKepler.ok()) << OnKepler.status().toString();
  auto OnMaxwell = Maxwell.getVariant(D);
  ASSERT_TRUE(OnMaxwell.ok()) << OnMaxwell.status().toString();

  // ...but the generation field keys their entries apart: the same
  // descriptor synthesizes twice, never hitting the other arch's artifact.
  EXPECT_NE(OnKepler->get(), OnMaxwell->get());
  engine::CacheStats S = Kepler.getCacheStats();
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Entries, 2u);
}

TEST(VariantCache, OptimizationFlagsAreKeyed) {
  auto TR = makeFacade();
  engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
  VariantDescriptor D = labeled(*TR, "n");

  OptimizationFlags Agg;
  Agg.AggregateAtomics = true;
  auto Plain = E.getVariant(D);
  ASSERT_TRUE(Plain.ok()) << Plain.status().toString();
  auto Aggregated = E.getVariant(D, Agg);
  ASSERT_TRUE(Aggregated.ok()) << Aggregated.status().toString();

  EXPECT_NE(Plain->get(), Aggregated->get());
  engine::CacheStats S = E.getCacheStats();
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Entries, 2u);
}

TEST(VariantCache, LruEvictionIsBounded) {
  TangramReduction::Options Opts;
  Opts.Engine.CacheCapacity = 2;
  auto TR = makeFacade(Opts);
  engine::ExecutionEngine &E = TR->engineFor(sim::getKeplerK40c());

  ASSERT_TRUE(E.getVariant(labeled(*TR, "a")).ok());
  ASSERT_TRUE(E.getVariant(labeled(*TR, "l")).ok());
  ASSERT_TRUE(E.getVariant(labeled(*TR, "m")).ok());

  engine::CacheStats S = E.getCacheStats();
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Evictions, 1u);

  // The least recently used entry ("a") is gone: requesting it again is a
  // fourth miss, not a hit.
  ASSERT_TRUE(E.getVariant(labeled(*TR, "a")).ok());
  EXPECT_EQ(E.getCacheStats().Misses, 4u);
}

TEST(ExecutionEngine, GetVariantRequiresCompiler) {
  engine::ExecutionEngine E(sim::getKeplerK40c());
  ASSERT_FALSE(E.hasCompiler());
  VariantDescriptor D;
  auto V = E.getVariant(D);
  ASSERT_FALSE(V.ok());
  EXPECT_EQ(V.code(), support::StatusCode::InvalidArgument);
  EXPECT_FALSE(V.status().Message.empty());
}

TEST(ExecutionEngine, DeterminismAcrossThreadCounts) {
  // The paper's Fig. 6 portfolio, run block-parallel, must be bit-identical
  // to the sequential interpretation: same functional sums AND same modeled
  // warp-cycle totals, on every architecture.
  TangramReduction::Options Seq;
  Seq.Engine.ThreadCount = 1;
  TangramReduction::Options Par;
  Par.Engine.ThreadCount = 4;
  auto TRSeq = makeFacade(Seq);
  auto TRPar = makeFacade(Par);

  const size_t N = 4096 + 17;
  std::vector<float> Data(N);
  for (size_t I = 0; I != N; ++I)
    Data[I] = 0.25f * static_cast<float>((I % 9) + 1);

  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  for (unsigned A = 0; A != Count; ++A) {
    engine::ExecutionEngine &ESeq = TRSeq->engineFor(Archs[A]);
    engine::ExecutionEngine &EPar = TRPar->engineFor(Archs[A]);
    EXPECT_EQ(ESeq.getThreadCount(), 1u);
    EXPECT_EQ(EPar.getThreadCount(), 4u);

    for (const VariantDescriptor &Base : TRSeq->getSearchSpace().Pruned) {
      if (Base.getFigure6Label().empty())
        continue;
      VariantDescriptor D = Base;
      D.BlockSize = 128;
      D.Coarsen = D.BlockDistributes ? 4 : 1;

      sim::DeviceScope ScratchSeq(ESeq.getDevice());
      sim::BufferId InSeq = ESeq.getDevice().alloc(ir::ScalarType::F32, N);
      ESeq.getDevice().writeFloats(InSeq, Data);
      auto OutSeq =
          ESeq.run(engine::ReduceRequest{.Desc = D, .In = InSeq, .N = N});

      sim::DeviceScope ScratchPar(EPar.getDevice());
      sim::BufferId InPar = EPar.getDevice().alloc(ir::ScalarType::F32, N);
      EPar.getDevice().writeFloats(InPar, Data);
      auto OutPar =
          EPar.run(engine::ReduceRequest{.Desc = D, .In = InPar, .N = N});

      ASSERT_TRUE(OutSeq.ok())
          << D.getName() << ": " << OutSeq.status().toString();
      ASSERT_TRUE(OutPar.ok())
          << D.getName() << ": " << OutPar.status().toString();
      // Bitwise equality, not EXPECT_NEAR: the merge order is block-index
      // deterministic, so even float rounding must agree exactly.
      EXPECT_EQ(OutSeq->FloatValue, OutPar->FloatValue)
          << Archs[A].Name << " " << D.getName();
      EXPECT_EQ(OutSeq->Launch.Stats.WarpCycles,
                OutPar->Launch.Stats.WarpCycles)
          << Archs[A].Name << " " << D.getName();
      EXPECT_EQ(OutSeq->Seconds, OutPar->Seconds)
          << Archs[A].Name << " " << D.getName();
    }
  }
}

TEST(ExecutionEngine, SharedPoolAcrossEnginesKeepsOneThreadSet) {
  TangramReduction::Options Opts;
  Opts.Engine.ThreadCount = 2;
  auto TR = makeFacade(Opts);
  engine::ExecutionEngine &A = TR->engineFor(sim::getKeplerK40c());
  engine::ExecutionEngine &B = TR->engineFor(sim::getPascalP100());
  EXPECT_EQ(&A.getThreadPool(), &B.getThreadPool());
  EXPECT_EQ(A.getThreadCount(), 2u);
}

} // namespace
