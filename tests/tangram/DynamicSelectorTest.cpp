//===- DynamicSelectorTest.cpp - Runtime selection tests ----------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "tangram/DynamicSelector.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace tangram;
using namespace tangram::synth;

namespace {

TangramReduction &facade() {
  static std::unique_ptr<TangramReduction> TR = [] {
    auto T = TangramReduction::create();
    EXPECT_TRUE(T.ok()) << T.status().toString();
    return std::move(*T);
  }();
  return *TR;
}

TEST(DynamicSelector, DefaultPortfolioIsTheBestEight) {
  DynamicSelector Selector(facade());
  // Exploration phase: exactly eight calls until convergence per bucket.
  const sim::ArchDesc &Arch = sim::getMaxwellGTX980();
  const size_t N = 4096;
  std::vector<float> Data(N, 0.5f);
  engine::ExecutionEngine &E = facade().engineFor(Arch);
  for (unsigned Call = 0; Call != 8; ++Call) {
    EXPECT_FALSE(Selector.isConverged(Arch, N));
    sim::DeviceScope Scratch(E.getDevice());
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
    E.getDevice().writeFloats(In, Data);
    auto Out =
        Selector.reduce(E, engine::ReduceRequest{.In = In, .N = N});
    ASSERT_TRUE(Out.ok()) << Out.status().toString();
    EXPECT_NEAR(Out->FloatValue, N * 0.5, 1e-2);
  }
  EXPECT_TRUE(Selector.isConverged(Arch, N));
  ASSERT_NE(Selector.getBest(Arch, N), nullptr);
}

TEST(DynamicSelector, EveryCallReturnsCorrectResult) {
  // Correctness must hold during exploration AND exploitation.
  DynamicSelector Selector(facade());
  const sim::ArchDesc &Arch = sim::getPascalP100();
  const size_t N = 10007;
  std::vector<float> Data(N);
  double Expected = 0;
  for (size_t I = 0; I != N; ++I) {
    Data[I] = static_cast<float>((I % 11)) * 0.125f;
    Expected += Data[I];
  }
  engine::ExecutionEngine &E = facade().engineFor(Arch);
  for (unsigned Call = 0; Call != 12; ++Call) {
    sim::DeviceScope Scratch(E.getDevice());
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
    E.getDevice().writeFloats(In, Data);
    auto Out =
        Selector.reduce(E, engine::ReduceRequest{.In = In, .N = N});
    ASSERT_TRUE(Out.ok()) << "call " << Call << ": "
                          << Out.status().toString();
    EXPECT_NEAR(Out->FloatValue, Expected, Expected * 1e-4);
  }
}

TEST(DynamicSelector, ConvergesToArchAppropriateWinner) {
  DynamicSelector Maxwell(facade());
  DynamicSelector Kepler(facade());
  const size_t N = 1024;
  std::vector<float> Data(N, 1.0f);

  auto Converge = [&](DynamicSelector &Sel, const sim::ArchDesc &Arch) {
    engine::ExecutionEngine &E = facade().engineFor(Arch);
    for (unsigned Call = 0; Call != 8; ++Call) {
      sim::DeviceScope Scratch(E.getDevice());
      sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
      E.getDevice().writeFloats(In, Data);
      EXPECT_TRUE(
          Sel.reduce(E, engine::ReduceRequest{.In = In, .N = N}).ok());
    }
  };
  Converge(Maxwell, sim::getMaxwellGTX980());
  Converge(Kepler, sim::getKeplerK40c());

  const VariantDescriptor *MaxwellBest =
      Maxwell.getBest(sim::getMaxwellGTX980(), N);
  const VariantDescriptor *KeplerBest =
      Kepler.getBest(sim::getKeplerK40c(), N);
  ASSERT_TRUE(MaxwellBest && KeplerBest);
  // The Section IV-C story: Maxwell's native shared atomics pick (n);
  // Kepler's lock loop avoids it.
  EXPECT_EQ(MaxwellBest->getFigure6Label(), "n");
  EXPECT_NE(KeplerBest->getFigure6Label(), "n");
}

TEST(DynamicSelector, BucketsAreIndependent) {
  DynamicSelector Selector(facade());
  const sim::ArchDesc &Arch = sim::getMaxwellGTX980();
  EXPECT_NE(DynamicSelector::bucketOf(64),
            DynamicSelector::bucketOf(1 << 20));
  std::vector<float> Data(64, 1.0f);
  engine::ExecutionEngine &E = facade().engineFor(Arch);
  sim::DeviceScope Scratch(E.getDevice());
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, 64);
  E.getDevice().writeFloats(In, Data);
  EXPECT_TRUE(
      Selector.reduce(E, engine::ReduceRequest{.In = In, .N = 64}).ok());
  // A different bucket has seen nothing yet.
  EXPECT_FALSE(Selector.isConverged(Arch, 1 << 20));
  EXPECT_EQ(Selector.getBest(Arch, 1 << 20), nullptr);
}

TEST(DynamicSelector, CustomPortfolio) {
  std::vector<VariantDescriptor> Portfolio = {
      *findByFigure6Label(facade().getSearchSpace(), "l"),
      *findByFigure6Label(facade().getSearchSpace(), "m"),
  };
  DynamicSelector Selector(facade(), Portfolio);
  const sim::ArchDesc &Arch = sim::getKeplerK40c();
  std::vector<float> Data(512, 2.0f);
  engine::ExecutionEngine &E = facade().engineFor(Arch);
  for (unsigned Call = 0; Call != 2; ++Call) {
    sim::DeviceScope Scratch(E.getDevice());
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, 512);
    E.getDevice().writeFloats(In, Data);
    EXPECT_TRUE(
        Selector.reduce(E, engine::ReduceRequest{.In = In, .N = 512}).ok());
  }
  EXPECT_TRUE(Selector.isConverged(Arch, 512));
  const VariantDescriptor *Best = Selector.getBest(Arch, 512);
  ASSERT_NE(Best, nullptr);
  std::string Label = Best->getFigure6Label();
  EXPECT_TRUE(Label == "l" || Label == "m");
}

} // namespace
