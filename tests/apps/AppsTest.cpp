//===- AppsTest.cpp - Histogram and Scan application tests --------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The paper motivates parallel reduction as the building block of
// Histogram [12,13] and Scan [14]; these applications exercise the same
// substrate (shared/global atomics, warp shuffles) on real workloads.
//
//===----------------------------------------------------------------------===//

#include "apps/Histogram.h"
#include "apps/Scan.h"

#include <gtest/gtest.h>

#include <random>

using namespace tangram;
using namespace tangram::apps;

namespace {

std::vector<int> randomKeys(size_t N, unsigned NumBins, unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::uniform_int_distribution<int> Dist(0, static_cast<int>(NumBins) - 1);
  std::vector<int> Keys(N);
  for (int &K : Keys)
    K = Dist(Rng);
  return Keys;
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

class HistogramCorrectness
    : public ::testing::TestWithParam<
          std::tuple<HistogramStrategy, unsigned, size_t>> {};

TEST_P(HistogramCorrectness, MatchesReference) {
  auto [Strategy, NumBins, N] = GetParam();
  std::vector<int> Keys = randomKeys(N, NumBins, 17);
  std::vector<long long> Expected = referenceHistogram(Keys, NumBins);

  Histogram App(NumBins, Strategy);
  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  for (unsigned A = 0; A != Count; ++A) {
    engine::ExecutionEngine E(Archs[A]);
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::I32, N);
    E.getDevice().writeInts(In, Keys);
    HistogramResult R = App.run(E, In, N);
    ASSERT_TRUE(R.Ok) << Archs[A].Name << ": " << R.Error;
    EXPECT_EQ(R.Bins, Expected) << Archs[A].Name;
    EXPECT_GT(R.Seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HistogramCorrectness,
    ::testing::Combine(
        ::testing::Values(HistogramStrategy::GlobalAtomics,
                          HistogramStrategy::SharedPrivatized),
        ::testing::Values<unsigned>(8, 64, 256),
        ::testing::Values<size_t>(100, 4096, 65536)),
    [](const auto &Info) {
      std::string Name =
          std::get<0>(Info.param) == HistogramStrategy::GlobalAtomics
              ? "global"
              : "shared";
      return Name + "_b" + std::to_string(std::get<1>(Info.param)) + "_n" +
             std::to_string(std::get<2>(Info.param));
    });

TEST(Histogram, SkewedDistribution) {
  // All keys in one bin: worst-case contention.
  const unsigned NumBins = 64;
  const size_t N = 10000;
  std::vector<int> Keys(N, 7);
  engine::ExecutionEngine E(sim::getKeplerK40c());
  for (HistogramStrategy S : {HistogramStrategy::GlobalAtomics,
                              HistogramStrategy::SharedPrivatized}) {
    Histogram App(NumBins, S);
    sim::DeviceScope Scratch(E.getDevice());
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::I32, N);
    E.getDevice().writeInts(In, Keys);
    HistogramResult R = App.run(E, In, N);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Bins[7], static_cast<long long>(N));
  }
}

TEST(Histogram, OutOfRangeKeysDropped) {
  Histogram App(16, HistogramStrategy::GlobalAtomics);
  std::vector<int> Keys = {0, 5, -3, 200, 15, 5};
  engine::ExecutionEngine E(sim::getMaxwellGTX980());
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::I32, Keys.size());
  E.getDevice().writeInts(In, Keys);
  HistogramResult R = App.run(E, In, Keys.size());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Bins, referenceHistogram(Keys, 16));
}

TEST(Histogram, PrivatizedRejectsOversizedBins) {
  Histogram App(64 * 1024, HistogramStrategy::SharedPrivatized);
  engine::ExecutionEngine E(sim::getKeplerK40c());
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::I32, 4);
  HistogramResult R = App.run(E, In, 4);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("shared memory"), std::string::npos);
}

TEST(Histogram, PrivatizationPaysOffOnNativeAtomicArchs) {
  // The Section II-A2 story on the histogram workload: privatized shared
  // bins beat global atomics once the shared-atomic hardware is native.
  const unsigned NumBins = 32; // Few bins -> heavy contention.
  const size_t N = 1 << 20;
  Histogram Global(NumBins, HistogramStrategy::GlobalAtomics);
  Histogram Shared(NumBins, HistogramStrategy::SharedPrivatized);

  engine::ExecutionEngine E(sim::getMaxwellGTX980());
  sim::VirtualPattern Pattern;
  Pattern.Modulus = NumBins;
  sim::BufferId In =
      E.getDevice().allocVirtual(ir::ScalarType::I32, N, Pattern);

  double TGlobal = Global.run(E, In, N, sim::ExecMode::Sampled).Seconds;
  double TShared = Shared.run(E, In, N, sim::ExecMode::Sampled).Seconds;
  EXPECT_LT(TShared, TGlobal);
}

//===----------------------------------------------------------------------===//
// Scan
//===----------------------------------------------------------------------===//

class ScanCorrectness
    : public ::testing::TestWithParam<std::tuple<ScanStrategy, size_t>> {};

TEST_P(ScanCorrectness, MatchesReference) {
  auto [Strategy, N] = GetParam();
  std::mt19937 Rng(23);
  std::uniform_int_distribution<int> Dist(-9, 9);
  std::vector<int> Data(N);
  for (int &V : Data)
    V = Dist(Rng);
  std::vector<long long> Expected = referenceInclusiveScan(Data);

  Scan App(Strategy);
  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  for (unsigned A = 0; A != Count; ++A) {
    engine::ExecutionEngine E(Archs[A]);
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::I32, N);
    sim::BufferId Out = E.getDevice().alloc(ir::ScalarType::I32, N);
    E.getDevice().writeInts(In, Data);
    ScanResult R = App.run(E, In, Out, N);
    ASSERT_TRUE(R.Ok) << Archs[A].Name << ": " << R.Error;
    for (size_t I = 0; I != N; ++I)
      ASSERT_EQ(E.getDevice().readInt(Out, I), Expected[I])
          << Archs[A].Name << " index " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScanCorrectness,
    ::testing::Combine(::testing::Values(ScanStrategy::SharedKoggeStone,
                                         ScanStrategy::ShuffleKoggeStone),
                       ::testing::Values<size_t>(1, 31, 32, 33, 255, 256,
                                                 257, 5000, 70000)),
    [](const auto &Info) {
      std::string Name =
          std::get<0>(Info.param) == ScanStrategy::SharedKoggeStone
              ? "shared"
              : "shuffle";
      return Name + "_n" + std::to_string(std::get<1>(Info.param));
    });

TEST(Scan, MultiLevelLaunchCount) {
  Scan App(ScanStrategy::ShuffleKoggeStone, 256);
  const size_t N = 256 * 256 + 3; // Needs two levels + add pass.
  engine::ExecutionEngine E(sim::getPascalP100());
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::I32, N);
  sim::BufferId Out = E.getDevice().alloc(ir::ScalarType::I32, N);
  std::vector<int> Data(N, 1);
  E.getDevice().writeInts(In, Data);
  ScanResult R = App.run(E, In, Out, N);
  ASSERT_TRUE(R.Ok) << R.Error;
  // Level 0 scan + level 1 scan (+ level 2 for the ragged extra block) +
  // add passes.
  EXPECT_GE(R.KernelLaunches, 3u);
  EXPECT_EQ(E.getDevice().readInt(Out, N - 1), static_cast<long long>(N));
}

TEST(Scan, ShuffleVariantUsesNoDynamicSharedLadder) {
  // The shuffle flavor keeps the ladder in registers: its only shared
  // array is the 32-slot warp-sums staging buffer.
  Scan Shfl(ScanStrategy::ShuffleKoggeStone);
  Scan Shared(ScanStrategy::SharedKoggeStone);
  ASSERT_EQ(Shfl.getScanKernel().getSharedArrays().size(), 1u);
  ASSERT_EQ(Shared.getScanKernel().getSharedArrays().size(), 1u);
  // 32 slots vs blockDim slots.
  EXPECT_NE(Shfl.getScanKernel().getSharedArrays()[0]->Extent, nullptr);
}

TEST(Scan, ShuffleVariantFasterOnWideBlocks) {
  // Replacing the shared ladder (2 barriers x lg(B) steps) with register
  // shuffles must pay off on every architecture.
  const size_t N = 1 << 20;
  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  Scan Shfl(ScanStrategy::ShuffleKoggeStone, 256);
  Scan Shared(ScanStrategy::SharedKoggeStone, 256);
  for (unsigned A = 0; A != Count; ++A) {
    engine::ExecutionEngine E(Archs[A]);
    sim::VirtualPattern Pattern;
    sim::BufferId In =
        E.getDevice().allocVirtual(ir::ScalarType::I32, N, Pattern);
    sim::BufferId Out = E.getDevice().alloc(ir::ScalarType::I32, N);
    double TShfl = Shfl.run(E, In, Out, N, sim::ExecMode::Sampled).Seconds;
    double TShared =
        Shared.run(E, In, Out, N, sim::ExecMode::Sampled).Seconds;
    EXPECT_LT(TShfl, TShared) << Archs[A].Name;
  }
}

} // namespace
