//===- SampledProbeTest.cpp - Probe-and-replicate sampled launches ---------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// A Sampled launch interprets probe blocks {0, 1, 46, last} and lets block
// 0 stand in for blocks 2-45 when the probes agree. These tests compute the
// 48-block reference through SimtMachine::interpretBlock — the per-block
// step launch() itself runs — and require:
//  - every pruned variant's launch to take the probe path (4 blocks
//    interpreted) exactly when its 47 interior blocks are identical (always
//    for whole tiles), and its stats and modeled seconds to equal the
//    reference bit for bit, through 1-thread and pooled engines alike;
//  - kernels whose blocks differ (CUB's partial pass, Kokkos' grid-stride
//    pass, Scan's uniform-add pass) to run all 48 sampled blocks and keep
//    the times they had before probing existed.
//
//===----------------------------------------------------------------------===//

#include "apps/Scan.h"
#include "baselines/CubReduce.h"
#include "baselines/KokkosReduce.h"
#include "gpusim/PerfModel.h"
#include "reduce/OpDef.h"
#include "support/Statistics.h"
#include "tangram/Tangram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <thread>

using namespace tangram;
using namespace tangram::sim;

namespace {

struct OpPoint {
  ReduceOp Op;
  ir::ScalarType Elem;
};

constexpr OpPoint Points[] = {{ReduceOp::Add, ir::ScalarType::F32},
                              {ReduceOp::Min, ir::ScalarType::I32},
                              {ReduceOp::ArgMax, ir::ScalarType::I64},
                              {ReduceOp::Max, ir::ScalarType::F64}};

/// The 48-block Sampled result of one launch: every sampled block
/// interpreted, writes committed and stats merged in block-index order,
/// then scaled by GridDim / 48.
struct Reference {
  LaunchResult Launch;
  /// All 47 interior blocks matched block 0 (stats and hot-atomic count).
  bool InteriorUniform = true;
};

Reference sampledReference(const SimtMachine &M, Device &Dev,
                           const ir::CompiledKernel &Kernel,
                           const LaunchConfig &Config,
                           const std::vector<ArgValue> &Args) {
  const unsigned S = SimtMachine::SampledBlocks;
  Reference R;
  R.Launch.GridDim = Config.GridDim;
  R.Launch.BlockDim = Config.BlockDim;
  R.Launch.Sampled = true;
  R.Launch.BlocksSimulated = R.Launch.BlocksInterpreted = S;
  R.Launch.RegistersPerThread = Kernel.Source->getRegisterEstimate();
  std::vector<BlockOutcome> Blocks;
  for (unsigned I = 0; I != S; ++I)
    Blocks.push_back(M.interpretBlock(Kernel, Config, Args,
                                      I + 1 == S ? Config.GridDim - 1 : I));
  uint64_t HotOps = 0;
  for (unsigned I = 0; I != S; ++I) {
    const BlockOutcome &B = Blocks[I];
    if (I + 1 != S)
      R.InteriorUniform &=
          B.Stats == Blocks[0].Stats && B.HotOps == Blocks[0].HotOps;
    B.commit(Dev);
    R.Launch.Errors.insert(R.Launch.Errors.end(), B.Errors.begin(),
                           B.Errors.end());
    HotOps += B.HotOps;
    if (R.Launch.SharedBytesPerBlock == 0)
      R.Launch.SharedBytesPerBlock = B.Stats.SharedBytes;
    R.Launch.Stats.accumulate(B.Stats);
  }
  R.Launch.Stats.GlobalAtomicHotOps = HotOps;
  R.Launch.Stats.scale(static_cast<double>(Config.GridDim) / S);
  return R;
}

/// Bit-for-bit equality of everything the performance model reads.
void expectSameLaunch(const LaunchResult &Got, const LaunchResult &Want) {
  EXPECT_TRUE(Got.Stats == Want.Stats);
  EXPECT_EQ(std::bit_cast<uint64_t>(Got.Stats.WarpCycles),
            std::bit_cast<uint64_t>(Want.Stats.WarpCycles));
  EXPECT_EQ(Got.SharedBytesPerBlock, Want.SharedBytesPerBlock);
  EXPECT_EQ(Got.BlocksSimulated, Want.BlocksSimulated);
  EXPECT_EQ(Got.Errors, Want.Errors);
}

/// A small and a large tile for \p D: 64 threads x 1, and 256 x 16 for
/// block-distributing versions (512 x 1 for the rest).
std::vector<std::pair<unsigned, unsigned>>
tilesFor(const synth::VariantDescriptor &D) {
  return {{64, 1}, D.BlockDistributes ? std::pair(256u, 16u)
                                      : std::pair(512u, 1u)};
}

/// Runs \p D (resolved as \p V) at size \p N as a Sampled request through
/// \p E, computes the 48-block reference of the same launch into \p Ref,
/// and checks that the request took the probe path exactly when the
/// interior is uniform and matched the reference bit for bit.
void checkAgainstReference(engine::ExecutionEngine &E,
                           const synth::SynthesizedVariant &V,
                           const synth::VariantDescriptor &D, size_t N,
                           Reference &Ref) {
  Device &Dev = E.getDevice();
  DeviceScope Scratch(Dev);
  BufferId In = Dev.allocVirtual(V.Elem, N, VirtualPattern());
  // The launch the engine makes for this request (ExecutionEngine::run).
  LaunchConfig Config = engine::makeLaunchConfig(V, N);
  ASSERT_GT(Config.GridDim, SimtMachine::SampledBlocks);
  BufferId Acc = Dev.alloc(V.Elem, 1);
  Dev.get(Acc).store(0, reduce::getIdentity(V.Op, V.Elem));
  std::vector<ArgValue> Args = {
      ArgValue::buffer(Acc), ArgValue::buffer(In),
      ArgValue::scalar(static_cast<long long>(N)),
      ArgValue::scalar(static_cast<long long>(V.elementsPerBlock()))};
  Ref = sampledReference(SimtMachine(Dev, E.getArch()), Dev, V.Compiled,
                         Config, Args);

  auto Run = E.run(engine::ReduceRequest{
      .Desc = D, .In = In, .N = N, .Mode = ExecMode::Sampled});
  ASSERT_TRUE(Run.ok()) << Run.status().toString();
  EXPECT_EQ(Run->Launch.BlocksInterpreted,
            Ref.InteriorUniform ? 4u : SimtMachine::SampledBlocks);
  expectSameLaunch(Run->Launch, Ref.Launch);
  EXPECT_EQ(std::bit_cast<uint64_t>(Run->Seconds),
            std::bit_cast<uint64_t>(
                modelKernelTime(E.getArch(), Ref.Launch).TotalSeconds));
}

/// Checks every pruned variant of \p P on every arch, tile and size,
/// through engines whose pools have \p Threads threads (1 takes the
/// sequential path).
void checkPrunedSpectrum(const OpPoint &P, unsigned Threads,
                         unsigned &Launches) {
  const size_t Sizes[] = {size_t(1) << 20, 3 * (size_t(1) << 20) + 17};
  unsigned ArchCount = 0;
  const ArchDesc *Archs = getAllArchs(ArchCount);
  TangramReduction::Options Opts;
  Opts.Op = P.Op;
  Opts.Elem = P.Elem;
  Opts.Engine.ThreadCount = Threads;
  auto TR = TangramReduction::create(Opts);
  ASSERT_TRUE(TR.ok()) << TR.status().toString();
  for (unsigned A = 0; A != ArchCount; ++A) {
    engine::ExecutionEngine &E = (*TR)->engineFor(Archs[A]);
    for (synth::VariantDescriptor D : (*TR)->getSearchSpace().Pruned) {
      for (auto [Block, Coarsen] : tilesFor(D)) {
        D.BlockSize = Block;
        D.Coarsen = Coarsen;
        auto V = E.getVariant(D);
        if (!V) {
          // No legal atomic for this point (64-bit ArgMax on Kepler): the
          // tuner quarantines it the same way.
          EXPECT_EQ(V.status().Code, support::StatusCode::SynthesisError);
          continue;
        }
        ASSERT_FALSE(D.usesSecondKernel());
        for (size_t N : Sizes) {
          SCOPED_TRACE(D.getName() + " " + Archs[A].Name + " " +
                       reduce::getOpDef(P.Op).Name + " N=" +
                       std::to_string(N) + " tile " + std::to_string(Block) +
                       "x" + std::to_string(Coarsen));
          Reference Ref;
          checkAgainstReference(E, **V, D, N, Ref);
          EXPECT_TRUE(Ref.InteriorUniform);
          ++Launches;
        }
      }
    }
  }
}

TEST(SampledProbe, PrunedSpectrumMatchesTheReference) {
  // One thread per op point, each owning its front end, engines and
  // device; alternate points run their engines on 1 and 2 threads so both
  // launch paths are checked.
  unsigned Launches[std::size(Points)] = {};
  std::vector<std::thread> Workers;
  for (size_t I = 0; I != std::size(Points); ++I)
    Workers.emplace_back(checkPrunedSpectrum, std::cref(Points[I]),
                         I % 2 ? 2u : 1u, std::ref(Launches[I]));
  for (std::thread &T : Workers)
    T.join();
  // 30 pruned versions x 3 archs x 4 points x 2 tiles x 2 sizes, less the
  // 64-bit ArgMax versions Kepler cannot synthesize.
  EXPECT_EQ(std::accumulate(std::begin(Launches), std::end(Launches), 0u),
            1320u);
}

TEST(SampledProbe, RaggedCappedTileFallsBack) {
  // At the per-block cap (256 x 64) and a ragged size, the DSA versions'
  // interior blocks are not all alike: the probes must see it, and the
  // launch must interpret all 48 blocks and still match the reference.
  auto TR = TangramReduction::create();
  ASSERT_TRUE(TR.ok()) << TR.status().toString();
  engine::ExecutionEngine &E = (*TR)->engineFor(getPascalP100());
  const auto &Pruned = (*TR)->getSearchSpace().Pruned;
  auto It = std::find_if(Pruned.begin(), Pruned.end(), [](const auto &D) {
    return D.getName() == "DSA/DT.S+V";
  });
  ASSERT_NE(It, Pruned.end());
  synth::VariantDescriptor D = *It;
  D.BlockSize = 256;
  D.Coarsen = 64;
  auto V = E.getVariant(D);
  ASSERT_TRUE(V.ok()) << V.status().toString();
  Reference Ref;
  checkAgainstReference(E, **V, D, 3 * (size_t(1) << 20) + 17, Ref);
  EXPECT_FALSE(Ref.InteriorUniform);
}

TEST(SampledProbe, ScanKeepsItsTimes) {
  // Scan's per-block pass has uniform blocks on this input and takes the
  // probe path; its uniform-add pass (block 0 adds nothing) loads the
  // buffer it writes, so it never probes and runs all 48 sampled blocks.
  // The end-to-end time must stay the one recorded before probing existed
  // (N = 2^20 on a virtual input; rows per strategy, columns per arch).
  const double Want[2][3] = {
      {0x1.4d8465d2ce0fep-11, 0x1.2313d5433d21p-11, 0x1.3529a0e603a07p-12},
      {0x1.1eed3571c66dp-11, 0x1.20cc75d994033p-11, 0x1.23fceeba15f4p-12}};
  const apps::ScanStrategy Strategies[] = {
      apps::ScanStrategy::SharedKoggeStone,
      apps::ScanStrategy::ShuffleKoggeStone};
  const size_t N = size_t(1) << 20;
  unsigned ArchCount = 0;
  const ArchDesc *Archs = getAllArchs(ArchCount);
  ASSERT_EQ(ArchCount, 3u);
  support::Statistics &Stats = support::Statistics::get();
  for (unsigned I = 0; I != 2; ++I) {
    apps::Scan S(Strategies[I], 256);
    for (unsigned A = 0; A != ArchCount; ++A) {
      SCOPED_TRACE(std::string(apps::getScanStrategyName(Strategies[I])) +
                   " " + Archs[A].Name);
      engine::ExecutionEngine E(Archs[A]);
      BufferId In =
          E.getDevice().allocVirtual(ir::ScalarType::I32, N, VirtualPattern());
      BufferId Out = E.getDevice().alloc(ir::ScalarType::I32, N);
      Stats.reset();
      apps::ScanResult R = S.run(E, In, Out, N, ExecMode::Sampled);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(Stats.lookup("gpusim.sampled-probe-hits"), 1u);
      EXPECT_EQ(Stats.lookup("gpusim.sampled-probe-misses"), 0u);
      EXPECT_EQ(std::bit_cast<uint64_t>(R.Seconds),
                std::bit_cast<uint64_t>(Want[I][A]))
          << R.Seconds << " vs " << Want[I][A];
    }
  }
}

TEST(SampledProbe, BaselinesFallBackAndKeepTheirTimes) {
  // CUB's partial pass (block 0 takes the scalar tail) and Kokkos'
  // grid-stride pass have non-uniform blocks. Each framework's one sampled
  // launch must miss the probe, and its modeled time must stay the one
  // the 48-block loop produced (values recorded before probing existed,
  // N = 2^20 on a virtual input; rows follow Points, columns the archs).
  struct Pinned {
    double Cub, Kokkos;
  };
  const Pinned Want[4][3] = {
      {{0x1.1c9b945ef0e52p-12, 0x1.78cb1b0849912p-12},
       {0x1.1b6fb1461f377p-12, 0x1.71fb466f3c3adp-12},
       {0x1.300d2edb360acp-12, 0x1.aa0b8863d91d2p-12}},
      {{0x1.2c8a311ab872ap-12, 0x1.790e672c9ed5p-12},
       {0x1.21c6df37ce248p-12, 0x1.7222558bab85ep-12},
       {0x1.35a9fac1cdd1ep-12, 0x1.aa22a35858455p-12}},
      {{0x1.662412a9c6cbp-12, 0x1.895406515572cp-12},
       {0x1.5fff4ec1862cep-12, 0x1.86fabbd2db51ep-12},
       {0x1.49678dc5f543ap-12, 0x1.b114bc31bc3eep-12}},
      {{0x1.65d0d809cb144p-12, 0x1.894b9430d970ep-12},
       {0x1.5fcbae9078dddp-12, 0x1.86f5806cac3ecp-12},
       {0x1.494e88ecc3458p-12, 0x1.b11197b50d235p-12}}};
  const size_t N = size_t(1) << 20;
  unsigned ArchCount = 0;
  const ArchDesc *Archs = getAllArchs(ArchCount);
  ASSERT_EQ(ArchCount, 3u);
  support::Statistics &Stats = support::Statistics::get();
  for (unsigned I = 0; I != 4; ++I) {
    const OpPoint &P = Points[I];
    baselines::CubReduce Cub(P.Op, P.Elem);
    baselines::KokkosReduce Kokkos(P.Op, P.Elem);
    for (unsigned A = 0; A != ArchCount; ++A) {
      SCOPED_TRACE(std::string(reduce::getOpDef(P.Op).Name) + " " +
                   Archs[A].Name);
      engine::ExecutionEngine E(Archs[A]);
      BufferId In = E.getDevice().allocVirtual(P.Elem, N, VirtualPattern());
      const std::pair<baselines::ReductionFramework *, double> Runs[] = {
          {&Cub, Want[I][A].Cub}, {&Kokkos, Want[I][A].Kokkos}};
      for (auto [Framework, Seconds] : Runs) {
        Stats.reset();
        baselines::FrameworkResult R =
            Framework->run(E, In, N, ExecMode::Sampled);
        ASSERT_TRUE(R.Ok) << Framework->getName() << ": " << R.Error;
        EXPECT_EQ(Stats.lookup("gpusim.sampled-probe-misses"), 1u)
            << Framework->getName();
        EXPECT_EQ(Stats.lookup("gpusim.sampled-probe-hits"), 0u)
            << Framework->getName();
        EXPECT_EQ(std::bit_cast<uint64_t>(R.Seconds),
                  std::bit_cast<uint64_t>(Seconds))
            << Framework->getName() << ": " << R.Seconds << " vs "
            << Seconds;
      }
    }
  }
}

} // namespace
