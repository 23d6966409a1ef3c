//===- PrintAfterAllGoldenTest.cpp - dump byte-stability vs thread count --===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The --print-after-all dump for examples/reduction.tgr must be
// byte-identical between a 1-thread and a 4-thread engine: variant
// lowering runs on the calling thread and only block simulation fans out
// to the pool, so pass ordering — and therefore the dump — may not depend
// on host parallelism. A golden-prefix check additionally pins the dump
// header format tools grep for.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Arch.h"
#include "tangram/Tangram.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace tangram;

namespace {

std::string readReductionTgr() {
  std::ifstream In(TGR_REDUCTION_TGR_PATH);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Creates a facade over examples/reduction.tgr with --print-after-all on
/// and \p Threads simulation workers, sweeps the first few pruned variants
/// through the Pascal engine (compiling them), and returns the dump text.
std::string dumpWithThreads(unsigned Threads) {
  TangramReduction::Options Opts;
  Opts.SourceOverride = readReductionTgr();
  Opts.PM.PrintAfterAll = true;
  Opts.Engine.ThreadCount = Threads;
  auto TR = TangramReduction::create(Opts);
  EXPECT_TRUE(static_cast<bool>(TR)) << TR.status().toString();
  if (!TR)
    return "";
  const synth::SearchSpace &Space = (*TR)->getSearchSpace();
  engine::ExecutionEngine &E = (*TR)->engineFor(sim::getPascalP100());
  const size_t N = 4096;
  for (size_t I = 0; I != Space.Pruned.size() && I != 4; ++I) {
    sim::DeviceScope Scratch(E.getDevice());
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
    std::vector<float> Host(N, 1.0f);
    E.getDevice().writeFloats(In, Host);
    auto Out = E.run(
        engine::ReduceRequest{.Desc = Space.Pruned[I], .In = In, .N = N});
    EXPECT_TRUE(static_cast<bool>(Out))
        << Space.Pruned[I].getName() << ": " << Out.status().toString();
  }
  return (*TR)->getInstrumentation().getDumpText();
}

TEST(PrintAfterAllGolden, SourceFileIsPresentAndCanonical) {
  std::string Src = readReductionTgr();
  ASSERT_FALSE(Src.empty())
      << "examples/reduction.tgr missing at " << TGR_REDUCTION_TGR_PATH;
  EXPECT_NE(Src.find("__codelet"), std::string::npos);
}

TEST(PrintAfterAllGolden, DumpIsByteStableAcrossThreadCounts) {
  std::string Dump1 = dumpWithThreads(1);
  std::string Dump4 = dumpWithThreads(4);
  ASSERT_FALSE(Dump1.empty());
  // The whole point: host parallelism must not reorder or interleave the
  // per-pass dump stream.
  EXPECT_EQ(Dump1, Dump4);
}

TEST(PrintAfterAllGolden, DumpCarriesTheExpectedPassHeaders) {
  std::string Dump = dumpWithThreads(1);
  // Golden structural prefix: every lowering runs codelet-select first and
  // dumps under the LLVM-style header tools grep for.
  ASSERT_FALSE(Dump.empty());
  EXPECT_EQ(Dump.rfind("*** IR Dump After ", 0), 0u) << Dump.substr(0, 80);
  for (const char *Header :
       {"*** IR Dump After codelet-select ***",
        "*** IR Dump After kernel-scaffold ***",
        "*** IR Dump After coop-lower ***",
        "*** IR Dump After verify ***",
        "*** IR Dump After bytecode-prep ***"})
    EXPECT_NE(Dump.find(Header), std::string::npos) << Header;
  // After kernel-scaffold the dump is real CUDA text for the kernel.
  EXPECT_NE(Dump.find("__global__"), std::string::npos);
}

} // namespace
