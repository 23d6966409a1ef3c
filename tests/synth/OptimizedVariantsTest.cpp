//===- OptimizedVariantsTest.cpp - Optimization differential tests -----------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// Differential property suite: every pruned code version must compute the
// same reduction with every combination of the future-work IR passes
// enabled. This is the guard that keeps the optimizations semantics-
// preserving across the whole synthesized space.
//
//===----------------------------------------------------------------------===//

#include "engine/ExecutionEngine.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "synth/KernelSynthesizer.h"
#include "synth/ReductionSpectrum.h"
#include "synth/VariantEnumerator.h"

#include <gtest/gtest.h>

#include <random>

using namespace tangram;
using namespace tangram::synth;

namespace {

struct Compiled {
  std::unique_ptr<SourceManager> SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<lang::ASTContext> Ctx;
  lang::TranslationUnit TU;
  std::map<const lang::CodeletDecl *, transforms::CodeletTransformInfo>
      Infos;

  Compiled() {
    SM = std::make_unique<SourceManager>("reduction.tgr",
                                         getReductionSource());
    Diags = std::make_unique<DiagnosticEngine>(*SM);
    Ctx = std::make_unique<lang::ASTContext>();
    lang::Parser P(*SM, *Ctx, *Diags);
    TU = P.parseTranslationUnit();
    sema::Sema S(*Ctx, *Diags);
    EXPECT_TRUE(S.analyze(TU)) << Diags->renderAll();
    Infos = transforms::runTransformPipeline(TU);
  }
};

Compiled &fixture() {
  static Compiled C;
  return C;
}

class OptimizedVariants
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(OptimizedVariants, AllPrunedVariantsStayCorrect) {
  auto [Aggregate, Unroll] = GetParam();
  OptimizationFlags Flags;
  Flags.AggregateAtomics = Aggregate;
  Flags.UnrollLoops = Unroll;

  Compiled &C = fixture();
  KernelSynthesizer Synth(C.TU, C.Infos, ReduceOp::Add,
                          ir::ScalarType::F32);
  SearchSpace Space = enumerateVariants();

  const size_t N = 2048 + 9;
  std::mt19937 Rng(77);
  std::uniform_real_distribution<float> Dist(-1.0f, 1.0f);
  std::vector<float> Data(N);
  double Expected = 0;
  for (float &V : Data) {
    V = Dist(Rng);
    Expected += V;
  }

  engine::ExecutionEngine E(sim::getKeplerK40c());
  for (const VariantDescriptor &Base : Space.Pruned) {
    VariantDescriptor V = Base;
    V.BlockSize = 128;
    V.Coarsen = V.BlockDistributes ? 4 : 1;
    auto S = Synth.synthesize(V, Flags);
    ASSERT_TRUE(S.ok()) << V.getName() << ": "
                        << S.status().toString();
    sim::DeviceScope Scratch(E.getDevice());
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
    E.getDevice().writeFloats(In, Data);
    auto Out = E.run(engine::ReduceRequest{.In = In, .N = N}, **S);
    ASSERT_TRUE(Out.ok()) << V.getName() << ": "
                          << Out.status().toString();
    EXPECT_NEAR(Out->FloatValue, Expected, std::abs(Expected) * 1e-3 + 1e-2)
        << V.getName() << " aggregate=" << Aggregate
        << " unroll=" << Unroll;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FlagGrid, OptimizedVariants,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto &Info) {
      return std::string(std::get<0>(Info.param) ? "agg" : "noagg") +
             (std::get<1>(Info.param) ? "_unroll" : "_rolled");
    });

TEST(OptimizedVariants, UnrollRemovesLoopOpsFromShuffleVariants) {
  Compiled &C = fixture();
  KernelSynthesizer Synth(C.TU, C.Infos, ReduceOp::Add,
                          ir::ScalarType::F32);
  SearchSpace Space = enumerateVariants();
  OptimizationFlags Flags;
  Flags.UnrollLoops = true;

  VariantDescriptor M = *findByFigure6Label(Space, "m");
  auto Rolled = Synth.synthesize(M);
  auto Unrolled = Synth.synthesize(M, Flags);
  ASSERT_TRUE(Rolled.ok() && Unrolled.ok());

  auto CountLoopOps = [](const ir::CompiledKernel &CK) {
    unsigned Count = 0;
    for (const ir::Instr &I : CK.Code)
      Count += I.Op == ir::Opcode::LoopTest;
    return Count;
  };
  // The shuffle tree loops (constant 16..1 bounds) unroll away; the
  // rolled version retains them.
  EXPECT_GT(CountLoopOps((*Rolled)->Compiled), 0u);
  EXPECT_EQ(CountLoopOps((*Unrolled)->Compiled), 0u);
  EXPECT_GT((*Unrolled)->Compiled.Code.size(), (*Rolled)->Compiled.Code.size());
}

TEST(OptimizedVariants, AggregationHelpsVariantNOnKepler) {
  // Version (n)'s all-thread shared atomic is exactly the pattern the
  // Section III-D aggregation targets; Kepler benefits the most.
  Compiled &C = fixture();
  KernelSynthesizer Synth(C.TU, C.Infos, ReduceOp::Add,
                          ir::ScalarType::F32);
  SearchSpace Space = enumerateVariants();
  OptimizationFlags Flags;
  Flags.AggregateAtomics = true;

  VariantDescriptor N = *findByFigure6Label(Space, "n");
  N.BlockSize = 256;
  auto Plain = Synth.synthesize(N);
  auto Agg = Synth.synthesize(N, Flags);
  ASSERT_TRUE(Plain.ok() && Agg.ok());

  const size_t Size = 1 << 16;
  engine::ExecutionEngine E(sim::getKeplerK40c());
  auto TimeOf = [&](const SynthesizedVariant &S) {
    sim::DeviceScope Scratch(E.getDevice());
    sim::VirtualPattern Pattern;
    sim::BufferId In =
        E.getDevice().allocVirtual(ir::ScalarType::F32, Size, Pattern);
    double Seconds =
        E.run(engine::ReduceRequest{.In = In,
                                    .N = Size,
                                    .Mode = sim::ExecMode::Sampled},
              S)
            ->Seconds;
    return Seconds;
  };
  EXPECT_LT(TimeOf(**Agg), TimeOf(**Plain));
}

} // namespace
