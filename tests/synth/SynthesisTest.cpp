//===- SynthesisTest.cpp - Variant enumeration and synthesis tests ----------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// Validates the Section IV-B search space and, crucially, that every
// pruned code version synthesizes, verifies, and computes the correct
// reduction on the simulated GPU across architectures, sizes, block
// sizes, coarsening factors, element types, and operators.
//
//===----------------------------------------------------------------------===//

#include "synth/VariantEnumerator.h"

#include "engine/ExecutionEngine.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "synth/KernelSynthesizer.h"
#include "synth/ReductionSpectrum.h"

#include <gtest/gtest.h>

#include <random>

using namespace tangram;
using namespace tangram::synth;

namespace {

//===----------------------------------------------------------------------===//
// Search space (Section IV-B)
//===----------------------------------------------------------------------===//

TEST(VariantEnumerator, OriginalTangramHasTenVersions) {
  SearchSpace Space = enumerateVariants(FeatureSet::original());
  EXPECT_EQ(Space.All.size(), 10u);
  // All ten require the second kernel; none survive pruning.
  EXPECT_TRUE(Space.Pruned.empty());
}

TEST(VariantEnumerator, FullSpaceCategoryCounts) {
  SearchSpace Space = enumerateVariants();
  EXPECT_EQ(Space.countCategory(VariantCategory::Original), 10u);
  EXPECT_EQ(Space.countCategory(VariantCategory::GlobalAtomic), 10u);
  // Our composition algebra (see VariantEnumerator.h) yields 24+24 for
  // the shared-atomic and shuffle stages where the paper reports 38+31;
  // the pruned set below matches the paper exactly.
  EXPECT_EQ(Space.countCategory(VariantCategory::SharedAtomic), 24u);
  EXPECT_EQ(Space.countCategory(VariantCategory::WarpShuffle), 24u);
  EXPECT_EQ(Space.All.size(), 68u);
}

TEST(VariantEnumerator, PrunedSetMatchesPaper) {
  SearchSpace Space = enumerateVariants();
  EXPECT_EQ(Space.Pruned.size(), 30u);
  for (const VariantDescriptor &V : Space.Pruned) {
    EXPECT_EQ(V.GridScheme, GridCombine::GlobalAtomic)
        << V.getName() << ": all surviving versions use atomic "
        << "instructions on global memory";
    EXPECT_NE(V.Coop, CoopKind::SerialThread0);
  }
}

TEST(VariantEnumerator, SixteenFigure6LabelsExist) {
  SearchSpace Space = enumerateVariants();
  unsigned Labeled = 0;
  for (char L = 'a'; L <= 'p'; ++L) {
    const VariantDescriptor *V =
        findByFigure6Label(Space, std::string(1, L));
    EXPECT_NE(V, nullptr) << "missing Fig. 6 version (" << L << ")";
    if (V)
      ++Labeled;
  }
  EXPECT_EQ(Labeled, 16u);
}

TEST(VariantEnumerator, PaperBestEight) {
  SearchSpace Space = enumerateVariants();
  unsigned Best = 0;
  for (const VariantDescriptor &V : Space.Pruned)
    Best += V.isPaperBest();
  EXPECT_EQ(Best, 8u);
  // Spot-check the versions named in Sections IV-C2..4.
  const VariantDescriptor *P = findByFigure6Label(Space, "p");
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Coop, CoopKind::SharedV2Shuffle);
  EXPECT_FALSE(P->BlockDistributes);
  const VariantDescriptor *N = findByFigure6Label(Space, "n");
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->Coop, CoopKind::SharedV1);
  const VariantDescriptor *M = findByFigure6Label(Space, "m");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->Coop, CoopKind::TreeShuffle);
  const VariantDescriptor *B = findByFigure6Label(Space, "b");
  ASSERT_NE(B, nullptr);
  EXPECT_TRUE(B->BlockDistributes);
  EXPECT_EQ(B->Coop, CoopKind::TreeShuffle);
}

TEST(VariantEnumerator, NamesAreUnique) {
  SearchSpace Space = enumerateVariants();
  std::set<std::string> Names;
  for (const VariantDescriptor &V : Space.All)
    EXPECT_TRUE(Names.insert(V.getName()).second)
        << "duplicate name " << V.getName();
}

//===----------------------------------------------------------------------===//
// Synthesis + execution
//===----------------------------------------------------------------------===//

struct Compiled {
  std::unique_ptr<SourceManager> SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<lang::ASTContext> Ctx;
  lang::TranslationUnit TU;
  std::map<const lang::CodeletDecl *, transforms::CodeletTransformInfo>
      Infos;

  Compiled(ir::ScalarType Elem, ReduceOp Op) {
    SM = std::make_unique<SourceManager>("reduction.tgr",
                                         getReductionSource(Elem, Op));
    Diags = std::make_unique<DiagnosticEngine>(*SM);
    Ctx = std::make_unique<lang::ASTContext>();
    lang::Parser P(*SM, *Ctx, *Diags);
    TU = P.parseTranslationUnit();
    sema::Sema S(*Ctx, *Diags);
    EXPECT_TRUE(S.analyze(TU)) << Diags->renderAll();
    Infos = transforms::runTransformPipeline(TU);
  }
};

Compiled &floatAdd() {
  static Compiled C(ir::ScalarType::F32, ReduceOp::Add);
  return C;
}
Compiled &intAdd() {
  static Compiled C(ir::ScalarType::I32, ReduceOp::Add);
  return C;
}

std::vector<float> randomFloats(size_t N, unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::uniform_real_distribution<float> Dist(-4.0f, 4.0f);
  std::vector<float> Data(N);
  for (float &V : Data)
    V = Dist(Rng);
  return Data;
}

TEST(KernelSynthesizer, SecondKernelVariantsSynthesizeTwoStages) {
  // The pre-Section-III-A versions (Listing 1): a partials-store kernel
  // plus a cooperative second stage.
  Compiled &C = floatAdd();
  KernelSynthesizer Synth(C.TU, C.Infos, ReduceOp::Add,
                          ir::ScalarType::F32);
  VariantDescriptor V;
  V.GridScheme = GridCombine::SecondKernel;
  auto S = Synth.synthesize(V);
  ASSERT_TRUE(S.ok()) << S.status().toString();
  ASSERT_NE((*S)->SecondStage, nullptr);
  EXPECT_FALSE((*S)->SecondStage->Desc.usesSecondKernel());
  // The main kernel stores per-block partials instead of atomics.
  bool HasAtomGlobal = false, HasStGlobal = false;
  for (const ir::Instr &I : (*S)->Compiled.Code) {
    HasAtomGlobal |= I.Op == ir::Opcode::AtomGlobal;
    HasStGlobal |= I.Op == ir::Opcode::StGlobal;
  }
  EXPECT_FALSE(HasAtomGlobal);
  EXPECT_TRUE(HasStGlobal);
}

TEST(ReductionRunner, OriginalTenVersionsComputeCorrectSums) {
  Compiled &C = floatAdd();
  KernelSynthesizer Synth(C.TU, C.Infos, ReduceOp::Add,
                          ir::ScalarType::F32);
  SearchSpace Space = enumerateVariants();

  const size_t N = 8192 + 5;
  std::vector<float> Data = randomFloats(N, 99);
  double Expected = 0;
  for (float X : Data)
    Expected += X;

  engine::ExecutionEngine E(sim::getKeplerK40c());
  unsigned Checked = 0;
  for (const VariantDescriptor &Base : Space.All) {
    if (Base.getCategory() != VariantCategory::Original)
      continue;
    VariantDescriptor V = Base;
    V.BlockSize = 128;
    V.Coarsen = V.BlockDistributes ? 4 : 1;
    auto S = Synth.synthesize(V);
    ASSERT_TRUE(S.ok()) << V.getName() << ": "
                       << S.status().toString();
    sim::DeviceScope Scratch(E.getDevice());
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
    E.getDevice().writeFloats(In, Data);
    auto Out = E.run(engine::ReduceRequest{.In = In, .N = N}, **S);
    ASSERT_TRUE(Out.ok()) << V.getName() << ": "
                          << Out.status().toString();
    EXPECT_NEAR(Out->FloatValue, Expected, std::abs(Expected) * 1e-4 + 1e-2)
        << V.getName();
    ++Checked;
  }
  EXPECT_EQ(Checked, 10u);
}

TEST(ReductionRunner, PruningJustifiedSecondKernelIsSlower) {
  // Section IV-B prunes the two-kernel versions because they
  // "consistently provide low performance": the extra launch dominates
  // small and medium sizes.
  Compiled &C = floatAdd();
  KernelSynthesizer Synth(C.TU, C.Infos, ReduceOp::Add,
                          ir::ScalarType::F32);
  VariantDescriptor Atomic; // DTA/V
  Atomic.GridScheme = GridCombine::GlobalAtomic;
  VariantDescriptor TwoKernel = Atomic;
  TwoKernel.GridScheme = GridCombine::SecondKernel;

  auto SA = Synth.synthesize(Atomic);
  auto ST = Synth.synthesize(TwoKernel);
  ASSERT_TRUE(SA.ok() && ST.ok());

  engine::ExecutionEngine EA(sim::getMaxwellGTX980());
  engine::ExecutionEngine ET(sim::getMaxwellGTX980());
  for (size_t N : {4096u, 65536u, 1u << 20}) {
    sim::DeviceScope ScratchA(EA.getDevice()), ScratchT(ET.getDevice());
    sim::VirtualPattern Pattern;
    sim::BufferId InA =
        EA.getDevice().allocVirtual(ir::ScalarType::F32, N, Pattern);
    sim::BufferId InT =
        ET.getDevice().allocVirtual(ir::ScalarType::F32, N, Pattern);
    double TA = EA.run(engine::ReduceRequest{.In = InA,
                                             .N = N,
                                             .Mode = sim::ExecMode::Sampled},
                       **SA)
                    ->Seconds;
    double TT = ET.run(engine::ReduceRequest{.In = InT,
                                             .N = N,
                                             .Mode = sim::ExecMode::Sampled},
                       **ST)
                    ->Seconds;
    // The second launch dominates at small/medium sizes and amortizes
    // (but never pays off) at larger ones.
    double Margin = N <= 65536 ? 1.3 : 1.1;
    EXPECT_GT(TT, TA * Margin) << "N=" << N;
  }
}

TEST(KernelSynthesizer, AllPrunedVariantsSynthesizeAndVerify) {
  Compiled &C = floatAdd();
  KernelSynthesizer Synth(C.TU, C.Infos, ReduceOp::Add,
                          ir::ScalarType::F32);
  SearchSpace Space = enumerateVariants();
  for (const VariantDescriptor &V : Space.Pruned) {
    auto S = Synth.synthesize(V);
    ASSERT_TRUE(S.ok()) << V.getName() << ": "
                       << S.status().toString();
    EXPECT_FALSE((*S)->Compiled.Code.empty());
    // Shuffle variants carry Shfl instructions; shared-atomic variants
    // carry AtomShared; every pruned variant ends in a global atomic.
    bool HasShfl = false, HasAtomShared = false, HasAtomGlobal = false;
    for (const ir::Instr &I : (*S)->Compiled.Code) {
      HasShfl |= I.Op == ir::Opcode::Shfl;
      HasAtomShared |= I.Op == ir::Opcode::AtomShared;
      HasAtomGlobal |= I.Op == ir::Opcode::AtomGlobal;
    }
    EXPECT_EQ(HasShfl, coopUsesShuffle(V.Coop)) << V.getName();
    EXPECT_EQ(HasAtomShared, coopUsesSharedAtomics(V.Coop)) << V.getName();
    EXPECT_TRUE(HasAtomGlobal) << V.getName();
  }
}

TEST(KernelSynthesizer, ShuffleVariantElidesSharedTmp) {
  Compiled &C = floatAdd();
  KernelSynthesizer Synth(C.TU, C.Infos, ReduceOp::Add,
                          ir::ScalarType::F32);
  SearchSpace Space = enumerateVariants();
  auto Tree = Synth.synthesize(*findByFigure6Label(Space, "l"));
  auto Shfl = Synth.synthesize(*findByFigure6Label(Space, "m"));
  ASSERT_TRUE(Tree.ok() && Shfl.ok());
  // (l) allocates tmp[blockDim] + partial[32]; (m) drops tmp entirely —
  // the occupancy benefit Section III-C describes.
  EXPECT_EQ((*Tree)->K->getSharedArrays().size(), 2u);
  EXPECT_EQ((*Shfl)->K->getSharedArrays().size(), 1u);
}

/// Runs every pruned variant functionally and checks the sum.
TEST(ReductionRunner, AllPrunedVariantsComputeCorrectSums) {
  Compiled &C = floatAdd();
  KernelSynthesizer Synth(C.TU, C.Infos, ReduceOp::Add,
                          ir::ScalarType::F32);
  SearchSpace Space = enumerateVariants();

  const size_t N = 4096 + 17; // Ragged tail on purpose.
  std::vector<float> Data = randomFloats(N, 42);
  double Expected = 0;
  for (float V : Data)
    Expected += V;

  engine::ExecutionEngine E(sim::getMaxwellGTX980());
  for (const VariantDescriptor &Base : Space.Pruned) {
    VariantDescriptor V = Base;
    V.BlockSize = 128;
    V.Coarsen = V.BlockDistributes ? 4 : 1;
    auto S = Synth.synthesize(V);
    ASSERT_TRUE(S.ok()) << V.getName() << ": "
                       << S.status().toString();

    sim::DeviceScope Scratch(E.getDevice());
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
    E.getDevice().writeFloats(In, Data);
    auto Out = E.run(engine::ReduceRequest{.In = In, .N = N}, **S);
    ASSERT_TRUE(Out.ok()) << V.getName() << ": "
                          << Out.status().toString();
    EXPECT_NEAR(Out->FloatValue, Expected, std::abs(Expected) * 1e-4 + 1e-2)
        << V.getName();
    EXPECT_GT(Out->Seconds, 0.0);
  }
}

/// Sweeps sizes, block sizes and coarsening for the paper's 8 best
/// versions on all three architectures (property-style grid).
struct SweepParam {
  const char *Label;
  unsigned BlockSize;
  unsigned Coarsen;
  size_t N;
};

/// Prints the fields, not the bytes: the default byte dump includes the
/// Label pointer, which ctest would fold into a test name that changes with
/// every build.
void PrintTo(const SweepParam &P, std::ostream *OS) {
  *OS << P.Label << '/' << P.BlockSize << '/' << P.Coarsen << '/' << P.N;
}

class BestVariantSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BestVariantSweep, CorrectOnAllArchitectures) {
  const SweepParam &P = GetParam();
  Compiled &C = floatAdd();
  KernelSynthesizer Synth(C.TU, C.Infos, ReduceOp::Add,
                          ir::ScalarType::F32);
  SearchSpace Space = enumerateVariants();
  const VariantDescriptor *Base = findByFigure6Label(Space, P.Label);
  ASSERT_NE(Base, nullptr);

  VariantDescriptor V = *Base;
  V.BlockSize = P.BlockSize;
  V.Coarsen = V.BlockDistributes ? P.Coarsen : 1;
  auto S = Synth.synthesize(V);
  ASSERT_TRUE(S.ok()) << S.status().toString();

  std::vector<float> Data = randomFloats(P.N, 7);
  double Expected = 0;
  for (float X : Data)
    Expected += X;

  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  for (unsigned A = 0; A != Count; ++A) {
    engine::ExecutionEngine E(Archs[A]);
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, P.N);
    E.getDevice().writeFloats(In, Data);
    auto Out = E.run(engine::ReduceRequest{.In = In, .N = P.N}, **S);
    ASSERT_TRUE(Out.ok()) << Archs[A].Name << ": "
                          << Out.status().toString();
    EXPECT_NEAR(Out->FloatValue, Expected,
                std::abs(Expected) * 1e-4 + 1e-2)
        << Archs[A].Name << " " << V.getName();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BestVariantSweep,
    ::testing::Values(
        SweepParam{"a", 64, 8, 1024}, SweepParam{"a", 256, 16, 65536},
        SweepParam{"b", 128, 4, 4096}, SweepParam{"b", 512, 8, 65536},
        SweepParam{"c", 128, 8, 16384}, SweepParam{"e", 256, 4, 8192},
        SweepParam{"k", 128, 16, 65536}, SweepParam{"m", 64, 1, 64},
        SweepParam{"m", 256, 1, 16384}, SweepParam{"n", 32, 1, 33},
        SweepParam{"n", 256, 1, 4096}, SweepParam{"p", 128, 1, 1000},
        SweepParam{"p", 1024, 1, 65536}),
    [](const ::testing::TestParamInfo<SweepParam> &Info) {
      return std::string(Info.param.Label) + "_b" +
             std::to_string(Info.param.BlockSize) + "_c" +
             std::to_string(Info.param.Coarsen) + "_n" +
             std::to_string(Info.param.N);
    });

TEST(ReductionRunner, IntReductionIsExact) {
  Compiled &C = intAdd();
  KernelSynthesizer Synth(C.TU, C.Infos, ReduceOp::Add,
                          ir::ScalarType::I32);
  SearchSpace Space = enumerateVariants();

  const size_t N = 10000;
  std::vector<int> Data(N);
  long long Expected = 0;
  for (size_t I = 0; I != N; ++I) {
    Data[I] = static_cast<int>(I % 101) - 50;
    Expected += Data[I];
  }

  engine::ExecutionEngine E(sim::getPascalP100());
  for (const char *Label : {"a", "k", "m", "n", "p"}) {
    VariantDescriptor V = *findByFigure6Label(Space, Label);
    V.BlockSize = 256;
    V.Coarsen = V.BlockDistributes ? 8 : 1;
    auto S = Synth.synthesize(V);
    ASSERT_TRUE(S.ok()) << S.status().toString();
    sim::DeviceScope Scratch(E.getDevice());
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::I32, N);
    E.getDevice().writeInts(In, Data);
    auto Out = E.run(engine::ReduceRequest{.In = In, .N = N}, **S);
    ASSERT_TRUE(Out.ok()) << Out.status().toString();
    EXPECT_EQ(Out->IntValue, Expected) << Label;
  }
}

TEST(ReductionRunner, MaxAndMinReductions) {
  for (ReduceOp Op : {ReduceOp::Max, ReduceOp::Min}) {
    Compiled C(ir::ScalarType::I32, Op);
    KernelSynthesizer Synth(C.TU, C.Infos, Op, ir::ScalarType::I32);
    SearchSpace Space = enumerateVariants();

    const size_t N = 3000;
    std::vector<int> Data(N);
    long long Expected = Op == ReduceOp::Max ? -1000000 : 1000000;
    for (size_t I = 0; I != N; ++I) {
      Data[I] = static_cast<int>((I * 37) % 4099) - 2000;
      Expected = applyReduceOp<long long>(Op, Expected, Data[I]);
    }

    engine::ExecutionEngine E(sim::getKeplerK40c());
    for (const char *Label : {"a", "n", "p"}) {
      VariantDescriptor V = *findByFigure6Label(Space, Label);
      V.BlockSize = 128;
      V.Coarsen = V.BlockDistributes ? 4 : 1;
      auto S = Synth.synthesize(V);
      ASSERT_TRUE(S.ok()) << getReduceOpName(Op) << " "
                          << S.status().toString();
      sim::DeviceScope Scratch(E.getDevice());
      sim::BufferId In = E.getDevice().alloc(ir::ScalarType::I32, N);
      E.getDevice().writeInts(In, Data);
      auto Out = E.run(engine::ReduceRequest{.In = In, .N = N}, **S);
      ASSERT_TRUE(Out.ok()) << Out.status().toString();
      EXPECT_EQ(Out->IntValue, Expected)
          << getReduceOpName(Op) << " " << Label;
    }
  }
}

TEST(ReductionRunner, SingleElementAndTinyInputs) {
  Compiled &C = floatAdd();
  KernelSynthesizer Synth(C.TU, C.Infos, ReduceOp::Add,
                          ir::ScalarType::F32);
  SearchSpace Space = enumerateVariants();
  engine::ExecutionEngine E(sim::getMaxwellGTX980());
  for (size_t N : {1u, 2u, 31u, 32u, 33u, 63u, 64u}) {
    std::vector<float> Data = randomFloats(N, static_cast<unsigned>(N));
    double Expected = 0;
    for (float X : Data)
      Expected += X;
    for (const char *Label : {"n", "p", "m"}) {
      VariantDescriptor V = *findByFigure6Label(Space, Label);
      V.BlockSize = 64;
      auto S = Synth.synthesize(V);
      ASSERT_TRUE(S.ok()) << S.status().toString();
      sim::DeviceScope Scratch(E.getDevice());
      sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
      E.getDevice().writeFloats(In, Data);
      auto Out = E.run(engine::ReduceRequest{.In = In, .N = N}, **S);
      ASSERT_TRUE(Out.ok()) << Out.status().toString();
      EXPECT_NEAR(Out->FloatValue, Expected, 1e-3)
          << "N=" << N << " " << Label;
    }
  }
}

} // namespace
