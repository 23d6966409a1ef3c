//===- PersistentCacheTest.cpp - Disk tier and tuned-pack guarantees --------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The persistence guarantees of the two-tier VariantCache and the
// tuned-variant pack format:
//   - cross-process reuse: a fresh cache over a populated directory serves
//     every {op, element type, backend} combination from disk with
//     VariantsCompiled == 0, reconstructing bit-identical bytecode that
//     produces identical reduction results;
//   - a corrupted artifact is a silent miss (dropped, recompiled, and
//     republished), never an error and never a wrong answer;
//   - an artifact whose embedded key contradicts the key that addressed it
//     is a hard integrity failure, never downgraded to a recompile;
//   - export -> import round-trips a tuned winner bit-identically and
//     warm-starts an engine that never compiles, with the pack's
//     quarantine verdicts applied.
//
//===----------------------------------------------------------------------===//

#include "engine/DiskCache.h"
#include "engine/ExecutionEngine.h"
#include "engine/TunedPack.h"
#include "tangram/Tangram.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace tangram;
using namespace tangram::synth;

namespace {

namespace fs = std::filesystem;

/// A unique scratch directory per test, removed on scope exit.
class TempDir {
public:
  explicit TempDir(const char *Tag) {
    Path = fs::temp_directory_path() /
           ("tgr_persistent_cache_" + std::string(Tag) + "_" +
            std::to_string(::getpid()));
    std::error_code EC;
    fs::remove_all(Path, EC);
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
  fs::path Path;
};

std::unique_ptr<TangramReduction>
makeFacade(ReduceOp Op, ir::ScalarType Elem, const std::string &CacheDir,
           std::vector<std::string> Packs = {}) {
  TangramReduction::Options Opts;
  Opts.Op = Op;
  Opts.Elem = Elem;
  Opts.Engine.CachePath = CacheDir;
  Opts.Engine.ImportPacks = std::move(Packs);
  auto TR = TangramReduction::create(Opts);
  EXPECT_TRUE(TR.ok()) << TR.status().toString();
  return TR ? std::move(*TR) : nullptr;
}

/// First pruned descriptor that resolves on \p B (native lowering rejects
/// bytecode outside the typed subset, so the sweep skips SynthesisError).
VariantDescriptor pickDescriptor(TangramReduction &TR,
                                 engine::ExecutionEngine &E,
                                 engine::Backend B) {
  for (const VariantDescriptor &D : TR.getSearchSpace().Pruned) {
    auto V = E.getVariant(D, {}, B);
    if (V.ok())
      return D;
    EXPECT_EQ(V.code(), support::StatusCode::SynthesisError)
        << V.status().toString();
  }
  ADD_FAILURE() << "no pruned descriptor resolves on "
                << engine::getBackendName(B);
  return {};
}

engine::ReduceResult runOnce(engine::ExecutionEngine &E,
                             const VariantDescriptor &D, ir::ScalarType Elem,
                             engine::Backend B, size_t N) {
  sim::DeviceScope Scratch(E.getDevice());
  sim::BufferId In = E.getDevice().alloc(Elem, N);
  if (Elem == ir::ScalarType::F32) {
    std::vector<float> Data(N);
    for (size_t I = 0; I != N; ++I)
      Data[I] = 0.5f * static_cast<float>((I * 13 + 7) % 257);
    E.getDevice().writeFloats(In, Data);
  } else {
    std::vector<int> Data(N);
    for (size_t I = 0; I != N; ++I)
      Data[I] = static_cast<int>((I * 13 + 7) % 257) - 128;
    E.getDevice().writeInts(In, Data);
  }
  engine::ReduceRequest Req;
  Req.Desc = D;
  Req.In = In;
  Req.N = N;
  Req.BackendKind = B;
  auto Out = E.run(Req);
  EXPECT_TRUE(Out.ok()) << Out.status().toString();
  return Out.ok() ? *Out : engine::ReduceResult{};
}

/// Bytecode digests of a variant and (when present) its second stage.
std::pair<uint64_t, uint64_t>
bytecodeHashes(const synth::SynthesizedVariant &V) {
  return {ir::stableHash(V.Compiled),
          V.SecondStage ? ir::stableHash(V.SecondStage->Compiled) : 0};
}

} // namespace

TEST(PersistentCache, CrossProcessDiskReuseMatrix) {
  const ReduceOp Ops[] = {ReduceOp::Add, ReduceOp::ArgMax};
  const ir::ScalarType Elems[] = {ir::ScalarType::F32, ir::ScalarType::I64};
  const engine::Backend Backends[] = {engine::Backend::Simulator,
                                      engine::Backend::NativeCpu};
  const size_t N = 1024 + 39;

  for (ReduceOp Op : Ops)
    for (ir::ScalarType Elem : Elems)
      for (engine::Backend B : Backends) {
        SCOPED_TRACE(std::string(getReduceOpName(Op)) + "/" +
                     ir::getScalarTypeName(Elem) + "/" +
                     engine::getBackendName(B));
        TempDir Dir("matrix");

        // "Process" A: compile into a fresh directory.
        uint64_t HashA, SecondA;
        engine::ReduceResult ResA;
        VariantDescriptor D;
        {
          auto TR = makeFacade(Op, Elem, Dir.str());
          engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
          D = pickDescriptor(*TR, E, B);
          auto V = E.getVariant(D, {}, B);
          ASSERT_TRUE(V.ok()) << V.status().toString();
          std::tie(HashA, SecondA) = bytecodeHashes(**V);
          ResA = runOnce(E, D, Elem, B, N);

          engine::CacheStats S = E.getCacheStats();
          EXPECT_GE(S.VariantsCompiled, 1u);
          EXPECT_GE(S.DiskMisses, 1u);
          EXPECT_EQ(S.DiskHits, 0u);
          EXPECT_EQ(S.DiskWriteFailures, 0u);
        }

        // "Process" B: a fresh cache over the same directory must serve
        // the same key from disk without compiling anything.
        {
          auto TR = makeFacade(Op, Elem, Dir.str());
          engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
          auto V = E.getVariant(D, {}, B);
          ASSERT_TRUE(V.ok()) << V.status().toString();

          engine::CacheStats S = E.getCacheStats();
          EXPECT_EQ(S.VariantsCompiled, 0u);
          EXPECT_EQ(S.DiskHits, 1u);
          EXPECT_EQ(S.CorruptEntriesDropped, 0u);

          // Bit-identical reconstruction: same bytecode (second stage
          // included), and byte-for-byte identical disassembly.
          auto [HashB, SecondB] = bytecodeHashes(**V);
          EXPECT_EQ(HashA, HashB);
          EXPECT_EQ(SecondA, SecondB);

          engine::ReduceResult ResB = runOnce(E, D, Elem, B, N);
          EXPECT_EQ(ResA.FloatValue, ResB.FloatValue);
          EXPECT_EQ(ResA.IntValue, ResB.IntValue);
          EXPECT_EQ(ResA.IndexValue, ResB.IndexValue);
          EXPECT_EQ(E.getCacheStats().VariantsCompiled, 0u);
        }
      }
}

TEST(PersistentCache, DisassemblyRoundTripsExactly) {
  TempDir Dir("disasm");
  VariantDescriptor D;
  std::string TextA, SecondTextA;
  {
    auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, Dir.str());
    engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
    D = TR->getSearchSpace().Pruned.front();
    auto V = E.getVariant(D);
    ASSERT_TRUE(V.ok()) << V.status().toString();
    TextA = (**V).Compiled.disassemble();
    if ((**V).SecondStage)
      SecondTextA = (**V).SecondStage->Compiled.disassemble();
  }
  auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, Dir.str());
  engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
  auto V = E.getVariant(D);
  ASSERT_TRUE(V.ok()) << V.status().toString();
  EXPECT_EQ(TextA, (**V).Compiled.disassemble());
  if ((**V).SecondStage)
    EXPECT_EQ(SecondTextA, (**V).SecondStage->Compiled.disassemble());
  EXPECT_EQ(E.getCacheStats().VariantsCompiled, 0u);
}

TEST(PersistentCache, CorruptionBitFlipRecompilesCleanly) {
  TempDir Dir("corrupt");
  VariantDescriptor D;
  std::string ArtifactPath;
  uint64_t HashA;
  {
    auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, Dir.str());
    engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
    D = TR->getSearchSpace().Pruned.front();
    auto V = E.getVariant(D);
    ASSERT_TRUE(V.ok()) << V.status().toString();
    HashA = ir::stableHash((**V).Compiled);
    auto K = E.keyFor(D);
    ASSERT_TRUE(K.ok());
    ArtifactPath = E.getCache().getDiskCache()->pathFor(*K);
  }
  ASSERT_TRUE(fs::exists(ArtifactPath));

  // Flip one byte in the middle of the artifact (payload region).
  {
    std::fstream F(ArtifactPath,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.good());
    const auto Size = fs::file_size(ArtifactPath);
    ASSERT_GT(Size, 64u);
    F.seekg(static_cast<std::streamoff>(Size / 2));
    char Byte = 0;
    F.read(&Byte, 1);
    Byte ^= 0x40;
    F.seekp(static_cast<std::streamoff>(Size / 2));
    F.write(&Byte, 1);
  }

  // A fresh cache must treat the damaged entry as a silent miss: drop it,
  // recompile cleanly, and republish the artifact.
  auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, Dir.str());
  engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
  auto V = E.getVariant(D);
  ASSERT_TRUE(V.ok()) << V.status().toString();
  EXPECT_EQ(ir::stableHash((**V).Compiled), HashA);

  engine::CacheStats S = E.getCacheStats();
  EXPECT_EQ(S.CorruptEntriesDropped, 1u);
  EXPECT_EQ(S.DiskMisses, 1u);
  EXPECT_EQ(S.DiskHits, 0u);
  EXPECT_EQ(S.VariantsCompiled, 1u);

  // Republished: the next fresh cache reads it back as a normal hit.
  auto TR2 = makeFacade(ReduceOp::Add, ir::ScalarType::F32, Dir.str());
  engine::ExecutionEngine &E2 = TR2->engineFor(sim::getPascalP100());
  ASSERT_TRUE(E2.getVariant(D).ok());
  EXPECT_EQ(E2.getCacheStats().DiskHits, 1u);
  EXPECT_EQ(E2.getCacheStats().VariantsCompiled, 0u);
}

TEST(PersistentCache, KeyMismatchIsHardFailure) {
  TempDir Dir("mismatch");
  auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, Dir.str());
  engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
  ASSERT_GE(TR->getSearchSpace().Pruned.size(), 2u);
  VariantDescriptor D1 = TR->getSearchSpace().Pruned[0];
  VariantDescriptor D2 = TR->getSearchSpace().Pruned[1];
  ASSERT_TRUE(E.getVariant(D1).ok());
  ASSERT_TRUE(E.getVariant(D2).ok());
  auto K1 = E.keyFor(D1);
  auto K2 = E.keyFor(D2);
  ASSERT_TRUE(K1.ok() && K2.ok());
  const auto &Disk = E.getCache().getDiskCache();

  // Masquerade D1's (structurally valid) artifact as D2's: the embedded
  // key echo contradicts the key addressing the file.
  std::error_code EC;
  fs::copy_file(Disk->pathFor(*K1), Disk->pathFor(*K2),
                fs::copy_options::overwrite_existing, EC);
  ASSERT_FALSE(EC) << EC.message();

  // Integrity failures are a hard error, never downgraded to a recompile:
  // a hash collision or tampered store must be surfaced, not papered over.
  auto TR2 = makeFacade(ReduceOp::Add, ir::ScalarType::F32, Dir.str());
  engine::ExecutionEngine &E2 = TR2->engineFor(sim::getPascalP100());
  auto V = E2.getVariant(D2);
  ASSERT_FALSE(V.ok());
  EXPECT_EQ(V.code(), support::StatusCode::InternalError);
  EXPECT_EQ(E2.getCacheStats().VariantsCompiled, 0u);

  // The sibling entry is untouched.
  ASSERT_TRUE(E2.getVariant(D1).ok());
  EXPECT_EQ(E2.getCacheStats().DiskHits, 1u);
}

TEST(PersistentCache, PackRoundTripWarmStartsWithoutCompiling) {
  TempDir Dir("pack");
  const std::string PackPath = (Dir.Path / "winner.tgrp").string();
  const size_t N = 2048 + 11;

  VariantDescriptor D, Quarantined;
  uint64_t HashA;
  engine::ReduceResult ResA;
  {
    auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, "");
    engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
    D = TR->getSearchSpace().Pruned.front();
    Quarantined = TR->getSearchSpace().Pruned.back();
    auto V = E.getVariant(D);
    ASSERT_TRUE(V.ok()) << V.status().toString();
    HashA = ir::stableHash((**V).Compiled);
    ResA = runOnce(E, D, ir::ScalarType::F32, engine::Backend::Simulator, N);

    auto Entry =
        E.exportTunedVariant(D, engine::Backend::Simulator, 1.25e-4);
    ASSERT_TRUE(Entry.ok()) << Entry.status().toString();
    engine::TunedPack Pack;
    Pack.Entries.push_back(std::move(*Entry));
    Pack.Quarantined.push_back(
        {sim::getPascalP100().Gen, Quarantined,
         support::Status(support::StatusCode::DeadlineExceeded,
                         "timed out on tuning sweep")});
    support::Status S = engine::writeTunedPack(PackPath, Pack);
    ASSERT_TRUE(S.ok()) << S.toString();
  }

  // Warm start from the pack alone (no cache directory): the variant is
  // served from memory, bit-identical, with zero compiles; the pack's
  // quarantine verdict is pre-applied.
  auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, "", {PackPath});
  engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
  EXPECT_TRUE(E.getStartupWarnings().empty());
  EXPECT_TRUE(E.isQuarantined(Quarantined));
  EXPECT_FALSE(E.isQuarantined(D));

  auto V = E.getVariant(D);
  ASSERT_TRUE(V.ok()) << V.status().toString();
  EXPECT_EQ(ir::stableHash((**V).Compiled), HashA);

  engine::ReduceResult ResB =
      runOnce(E, D, ir::ScalarType::F32, engine::Backend::Simulator, N);
  EXPECT_EQ(ResA.FloatValue, ResB.FloatValue);
  EXPECT_EQ(ResA.Seconds, ResB.Seconds);

  engine::CacheStats S = E.getCacheStats();
  EXPECT_EQ(S.VariantsCompiled, 0u);
  // Two hits: the explicit getVariant and the job's internal resolve.
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.Misses, 0u);
}

TEST(PersistentCache, PackImportWritesThroughToDiskTier) {
  TempDir PackDir("packsrc");
  TempDir CacheDir("packdst");
  const std::string PackPath = (PackDir.Path / "p.tgrp").string();
  VariantDescriptor D;
  {
    auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, "");
    engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
    D = TR->getSearchSpace().Pruned.front();
    auto Entry = E.exportTunedVariant(D, engine::Backend::Simulator, 0);
    ASSERT_TRUE(Entry.ok()) << Entry.status().toString();
    engine::TunedPack Pack;
    Pack.Entries.push_back(std::move(*Entry));
    ASSERT_TRUE(engine::writeTunedPack(PackPath, Pack).ok());
  }

  // Importing into a two-tier engine persists the entry, so a later
  // process over the same directory is warm without the pack.
  {
    auto TR =
        makeFacade(ReduceOp::Add, ir::ScalarType::F32, CacheDir.str(),
                   {PackPath});
    engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
    EXPECT_TRUE(E.getStartupWarnings().empty());
    auto K = E.keyFor(D);
    ASSERT_TRUE(K.ok());
    EXPECT_TRUE(fs::exists(E.getCache().getDiskCache()->pathFor(*K)));
  }
  auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, CacheDir.str());
  engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
  ASSERT_TRUE(E.getVariant(D).ok());
  EXPECT_EQ(E.getCacheStats().DiskHits, 1u);
  EXPECT_EQ(E.getCacheStats().VariantsCompiled, 0u);
}

TEST(PersistentCache, UnreadablePackIsALoudStartupWarning) {
  TempDir Dir("badpack");
  const std::string PackPath = (Dir.Path / "bad.tgrp").string();
  {
    std::ofstream F(PackPath, std::ios::binary);
    F << "this is not a tuned pack";
  }
  auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, "", {PackPath});
  engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
  ASSERT_EQ(E.getStartupWarnings().size(), 1u);
  EXPECT_EQ(E.getStartupWarnings().front().Code,
            support::StatusCode::InvalidArgument);
  // The engine still works cold.
  ASSERT_TRUE(E.getVariant(TR->getSearchSpace().Pruned.front()).ok());
  EXPECT_EQ(E.getCacheStats().VariantsCompiled, 1u);
}
