//===- TuneCold.cpp - tune_cold: cold tuning of one (arch, N) --------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// What `tgrc tune`/`tgrc best` users and the Fig. 6-10 reproduction pay.
// One operation is a fresh TangramReduction::create, the engine for one
// architecture, and findBestReport: synthesis + bytecode compile of every
// admissible configuration of the tuning grid, and the simulator's sampled
// sweep over them. The cache's counters (CompileSeconds,
// VariantsCompiled) split the sweep into compile and simulation. The
// native and serving layers are not involved.
//
// A pass draws, per architecture, one size from the small paper sizes
// {64 .. 4096} and three distinct sizes from the large ones {2^20 .. 2^28},
// in a seeded order. Tuning cost is flat above 2^20, where the sampled
// sweep reaches its per-block cap, and those five sizes take about two
// thirds of the whole Figs. 7-10 sweep; three of four draws from them keep
// the median inside one regime, so runs with different seeds compare.
// Runs are whole passes.
//
// Oracles: the winner descriptor and its modeled seconds must equal the
// committed golden file (golden/tune_cold.tsv) bit for bit — the paper's
// cycle counts must not move — and the winner, run on the simulator over
// seeded data, must match a host-computed sum.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include "tangram/FigureHarness.h"
#include "tangram/Tangram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace tangram;

namespace perfbench {
namespace {

const sim::ArchDesc *const Archs[] = {&sim::getKeplerK40c(),
                                      &sim::getMaxwellGTX980(),
                                      &sim::getPascalP100()};
const size_t SmallSizes[] = {64, 256, 1024, 4096};
const size_t LargeSizes[] = {size_t{1} << 20, size_t{1} << 22,
                             size_t{1} << 24, size_t{1} << 26,
                             size_t{1} << 28};
constexpr unsigned LargePerArch = 3;
/// Winners are checked on real data at min(N, this) elements.
constexpr size_t CheckElems = size_t{1} << 18;

struct Draw {
  const sim::ArchDesc *Arch;
  size_t N;
};

std::vector<Draw> drawPass(const Options &O, uint64_t Pass) {
  Rng G(O.Seed, Pass);
  std::vector<Draw> Out;
  for (const sim::ArchDesc *A : Archs) {
    Out.push_back({A, SmallSizes[G.below(std::size(SmallSizes))]});
    if (O.Smoke)
      continue;
    std::vector<size_t> Large(std::begin(LargeSizes), std::end(LargeSizes));
    G.shuffle(Large);
    for (unsigned K = 0; K != LargePerArch; ++K)
      Out.push_back({A, Large[K]});
  }
  G.shuffle(Out);
  return Out;
}

/// One golden row: the tuned winner of one (arch, N).
struct Golden {
  std::string Label, Name;
  unsigned Block = 0, Coarsen = 0;
  double Seconds = 0;
};

std::string goldenKey(const sim::ArchDesc &A, size_t N) {
  return std::string(sim::getArchGenerationName(A.Gen)) + "\t" +
         std::to_string(N);
}

std::string formatGolden(const sim::ArchDesc &A, size_t N,
                         const engine::TuneReport &Rep) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "%s\t%s\t%s\t%u\t%u\t%.17g",
                goldenKey(A, N).c_str(), Rep.Fig6Label.c_str(),
                Rep.Best.getName().c_str(), Rep.Best.BlockSize,
                Rep.Best.Coarsen, Rep.BestSeconds);
  return Buf;
}

bool loadGolden(const std::string &Path,
                std::map<std::string, Golden> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream S(Line);
    std::string Gen, N, SecondsText;
    Golden G;
    std::getline(S, Gen, '\t');
    std::getline(S, N, '\t');
    std::getline(S, G.Label, '\t');
    std::getline(S, G.Name, '\t');
    S >> G.Block >> G.Coarsen >> SecondsText;
    G.Seconds = std::strtod(SecondsText.c_str(), nullptr);
    Out[Gen + "\t" + N] = G;
  }
  return !Out.empty();
}

/// Per-operation facts for the per-layer metrics.
struct OpFacts {
  double CreateMs = 0, PipelineMs = 0, CompileMs = 0, SweepMs = 0;
  double Compiled = 0, ConfigsTimed = 0, HitRatio = 0;
  double DiskHits = 0, Waits = 0, Quarantined = 0;
};

struct PhaseOut {
  std::vector<double> OpSeconds;
  std::vector<OpFacts> Facts;
  double CheckBytes = 0, CheckSeconds = 0;
};

/// Runs the winner on the simulator over seeded data; empty when it
/// matches the host sum.
std::string checkWinner(engine::ExecutionEngine &E,
                        const synth::VariantDescriptor &Best, size_t N,
                        Rng &G, bool Corrupt, double &Seconds) {
  std::vector<float> Data(N);
  double Ref = 0, Abs = 0;
  for (float &X : Data) {
    X = 0.5f + static_cast<float>(G.next() >> 41) * 0x1p-23f;
    Ref += X;
    Abs += X;
  }
  if (Corrupt)
    Ref += Abs * 0.01 + 1; // Seeded wrong reference.
  const size_t Mark = E.deviceMark();
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
  E.getDevice().writeFloats(In, Data);
  const double T0 = now();
  auto Out = E.run(engine::ReduceRequest{.Desc = Best, .In = In, .N = N});
  Seconds = now() - T0;
  E.deviceRelease(Mark);
  if (!Out)
    return "winner run: " + Out.status().toString();
  if (std::fabs(Out->FloatValue - Ref) > floatSumTolerance(Abs)) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "winner sum %.9g, want %.9g",
                  Out->FloatValue, Ref);
    return Buf;
  }
  return "";
}

/// Nominal wall seconds of one pass: a run of S seconds does
/// S / PassSeconds whole passes (at least one), so every run at one
/// --seconds does the same work, whatever the host's speed. (One 4-core
/// AVX-512 host took 8.5 s to 20 s per pass as its load changed.)
constexpr double PassSeconds = 15;

/// One operation: tune \p D cold, then check the winner. Adds its samples
/// to \p Out when every check passes.
void runOp(const Options &O, Tracer &T, Report &R,
           const std::map<std::string, Golden> &GoldenRows, const Draw &D,
           uint64_t Pass, uint64_t OpId, PhaseOut &Out) {
  const std::string Where = std::string("tune_cold ") + D.Arch->Name +
                            " N=" + std::to_string(D.N) + ": ";
  ++R.Attempted;
  T.setOp(static_cast<int64_t>(OpId));
  OpFacts F;
  std::unique_ptr<TangramReduction> TR;
  engine::ExecutionEngine *E = nullptr;
  support::Expected<engine::TuneReport> Rep =
      support::Status(support::StatusCode::InternalError, "not run");
  double OpSeconds = 0;
  {
    Tracer::Scope OpSpan(T, "op");
    const double T0 = now();
    {
      Tracer::Scope S(T, "lang.create");
      auto Created = TangramReduction::create();
      if (Created)
        TR = std::move(*Created);
      else
        Rep = Created.status();
    }
    const double T1 = now();
    if (TR) {
      F.PipelineMs = TR->getInstrumentation().getTotalSeconds() * 1e3;
      {
        Tracer::Scope S(T, "tangram.engine_for");
        E = &TR->engineFor(*D.Arch);
      }
      const double T2 = now();
      {
        Tracer::Scope S(T, "engine.find_best");
        Rep = TR->findBestReport(*D.Arch, D.N);
      }
      F.CreateMs = (T1 - T0) * 1e3;
      F.SweepMs = (now() - T2) * 1e3;
    }
    OpSeconds = now() - T0;
  }
  if (!Rep) {
    T.setOp(-1);
    R.fail(Where + Rep.status().toString());
    return;
  }

  // Oracle 1: the committed golden winner, bit for bit.
  auto It = GoldenRows.find(goldenKey(*D.Arch, D.N));
  if (It == GoldenRows.end()) {
    T.setOp(-1);
    R.fail(Where + "no golden row");
    return;
  }
  const Golden &G = It->second;
  if (Rep->Fig6Label != G.Label || Rep->Best.getName() != G.Name ||
      Rep->Best.BlockSize != G.Block || Rep->Best.Coarsen != G.Coarsen ||
      Rep->BestSeconds != G.Seconds) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "winner (%s) %s b%u c%u %.17g s, golden (%s) %s b%u c%u "
                  "%.17g s",
                  Rep->Fig6Label.c_str(), Rep->Best.getName().c_str(),
                  Rep->Best.BlockSize, Rep->Best.Coarsen, Rep->BestSeconds,
                  G.Label.c_str(), G.Name.c_str(), G.Block, G.Coarsen,
                  G.Seconds);
    T.setOp(-1);
    R.fail(Where + Buf);
    return;
  }
  // Oracle 2: the winner computes the right sum on real data.
  double CheckSeconds = 0;
  const size_t CheckN = std::min(D.N, CheckElems);
  Rng DataRng(O.Seed, Pass, OpId);
  std::string Why;
  {
    Tracer::Scope S(T, "engine.run.check");
    Why = checkWinner(*E, Rep->Best, CheckN, DataRng,
                      O.InjectWrong && OpId == 0, CheckSeconds);
  }
  T.setOp(-1);
  if (!Why.empty()) {
    R.fail(Where + Why);
    return;
  }

  // The sweep compiles on demand; the cache's counters split its time into
  // synthesis + bytecode compile and the rest (sampled simulation).
  engine::CacheStats C = E->getCacheStats();
  F.Compiled = static_cast<double>(C.VariantsCompiled);
  F.CompileMs = C.CompileSeconds * 1e3;
  F.HitRatio = C.Hits + C.Misses ? static_cast<double>(C.Hits) /
                                       static_cast<double>(C.Hits + C.Misses)
                                 : 0;
  F.DiskHits = static_cast<double>(C.DiskHits);
  F.Waits = static_cast<double>(C.SingleFlightWaits);
  F.ConfigsTimed = Rep->ConfigsTimed;
  F.Quarantined = static_cast<double>(Rep->Quarantined.size());
  Out.Facts.push_back(F);
  Out.OpSeconds.push_back(OpSeconds);
  Out.CheckBytes += static_cast<double>(CheckN * 4);
  Out.CheckSeconds += CheckSeconds;
}

template <typename Fn>
double medianOf(const std::vector<OpFacts> &Facts, Fn Get) {
  std::vector<double> V;
  for (const OpFacts &F : Facts)
    V.push_back(Get(F));
  return median(V);
}

} // namespace

void runTuneCold(const Options &O, Tracer &T, Report &R) {
  std::map<std::string, Golden> GoldenRows;
  if (!loadGolden(O.GoldenPath, GoldenRows)) {
    ++R.Attempted;
    R.fail("tune_cold: cannot read golden file " + O.GoldenPath);
    return;
  }

  // Set-up: the per-process construction a tuning user pays before the
  // first sweep — the facade and its three engines.
  std::vector<double> Setups;
  T.setEnabled(O.Trace);
  for (unsigned Rep = 0; Rep != setupRepetitions(O); ++Rep) {
    const double T0 = now();
    Tracer::Scope S(T, "setup");
    auto TR = TangramReduction::create();
    if (!TR) {
      ++R.Attempted;
      R.fail("tune_cold set-up: " + TR.status().toString());
      return;
    }
    for (const sim::ArchDesc *A : Archs)
      (*TR)->engineFor(*A);
    Setups.push_back(now() - T0);
  }
  setSetupMetric(R, Setups);

  // A traced run tunes every draw twice, untraced and traced, in
  // alternating order, over half the passes: the traced operations give
  // the per-layer numbers, the difference to the untraced ones the tracing
  // overhead.
  uint64_t NextOpId = 0;
  const double Seconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  const uint64_t Passes = std::max<uint64_t>(
      1, O.Smoke ? 0 : static_cast<uint64_t>(Seconds / PassSeconds));
  PhaseOut Main, Traced;
  for (uint64_t Pass = 0; Pass != Passes; ++Pass)
    for (const Draw &D : drawPass(O, Pass)) {
      const bool TracedFirst = O.Trace && NextOpId % 4 == 2;
      for (bool Trace : {TracedFirst, !TracedFirst}) {
        if (Trace && !O.Trace)
          continue;
        T.setEnabled(Trace);
        runOp(O, T, R, GoldenRows, D, Pass, NextOpId++, Trace ? Traced : Main);
      }
    }
  T.setEnabled(false);

  setTimingMetrics(R, Main.OpSeconds);
  const double Busy = sum(Main.OpSeconds);
  R.Metrics["ops_per_s"] =
      Busy > 0 ? static_cast<double>(Main.OpSeconds.size()) / Busy : 0;
  R.Metrics["gbps"] =
      Main.CheckSeconds > 0 ? Main.CheckBytes / Main.CheckSeconds / 1e9 : 0;
  R.detail("gbps_basis", "computed bytes per second of the simulator's "
                         "functional run of each tuned winner (the check "
                         "step, outside the operation)");
  if (!O.Trace)
    return;
  setTraceOverhead(R, Main.OpSeconds, Traced.OpSeconds);
  const std::vector<OpFacts> &F = Traced.Facts;
  R.Metrics["lang.create_ms"] = medianOf(F, [](auto &X) { return X.CreateMs; });
  R.Metrics["pm.pipeline_ms"] =
      medianOf(F, [](auto &X) { return X.PipelineMs; });
  R.Metrics["synth.compile_ms"] =
      medianOf(F, [](auto &X) { return X.CompileMs; });
  R.Metrics["synth.variants_compiled"] =
      medianOf(F, [](auto &X) { return X.Compiled; });
  R.Metrics["synth.ms_per_variant"] = medianOf(F, [](auto &X) {
    return X.Compiled ? X.CompileMs / X.Compiled : 0;
  });
  R.Metrics["engine.cache_hit_ratio"] =
      medianOf(F, [](auto &X) { return X.HitRatio; });
  R.Metrics["engine.disk_hits"] =
      medianOf(F, [](auto &X) { return X.DiskHits; });
  R.Metrics["engine.single_flight_waits"] =
      medianOf(F, [](auto &X) { return X.Waits; });
  R.Metrics["engine.tune_sweep_ms"] =
      medianOf(F, [](auto &X) { return X.SweepMs; });
  R.Metrics["engine.configs_timed"] =
      medianOf(F, [](auto &X) { return X.ConfigsTimed; });
  double Quarantined = 0;
  for (const OpFacts &X : F)
    Quarantined += X.Quarantined;
  R.Metrics["engine.quarantined"] = Quarantined;
  R.Metrics["gpusim.us_per_config"] = medianOf(F, [](auto &X) {
    return X.ConfigsTimed ? (X.SweepMs - X.CompileMs) * 1e3 / X.ConfigsTimed
                          : 0;
  });
  std::vector<double> Coverage = T.coverage("op");
  R.Metrics["trace.span_coverage"] =
      Coverage.empty() ? 0 : *std::min_element(Coverage.begin(), Coverage.end());
}

bool emitTuneGolden(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  Out << "# tune_cold golden winners: one fresh TangramReduction +\n"
         "# findBestReport per (arch, N) over FigureHarness::getPaperSizes().\n"
         "# Columns: generation, N, Fig. 6 label, variant, block, coarsen,\n"
         "# modeled seconds (%.17g, compared bit for bit).\n";
  for (const sim::ArchDesc *A : Archs)
    for (size_t N : FigureHarness::getPaperSizes()) {
      auto TR = TangramReduction::create();
      if (!TR) {
        std::fprintf(stderr, "error: %s\n", TR.status().toString().c_str());
        return false;
      }
      auto Rep = (*TR)->findBestReport(*A, N);
      if (!Rep) {
        std::fprintf(stderr, "error: %s N=%zu: %s\n", A->Name.c_str(), N,
                     Rep.status().toString().c_str());
        return false;
      }
      Out << formatGolden(*A, N, *Rep) << "\n";
      std::printf("%s\n", formatGolden(*A, N, *Rep).c_str());
    }
  return static_cast<bool>(Out);
}

} // namespace perfbench
