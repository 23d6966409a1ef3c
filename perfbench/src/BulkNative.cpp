//===- BulkNative.cpp - bulk_native: large reductions, native backend -----===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// What native-backend users pay for large reductions. One operation uploads
// one freshly generated array (Device::alloc + writeFloats/writeInts), runs
// one Backend::NativeCpu reduction on Pascal, and releases the buffer. The
// variant is fixed (Fig. 6 label "b", block 256, coarsen 64, as in
// bench_native_reduce), so no tuning noise enters the numbers.
//
// Operations come in rounds over {add f32, argmax i64} x {2^20, 2^22,
// 2^24}: per op one 2^20, one 2^22 and three 2^24 arrays, in a seeded
// order, on fresh seeded data. Bulk work is large arrays, so 2^24 holds
// the median operation and most of the bytes; that also keeps the
// end-to-end numbers out of the in-cache sizes, whose times swung 2x with
// the load other tenants put on a shared host's cache. The smaller sizes
// span in-cache to mid and report their own per-layer rows; 2^22 vs 2^24
// is the pair behind the unexplained "16M runs faster than 4M" row
// (native.warm_gbps.*). Only whole rounds run, so every run has the same
// mix and runs with different seeds compare.
//
// Besides the timed operation, each array is also reduced a second time
// while still resident (the warm run: no typed-mirror conversion), its
// result is checked against a host reference, and — for the float cells —
// summed by a plain nproc-thread host loop, the roofline the native engine
// is measured against. None of that is part of the operation's time.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include "tangram/Tangram.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

using namespace tangram;

namespace perfbench {
namespace {

struct CellDef {
  ReduceOp Op;
  ir::ScalarType Elem;
  const char *Name;
  size_t ElemBytes; ///< Device element size: the computed bytes per element.
};

const CellDef Cells[] = {
    {ReduceOp::Add, ir::ScalarType::F32, "add_f32", 4},
    {ReduceOp::ArgMax, ir::ScalarType::I64, "argmax_i64", 8},
};
constexpr size_t NumCells = sizeof(Cells) / sizeof(Cells[0]);
constexpr unsigned NumBuckets = 3;

/// log2 of the array sizes. Smoke runs use tiny arrays under the same
/// bucket names.
unsigned bucketLog2(const Options &O, unsigned B) {
  static const unsigned Full[NumBuckets] = {20, 22, 24};
  static const unsigned Smoke[NumBuckets] = {12, 14, 16};
  return O.Smoke ? Smoke[B] : Full[B];
}

/// Arrays of bucket \p B per op in one round.
unsigned arraysPerRound(unsigned B) { return B + 1 == NumBuckets ? 3 : 1; }

const char *bucketName(unsigned B) {
  static const char *Names[NumBuckets] = {"2p20", "2p22", "2p24"};
  return Names[B];
}

/// One (op, dtype) lane: its own facade (the op/dtype axis is a facade
/// option) and the Pascal engine with the fixed variant resolved.
struct Lane {
  std::unique_ptr<TangramReduction> TR;
  engine::ExecutionEngine *E = nullptr;
  synth::VariantDescriptor V;
};

/// Host input of one operation plus its reference answer.
struct Input {
  std::vector<float> F;
  std::vector<int> I;
  double RefSum = 0, AbsSum = 0;
  long long RefMax = 0, RefIdx = 0;
};

Input makeInput(const CellDef &C, size_t N, Rng &G) {
  Input In;
  if (C.Elem == ir::ScalarType::F32) {
    // Values in [0.5, 1.5), exact in f32: the sum grows with N, so a lost
    // or doubled tile moves it far beyond the tolerance.
    In.F.resize(N);
    for (size_t K = 0; K != N; ++K)
      In.F[K] = 0.5f + static_cast<float>(G.next() >> 41) * 0x1p-23f;
    for (float X : In.F) {
      In.RefSum += X;
      In.AbsSum += std::fabs(X);
    }
  } else {
    In.I.resize(N);
    for (size_t K = 0; K != N; ++K)
      In.I[K] = static_cast<int>(static_cast<uint32_t>(G.next() >> 32));
    // Ties resolve to the smallest index.
    In.RefMax = In.I[0];
    for (size_t K = 1; K != N; ++K)
      if (In.I[K] > In.RefMax) {
        In.RefMax = In.I[K];
        In.RefIdx = static_cast<long long>(K);
      }
  }
  return In;
}

/// Empty string when \p Got matches the reference, else why not.
std::string check(const CellDef &C, const Input &In,
                  const engine::ReduceResult &Got) {
  char Buf[160];
  if (C.Elem == ir::ScalarType::F32) {
    if (std::fabs(Got.FloatValue - In.RefSum) <= floatSumTolerance(In.AbsSum))
      return "";
    std::snprintf(Buf, sizeof(Buf), "sum %.9g, want %.9g", Got.FloatValue,
                  In.RefSum);
  } else {
    if (Got.IntValue == In.RefMax && Got.IndexValue == In.RefIdx)
      return "";
    std::snprintf(Buf, sizeof(Buf), "argmax (%lld @ %lld), want (%lld @ %lld)",
                  Got.IntValue, Got.IndexValue, In.RefMax, In.RefIdx);
  }
  return Buf;
}

/// The roofline: a plain nproc-thread sum over \p Data, best of three.
/// Thread start-up is outside the timed window.
double hostSumSeconds(const std::vector<float> &Data) {
  const unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
  double Best = 1e30;
  for (int Rep = 0; Rep != 3; ++Rep) {
    // Each thread stores its sum, so the loop cannot be optimized away.
    std::vector<double> Partial(Threads, 0.0);
    std::atomic<bool> Go{false};
    std::vector<std::thread> Pool;
    const size_t Chunk = (Data.size() + Threads - 1) / Threads;
    for (unsigned W = 0; W != Threads; ++W)
      Pool.emplace_back([&, W] {
        while (!Go.load(std::memory_order_acquire))
          std::this_thread::yield();
        const size_t B = std::min(Data.size(), W * Chunk);
        const size_t E = std::min(Data.size(), B + Chunk);
        float Acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        size_t K = B;
        for (; K + 8 <= E; K += 8)
          for (int L = 0; L != 8; ++L)
            Acc[L] += Data[K + L];
        double S = 0;
        for (; K != E; ++K)
          S += Data[K];
        for (float A : Acc)
          S += A;
        Partial[W] = S;
      });
    const double T0 = now();
    Go.store(true, std::memory_order_release);
    for (std::thread &Th : Pool)
      Th.join();
    Best = std::min(Best, now() - T0);
  }
  return Best;
}

/// Per (cell, bucket) samples for the per-layer metrics.
struct CellSamples {
  std::vector<double> First, Warm, Roofline;
};

struct PhaseOut {
  std::vector<double> OpSeconds;
  /// Per round: operations per second of operation time, and computed
  /// bytes per second of run time. Their medians are ops_per_s and gbps.
  std::vector<double> RoundOpsPerS, RoundGbps;
  double Bytes = 0, RunSeconds = 0;
  double UploadBytes = 0, UploadSeconds = 0;
  CellSamples Samples[NumCells][NumBuckets];
};

/// Nominal wall seconds of one round: a run of S seconds does
/// S / RoundSeconds whole rounds, so every run at one --seconds does the
/// same work, whatever the host's speed.
constexpr double RoundSeconds = 3;

/// Runs round \p Round (its order and data come from the seed and the
/// round number) and adds its samples to \p Out.
void runRound(const Options &O, Tracer &T, Report &R, std::vector<Lane> &Lanes,
              uint64_t Round, uint64_t &NextOpId, PhaseOut &Out) {
  const size_t Ops0 = Out.OpSeconds.size();
  const double Busy0 = sum(Out.OpSeconds), Bytes0 = Out.Bytes,
               Run0 = Out.RunSeconds;
  std::vector<unsigned> Order;
  for (unsigned K = 0; K != NumCells * NumBuckets; ++K)
    for (unsigned Copy = 0; Copy != arraysPerRound(K % NumBuckets); ++Copy)
      Order.push_back(K);
  Rng RoundRng(O.Seed, Round);
  RoundRng.shuffle(Order);
  for (unsigned K : Order) {
    const unsigned CI = K / NumBuckets, B = K % NumBuckets;
    const CellDef &C = Cells[CI];
    Lane &L = Lanes[CI];
    const size_t N = size_t{1} << bucketLog2(O, B);
    const uint64_t OpId = NextOpId++;
    Rng DataRng(O.Seed, Round, OpId);
    Input In = makeInput(C, N, DataRng);
    if (O.InjectWrong && OpId == 0) {
      In.RefSum += In.AbsSum * 0.01 + 1; // Seeded wrong reference.
      In.RefIdx += 1;
    }

    ++R.Attempted;
    T.setOp(static_cast<int64_t>(OpId));
    sim::Device &Dev = L.E->getDevice();
    double Upload = 0, Run = 0, WarmRun = 0, Release = 0;
    support::Expected<engine::ReduceResult> First =
        support::Status(support::StatusCode::InternalError, "not run");
    support::Expected<engine::ReduceResult> Warm = First;
    {
      Tracer::Scope OpSpan(T, "op");
      const double T0 = now();
      const size_t Mark = L.E->deviceMark();
      sim::BufferId Buf;
      {
        Tracer::Scope S(T, "device.alloc");
        Buf = Dev.alloc(C.Elem, N);
      }
      {
        Tracer::Scope S(T, "device.write");
        if (C.Elem == ir::ScalarType::F32)
          Dev.writeFloats(Buf, In.F);
        else
          Dev.writeInts(Buf, In.I);
      }
      const double T1 = now();
      engine::ReduceRequest Req{.Desc = L.V,
                                .In = Buf,
                                .N = N,
                                .BackendKind = engine::Backend::NativeCpu};
      {
        Tracer::Scope S(T, "engine.run");
        First = L.E->run(Req);
      }
      const double T2 = now();
      // Traced rounds only, not part of the operation: the same array
      // again, now that the backend has seen it.
      if (T.enabled()) {
        Tracer::Scope S(T, "engine.run.warm");
        Warm = L.E->run(Req);
      }
      const double T3 = now();
      {
        Tracer::Scope S(T, "device.release");
        L.E->deviceRelease(Mark);
      }
      Upload = T1 - T0;
      Run = T2 - T1;
      WarmRun = T3 - T2;
      Release = now() - T3;
    }
    T.setOp(-1);

    std::string Why = First ? check(C, In, *First) : First.status().toString();
    if (Why.empty() && T.enabled()) {
      std::string W = Warm ? check(C, In, *Warm) : Warm.status().toString();
      if (!W.empty())
        Why = "warm run: " + W;
    }
    if (!Why.empty()) {
      R.fail(std::string("bulk_native ") + C.Name + " N=" +
             std::to_string(N) + ": " + Why);
      continue;
    }

    const double HostBytes = static_cast<double>(N) * 4;
    Out.OpSeconds.push_back(Upload + Run + Release);
    Out.Bytes += static_cast<double>(N * C.ElemBytes);
    Out.RunSeconds += Run;
    Out.UploadBytes += HostBytes;
    Out.UploadSeconds += Upload;
    CellSamples &S = Out.Samples[CI][B];
    S.First.push_back(Run);
    if (!T.enabled())
      continue;
    S.Warm.push_back(WarmRun);
    if (C.Elem == ir::ScalarType::F32)
      S.Roofline.push_back(HostBytes / hostSumSeconds(In.F) / 1e9);
  }
  const double Busy = sum(Out.OpSeconds) - Busy0;
  const double Run = Out.RunSeconds - Run0;
  if (Busy > 0 && Run > 0) {
    Out.RoundOpsPerS.push_back(
        static_cast<double>(Out.OpSeconds.size() - Ops0) / Busy);
    Out.RoundGbps.push_back((Out.Bytes - Bytes0) / Run / 1e9);
  }
}

/// One set-up: a facade per lane, the Pascal engine, and the fixed variant
/// lowered for the native backend (the compile users pay once per
/// process). Per-layer facts of the set-up land in \p CreateMs / \p
/// PipelineMs.
std::vector<Lane> setUp(Tracer &T, std::vector<double> &CreateMs,
                        std::vector<double> &PipelineMs, std::string &Error) {
  std::vector<Lane> Lanes(NumCells);
  for (size_t CI = 0; CI != NumCells; ++CI) {
    Lane &L = Lanes[CI];
    TangramReduction::Options TO;
    TO.Op = Cells[CI].Op;
    TO.Elem = Cells[CI].Elem;
    const double T0 = now();
    {
      Tracer::Scope S(T, "lang.create");
      auto TR = TangramReduction::create(TO);
      if (!TR) {
        Error = TR.status().toString();
        return {};
      }
      L.TR = std::move(*TR);
    }
    CreateMs.push_back((now() - T0) * 1e3);
    PipelineMs.push_back(L.TR->getInstrumentation().getTotalSeconds() * 1e3);
    {
      Tracer::Scope S(T, "tangram.engine_for");
      L.E = &L.TR->engineFor(sim::getPascalP100());
    }
    const synth::VariantDescriptor *B =
        synth::findByFigure6Label(L.TR->getSearchSpace(), "b");
    if (!B) {
      Error = "variant b is missing from the search space";
      return {};
    }
    L.V = *B;
    L.V.BlockSize = 256;
    L.V.Coarsen = 64;
    Tracer::Scope S(T, "engine.get_variant");
    auto Compiled = L.E->getVariant(L.V, {}, engine::Backend::NativeCpu);
    if (!Compiled) {
      Error = Compiled.status().toString();
      return {};
    }
  }
  return Lanes;
}

} // namespace

void runBulkNative(const Options &O, Tracer &T, Report &R) {
  std::vector<double> Setups, CreateMs, PipelineMs;
  std::vector<Lane> Lanes;
  T.setEnabled(O.Trace);
  for (unsigned Rep = 0; Rep != setupRepetitions(O); ++Rep) {
    Lanes.clear();
    std::string Error;
    const double T0 = now();
    {
      Tracer::Scope S(T, "setup");
      Lanes = setUp(T, CreateMs, PipelineMs, Error);
    }
    Setups.push_back(now() - T0);
    if (!Error.empty()) {
      ++R.Attempted;
      R.fail("bulk_native set-up: " + Error);
      return;
    }
  }
  setSetupMetric(R, Setups);
  // Set-up cache counters: every set-up compiles the same variants.
  engine::CacheStats SetupCache[NumCells];
  for (size_t CI = 0; CI != NumCells; ++CI)
    SetupCache[CI] = Lanes[CI].E->getCacheStats();

  // One untimed warm-up round lets the allocator and the backend's caches
  // settle. A traced run does the same rounds as an untraced one and
  // traces every other round: the traced rounds give the per-layer
  // numbers, the difference to the untraced ones the tracing overhead.
  uint64_t NextOpId = 0;
  const uint64_t Rounds = std::max<uint64_t>(
      O.Trace ? 2 : 1,
      O.Smoke ? 0 : static_cast<uint64_t>(O.Seconds / RoundSeconds));
  PhaseOut WarmUp, Main, Traced;
  T.setEnabled(false);
  runRound(O, T, R, Lanes, ~uint64_t{0}, NextOpId, WarmUp);
  for (uint64_t Round = 0; Round != Rounds; ++Round) {
    const bool Trace = O.Trace && Round % 2 == 1;
    T.setEnabled(Trace);
    runRound(O, T, R, Lanes, Round, NextOpId, Trace ? Traced : Main);
  }
  T.setEnabled(false);

  setTimingMetrics(R, Main.OpSeconds);
  R.Metrics["ops_per_s"] = median(Main.RoundOpsPerS);
  R.Metrics["gbps"] = median(Main.RoundGbps);
  R.detail("gbps_basis", "computed bytes (N x element size) per second of "
                         "ExecutionEngine::run, not proven DRAM bandwidth");
  for (unsigned B = 0; B != NumBuckets; ++B)
    R.detail(std::string("array_mib.add_f32.") + bucketName(B),
             static_cast<double>((size_t{1} << bucketLog2(O, B)) * 4) /
                 (1 << 20));

  if (!O.Trace)
    return;
  setTraceOverhead(R, Main.OpSeconds, Traced.OpSeconds);
  // Per-layer metrics, from the traced rounds.
  R.Metrics["lang.create_ms"] = median(CreateMs);
  R.Metrics["pm.pipeline_ms"] = median(PipelineMs);
  double CompileMs = 0, Compiled = 0, Hits = 0, Lookups = 0, DiskHits = 0,
         Waits = 0;
  for (size_t CI = 0; CI != NumCells; ++CI) {
    CompileMs += SetupCache[CI].CompileSeconds * 1e3;
    Compiled += static_cast<double>(SetupCache[CI].VariantsCompiled);
    engine::CacheStats C = Lanes[CI].E->getCacheStats();
    Hits += static_cast<double>(C.Hits);
    Lookups += static_cast<double>(C.Hits + C.Misses);
    DiskHits += static_cast<double>(C.DiskHits);
    Waits += static_cast<double>(C.SingleFlightWaits);
  }
  R.Metrics["synth.compile_ms"] = CompileMs;
  R.Metrics["synth.variants_compiled"] = Compiled;
  R.Metrics["synth.ms_per_variant"] = Compiled ? CompileMs / Compiled : 0;
  R.Metrics["engine.cache_hit_ratio"] = Lookups ? Hits / Lookups : 0;
  R.Metrics["engine.disk_hits"] = DiskHits;
  R.Metrics["engine.single_flight_waits"] = Waits;
  const double Ops = static_cast<double>(Traced.OpSeconds.size());
  R.Metrics["gpusim.upload_ms"] = Ops ? Traced.UploadSeconds * 1e3 / Ops : 0;
  R.Metrics["gpusim.upload_gbps"] =
      Traced.UploadSeconds > 0 ? Traced.UploadBytes / Traced.UploadSeconds / 1e9 : 0;
  for (size_t CI = 0; CI != NumCells; ++CI)
    for (unsigned B = 0; B != NumBuckets; ++B) {
      const CellSamples &S = Traced.Samples[CI][B];
      const std::string Suffix =
          std::string(".") + Cells[CI].Name + "." + bucketName(B);
      const double First = median(S.First), Warm = median(S.Warm);
      const double Bytes =
          static_cast<double>((size_t{1} << bucketLog2(O, B)) *
                              Cells[CI].ElemBytes);
      R.Metrics["native.first_run_ms" + Suffix] = First * 1e3;
      R.Metrics["native.warm_run_ms" + Suffix] = Warm * 1e3;
      R.Metrics["native.mirror_ms" + Suffix] = (First - Warm) * 1e3;
      R.Metrics["native.warm_gbps" + Suffix] = Warm > 0 ? Bytes / Warm / 1e9 : 0;
    }
  for (unsigned B = 0; B != NumBuckets; ++B) {
    const double Roof = median(Traced.Samples[0][B].Roofline);
    const std::string Suffix = bucketName(B);
    R.Metrics["native.roofline_gbps." + Suffix] = Roof;
    R.Metrics["native.roofline_ratio." + Suffix] =
        Roof > 0 ? R.Metrics["native.warm_gbps.add_f32." + Suffix] / Roof : 0;
  }
  std::vector<double> Coverage = T.coverage("op");
  R.Metrics["trace.span_coverage"] =
      Coverage.empty() ? 0 : *std::min_element(Coverage.begin(), Coverage.end());
}

} // namespace perfbench
