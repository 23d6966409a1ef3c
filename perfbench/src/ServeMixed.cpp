//===- ServeMixed.cpp - serve_mixed: the serving path ---------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The serving path, where src/serve admission, batching and the host
// epilogue set the cost and the kernels are tiny. A ReductionService on
// the native backend with Pascal and Kepler shards serves a seeded pool of
// jobs: {add f32, min i32, argmax i64}, sizes log-uniform over 1..4096
// elements, so most jobs coalesce into batches and the ones larger than a
// block tile (256 elements) go direct. One operation is one job.
//
// Set-up is a disk-tier warm start: an untimed preparation step fills a
// cache directory; each set-up copies it (untimed), constructs the service
// over the copy and serves one job per lane, so every lane pays its first
// disk load. No variant may compile after the preparation step.
//
// The timed phase has two parts, both from one submitting thread:
//  - burst: the whole pool submitted back to back, repeatedly, for a third
//    of the time; gives ops_per_s;
//  - open loop: jobs due at a fixed offered rate (OpenLoopRate, about half
//    the 15k jobs/s burst rate a loaded 4-core AVX-512 host reached), for
//    the rest; gives
//    op_p50_ms / op_tail_ms, each job timed from when it was due. The
//    generator's own lateness is reported as serve.generator_lag_ms.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include "serve/ReductionService.h"
#include "tangram/Tangram.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>

using namespace tangram;
namespace fs = std::filesystem;

namespace perfbench {
namespace {

/// Jobs per second offered in the open-loop part.
constexpr double OpenLoopRate = 7500;
/// Distinct jobs in the pool (the burst submits all of them at once).
constexpr size_t PoolJobs = 4096;
constexpr size_t MaxJobElems = 4096;

struct LaneDef {
  ReduceOp Op;
  ir::ScalarType Elem;
  size_t ElemBytes;
};
const LaneDef Lanes[] = {
    {ReduceOp::Add, ir::ScalarType::F32, 4},
    {ReduceOp::Min, ir::ScalarType::I32, 4},
    {ReduceOp::ArgMax, ir::ScalarType::I64, 8},
};
const sim::ArchGeneration Gens[] = {sim::ArchGeneration::Pascal,
                                    sim::ArchGeneration::Kepler};

/// One job of the pool with its host reference.
struct PoolJob {
  serve::JobSpec Spec;
  double RefF = 0, Abs = 0;
  long long RefI = 0, RefIdx = 0;
  double Bytes = 0;
};

PoolJob makeJob(const LaneDef &L, sim::ArchGeneration Gen, size_t N,
                Rng &G) {
  PoolJob J;
  J.Spec.Op = L.Op;
  J.Spec.Elem = L.Elem;
  J.Spec.Gen = Gen;
  J.Bytes = static_cast<double>(N * L.ElemBytes);
  if (L.Elem == ir::ScalarType::F32) {
    for (size_t K = 0; K != N; ++K) {
      float X = 0.5f + static_cast<float>(G.next() >> 41) * 0x1p-23f;
      J.Spec.FloatData.push_back(X);
      J.RefF += X;
      J.Abs += X;
    }
    return J;
  }
  for (size_t K = 0; K != N; ++K) {
    long long X = L.Elem == ir::ScalarType::I32
                      ? static_cast<int>(static_cast<uint32_t>(G.next()))
                      : static_cast<long long>(G.next() >> 1) -
                            (1LL << 62);
    J.Spec.IntData.push_back(X);
    bool Better = K == 0 || (L.Op == ReduceOp::Min ? X < J.RefI : X > J.RefI);
    if (Better) {
      J.RefI = X;
      J.RefIdx = static_cast<long long>(K);
    }
  }
  return J;
}

std::vector<PoolJob> makePool(const Options &O) {
  const size_t Count = O.Smoke ? 64 : PoolJobs;
  std::vector<PoolJob> Pool;
  for (size_t I = 0; I != Count; ++I) {
    Rng G(O.Seed, 0x5e, I);
    const LaneDef &L = Lanes[G.below(std::size(Lanes))];
    const sim::ArchGeneration Gen = Gens[G.below(std::size(Gens))];
    // Log-uniform over 1..MaxJobElems.
    size_t N = static_cast<size_t>(
        std::exp(G.unit() * std::log(static_cast<double>(MaxJobElems + 1))));
    N = std::min(std::max<size_t>(N, 1), MaxJobElems);
    Pool.push_back(makeJob(L, Gen, N, G));
  }
  return Pool;
}

/// Empty when \p R answers \p J correctly.
std::string check(const PoolJob &J, const serve::JobResult &R) {
  char Buf[160];
  if (J.Spec.Elem == ir::ScalarType::F32) {
    if (std::fabs(R.FloatValue - J.RefF) <= floatSumTolerance(J.Abs))
      return "";
    std::snprintf(Buf, sizeof(Buf), "sum %.9g, want %.9g", R.FloatValue,
                  J.RefF);
    return Buf;
  }
  const bool Arg = J.Spec.Op == ReduceOp::ArgMax;
  if (R.IntValue == J.RefI && (!Arg || R.IndexValue == J.RefIdx))
    return "";
  std::snprintf(Buf, sizeof(Buf), "(%lld @ %lld), want (%lld @ %lld)",
                R.IntValue, R.IndexValue, J.RefI, J.RefIdx);
  return Buf;
}

/// Completion slots for one batch of submissions. Callbacks run on shard
/// worker threads; each writes only its own slot, and the mutex hand-off
/// in finish()/wait() publishes the slots to the submitting thread.
class Collector {
public:
  struct Slot {
    double Done = 0;
    bool Ok = false;
    serve::JobResult Result;
    std::string Error;
  };

  void reset(size_t N) {
    Slots.assign(N, Slot());
    std::lock_guard<std::mutex> G(Mu);
    Pending = N;
  }

  serve::ReductionService::Completion callback(size_t I) {
    return [this, I](support::Expected<serve::JobResult> Out) {
      Slot &S = Slots[I];
      S.Done = now();
      if (Out) {
        S.Ok = true;
        S.Result = *Out;
      } else {
        S.Error = Out.status().toString();
      }
      finish();
    };
  }

  /// Admission refused slot \p I: its callback will never run.
  void refused(size_t I, const support::Status &Why) {
    Slots[I].Error = "refused: " + Why.toString();
    finish();
  }

  void wait() {
    std::unique_lock<std::mutex> L(Mu);
    Done.wait(L, [this] { return Pending == 0; });
  }

  const Slot &operator[](size_t I) const { return Slots[I]; }

private:
  void finish() {
    std::lock_guard<std::mutex> G(Mu);
    if (--Pending == 0)
      Done.notify_all();
  }

  std::vector<Slot> Slots;
  std::mutex Mu;
  std::condition_variable Done;
  size_t Pending = 0;
};

serve::ServiceOptions serviceOptions(const std::string &CacheDir) {
  serve::ServiceOptions SO;
  SO.BackendKind = engine::Backend::NativeCpu;
  SO.Archs = {sim::getPascalP100(), sim::getKeplerK40c()};
  // Admission never refuses here: the burst queues the whole pool, and
  // refusals would count as failures rather than measure the path.
  SO.QueueDepth = 1 << 16;
  SO.CachePath = CacheDir;
  return SO;
}

/// Serves one small job per (lane, generation) and waits: every lane
/// resolves its batch variant. Empty on success.
std::string warmLanes(serve::ReductionService &Svc) {
  std::vector<PoolJob> Warm;
  Rng G(0x3a);
  for (const LaneDef &L : Lanes)
    for (sim::ArchGeneration Gen : Gens)
      Warm.push_back(makeJob(L, Gen, 8, G));
  Collector C;
  C.reset(Warm.size());
  for (size_t I = 0; I != Warm.size(); ++I) {
    support::Status S = Svc.submit(Warm[I].Spec, C.callback(I));
    if (!S.ok())
      C.refused(I, S);
  }
  C.wait();
  for (size_t I = 0; I != Warm.size(); ++I) {
    if (!C[I].Ok)
      return C[I].Error;
    if (std::string Why = check(Warm[I], C[I].Result); !Why.empty())
      return "warm-up job: " + Why;
  }
  return "";
}

struct PhaseOut {
  std::vector<double> OpenLatency; ///< Open loop, seconds from due time.
  double BurstJobs = 0;  ///< Jobs completed in the burst part.
  double BurstSeconds = 0;
  double Bytes = 0, RunSeconds = 0;       ///< For gbps.
  double ServedSeconds = 0, Latency = 0;  ///< Open loop: for overhead.
  std::vector<double> LagMs;
  serve::ServiceStats Before, After;
};

/// Checks slot \p I against \p J and accounts it; false on failure.
bool account(Report &R, PhaseOut &Out, const Collector::Slot &S,
             const PoolJob &J, bool Corrupt) {
  ++R.Attempted;
  if (!S.Ok) {
    R.fail("serve_mixed job: " + S.Error);
    return false;
  }
  PoolJob Ref = J;
  if (Corrupt) {
    Ref.RefF += Ref.Abs * 0.01 + 1; // Seeded wrong reference.
    Ref.RefI += 1;
  }
  if (std::string Why = check(Ref, S.Result); !Why.empty()) {
    R.fail("serve_mixed job N=" + std::to_string(J.Spec.size()) + ": " + Why);
    return false;
  }
  Out.Bytes += J.Bytes;
  Out.RunSeconds += S.Result.Seconds;
  return true;
}

PhaseOut runPhase(const Options &O, Tracer &T, Report &R,
                  serve::ReductionService &Svc,
                  const std::vector<PoolJob> &Pool, double Seconds,
                  uint64_t &NextOpId) {
  PhaseOut Out;
  Out.Before = Svc.getStats();
  Collector C;

  // Burst: the whole pool, back to back, until a third of the time.
  const double BurstStart = now();
  for (uint64_t Burst = 0;
       Burst == 0 || now() - BurstStart < Seconds / 3; ++Burst) {
    std::vector<size_t> Order(Pool.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    Rng G(O.Seed, 0xb0, Burst);
    G.shuffle(Order);
    C.reset(Order.size());
    const double T0 = now();
    for (size_t K = 0; K != Order.size(); ++K) {
      serve::JobSpec Job = Pool[Order[K]].Spec;
      T.setOp(static_cast<int64_t>(NextOpId + K));
      Tracer::Scope S(T, "serve.submit");
      support::Status St = Svc.submit(std::move(Job), C.callback(K));
      if (!St.ok())
        C.refused(K, St);
    }
    C.wait();
    Out.BurstSeconds += now() - T0;
    for (size_t K = 0; K != Order.size(); ++K) {
      const bool Corrupt = O.InjectWrong && NextOpId + K == 0;
      if (account(R, Out, C[K], Pool[Order[K]], Corrupt))
        Out.BurstJobs += 1;
    }
    NextOpId += Order.size();
  }

  // Open loop at a fixed offered rate for the remaining time.
  const double Rate = O.Smoke ? 2000 : OpenLoopRate;
  const size_t Jobs = std::max<size_t>(
      O.Smoke ? Pool.size() : 1,
      static_cast<size_t>(Rate * (Seconds - (now() - BurstStart))));
  std::vector<size_t> Order(Jobs);
  Rng G(O.Seed, 0x09);
  for (size_t I = 0; I != Jobs; ++I)
    Order[I] = G.below(Pool.size());
  C.reset(Jobs);
  std::vector<double> Due(Jobs);
  const double T0 = now() + 1e-3;
  for (size_t I = 0; I != Jobs; ++I) {
    serve::JobSpec Job = Pool[Order[I]].Spec;
    Due[I] = T0 + static_cast<double>(I) / Rate;
    while (now() < Due[I]) {
    }
    Out.LagMs.push_back((now() - Due[I]) * 1e3);
    T.setOp(static_cast<int64_t>(NextOpId + I));
    Tracer::Scope S(T, "serve.submit");
    support::Status St = Svc.submit(std::move(Job), C.callback(I));
    if (!St.ok())
      C.refused(I, St);
  }
  C.wait();
  T.setOp(-1);
  for (size_t I = 0; I != Jobs; ++I) {
    if (!account(R, Out, C[I], Pool[Order[I]], false))
      continue;
    Out.OpenLatency.push_back(C[I].Done - Due[I]);
    Out.ServedSeconds += C[I].Result.Seconds;
    Out.Latency += C[I].Result.LatencySeconds;
  }
  NextOpId += Jobs;
  Out.After = Svc.getStats();
  return Out;
}

} // namespace

void runServeMixed(const Options &O, Tracer &T, Report &R) {
  const std::string Root =
      O.WorkDir + "/serve-" + std::to_string(static_cast<long>(getpid()));
  std::error_code EC;
  fs::remove_all(Root, EC);
  fs::create_directories(Root, EC);
  if (EC) {
    ++R.Attempted;
    R.fail("serve_mixed: cannot create " + Root + ": " + EC.message());
    return;
  }
  struct Cleanup {
    std::string Dir;
    ~Cleanup() {
      std::error_code Ignored;
      fs::remove_all(Dir, Ignored);
    }
  } RemoveRoot{Root};

  // Untimed preparation: fill the cache directory the set-ups copy, and
  // measure the front end each lane's facade runs (lang/pm per-layer).
  const std::string Prep = Root + "/prep";
  {
    serve::ReductionService Svc(serviceOptions(Prep));
    if (std::string Why = warmLanes(Svc); !Why.empty()) {
      ++R.Attempted;
      R.fail("serve_mixed preparation: " + Why);
      return;
    }
  }
  std::vector<double> CreateMs, PipelineMs;
  for (const LaneDef &L : Lanes) {
    TangramReduction::Options TO;
    TO.Op = L.Op;
    TO.Elem = L.Elem;
    const double T0 = now();
    auto TR = TangramReduction::create(TO);
    CreateMs.push_back((now() - T0) * 1e3);
    if (TR)
      PipelineMs.push_back((*TR)->getInstrumentation().getTotalSeconds() *
                           1e3);
  }

  std::vector<PoolJob> Pool = makePool(O);

  std::vector<double> Setups;
  std::unique_ptr<serve::ReductionService> Svc;
  T.setEnabled(O.Trace);
  for (unsigned Rep = 0; Rep != setupRepetitions(O); ++Rep) {
    Svc.reset();
    const std::string Dir = Root + "/run" + std::to_string(Rep);
    fs::copy(Prep, Dir, fs::copy_options::recursive, EC);
    if (EC) {
      ++R.Attempted;
      R.fail("serve_mixed: cannot copy the cache directory: " + EC.message());
      return;
    }
    const double T0 = now();
    std::string Why;
    {
      Tracer::Scope S(T, "setup");
      Svc = std::make_unique<serve::ReductionService>(serviceOptions(Dir));
      Why = warmLanes(*Svc);
    }
    Setups.push_back(now() - T0);
    if (!Why.empty()) {
      ++R.Attempted;
      R.fail("serve_mixed set-up: " + Why);
      return;
    }
  }
  setSetupMetric(R, Setups);

  uint64_t NextOpId = 0;
  PhaseOut Main;
  if (O.Trace) {
    T.setEnabled(false);
    PhaseOut Untraced = runPhase(O, T, R, *Svc, Pool, O.Seconds / 2, NextOpId);
    T.setEnabled(true);
    Main = runPhase(O, T, R, *Svc, Pool, O.Seconds / 2, NextOpId);
    setTraceOverhead(R, Untraced.OpenLatency, Main.OpenLatency);
  } else {
    Main = runPhase(O, T, R, *Svc, Pool, O.Seconds, NextOpId);
  }
  const serve::HealthReport Health = Svc->getHealth();
  Svc.reset();

  setTimingMetrics(R, Main.OpenLatency);
  R.Metrics["ops_per_s"] =
      Main.BurstSeconds > 0 ? Main.BurstJobs / Main.BurstSeconds : 0;
  R.Metrics["gbps"] =
      Main.RunSeconds > 0 ? Main.Bytes / Main.RunSeconds / 1e9 : 0;
  R.detail("gbps_basis", "computed bytes per second of JobResult::Seconds "
                         "(native run time attributed to each job)");
  R.detail("open_loop_rate_per_s", O.Smoke ? 2000 : OpenLoopRate);
  R.detail("open_loop_jobs", static_cast<double>(Main.OpenLatency.size()));
  R.detail("burst_jobs", Main.BurstJobs);
  R.detail("generator_lag_max_ms",
           Main.LagMs.empty()
               ? 0
               : *std::max_element(Main.LagMs.begin(), Main.LagMs.end()));

  engine::CacheStats Cache;
  for (const serve::ShardHealth &S : Health.Shards) {
    Cache.Hits += S.Cache.Hits;
    Cache.Misses += S.Cache.Misses;
    Cache.DiskHits += S.Cache.DiskHits;
    Cache.SingleFlightWaits += S.Cache.SingleFlightWaits;
    Cache.VariantsCompiled += S.Cache.VariantsCompiled;
    Cache.CompileSeconds += S.Cache.CompileSeconds;
  }
  R.detail("warm_start_compiles", static_cast<double>(Cache.VariantsCompiled));
  if (Cache.VariantsCompiled)
    std::fprintf(stderr,
                 "warning: %llu variants compiled after the preparation "
                 "step; set-up is not a pure disk-tier warm start\n",
                 static_cast<unsigned long long>(Cache.VariantsCompiled));
  if (!O.Trace)
    return;

  R.Metrics["lang.create_ms"] = median(CreateMs);
  R.Metrics["pm.pipeline_ms"] = median(PipelineMs);
  const double Compiled = static_cast<double>(Cache.VariantsCompiled);
  R.Metrics["synth.compile_ms"] = Cache.CompileSeconds * 1e3;
  R.Metrics["synth.variants_compiled"] = Compiled;
  R.Metrics["synth.ms_per_variant"] =
      Compiled ? Cache.CompileSeconds * 1e3 / Compiled : 0;
  const double Lookups = static_cast<double>(Cache.Hits + Cache.Misses);
  R.Metrics["engine.cache_hit_ratio"] =
      Lookups ? static_cast<double>(Cache.Hits) / Lookups : 0;
  R.Metrics["engine.disk_hits"] = static_cast<double>(Cache.DiskHits);
  R.Metrics["engine.single_flight_waits"] =
      static_cast<double>(Cache.SingleFlightWaits);

  const serve::ServiceStats &A = Main.Before, &B = Main.After;
  const double Completed = static_cast<double>(B.Completed - A.Completed);
  const double Coalesced =
      static_cast<double>(B.CoalescedJobs - A.CoalescedJobs);
  const double Batches = static_cast<double>(B.Batches - A.Batches);
  R.Metrics["serve.submit_us"] = median(T.durations("serve.submit")) * 1e6;
  R.Metrics["serve.jobs_per_batch"] = Batches ? Coalesced / Batches : 0;
  R.Metrics["serve.coalesced_ratio"] = Completed ? Coalesced / Completed : 0;
  R.Metrics["serve.degraded_ratio"] =
      Completed ? static_cast<double>(B.DegradedJobs - A.DegradedJobs) /
                      Completed
                : 0;
  R.Metrics["serve.overhead_ratio"] =
      Main.Latency > 0 ? 1 - Main.ServedSeconds / Main.Latency : 0;
  R.Metrics["serve.generator_lag_ms"] = median(Main.LagMs);
}

} // namespace perfbench
