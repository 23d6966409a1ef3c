//===- Main.cpp - Repository benchmark entry point ------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// One process runs one workload:
//
//   perfbench --workload bulk_native|serve_mixed|tune_cold
//             --seed N --seconds S --trace 0|1 [--smoke]
//             [--inject-wrong]
//
// The last line of standard output is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (untraced run) or every per-layer metric
// (traced run). The line before it stamps the host facts and the details
// of the run, so numbers from different hosts are never compared. The
// exit code is 1 when any result was wrong, refused or failed.
//
// See perfbench/README.md for the workloads, the metrics and which layer
// metric should move which end-to-end metric.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include "native/VecTraits.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

enum WorkloadMask : unsigned {
  Bulk = 1,
  Serve = 2,
  Tune = 4,
  All = Bulk | Serve | Tune,
};

struct MetricDef {
  std::string Name;
  const char *Unit;
  /// Workloads that must measure this metric. Elsewhere it is reported
  /// as 0: that workload does not exercise the layer.
  unsigned Applies;
};

std::vector<MetricDef> endToEndMetrics() {
  return {
      {"setup_s", "s", All},         {"op_p50_ms", "ms", All},
      {"op_tail_ms", "ms", All},     {"ops_per_s", "1/s", All},
      {"gbps", "GB/s", All},         {"peak_rss_mb", "MB", All},
  };
}

std::vector<MetricDef> perLayerMetrics() {
  std::vector<MetricDef> M = {
      {"lang.create_ms", "ms", All},
      {"pm.pipeline_ms", "ms", All},
      {"synth.compile_ms", "ms", All},
      {"synth.variants_compiled", "count", All},
      {"synth.ms_per_variant", "ms", Bulk | Tune},
      {"engine.cache_hit_ratio", "ratio", All},
      {"engine.disk_hits", "count", All},
      {"engine.single_flight_waits", "count", All},
      {"engine.tune_sweep_ms", "ms", Tune},
      {"engine.configs_timed", "count", Tune},
      {"engine.quarantined", "count", Tune},
      {"gpusim.us_per_config", "us", Tune},
      {"gpusim.upload_ms", "ms", Bulk},
      {"gpusim.upload_gbps", "GB/s", Bulk},
  };
  for (const char *Cell : {"add_f32", "argmax_i64"})
    for (const char *Bucket : {"2p20", "2p22", "2p24"}) {
      std::string Suffix = std::string(".") + Cell + "." + Bucket;
      M.push_back({"native.first_run_ms" + Suffix, "ms", Bulk});
      M.push_back({"native.warm_run_ms" + Suffix, "ms", Bulk});
      M.push_back({"native.mirror_ms" + Suffix, "ms", Bulk});
      M.push_back({"native.warm_gbps" + Suffix, "GB/s", Bulk});
    }
  for (const char *Bucket : {"2p20", "2p22", "2p24"}) {
    M.push_back({std::string("native.roofline_gbps.") + Bucket, "GB/s", Bulk});
    M.push_back({std::string("native.roofline_ratio.") + Bucket, "ratio",
                 Bulk});
  }
  for (MetricDef D : std::vector<MetricDef>{
           {"serve.submit_us", "us", Serve},
           {"serve.jobs_per_batch", "count", Serve},
           {"serve.coalesced_ratio", "ratio", Serve},
           {"serve.degraded_ratio", "ratio", Serve},
           {"serve.overhead_ratio", "ratio", Serve},
           {"serve.generator_lag_ms", "ms", Serve},
           {"trace.overhead_ratio", "ratio", All},
           {"trace.span_coverage", "ratio", Bulk | Tune},
       })
    M.push_back(D);
  return M;
}

unsigned maskFor(const std::string &Workload) {
  if (Workload == "bulk_native")
    return Bulk;
  if (Workload == "serve_mixed")
    return Serve;
  if (Workload == "tune_cold")
    return Tune;
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload bulk_native|serve_mixed|"
               "tune_cold --seed N --seconds S --trace 0|1 [--smoke] "
               "[--inject-wrong]\n"
               "       perfbench --emit-golden FILE\n");
}

bool parseArgs(int Argc, char **Argv, Options &O, std::string &EmitGolden) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    const char *V = nullptr;
    if (A == "--smoke") {
      O.Smoke = true;
    } else if (A == "--inject-wrong") {
      O.InjectWrong = true;
    } else if (A == "--workload" || A == "--seed" || A == "--seconds" ||
               A == "--trace" || A == "--emit-golden") {
      if (!(V = Value(A.c_str())))
        return false;
      char *End = nullptr;
      if (A == "--workload")
        O.Workload = V;
      else if (A == "--emit-golden")
        EmitGolden = V;
      else if (A == "--seed")
        O.Seed = std::strtoull(V, &End, 10);
      else if (A == "--seconds")
        O.Seconds = std::strtod(V, &End);
      else
        O.Trace = std::strtol(V, &End, 10) != 0;
      if (End && *End) {
        std::fprintf(stderr, "error: bad value '%s' for %s\n", V, A.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", A.c_str());
      return false;
    }
  }
  if (!EmitGolden.empty())
    return true;
  if (!maskFor(O.Workload) || !(O.Seconds > 0)) {
    usage();
    return false;
  }
  return true;
}

std::string readFirstLine(const std::string &Path) {
  std::ifstream In(Path);
  std::string Line;
  std::getline(In, Line);
  return Line;
}

/// The size of cache level \p Level as the kernel reports it (what lscpu
/// prints), or "unknown".
std::string cacheSize(int Level) {
  for (int I = 0; I != 8; ++I) {
    std::string Dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(I) + "/";
    std::string L = readFirstLine(Dir + "level");
    std::string Type = readFirstLine(Dir + "type");
    if (!L.empty() && std::atoi(L.c_str()) == Level && Type != "Instruction")
      return readFirstLine(Dir + "size");
  }
  return "unknown";
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string EmitGolden;
  if (!parseArgs(Argc, Argv, O, EmitGolden))
    return 2;
  if (!EmitGolden.empty())
    return emitTuneGolden(EmitGolden) ? 0 : 1;

  Tracer T;
  Report R;
  if (O.Workload == "bulk_native")
    runBulkNative(O, T, R);
  else if (O.Workload == "serve_mixed")
    runServeMixed(O, T, R);
  else
    runTuneCold(O, T, R);
  R.Metrics["peak_rss_mb"] = peakRssMb();

  // Every metric the workload exercises must have been measured (unless
  // the run already failed); the rest of the declared set reads 0.
  const unsigned Mask = maskFor(O.Workload);
  const std::vector<MetricDef> Defs =
      O.Trace ? perLayerMetrics() : endToEndMetrics();
  bool Internal = false;
  for (const MetricDef &D : Defs) {
    auto It = R.Metrics.find(D.Name);
    if (It == R.Metrics.end()) {
      if ((D.Applies & Mask) && R.Failed == 0) {
        std::fprintf(stderr, "internal error: metric %s was not measured\n",
                     D.Name.c_str());
        Internal = true;
      }
      R.Metrics[D.Name] = 0;
    } else if (!std::isfinite(It->second)) {
      std::fprintf(stderr, "internal error: metric %s is not finite\n",
                   D.Name.c_str());
      Internal = true;
    }
  }
  if (Internal)
    return 2;

  if (O.Trace && !T.spans().empty()) {
    std::error_code EC;
    std::filesystem::create_directories(O.TraceDir, EC);
    std::string Path = O.TraceDir + "/" + O.Workload + "-seed" +
                       std::to_string(O.Seed) + ".json";
    if (T.write(Path))
      R.detail("trace_file", Path);
    else
      std::fprintf(stderr, "warning: could not write %s\n", Path.c_str());
  }

  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "FAILED: %s\n", E.c_str());

  const bool Correct = R.Failed == 0 && R.Attempted > 0;
  // Details line: host facts and run facts.
  std::printf("{\"host\": {\"simd_isa\": \"%s\", \"nproc\": %u, "
              "\"l2_per_core\": \"%s\", \"llc\": \"%s\", "
              "\"build_type\": \"%s\"}, "
              "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
              "\"trace\": %d, \"smoke\": %d, \"failed_ratio\": %.17g, "
              "\"details\": {",
              tangram::native::getHostSimdIsa(), std::thread::hardware_concurrency(),
              jsonEscape(cacheSize(2)).c_str(),
              jsonEscape(cacheSize(3)).c_str(), PERFBENCH_BUILD_TYPE,
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0, O.Smoke ? 1 : 0,
              R.Attempted ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 1.0);
  bool First = true;
  for (const auto &[Key, Text] : R.Details) {
    std::printf("%s\"%s\": %s", First ? "" : ", ", Key.c_str(), Text.c_str());
    First = false;
  }
  std::printf("}}\n");

  // The result line.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  First = true;
  for (const MetricDef &D : Defs) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", D.Name.c_str(), R.Metrics[D.Name], D.Unit);
    First = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
