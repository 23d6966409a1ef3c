//===- Common.cpp - Shared pieces of the benchmark ------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string_view>

namespace perfbench {

void Report::detail(const std::string &Key, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  Details[Key] = Buf;
}

void Report::detail(const std::string &Key, const std::string &Text) {
  Details[Key] = "\"" + Text + "\"";
}

Rng::Rng(uint64_t Seed, uint64_t A, uint64_t B, uint64_t C) : State(Seed) {
  // Fold each coordinate through the mixer so nearby coordinates give
  // unrelated streams.
  for (uint64_t X : {A, B, C}) {
    State ^= X + 0x632be59bd9b4e019ULL;
    State = next();
  }
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : (V[M - 1] + V[M]) / 2;
}

double sum(const std::vector<double> &V) {
  return std::accumulate(V.begin(), V.end(), 0.0);
}

Tail tail(std::vector<double> V) {
  Tail T;
  T.Samples = V.size();
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  if (N < 20) {
    T.Value = V.back();
    T.Percentile = 100;
    return T;
  }
  // Nearest rank: the sample at 0-based rank N - 11 has exactly ten
  // samples beyond it.
  T.Value = V[N - 11];
  T.Percentile = 100.0 * static_cast<double>(N - 10) / static_cast<double>(N);
  return T;
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

std::vector<double> Tracer::durations(const char *Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (std::string_view(S.Name) == Name)
      Out.push_back(S.End - S.Start);
  return Out;
}

namespace {

/// Child-covered seconds per span (children run sequentially on the
/// recording thread, so their durations never overlap).
std::vector<double> childSeconds(const std::vector<Span> &Spans) {
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Covered[static_cast<size_t>(S.Parent)] += S.End - S.Start;
  return Covered;
}

} // namespace

std::vector<double> Tracer::coverage(const char *Name) const {
  std::vector<double> Covered = childSeconds(Spans), Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (std::string_view(S.Name) == Name && S.End > S.Start)
      Out.push_back(Covered[I] / (S.End - S.Start));
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<double> Covered = childSeconds(Spans);
  const double T0 = Spans.empty() ? 0 : Spans.front().Start;
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%lld,\"self_us\":%.3f}}\n",
                 I ? "," : "", S.Name, (S.Start - T0) * 1e6,
                 (S.End - S.Start) * 1e6, I, S.Parent,
                 static_cast<long long>(S.Op),
                 (S.End - S.Start - Covered[I]) * 1e6);
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

Tracer::Scope::Scope(Tracer &T, const char *Name) : T(T) {
  if (!T.Enabled)
    return;
  Id = static_cast<int>(T.Spans.size());
  Saved = T.Current;
  T.Spans.push_back({Name, now(), 0, T.Current, T.CurrentOp});
  T.Current = Id;
}

Tracer::Scope::~Scope() {
  if (Id < 0)
    return;
  T.Spans[static_cast<size_t>(Id)].End = now();
  T.Current = Saved;
}

void setTimingMetrics(Report &R, const std::vector<double> &OpSeconds) {
  std::vector<double> Ms;
  for (double S : OpSeconds)
    Ms.push_back(S * 1e3);
  const Tail T = tail(Ms);
  R.Metrics["op_p50_ms"] = median(Ms);
  R.Metrics["op_tail_ms"] = T.Value;
  R.detail("op_tail_percentile", T.Percentile);
  R.detail("op_samples", static_cast<double>(T.Samples));
}

void setSetupMetric(Report &R, const std::vector<double> &SetupSeconds) {
  R.Metrics["setup_s"] = median(SetupSeconds);
  R.detail("setup_repetitions", static_cast<double>(SetupSeconds.size()));
}

void setTraceOverhead(Report &R, const std::vector<double> &Untraced,
                      const std::vector<double> &Traced) {
  // Mean rather than median operation time: both sides run the same
  // balanced mix, and the mean does not jump between size classes.
  auto Mean = [](const std::vector<double> &V) {
    return V.empty() ? 0 : sum(V) / static_cast<double>(V.size());
  };
  const double Base = Mean(Untraced);
  R.Metrics["trace.overhead_ratio"] = Base > 0 ? Mean(Traced) / Base - 1 : 0;
  R.detail("untraced_op_mean_ms", Base * 1e3);
  R.detail("traced_op_mean_ms", Mean(Traced) * 1e3);
}

} // namespace perfbench
