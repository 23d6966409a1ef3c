//===- Common.h - Shared pieces of the benchmark -----------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the run options,
/// the report a workload fills, the seeded input generator, sample
/// statistics, and the span recorder behind traced runs.
///
/// Spans are recorded by the benchmark's own code around calls into the
/// library's public API; nothing inside src/ is instrumented. A span costs
/// one predictable branch when tracing is off, so untraced runs (the ones
/// that produce end-to-end numbers) execute the same code path.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_PERFBENCH_COMMON_H
#define TANGRAM_PERFBENCH_COMMON_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in seconds.
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Tiny inputs and a shortened schedule: the benchmark's own self-test.
  bool Smoke = false;
  /// Corrupt the host reference of the first checked result, so the run
  /// must report it as a failure (self-test of the correctness oracle).
  bool InjectWrong = false;
  /// Paths, relative to the checkout root the benchmark runs in: where traced
  /// runs write their span file, the golden winners of tune_cold, and the
  /// scratch space for serve_mixed's cache directories.
  std::string TraceDir = ".bench_build/perfbench-traces";
  std::string GoldenPath = "perfbench/golden/tune_cold.tsv";
  std::string WorkDir = ".bench_build/perfbench-work";
};

/// What one workload run produced.
struct Report {
  uint64_t Attempted = 0;
  /// Failed, refused and wrong-result operations.
  uint64_t Failed = 0;
  std::map<std::string, double> Metrics;
  /// Extra facts printed on the details line: key -> JSON value text.
  std::map<std::string, std::string> Details;
  /// The first few failure descriptions (stderr).
  std::vector<std::string> Errors;

  void fail(const std::string &Why) {
    ++Failed;
    if (Errors.size() < 16)
      Errors.push_back(Why);
  }
  void detail(const std::string &Key, double Value);
  void detail(const std::string &Key, const std::string &Text);
};

/// SplitMix64, the generator of every benchmark input. Kept here rather
/// than reused from src/support so that the inputs (and the references
/// computed from them) stay fixed whatever the library does.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  /// A stream derived from \p Seed and up to three stream coordinates.
  Rng(uint64_t Seed, uint64_t A, uint64_t B = 0, uint64_t C = 0);

  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, Bound).
  uint64_t below(uint64_t Bound) { return next() % Bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// Median (mean of the middle pair for an even count); 0 when empty.
double median(std::vector<double> V);
double sum(const std::vector<double> &V);

/// The tail statistic of the end-to-end timings: the highest percentile
/// with at least ten samples beyond it. Below 20 samples that percentile
/// would sit at or under the median, so the maximum is reported instead;
/// Percentile says which one was used.
struct Tail {
  double Value = 0;
  double Percentile = 0;
  size_t Samples = 0;
};
Tail tail(std::vector<double> V);

/// Peak resident set size of this process in MiB (getrusage).
double peakRssMb();

/// One traced interval.
struct Span {
  const char *Name = "";
  double Start = 0;
  double End = 0;
  int Parent = -1;
  int64_t Op = -1;
};

/// Span recorder for the benchmark's main thread. Spans stay in memory and
/// are written out once, when the run ends.
class Tracer {
public:
  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }
  /// Operation id stamped on spans opened from now on.
  void setOp(int64_t Op) { CurrentOp = Op; }

  const std::vector<Span> &spans() const { return Spans; }
  /// Durations (seconds) of every span named \p Name.
  std::vector<double> durations(const char *Name) const;
  /// Per span named \p Name: the share of its duration its child spans
  /// cover.
  std::vector<double> coverage(const char *Name) const;
  /// Writes the spans as Chrome trace-event JSON (with each span's self
  /// time) to \p Path. Returns false on an I/O failure.
  bool write(const std::string &Path) const;

  class Scope {
  public:
    Scope(Tracer &T, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Id = -1;
    int Saved = -1;
  };

private:
  bool Enabled = false;
  std::vector<Span> Spans;
  int Current = -1;
  int64_t CurrentOp = -1;
};

} // namespace perfbench

#endif // TANGRAM_PERFBENCH_COMMON_H
