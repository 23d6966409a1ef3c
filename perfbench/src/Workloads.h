//===- Workloads.h - The benchmark's three workloads ------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry points of the three workloads and the metric bookkeeping they
/// share. Every workload follows one shape:
///
///  1. set up several times (setup_s is the median of those set-ups);
///  2. run the timed phase for --seconds — or, in a traced run, run it
///     once untraced and once traced for half the time each, so the
///     difference is the tracing overhead;
///  3. check every result against a reference that does not come from the
///     code under test, counting each mismatch as a failed operation.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_PERFBENCH_WORKLOADS_H
#define TANGRAM_PERFBENCH_WORKLOADS_H

#include "Common.h"

#include <string>

namespace perfbench {

void runBulkNative(const Options &O, Tracer &T, Report &R);
void runServeMixed(const Options &O, Tracer &T, Report &R);
void runTuneCold(const Options &O, Tracer &T, Report &R);

/// Recomputes the tune_cold golden file (every arch x paper size) into
/// \p Path. Only for a change that moves the modeled cycle counts on
/// purpose and says why.
bool emitTuneGolden(const std::string &Path);

/// Fills op_p50_ms and op_tail_ms from per-operation wall seconds (with
/// the tail's percentile and sample count as details).
void setTimingMetrics(Report &R, const std::vector<double> &OpSeconds);

/// setup_s: the median of the set-up repetitions.
void setSetupMetric(Report &R, const std::vector<double> &SetupSeconds);

/// trace.overhead_ratio: traced over untraced mean operation time, - 1.
void setTraceOverhead(Report &R, const std::vector<double> &Untraced,
                      const std::vector<double> &Traced);

/// Set-up repetitions per run (setup_s reports their median).
inline unsigned setupRepetitions(const Options &O) { return O.Smoke ? 2 : 25; }

/// Float-sum tolerance, relative to the sum of magnitudes: loose enough
/// for any summation order of f32 partials (a 64-element sequential run
/// plus a tree costs well under 1e-5 of it), tight enough that a dropped
/// or doubled block tile of the generated data (all in [0.5, 1.5)) is
/// caught.
inline double floatSumTolerance(double AbsSum) { return AbsSum * 1e-5 + 1e-6; }

} // namespace perfbench

#endif // TANGRAM_PERFBENCH_WORKLOADS_H
