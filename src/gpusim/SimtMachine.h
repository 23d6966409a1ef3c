//===- SimtMachine.h - SIMT bytecode execution engine -----------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiled kernels the way a GPU does: a grid of blocks, each
/// block a set of 32-lane warps running in lockstep with an explicit
/// divergence mask stack, shared memory per block, barriers, atomics, and
/// warp shuffles. While executing it gathers the microarchitectural event
/// counts (instruction mix, memory transactions, atomic contention,
/// divergence) that the performance model turns into modeled time.
///
/// Three execution modes:
///  - Functional: every block runs; results in device memory are exact.
///  - Sampled: grids larger than SimtMachine::SampledBlocks (48) are priced
///    from blocks 0-46 plus the (possibly ragged) last block, with event
///    counts scaled by GridDim / 48; used by the tuner and the benchmark
///    harness for the paper's multi-hundred-million-element sizes. When no
///    block observes another's writes, the launch first interprets only
///    the probe blocks {0, 1, 46, last}. If blocks 1 and 46 match block 0
///    exactly (ExecStats and hot-atomic count) and no probe failed, block
///    0's outcome stands in for blocks 2-45 and the merge repeats the same
///    additions the 48-block loop would make, so cycle counts are
///    bit-identical; otherwise the other 44 blocks run too. Only the
///    interpreted blocks' global writes land, so a sampled launch's memory
///    contents are not a result (in-tree callers read only modeled time).
///  - RaceCheck: every block runs sequentially while a RaceDetector records
///    all shared/global accesses and reports data races (see
///    RaceDetector.h for the happens-before model).
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_GPUSIM_SIMTMACHINE_H
#define TANGRAM_GPUSIM_SIMTMACHINE_H

#include "gpusim/Arch.h"
#include "gpusim/Device.h"
#include "gpusim/FaultInjector.h"
#include "gpusim/RaceDetector.h"
#include "ir/Bytecode.h"

#include <string>
#include <vector>

namespace tangram::support {
class ThreadPool;
} // namespace tangram::support

namespace tangram::sim {

/// Grid/block geometry for one launch (1-D, like the paper's kernels).
struct LaunchConfig {
  unsigned GridDim = 1;
  unsigned BlockDim = 32;
  /// Extent (elements) bound to `extern __shared__` arrays.
  size_t DynSharedElems = 0;
  /// Watchdog: per-block warp-instruction budget. A block that issues more
  /// traps with an error and LaunchResult::DeadlineExceeded instead of
  /// spinning forever (e.g. a livelocked Kepler lock loop). 0 derives a
  /// generous default from the kernel size, block width, and the largest
  /// scalar argument — every launch has a finite budget.
  uint64_t MaxWarpInstructions = 0;
};

/// One kernel argument: a device buffer (pointer param) or scalar value.
struct ArgValue {
  static ArgValue buffer(BufferId Id) {
    ArgValue V;
    V.IsBuffer = true;
    V.Id = Id;
    return V;
  }
  static ArgValue scalar(long long I) {
    ArgValue V;
    V.Scalar.I = I;
    V.Scalar.F = static_cast<double>(I);
    return V;
  }
  static ArgValue scalarF(double F) {
    ArgValue V;
    V.Scalar.F = F;
    V.Scalar.I = static_cast<long long>(F);
    return V;
  }

  bool IsBuffer = false;
  BufferId Id = 0;
  Cell Scalar;
};

enum class ExecMode : unsigned char { Functional, Sampled, RaceCheck };

/// Microarchitectural event counts, aggregated over the (scaled) grid.
struct ExecStats {
  double WarpCycles = 0;        ///< Sum of per-warp issue cycles.
  uint64_t LaneInstructions = 0;
  uint64_t WarpInstructions = 0;
  uint64_t GlobalLoadBytesScalar = 0; ///< 32-bit per-lane loads.
  uint64_t GlobalLoadBytesVector = 0; ///< 64/128-bit vectorized loads.
  uint64_t GlobalStoreBytes = 0;
  uint64_t GlobalTransactions = 0; ///< 128-byte segments touched.
  /// Bytes moved beyond the useful ones because warp accesses spanned
  /// more 128-byte segments than necessary (uncoalesced access).
  uint64_t UncoalescedExtraBytes = 0;
  uint64_t SharedAtomicOps = 0;    ///< Lane-level shared atomic updates.
  uint64_t SharedAtomicConflicts = 0; ///< Serialized extra lane-updates.
  uint64_t GlobalAtomicOps = 0;
  /// Updates of the most contended single global address per block,
  /// summed over blocks (reductions hit the same accumulator in every
  /// block, so this measures device-wide serialization pressure).
  uint64_t GlobalAtomicHotOps = 0;
  uint64_t Barriers = 0;
  uint64_t DivergentBranches = 0;
  uint64_t SharedBytes = 0;

  void scale(double Factor);
  void accumulate(const ExecStats &Other);

  /// Field-wise equality. WarpCycles is a sum of finite positive costs, so
  /// equal values are equal bit patterns.
  bool operator==(const ExecStats &) const = default;
};

/// One global-memory write a block deferred (see BlockOutcome). Entries
/// keep program order within the block; replaying whole logs in
/// block-index order reproduces the exact memory state the sequential
/// block loop would have produced.
struct GlobalEffect {
  BufferId Buf = 0;
  size_t Idx = 0;
  bool Atomic = false;
  ReduceOp Op = ReduceOp::Add;
  ir::ScalarType Ty = ir::ScalarType::I32;
  Cell Value;
};

/// What interpreting one block produced, its global writes still deferred.
struct BlockOutcome {
  ExecStats Stats;
  std::vector<std::string> Errors;
  std::vector<GlobalEffect> Effects;
  /// Updates of the block's most contended global atomic address.
  uint64_t HotOps = 0;
  bool DeadlineExceeded = false;

  /// Replays Effects into \p Dev in program order.
  void commit(Device &Dev) const;
};

/// Result of one kernel launch.
struct LaunchResult {
  ExecStats Stats;
  /// Blocks the launch accounts for: the whole grid, or SampledBlocks
  /// when Sampled (the stats are scaled by GridDim / BlocksSimulated).
  unsigned BlocksSimulated = 0;
  /// Blocks actually interpreted: BlocksSimulated, or 4 when a Sampled
  /// launch's probe blocks matched and block 0 stood in for the rest.
  unsigned BlocksInterpreted = 0;
  unsigned GridDim = 0;
  unsigned BlockDim = 0;
  bool Sampled = false;
  /// Shared memory per block in bytes (occupancy input).
  size_t SharedBytesPerBlock = 0;
  unsigned RegistersPerThread = 0;
  /// Runtime errors (out-of-bounds, division by zero, deadlock). Empty on
  /// clean execution.
  std::vector<std::string> Errors;
  /// Data races found in ExecMode::RaceCheck (empty otherwise, and empty
  /// when the launch is race-free).
  std::vector<RaceDiagnostic> Races;
  /// Total race-pair observations, before PC-pair deduplication and the
  /// MaxReports cap (RaceCheck mode only).
  uint64_t RaceConflicts = 0;
  /// The race detector's address table overflowed; race coverage is
  /// partial (RaceCheck mode only).
  bool RaceCheckTruncated = false;
  /// At least one block exhausted its warp-instruction watchdog budget
  /// (livelock or runaway loop); an Errors entry describes it.
  bool DeadlineExceeded = false;
  /// Faults the active FaultPlan actually applied during this launch.
  uint64_t FaultsInjected = 0;

  bool ok() const { return Errors.empty(); }
};

/// Executes kernels on a Device according to an ArchDesc.
///
/// A launch is order-independent when no block can observe another's
/// writes: no RaceCheck, no active fault plan, and the kernel loads no
/// buffer it also writes (store or atomic). Such launches interpret their
/// blocks through interpretBlock: each block runs against the pristine
/// device image and defers its global-memory writes into a private,
/// program-ordered effect log; the logs are replayed in block-index order
/// afterwards. With a thread pool of more than one thread the blocks run
/// concurrently. Functional results, modeled cycle counts, and error lists
/// are bit-identical to the sequential in-place loop that every other
/// launch runs. Sampled launches probe only when order-independent, on
/// every thread count alike (see the file comment).
class SimtMachine {
public:
  SimtMachine(Device &Dev, const ArchDesc &Arch,
              support::ThreadPool *Pool = nullptr)
      : Dev(Dev), Arch(Arch), Pool(Pool) {}

  /// Runs \p Kernel over the grid. \p Args must match the kernel's
  /// parameter list (buffers for pointer params, scalars otherwise).
  LaunchResult launch(const ir::CompiledKernel &Kernel,
                      const LaunchConfig &Config,
                      const std::vector<ArgValue> &Args,
                      ExecMode Mode = ExecMode::Functional);

  /// Interprets block \p Block of the launch (\p Kernel, \p Config,
  /// \p Args) against the current device image, deferring its global
  /// writes into the outcome. This is the per-block step of every
  /// order-independent launch; committing the outcomes of a grid's blocks
  /// in block-index order reproduces the sequential loop's memory. Safe to
  /// call concurrently.
  BlockOutcome interpretBlock(const ir::CompiledKernel &Kernel,
                              const LaunchConfig &Config,
                              const std::vector<ArgValue> &Args,
                              unsigned Block) const;

  /// Maximum blocks sampled per launch in Sampled mode.
  static constexpr unsigned SampledBlocks = 48;

  /// Knobs applied to launches in ExecMode::RaceCheck.
  void setRaceCheckOptions(const RaceCheckOptions &Opts) {
    RaceOpts = Opts;
  }
  const RaceCheckOptions &getRaceCheckOptions() const { return RaceOpts; }

  /// Fault plan applied to every subsequent launch (an inactive plan — the
  /// default — injects nothing). Active plans force sequential block
  /// execution, like RaceCheck, so fault sites are deterministic.
  void setFaultPlan(const FaultPlan &Plan) { Fault = Plan; }
  const FaultPlan &getFaultPlan() const { return Fault; }

private:
  Device &Dev;
  const ArchDesc &Arch;
  support::ThreadPool *Pool;
  RaceCheckOptions RaceOpts;
  FaultPlan Fault;
};

/// Evaluates a launch-uniform IR expression (shared-array extents): only
/// constants, scalar params, and arithmetic are allowed.
long long evalUniformExpr(const ir::Expr *E, const ir::CompiledKernel &Kernel,
                          const std::vector<ArgValue> &Args,
                          const LaunchConfig &Config);

/// True when \p Kernel loads a buffer it also writes (store or atomic):
/// the only shape where deferred-write block parallelism could change what
/// later blocks observe. Such launches run their blocks sequentially with
/// writes applied in place — on the interpreter and on the native CPU
/// backend alike, so both stay bit-identical to the sequential loop.
bool kernelLoadsWrittenBuffer(const ir::CompiledKernel &Kernel,
                              const std::vector<ArgValue> &Args);

} // namespace tangram::sim

#endif // TANGRAM_GPUSIM_SIMTMACHINE_H
