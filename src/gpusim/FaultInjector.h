//===- FaultInjector.h - Deterministic fault injection ----------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seed-driven fault injection for the SIMT simulator. A FaultPlan names
/// one fault kind and a deterministic firing schedule; the SimtMachine
/// threads a per-launch FaultInjector through the block interpreter (the
/// same hook points RaceCheck uses) and perturbs execution accordingly:
///
///  - BitFlipShared / BitFlipGlobal: one stored value has a bit flipped.
///  - DropAtomic / DuplicateAtomic: one lane's atomic update is silently
///    discarded / applied twice (a lost or replayed read-modify-write).
///  - StuckWarp: a warp livelocks at a loop/barrier, spinning without
///    progress — the model of a Kepler software-lock loop that never
///    acquires. The watchdog budget turns this into DeadlineExceeded.
///  - SkipBarrier: a warp runs past a __syncthreads() without waiting,
///    the classic missing-barrier bug.
///
/// Fault firing is a pure function of (Seed, eligible-event ordinal), so a
/// given plan perturbs a given launch identically on every host, thread
/// count, and run — fault matrices are reproducible by construction.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_GPUSIM_FAULTINJECTOR_H
#define TANGRAM_GPUSIM_FAULTINJECTOR_H

#include "gpusim/Cell.h"

#include <cstdint>
#include <string>

namespace tangram::sim {

enum class FaultKind : unsigned char {
  None = 0,
  BitFlipShared,   ///< Flip one bit of a value stored to shared memory.
  BitFlipGlobal,   ///< Flip one bit of a value stored to global memory.
  DropAtomic,      ///< Silently discard one lane's atomic update.
  DuplicateAtomic, ///< Apply one lane's atomic update twice.
  StuckWarp,       ///< One warp livelocks (spins without making progress).
  SkipBarrier,     ///< One warp runs past a __syncthreads without waiting.
};

const char *getFaultKindName(FaultKind K);

/// Parses the CLI spelling ("bitflip-shared", "drop-atomic", ...) used by
/// `tgrc faultcheck --fault=`. Returns false on an unknown name.
bool parseFaultKind(const std::string &Name, FaultKind &Out);

/// The injectable kinds (None excluded), in fault-matrix order.
const FaultKind *getAllFaultKinds(unsigned &Count);

/// One fault campaign: what to inject and when. Default-constructed plans
/// are inactive and leave execution untouched.
struct FaultPlan {
  FaultKind Kind = FaultKind::None;
  /// Seed feeding the firing schedule and the flipped bit position.
  uint64_t Seed = 1;
  /// Fire on roughly one in Period eligible events (1 = every event).
  /// StuckWarp is one-shot regardless: only the first firing sticks a warp.
  uint64_t Period = 4;

  bool active() const { return Kind != FaultKind::None; }
};

/// Per-launch injection state: counts eligible events and decides, purely
/// from (Seed, ordinal), which ones fault. One injector is threaded through
/// all blocks of a launch (which an active plan forces sequential, like
/// RaceCheck), so event ordinals — and therefore fault sites — are
/// deterministic.
class FaultInjector {
public:
  explicit FaultInjector(const FaultPlan &Plan) : Plan(Plan) {}

  const FaultPlan &getPlan() const { return Plan; }

  /// Counts one eligible event for kind \p K; true when the plan targets
  /// this kind and the schedule fires on this ordinal.
  bool fires(FaultKind K);

  /// Returns \p V with one bit flipped, as stored data of type \p Ty.
  Cell corrupt(Cell V, ir::ScalarType Ty) const;

  /// Faults actually applied so far this launch.
  uint64_t getFireCount() const { return Fires; }

private:
  FaultPlan Plan;
  uint64_t Events = 0;
  uint64_t Fires = 0;
};

} // namespace tangram::sim

#endif // TANGRAM_GPUSIM_FAULTINJECTOR_H
