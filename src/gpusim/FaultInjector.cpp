//===- FaultInjector.cpp - Deterministic fault injection -------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "gpusim/FaultInjector.h"

#include "support/SplitMix64.h"

#include <cmath>
#include <cstring>

using namespace tangram;
using namespace tangram::sim;

const char *tangram::sim::getFaultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::None:
    return "none";
  case FaultKind::BitFlipShared:
    return "bitflip-shared";
  case FaultKind::BitFlipGlobal:
    return "bitflip-global";
  case FaultKind::DropAtomic:
    return "drop-atomic";
  case FaultKind::DuplicateAtomic:
    return "dup-atomic";
  case FaultKind::StuckWarp:
    return "stuck-warp";
  case FaultKind::SkipBarrier:
    return "skip-barrier";
  }
  return "unknown";
}

bool tangram::sim::parseFaultKind(const std::string &Name, FaultKind &Out) {
  unsigned Count = 0;
  const FaultKind *Kinds = getAllFaultKinds(Count);
  for (unsigned I = 0; I != Count; ++I)
    if (Name == getFaultKindName(Kinds[I])) {
      Out = Kinds[I];
      return true;
    }
  if (Name == "none") {
    Out = FaultKind::None;
    return true;
  }
  return false;
}

const FaultKind *tangram::sim::getAllFaultKinds(unsigned &Count) {
  static const FaultKind Kinds[] = {
      FaultKind::BitFlipShared,   FaultKind::BitFlipGlobal,
      FaultKind::DropAtomic,      FaultKind::DuplicateAtomic,
      FaultKind::StuckWarp,       FaultKind::SkipBarrier,
  };
  Count = sizeof(Kinds) / sizeof(Kinds[0]);
  return Kinds;
}

bool FaultInjector::fires(FaultKind K) {
  if (Plan.Kind != K)
    return false;
  uint64_t Ordinal = Events++;
  uint64_t Period = Plan.Period ? Plan.Period : 1;
  if (support::splitmix64Schedule(Plan.Seed, Ordinal) % Period != 0)
    return false;
  ++Fires;
  return true;
}

Cell FaultInjector::corrupt(Cell V, ir::ScalarType Ty) const {
  Cell Out = V;
  unsigned Bit = static_cast<unsigned>(Plan.Seed % 31);
  if (Ty == ir::ScalarType::F32) {
    float F = static_cast<float>(V.F);
    uint32_t Bits;
    std::memcpy(&Bits, &F, sizeof(Bits));
    Bits ^= 1u << Bit;
    std::memcpy(&F, &Bits, sizeof(F));
    Out.F = F;
    // Copy into the integer view the way setF does, guarding the cast
    // against non-finite corrupted values.
    Out.I = std::isfinite(F) && std::abs(F) < 9.0e18f
                ? static_cast<long long>(F)
                : 0;
  } else if (Ty == ir::ScalarType::F64) {
    double F = V.F;
    uint64_t Bits;
    std::memcpy(&Bits, &F, sizeof(Bits));
    Bits ^= 1ull << (Plan.Seed % 63);
    std::memcpy(&F, &Bits, sizeof(F));
    Out.F = F;
    Out.I = std::isfinite(F) && std::abs(F) < 9.0e18
                ? static_cast<long long>(F)
                : 0;
  } else {
    Out.I = V.I ^ (1ll << Bit);
    Out.F = static_cast<double>(Out.I);
  }
  return Out;
}
