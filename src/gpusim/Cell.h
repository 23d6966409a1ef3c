//===- Cell.h - Simulator register values -----------------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulator's register value (Cell), the typed writes every backend
/// shares (setI / setF), and the atomic fold (foldCell). Kept apart from
/// Device.h so the reduction-op table (reduce/OpDef.h), which names a Cell
/// as its identity value, does not pull device memory into every
/// translation unit.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_GPUSIM_CELL_H
#define TANGRAM_GPUSIM_CELL_H

#include "ir/Bytecode.h"

namespace tangram::sim {

/// One register / shared-memory value of the simulator. The integer field
/// holds I32/U32/I64 data (narrow types stored widened to 64 bits, wrapped
/// on operation); the floating field holds F32/F64 data (F32 rounded on
/// every write). Idx is the index payload lane for (value, index) pair
/// reductions; Mov/Shfl/Ld/St copy whole cells, so payloads flow through
/// every data path for free and only the pair-aware opcodes touch it.
struct Cell {
  long long I = 0;
  double F = 0.0;
  long long Idx = 0;
};

/// Writes an integer result, mirroring into the float view (guards
/// against int constants flowing into float arithmetic).
inline void setI(Cell &C, long long V) {
  C.I = V;
  C.F = static_cast<double>(V);
}

/// Writes a floating result (rounded to float32 unless \p Ty is F64, so
/// accumulation error matches 32-bit GPU math), mirroring into the
/// integer view with the saturated conversion.
inline void setF(Cell &C, double V, ir::ScalarType Ty = ir::ScalarType::F32) {
  C.F = Ty == ir::ScalarType::F64 ? V : static_cast<float>(V);
  C.I = ir::saturatingIntOf(C.F);
}

/// Folds \p V into \p Target under reduce op \p Op: the atomic-update and
/// host-epilogue semantics of every backend. The element type picks the
/// authoritative value lane, pair ops fold (value, index) with the
/// smaller-index tie-break, and the other numeric lane mirrors the result.
inline void foldCell(ReduceOp Op, ir::ScalarType Ty, Cell &Target,
                     const Cell &V) {
  if (isArgReduce(Op)) {
    if (ir::isFloatType(Ty)) {
      applyReduceOpPair(Op, Target.F, Target.Idx, V.F, V.Idx);
      Target.I = ir::saturatingIntOf(Target.F);
    } else {
      applyReduceOpPair(Op, Target.I, Target.Idx, V.I, V.Idx);
      Target.F = static_cast<double>(Target.I);
    }
    return;
  }
  if (ir::isFloatType(Ty))
    setF(Target, applyReduceOp<double>(Op, Target.F, V.F), Ty);
  else
    setI(Target,
         ir::wrapToType(Ty, applyReduceOp<long long>(Op, Target.I, V.I)));
}

} // namespace tangram::sim

#endif // TANGRAM_GPUSIM_CELL_H
