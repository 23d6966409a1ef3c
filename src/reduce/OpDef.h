//===- OpDef.h - Reduction operator descriptor table ------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for the reduction-operator axis: one
/// descriptor per ReduceOp (identity, combine, finalize, accumulator type,
/// index payload, algebraic flags) plus the per-architecture atomic
/// legality lattice (Native / CasLoop / Illegal).
///
/// Modeled on the reduction_init / reduction_combine table in PyTorch
/// Inductor: every consumer — sema, the AST transforms, the lowering
/// passes, the host-reference validator, the baselines, and the CLI —
/// consults this table instead of switching over ReduceOp locally.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_REDUCE_OPDEF_H
#define TANGRAM_REDUCE_OPDEF_H

#include "gpusim/Arch.h"
#include "gpusim/Cell.h"
#include "ir/KernelIR.h"
#include "support/ReduceOp.h"

#include <string>
#include <string_view>
#include <vector>

namespace tangram::reduce {

//===----------------------------------------------------------------------===//
// Atomic legality
//===----------------------------------------------------------------------===//

/// Whether an (op, element type) atomic exists on a given architecture.
enum class AtomicSupport : unsigned char {
  Native,  ///< A single hardware atomic instruction exists.
  CasLoop, ///< Must be expanded into a compare-and-swap retry loop.
  Illegal, ///< Cannot be realized at all; lowering must refuse.
};

const char *getAtomicSupportName(AtomicSupport S);

/// The legality lattice (Section II-A2 plus real-GPU constraints):
///  - 32-bit integer Add/Sub/Min/Max and F32 Add are native everywhere;
///  - F64 Add is native only on Pascal (sm_60), a CAS loop before that;
///  - float Min/Max and float Sub have no native atomic on any modeled
///    generation and always expand to CAS loops;
///  - 64-bit integer Min/Max (and Any's atomicOr realization) need the
///    extended-atomics unit, modeled native from Maxwell on, CAS on Kepler;
///  - ArgMin/ArgMax pack (value, index) into a 64-bit CAS word for 32-bit
///    elements (CAS loop everywhere); 64-bit elements need a paired-word
///    update, modeled as scoped-lock emulation that requires Maxwell+
///    forward-progress guarantees — Illegal on Kepler.
AtomicSupport atomicLegality(ReduceOp Op, ir::ScalarType Elem,
                             sim::ArchGeneration Gen);

//===----------------------------------------------------------------------===//
// Operator descriptors
//===----------------------------------------------------------------------===//

/// Identity accumulator value carried in both numeric domains plus the
/// index lane: a register value, ready for sim::Buffer::store and
/// sim::foldCell.
using IdentityCell = sim::Cell;

/// One row of the operator table.
struct OpDef {
  ReduceOp Op = ReduceOp::Add;
  const char *Name = "";     ///< API spelling: "Add", "ArgMax", ...
  const char *Spelling = ""; ///< CLI/provenance spelling: "add", "argmax".
  /// Accumulation is order-insensitive. Sub qualifies: accumulating
  /// `Acc - V` per element computes init - sum(V), so element order only
  /// permutes the summation (exact for ints, same rounding class as Add).
  bool Commutative = true;
  bool Associative = true;
  /// Accumulator carries a (value, index) pair (ArgMin/ArgMax).
  bool NeedsIndex = false;
  /// Host-side combine over the float/int domains (value lane only; use
  /// applyReduceOpPair for the index-aware fold).
  double (*CombineF)(double, double) = nullptr;
  long long (*CombineI)(long long, long long) = nullptr;
  /// Host-side finalize applied to the reduced value (identity for all ops
  /// except Any, which normalizes to 0/1).
  double (*FinalizeF)(double) = nullptr;
  long long (*FinalizeI)(long long) = nullptr;
};

/// The descriptor row for \p Op.
const OpDef &getOpDef(ReduceOp Op);

/// Identity for accumulator initialization, using the element type's true
/// extrema (float lowest/max for F32, int64 min/max for I64, ...). The
/// index lane is ReduceIndexSentinel for arg ops, 0 otherwise.
IdentityCell getIdentity(ReduceOp Op, ir::ScalarType Elem);

/// Identity constant materialized *inside* generated kernels for guarded
/// loads and coarsening-loop seeds. Matches getIdentity except for float
/// extrema, where the printable near-extremes (∓3.0e38 for F32, ∓1.0e308
/// for F64) are used so the emitted CUDA stays readable; any real input
/// inside that range reduces identically.
IdentityCell getKernelIdentity(ReduceOp Op, ir::ScalarType Elem);

/// The accumulator's value-lane element type for (op, element). All current
/// ops accumulate in the element's own domain (Any keeps 0/1 in the element
/// domain and normalizes at finalize).
ir::ScalarType getAccumulatorType(ReduceOp Op, ir::ScalarType Elem);

//===----------------------------------------------------------------------===//
// Scalar-type spellings (CLI / provenance / BENCH metadata)
//===----------------------------------------------------------------------===//

const char *getScalarTypeSpelling(ir::ScalarType Ty); ///< "f32", "i64", ...

/// Accepts the canonical spellings ("i32", "f64", ...) plus the CLI and
/// language aliases ("int", "float", "long", "double", "uint").
bool parseScalarType(std::string_view Spelling, ir::ScalarType &Out);

//===----------------------------------------------------------------------===//
// Host-reference accumulation
//===----------------------------------------------------------------------===//

/// Table-driven host-side accumulator covering every op including the
/// index-payload ones. Drives the validator, the fault-check oracle, the
/// CPU baseline, and the dynamic selector's host fallback.
class HostAccumulator {
public:
  HostAccumulator(ReduceOp Op, ir::ScalarType Elem)
      : Op(Op), Float(ir::isFloatType(Elem)), Id(getIdentity(Op, Elem)),
        F(Id.F), I(Id.I), Idx(Id.Idx) {}

  /// Folds one element (both numeric lanes) at position \p Index. For arg
  /// ops only the element type's own lane is authoritative — read the lane
  /// matching the element type.
  void accumulate(double FV, long long IV, long long Index) {
    if (isArgReduce(Op)) {
      if (Float)
        applyReduceOpPair(Op, F, Idx, FV, Index);
      else
        applyReduceOpPair(Op, I, Idx, IV, Index);
      return;
    }
    const OpDef &D = getOpDef(Op);
    F = D.CombineF(F, FV);
    I = D.CombineI(I, IV);
  }

  double valueF() const { return getOpDef(Op).FinalizeF(F); }
  long long valueI() const { return getOpDef(Op).FinalizeI(I); }
  long long index() const { return Idx; }

private:
  ReduceOp Op;
  bool Float;
  IdentityCell Id;
  double F;
  long long I;
  long long Idx;
};

//===----------------------------------------------------------------------===//
// IR-level legality verification (--verify-each)
//===----------------------------------------------------------------------===//

/// Appends an error to \p Errors for every atomic statement in \p K that is
/// Illegal for (\p Elem, \p Gen), or whose recorded AtomicImpl is weaker
/// than the table requires (Native where only CasLoop is legal). The
/// Native-vs-CasLoop check only applies once the atomic-expand pass has
/// annotated the kernel (\p Expanded).
void verifyAtomicLegality(const ir::Kernel &K, ir::ScalarType Elem,
                          sim::ArchGeneration Gen, bool Expanded,
                          std::vector<std::string> &Errors);

} // namespace tangram::reduce

#endif // TANGRAM_REDUCE_OPDEF_H
