//===- Batch.cpp - Segmented batch execution of small reductions -----------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "serve/Batch.h"

#include "engine/ExecutionEngine.h"
#include "gpusim/PerfModel.h"
#include "ir/Bytecode.h"

#include <cassert>

using namespace tangram;
using namespace tangram::serve;

using support::Expected;
using support::Status;
using support::StatusCode;

void serve::writeJob(sim::Device &Dev, sim::BufferId Buf, size_t Offset,
                     const JobSpec &Spec) {
  sim::Buffer &B = Dev.get(Buf);
  sim::Cell C;
  if (ir::isFloatType(Spec.Elem)) {
    for (size_t I = 0; I != Spec.FloatData.size(); ++I) {
      sim::setF(C, Spec.FloatData[I], Spec.Elem);
      B.store(Offset + I, C);
    }
  } else {
    for (size_t I = 0; I != Spec.IntData.size(); ++I) {
      sim::setI(C, ir::wrapToType(Spec.Elem, Spec.IntData[I]));
      B.store(Offset + I, C);
    }
  }
}

Expected<std::vector<JobResult>>
serve::runBatch(engine::ExecutionEngine &E,
                const synth::VariantDescriptor &Desc, engine::Backend B,
                const std::vector<const JobSpec *> &Jobs) {
  if (Jobs.empty())
    return std::vector<JobResult>();
  if (E.isQuarantined(Desc))
    return Status(StatusCode::Unavailable,
                  "batch variant is quarantined on this shard");

  const ReduceOp Op = Jobs.front()->Op;
  const ir::ScalarType Elem = Jobs.front()->Elem;
  auto V = E.getVariant(Desc, {}, B);
  if (!V) {
    // Synthesis/lowering failure is structural: quarantine so the shard
    // stops retrying the descriptor and degrades to the failover chain.
    E.quarantineVariant(Desc, V.status());
    return V.status();
  }
  if (!(*V)->Desc.usesSecondKernel())
    return Status(StatusCode::InvalidArgument,
                  "batch execution needs a two-kernel (partials) variant");

  const size_t K = Jobs.size();
  const size_t Tile = (*V)->elementsPerBlock();
  for (const JobSpec *Job : Jobs)
    if (Job->size() > Tile)
      return Status(StatusCode::InvalidArgument,
                    "batched job exceeds one block tile");

  sim::Device &Dev = E.getDevice();
  sim::DeviceScope Scratch(Dev);

  // The arena: job j owns cells [j*Tile, (j+1)*Tile), padded with the
  // kernel identity's value — the constant guarded loads substitute when
  // the same job runs alone, so every schedule position folds identical
  // operands. Inputs carry no index payload (kernels pair values with
  // their positions), so the padding leaves the index lane 0.
  const reduce::IdentityCell KId = reduce::getKernelIdentity(Op, Elem);
  sim::BufferId Arena = Dev.alloc(Elem, K * Tile);
  sim::Cell Pad = KId;
  Pad.Idx = 0;
  for (size_t J = 0; J != K; ++J) {
    const size_t Base = J * Tile;
    writeJob(Dev, Arena, Base, *Jobs[J]);
    for (size_t I = Jobs[J]->size(); I != Tile; ++I)
      Dev.get(Arena).store(Base + I, Pad);
  }

  // Identity-seed cell 0 like the engine does for its partials buffer;
  // the kernel overwrites every cell it owns.
  const reduce::IdentityCell Id = reduce::getIdentity(Op, Elem);
  sim::BufferId Partials = Dev.alloc(Elem, K);
  Dev.get(Partials).store(0, Id);

  // One stage-1 launch over the whole arena: N = K*Tile with ObjectSize =
  // Tile makes the grid exactly K blocks, one per job.
  sim::LaunchConfig Config = engine::makeLaunchConfig(**V, K * Tile);
  assert(Config.GridDim == K && "arena tiling must map one block per job");
  std::vector<sim::ArgValue> Args = {
      sim::ArgValue::buffer(Partials), sim::ArgValue::buffer(Arena),
      sim::ArgValue::scalar(static_cast<long long>(K * Tile)),
      sim::ArgValue::scalar(static_cast<long long>(Tile))};

  double BatchSeconds = 0;
  if (B == engine::Backend::NativeCpu) {
    if (!(*V)->Native)
      return Status(StatusCode::InvalidArgument,
                    "batch variant was not resolved for the native backend");
    native::NativeLaunchResult NR =
        E.getNativeMachine().launch(*(*V)->Native, Config, Args);
    if (!NR.ok() || NR.DeadlineExceeded) {
      Status Why(NR.DeadlineExceeded ? StatusCode::DeadlineExceeded
                                     : StatusCode::LaunchError,
                 NR.Errors.empty() ? "native batch deadline exceeded"
                                   : NR.Errors.front());
      E.quarantineVariant(Desc, Why);
      return Why;
    }
    BatchSeconds = NR.ExecSeconds;
  } else {
    sim::LaunchResult LR =
        E.launch((*V)->Compiled, Config, Args, sim::ExecMode::Functional);
    if (!LR.ok()) {
      Status Why(LR.DeadlineExceeded ? StatusCode::DeadlineExceeded
                                     : StatusCode::LaunchError,
                 LR.Errors.empty() ? "batch launch failed" : LR.Errors.front());
      E.quarantineVariant(Desc, Why);
      return Why;
    }
    BatchSeconds = sim::modelKernelTime(E.getArch(), LR).TotalSeconds;
  }

  // Host epilogue: partial j IS job j's block result; replay the lone
  // run's second stage (a fold of one partial against identity padding)
  // and final accumulator fold with the machine's own sim::foldCell.
  std::vector<JobResult> Results(K);
  for (size_t J = 0; J != K; ++J) {
    sim::Cell P = Dev.get(Partials).load(J);
    if (isArgReduce(Op)) {
      // Arena indexes are job-local ones shifted by the tile base, and a
      // block only ever reads its own tile. A padding lane wins only where
      // the lone run's out-of-range guard lanes win (e.g. the empty job),
      // and those carry the identity's sentinel index, not a position.
      const long long Base = static_cast<long long>(J * Tile);
      const long long End = Base + static_cast<long long>(Jobs[J]->size());
      if (P.Idx >= Base && P.Idx < End)
        P.Idx -= Base;
      else if (P.Idx >= End && P.Idx < Base + static_cast<long long>(Tile))
        P.Idx = KId.Idx;
    }

    // The guard constant as a kernel register holds it (F32 rounded).
    sim::Cell Acc = KId;
    if (ir::isFloatType(Elem))
      sim::setF(Acc, KId.F, Elem);
    sim::foldCell(Op, Elem, Acc, P);
    sim::Cell Fin = Id;
    sim::foldCell(Op, Elem, Fin, Acc);

    JobResult &R = Results[J];
    R.FloatValue = Fin.F;
    R.IntValue = Fin.I;
    R.IndexValue = Fin.Idx;
    R.Seconds = BatchSeconds / static_cast<double>(K);
    R.Used = B;
    R.Coalesced = true;
    R.BatchJobs = static_cast<unsigned>(K);
  }
  return Results;
}
