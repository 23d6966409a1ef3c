//===- FaultSimTest.cpp - Fault-injection matrix + resilience tests ---------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The FaultSim acceptance suite: every fault kind, injected into
// representative variants on every architecture, must end in a structured
// outcome — detected, trapped by the watchdog, quarantined by the tuner,
// or survived — never a hang, crash, or silently wrong answer. Clean runs
// must stay bit-identical with the fault machinery present but inactive,
// and the DynamicSelector must keep answering through its fallback chain
// when every GPU candidate dies.
//
//===----------------------------------------------------------------------===//

#include "synth/VariantEnumerator.h"
#include "tangram/DynamicSelector.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace tangram;
using namespace tangram::synth;

using support::Status;
using support::StatusCode;

namespace {

TangramReduction &facade() {
  static std::unique_ptr<TangramReduction> TR = [] {
    auto T = TangramReduction::create();
    EXPECT_TRUE(T.ok()) << T.status().toString();
    return std::move(*T);
  }();
  return *TR;
}

/// Runs one fault campaign through the request-shaped diagnose() entry
/// point and unwraps the fault arm.
support::Expected<engine::FaultReport>
faultDiagnose(const VariantDescriptor &V, const sim::ArchDesc &Arch,
              size_t N, const sim::FaultPlan &Plan) {
  engine::DiagnoseRequest DR;
  DR.Kind = engine::DiagnoseKind::Fault;
  DR.Desc = V;
  DR.N = N;
  DR.Plan = Plan;
  auto Report = facade().diagnose(Arch, DR);
  if (!Report)
    return Report.status();
  return Report->Fault;
}

/// Representative variants: one from each corner of the search space the
/// paper depicts (serial-combine, cooperative shared-memory, and the
/// shuffle + shared-atomic hybrid).
std::vector<const VariantDescriptor *> representatives() {
  std::vector<const VariantDescriptor *> Out;
  for (const char *Label : {"a", "m", "p"}) {
    const VariantDescriptor *V =
        findByFigure6Label(facade().getSearchSpace(), Label);
    EXPECT_NE(V, nullptr) << Label;
    if (V)
      Out.push_back(V);
  }
  return Out;
}

// The tentpole acceptance matrix: fault kind x architecture x variant.
// Every cell must terminate within the watchdog budget and classify.
TEST(FaultMatrix, EveryCellTerminatesWithAStructuredOutcome) {
  const size_t N = 2048;
  unsigned ArchCount = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(ArchCount);
  unsigned KindCount = 0;
  const sim::FaultKind *Kinds = sim::getAllFaultKinds(KindCount);
  ASSERT_GE(KindCount, 6u);

  for (unsigned A = 0; A != ArchCount; ++A)
    for (const VariantDescriptor *V : representatives())
      for (unsigned K = 0; K != KindCount; ++K) {
        sim::FaultPlan Plan;
        Plan.Kind = Kinds[K];
        Plan.Seed = 3;
        Plan.Period = 4;
        auto Report = faultDiagnose(*V, Archs[A], N, Plan);
        ASSERT_TRUE(Report.ok())
            << V->getName() << " on " << Archs[A].Name << ": "
            << Report.status().toString();

        std::string Cell = V->getName() + " / " + Archs[A].Name + " / " +
                           sim::getFaultKindName(Plan.Kind);
        switch (Report->Outcome) {
        case engine::FaultOutcome::Clean:
          // No event of this kind fired; nothing may have changed.
          EXPECT_EQ(Report->FaultsInjected, 0u) << Cell;
          EXPECT_EQ(Report->GotFloat, Report->RefFloat) << Cell;
          break;
        case engine::FaultOutcome::Survived:
          EXPECT_GT(Report->FaultsInjected, 0u) << Cell;
          EXPECT_EQ(Report->GotFloat, Report->RefFloat) << Cell;
          EXPECT_EQ(Report->GotInt, Report->RefInt) << Cell;
          break;
        case engine::FaultOutcome::Detected:
          // The checker caught a corrupted reduction — by definition the
          // values diverge.
          EXPECT_TRUE(Report->GotFloat != Report->RefFloat ||
                      Report->GotInt != Report->RefInt)
              << Cell;
          break;
        case engine::FaultOutcome::Trapped:
          EXPECT_NE(Report->Trap.Code, StatusCode::Ok) << Cell;
          EXPECT_FALSE(Report->Trap.Message.empty()) << Cell;
          break;
        }
      }
}

TEST(FaultMatrix, StuckWarpTrapsViaTheWatchdogOnEveryArch) {
  // A livelocked warp can never be "survived": the cycle-budget watchdog
  // must convert it into a DeadlineExceeded trap on every architecture —
  // including Kepler, whose software-lock shared atomics are the
  // livelock-prone case the paper calls out.
  const VariantDescriptor *V =
      findByFigure6Label(facade().getSearchSpace(), "m");
  ASSERT_NE(V, nullptr);
  unsigned ArchCount = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(ArchCount);
  for (unsigned A = 0; A != ArchCount; ++A) {
    sim::FaultPlan Plan;
    Plan.Kind = sim::FaultKind::StuckWarp;
    Plan.Period = 1;
    auto Report = faultDiagnose(*V, Archs[A], 4096, Plan);
    ASSERT_TRUE(Report.ok()) << Report.status().toString();
    EXPECT_EQ(Report->Outcome, engine::FaultOutcome::Trapped)
        << Archs[A].Name;
    EXPECT_EQ(Report->Trap.Code, StatusCode::DeadlineExceeded)
        << Archs[A].Name << ": " << Report->Trap.toString();
  }
}

TEST(FaultMatrix, CleanRunsAreBitIdenticalWithInjectorPresent) {
  // The fault hooks sit on the hot store/atomic/barrier paths; with no
  // active plan they must not perturb results in any way.
  engine::ExecutionEngine &E = facade().engineFor(sim::getPascalP100());
  const VariantDescriptor *V =
      findByFigure6Label(facade().getSearchSpace(), "p");
  ASSERT_NE(V, nullptr);
  const size_t N = 4096 + 17;
  std::vector<float> Data(N);
  for (size_t I = 0; I != N; ++I)
    Data[I] = 0.25f * ((I % 9) + 1);

  auto RunOnce = [&]() {
    sim::DeviceScope Scratch(E.getDevice());
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
    E.getDevice().writeFloats(In, Data);
    auto Out =
        E.run(engine::ReduceRequest{.Desc = *V, .In = In, .N = N});
    EXPECT_TRUE(Out.ok()) << Out.status().toString();
    return Out.ok() ? std::make_pair(Out->FloatValue,
                                     Out->Launch.Stats.WarpCycles)
                    : std::make_pair(0.0, 0.0);
  };

  auto Baseline = RunOnce();
  // An explicit-but-inactive plan (Kind == None) must change nothing.
  sim::FaultPlan Inactive;
  ASSERT_FALSE(Inactive.active());
  E.setFaultPlan(Inactive);
  auto WithInactivePlan = RunOnce();
  EXPECT_EQ(Baseline.first, WithInactivePlan.first);
  EXPECT_EQ(Baseline.second, WithInactivePlan.second);
  auto Again = RunOnce();
  EXPECT_EQ(Baseline.first, Again.first);
  EXPECT_EQ(Baseline.second, Again.second);
}

TEST(Quarantine, StuckWarpLandsTheVariantInQuarantine) {
  // A dedicated facade so its engines (and quarantine sets) are isolated.
  TangramReduction::Options Opts;
  Opts.Engine.Fault.Kind = sim::FaultKind::StuckWarp;
  Opts.Engine.Fault.Period = 1;
  auto TR = TangramReduction::create(Opts);
  ASSERT_TRUE(TR.ok()) << TR.status().toString();
  engine::ExecutionEngine &E = (*TR)->engineFor(sim::getMaxwellGTX980());
  // A cooperative variant: its barriers guarantee stuck-warp events fire.
  const VariantDescriptor *Coop =
      findByFigure6Label((*TR)->getSearchSpace(), "m");
  ASSERT_NE(Coop, nullptr);
  const VariantDescriptor &V = *Coop;

  // First attempt: deadline, escalated-budget retry, still deadline,
  // quarantined.
  auto T1 = E.timeVariantChecked(V, 4096);
  ASSERT_FALSE(T1.ok());
  EXPECT_EQ(T1.status().Code, StatusCode::DeadlineExceeded)
      << T1.status().toString();
  EXPECT_TRUE(E.isQuarantined(V));

  // Second attempt short-circuits on the quarantine record.
  auto T2 = E.timeVariantChecked(V, 4096);
  ASSERT_FALSE(T2.ok());
  EXPECT_EQ(T2.status().Code, StatusCode::DeadlineExceeded);

  auto Records = E.getQuarantineRecords();
  ASSERT_FALSE(Records.empty());
  EXPECT_FALSE(Records.front().Why.Message.empty());

  // And timeVariant() prices the quarantined configuration out.
  EXPECT_TRUE(std::isinf(E.timeVariant(V, 4096)));

  E.clearQuarantine();
  EXPECT_FALSE(E.isQuarantined(V));
  EXPECT_TRUE(E.getQuarantineRecords().empty());
}

TEST(Quarantine, FindBestUnderDroppedAtomicsStaysStructured) {
  // Tuning an entire portfolio while atomics are being dropped: the sweep
  // must terminate and either produce a *validated* winner or a Status
  // naming the first quarantined configuration — never a silently wrong
  // champion.
  TangramReduction::Options Opts;
  Opts.Engine.Fault.Kind = sim::FaultKind::DropAtomic;
  Opts.Engine.Fault.Seed = 5;
  Opts.Engine.Fault.Period = 4;
  // A small grid keeps the sweep quick; validation still covers winners.
  Opts.BlockSizes = {128, 256};
  Opts.CoarsenFactors = {1, 4};
  auto TR = TangramReduction::create(Opts);
  ASSERT_TRUE(TR.ok()) << TR.status().toString();

  auto Report = (*TR)->findBestReport(sim::getPascalP100(), 2048);
  if (Report.ok()) {
    EXPECT_TRUE(Report->hasWinner());
    // The winner survived validation under injected faults: its functional
    // result matched the host reference despite the plan.
    engine::ExecutionEngine &E = (*TR)->engineFor(sim::getPascalP100());
    EXPECT_FALSE(E.isQuarantined(Report->Best));
    for (const engine::QuarantineRecord &Q : Report->Quarantined)
      EXPECT_FALSE(Q.Why.Message.empty());
  } else {
    // Nothing survived: the status must say why.
    EXPECT_FALSE(Report.status().Message.empty());
  }
}

TEST(Selector, StillAnswersNativelyWhenEveryCandidateIsQuarantined) {
  TangramReduction::Options Opts;
  auto TR = TangramReduction::create(Opts);
  ASSERT_TRUE(TR.ok()) << TR.status().toString();
  engine::ExecutionEngine &E = (*TR)->engineFor(sim::getKeplerK40c());

  // Poison the entire default portfolio (the paper's best eight).
  for (const VariantDescriptor &V : (*TR)->getSearchSpace().Pruned)
    if (V.isPaperBest())
      E.quarantineVariant(
          V, Status(StatusCode::DeadlineExceeded, "poisoned for test"));

  DynamicSelector Selector(**TR);
  const size_t N = 3000;
  std::vector<float> Data(N);
  double Expected = 0;
  for (size_t I = 0; I != N; ++I) {
    Data[I] = static_cast<float>(I % 17);
    Expected += Data[I];
  }
  sim::DeviceScope Scratch(E.getDevice());
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
  E.getDevice().writeFloats(In, Data);
  auto Out =
        Selector.reduce(E, engine::ReduceRequest{.In = In, .N = N});

  ASSERT_TRUE(Out.ok()) << Out.status().toString();
  EXPECT_EQ(Out->FloatValue, Expected); // exact: i%17 sums are integral
  EXPECT_GT(Out->Seconds, 0.0);
  // Quarantine is a simulator-path verdict: the portfolio retries on the
  // native CPU backend and answers there, one tier above the host-loop
  // last resort.
  EXPECT_EQ(Selector.getNativeFallbackRuns(), 1u);
  EXPECT_EQ(Selector.getFallbackRuns(), 0u);
  EXPECT_EQ(Selector.getDeadCandidates(), 0u); // quarantined, not trapped
}

TEST(Selector, KeepsAnsweringUnderInjectedStuckWarps) {
  // The end-to-end resilience story: with a livelock fault injected into
  // every launch, the caller of the selector still gets correct answers on
  // every call — candidates that trap are marked dead and the chain ends
  // at the host baseline if necessary.
  TangramReduction::Options Opts;
  Opts.Engine.Fault.Kind = sim::FaultKind::StuckWarp;
  Opts.Engine.Fault.Period = 1;
  auto TR = TangramReduction::create(Opts);
  ASSERT_TRUE(TR.ok()) << TR.status().toString();
  engine::ExecutionEngine &E = (*TR)->engineFor(sim::getPascalP100());

  DynamicSelector Selector(**TR);
  const size_t N = 2048;
  std::vector<float> Data(N);
  double Expected = 0;
  for (size_t I = 0; I != N; ++I) {
    Data[I] = static_cast<float>((I % 5) + 1);
    Expected += Data[I];
  }

  for (unsigned Call = 0; Call != 3; ++Call) {
    sim::DeviceScope Scratch(E.getDevice());
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
    E.getDevice().writeFloats(In, Data);
    auto Out =
        Selector.reduce(E, engine::ReduceRequest{.In = In, .N = N});
    ASSERT_TRUE(Out.ok()) << "call " << Call << ": "
                          << Out.status().toString();
    EXPECT_EQ(Out->FloatValue, Expected) << "call " << Call;
  }
  // Under Period=1 every kernel with a loop or barrier traps; at least one
  // candidate must have died (the portfolio is not barrier-free).
  EXPECT_GT(Selector.getDeadCandidates(), 0u);
}

TEST(Facade, FaultCheckMirrorsRaceCheckErrorHandling) {
  // An engine-misuse style failure (empty problem) surfaces as a Status,
  // not a crash; a valid call returns a classified report.
  const VariantDescriptor *V =
      findByFigure6Label(facade().getSearchSpace(), "a");
  ASSERT_NE(V, nullptr);
  sim::FaultPlan Plan;
  Plan.Kind = sim::FaultKind::BitFlipGlobal;
  auto Report = faultDiagnose(*V, sim::getMaxwellGTX980(), 2048, Plan);
  ASSERT_TRUE(Report.ok()) << Report.status().toString();
  EXPECT_EQ(Report->Kind, sim::FaultKind::BitFlipGlobal);
}

} // namespace
