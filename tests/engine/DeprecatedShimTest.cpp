//===- DeprecatedShimTest.cpp - Legacy positional overloads still work ------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The deprecated positional overloads are shims over the request API and
// must keep answering identically until they are removed. This file is the
// one place in the tree allowed to call them — everything else goes
// through ReduceRequest/DiagnoseRequest.
//
//===----------------------------------------------------------------------===//

#include "tangram/DynamicSelector.h"
#include "tangram/Tangram.h"

#include <gtest/gtest.h>

#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

using namespace tangram;
using namespace tangram::synth;

namespace {

TangramReduction &facade() {
  static std::unique_ptr<TangramReduction> TR = [] {
    auto T = TangramReduction::create();
    EXPECT_TRUE(T.ok()) << T.status().toString();
    return std::move(*T);
  }();
  return *TR;
}

TEST(DeprecatedShims, PositionalReduceMatchesRequestRun) {
  engine::ExecutionEngine &E = facade().engineFor(sim::getPascalP100());
  const VariantDescriptor &V = facade().getSearchSpace().Pruned.front();
  const size_t N = 2048;
  std::vector<float> Data(N, 0.5f);

  sim::DeviceScope Scratch(E.getDevice());
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
  E.getDevice().writeFloats(In, Data);
  auto Old = E.reduce(V, In, N);
  auto New = E.run(engine::ReduceRequest{.Desc = V, .In = In, .N = N});

  ASSERT_TRUE(Old.ok()) << Old.status().toString();
  ASSERT_TRUE(New.ok()) << New.status().toString();
  EXPECT_EQ(Old->FloatValue, New->FloatValue);
  EXPECT_EQ(Old->Seconds, New->Seconds);
}

TEST(DeprecatedShims, PositionalRunReductionMatchesRequestRun) {
  engine::ExecutionEngine &E = facade().engineFor(sim::getPascalP100());
  auto S = E.getVariant(facade().getSearchSpace().Pruned.front());
  ASSERT_TRUE(S.ok()) << S.status().toString();
  const size_t N = 1024;
  sim::DeviceScope Scratch(E.getDevice());
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
  E.getDevice().writeFloats(In, std::vector<float>(N, 2.0f));
  auto Old = E.runReduction(**S, In, N);
  auto New = E.run(engine::ReduceRequest{.In = In, .N = N}, **S);
  ASSERT_TRUE(Old.ok() && New.ok());
  EXPECT_EQ(Old->FloatValue, New->FloatValue);
}

TEST(DeprecatedShims, PositionalDiagnosticsMatchDiagnose) {
  const VariantDescriptor &V = facade().getSearchSpace().Pruned.front();
  const sim::ArchDesc &Arch = sim::getPascalP100();
  engine::ExecutionEngine &E = facade().engineFor(Arch);

  auto OldRace = facade().raceCheck(V, Arch, 2048);
  engine::DiagnoseRequest DR;
  DR.Kind = engine::DiagnoseKind::Race;
  DR.Desc = V;
  DR.N = 2048;
  auto NewRace = facade().diagnose(Arch, DR);
  ASSERT_TRUE(OldRace.ok() && NewRace.ok());
  EXPECT_EQ(OldRace->clean(), NewRace->Race.clean());
  EXPECT_EQ(OldRace->LaunchCount, NewRace->Race.LaunchCount);

  sim::FaultPlan Plan;
  Plan.Kind = sim::FaultKind::DropAtomic;
  Plan.Seed = 5;
  Plan.Period = 4;
  auto OldFault = facade().faultCheck(V, Arch, 2048, Plan);
  DR.Kind = engine::DiagnoseKind::Fault;
  DR.Plan = Plan;
  auto NewFault = facade().diagnose(Arch, DR);
  ASSERT_TRUE(OldFault.ok() && NewFault.ok());
  EXPECT_EQ(OldFault->Outcome, NewFault->Fault.Outcome);
  EXPECT_EQ(OldFault->GotFloat, NewFault->Fault.GotFloat);

  EXPECT_TRUE(E.validateVariant(V, 1024).ok());
}

TEST(DeprecatedShims, PositionalSelectorReduceStillAnswers) {
  DynamicSelector Selector(facade());
  engine::ExecutionEngine &E = facade().engineFor(sim::getMaxwellGTX980());
  const size_t N = 1024;
  sim::DeviceScope Scratch(E.getDevice());
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
  E.getDevice().writeFloats(In, std::vector<float>(N, 1.0f));
  auto Out = Selector.reduce(E, In, N);
  ASSERT_TRUE(Out.ok()) << Out.status().toString();
  EXPECT_EQ(Out->FloatValue, static_cast<double>(N));
}

} // namespace
