//===- ExtremumSweepTest.cpp - Selection ops over one-signed inputs ------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// All 68 variants x {Min, Max, ArgMax} x {I32, F32} on Pascal, simulator
// and (wherever the variant lowers) native, against HostAccumulator. The
// inputs are one-signed, so a lane that folds a literal 0 instead of the
// op's identity changes the answer. Registered under `op-matrix`.
//
//===----------------------------------------------------------------------===//

#include "reduce/OpDef.h"
#include "tangram/Tangram.h"

#include <gtest/gtest.h>

#include <string>

using namespace tangram;
using namespace tangram::synth;

namespace {

struct SweepPoint {
  ReduceOp Op;
  ir::ScalarType Elem;
};

std::string pointName(const SweepPoint &P) {
  return std::string(getReduceOpSpelling(P.Op)) + "_" +
         reduce::getScalarTypeSpelling(P.Elem);
}

class ExtremumSweep : public ::testing::TestWithParam<SweepPoint> {};

TEST_P(ExtremumSweep, EveryVariantMatchesTheHostOnOneSignedInputs) {
  const SweepPoint &P = GetParam();
  TangramReduction::Options Opts;
  Opts.Op = P.Op;
  Opts.Elem = P.Elem;
  auto TR = TangramReduction::create(Opts);
  ASSERT_TRUE(TR.ok()) << TR.status().toString();
  engine::ExecutionEngine &E = (*TR)->engineFor(sim::getPascalP100());
  unsigned NativeRuns = 0;
  for (long long Sign : {1, -1}) {
    for (size_t N : {1, 7, 300, 5000}) {
      // Pairwise-distinct magnitudes 1..10007 (7919 is coprime with the
      // prime 10007), exact in f32.
      sim::DeviceScope Scratch(E.getDevice());
      sim::BufferId In = E.getDevice().alloc(P.Elem, N);
      reduce::HostAccumulator Ref(P.Op, P.Elem);
      for (size_t I = 0; I != N; ++I) {
        sim::Cell C;
        sim::setI(C, Sign * static_cast<long long>(1 + I * 7919 % 10007));
        E.getDevice().get(In).store(I, C);
        Ref.accumulate(C.F, C.I, static_cast<long long>(I));
      }

      for (const VariantDescriptor &V : (*TR)->getSearchSpace().All) {
        for (engine::Backend B :
             {engine::Backend::Simulator, engine::Backend::NativeCpu}) {
          if (B == engine::Backend::NativeCpu && !E.getVariant(V, {}, B))
            continue; // Outside the native backend's typed subset.
          auto Out = E.run(engine::ReduceRequest{
              .Desc = V, .In = In, .N = N, .BackendKind = B});
          std::string Where = pointName(P) + " / " + V.getName() +
                              " / N=" + std::to_string(N) +
                              (Sign > 0 ? " positive / " : " negative / ") +
                              engine::getBackendName(B);
          ASSERT_TRUE(Out.ok()) << Where << ": " << Out.status().toString();
          NativeRuns += B == engine::Backend::NativeCpu;
          if (ir::isFloatType(P.Elem)) {
            EXPECT_EQ(Out->FloatValue, Ref.valueF()) << Where;
          } else {
            EXPECT_EQ(Out->IntValue, Ref.valueI()) << Where;
          }
          if (isArgReduce(P.Op)) {
            EXPECT_EQ(Out->IndexValue, Ref.index()) << Where;
          }
        }
      }
    }
  }
  EXPECT_GT(NativeRuns, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExtremumSweep,
    ::testing::Values(SweepPoint{ReduceOp::Min, ir::ScalarType::I32},
                      SweepPoint{ReduceOp::Min, ir::ScalarType::F32},
                      SweepPoint{ReduceOp::Max, ir::ScalarType::I32},
                      SweepPoint{ReduceOp::Max, ir::ScalarType::F32},
                      SweepPoint{ReduceOp::ArgMax, ir::ScalarType::I32},
                      SweepPoint{ReduceOp::ArgMax, ir::ScalarType::F32}),
    [](const ::testing::TestParamInfo<SweepPoint> &Info) {
      return pointName(Info.param);
    });

} // namespace
