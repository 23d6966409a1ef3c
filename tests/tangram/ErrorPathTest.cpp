//===- ErrorPathTest.cpp - Structured failure-status tests --------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The Expected<T> API contract: every public-facade failure arrives as a
// Status with a machine-checkable code and a human-readable message, not
// as a bool/out-param pair or a crash.
//
//===----------------------------------------------------------------------===//

#include "tangram/Tangram.h"

#include <gtest/gtest.h>

using namespace tangram;
using namespace tangram::synth;
using support::StatusCode;

namespace {

TEST(ErrorPath, MalformedSourceIsParseError) {
  TangramReduction::Options Opts;
  Opts.SourceOverride = "codelet __tangram__ {{{";
  auto TR = TangramReduction::create(Opts);
  ASSERT_FALSE(TR.ok());
  EXPECT_EQ(TR.code(), StatusCode::ParseError);
  EXPECT_FALSE(TR.status().Message.empty());
  EXPECT_NE(TR.status().toString().find("parse-error"), std::string::npos)
      << TR.status().toString();
}

TEST(ErrorPath, MissingCanonicalCodeletIsUnknownVariant) {
  // A well-formed unit that lacks the canonical spectrum codelets: create
  // succeeds (the language layer is satisfied), but synthesizing any
  // cooperative variant must fail with UnknownVariant, naming the tag.
  TangramReduction::Options Opts;
  Opts.SourceOverride =
      "__codelet __tag(serial)\n"
      "float sum(const Array<1,float> in) {\n"
      "  unsigned len = in.Size();\n"
      "  float accum = 0.0;\n"
      "  for (unsigned i = 0; i < len; i += in.Stride()) {\n"
      "    accum += in[i];\n"
      "  }\n"
      "  return accum;\n"
      "}\n";
  auto TR = TangramReduction::create(Opts);
  ASSERT_TRUE(TR.ok()) << TR.status().toString();
  VariantDescriptor V; // Defaults use a cooperative tree codelet.
  auto S = (*TR)->synthesize(V);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::UnknownVariant);
  EXPECT_NE(S.status().Message.find("canonical codelet"), std::string::npos)
      << S.status().Message;
}

TEST(ErrorPath, OversizedBlockIsLaunchError) {
  auto TR = TangramReduction::create();
  ASSERT_TRUE(TR.ok()) << TR.status().toString();
  VariantDescriptor V = (*TR)->getSearchSpace().Pruned.front();
  V.BlockSize = 2048; // Every modeled arch caps at 1024.
  engine::ExecutionEngine &E = (*TR)->engineFor(sim::getPascalP100());
  sim::DeviceScope Scratch(E.getDevice());
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, 4096);
  auto Out = E.run(engine::ReduceRequest{.Desc = V, .In = In, .N = 4096});
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.code(), StatusCode::LaunchError);
  EXPECT_NE(Out.status().Message.find("exceeds the architecture limit"),
            std::string::npos)
      << Out.status().Message;
}

TEST(ErrorPath, RaceCheckPropagatesLaunchError) {
  auto TR = TangramReduction::create();
  ASSERT_TRUE(TR.ok()) << TR.status().toString();
  VariantDescriptor V = (*TR)->getSearchSpace().Pruned.front();
  V.BlockSize = 2048;
  engine::DiagnoseRequest DR;
  DR.Kind = engine::DiagnoseKind::Race;
  DR.Desc = V;
  DR.N = 4096;
  auto Report = (*TR)->diagnose(sim::getKeplerK40c(), DR);
  ASSERT_FALSE(Report.ok());
  EXPECT_EQ(Report.code(), StatusCode::LaunchError);
}

TEST(ErrorPath, EngineWithoutCompilerIsInvalidArgument) {
  engine::ExecutionEngine E(sim::getMaxwellGTX980());
  VariantDescriptor V;
  auto S = E.getVariant(V);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), StatusCode::InvalidArgument);
}

TEST(ErrorPath, StatusRendersCodeAndMessage) {
  support::Status S(StatusCode::SynthesisError, "boom");
  EXPECT_EQ(S.toString(), "synthesis-error: boom");
  support::Status Ok = support::Status::success();
  EXPECT_TRUE(Ok.ok());
}

} // namespace
