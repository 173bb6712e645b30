//===- tests/test_kfp_sync.cpp - Shipped .kfp files stay in sync ----------------===//
//
// The repository ships the six paper applications as .kfp files under
// examples/pipelines/ so users can drive them through kfc. These tests
// guard against drift: every shipped file must parse, and its program
// must serialize identically to the bundled C++ builder's output (i.e.
// same structure, bodies, and constants). If a builder changes,
// regenerate the files by re-serializing (the test failure message says
// which one).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "frontend/Serializer.h"
#include "fusion/MinCutPartitioner.h"
#include "pipelines/Pipelines.h"

#include <gtest/gtest.h>


using namespace kf;

namespace {

/// The source tree's shipped pipelines.
const std::string PipelinesDir = KF_SOURCE_DIR "/examples/pipelines/";

class KfpSync : public ::testing::TestWithParam<std::string> {};

TEST_P(KfpSync, ShippedFileMatchesBuilder) {
  const PipelineSpec *Spec = findPipeline(GetParam());
  ASSERT_NE(Spec, nullptr);

  ParseResult Parsed = parsePipelineFile(PipelinesDir + GetParam() + ".kfp");
  ASSERT_TRUE(Parsed.success())
      << GetParam() << ": "
      << (Parsed.Errors.empty() ? "?" : Parsed.Errors.front());

  Program FromBuilder = Spec->build();
  EXPECT_EQ(serializeProgram(*Parsed.Prog), serializeProgram(FromBuilder))
      << GetParam()
      << ".kfp is out of sync with its builder; regenerate it by "
         "re-serializing the builder's program";

  // The shipped file must drive the fusion engine to the same partition.
  HardwareModel HW;
  MinCutFusionResult A = runMinCutFusion(*Parsed.Prog, HW);
  MinCutFusionResult B = runMinCutFusion(FromBuilder, HW);
  EXPECT_TRUE(A.Blocks == B.Blocks) << GetParam();
  EXPECT_DOUBLE_EQ(A.TotalBenefit, B.TotalBenefit) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(PaperApps, KfpSync,
                         ::testing::Values("harris", "sobel", "unsharp",
                                           "shitomasi", "enhance",
                                           "night"),
                         [](const auto &Info) { return Info.param; });

} // namespace
