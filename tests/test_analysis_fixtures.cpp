//===- tests/test_analysis_fixtures.cpp - Bad .kfp fixtures ---------------------===//
//
// Hand-written bad .kfp fixtures under tests/fixtures/analysis/, each
// exercising one analyzer diagnostic. The lenient parse (Verify=false)
// admits what the strict parser would reject wholesale, and the lint pass
// must report the exact code. `kfc --analyze --Werror` exit statuses for
// the same fixtures are asserted by ctest entries in tests/CMakeLists.txt.
//
//===----------------------------------------------------------------------===//

#include "analysis/ProgramLint.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>


using namespace kf;

namespace {

/// The source tree's analysis fixtures.
const std::string FixtureDir = KF_SOURCE_DIR "/tests/fixtures/analysis/";

/// Leniently parses a fixture and lints it; the program must be
/// structurally parseable.
DiagnosticEngine lintFixture(const std::string &File) {
  ParseResult Parsed = parsePipelineFile(FixtureDir + File, /*Verify=*/false);
  EXPECT_TRUE(Parsed.Prog != nullptr)
      << File << ": " << (Parsed.Errors.empty() ? "" : Parsed.Errors.front());
  DiagnosticEngine DE;
  if (Parsed.Prog)
    lintProgram(*Parsed.Prog, DE);
  return DE;
}

TEST(AnalysisFixtures, CyclicDagIsKFP01) {
  DiagnosticEngine DE = lintFixture("cyclic.kfp");
  EXPECT_TRUE(DE.hasCode("KF-P01")) << DE.renderText();
  EXPECT_TRUE(DE.failed());
}

TEST(AnalysisFixtures, UndefinedImageFailsTheParse) {
  // Unknown image names are a parse-level failure even in lenient mode;
  // kfc --analyze maps them to KF-P00.
  ParseResult Parsed =
      parsePipelineFile(FixtureDir + "undefined_image.kfp", /*Verify=*/false);
  EXPECT_EQ(Parsed.Prog, nullptr);
  ASSERT_FALSE(Parsed.Errors.empty());
  EXPECT_NE(Parsed.Errors.front().find("unknown image"), std::string::npos)
      << Parsed.Errors.front();
}

TEST(AnalysisFixtures, EvenMaskIsKFP04) {
  DiagnosticEngine DE = lintFixture("even_mask.kfp");
  EXPECT_TRUE(DE.hasCode("KF-P04")) << DE.renderText();
  EXPECT_TRUE(DE.failed());
}

TEST(AnalysisFixtures, UnusedOutputIsKFP09AndKFP10) {
  DiagnosticEngine DE = lintFixture("unused_output.kfp");
  EXPECT_TRUE(DE.hasCode("KF-P09")) << DE.renderText();
  EXPECT_TRUE(DE.hasCode("KF-P10")) << DE.renderText();
  EXPECT_EQ(DE.errorCount(), 0u); // Warnings: fails only under --Werror.
  EXPECT_FALSE(DE.failed());
  EXPECT_TRUE(DE.failed(/*Werror=*/true));
}

TEST(AnalysisFixtures, BorderConflictIsKFP11) {
  DiagnosticEngine DE = lintFixture("border_conflict.kfp");
  EXPECT_TRUE(DE.hasCode("KF-P11")) << DE.renderText();
  EXPECT_EQ(DE.errorCount(), 0u);
  EXPECT_TRUE(DE.failed(/*Werror=*/true));
}

TEST(AnalysisFixtures, ShapeMismatchIsKFP06) {
  DiagnosticEngine DE = lintFixture("shape_mismatch.kfp");
  EXPECT_TRUE(DE.hasCode("KF-P06")) << DE.renderText();
  EXPECT_TRUE(DE.failed());
}

} // namespace
