//===- tests/test_golden_kfp.cpp - .kfp serializer golden files -----------------===//
//
// Byte-for-byte golden tests for the .kfp serializer. The plan cache of
// the serving layer keys on content hashes of parsed programs, so silent
// format drift (whitespace, float printing, declaration order) would
// invalidate cache keys and golden comparisons everywhere. Each fixture
// under tests/golden/ is the canonical serialization of a small builder
// program; the serializer must reproduce it exactly, and parsing the
// fixture must round-trip to the identical bytes and structural hash.
//
// To regenerate after an *intentional* format change, write the new
// serializeProgram output over the fixture and review the diff.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "frontend/Serializer.h"
#include "pipelines/Pipelines.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>

using namespace kf;

namespace {

/// The source tree's golden directory.
const std::string GoldenDir = KF_SOURCE_DIR "/tests/golden/";

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

struct GoldenCase {
  const char *File;
  std::function<Program()> Builder;
};

class GoldenKfp : public ::testing::TestWithParam<int> {};

const GoldenCase &goldenCase(int Index) {
  static const GoldenCase Cases[] = {
      {"blur_chain_clamp.kfp",
       [] { return makeBlurChain(8, 6, BorderMode::Clamp); }},
      {"figure4.kfp", [] { return makeFigure4Program(); }},
      {"sobel_small.kfp", [] { return makeSobel(12, 10); }},
  };
  return Cases[Index];
}

TEST_P(GoldenKfp, SerializerMatchesFixtureByteForByte) {
  const GoldenCase &Case = goldenCase(GetParam());

  std::string Golden = readFile(GoldenDir + Case.File);
  ASSERT_FALSE(Golden.empty()) << Case.File;

  Program Built = Case.Builder();
  EXPECT_EQ(serializeProgram(Built), Golden)
      << Case.File
      << " drifted from the serializer output; if the format change is "
         "intentional, regenerate the fixture and review the diff";

  // The fixture must also round-trip: parse -> serialize reproduces the
  // exact bytes, and the parsed program is structurally identical to the
  // builder's (same plan-cache key).
  ParseResult Parsed = parsePipelineText(Golden);
  ASSERT_TRUE(Parsed.success())
      << Case.File << ": "
      << (Parsed.Errors.empty() ? "?" : Parsed.Errors.front());
  EXPECT_EQ(serializeProgram(*Parsed.Prog), Golden) << Case.File;
  EXPECT_EQ(Parsed.Prog->structuralHash(), Built.structuralHash())
      << Case.File;
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenKfp, ::testing::Range(0, 3),
                         [](const auto &Info) {
                           std::string Name = goldenCase(Info.param).File;
                           return Name.substr(0, Name.find('.'));
                         });

} // namespace
