//===- tests/test_image.cpp - Image substrate tests -----------------------------===//

#include "image/Border.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "image/ImageIO.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

using namespace kf;

namespace {

TEST(Image, ConstructionAndAccess) {
  Image Img(4, 3, 2, 0.5f);
  EXPECT_EQ(Img.width(), 4);
  EXPECT_EQ(Img.height(), 3);
  EXPECT_EQ(Img.channels(), 2);
  EXPECT_EQ(Img.iterationSpace(), 12);
  EXPECT_EQ(Img.sizeInBytes(), 12 * 2 * 4);
  EXPECT_FLOAT_EQ(Img.at(3, 2, 1), 0.5f);
  Img.at(1, 1, 0) = 2.0f;
  EXPECT_FLOAT_EQ(Img.at(1, 1, 0), 2.0f);
}

TEST(Image, SameShape) {
  Image A(4, 4, 1), B(4, 4, 1), C(4, 4, 3);
  EXPECT_TRUE(A.sameShape(B));
  EXPECT_FALSE(A.sameShape(C));
}

TEST(Border, ClampExchange) {
  EXPECT_EQ(exchangeIndex(-1, 5, BorderMode::Clamp), 0);
  EXPECT_EQ(exchangeIndex(-10, 5, BorderMode::Clamp), 0);
  EXPECT_EQ(exchangeIndex(5, 5, BorderMode::Clamp), 4);
  EXPECT_EQ(exchangeIndex(2, 5, BorderMode::Clamp), 2);
}

TEST(Border, MirrorExchange) {
  // Edge pixel included: -1 -> 0, -2 -> 1, size -> size-1.
  EXPECT_EQ(exchangeIndex(-1, 5, BorderMode::Mirror), 0);
  EXPECT_EQ(exchangeIndex(-2, 5, BorderMode::Mirror), 1);
  EXPECT_EQ(exchangeIndex(5, 5, BorderMode::Mirror), 4);
  EXPECT_EQ(exchangeIndex(6, 5, BorderMode::Mirror), 3);
  // Far out-of-range still lands inside.
  for (int I = -20; I != 20; ++I) {
    int E = exchangeIndex(I, 5, BorderMode::Mirror);
    EXPECT_GE(E, 0);
    EXPECT_LT(E, 5);
  }
}

TEST(Border, RepeatExchange) {
  EXPECT_EQ(exchangeIndex(-1, 5, BorderMode::Repeat), 4);
  EXPECT_EQ(exchangeIndex(5, 5, BorderMode::Repeat), 0);
  EXPECT_EQ(exchangeIndex(12, 5, BorderMode::Repeat), 2);
  EXPECT_EQ(exchangeIndex(-6, 5, BorderMode::Repeat), 4);
}

TEST(Border, ConstantSignalsSentinel) {
  EXPECT_EQ(exchangeIndex(-1, 5, BorderMode::Constant), -1);
  EXPECT_EQ(exchangeIndex(2, 5, BorderMode::Constant), 2);
}

TEST(Border, SampleWithBorder) {
  Image Img(3, 3, 1);
  Img.at(0, 0) = 7.0f;
  Img.at(2, 2) = 9.0f;
  EXPECT_FLOAT_EQ(sampleWithBorder(Img, -2, -2, 0, BorderMode::Clamp), 7.0f);
  EXPECT_FLOAT_EQ(sampleWithBorder(Img, 3, 3, 0, BorderMode::Clamp), 9.0f);
  EXPECT_FLOAT_EQ(
      sampleWithBorder(Img, -1, 0, 0, BorderMode::Constant, 5.5f), 5.5f);
  EXPECT_FLOAT_EQ(sampleWithBorder(Img, 1, 1, 0, BorderMode::Constant, 5.5f),
                  0.0f);
}

TEST(Border, ModeNames) {
  EXPECT_STREQ(borderModeName(BorderMode::Clamp), "clamp");
  EXPECT_STREQ(borderModeName(BorderMode::Mirror), "mirror");
  EXPECT_STREQ(borderModeName(BorderMode::Repeat), "repeat");
  EXPECT_STREQ(borderModeName(BorderMode::Constant), "constant");
}

TEST(Generators, RandomImageDeterministicAndInRange) {
  Rng A(42), B(42);
  Image ImgA = makeRandomImage(8, 8, 1, A, 0.25f, 0.75f);
  Image ImgB = makeRandomImage(8, 8, 1, B, 0.25f, 0.75f);
  EXPECT_DOUBLE_EQ(maxAbsDifference(ImgA, ImgB), 0.0);
  for (float V : ImgA.data()) {
    EXPECT_GE(V, 0.25f);
    EXPECT_LT(V, 0.75f);
  }
}

TEST(Generators, Figure4MatrixMatchesPaper) {
  Image M = makeFigure4Matrix();
  EXPECT_EQ(M.width(), 5);
  EXPECT_FLOAT_EQ(M.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(M.at(2, 1), 9.0f);
  EXPECT_FLOAT_EQ(M.at(4, 4), 2.0f);
  EXPECT_FLOAT_EQ(M.at(2, 2), 3.0f);
}

TEST(Generators, CheckerboardAlternates) {
  Image M = makeCheckerboardImage(8, 8, 2, 0.0f, 1.0f);
  EXPECT_FLOAT_EQ(M.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(M.at(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(M.at(2, 2), 0.0f);
}

TEST(Generators, GradientMonotone) {
  Image M = makeGradientImage(8, 8);
  EXPECT_LT(M.at(0, 0), M.at(7, 0));
  EXPECT_LT(M.at(7, 0), M.at(7, 7));
}

TEST(Compare, CountAndMax) {
  Image A(4, 4, 1, 1.0f), B(4, 4, 1, 1.0f);
  B.at(2, 2) = 1.5f;
  B.at(0, 0) = 1.0001f;
  EXPECT_DOUBLE_EQ(maxAbsDifference(A, B), 0.5);
  EXPECT_EQ(countDifferingSamples(A, B, 0.01), 1);
  EXPECT_FALSE(imagesAlmostEqual(A, B, 0.1));
  EXPECT_TRUE(imagesAlmostEqual(A, B, 0.6));
}

/// A NaN against a number is a difference (+inf) in every tolerance
/// comparison; two NaNs of any payload, and two equal infinities, are not.
TEST(Compare, NaNAgainstANumberDiffers) {
  const float NaN = std::numeric_limits<float>::quiet_NaN();
  const float Inf = std::numeric_limits<float>::infinity();
  Image A(2, 1, 1), B(2, 1, 1);
  A.at(0, 0) = NaN;
  A.at(1, 0) = 0.25f;
  B.at(0, 0) = 0.5f;
  B.at(1, 0) = 0.25f;
  EXPECT_EQ(maxAbsDifference(A, B), Inf);
  EXPECT_EQ(maxAbsDifference(B, A), Inf);
  EXPECT_EQ(countDifferingSamples(A, B, 1.0), 1);
  EXPECT_EQ(countBitDifferences(A, B), 1);
  EXPECT_FALSE(imagesAlmostEqual(A, B, 1.0));

  B.at(0, 0) = -NaN; // Another NaN: equal here, though not bit-equal.
  EXPECT_EQ(maxAbsDifference(A, B), 0.0);
  EXPECT_EQ(countDifferingSamples(A, B, 0.0), 0);
  EXPECT_EQ(countBitDifferences(A, B), 1);

  A.at(1, 0) = B.at(1, 0) = Inf;
  EXPECT_EQ(maxAbsDifference(A, B), 0.0);

  Image C(3, 3, 1, 0.0f), D(3, 3, 1, 0.0f);
  C.at(0, 0) = NaN; // Halo.
  D.at(1, 1) = NaN; // Interior.
  EXPECT_EQ(maxAbsDifferenceInHalo(C, D, 1), Inf);
  EXPECT_EQ(maxAbsDifferenceInInterior(C, D, 1), Inf);
}

TEST(Compare, HaloVsInterior) {
  Image A(6, 6, 1, 0.0f), B(6, 6, 1, 0.0f);
  B.at(0, 0) = 1.0f; // Halo difference.
  B.at(3, 3) = 2.0f; // Interior difference.
  EXPECT_DOUBLE_EQ(maxAbsDifferenceInHalo(A, B, 1), 1.0);
  EXPECT_DOUBLE_EQ(maxAbsDifferenceInInterior(A, B, 1), 2.0);
}

TEST(ImageIO, PgmRoundTrip) {
  Image Src(7, 5, 1);
  for (int Y = 0; Y != 5; ++Y)
    for (int X = 0; X != 7; ++X)
      Src.at(X, Y) = static_cast<float>((X + Y) % 5) / 4.0f;
  std::string Path = ::testing::TempDir() + "kf_roundtrip.pgm";
  ASSERT_TRUE(writePnm(Src, Path));
  std::optional<Image> Back = readPnm(Path);
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(Back->sameShape(Src));
  // 8-bit quantization: within 1/255 plus rounding.
  EXPECT_LE(maxAbsDifference(Src, *Back), 0.5 / 255.0 + 1e-6);
  std::remove(Path.c_str());
}

TEST(ImageIO, PpmRoundTripRgb) {
  Image Src(4, 4, 3);
  for (int Y = 0; Y != 4; ++Y)
    for (int X = 0; X != 4; ++X)
      for (int Ch = 0; Ch != 3; ++Ch)
        Src.at(X, Y, Ch) = static_cast<float>(Ch) / 2.0f;
  std::string Path = ::testing::TempDir() + "kf_roundtrip.ppm";
  ASSERT_TRUE(writePnm(Src, Path));
  std::optional<Image> Back = readPnm(Path);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->channels(), 3);
  EXPECT_LE(maxAbsDifference(Src, *Back), 0.5 / 255.0 + 1e-6);
  std::remove(Path.c_str());
}

TEST(ImageIO, RejectsMissingFile) {
  EXPECT_FALSE(readPnm("/nonexistent/path.pgm").has_value());
}

TEST(ImageIO, RejectsUnsupportedChannelCount) {
  Image TwoChannel(4, 4, 2);
  EXPECT_FALSE(writePnm(TwoChannel, ::testing::TempDir() + "kf_bad.pnm"));
}

/// Writes raw bytes to a temp file and returns its path.
static std::string writeRawPnm(const std::string &Name,
                               const std::string &Bytes) {
  std::string Path = ::testing::TempDir() + Name;
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  EXPECT_NE(File, nullptr);
  std::fwrite(Bytes.data(), 1, Bytes.size(), File);
  std::fclose(File);
  return Path;
}

TEST(ImageIO, ScalesByDeclaredMaxval) {
  // A maxval-15 PGM: sample 15 must read back as 1.0, sample 3 as 3/15.
  std::string Path = writeRawPnm(
      "kf_maxval15.pgm", std::string("P5\n2 1\n15\n") + '\x0f' + '\x03');
  std::optional<Image> Img = readPnm(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(Img.has_value());
  EXPECT_EQ(Img->width(), 2);
  EXPECT_EQ(Img->height(), 1);
  EXPECT_FLOAT_EQ(Img->at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(Img->at(1, 0), 3.0f / 15.0f);
}

TEST(ImageIO, MaxvalOneIsBinary) {
  std::string Path = writeRawPnm(
      "kf_maxval1.pgm", std::string("P5\n2 1\n1\n") + '\x01' + '\x00');
  std::optional<Image> Img = readPnm(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(Img.has_value());
  EXPECT_FLOAT_EQ(Img->at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(Img->at(1, 0), 0.0f);
}

TEST(ImageIO, RejectsMalformedHeaders) {
  const char Pixel = '\x00';
  struct Case {
    const char *Name;
    std::string Header;
  } Cases[] = {
      {"kf_badw.pgm", "P5\n4x 1\n255\n"},       // trailing garbage in width
      {"kf_negw.pgm", "P5\n-2 1\n255\n"},       // negative width
      {"kf_zerow.pgm", "P5\n0 1\n255\n"},       // zero width
      {"kf_hugew.pgm",                          // width overflows long
       "P5\n99999999999999999999 1\n255\n"},
      {"kf_max0.pgm", "P5\n1 1\n0\n"},          // maxval 0
      {"kf_max256.pgm", "P5\n1 1\n256\n"},      // 16-bit maxval unsupported
      {"kf_maxg.pgm", "P5\n1 1\n255x\n"},       // trailing garbage in maxval
      {"kf_negmax.pgm", "P5\n1 1\n-255\n"},     // negative maxval
  };
  for (const Case &C : Cases) {
    std::string Path = writeRawPnm(C.Name, C.Header + Pixel);
    EXPECT_FALSE(readPnm(Path).has_value()) << C.Name;
    std::remove(Path.c_str());
  }
}

} // namespace
