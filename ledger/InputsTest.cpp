//===- ledger/InputsTest.cpp - Seed determinism of the ledger inputs -----===//
//
// The same seed must give identical pipelines, .lz scripts, request
// orders and arrival schedules; a different seed must give different ones.
// Build and run with
//
//   cmake --build .bench_build/ledger --target ledger_tests
//   ctest --test-dir .bench_build/ledger
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "frontend/LazyScript.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

using namespace ledger;

namespace {

std::vector<std::string> texts(uint64_t Seed, bool Lazy) {
  std::vector<std::string> Out;
  for (const ShapeText &S : makeChurnShapes(Seed, 24, 32, 32))
    if (S.Lazy == Lazy)
      Out.push_back(S.Text);
  return Out;
}

std::vector<std::pair<double, unsigned>> schedule(uint64_t Seed) {
  std::vector<std::pair<double, unsigned>> Out;
  for (const Arrival &A : makeArrivals(Seed, 50.0, 4.0, zipfWeights(8, 0.75)))
    Out.emplace_back(A.DueS, A.Tenant);
  return Out;
}

} // namespace

TEST(LedgerInputs, SameSeedSamePipelines) {
  EXPECT_EQ(texts(7, false), texts(7, false));
  EXPECT_NE(texts(7, false), texts(8, false));
}

TEST(LedgerInputs, SameSeedSameLazyScripts) {
  EXPECT_EQ(texts(7, true), texts(7, true));
  EXPECT_NE(texts(7, true), texts(8, true));
}

TEST(LedgerInputs, SameSeedSameArrivals) {
  EXPECT_EQ(schedule(7), schedule(7));
  EXPECT_NE(schedule(7), schedule(8));
  EXPECT_FALSE(schedule(7).empty());
}

TEST(LedgerInputs, SameSeedSameRequestOrder) {
  EXPECT_EQ(makeChurnRequestOrder(7, 64, 1000, 0.25, 16),
            makeChurnRequestOrder(7, 64, 1000, 0.25, 16));
  EXPECT_NE(makeChurnRequestOrder(7, 64, 1000, 0.25, 16),
            makeChurnRequestOrder(8, 64, 1000, 0.25, 16));
}

TEST(LedgerInputs, ShapesParseAndCoverTheSizeRange) {
  std::vector<ShapeText> Shapes = makeChurnShapes(3, 2 * 57, 32, 32);
  std::vector<bool> Seen(MaxChurnKernels + 1, false);
  for (const ShapeText &S : Shapes) {
    Seen[S.Kernels] = true;
    if (S.Lazy)
      EXPECT_TRUE(kf::parseLazyScript(S.Text).ok()) << S.Text;
    else
      EXPECT_TRUE(kf::parsePipelineText(S.Text).success()) << S.Text;
  }
  for (unsigned K = MinChurnKernels; K <= MaxChurnKernels; ++K)
    EXPECT_TRUE(Seen[K]) << K;
}

TEST(LedgerInputs, RepeatShareIsHeld) {
  std::vector<unsigned> Order = makeChurnRequestOrder(11, 512, 20000, 0.25, 16);
  size_t Repeats = 0;
  std::vector<bool> Seen(512, false);
  for (unsigned Shape : Order) {
    Repeats += Seen[Shape] ? 1 : 0;
    Seen[Shape] = true;
  }
  // Cyclic walks past 512 shapes revisit too; bound the share loosely.
  EXPECT_GT(Repeats, 20000 * 0.2);
}
