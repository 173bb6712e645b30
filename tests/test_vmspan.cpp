//===- tests/test_vmspan.cpp - Span-mode vs scalar-mode VM execution ------------===//
//
// The lane-batched span interior mode (runStagedVmSpan, VmMode::Span)
// must be bit-identical to the per-pixel scalar mode on every bundled
// pipeline, fused and unfused (the singleton partition), at every thread
// count, for every border mode, and across every span width around the
// lane boundary. The scalar mode is itself verified against the AST
// walker in test_fusedvm.cpp, so span == scalar closes the chain back to
// the semantic reference.
//
//===----------------------------------------------------------------------===//

#include "EngineConfigs.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

using namespace kf;

namespace {

/// Span widths around the lane boundary: narrower than a lane (one
/// full-width chunk that stores only the span's lanes), exactly one lane,
/// and one or two full chunks followed by a partial last chunk (which runs
/// at full width over the span's last lane).
constexpr int LaneBoundaryWidths[] = {
    1, VmLaneWidth - 1, VmLaneWidth, VmLaneWidth + 1,
    2 * VmLaneWidth - 1, 2 * VmLaneWidth, 2 * VmLaneWidth + 1};

/// The bit pattern of \p V: the engines promise bit-identity, which float
/// equality does not test (it equates -0 with +0 and fails on NaN).
uint32_t bitsOf(float V) { return std::bit_cast<uint32_t>(V); }

/// Fuses the whole program into one block (forces fusion regardless of
/// the benefit model).
Partition wholeProgramPartition(const Program &P) {
  Partition S;
  PartitionBlock Block;
  for (KernelId Id = 0; Id != P.numKernels(); ++Id)
    Block.Kernels.push_back(Id);
  S.Blocks.push_back(std::move(Block));
  return S;
}

/// Builds a pipeline at test size with a deterministic random input.
struct TestApp {
  Program P;
  Image Input;
};

TestApp makeTestApp(const std::string &Name) {
  const PipelineSpec *Spec = findPipeline(Name);
  EXPECT_NE(Spec, nullptr);
  // Wide enough that interior rows span several lane chunks plus a tail.
  int W = VmLaneWidth * 2 + 21;
  TestApp App{Spec->Builder(W, 24), Image()};
  const ImageInfo &InInfo = App.P.image(0);
  Rng Gen(977);
  App.Input =
      makeRandomImage(InInfo.Width, InInfo.Height, InInfo.Channels, Gen);
  return App;
}

/// Span vs scalar differential across the bundled applications, fused
/// with the paper's min-cut partition, at 1 / 3 / hardware threads.
class VmSpanEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(VmSpanEquivalence, FusedSpanMatchesScalarAcrossThreadCounts) {
  TestApp App = makeTestApp(GetParam());
  Partition Blocks = runMinCutFusion(App.P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(App.P, Blocks, FusionStyle::Optimized);

  for (int Threads : threadSweep()) {
    ExecutionOptions Scalar;
    Scalar.Threads = Threads;
    Scalar.TileHeight = 3; // Force multiple tiles even on small images.
    Scalar.Mode = VmMode::Scalar;
    ExecutionOptions Span = Scalar;
    Span.Mode = VmMode::Span;

    std::vector<Image> ScalarPool = makeImagePool(App.P);
    ScalarPool[0] = App.Input;
    runFusedVm(FP, ScalarPool, Scalar);

    std::vector<Image> SpanPool = makeImagePool(App.P);
    SpanPool[0] = App.Input;
    runFusedVm(FP, SpanPool, Span);

    expectPoolsIdentical(App.P, SpanPool, ScalarPool,
                         GetParam() + " fused threads=" +
                             std::to_string(Threads));
  }
}

/// Unfused runs are fused launches over the singleton partition, so they
/// reach every engine and tiling strategy: each must match the scalar
/// interior/halo run bit for bit.
TEST_P(VmSpanEquivalence, UnfusedSpanMatchesScalarAcrossThreadCounts) {
  TestApp App = makeTestApp(GetParam());
  FusedProgram Unfused = unfusedProgram(App.P);

  for (int Threads : threadSweep()) {
    ExecutionOptions Scalar;
    Scalar.Threads = Threads;
    Scalar.TileHeight = 3;
    Scalar.Mode = VmMode::Scalar;
    Scalar.Tiling = TilingStrategy::InteriorHalo;
    std::vector<Image> ScalarPool = makeImagePool(App.P);
    ScalarPool[0] = App.Input;
    runFusedVm(Unfused, ScalarPool, Scalar);

    for (VmMode Mode : {VmMode::Scalar, VmMode::Span, VmMode::Jit})
      for (TilingStrategy Tiling :
           {TilingStrategy::InteriorHalo, TilingStrategy::Overlapped}) {
        if (Mode == VmMode::Scalar && Tiling == TilingStrategy::InteriorHalo)
          continue;
        ExecutionOptions Options = Scalar;
        Options.Mode = Mode;
        Options.Tiling = Tiling;
        std::vector<Image> Pool = makeImagePool(App.P);
        Pool[0] = App.Input;
        runFusedVm(Unfused, Pool, Options);
        expectPoolsIdentical(App.P, Pool, ScalarPool,
                             GetParam() + " unfused " + vmModeName(Mode) +
                                 "/" + tilingStrategyName(Tiling) +
                                 " threads=" + std::to_string(Threads));
      }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, VmSpanEquivalence,
                         ::testing::Values("harris", "sobel", "unsharp",
                                           "shitomasi", "enhance",
                                           "night"),
                         [](const auto &Info) { return Info.param; });

/// Border-mode sweep: span and scalar must agree for every border mode,
/// with and without the index exchange (the halo path is shared, but the
/// interior/halo split depends on the reach, so sweep both).
class VmSpanBorder : public ::testing::TestWithParam<BorderMode> {};

TEST_P(VmSpanBorder, BlurChainSpanMatchesScalar) {
  BorderMode Mode = GetParam();
  int W = VmLaneWidth + 19, H = 14;
  Program P = makeBlurChain(W, H, Mode);
  Rng Gen(4242);
  Image Input = makeRandomImage(W, H, 1, Gen);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);

  for (bool Exchange : {true, false}) {
    ExecutionOptions Scalar;
    Scalar.UseIndexExchange = Exchange;
    Scalar.Mode = VmMode::Scalar;
    ExecutionOptions Span = Scalar;
    Span.Mode = VmMode::Span;

    std::vector<Image> ScalarPool = makeImagePool(P);
    ScalarPool[0] = Input;
    runFusedVm(FP, ScalarPool, Scalar);

    std::vector<Image> SpanPool = makeImagePool(P);
    SpanPool[0] = Input;
    runFusedVm(FP, SpanPool, Span);

    EXPECT_DOUBLE_EQ(maxAbsDifference(SpanPool[2], ScalarPool[2]), 0.0)
        << borderModeName(Mode)
        << (Exchange ? " (index exchange)" : " (naive)");
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, VmSpanBorder,
                         ::testing::Values(BorderMode::Clamp,
                                           BorderMode::Mirror,
                                           BorderMode::Repeat,
                                           BorderMode::Constant),
                         [](const auto &Info) {
                           return std::string(borderModeName(Info.param));
                         });

/// Tail handling: spans of every LaneBoundaryWidths width must each
/// match per-pixel evaluation (runStagedVm) of the root stage of \p SP
/// bit for bit -- the widths that straddle the chunking boundary.
void expectTailWidthsMatchPerPixel(const StagedVmProgram &SP,
                                   const std::vector<Image> &Pool, int W,
                                   int H) {
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
  int Halo = SP.Reach[Root];
  int Y = H / 2;
  std::vector<float> LaneRegs(static_cast<size_t>(SP.NumRegs) *
                              VmLaneWidth);
  std::vector<float> Regs(SP.NumRegs);

  for (int Width : LaneBoundaryWidths) {
    int X0 = Halo, X1 = X0 + Width;
    ASSERT_LE(X1, W - Halo) << "test image too narrow";
    std::vector<float> Out(Width);
    runStagedVmSpan(SP, Root, Pool, Y, X0, X1, 0, LaneRegs.data(),
                    Out.data());
    for (int X = X0; X != X1; ++X)
      EXPECT_EQ(bitsOf(Out[X - X0]),
                bitsOf(runStagedVm(SP, Root, Pool, X, Y, 0, Regs.data())))
          << "width=" << Width << " x=" << X;
  }
}

TEST(VmSpan, StagedTailWidthsMatchPerPixel) {
  int W = 2 * VmLaneWidth + 16, H = 12;
  Program P = makeBlurChain(W, H, BorderMode::Mirror);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);

  std::vector<Image> Pool = makeImagePool(P);
  Rng Gen(19);
  Pool[0] = makeRandomImage(W, H, 1, Gen);

  expectTailWidthsMatchPerPixel(compileFusedKernel(FP, FP.Kernels[0]), Pool,
                                W, H);
}

/// The one-stage program an unfused launch runs: the blur chain's first
/// blur alone, a plain 3x3 convolution.
TEST(VmSpan, PlainKernelTailWidthsMatchPerPixel) {
  int W = 2 * VmLaneWidth + 16, H = 12;
  Program P = makeBlurChain(W, H, BorderMode::Clamp);

  std::vector<Image> Pool = makeImagePool(P);
  Rng Gen(23);
  Pool[0] = makeRandomImage(W, H, 1, Gen);

  expectTailWidthsMatchPerPixel(compileStagedProgram(P, {0}, {false}), Pool,
                                W, H);
}

/// Strided output: span mode must honor OutStride (the multi-channel
/// destination layout the tiled executor uses).
TEST(VmSpan, StridedOutputMatchesDense) {
  int W = VmLaneWidth + 16, H = 10;
  Program P = makeBlurChain(W, H, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);

  std::vector<Image> Pool = makeImagePool(P);
  Rng Gen(31);
  Pool[0] = makeRandomImage(W, H, 1, Gen);

  int Halo = SP.Reach[Root];
  int X0 = Halo, X1 = W - Halo, Y = 4, Width = X1 - X0;
  std::vector<float> LaneRegs(static_cast<size_t>(SP.NumRegs) *
                              VmLaneWidth);

  std::vector<float> Dense(Width);
  runStagedVmSpan(SP, Root, Pool, Y, X0, X1, 0, LaneRegs.data(),
                  Dense.data());

  const int Stride = 3;
  std::vector<float> Strided(static_cast<size_t>(Width) * Stride, -1.0f);
  runStagedVmSpan(SP, Root, Pool, Y, X0, X1, 0, LaneRegs.data(),
                  Strided.data(), Stride);

  for (int I = 0; I != Width; ++I) {
    EXPECT_FLOAT_EQ(Strided[static_cast<size_t>(I) * Stride], Dense[I])
        << "i=" << I;
    // The gaps stay untouched.
    EXPECT_FLOAT_EQ(Strided[static_cast<size_t>(I) * Stride + 1], -1.0f);
    EXPECT_FLOAT_EQ(Strided[static_cast<size_t>(I) * Stride + 2], -1.0f);
  }
}

TEST(VmSpan, ModeNames) {
  EXPECT_STREQ(vmModeName(VmMode::Scalar), "scalar");
  EXPECT_STREQ(vmModeName(VmMode::Span), "span");
}

} // namespace
