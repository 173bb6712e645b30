//===- tests/test_tiling.cpp - Overlapped-tiling execution strategy -----------===//
//
// The overlapped tiling strategy (TilingStrategy::Overlapped: every tile
// recomputes its own halo into margin-grown scratch planes, no inter-tile
// synchronization) must be bit-identical to the interior/halo split on
// every bundled pipeline, at every thread count, for every border mode,
// under both VM interior modes, and for every tile geometry -- including
// degenerate ones (tile larger than the image, 1x1 and 1xN images, tiles
// the reach exceeds). The interior/halo strategy is itself verified
// against the AST walker in test_fusedvm.cpp, so overlapped == interior
// closes the chain back to the semantic reference.
//
// Launches whose destination channels share producer planes (Night's
// fused launch, a synthetic cross-channel chain) are checked against the
// unfused AST reference under every strategy, and the Auto rule that
// runs exactly those launches overlapped is pinned per registry launch.
//
// Also covers: the tile-spec parser, tile-size resolution, the merged
// overlap schedule's margin arithmetic, per-strategy session plans, and
// the KF-F06 overlap coverage check.
//
//===----------------------------------------------------------------------===//

#include "EngineConfigs.h"
#include "analysis/FootprintCheck.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "ir/Verifier.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "sim/Metrics.h"
#include "sim/Server.h"
#include "sim/Session.h"
#include "support/Trace.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

using namespace kf;

namespace {

Partition wholeProgramPartition(const Program &P) {
  Partition S;
  PartitionBlock Block;
  for (KernelId Id = 0; Id != P.numKernels(); ++Id)
    Block.Kernels.push_back(Id);
  S.Blocks.push_back(std::move(Block));
  return S;
}

/// An image pool for \p P with its external inputs filled
/// deterministically from \p Seed.
std::vector<Image> randomInputs(const Program &P, uint64_t Seed) {
  std::vector<Image> Pool = makeImagePool(P);
  Rng Gen(Seed);
  for (ImageId Id : P.externalInputs()) {
    const ImageInfo &Info = P.image(Id);
    Pool[Id] = makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen);
  }
  return Pool;
}

/// Fills the external inputs of \p P deterministically and runs \p FP
/// under \p Options, returning the pool.
std::vector<Image> runWith(const Program &P, const FusedProgram &FP,
                           const ExecutionOptions &Options, uint64_t Seed) {
  std::vector<Image> Pool = randomInputs(P, Seed);
  runFusedVm(FP, Pool, Options);
  return Pool;
}

/// A 3-channel chain whose channels read each other at differing
/// offsets: pre (point) -> mid (local) -> out (local). Every read mixes
/// the current channel with a fixed one, so destination channels demand
/// the same planes at different margins.
Program makeCrossChannelChain(int W, int H) {
  Program P("crosschannel");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", W, H, 3);
  ImageId Pre = P.addImage("pre", W, H, 3);
  ImageId Mid = P.addImage("mid", W, H, 3);
  ImageId Out = P.addImage("out", W, H, 3);
  auto AddKernel = [&](const char *Name, OperatorKind Kind, ImageId From,
                       ImageId To, const Expr *Body) {
    Kernel K;
    K.Name = Name;
    K.Kind = Kind;
    K.Inputs = {From};
    K.Output = To;
    K.Body = Body;
    P.addKernel(std::move(K));
  };
  AddKernel("pre", OperatorKind::Point, In, Pre,
            C.add(C.mul(C.inputAt(0), C.floatConst(0.5f)),
                  C.floatConst(0.25f)));
  // mid_c = pre_c(x-1, y) + pre_2(x, y+1)
  AddKernel("mid", OperatorKind::Local, Pre, Mid,
            C.add(C.inputAt(0, -1, 0), C.inputAt(0, 0, 1, 2)));
  // out_c = mid_c(x+3, y) + 0.5 * mid_1(x, y-1)
  AddKernel("out", OperatorKind::Local, Mid, Out,
            C.add(C.inputAt(0, 3, 0),
                  C.mul(C.floatConst(0.5f), C.inputAt(0, 0, -1, 1))));
  verifyProgramOrDie(P);
  return P;
}

/// Stage index of destination \p DestId within \p FK.
uint16_t rootStage(const FusedKernel &FK, KernelId DestId) {
  uint16_t Root = 0;
  for (size_t I = 0; I != FK.Stages.size(); ++I)
    if (FK.Stages[I].Kernel == DestId)
      Root = static_cast<uint16_t>(I);
  return Root;
}

//===--------------------------------------------------------------------===//
// Differential: overlapped == interior/halo
//===--------------------------------------------------------------------===//

/// Registry pipelines, min-cut fused, at 1 / 3 / hardware threads, in
/// both VM interior modes, with a small tile so images decompose into
/// many overlapped tiles whose margins cross tile boundaries.
class TilingEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(TilingEquivalence, OverlappedMatchesInteriorAcrossThreadsAndModes) {
  const PipelineSpec *Spec = findPipeline(GetParam());
  ASSERT_NE(Spec, nullptr);
  Program P = Spec->Builder(149, 61);
  Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);

  for (int Threads : threadSweep())
    for (VmMode Mode : {VmMode::Scalar, VmMode::Span}) {
      ExecutionOptions Interior;
      Interior.Threads = Threads;
      Interior.Mode = Mode;
      Interior.Tiling = TilingStrategy::InteriorHalo;
      ExecutionOptions Overlapped = Interior;
      Overlapped.Tiling = TilingStrategy::Overlapped;
      Overlapped.TileWidth = 32;
      Overlapped.TileHeight = 8;

      std::vector<Image> Want = runWith(P, FP, Interior, 977);
      std::vector<Image> Got = runWith(P, FP, Overlapped, 977);
      expectPoolsIdentical(P, Got, Want,
                           GetParam() + " threads=" +
                               std::to_string(Threads) + " vm=" +
                               vmModeName(Mode));
    }
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, TilingEquivalence,
                         ::testing::Values("harris", "sobel", "unsharp",
                                           "shitomasi", "enhance",
                                           "night"),
                         [](const auto &Info) { return Info.param; });

/// Border-mode sweep on the local-to-local blur chain, with and without
/// the index exchange: the halo ring path is shared between strategies,
/// but the interior rectangle overlapped tiles cover depends on the
/// reach, so sweep both.
class TilingBorder : public ::testing::TestWithParam<BorderMode> {};

TEST_P(TilingBorder, BlurChainOverlappedMatchesInterior) {
  Program P = makeBlurChain(83, 27, GetParam());
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);

  for (bool Exchange : {true, false}) {
    ExecutionOptions Interior;
    Interior.UseIndexExchange = Exchange;
    Interior.Tiling = TilingStrategy::InteriorHalo;
    ExecutionOptions Overlapped = Interior;
    Overlapped.Tiling = TilingStrategy::Overlapped;
    Overlapped.TileWidth = 16;
    Overlapped.TileHeight = 4;

    std::vector<Image> Want = runWith(P, FP, Interior, 4242);
    std::vector<Image> Got = runWith(P, FP, Overlapped, 4242);
    expectPoolsIdentical(P, Got, Want,
                         std::string(borderModeName(GetParam())) +
                             (Exchange ? " (index exchange)" : " (naive)"));
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, TilingBorder,
                         ::testing::Values(BorderMode::Clamp,
                                           BorderMode::Mirror,
                                           BorderMode::Repeat,
                                           BorderMode::Constant),
                         [](const auto &Info) {
                           return std::string(borderModeName(Info.param));
                         });

//===--------------------------------------------------------------------===//
// Tile-geometry edge cases
//===--------------------------------------------------------------------===//

/// Degenerate geometries must be handled without out-of-bounds accesses
/// (this suite runs under ASan/UBSan via the sanitize-smoke label) and
/// stay bit-identical to the interior/halo strategy.
class TilingGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(TilingGeometry, OverlappedMatchesInteriorOnDegenerateShapes) {
  const auto [W, H, TileW, TileH] = GetParam();
  Program P = makeBlurChain(W, H, BorderMode::Mirror);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);

  for (VmMode Mode : {VmMode::Scalar, VmMode::Span}) {
    ExecutionOptions Interior;
    Interior.Mode = Mode;
    Interior.Tiling = TilingStrategy::InteriorHalo;
    ExecutionOptions Overlapped = Interior;
    Overlapped.Tiling = TilingStrategy::Overlapped;
    Overlapped.TileWidth = TileW;
    Overlapped.TileHeight = TileH;

    std::vector<Image> Want = runWith(P, FP, Interior, 11);
    std::vector<Image> Got = runWith(P, FP, Overlapped, 11);
    expectPoolsIdentical(P, Got, Want,
                         std::to_string(W) + "x" + std::to_string(H) +
                             " tile " + std::to_string(TileW) + "x" +
                             std::to_string(TileH) + " vm=" +
                             vmModeName(Mode));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Degenerate, TilingGeometry,
    ::testing::Values(
        std::make_tuple(33, 17, 256, 256), // Tile larger than the image.
        std::make_tuple(1, 1, 8, 8),       // 1x1 image: all halo.
        std::make_tuple(1, 23, 8, 8),      // 1xN image: all halo.
        std::make_tuple(23, 1, 8, 8),      // Nx1 image: all halo.
        std::make_tuple(37, 19, 7, 5),     // Tile sizes not dividing W/H.
        std::make_tuple(41, 21, 1, 1),     // Reach (2) larger than tile.
        std::make_tuple(40, 24, 3, 2)));   // Reach crosses several tiles.

/// Harris at a size where the fused reach is large relative to tiny
/// tiles: every plane is mostly margin, the worst case for the schedule
/// arithmetic.
TEST(TilingGeometry, HarrisReachLargerThanTile) {
  Program P = makeHarris(57, 33);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);

  ExecutionOptions Interior;
  Interior.Tiling = TilingStrategy::InteriorHalo;
  ExecutionOptions Overlapped = Interior;
  Overlapped.Tiling = TilingStrategy::Overlapped;
  Overlapped.TileWidth = 2;
  Overlapped.TileHeight = 2;

  std::vector<Image> Want = runWith(P, FP, Interior, 29);
  std::vector<Image> Got = runWith(P, FP, Overlapped, 29);
  expectPoolsIdentical(P, Got, Want, "harris tiny tiles");
}

//===--------------------------------------------------------------------===//
// Strategy / tile-size resolution
//===--------------------------------------------------------------------===//

TEST(TilingResolve, StrategyNames) {
  EXPECT_STREQ(tilingStrategyName(TilingStrategy::Auto), "auto");
  EXPECT_STREQ(tilingStrategyName(TilingStrategy::InteriorHalo),
               "interior");
  EXPECT_STREQ(tilingStrategyName(TilingStrategy::Overlapped),
               "overlapped");
}

TEST(TilingResolve, ParseTileSpecAcceptsOnlyWellFormedRanges) {
  int W = -1, H = -1;
  EXPECT_TRUE(parseTileSpec("128x32", W, H));
  EXPECT_EQ(W, 128);
  EXPECT_EQ(H, 32);
  EXPECT_TRUE(parseTileSpec("1x65536", W, H));
  EXPECT_EQ(W, 1);
  EXPECT_EQ(H, 65536);

  // Garbage is rejected and leaves the outputs untouched.
  W = H = -1;
  EXPECT_FALSE(parseTileSpec(nullptr, W, H));
  EXPECT_FALSE(parseTileSpec("", W, H));
  EXPECT_FALSE(parseTileSpec("128", W, H));
  EXPECT_FALSE(parseTileSpec("x32", W, H));
  EXPECT_FALSE(parseTileSpec("128x", W, H));
  EXPECT_FALSE(parseTileSpec("128x32x8", W, H));
  EXPECT_FALSE(parseTileSpec("128x32 ", W, H));
  EXPECT_FALSE(parseTileSpec("axb", W, H));
  // Both components must start with a digit: strtol's own leading-space
  // and sign tolerance ("  12", "+8") is not part of the WxH grammar.
  EXPECT_FALSE(parseTileSpec(" 12x34", W, H));
  EXPECT_FALSE(parseTileSpec("+8x+8", W, H));
  EXPECT_FALSE(parseTileSpec("8x+8", W, H));
  EXPECT_FALSE(parseTileSpec("8x 8", W, H));
  EXPECT_FALSE(parseTileSpec("0x32", W, H));
  EXPECT_FALSE(parseTileSpec("-4x8", W, H));
  EXPECT_FALSE(parseTileSpec("65537x1", W, H));
  EXPECT_FALSE(parseTileSpec("99999999999999999999x4", W, H));
  EXPECT_EQ(W, -1);
  EXPECT_EQ(H, -1);
}

TEST(TilingResolve, ResolveTileSizeExplicitAndDefaults) {
  int W = 0, H = 0;
  ExecutionOptions Options;

  // Strategy defaults: full rows for interior, an L2 block for
  // overlapped; both clamped to the image.
  resolveTileSize(Options, TilingStrategy::InteriorHalo, 640, 480, 2, W, H);
  EXPECT_EQ(W, 640);
  EXPECT_GE(H, 1);
  resolveTileSize(Options, TilingStrategy::Overlapped, 640, 480, 2, W, H);
  EXPECT_EQ(W, 128);
  EXPECT_EQ(H, 32);
  resolveTileSize(Options, TilingStrategy::Overlapped, 20, 10, 2, W, H);
  EXPECT_EQ(W, 20); // Clamped to the image.
  EXPECT_EQ(H, 10);

  // Explicit options always win.
  Options.TileWidth = 48;
  Options.TileHeight = 12;
  resolveTileSize(Options, TilingStrategy::Overlapped, 640, 480, 2, W, H);
  EXPECT_EQ(W, 48);
  EXPECT_EQ(H, 12);
}

//===--------------------------------------------------------------------===//
// Overlap schedule arithmetic
//===--------------------------------------------------------------------===//

TEST(OverlapSchedule, BlurChainMarginsMatchReach) {
  // Two chained 3x3 blurs: the eliminated first blur's plane must extend
  // 1 pixel beyond the tile (the second blur's window radius), and with
  // its own 3x3 loads on top that exactly spends the fused reach of 2.
  Program P = makeBlurChain(40, 20, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
  ASSERT_EQ(SP.Stages.size(), 2u);
  ASSERT_EQ(SP.Reach[Root], 2);

  OverlapSchedule Schedule = buildOverlapSchedule(SP, Root, 1);
  ASSERT_TRUE(Schedule.Valid);
  ASSERT_EQ(Schedule.Planes.size(), 1u); // One eliminated stage.
  EXPECT_EQ(Schedule.Planes[0].Stage, 0u);
  EXPECT_EQ(Schedule.Planes[0].Channel, 0);
  EXPECT_EQ(Schedule.Planes[0].Margin, 1);
  EXPECT_EQ(Schedule.MaxMargin, 1);
  EXPECT_FALSE(Schedule.SharedPlanes); // One channel shares nothing.

  // The scratch requirement covers the margin-grown plane.
  size_t Floats = overlapPlaneFloats(Schedule, 16, 8);
  EXPECT_EQ(Floats, static_cast<size_t>(16 + 2) * (8 + 2));
}

TEST(OverlapSchedule, MergedPlanesAppearOnceAtTheirLargestMargin) {
  // Destination channel c reads mid_c at offset 3 and mid_1 at offset 1;
  // mid reads pre_c and pre_2 at offset 1. So channel 1 needs mid_1 at
  // margin 3 while channels 0 and 2 need it at 1, and pre_1 at 4 vs 2.
  // Each (stage, channel) must appear once, at the maximum, callees
  // first.
  Program P = makeCrossChannelChain(40, 20);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  ASSERT_EQ(FP.Kernels.size(), 1u);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  ASSERT_EQ(SP.Stages.size(), 3u);
  const uint16_t Root = 2;
  ASSERT_EQ(SP.Reach[Root], 4);

  OverlapSchedule Schedule = buildOverlapSchedule(SP, Root, 3);
  ASSERT_TRUE(Schedule.Valid);
  struct Want {
    uint16_t Stage;
    int16_t Channel;
    int Margin;
  };
  const std::vector<Want> Expected = {{0, 0, 4}, {0, 1, 4}, {0, 2, 4},
                                      {1, 0, 3}, {1, 1, 3}, {1, 2, 3}};
  ASSERT_EQ(Schedule.Planes.size(), Expected.size());
  for (size_t I = 0; I != Expected.size(); ++I) {
    EXPECT_EQ(Schedule.Planes[I].Stage, Expected[I].Stage) << I;
    EXPECT_EQ(Schedule.Planes[I].Channel, Expected[I].Channel) << I;
    EXPECT_EQ(Schedule.Planes[I].Margin, Expected[I].Margin) << I;
  }
  EXPECT_EQ(Schedule.MaxMargin, 4);
  EXPECT_TRUE(Schedule.SharedPlanes);

  // The scratch holds exactly the listed planes, each once.
  size_t Sum = 0;
  for (const OverlapPlane &Plane : Schedule.Planes)
    Sum += static_cast<size_t>(8 + 2 * Plane.Margin) * (5 + 2 * Plane.Margin);
  EXPECT_EQ(overlapPlaneFloats(Schedule, 8, 5), Sum);
  EXPECT_EQ(Sum, 3u * (16 * 13) + 3u * (14 * 11));
}

TEST(OverlapSchedule, NightScotoSharesTheAtrousPlanes) {
  // scoto reads all three channels of the eliminated atrous1 at offset 0
  // for each of its three destination channels: three planes, each
  // demanded by every destination channel.
  Program P = makeNight(37, 23);
  Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);
  unsigned Fused = 0;
  for (const FusedKernel &FK : FP.Kernels) {
    if (FK.Stages.size() < 2)
      continue;
    ++Fused;
    StagedVmProgram SP = compileFusedKernel(FP, FK);
    ASSERT_EQ(FK.Destinations.size(), 1u);
    OverlapSchedule Schedule =
        buildOverlapSchedule(SP, rootStage(FK, FK.Destinations[0]), 3);
    ASSERT_TRUE(Schedule.Valid);
    ASSERT_EQ(Schedule.Planes.size(), 3u);
    for (int C = 0; C != 3; ++C) {
      EXPECT_EQ(Schedule.Planes[C].Stage, 0u);
      EXPECT_EQ(Schedule.Planes[C].Channel, C);
      EXPECT_EQ(Schedule.Planes[C].Margin, 0);
    }
    EXPECT_TRUE(Schedule.SharedPlanes);
    EXPECT_EQ(overlapPlaneFloats(Schedule, 128, 32), 3u * 128 * 32);
  }
  EXPECT_EQ(Fused, 1u);
}

TEST(OverlapSchedule, MarginPlusLoadHaloStaysWithinReach) {
  // The margin-safety invariant the executor relies on, checked here for
  // every registry pipeline and the cross-channel chain: every plane of
  // the merged schedule, at its margin, plus its stage's direct load
  // halo is covered by the root's recorded reach, and KF-F06 proves it.
  std::vector<Program> Programs;
  for (const PipelineSpec &Spec : paperPipelines())
    Programs.push_back(Spec.Builder(64, 32));
  Programs.push_back(makeCrossChannelChain(64, 32));
  for (const Program &P : Programs) {
    Partition Blocks = P.name() == "crosschannel"
                           ? wholeProgramPartition(P)
                           : runMinCutFusion(P, HardwareModel()).Blocks;
    FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);
    for (const FusedKernel &FK : FP.Kernels) {
      StagedVmProgram SP = compileFusedKernel(FP, FK);
      if (!SP.UniformExtents)
        continue;
      for (KernelId DestId : FK.Destinations) {
        uint16_t Root = rootStage(FK, DestId);
        const ImageInfo &Info = P.image(P.kernel(DestId).Output);
        OverlapSchedule Schedule =
            buildOverlapSchedule(SP, Root, Info.Channels);
        ASSERT_TRUE(Schedule.Valid) << P.name();
        DiagnosticEngine DE;
        checkOverlapCoverage(SP, Root, SP.Reach[Root], DE);
        EXPECT_EQ(DE.errorCount(), 0u)
            << P.name() << ": " << DE.renderText();
        EXPECT_LE(Schedule.MaxMargin, SP.Reach[Root]) << P.name();
        for (const OverlapPlane &Plane : Schedule.Planes) {
          int LoadHalo = 0;
          for (const VmInst &Inst : SP.Stages[Plane.Stage].Code.Insts)
            if (Inst.Op == VmOp::Load)
              LoadHalo = std::max({LoadHalo, std::abs(Inst.Ox),
                                   std::abs(Inst.Oy)});
          EXPECT_LE(Plane.Margin + LoadHalo, SP.Reach[Root])
              << P.name() << " stage " << Plane.Stage << " channel "
              << Plane.Channel;
        }
      }
    }
  }
}

TEST(OverlapSchedule, MixedExtentsAreRejected) {
  // The night filter's a-trous chain on mixed-size inputs is not the
  // concern here -- build a schedule from a program whose UniformExtents
  // flag is false and expect Valid == false (the executor falls back).
  Program P = makeBlurChain(40, 20, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  SP.UniformExtents = false;
  OverlapSchedule Schedule = buildOverlapSchedule(
      SP, static_cast<uint16_t>(SP.Stages.size() - 1), 1);
  EXPECT_FALSE(Schedule.Valid);
}

//===--------------------------------------------------------------------===//
// KF-F06: overlap coverage check
//===--------------------------------------------------------------------===//

TEST(OverlapCoverage, UndersizedHaloIsDiagnosed) {
  Program P = makeBlurChain(40, 20, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
  ASSERT_EQ(SP.Reach[Root], 2);

  DiagnosticEngine Good;
  checkOverlapCoverage(SP, Root, 2, Good);
  EXPECT_EQ(Good.errorCount(), 0u) << Good.renderText();

  // A halo of 1 cannot cover the eliminated blur's margin (1) plus its
  // own 3x3 load halo (1): grown tiles would read out of bounds.
  DiagnosticEngine Bad;
  checkOverlapCoverage(SP, Root, 1, Bad);
  EXPECT_GT(Bad.errorCount(), 0u);
  EXPECT_TRUE(Bad.hasCode("KF-F06")) << Bad.renderText();

  // Mixed extents skip the check (overlapped execution falls back).
  SP.UniformExtents = false;
  DiagnosticEngine Skipped;
  checkOverlapCoverage(SP, Root, 0, Skipped);
  EXPECT_EQ(Skipped.errorCount(), 0u);
}

//===--------------------------------------------------------------------===//
// Sessions
//===--------------------------------------------------------------------===//

TEST(TilingSession, TunedPlanMatchesExplicitStrategies) {
  Program P = makeHarris(96, 48);
  Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);

  auto RunSession = [&](TilingStrategy Strategy) {
    ExecutionOptions Options;
    Options.Threads = 2;
    Options.Tiling = Strategy;
    PlanCache Cache(4);
    PipelineSession Session(FP, Options, &Cache);
    std::vector<Image> Frame = Session.acquireFrame();
    Rng Gen(333);
    for (ImageId Id : P.externalInputs()) {
      const ImageInfo &Info = P.image(Id);
      Frame[Id] =
          makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen);
    }
    Session.runFrame(Frame);
    return Frame;
  };

  std::vector<Image> Interior = RunSession(TilingStrategy::InteriorHalo);
  std::vector<Image> Overlapped = RunSession(TilingStrategy::Overlapped);
  expectPoolsIdentical(P, Overlapped, Interior, "session overlapped");

  // The strategy is picked per launch at run time, so both share a plan.
  ExecutionOptions InteriorOptions;
  InteriorOptions.Tiling = TilingStrategy::InteriorHalo;
  ExecutionOptions OverlappedOptions;
  OverlappedOptions.Tiling = TilingStrategy::Overlapped;
  EXPECT_EQ(planKey(FP, InteriorOptions), planKey(FP, OverlappedOptions));
}

//===--------------------------------------------------------------------===//
// Trace counters and launch metrics
//===--------------------------------------------------------------------===//

TEST(TilingTrace, OverlappedLaunchEmitsTileCounters) {
  TraceRecorder &TR = TraceRecorder::global();
  TR.clear();
  TR.setEnabled(true);

  Program P = makeBlurChain(96, 40, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  ExecutionOptions Options;
  Options.Threads = 1;
  Options.Tiling = TilingStrategy::Overlapped;
  Options.TileWidth = 16;
  Options.TileHeight = 8;
  (void)runWith(P, FP, Options, 77);

  std::map<std::string, double> Counters = TR.counters();
  ASSERT_TRUE(Counters.count("tile.overlap_pixels"));
  EXPECT_GT(Counters.at("tile.overlap_pixels"), 0.0);
  ASSERT_TRUE(Counters.count("tile.redundant_halo_ms"));
  EXPECT_GE(Counters.at("tile.redundant_halo_ms"), 0.0);
  // The launch span labels the strategy.
  bool SawOverlappedLaunch = false;
  for (const TraceSpanRecord &Span : TR.spans())
    if (Span.Name.rfind("launch ", 0) == 0)
      for (const auto &[Key, Value] : Span.Args)
        if (Key == "tiling_overlapped" && Value == 1.0)
          SawOverlappedLaunch = true;
  EXPECT_TRUE(SawOverlappedLaunch);

  TR.setEnabled(false);
  TR.clear();
}

TEST(TilingTrace, LaunchMetricsSplitPerStrategy) {
  MetricsRegistry &Registry = MetricsRegistry::global();
  Registry.clear();
  Registry.setEnabled(true);

  Program P = makeBlurChain(96, 40, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  ExecutionOptions Options;
  Options.Threads = 1;
  Options.Tiling = TilingStrategy::InteriorHalo;
  (void)runWith(P, FP, Options, 78);
  std::vector<LaunchModelRecord> Records = Registry.records();
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_EQ(Records[0].Mode, VmMode::Jit);
  EXPECT_EQ(Records[0].Tiling, TilingStrategy::InteriorHalo);

  // The same launch tiled overlapped is filed under the engine it ran
  // then: span, since the JIT chains cannot read planes.
  Options.Tiling = TilingStrategy::Overlapped;
  (void)runWith(P, FP, Options, 78);
  Records = Registry.records();
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_EQ(Records[0].Runs, 2u);
  EXPECT_EQ(Records[0].Mode, VmMode::Span);
  EXPECT_EQ(Records[0].Tiling, TilingStrategy::Overlapped);
  EXPECT_NE(Registry.renderTable().find("overlap"), std::string::npos);

  Registry.setEnabled(false);
  Registry.clear();
}

//===--------------------------------------------------------------------===//
// Shared planes: differential against the unfused reference
//===--------------------------------------------------------------------===//

/// A program whose destination channels share producer planes, built at
/// a small odd size.
Program buildSharedPlaneProgram(const std::string &Name) {
  if (Name == "crosschannel")
    return makeCrossChannelChain(45, 31);
  return Name == "night23" ? makeNight(23, 13) : makeNight(29, 17);
}

/// Auto, interior and overlapped must each reproduce runUnfused bit for
/// bit on launches whose channels share planes, in both interpreters, at
/// 1 / 3 / hardware threads, with the default tile and tiles that do not
/// divide the image. The cross-channel chain also runs a tile smaller
/// than its largest plane margin (4); Night's planes have margin 0.
class TilingSharedPlanes : public ::testing::TestWithParam<std::string> {};

TEST_P(TilingSharedPlanes, EveryStrategyMatchesUnfused) {
  const Program P = buildSharedPlaneProgram(GetParam());
  Partition Blocks = GetParam() == "crosschannel"
                         ? wholeProgramPartition(P)
                         : runMinCutFusion(P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);
  std::vector<Image> Want = randomInputs(P, 2024);
  runUnfused(P, Want);

  std::vector<std::pair<int, int>> Tiles = {{0, 0}, {7, 5}};
  if (GetParam() == "crosschannel")
    Tiles.push_back({3, 2});
  for (int Threads : threadSweep())
    for (VmMode Mode : {VmMode::Scalar, VmMode::Span})
      for (const auto &[TileW, TileH] : Tiles)
        for (TilingStrategy Strategy :
             {TilingStrategy::Auto, TilingStrategy::InteriorHalo,
              TilingStrategy::Overlapped}) {
          ExecutionOptions Options;
          Options.Threads = Threads;
          Options.Mode = Mode;
          Options.Tiling = Strategy;
          Options.TileWidth = TileW;
          Options.TileHeight = TileH;
          std::vector<Image> Got = runWith(P, FP, Options, 2024);
          for (ImageId Out : P.terminalOutputs())
            EXPECT_DOUBLE_EQ(maxAbsDifference(Got[Out], Want[Out]), 0.0)
                << GetParam() << " threads=" << Threads
                << " vm=" << vmModeName(Mode)
                << " tiling=" << tilingStrategyName(Strategy) << " tile "
                << TileW << "x" << TileH;
        }
}

INSTANTIATE_TEST_SUITE_P(SharedPlanes, TilingSharedPlanes,
                         ::testing::Values("night23", "night29",
                                           "crosschannel"),
                         [](const auto &Info) { return Info.param; });

//===--------------------------------------------------------------------===//
// Auto strategy selection
//===--------------------------------------------------------------------===//

/// One compiled launch of a registry pipeline and how it ran.
struct LaunchRun {
  std::string Pipeline;
  std::string Launch;
  bool Fused = false;   ///< More than one stage.
  bool HasJit = false;  ///< The plan carries a JIT artifact.
  LaunchTiming Timing;
};

/// Compiles every registry pipeline at a small size into a session plan
/// and runs each launch once under \p Options, as sim/Session does.
std::vector<LaunchRun> runRegistryLaunches(const ExecutionOptions &Options) {
  std::vector<LaunchRun> Runs;
  ThreadPool TP(2);
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(67, 41);
    Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
    FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);
    std::shared_ptr<const CompiledPlan> Plan = compilePlan(FP, Options);
    std::vector<Image> Frame = randomInputs(P, 31);
    VmScratch Scratch;
    for (const CompiledLaunch &Launch : Plan->Launches) {
      const ImageInfo &Info = Plan->Shapes[Launch.Output];
      Frame[Launch.Output] = Image(Info.Width, Info.Height, Info.Channels);
      LaunchRun Run;
      Run.Pipeline = Spec.Name;
      Run.Launch = Launch.Name;
      Run.Fused = Launch.Code.Stages.size() > 1;
      Run.HasJit = Launch.Jit != nullptr;
      runCompiledLaunch(Launch.Code, Launch.Root, Launch.Halo, Frame,
                        Frame[Launch.Output], Options, TP, Scratch,
                        &Run.Timing, Launch.Jit.get());
      Runs.push_back(Run);
    }
  }
  return Runs;
}

TEST(TilingAutoSelect, OnlyNightsSharedPlaneLaunchRunsOverlapped) {
  unsigned Overlapped = 0;
  for (const LaunchRun &Run : runRegistryLaunches(ExecutionOptions())) {
    const std::string Tag = Run.Pipeline + "/" + Run.Launch;
    if (Run.Pipeline == "night" && Run.Fused) {
      // atrous1+scoto: scratch planes, so the span engine.
      EXPECT_EQ(Run.Timing.Tiling, TilingStrategy::Overlapped) << Tag;
      EXPECT_EQ(Run.Timing.Mode, VmMode::Span) << Tag;
      ++Overlapped;
      continue;
    }
    // atrous0 and every single-channel launch: interior with the JIT.
    EXPECT_EQ(Run.Timing.Tiling, TilingStrategy::InteriorHalo) << Tag;
    EXPECT_TRUE(Run.HasJit) << Tag;
    EXPECT_EQ(Run.Timing.Mode, VmMode::Jit) << Tag;
  }
  EXPECT_EQ(Overlapped, 1u);
}

TEST(TilingAutoSelect, InteriorRequestsForceInteriorEverywhere) {
  ExecutionOptions Interior;
  Interior.Tiling = TilingStrategy::InteriorHalo;
  for (const LaunchRun &Run : runRegistryLaunches(Interior))
    EXPECT_EQ(Run.Timing.Tiling, TilingStrategy::InteriorHalo)
        << Run.Pipeline << "/" << Run.Launch;
}

/// forEachEngineConfig lists each engine once: on every fused Harris
/// launch and on Night's shared-plane atrous1+scoto, the configs run
/// pairwise distinct (engine, tiling, optimizer) triples, so no config
/// re-runs another's engine under a different name.
TEST(TilingAutoSelect, EveryEngineConfigRunsADistinctEngine) {
  std::map<std::string, std::set<std::tuple<VmMode, TilingStrategy, OptMode>>>
      Seen;
  unsigned Configs = 0;
  forEachEngineConfig([&](const ExecutionOptions &Options,
                          const std::string &Name) {
    ++Configs;
    for (const LaunchRun &Run : runRegistryLaunches(Options)) {
      if (!Run.Fused || (Run.Pipeline != "harris" && Run.Pipeline != "night"))
        continue;
      const std::string Tag = Run.Pipeline + "/" + Run.Launch;
      EXPECT_TRUE(Seen[Tag]
                      .insert({Run.Timing.Mode, Run.Timing.Tiling, Options.Opt})
                      .second)
          << Name << " runs " << Tag << " as vm="
          << vmModeName(Run.Timing.Mode)
          << " tiling=" << tilingStrategyName(Run.Timing.Tiling)
          << ", as an earlier config did";
    }
  });
  EXPECT_EQ(Configs, 8u);
  EXPECT_EQ(Seen.count("night/atrous1+scoto"), 1u);
  EXPECT_GT(Seen.size(), 1u); // Night's launch and Harris' fused ones.
}

TEST(TilingMetrics, LaunchesAreFiledUnderTheEngineTheyRan) {
  MetricsRegistry &Registry = MetricsRegistry::global();
  Registry.clear();
  Registry.setEnabled(true);

  Program P = makeNight(67, 41);
  Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);
  ExecutionOptions Options;
  Options.Threads = 2;
  PlanCache Cache(2);
  PipelineSession Session(FP, Options, &Cache);
  std::vector<Image> Frame = Session.acquireFrame();
  Rng Gen(8);
  for (ImageId Id : P.externalInputs()) {
    const ImageInfo &Info = P.image(Id);
    Frame[Id] = makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen);
  }
  Session.runFrame(Frame);

  unsigned Seen = 0;
  for (const LaunchModelRecord &Record : Registry.records()) {
    if (Record.Runs == 0)
      continue;
    ++Seen;
    if (Record.Stages > 1) {
      // atrous1+scoto: (span, overlapped).
      EXPECT_EQ(Record.Mode, VmMode::Span) << Record.Launch;
      EXPECT_EQ(Record.Tiling, TilingStrategy::Overlapped) << Record.Launch;
    } else {
      // atrous0: (jit, interior).
      EXPECT_EQ(Record.Mode, VmMode::Jit) << Record.Launch;
      EXPECT_EQ(Record.Tiling, TilingStrategy::InteriorHalo) << Record.Launch;
    }
    EXPECT_EQ(Record.Runs, 1u) << Record.Launch;
  }
  EXPECT_EQ(Seen, 2u);
  const std::string Table = Registry.renderTable();
  EXPECT_NE(Table.find("jit"), std::string::npos) << Table;
  EXPECT_NE(Table.find("overlap"), std::string::npos) << Table;

  Registry.setEnabled(false);
  Registry.clear();
}

/// Server tenants run Night's Auto-overlapped launch concurrently on one
/// shared pool, each worker with its own plane scratch, beside a
/// single-channel tenant on the interior path; every frame must match
/// the unfused reference.
TEST(TilingServer, ConcurrentNightTenantsMatchUnfused) {
  const std::vector<std::string> Names = {"night", "night", "harris",
                                          "night"};
  constexpr int FramesEach = 2;
  std::vector<Program> Programs;
  std::vector<FusedProgram> Fused;
  Programs.reserve(Names.size());
  for (const std::string &Name : Names)
    Programs.push_back(findPipeline(Name)->Builder(53, 37));
  for (const Program &P : Programs)
    Fused.push_back(fuseProgram(P, runMinCutFusion(P, HardwareModel()).Blocks,
                                FusionStyle::Optimized));

  std::vector<std::vector<std::vector<Image>>> Served(Names.size());
  for (auto &Frames : Served)
    Frames.resize(FramesEach);
  {
    ServerOptions SO;
    SO.Threads = 3;
    SO.Dispatchers = 2;
    PipelineServer Server(SO);
    std::vector<PipelineServer::SessionId> Ids;
    for (size_t T = 0; T != Names.size(); ++T)
      Ids.push_back(Server.open(Fused[T]));
    for (int Frame = 0; Frame != FramesEach; ++Frame)
      for (size_t T = 0; T != Ids.size(); ++T) {
        const Program &P = Programs[T];
        std::vector<Image> *Slot = &Served[T][Frame];
        ASSERT_TRUE(Server.submit(
            Ids[T],
            [&P, T](int Index, std::vector<Image> &Pool) {
              std::vector<Image> Inputs = randomInputs(P, 100 * T + Index);
              for (ImageId Id : P.externalInputs())
                Pool[Id] = std::move(Inputs[Id]);
            },
            [Slot, &P](int, const std::vector<Image> &Pool) {
              for (ImageId Out : P.terminalOutputs())
                Slot->push_back(Pool[Out]);
            }));
      }
    Server.drainAll();
  }

  for (size_t T = 0; T != Names.size(); ++T)
    for (int Frame = 0; Frame != FramesEach; ++Frame) {
      const Program &P = Programs[T];
      std::vector<Image> Want = randomInputs(P, 100 * T + Frame);
      runUnfused(P, Want);
      size_t Slot = 0;
      for (ImageId Out : P.terminalOutputs()) {
        ASSERT_LT(Slot, Served[T][Frame].size());
        EXPECT_DOUBLE_EQ(
            maxAbsDifference(Served[T][Frame][Slot], Want[Out]), 0.0)
            << Names[T] << " tenant " << T << " frame " << Frame;
        ++Slot;
      }
    }
}

} // namespace
