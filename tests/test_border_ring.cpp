//===- tests/test_border_ring.cpp - Lane-batched border ring --------------------===//
//
// The border ring of every VM launch runs through runStagedVmRing: up to
// VmLaneWidth arbitrary ring pixels at once, for every destination
// channel, with bordered loads and per-lane index exchange. It must be
// bit-identical (countBitDifferences, which tells -0 from +0) to the
// per-pixel reference runStagedVm and, end to end, to runUnfused -- for
// every registry pipeline and engine configuration, every border mode
// with and without the index exchange, images no larger than the ring,
// tiles smaller than the halo, chunk boundaries, cross-channel stage
// calls shared across destination channels, inputs rich in signed zeros
// and special values, and interiors narrower than a lane, whose last rows
// the ring takes over (laneRowsEnd).
//
//===----------------------------------------------------------------------===//

#include "EngineConfigs.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "pipelines/Masks.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

using namespace kf;

namespace {

/// A nonzero Constant-border value: a ring lane that should read the
/// constant but kept its callee's value shows as a bit difference.
constexpr float RingConstant = 0.75f;

Partition wholeProgramPartition(const Program &P) {
  Partition S;
  PartitionBlock Block;
  for (KernelId Id = 0; Id != P.numKernels(); ++Id)
    Block.Kernels.push_back(Id);
  S.Blocks.push_back(std::move(Block));
  return S;
}

/// Sets every kernel of \p P to border \p Mode with RingConstant.
void setBorders(Program &P, BorderMode Mode) {
  for (KernelId Id = 0; Id != P.numKernels(); ++Id) {
    P.kernel(Id).Border = Mode;
    P.kernel(Id).BorderConstant = RingConstant;
  }
}

/// Calls \p Fn(SP, Root, Info) for every destination of every fused
/// kernel of \p FP, with the launch compiled as the VM compiles it
/// (before the session optimizer).
void forEachLaunch(
    const FusedProgram &FP,
    const std::function<void(const StagedVmProgram &, uint16_t,
                             const ImageInfo &, const std::string &)> &Fn) {
  const Program &P = *FP.Source;
  for (const FusedKernel &FK : FP.Kernels) {
    StagedVmProgram SP = compileFusedKernel(FP, FK);
    for (KernelId Dest : FK.Destinations)
      for (size_t S = 0; S != FK.Stages.size(); ++S)
        if (FK.Stages[S].Kernel == Dest)
          Fn(SP, static_cast<uint16_t>(S), P.image(P.kernel(Dest).Output),
             P.kernel(Dest).Name);
  }
}

/// Stage \p Root of \p SP at every pixel, per pixel through runStagedVm.
Image perPixelImage(const StagedVmProgram &SP, uint16_t Root,
                    const std::vector<Image> &Pool, const ImageInfo &Info,
                    bool Exchange) {
  Image Out(Info.Width, Info.Height, Info.Channels);
  std::vector<float> Regs(SP.NumRegs);
  for (int Y = 0; Y != Info.Height; ++Y)
    for (int X = 0; X != Info.Width; ++X)
      for (int C = 0; C != Info.Channels; ++C)
        Out.at(X, Y, C) =
            runStagedVm(SP, Root, Pool, X, Y, C, Regs.data(), Exchange);
  return Out;
}

/// Stage \p Root of \p SP at every pixel through runStagedVmRing, in
/// column-major order (lanes from several rows and both image edges) and
/// chunks of \p ChunkSize pixels, the last one partial.
Image ringImage(const StagedVmProgram &SP, uint16_t Root,
                const std::vector<Image> &Pool, const ImageInfo &Info,
                bool Exchange, int ChunkSize) {
  Image Out(Info.Width, Info.Height, Info.Channels);
  std::vector<float> LaneRegs(static_cast<size_t>(SP.NumRegs) * VmLaneWidth);
  int Xs[VmLaneWidth] = {}, Ys[VmLaneWidth] = {}, Count = 0;
  auto Flush = [&] {
    runStagedVmRing(SP, Root, Pool, Xs, Ys, Count, Info.Channels,
                    LaneRegs.data(), Out.data().data(), Info.Width, Exchange);
    Count = 0;
  };
  for (int X = 0; X != Info.Width; ++X)
    for (int Y = 0; Y != Info.Height; ++Y) {
      Xs[Count] = X;
      Ys[Count] = Y;
      if (++Count == ChunkSize)
        Flush();
    }
  if (Count)
    Flush();
  return Out;
}

/// The lane ring over every pixel of every launch of \p FP, at chunk
/// sizes 1, 63 and 64, matches the per-pixel reference bit for bit.
/// \p Pool must hold every image the launches load.
void expectRingMatchesPerPixel(const FusedProgram &FP,
                               const std::vector<Image> &Pool, bool Exchange,
                               const std::string &Tag) {
  forEachLaunch(FP, [&](const StagedVmProgram &SP, uint16_t Root,
                        const ImageInfo &Info, const std::string &Name) {
    const Image Want = perPixelImage(SP, Root, Pool, Info, Exchange);
    for (int Chunk : {1, VmLaneWidth - 1, VmLaneWidth})
      EXPECT_EQ(countBitDifferences(
                    ringImage(SP, Root, Pool, Info, Exchange, Chunk), Want),
                0)
          << Tag << " launch " << Name << " chunk " << Chunk
          << (Exchange ? " (index exchange)" : " (naive)");
  });
}

/// Samples of \p A and \p B whose bit patterns differ, except where both
/// are NaN.
long long countDifferencesButNaNs(const Image &A, const Image &B) {
  long long Count = 0;
  for (size_t I = 0; I != A.data().size(); ++I)
    Count += !(std::isnan(A.data()[I]) && std::isnan(B.data()[I])) &&
             std::bit_cast<uint32_t>(A.data()[I]) !=
                 std::bit_cast<uint32_t>(B.data()[I]);
  return Count;
}

/// A pool with \p Input as image 0 and everything else empty.
std::vector<Image> poolWith(const Program &P, const Image &Input) {
  std::vector<Image> Pool = makeImagePool(P);
  Pool[0] = Input;
  return Pool;
}

/// runFusedVm of \p FP under every engine configuration (on top of
/// \p Base) matches the \p Want pool bit for bit.
void expectEveryConfigMatches(const FusedProgram &FP, const Image &Input,
                              const std::vector<Image> &Want,
                              const ExecutionOptions &Base,
                              const std::string &Tag) {
  forEachEngineConfig(Base, [&](const ExecutionOptions &Options,
                                const std::string &Config) {
    std::vector<Image> Pool = poolWith(*FP.Source, Input);
    runFusedVm(FP, Pool, Options);
    // A fused run leaves its eliminated intermediates empty, where an
    // unfused reference holds them; compare the images the run wrote.
    std::vector<Image> Expected = Want;
    for (ImageId Id = 0; Id != Pool.size(); ++Id)
      if (Pool[Id].empty())
        Expected[Id] = Image();
    expectPoolsIdentical(*FP.Source, Pool, Expected, Tag + " " + Config);
  });
}

/// The three-channel cross-channel chain: a per-channel 3x3 blur with a
/// coordinate term feeding a consumer that reads the blur's channel 2
/// over a 3x3 window and its channel 0 at an offset (explicit-channel
/// stage calls, the ones a ring chunk shares across destination
/// channels) and the current channel at the centre (a channel-relative
/// call, which it must not share).
Program makeCrossChannelChain(int Width, int Height, BorderMode Mode) {
  Program P("crosschannel");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", Width, Height, 3);
  ImageId Mid = P.addImage("mid", Width, Height, 3);
  ImageId Out = P.addImage("out", Width, Height, 3);
  int Mask = P.addMask(binomial3Normalized());
  {
    Kernel K;
    K.Name = "blur";
    K.Kind = OperatorKind::Local;
    K.Inputs = {In};
    K.Output = Mid;
    K.Body = C.add(C.stencil(Mask, ReduceOp::Sum,
                             C.mul(C.maskValue(), C.stencilInput(0))),
                   C.mul(C.floatConst(0.001f), C.coordX()));
    P.addKernel(std::move(K));
  }
  {
    Kernel K;
    K.Name = "cross";
    K.Kind = OperatorKind::Local;
    K.Inputs = {Mid};
    K.Output = Out;
    const Expr *Window = C.stencil(
        Mask, ReduceOp::Sum, C.mul(C.maskValue(), C.stencilInput(0, 2)));
    const Expr *Shifted = C.inputAt(0, 1, -1, 0);
    const Expr *Centre = C.mul(
        C.inputAt(0),
        C.add(C.floatConst(1.0f), C.mul(C.floatConst(0.01f), C.coordY())));
    K.Body = C.add(C.sub(Window, C.mul(C.floatConst(0.5f), Shifted)), Centre);
    P.addKernel(std::move(K));
  }
  setBorders(P, Mode);
  return P;
}

constexpr BorderMode AllBorderModes[] = {BorderMode::Clamp, BorderMode::Mirror,
                                         BorderMode::Repeat,
                                         BorderMode::Constant};

TEST(BorderRing, RegistryPipelinesMatchUnfusedUnderEveryEngineConfig) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    // One size that is nearly all ring, one with rows of ring wider than
    // a lane.
    for (auto [W, H] : {std::pair{20, 14}, std::pair{75, 40}}) {
      Program P = Spec.Builder(W, H);
      const ImageInfo &In = P.image(0);
      Rng Gen(4242);
      Image Input = makeRandomImage(In.Width, In.Height, In.Channels, Gen);
      std::vector<Image> Reference = poolWith(P, Input);
      runUnfused(P, Reference);

      std::string Tag = Spec.Name + " " + std::to_string(W) + "x" +
                        std::to_string(H);
      FusedProgram FP = fuseProgram(
          P, runMinCutFusion(P, HardwareModel()).Blocks,
          FusionStyle::Optimized);
      ExecutionOptions Base;
      Base.Threads = 2;
      expectEveryConfigMatches(FP, Input, Reference, Base, Tag + " fused");
      expectEveryConfigMatches(unfusedProgram(P), Input, Reference, Base,
                               Tag + " unfused");
      expectRingMatchesPerPixel(FP, Reference, true, Tag);
    }
  }
}

class BorderRingModes : public ::testing::TestWithParam<BorderMode> {};

TEST_P(BorderRingModes, BlurChainMatchesPerPixelAndAstWithAndWithoutExchange) {
  Program P = makeBlurChain(21, 13, GetParam());
  setBorders(P, GetParam());
  Rng Gen(17);
  Image Input = makeRandomImage(21, 13, 1, Gen);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);

  std::vector<Image> Unfused = poolWith(P, Input);
  runUnfused(P, Unfused);
  for (bool Exchange : {true, false}) {
    ExecutionOptions Base;
    Base.UseIndexExchange = Exchange;
    Base.Threads = 3;
    std::vector<Image> AstFused = poolWith(P, Input);
    runFused(FP, AstFused, Base);
    std::string Tag = std::string(borderModeName(GetParam())) +
                      (Exchange ? " exchange" : " naive");
    expectEveryConfigMatches(FP, Input, AstFused, Base, Tag + " vs runFused");
    if (Exchange)
      expectEveryConfigMatches(FP, Input, Unfused, Base,
                               Tag + " vs runUnfused");
    expectRingMatchesPerPixel(FP, Unfused, Exchange, Tag);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, BorderRingModes,
                         ::testing::ValuesIn(AllBorderModes),
                         [](const auto &Info) {
                           return std::string(borderModeName(Info.param));
                         });

TEST(BorderRing, WholeImageRingAndDegenerateExtents) {
  // The blur chain reaches 2 pixels: every one of these images is ring
  // only (no side exceeds 2 x halo), down to a single pixel and a single
  // row or column.
  for (auto [W, H] : {std::pair{1, 1}, std::pair{1, 9}, std::pair{9, 1},
                      std::pair{4, 4}, std::pair{3, 7}}) {
    for (BorderMode Mode : AllBorderModes) {
      Program P = makeBlurChain(W, H, Mode);
      setBorders(P, Mode);
      Rng Gen(5);
      Image Input = makeRandomImage(W, H, 1, Gen);
      FusedProgram FP =
          fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
      std::vector<Image> Unfused = poolWith(P, Input);
      runUnfused(P, Unfused);
      std::string Tag = std::to_string(W) + "x" + std::to_string(H) + " " +
                        borderModeName(Mode);
      ExecutionOptions Base;
      Base.Threads = 2;
      expectEveryConfigMatches(FP, Input, Unfused, Base, Tag);
      for (bool Exchange : {true, false})
        expectRingMatchesPerPixel(FP, Unfused, Exchange, Tag);
    }
  }
}

TEST(BorderRing, TilesSmallerThanTheHaloAndChunkBoundaries) {
  // Full-row tiles one pixel high put W ring pixels in each tile of the
  // top and bottom bands: 63, 64 and 65 exercise one partial chunk, one
  // full chunk, and a full chunk plus a one-pixel chunk. 1x1 tiles give a
  // ring count of 1; 1x2, 2x1 and 3x3 tiles are smaller than the fused
  // halo of 2 in at least one axis.
  for (int W : {VmLaneWidth - 1, VmLaneWidth, VmLaneWidth + 1}) {
    for (BorderMode Mode : {BorderMode::Mirror, BorderMode::Constant}) {
      Program P = makeBlurChain(W, 7, Mode);
      setBorders(P, Mode);
      Rng Gen(31);
      Image Input = makeRandomImage(W, 7, 1, Gen);
      FusedProgram FP =
          fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
      std::vector<Image> Unfused = poolWith(P, Input);
      runUnfused(P, Unfused);
      for (auto [TW, TH] : {std::pair{W, 1}, std::pair{1, 1},
                            std::pair{1, 2}, std::pair{2, 1},
                            std::pair{3, 3}}) {
        ExecutionOptions Base;
        Base.Threads = 3;
        Base.TileWidth = TW;
        Base.TileHeight = TH;
        expectEveryConfigMatches(
            FP, Input, Unfused, Base,
            std::string(borderModeName(Mode)) + " W=" + std::to_string(W) +
                " tile " + std::to_string(TW) + "x" + std::to_string(TH));
      }
    }
  }
}

TEST(BorderRing, ChunkStoresExactlyItsPixels) {
  // A chunk's lanes past Count (here: other pixels, as a reused chunk
  // buffer holds from its previous chunk) are neither stored nor allowed
  // to disturb the stored ones.
  Program P = makeBlurChain(24, 12, BorderMode::Constant);
  setBorders(P, BorderMode::Constant);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  const uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
  std::vector<Image> Pool = makeImagePool(P);
  Rng Gen(99);
  Pool[0] = makeRandomImage(24, 12, 1, Gen);
  std::vector<float> LaneRegs(static_cast<size_t>(SP.NumRegs) * VmLaneWidth);
  std::vector<float> Regs(SP.NumRegs);
  const float Sentinel = -12345.0f;

  for (int Count : {1, VmLaneWidth - 1, VmLaneWidth}) {
    // Pixel i of the chunk walks the image with a stride coprime to its
    // area, so lanes mix ring and interior pixels from every edge.
    int Xs[VmLaneWidth], Ys[VmLaneWidth];
    for (int I = 0; I != VmLaneWidth; ++I) {
      int Linear = (I * 37 + Count) % (24 * 12);
      Xs[I] = Linear % 24;
      Ys[I] = Linear / 24;
    }
    Image Out(24, 12, 1);
    std::fill(Out.data().begin(), Out.data().end(), Sentinel);
    runStagedVmRing(SP, Root, Pool, Xs, Ys, Count, 1, LaneRegs.data(),
                    Out.data().data(), 24);
    std::vector<char> Listed(24 * 12, 0);
    for (int I = 0; I != Count; ++I)
      Listed[Ys[I] * 24 + Xs[I]] = 1;
    for (int Y = 0; Y != 12; ++Y)
      for (int X = 0; X != 24; ++X) {
        float Want = Listed[Y * 24 + X]
                         ? runStagedVm(SP, Root, Pool, X, Y, 0, Regs.data())
                         : Sentinel;
        EXPECT_EQ(std::bit_cast<uint32_t>(Out.at(X, Y)),
                  std::bit_cast<uint32_t>(Want))
            << "count " << Count << " pixel (" << X << ", " << Y << ")";
      }
  }
}

TEST(BorderRing, NightSharesCrossChannelCallsBitExactly) {
  Program P = makeNight(40, 24);
  Rng Gen(8);
  Image Input = makeRandomImage(40, 24, 3, Gen);
  std::vector<Image> Unfused = poolWith(P, Input);
  runUnfused(P, Unfused);
  FusedProgram FP = fuseProgram(P, runMinCutFusion(P, HardwareModel()).Blocks,
                                FusionStyle::Optimized);

  // The atrous1+scoto launch's root reads atrous1 through both kinds of
  // root-level stage call: explicit channels (the luminance, shared by
  // the three destination channels) and the current channel (the blend).
  bool SawShared = false, SawPerChannel = false;
  forEachLaunch(FP, [&](const StagedVmProgram &SP, uint16_t Root,
                        const ImageInfo &, const std::string &) {
    for (const VmInst &Inst : SP.Stages[Root].Code.Insts)
      if (Inst.Op == VmOp::StageCall)
        (Inst.Channel >= 0 ? SawShared : SawPerChannel) = true;
  });
  EXPECT_TRUE(SawShared);
  EXPECT_TRUE(SawPerChannel);

  expectRingMatchesPerPixel(FP, Unfused, true, "night");
  ExecutionOptions Base;
  Base.Threads = 3;
  expectEveryConfigMatches(FP, Input, Unfused, Base, "night");
}

TEST(BorderRing, CrossChannelChainMatchesPerPixelAndUnfused) {
  for (BorderMode Mode : AllBorderModes) {
    Program P = makeCrossChannelChain(70, 9, Mode);
    Rng Gen(64);
    Image Input = makeRandomImage(70, 9, 3, Gen);
    FusedProgram FP =
        fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
    std::vector<Image> Unfused = poolWith(P, Input);
    runUnfused(P, Unfused);
    std::string Tag = std::string("crosschannel ") + borderModeName(Mode);
    for (bool Exchange : {true, false}) {
      ExecutionOptions Base;
      Base.UseIndexExchange = Exchange;
      Base.Threads = 2;
      std::vector<Image> AstFused = poolWith(P, Input);
      runFused(FP, AstFused, Base);
      expectEveryConfigMatches(FP, Input, AstFused, Base,
                               Tag + (Exchange ? " exchange" : " naive"));
      expectRingMatchesPerPixel(FP, Unfused, Exchange, Tag);
    }
    expectEveryConfigMatches(FP, Input, Unfused, ExecutionOptions(),
                             Tag + " vs runUnfused");
  }
}

TEST(BorderRing, SignedZeroAndSpecialValueInputs) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(Spec.Name == "night" ? 18 : 22, 16);
    const ImageInfo &In = P.image(0);
    FusedProgram FP = fuseProgram(
        P, runMinCutFusion(P, HardwareModel()).Blocks, FusionStyle::Optimized);
    for (bool Special : {false, true}) {
      Rng Gen(2024);
      Image Input =
          Special ? makeSpecialValueImage(In.Width, In.Height, In.Channels,
                                          Gen)
                  : makeSignedZeroImage(In.Width, In.Height, In.Channels, Gen);
      std::vector<Image> Unfused = poolWith(P, Input);
      runUnfused(P, Unfused);
      std::string Tag =
          Spec.Name + (Special ? " special values" : " signed zeros");
      expectRingMatchesPerPixel(FP, Unfused, true, Tag);
      // Signed zeros keep the [0, 1] input contract the optimizer's facts
      // assume; special values break it, so they run unoptimized. Every
      // value class must match runUnfused, but not every NaN's sign and
      // payload: the AST walker's are the host compiler's operand order
      // for commutative ops, so a NaN there only needs a NaN here.
      ExecutionOptions Base;
      Base.Threads = 2;
      if (Special) {
        for (VmMode Mode : {VmMode::Scalar, VmMode::Span, VmMode::Jit})
          for (TilingStrategy Tiling :
               {TilingStrategy::InteriorHalo, TilingStrategy::Overlapped}) {
            ExecutionOptions Options = Base;
            Options.Mode = Mode;
            Options.Tiling = Tiling;
            Options.Opt = OptMode::Off;
            std::vector<Image> Pool = poolWith(P, Input);
            runFusedVm(FP, Pool, Options);
            for (ImageId Id = 1; Id != P.numImages(); ++Id) {
              if (Pool[Id].empty())
                continue;
              EXPECT_EQ(countDifferencesButNaNs(Pool[Id], Unfused[Id]), 0)
                  << Tag << " mode=" << vmModeName(Mode)
                  << " tiling=" << tilingStrategyName(Tiling) << " image "
                  << P.image(Id).Name;
            }
          }
      } else {
        expectEveryConfigMatches(FP, Input, Unfused, Base, Tag);
      }
    }
  }
}

/// Whether the last lane of a narrow interior row \p Y (one chunk from
/// \p IA) reads inside a W x H image through a reach of \p Halo.
bool lastLaneInside(int W, int H, int Halo, int IA, int Y) {
  return static_cast<long long>(Y + Halo) * W + IA + Halo + VmLaneWidth - 1 <
         static_cast<long long>(W) * H;
}

TEST(BorderRing, NarrowInteriorsRunFullWidthDownToTheLaneRowBound) {
  // An interior narrower than a lane runs one whole chunk per row, whose
  // lanes past the row end read the rows below; laneRowsEnd hands the
  // rows whose last lane would read past the image to the border ring.
  // Each shape (the fused blur chain reaches 2) keeps some narrow rows
  // on the lane engines and sends the last ones to the ring; W = 67 is
  // one lane short of the widest narrow interior, W = 68 one lane wide.
  // 30 x 14 tiles make narrow interiors in a wide image; under
  // overlapped tiling the tiles and their planes are narrow too.
  struct Shape {
    int W, H, TileW, TileH;
  };
  for (const Shape &S : {Shape{8, 20, 0, 0}, Shape{48, 20, 0, 0},
                         Shape{63, 12, 0, 0}, Shape{67, 9, 0, 0},
                         Shape{68, 9, 0, 0}, Shape{100, 30, 30, 14}}) {
    for (BorderMode Mode : {BorderMode::Mirror, BorderMode::Constant}) {
      Program P = makeBlurChain(S.W, S.H, Mode);
      setBorders(P, Mode);
      Rng Gen(77);
      Image Input = makeRandomImage(S.W, S.H, 1, Gen);
      FusedProgram FP =
          fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
      const int Halo = 2;
      ASSERT_EQ(compileFusedKernel(FP, FP.Kernels[0]).Reach.back(), Halo);
      std::vector<Image> Unfused = poolWith(P, Input);
      runUnfused(P, Unfused);
      ExecutionOptions Base;
      Base.Threads = 3;
      Base.TileWidth = S.TileW;
      Base.TileHeight = S.TileH;
      const std::string Tag = std::to_string(S.W) + "x" +
                              std::to_string(S.H) + " " +
                              borderModeName(Mode);
      expectEveryConfigMatches(FP, Input, Unfused, Base, Tag);

      if (S.TileW != 0)
        continue;
      // The whole-image interior: full-width rows run, the last go to
      // the ring (a lane-wide interior keeps every row).
      const int IA = Halo, IB = S.W - Halo, JA = Halo, JB = S.H - Halo;
      const int End = laneRowsEnd(S.W, S.H, Halo, IA, IB, JA, JB);
      if (IB - IA >= VmLaneWidth) {
        EXPECT_EQ(End, JB) << Tag;
        continue;
      }
      EXPECT_GT(End, JA) << Tag;
      EXPECT_LT(End, JB) << Tag;
    }
  }

  // Three channels: gathers and cross-channel stage calls past the row
  // end.
  for (BorderMode Mode : AllBorderModes) {
    Program P = makeCrossChannelChain(30, 12, Mode);
    Rng Gen(78);
    Image Input = makeRandomImage(30, 12, 3, Gen);
    FusedProgram FP =
        fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
    std::vector<Image> Unfused = poolWith(P, Input);
    runUnfused(P, Unfused);
    ExecutionOptions Base;
    Base.Threads = 2;
    expectEveryConfigMatches(FP, Input, Unfused, Base,
                             std::string("crosschannel 30x12 ") +
                                 borderModeName(Mode));
  }

  // The bound is tight wherever it cuts: the first row sent to the ring
  // would read past the image, the last row kept would not.
  for (int W = 1; W <= 70; W += 3)
    for (int H : {1, 2, 5, 9, 33})
      for (int Halo : {0, 1, 2, 4})
        for (int IA = Halo; IA < W - Halo; IA += 5) {
          const int IB = std::min(W - Halo, IA + 7), JA = Halo,
                    JB = std::max(JA, H - Halo);
          const int End = laneRowsEnd(W, H, Halo, IA, IB, JA, JB);
          const std::string Tag = std::to_string(W) + "x" +
                                  std::to_string(H) + " halo " +
                                  std::to_string(Halo) + " ia " +
                                  std::to_string(IA);
          ASSERT_GE(End, JA) << Tag;
          ASSERT_LE(End, JB) << Tag;
          if (End > JA) {
            EXPECT_TRUE(lastLaneInside(W, H, Halo, IA, End - 1)) << Tag;
          }
          if (End < JB) {
            EXPECT_FALSE(lastLaneInside(W, H, Halo, IA, End)) << Tag;
          }
        }
}

} // namespace
