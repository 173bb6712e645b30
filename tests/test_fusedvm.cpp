//===- tests/test_fusedvm.cpp - Staged VM vs AST fused execution ----------------===//
//
// The staged bytecode VM (compileFusedKernel / runFusedVm) must be
// bit-identical to the AST fused walker (runFused) -- including the halo
// region, where the index-exchange method of Section IV-B applies -- on
// every bundled pipeline, at every thread count. The AST walker is the
// semantic reference; these tests are what lets the benchmarks trust the
// fast path.
//
//===----------------------------------------------------------------------===//

#include "EngineConfigs.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "support/ThreadPool.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <thread>

using namespace kf;

namespace {

/// Fuses the whole program into one block (forces local-to-local fusion
/// regardless of the benefit model).
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
  int W = Name == "night" ? 18 : 22;
  TestApp App{Spec->Builder(W, 16), Image()};
  const ImageInfo &InInfo = App.P.image(0);
  Rng Gen(321);
  App.Input =
      makeRandomImage(InInfo.Width, InInfo.Height, InInfo.Channels, Gen);
  return App;
}

/// Staged-VM equivalence across the bundled applications, fused with the
/// paper's min-cut partition under the default (paper) hardware model.
class FusedVmEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(FusedVmEquivalence, MatchesAstReferenceOnMinCutPartition) {
  TestApp App = makeTestApp(GetParam());
  Partition Blocks = runMinCutFusion(App.P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(App.P, Blocks, FusionStyle::Optimized);

  std::vector<Image> Reference = makeImagePool(App.P);
  Reference[0] = App.Input;
  runFused(FP, Reference);

  std::vector<Image> VmPool = makeImagePool(App.P);
  VmPool[0] = App.Input;
  runFusedVm(FP, VmPool);

  expectPoolsIdentical(App.P, VmPool, Reference, GetParam());
}

TEST_P(FusedVmEquivalence, UnfusedVmDriverMatchesAstReference) {
  TestApp App = makeTestApp(GetParam());

  std::vector<Image> Reference = makeImagePool(App.P);
  Reference[0] = App.Input;
  runUnfused(App.P, Reference);

  ExecutionOptions Options;
  Options.Threads = 2;
  std::vector<Image> VmPool = makeImagePool(App.P);
  VmPool[0] = App.Input;
  runFusedVm(unfusedProgram(App.P), VmPool, Options);

  expectPoolsIdentical(App.P, VmPool, Reference, GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, FusedVmEquivalence,
                         ::testing::Values("harris", "sobel", "unsharp",
                                           "shitomasi", "enhance",
                                           "night"),
                         [](const auto &Info) { return Info.param; });

/// Border-mode sweep: the staged VM must reproduce the AST walker exactly
/// in the halo for every border mode and engine configuration, both with
/// the correct index exchange and in the deliberately-incorrect naive
/// mode of Figure 4b.
class FusedVmBorder : public ::testing::TestWithParam<BorderMode> {};

TEST_P(FusedVmBorder, BlurChainMatchesAstWithAndWithoutExchange) {
  BorderMode Mode = GetParam();
  Program P = makeBlurChain(20, 14, Mode);
  Rng Gen(77);
  Image Input = makeRandomImage(20, 14, 1, Gen);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);

  for (bool Exchange : {true, false}) {
    ExecutionOptions Base;
    Base.UseIndexExchange = Exchange;

    std::vector<Image> Reference = makeImagePool(P);
    Reference[0] = Input;
    runFused(FP, Reference, Base);

    forEachEngineConfig(Base, [&](const ExecutionOptions &Options,
                                  const std::string &Config) {
      std::vector<Image> VmPool = makeImagePool(P);
      VmPool[0] = Input;
      runFusedVm(FP, VmPool, Options);

      EXPECT_DOUBLE_EQ(maxAbsDifference(VmPool[2], Reference[2]), 0.0)
          << borderModeName(Mode)
          << (Exchange ? " (index exchange) " : " (naive) ") << Config;
    });
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, FusedVmBorder,
                         ::testing::Values(BorderMode::Clamp,
                                           BorderMode::Mirror,
                                           BorderMode::Repeat,
                                           BorderMode::Constant),
                         [](const auto &Info) {
                           return std::string(borderModeName(Info.param));
                         });

TEST(FusedVm, Figure4ValuesThroughTheStagedVm) {
  // The staged VM reproduces the paper's Figure 4 numbers: 992 in the
  // body, 763 at the corner with index exchange, 684 without (the naive
  // border fusion the paper warns about; see test_executor.cpp for why
  // 684 rather than the printed 648).
  Program P = makeFigure4Program();
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);

  std::vector<Image> Pool = makeImagePool(P);
  Pool[0] = makeFigure4Matrix();
  runFusedVm(FP, Pool);
  EXPECT_FLOAT_EQ(Pool[2].at(2, 2), 992.0f);
  EXPECT_FLOAT_EQ(Pool[2].at(0, 0), 763.0f);

  ExecutionOptions Naive;
  Naive.UseIndexExchange = false;
  std::vector<Image> NaivePool = makeImagePool(P);
  NaivePool[0] = makeFigure4Matrix();
  runFusedVm(FP, NaivePool, Naive);
  EXPECT_FLOAT_EQ(NaivePool[2].at(2, 2), 992.0f);
  EXPECT_FLOAT_EQ(NaivePool[2].at(0, 0), 684.0f);
}

TEST(FusedVm, CompiledKernelExposesStagesAndReach) {
  Program P = makeBlurChain(16, 16, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  ASSERT_EQ(FP.Kernels.size(), 1u);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);

  ASSERT_EQ(SP.Stages.size(), 2u);
  EXPECT_TRUE(SP.UniformExtents);
  ASSERT_EQ(SP.Reach.size(), 2u);
  // Stage 0 is a lone 3x3 convolution (reach 1); stage 1 recomputes it
  // per window element, growing the footprint to 2 -- Eq. 9's grown
  // window.
  EXPECT_EQ(SP.Reach[0], 1);
  EXPECT_EQ(SP.Reach[1], 2);

  // The consumer's subprogram reads the producer through stage calls,
  // not pool loads.
  unsigned Calls = 0;
  for (const VmInst &Inst : SP.Stages[1].Code.Insts)
    if (Inst.Op == VmOp::StageCall) {
      ++Calls;
      EXPECT_EQ(Inst.Sel, 0u);
    }
  EXPECT_EQ(Calls, 9u);
}

TEST(FusedVm, RowEvaluationMatchesPerPixel) {
  Program P = makeBlurChain(24, 12, BorderMode::Mirror);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);

  std::vector<Image> Pool = makeImagePool(P);
  Rng Gen(11);
  Pool[0] = makeRandomImage(24, 12, 1, Gen);

  int Halo = SP.Reach[Root];
  int X0 = Halo, X1 = 24 - Halo, Y = 5;
  std::vector<float> LaneRegs(static_cast<size_t>(SP.NumRegs) * VmLaneWidth);
  std::vector<float> Regs(SP.NumRegs);
  std::vector<float> Row(X1 - X0);
  runStagedVmSpan(SP, Root, Pool, Y, X0, X1, 0, LaneRegs.data(), Row.data());
  for (int X = X0; X != X1; ++X)
    EXPECT_FLOAT_EQ(Row[X - X0],
                    runStagedVm(SP, Root, Pool, X, Y, 0, Regs.data()))
        << "x=" << X;
}

/// Thread-count invariance: every engine is bit-identical at 1, 3, and
/// hardware-concurrency threads (pixels are pure functions of the
/// inputs; tiles write disjoint regions).
TEST(FusedVm, ThreadCountInvariance) {
  TestApp App = makeTestApp("harris");
  Partition Blocks = runMinCutFusion(App.P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(App.P, Blocks, FusionStyle::Optimized);

  unsigned Hardware = std::max(std::thread::hardware_concurrency(), 1u);
  std::vector<int> Counts{1, 3, static_cast<int>(Hardware)};

  std::vector<std::vector<Image>> FusedRuns, UnfusedVmRuns, UnfusedRuns;
  for (int Threads : Counts) {
    ExecutionOptions Options;
    Options.Threads = Threads;
    Options.TileHeight = 3; // Force multiple tiles even on small images.

    std::vector<Image> A = makeImagePool(App.P);
    A[0] = App.Input;
    runFusedVm(FP, A, Options);
    FusedRuns.push_back(std::move(A));

    std::vector<Image> B = makeImagePool(App.P);
    B[0] = App.Input;
    runFusedVm(unfusedProgram(App.P), B, Options);
    UnfusedVmRuns.push_back(std::move(B));

    std::vector<Image> C = makeImagePool(App.P);
    C[0] = App.Input;
    runUnfused(App.P, C, Options);
    UnfusedRuns.push_back(std::move(C));
  }

  for (size_t I = 1; I != Counts.size(); ++I) {
    std::string Tag = "threads=" + std::to_string(Counts[I]);
    expectPoolsIdentical(App.P, FusedRuns[I], FusedRuns[0],
                         "runFusedVm " + Tag);
    expectPoolsIdentical(App.P, UnfusedVmRuns[I], UnfusedVmRuns[0],
                         "unfused runFusedVm " + Tag);
    expectPoolsIdentical(App.P, UnfusedRuns[I], UnfusedRuns[0],
                         "runUnfused " + Tag);
  }
}

} // namespace
