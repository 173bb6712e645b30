//===- tests/test_misc_coverage.cpp - Cross-cutting edge cases ------------------===//
//
// Edge paths not owned by a single module's test file: Algorithm 1 trace
// invariants, serializer corner cases, constant-border fused execution,
// cost-model boundary behaviour, and partition utilities.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "frontend/Serializer.h"
#include "fusion/MinCutPartitioner.h"
#include "graph/MinCut.h"
#include "ir/Verifier.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "pipelines/Pipelines.h"
#include "sim/CostModel.h"
#include "sim/Executor.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace kf;

namespace {

HardwareModel paperModel() { return HardwareModel(); }

TEST(TraceInvariants, CutsFormABinaryTreeOverTheDag) {
  // Every split step's sides partition the block it split; every block
  // examined is either the root or a side of an earlier split.
  Program P = makeHarris(32, 32);
  MinCutFusionResult Result = runMinCutFusion(P, paperModel());
  std::vector<std::vector<KernelId>> Expected;
  std::vector<KernelId> Root(P.numKernels());
  for (KernelId Id = 0; Id != P.numKernels(); ++Id)
    Root[Id] = Id;
  Expected.push_back(Root);

  for (const FusionTraceStep &Step : Result.Trace) {
    std::vector<KernelId> Block = Step.Block;
    std::sort(Block.begin(), Block.end());
    bool Known = false;
    for (const auto &E : Expected)
      Known |= E == Block;
    EXPECT_TRUE(Known) << "unexpected block in trace";
    if (Step.Accepted)
      continue;
    // Sides partition the block.
    std::vector<KernelId> Union = Step.SideA;
    Union.insert(Union.end(), Step.SideB.begin(), Step.SideB.end());
    std::sort(Union.begin(), Union.end());
    EXPECT_EQ(Union, Block);
    std::vector<KernelId> A = Step.SideA, B = Step.SideB;
    std::sort(A.begin(), A.end());
    std::sort(B.begin(), B.end());
    Expected.push_back(A);
    Expected.push_back(B);
  }
}

TEST(TraceInvariants, AcceptedBlocksEqualFinalPartition) {
  Program P = makeShiTomasi(32, 32);
  MinCutFusionResult Result = runMinCutFusion(P, paperModel());
  Partition FromTrace;
  for (const FusionTraceStep &Step : Result.Trace)
    if (Step.Accepted)
      FromTrace.Blocks.push_back(PartitionBlock{Step.Block});
  EXPECT_TRUE(FromTrace == Result.Blocks);
}

TEST(PartitionUtils, BlockOfAndFusedCount) {
  Program P = makeNight(16, 16);
  MinCutFusionResult Result = runMinCutFusion(P, paperModel());
  const Partition &S = Result.Blocks;
  EXPECT_EQ(S.numFusedBlocks(), 1u);
  int AtrousBlock = S.blockOf(0);
  int FusedBlock = S.blockOf(1);
  EXPECT_EQ(S.blockOf(2), FusedBlock);
  EXPECT_NE(AtrousBlock, FusedBlock);
  EXPECT_EQ(S.blockOf(99), -1);
}

TEST(PartitionUtils, SingletonPartitionProperties) {
  Program P = makeSobel(16, 16);
  Partition S = makeSingletonPartition(P);
  EXPECT_EQ(S.Blocks.size(), 3u);
  EXPECT_EQ(S.numFusedBlocks(), 0u);
  EXPECT_EQ(validatePartition(P, S), "");
  EXPECT_EQ(partitionToString(P, S), "{dx} {dy} {mag}");
}

TEST(Serializer, ConstantBorderValueRoundTrips) {
  Program P("cborder");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  int M = P.addMask(Mask::uniform(3, 3, 1.0f / 9.0f));
  Kernel K;
  K.Name = "box";
  K.Kind = OperatorKind::Local;
  K.Inputs = {In};
  K.Output = Out;
  K.Body = C.stencil(M, ReduceOp::Sum,
                     C.mul(C.maskValue(), C.stencilInput(0)));
  K.Border = BorderMode::Constant;
  K.BorderConstant = 0.3125f; // Exactly representable.
  P.addKernel(std::move(K));

  ParseResult Round = parsePipelineText(serializeProgram(P));
  ASSERT_TRUE(Round.success())
      << (Round.Errors.empty() ? "?" : Round.Errors.front());
  EXPECT_EQ(Round.Prog->kernel(0).Border, BorderMode::Constant);
  EXPECT_FLOAT_EQ(Round.Prog->kernel(0).BorderConstant, 0.3125f);
}

TEST(Serializer, GranularityRoundTrips) {
  Program P("gran");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  Kernel K;
  K.Name = "k";
  K.Kind = OperatorKind::Point;
  K.Inputs = {In};
  K.Output = Out;
  K.Body = C.inputAt(0);
  K.Granularity = 4;
  P.addKernel(std::move(K));
  ParseResult Round = parsePipelineText(serializeProgram(P));
  ASSERT_TRUE(Round.success());
  EXPECT_EQ(Round.Prog->kernel(0).Granularity, 4);
}

TEST(Executor, ConstantBorderFusedChainUsesConsumerConstant) {
  // Constant-border local-to-local fusion: exterior window accesses to
  // the eliminated intermediate must yield the *consumer's* constant,
  // exactly like the unfused reference.
  Program P = makeBlurChain(10, 10, BorderMode::Constant);
  // Give the two kernels different constants to catch mixups.
  P.kernel(0).BorderConstant = 2.0f;
  P.kernel(1).BorderConstant = 5.0f;

  std::vector<Image> Reference = makeImagePool(P);
  Rng Gen(6);
  Reference[0] = makeRandomImage(10, 10, 1, Gen);
  runUnfused(P, Reference);

  Partition Whole;
  Whole.Blocks.push_back(PartitionBlock{{0, 1}});
  FusedProgram FP = fuseProgram(P, Whole, FusionStyle::Optimized);
  std::vector<Image> Pool = makeImagePool(P);
  Pool[0] = Reference[0];
  runFused(FP, Pool);
  EXPECT_DOUBLE_EQ(maxAbsDifference(Pool[2], Reference[2]), 0.0);
}

TEST(Executor, ExplicitChannelAccessAcrossChannels) {
  // A gray output computed from explicit channels of an RGB input.
  Program P("luma");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", 6, 6, 3);
  ImageId Out = P.addImage("out", 6, 6, 1);
  Kernel K;
  K.Name = "luma";
  K.Kind = OperatorKind::Point;
  K.Inputs = {In};
  K.Output = Out;
  K.Body = C.add(C.add(C.mul(C.floatConst(0.25f), C.inputAt(0, 0, 0, 0)),
                       C.mul(C.floatConst(0.5f), C.inputAt(0, 0, 0, 1))),
                 C.mul(C.floatConst(0.25f), C.inputAt(0, 0, 0, 2)));
  P.addKernel(std::move(K));
  verifyProgramOrDie(P);

  std::vector<Image> Pool = makeImagePool(P);
  Image Rgb(6, 6, 3);
  Rgb.at(2, 3, 0) = 0.4f;
  Rgb.at(2, 3, 1) = 0.8f;
  Rgb.at(2, 3, 2) = 0.0f;
  Pool[0] = Rgb;
  runUnfused(P, Pool);
  EXPECT_FLOAT_EQ(Pool[1].at(2, 3), 0.25f * 0.4f + 0.5f * 0.8f);
}

TEST(CostModel, LaunchOccupancyIsClampedAndPositive) {
  DeviceSpec Device = DeviceSpec::gtx745();
  CostModelParams Params;
  LaunchStats ZeroShared;
  double Occ = launchOccupancy(ZeroShared, Device, Params);
  EXPECT_GT(Occ, 0.0);
  EXPECT_LE(Occ, 1.0);
  LaunchStats Monster;
  Monster.SharedBytesPerBlock = 47.0 * 1024.0; // One block at most.
  EXPECT_GT(launchOccupancy(Monster, Device, Params), 0.0);
}

TEST(CostModel, EmptyLaunchCostsNothingButOverhead) {
  DeviceSpec Device = DeviceSpec::gtx680();
  CostModelParams Params;
  LaunchStats Empty;
  EXPECT_DOUBLE_EQ(estimateLaunchTimeMs(Empty, Device, Params), 0.0);
}

TEST(CostModel, NumStagesReported) {
  Program P = makeUnsharp(32, 32);
  MinCutFusionResult Fusion = runMinCutFusion(P, paperModel());
  FusedProgram FP = fuseProgram(P, Fusion.Blocks, FusionStyle::Optimized);
  ProgramStats Stats = accountFusedProgram(FP);
  ASSERT_EQ(Stats.Launches.size(), 1u);
  EXPECT_EQ(Stats.Launches[0].NumStages, 4u);
  EXPECT_EQ(Stats.Launches[0].OutputPixels, 32 * 32);
}

TEST(Digraph, ParallelEdgesAccumulateInMinCutMatrix) {
  Digraph G;
  G.addNode("a");
  G.addNode("b");
  G.addEdge(0, 1, 2.0);
  G.addEdge(0, 1, 3.0); // Parallel edge.
  auto W = buildUndirectedWeights(G, {0, 1});
  EXPECT_DOUBLE_EQ(W[0][1], 5.0);
  EXPECT_DOUBLE_EQ(W[1][0], 5.0);
}

TEST(Fuser, TileShapeChangesSharedTileMultiplicity) {
  Program P = makeBlurChain(32, 32, BorderMode::Clamp);
  Partition Whole;
  Whole.Blocks.push_back(PartitionBlock{{0, 1}});
  FusedProgram Small =
      fuseProgram(P, Whole, FusionStyle::Optimized, TileShape{16, 2});
  FusedProgram Large =
      fuseProgram(P, Whole, FusionStyle::Optimized, TileShape{64, 16});
  // Smaller blocks pay proportionally more halo per pixel.
  EXPECT_GT(Small.Kernels[0].Stages[0].Multiplicity,
            Large.Kernels[0].Stages[0].Multiplicity);
}

TEST(Verifier, GlobalKernelsPassStructuralChecks) {
  // Global (reduction) operators are representable and verify, they just
  // never fuse.
  Program P("glob");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  Kernel K;
  K.Name = "reduce";
  K.Kind = OperatorKind::Global;
  K.Inputs = {In};
  K.Output = Out;
  K.Body = C.inputAt(0);
  P.addKernel(std::move(K));
  DiagnosticEngine DE;
  verifyProgram(P, DE);
  EXPECT_TRUE(DE.empty()) << DE.renderText();
}

} // namespace
