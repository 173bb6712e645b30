//===- tests/test_fusion_partitioners.cpp - Algorithm 1 & friends -------------===//
//
// Validates the recursive min-cut fusion algorithm (Algorithm 1) against
// the paper's Figure 3 walk-through, the basic pairwise fusion of prior
// work against the behaviour Table I describes per application, and the
// greedy/exhaustive partitioners on small graphs.
//
//===----------------------------------------------------------------------===//

#include "fusion/BasicFusion.h"
#include "fusion/ExhaustivePartitioner.h"
#include "fusion/GreedyPartitioner.h"
#include "fusion/MinCutPartitioner.h"
#include "pipelines/Pipelines.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

using namespace kf;

namespace {

HardwareModel paperModel() {
  HardwareModel HW;
  HW.GlobalAccessCycles = 400.0;
  HW.SharedAccessCycles = 4.0;
  HW.AluCost = 4.0;
  HW.SfuCost = 16.0;
  HW.SharedMemThreshold = 2.0;
  return HW;
}

/// The set-of-name-sets view of a partition, for readable comparisons.
std::set<std::set<std::string>> namedBlocks(const Program &P,
                                            const Partition &S) {
  std::set<std::set<std::string>> Result;
  for (const PartitionBlock &B : S.Blocks) {
    std::set<std::string> Names;
    for (KernelId Id : B.Kernels)
      Names.insert(P.kernel(Id).Name);
    Result.insert(std::move(Names));
  }
  return Result;
}

TEST(MinCutFusion, HarrisReproducesFigure3Partition) {
  Program P = makeHarris(64, 64);
  MinCutFusionResult Result = runMinCutFusion(P, paperModel());

  std::set<std::set<std::string>> Expected = {
      {"dx"}, {"dy"}, {"sx", "gx"}, {"sy", "gy"}, {"sxy", "gxy"}, {"hc"}};
  EXPECT_EQ(namedBlocks(P, Result.Blocks), Expected);

  // Total benefit: 328 + 328 + 256 = 912 cycles per pixel.
  EXPECT_DOUBLE_EQ(Result.TotalBenefit, 912.0);

  // The partition is valid per Section II-A (disjoint cover).
  EXPECT_EQ(validatePartition(P, Result.Blocks), "");
}

TEST(MinCutFusion, HarrisFirstIterationMatchesPaper) {
  Program P = makeHarris(64, 64);
  HardwareModel HW = paperModel();
  MinCutFusionResult Result = runMinCutFusion(P, HW);

  ASSERT_FALSE(Result.Trace.empty());
  const FusionTraceStep &First = Result.Trace.front();
  // Iteration 1 examines the whole nine-kernel DAG, finds it illegal
  // (shared-memory constraint), and cuts with weight 2 * epsilon.
  EXPECT_EQ(First.Block.size(), 9u);
  EXPECT_FALSE(First.Accepted);
  EXPECT_NE(First.Reason.find("shared memory"), std::string::npos);
  EXPECT_NEAR(First.CutWeight, 2.0 * HW.Epsilon, 1e-12);
}

TEST(MinCutFusion, HarrisFullGraphSharedRatioIsFive) {
  // "In total, the memory consumption increases five times if all those
  // kernels would be fused to one."
  Program P = makeHarris(64, 64);
  LegalityChecker Checker(P, paperModel());
  std::vector<KernelId> All;
  for (KernelId Id = 0; Id != P.numKernels(); ++Id)
    All.push_back(Id);
  EXPECT_DOUBLE_EQ(Checker.sharedMemoryRatio(All), 5.0);
}

TEST(MinCutFusion, SobelFusesAllThreeKernels) {
  Program P = makeSobel(64, 64);
  MinCutFusionResult Result = runMinCutFusion(P, paperModel());
  std::set<std::set<std::string>> Expected = {{"dx", "dy", "mag"}};
  EXPECT_EQ(namedBlocks(P, Result.Blocks), Expected);
}

TEST(MinCutFusion, UnsharpFusesIntoSingleKernel) {
  // The shared-input DAG (Figure 2b) aggregates into one kernel -- the
  // headline win over prior work.
  Program P = makeUnsharp(64, 64);
  MinCutFusionResult Result = runMinCutFusion(P, paperModel());
  EXPECT_EQ(Result.Blocks.Blocks.size(), 1u);
  EXPECT_EQ(Result.Blocks.Blocks.front().Kernels.size(), 4u);
}

TEST(MinCutFusion, EnhancementFusesWholeChain) {
  Program P = makeEnhancement(64, 64);
  MinCutFusionResult Result = runMinCutFusion(P, paperModel());
  std::set<std::set<std::string>> Expected = {{"gmean", "gamma", "stretch"}};
  EXPECT_EQ(namedBlocks(P, Result.Blocks), Expected);
}

TEST(MinCutFusion, NightFusesOnlyAtrous1WithScoto) {
  Program P = makeNight(64, 64);
  MinCutFusionResult Result = runMinCutFusion(P, paperModel());
  std::set<std::set<std::string>> Expected = {{"atrous0"},
                                              {"atrous1", "scoto"}};
  EXPECT_EQ(namedBlocks(P, Result.Blocks), Expected);
}

TEST(MinCutFusion, ShiTomasiMatchesHarrisStructure) {
  Program P = makeShiTomasi(64, 64);
  MinCutFusionResult Result = runMinCutFusion(P, paperModel());
  std::set<std::set<std::string>> Expected = {
      {"dx"}, {"dy"}, {"sx", "gx"}, {"sy", "gy"}, {"sxy", "gxy"}, {"st"}};
  EXPECT_EQ(namedBlocks(P, Result.Blocks), Expected);
}

TEST(MinCutFusion, AllPointPipelineFusesAtOnce) {
  // "if all the kernels are point operators and no shared memory is used,
  // the proposed algorithm would identify a legal fusion at the beginning
  // and the whole graph would be fused into one kernel."
  Program P = makePointChain(32, 32, 6, 8);
  MinCutFusionResult Result = runMinCutFusion(P, paperModel());
  EXPECT_EQ(Result.Blocks.Blocks.size(), 1u);
  ASSERT_EQ(Result.Trace.size(), 1u);
  EXPECT_TRUE(Result.Trace.front().Accepted);
}

TEST(BasicFusion, HarrisFusesTheThreePointToLocalPairs) {
  Program P = makeHarris(64, 64);
  BasicFusionResult Result = runBasicFusion(P, paperModel());
  std::set<std::set<std::string>> Expected = {
      {"dx"}, {"dy"}, {"sx", "gx"}, {"sy", "gy"}, {"sxy", "gxy"}, {"hc"}};
  EXPECT_EQ(namedBlocks(P, Result.Blocks), Expected);
}

TEST(BasicFusion, RejectsSobelEntirely) {
  // "The filter Sobel ... rejected by the basic kernel fusion algorithm"
  // (mag has two inputs: a shared-input shape).
  Program P = makeSobel(64, 64);
  BasicFusionResult Result = runBasicFusion(P, paperModel());
  EXPECT_EQ(Result.Blocks.numFusedBlocks(), 0u);
}

TEST(BasicFusion, RejectsUnsharpEntirely) {
  Program P = makeUnsharp(64, 64);
  BasicFusionResult Result = runBasicFusion(P, paperModel());
  EXPECT_EQ(Result.Blocks.numFusedBlocks(), 0u);
}

TEST(BasicFusion, EnhancementFusesOnlyOnePair) {
  // Pairwise only: {gmean, gamma} fuse, stretch stays separate, unlike the
  // optimized whole-chain fusion.
  Program P = makeEnhancement(64, 64);
  BasicFusionResult Result = runBasicFusion(P, paperModel());
  std::set<std::set<std::string>> Expected = {{"gmean", "gamma"},
                                              {"stretch"}};
  EXPECT_EQ(namedBlocks(P, Result.Blocks), Expected);
}

TEST(BasicFusion, NightMatchesOptimizedPartition) {
  // Table I: optimized over basic is 1.000 on Night -- both find exactly
  // {atrous1, scoto}.
  Program P = makeNight(64, 64);
  BasicFusionResult Basic = runBasicFusion(P, paperModel());
  MinCutFusionResult Optimized = runMinCutFusion(P, paperModel());
  EXPECT_EQ(namedBlocks(P, Basic.Blocks), namedBlocks(P, Optimized.Blocks));
}

TEST(BasicFusion, NeverExceedsOptimizedBenefit) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 64);
    BasicFusionResult Basic = runBasicFusion(P, paperModel());
    MinCutFusionResult Optimized = runMinCutFusion(P, paperModel());
    EXPECT_LE(Basic.TotalBenefit, Optimized.TotalBenefit)
        << "pipeline: " << Spec.Name;
  }
}

TEST(GreedyFusion, MissesSobelThatMinCutFinds) {
  // Greedy heaviest-edge grouping merges along beneficial edges; every
  // Sobel edge is pairwise-illegal (epsilon), so greedy finds nothing
  // while the min-cut formulation fuses the whole DAG.
  Program P = makeSobel(64, 64);
  GreedyFusionResult Greedy = runGreedyFusion(P, paperModel());
  MinCutFusionResult Optimized = runMinCutFusion(P, paperModel());
  EXPECT_EQ(Greedy.Blocks.numFusedBlocks(), 0u);
  EXPECT_EQ(Optimized.Blocks.Blocks.size(), 1u);
}

TEST(GreedyFusion, MatchesMinCutWhereEdgesAreBeneficial) {
  // On pipelines whose fusible edges carry positive weights the greedy
  // grouping reaches the same objective as the min-cut search.
  for (const char *Name : {"harris", "shitomasi", "enhance", "night"}) {
    const PipelineSpec *Spec = findPipeline(Name);
    ASSERT_NE(Spec, nullptr);
    Program P = Spec->Builder(64, 64);
    GreedyFusionResult Greedy = runGreedyFusion(P, paperModel());
    MinCutFusionResult Optimized = runMinCutFusion(P, paperModel());
    EXPECT_DOUBLE_EQ(Greedy.TotalBenefit, Optimized.TotalBenefit)
        << "pipeline: " << Name;
  }
}

TEST(ExhaustiveFusion, MinCutIsOptimalOnThePaperPipelines) {
  // Algorithm 1 is a heuristic (min-weight k-cut is NP-complete), but on
  // all six evaluation pipelines it attains the optimal objective.
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 64);
    ExhaustiveFusionResult Optimal = runExhaustiveFusion(P, paperModel());
    MinCutFusionResult MinCut = runMinCutFusion(P, paperModel());
    EXPECT_DOUBLE_EQ(MinCut.TotalBenefit, Optimal.TotalBenefit)
        << "pipeline: " << Spec.Name;
    EXPECT_LE(MinCut.TotalBenefit, Optimal.TotalBenefit + 1e-9);
  }
}

TEST(ExhaustiveFusion, ExaminesBellNumberOfPartitions) {
  Program P = makePointChain(16, 16, 4, 4);
  ExhaustiveFusionResult Result = runExhaustiveFusion(P, paperModel());
  // Bell(4) = 15 set partitions.
  EXPECT_EQ(Result.PartitionsExamined, 15ull);
}

TEST(PartitionInvariants, MinCutAlwaysYieldsValidPartitions) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 64);
    MinCutFusionResult Result = runMinCutFusion(P, paperModel());
    EXPECT_EQ(validatePartition(P, Result.Blocks), "")
        << "pipeline: " << Spec.Name;
    // Every accepted multi-kernel block must be legal.
    LegalityChecker Checker(P, paperModel());
    for (const PartitionBlock &B : Result.Blocks.Blocks)
      EXPECT_TRUE(Checker.checkBlock(B.Kernels).Legal)
          << "pipeline: " << Spec.Name;
  }
}

/// FNV-1a over 64-bit words: a digest of everything Algorithm 1 decided.
struct TraceDigest {
  uint64_t Hash = 0xcbf29ce484222325ull;
  uint64_t Cuts = 0;

  void add(uint64_t Word) {
    for (int Byte = 0; Byte != 8; ++Byte) {
      Hash ^= (Word >> (8 * Byte)) & 0xff;
      Hash *= 0x100000001b3ull;
    }
  }
  void add(const std::vector<KernelId> &Ids) {
    add(Ids.size());
    for (KernelId Id : Ids)
      add(Id);
  }
  /// Every step's block, verdict, cut weight (bit pattern) and sides.
  void add(const MinCutFusionResult &Result) {
    add(Result.Trace.size());
    for (const FusionTraceStep &Step : Result.Trace) {
      add(Step.Block);
      add(Step.Accepted);
      add(std::bit_cast<uint64_t>(Step.CutWeight));
      add(Step.SideA);
      add(Step.SideB);
      Cuts += !Step.Accepted;
    }
  }
};

TEST(MinCutTrace, DigestOverRegistryAndRandomPipelinesIsPinned) {
  // Pins every cut Algorithm 1 makes -- which block, which sides, the
  // exact weight bits -- on the registry pipelines (under the default and
  // the paper's hardware model) and on random pipelines of 8-64 kernels
  // shaped like the compile workload's requests. A change to the minimum
  // cut or the partitioner that moves any tie-break changes the digest.
  TraceDigest Digest;
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.build();
    Digest.add(runMinCutFusion(P, HardwareModel()));
    Digest.add(runMinCutFusion(P, paperModel()));
  }
  for (unsigned NumKernels = 8; NumKernels <= 64; ++NumKernels) {
    Rng Gen(1000 + NumKernels);
    Program P = makeRandomPipeline(NumKernels, 0.4, 48, 48, Gen);
    Digest.add(runMinCutFusion(P, HardwareModel()));
  }
  EXPECT_EQ(Digest.Cuts, 1732u);
  EXPECT_EQ(Digest.Hash, 0x230998d02d482d57ull);
}

} // namespace
