//===- tests/test_property_random.cpp - Randomized properties -------------------===//
//
// Property-based testing over randomly generated pipelines: for arbitrary
// DAG-shaped programs, Algorithm 1 must produce valid, legal partitions,
// the fuser must materialize them, and fused execution must equal the
// unfused baseline exactly -- the core soundness property of the system.
// All randomness is seeded; failures reproduce deterministically.
//
//===----------------------------------------------------------------------===//

#include "EngineConfigs.h"
#include "frontend/Parser.h"
#include "frontend/Serializer.h"
#include "fusion/BasicFusion.h"
#include "fusion/ExhaustivePartitioner.h"
#include "fusion/GreedyPartitioner.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "ir/Verifier.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "sim/Session.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

using namespace kf;

namespace {

HardwareModel paperModel() {
  HardwareModel HW;
  HW.SharedMemThreshold = 2.0;
  return HW;
}

/// One randomized soundness round, parameterized by seed.
class RandomPipelineProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomPipelineProperty, MinCutPartitionIsValidLegalAndExact) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  Rng Gen(Seed * 1000003 + 17);
  unsigned NumKernels = 3 + static_cast<unsigned>(Gen.nextBelow(10));
  double LocalFraction = Gen.uniform(0.0, 0.7);
  Program P = makeRandomPipeline(NumKernels, LocalFraction, 16, 12, Gen);
  DiagnosticEngine DE;
  verifyProgram(P, DE);
  ASSERT_TRUE(DE.empty()) << DE.renderText();

  HardwareModel HW = paperModel();
  MinCutFusionResult Result = runMinCutFusion(P, HW);

  // Partition invariants of Section II-A.
  ASSERT_EQ(validatePartition(P, Result.Blocks), "");
  LegalityChecker Checker(P, HW);
  BenefitModel Model(Checker);
  for (const PartitionBlock &Block : Result.Blocks.Blocks)
    EXPECT_EQ(fusibleBlockRejection(Model, Block.Kernels), "")
        << "seed " << Seed;

  // Functional soundness: fused == unfused on random data, all outputs.
  FusedProgram FP = fuseProgram(P, Result.Blocks, FusionStyle::Optimized);
  std::vector<Image> Reference = makeImagePool(P);
  Reference[0] = makeRandomImage(16, 12, 1, Gen, 0.1f, 1.0f);
  runUnfused(P, Reference);

  std::vector<Image> Pool = makeImagePool(P);
  Pool[0] = Reference[0];
  runFused(FP, Pool);
  for (ImageId Out : P.terminalOutputs())
    EXPECT_DOUBLE_EQ(maxAbsDifference(Pool[Out], Reference[Out]), 0.0)
        << "seed " << Seed << ", output " << P.image(Out).Name;
}

TEST_P(RandomPipelineProperty, BasicFusionIsSoundToo) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  Rng Gen(Seed * 7777777 + 3);
  unsigned NumKernels = 3 + static_cast<unsigned>(Gen.nextBelow(8));
  Program P = makeRandomPipeline(NumKernels, 0.5, 14, 14, Gen);

  BasicFusionResult Basic = runBasicFusion(P, paperModel());
  ASSERT_EQ(validatePartition(P, Basic.Blocks), "");
  FusedProgram FP = fuseProgram(P, Basic.Blocks, FusionStyle::Basic);

  std::vector<Image> Reference = makeImagePool(P);
  Reference[0] = makeRandomImage(14, 14, 1, Gen, 0.1f, 1.0f);
  runUnfused(P, Reference);
  std::vector<Image> Pool = makeImagePool(P);
  Pool[0] = Reference[0];
  runFused(FP, Pool);
  for (ImageId Out : P.terminalOutputs())
    EXPECT_DOUBLE_EQ(maxAbsDifference(Pool[Out], Reference[Out]), 0.0)
        << "seed " << Seed;
}

TEST_P(RandomPipelineProperty, GreedyNeverBeatsExhaustive) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  Rng Gen(Seed * 31337 + 29);
  unsigned NumKernels = 3 + static_cast<unsigned>(Gen.nextBelow(6));
  Program P = makeRandomPipeline(NumKernels, 0.4, 16, 16, Gen);

  HardwareModel HW = paperModel();
  ExhaustiveFusionResult Optimal = runExhaustiveFusion(P, HW);
  GreedyFusionResult Greedy = runGreedyFusion(P, HW);
  MinCutFusionResult MinCut = runMinCutFusion(P, HW);
  EXPECT_LE(Greedy.TotalBenefit, Optimal.TotalBenefit + 1e-9)
      << "seed " << Seed;
  EXPECT_LE(MinCut.TotalBenefit, Optimal.TotalBenefit + 1e-9)
      << "seed " << Seed;
  // Every exhaustive-optimal block must itself be acceptable (sanity of
  // the oracle).
  ASSERT_EQ(validatePartition(P, Optimal.Blocks), "");
}

TEST_P(RandomPipelineProperty, SerializeParseSessionRoundTripIsExact) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  Rng Gen(Seed * 424243 + 11);
  unsigned NumKernels = 3 + static_cast<unsigned>(Gen.nextBelow(8));
  double LocalFraction = Gen.uniform(0.0, 0.6);
  Program P = makeRandomPipeline(NumKernels, LocalFraction, 18, 14, Gen);

  // Round-trip the IR through the textual format: the parsed copy must be
  // structurally identical (same plan-cache key).
  ParseResult Parsed = parsePipelineText(serializeProgram(P));
  ASSERT_TRUE(Parsed.success())
      << "seed " << Seed << ": "
      << (Parsed.Errors.empty() ? "?" : Parsed.Errors.front());
  Program &Q = *Parsed.Prog;
  ASSERT_EQ(P.structuralHash(), Q.structuralHash()) << "seed " << Seed;

  // Direct execution of the original program.
  std::vector<Image> Reference = makeImagePool(P);
  Rng Fill(Seed * 31 + 5);
  for (ImageId In : P.externalInputs()) {
    const ImageInfo &Info = P.image(In);
    Reference[In] = makeRandomImage(Info.Width, Info.Height, Info.Channels,
                                    Fill, 0.1f, 1.0f);
  }
  runUnfused(P, Reference);

  // Fuse the parsed copy and stream it through a session (cold + warm
  // frame with the same inputs) under every engine configuration. The
  // warm frame must match exactly.
  MinCutFusionResult Result = runMinCutFusion(Q, paperModel());
  FusedProgram FP = fuseProgram(Q, Result.Blocks, FusionStyle::Optimized);
  forEachEngineConfig([&](const ExecutionOptions &Options,
                          const std::string &Config) {
    PlanCache Cache;
    PipelineSession Session(FP, Options, &Cache);
    std::vector<Image> Warm;
    Session.runFrames(
        2,
        [&](int, std::vector<Image> &Frame) {
          for (ImageId In : Q.externalInputs())
            Frame[In] = Reference[In];
        },
        [&](int Frame, const std::vector<Image> &Pool) {
          if (Frame == 1)
            Warm = Pool;
        });
    EXPECT_EQ(Session.stats().PlanHits, 1u) << "seed " << Seed << " " << Config;

    for (ImageId Out : Q.terminalOutputs())
      EXPECT_DOUBLE_EQ(maxAbsDifference(Warm[Out], Reference[Out]), 0.0)
          << "seed " << Seed << " " << Config << ", output "
          << Q.image(Out).Name;
  });
}

TEST_P(RandomPipelineProperty, OptionsHashGovernsCrossSessionPlanSharing) {
  // The contract the multi-tenant server's shared plan cache rests on:
  // two sessions of one fused program share one compiled plan (the second
  // lookup is a cache hit on the literal same object) exactly when their
  // Opt matches, the one option compilePlan reads; otherwise they hold
  // distinct entries. Every other option, the Source scheduling tag
  // included, is randomized and never splits a plan.
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  Rng Gen(Seed * 777767 + 3);
  unsigned NumKernels = 3 + static_cast<unsigned>(Gen.nextBelow(6));
  Program P = makeRandomPipeline(NumKernels, Gen.uniform(0.0, 0.6), 16, 12,
                                 Gen);
  MinCutFusionResult Result = runMinCutFusion(P, paperModel());
  FusedProgram FP = fuseProgram(P, Result.Blocks, FusionStyle::Optimized);

  auto randomOptions = [&Gen] {
    ExecutionOptions O;
    O.UseIndexExchange = Gen.nextBelow(2) == 0;
    O.Threads = 1 + static_cast<int>(Gen.nextBelow(4));
    O.TileWidth = static_cast<int>(Gen.nextBelow(3)) * 8;
    O.TileHeight = static_cast<int>(Gen.nextBelow(3)) * 8;
    O.Mode = Gen.nextBelow(2) ? VmMode::Scalar : VmMode::Span;
    O.Tiling = Gen.nextBelow(2) ? TilingStrategy::InteriorHalo
                                : TilingStrategy::Overlapped;
    O.Opt = Gen.nextBelow(2) ? OptMode::On : OptMode::Off;
    O.Source = static_cast<unsigned>(Gen.nextBelow(4));
    return O;
  };
  ExecutionOptions A = randomOptions();
  // Half the seeds take a guaranteed-equal permutation so both branches
  // of the property are exercised; the rest draw independently.
  ExecutionOptions B = Gen.nextBelow(2) ? randomOptions() : A;
  B.Source = A.Source + 1; // Never equal; never part of the key.

  PlanCache Cache(8);
  PipelineSession S1(FP, A, &Cache);
  PipelineSession S2(FP, B, &Cache);
  ASSERT_NE(S1.plan(), nullptr) << "seed " << Seed;
  ASSERT_NE(S2.plan(), nullptr) << "seed " << Seed;
  PlanCacheStats Stats = Cache.stats();
  if (A.Opt == B.Opt) {
    EXPECT_EQ(Stats.Entries, 1u) << "seed " << Seed;
    EXPECT_EQ(Stats.Misses, 1u) << "seed " << Seed;
    EXPECT_GE(Stats.Hits, 1u) << "seed " << Seed;
    EXPECT_EQ(S1.plan(), S2.plan()) << "seed " << Seed;
  } else {
    EXPECT_EQ(Stats.Entries, 2u) << "seed " << Seed;
    EXPECT_EQ(Stats.Misses, 2u) << "seed " << Seed;
    EXPECT_NE(S1.plan(), S2.plan()) << "seed " << Seed;
  }
}

TEST_P(RandomPipelineProperty, FusionIsDeterministicPerSeed) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  Rng GenA(Seed), GenB(Seed);
  Program PA = makeRandomPipeline(8, 0.4, 16, 16, GenA);
  Program PB = makeRandomPipeline(8, 0.4, 16, 16, GenB);
  MinCutFusionResult RA = runMinCutFusion(PA, paperModel());
  MinCutFusionResult RB = runMinCutFusion(PB, paperModel());
  EXPECT_TRUE(RA.Blocks == RB.Blocks) << "seed " << Seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineProperty,
                         ::testing::Range(1, 21));

} // namespace
