//===- tests/test_session.cpp - Streaming session differential harness ----------===//
//
// The serving layer must be invisible in the results: a session's cached
// warm-run output has to be bit-identical to a fresh runFusedVm call and
// to the runFused AST reference, for every registry pipeline, across
// border modes and thread counts. Alongside the differential harness this
// file unit-tests the plan cache (LRU, hit/miss counters), the frame
// pool's buffer recycling, and the structural hash and plan key the cache
// is looked up by.
//
//===----------------------------------------------------------------------===//

#include "EngineConfigs.h"
#include "frontend/Parser.h"
#include "frontend/Serializer.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "pipelines/Pipelines.h"
#include "sim/Session.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace kf;

namespace {

/// Deterministically fills every external input of \p P in \p Pool.
void fillInputs(const Program &P, std::vector<Image> &Pool, uint64_t Seed) {
  Rng Gen(Seed);
  for (ImageId Id : P.externalInputs()) {
    const ImageInfo &Info = P.image(Id);
    Pool[Id] = makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen,
                               0.05f, 1.0f);
  }
}

/// Runs the full differential check for one program: the session's warm
/// (second) frame must be bit-identical to fresh runFusedVm and runFused
/// references at every swept thread count.
void expectSessionMatchesReferences(const Program &P,
                                    const std::string &Label) {
  HardwareModel HW;
  MinCutFusionResult MinCut = runMinCutFusion(P, HW);
  FusedProgram FP = fuseProgram(P, MinCut.Blocks, FusionStyle::Optimized);

  // AST reference (the semantic ground truth).
  std::vector<Image> AstPool = makeImagePool(P);
  fillInputs(P, AstPool, 0x5e55);
  runFused(FP, AstPool);

  for (int Threads : threadSweep()) {
    ExecutionOptions Options;
    Options.Threads = Threads;

    // Fresh per-call fused VM reference.
    std::vector<Image> VmPool = makeImagePool(P);
    fillInputs(P, VmPool, 0x5e55);
    runFusedVm(FP, VmPool, Options);

    // Session: two frames with identical input; keep the warm frame.
    PlanCache Cache;
    PipelineSession Session(FP, Options, &Cache);
    std::vector<Image> Warm;
    Session.runFrames(
        2,
        [&](int, std::vector<Image> &Frame) {
          fillInputs(P, Frame, 0x5e55);
        },
        [&](int Frame, const std::vector<Image> &Pool) {
          if (Frame == 1)
            Warm = Pool;
        });

    EXPECT_EQ(Session.stats().PlanMisses, 1u) << Label;
    EXPECT_EQ(Session.stats().PlanHits, 1u)
        << Label << ": second frame must hit the plan cache";

    for (const FusedKernel &FK : FP.Kernels)
      for (KernelId Dest : FK.Destinations) {
        ImageId Out = P.kernel(Dest).Output;
        EXPECT_DOUBLE_EQ(maxAbsDifference(Warm[Out], VmPool[Out]), 0.0)
            << Label << " vs fresh runFusedVm, threads=" << Threads
            << ", output " << P.image(Out).Name;
        EXPECT_DOUBLE_EQ(maxAbsDifference(Warm[Out], AstPool[Out]), 0.0)
            << Label << " vs runFused AST, threads=" << Threads
            << ", output " << P.image(Out).Name;
      }
  }
}

//===--------------------------------------------------------------------===//
// Differential harness
//===--------------------------------------------------------------------===//

class SessionDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(SessionDifferential, WarmFrameBitIdenticalToFreshExecution) {
  const PipelineSpec *Spec = findPipeline(GetParam());
  ASSERT_NE(Spec, nullptr);
  // Paper-shaped but test-sized (the night pipeline keeps its RGB shape).
  Program P = Spec->Builder(64, 52);
  expectSessionMatchesReferences(P, GetParam());
}

INSTANTIATE_TEST_SUITE_P(RegistryPipelines, SessionDifferential,
                         ::testing::Values("harris", "sobel", "unsharp",
                                           "shitomasi", "enhance", "night"),
                         [](const auto &Info) { return Info.param; });

class SessionBorderModes : public ::testing::TestWithParam<BorderMode> {};

TEST_P(SessionBorderModes, BlurChainMatchesAcrossBorders) {
  Program P = makeBlurChain(40, 34, GetParam());
  expectSessionMatchesReferences(P,
                                 std::string("blurchain-") +
                                     borderModeName(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllModes, SessionBorderModes,
                         ::testing::Values(BorderMode::Clamp,
                                           BorderMode::Mirror,
                                           BorderMode::Repeat,
                                           BorderMode::Constant),
                         [](const auto &Info) {
                           return borderModeName(Info.param);
                         });

TEST(SessionCache, OptionsChangeMissesThenRehits) {
  Program P = makeSobel(32, 28);
  MinCutFusionResult MinCut = runMinCutFusion(P, HardwareModel());
  FusedProgram FP = fuseProgram(P, MinCut.Blocks, FusionStyle::Optimized);

  PlanCache Cache;
  PipelineSession Session(FP, ExecutionOptions(), &Cache);
  auto Fill = [&](int, std::vector<Image> &Frame) {
    fillInputs(P, Frame, 7);
  };
  Session.runFrames(2, Fill);
  EXPECT_EQ(Session.stats().PlanMisses, 1u);
  EXPECT_EQ(Session.stats().PlanHits, 1u);

  // Tile extents only steer execution: same plan, hit.
  ExecutionOptions Tiled;
  Tiled.TileHeight = 8;
  Session.setOptions(Tiled);
  Session.runFrames(1, Fill);
  EXPECT_EQ(Session.stats().PlanMisses, 1u);
  EXPECT_EQ(Session.stats().PlanHits, 2u);

  // The optimizer setting changes what the plan holds: miss.
  ExecutionOptions Unoptimized;
  Unoptimized.Opt = OptMode::Off;
  Session.setOptions(Unoptimized);
  Session.runFrames(2, Fill);
  EXPECT_EQ(Session.stats().PlanMisses, 2u);
  EXPECT_EQ(Session.stats().PlanHits, 3u);

  // Switching back re-hits the still-cached original plan.
  Session.setOptions(ExecutionOptions());
  Session.runFrames(1, Fill);
  EXPECT_EQ(Session.stats().PlanMisses, 2u);
  EXPECT_EQ(Session.stats().PlanHits, 4u);
  EXPECT_EQ(Cache.stats().Entries, 2u);
}

TEST(SessionFrames, BuffersAreRecycledAcrossFrames) {
  Program P = makeSobel(24, 20);
  MinCutFusionResult MinCut = runMinCutFusion(P, HardwareModel());
  FusedProgram FP = fuseProgram(P, MinCut.Blocks, FusionStyle::Optimized);

  PlanCache Cache;
  PipelineSession Session(FP, ExecutionOptions(), &Cache);
  Session.runFrames(6, [&](int Frame, std::vector<Image> &Pool) {
    fillInputs(P, Pool, static_cast<uint64_t>(Frame));
  });
  EXPECT_EQ(Session.stats().Frames, 6u);
  // Double buffering holds two frames in flight; every later acquire
  // must be served from the pool.
  EXPECT_EQ(Session.stats().FramesAllocated, 2u);
  EXPECT_GE(Session.stats().FramesReused, 4u);
}

TEST(SessionFrames, ManualFrameLoopMatchesStreaming) {
  Program P = makeBlurChain(30, 26, BorderMode::Mirror);
  MinCutFusionResult MinCut = runMinCutFusion(P, HardwareModel());
  FusedProgram FP = fuseProgram(P, MinCut.Blocks, FusionStyle::Optimized);

  PlanCache Cache;
  PipelineSession Session(FP, ExecutionOptions(), &Cache);
  std::vector<Image> Frame = Session.acquireFrame();
  fillInputs(P, Frame, 99);
  Session.runFrame(Frame);

  std::vector<Image> Reference = makeImagePool(P);
  fillInputs(P, Reference, 99);
  runFusedVm(FP, Reference, ExecutionOptions());
  for (ImageId Out : P.terminalOutputs())
    EXPECT_DOUBLE_EQ(maxAbsDifference(Frame[Out], Reference[Out]), 0.0);
  Session.releaseFrame(std::move(Frame));
}

//===--------------------------------------------------------------------===//
// PlanCache unit tests
//===--------------------------------------------------------------------===//

std::shared_ptr<const CompiledPlan> dummyPlan(uint64_t Key) {
  auto Plan = std::make_shared<CompiledPlan>();
  Plan->Key = Key;
  return Plan;
}

TEST(PlanCache, CountsHitsAndMisses) {
  PlanCache Cache(4);
  EXPECT_EQ(Cache.lookup(1), nullptr);
  Cache.insert(dummyPlan(1));
  EXPECT_NE(Cache.lookup(1), nullptr);
  PlanCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Entries, 1u);
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  PlanCache Cache(2);
  Cache.insert(dummyPlan(1));
  Cache.insert(dummyPlan(2));
  EXPECT_NE(Cache.lookup(1), nullptr); // 1 is now most recent.
  Cache.insert(dummyPlan(3));          // Evicts 2.
  EXPECT_NE(Cache.lookup(1), nullptr);
  EXPECT_EQ(Cache.lookup(2), nullptr);
  EXPECT_NE(Cache.lookup(3), nullptr);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_EQ(Cache.stats().Entries, 2u);
}

TEST(PlanCache, ReinsertReplacesWithoutGrowth) {
  PlanCache Cache(2);
  Cache.insert(dummyPlan(1));
  Cache.insert(dummyPlan(1));
  EXPECT_EQ(Cache.stats().Entries, 1u);
  EXPECT_EQ(Cache.stats().Evictions, 0u);
}

TEST(PlanCache, CapacityOneEvictsOnEveryNewKey) {
  PlanCache Cache(1);
  Cache.insert(dummyPlan(1));
  Cache.insert(dummyPlan(2)); // Evicts 1.
  EXPECT_EQ(Cache.lookup(1), nullptr);
  EXPECT_NE(Cache.lookup(2), nullptr);
  Cache.insert(dummyPlan(2)); // Same key: replace, no eviction.
  PlanCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Entries, 1u);
  EXPECT_EQ(Stats.Evictions, 1u);
  EXPECT_NE(Cache.lookup(2), nullptr);
}

TEST(PlanCache, ReinsertKeepsEntryMostRecentlyUsed) {
  PlanCache Cache(2);
  Cache.insert(dummyPlan(1));
  Cache.insert(dummyPlan(2));
  Cache.insert(dummyPlan(1)); // Replace: 1 becomes most recent.
  Cache.insert(dummyPlan(3)); // Evicts 2, not 1.
  EXPECT_NE(Cache.lookup(1), nullptr);
  EXPECT_EQ(Cache.lookup(2), nullptr);
  EXPECT_NE(Cache.lookup(3), nullptr);
}

TEST(PlanCache, ConcurrentLookupInsertKeepsStatsConsistent) {
  // Threads hammer a shared cache with overlapping key ranges; afterwards
  // every lookup must be accounted as exactly one hit or miss, and the
  // entry count must respect capacity. Runs under -DKF_SANITIZE=thread
  // via the sanitize-smoke label.
  PlanCache Cache(4);
  constexpr int NumThreads = 4;
  constexpr int IterationsPerThread = 500;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&Cache, T] {
      for (int I = 0; I != IterationsPerThread; ++I) {
        uint64_t Key = static_cast<uint64_t>((T + I) % 8);
        if (!Cache.lookup(Key))
          Cache.insert(dummyPlan(Key));
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  PlanCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits + Stats.Misses,
            static_cast<uint64_t>(NumThreads) * IterationsPerThread);
  EXPECT_LE(Stats.Entries, 4u);
  EXPECT_GT(Stats.Hits, 0u);
  EXPECT_GT(Stats.Misses, 0u);
}

TEST(PlanCache, ClearResets) {
  PlanCache Cache(2);
  Cache.insert(dummyPlan(1));
  (void)Cache.lookup(1);
  Cache.clear();
  PlanCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Entries, 0u);
  EXPECT_EQ(Stats.Hits, 0u);
  EXPECT_EQ(Cache.lookup(1), nullptr);
}

//===--------------------------------------------------------------------===//
// Cache-key hashing
//===--------------------------------------------------------------------===//

TEST(StructuralHash, IndependentParsesHashEqually) {
  Program Built = makeHarris(48, 40);
  std::string Text = serializeProgram(Built);
  ParseResult First = parsePipelineText(Text);
  ParseResult Second = parsePipelineText(Text);
  ASSERT_TRUE(First.success());
  ASSERT_TRUE(Second.success());
  EXPECT_EQ(First.Prog->structuralHash(), Second.Prog->structuralHash());
  EXPECT_EQ(Built.structuralHash(), First.Prog->structuralHash());
}

TEST(StructuralHash, OneConstantChangeChangesEveryKernelHash) {
  // Flipping a single constant in any kernel's body must re-key the plan.
  Program Base = makeUnsharp(32, 28);
  uint64_t BaseHash = Base.structuralHash();
  for (KernelId Id = 0; Id != Base.numKernels(); ++Id) {
    Program Mutated = makeUnsharp(32, 28);
    Kernel &K = Mutated.kernel(Id);
    const Expr *Bump = Mutated.context().floatConst(1e-3f);
    K.Body = Mutated.context().add(K.Body, Bump);
    EXPECT_NE(Mutated.structuralHash(), BaseHash)
        << "kernel " << Base.kernel(Id).Name;
  }
}

TEST(StructuralHash, DistinguishesShapesAndBorders) {
  EXPECT_NE(makeSobel(32, 28).structuralHash(),
            makeSobel(32, 30).structuralHash());
  EXPECT_NE(makeBlurChain(24, 24, BorderMode::Clamp).structuralHash(),
            makeBlurChain(24, 24, BorderMode::Mirror).structuralHash());
}

TEST(StructuralHash, PlanKeySeparatesPartitionsAndOptions) {
  Program P = makeSobel(32, 28);
  MinCutFusionResult MinCut = runMinCutFusion(P, HardwareModel());
  FusedProgram Fused =
      fuseProgram(P, MinCut.Blocks, FusionStyle::Optimized);
  FusedProgram Unfused = unfusedProgram(P);

  ExecutionOptions Options;
  EXPECT_NE(planKey(Fused, Options), planKey(Unfused, Options));
  ExecutionOptions Other;
  Other.Opt = OptMode::Off;
  EXPECT_NE(planKey(Fused, Options), planKey(Fused, Other));
}

TEST(OptionsHash, SensitiveToEveryField) {
  // The options part of the plan key folds every field compilePlan
  // reads -- Opt alone -- so each of its values keys a distinct plan.
  Program P = makeSobel(32, 28);
  FusedProgram FP = unfusedProgram(P);
  ExecutionOptions On;
  On.Opt = OptMode::On;
  ExecutionOptions Off;
  Off.Opt = OptMode::Off;
  EXPECT_NE(planKey(FP, On), planKey(FP, Off));
  EXPECT_EQ(planKey(FP, On), planKey(FP, ExecutionOptions()));
}

TEST(OptionsHash, SourceTagDoesNotSplitPlans) {
  // ExecutionOptions::Source is a scheduling hint: the pipeline server
  // gives every tenant a distinct tag, and tenants running the same
  // pipeline under the same options MUST still share one compiled plan.
  Program P = makeSobel(32, 28);
  FusedProgram FP = unfusedProgram(P);
  ExecutionOptions A, B;
  A.Source = 0;
  B.Source = 17;
  EXPECT_EQ(planKey(FP, A), planKey(FP, B));
}

TEST(StructuralHash, PlanKeyIgnoresExecutionOnlyOptions) {
  // compilePlan reads only Opt; every other option steers how a plan
  // runs. Sessions differing only there -- the server's per-tenant
  // Source tag included -- must share one compiled plan.
  Program P = makeSobel(32, 28);
  FusedProgram FP = unfusedProgram(P);
  ExecutionOptions Base;
  const uint64_t Key = planKey(FP, Base);
  ExecutionOptions A = Base;
  A.UseIndexExchange = false;
  ExecutionOptions B = Base;
  B.Threads = 2;
  ExecutionOptions C = Base;
  C.TileWidth = 32;
  ExecutionOptions D = Base;
  D.TileHeight = 8;
  ExecutionOptions E = Base;
  E.Mode = VmMode::Scalar;
  ExecutionOptions F = Base;
  F.Tiling = TilingStrategy::Overlapped;
  ExecutionOptions G = Base;
  G.Source = 17;
  for (const ExecutionOptions &Options : {A, B, C, D, E, F, G})
    EXPECT_EQ(planKey(FP, Options), Key);
}

//===--------------------------------------------------------------------===//
// PlanCache sharing under concurrency
//===--------------------------------------------------------------------===//

TEST(PlanCache, EvictionDoesNotInvalidateBorrowedPlan) {
  // Regression for a latent single-owner assumption: a borrower's plan
  // used to be reachable only through the cache, so an eviction while a
  // session still executed from it was a use-after-free waiting to
  // happen. Plans are shared_ptr-owned: eviction drops only the cache's
  // reference.
  PlanCache Cache(1);
  Cache.insert(dummyPlan(1));
  std::shared_ptr<const CompiledPlan> Borrowed = Cache.lookup(1);
  ASSERT_NE(Borrowed, nullptr);
  Cache.insert(dummyPlan(2)); // Evicts key 1 while it is borrowed.
  EXPECT_EQ(Cache.lookup(1), nullptr);
  EXPECT_EQ(Borrowed->Key, 1u); // The borrower's copy is still alive.
  EXPECT_EQ(Borrowed.use_count(), 1);
}

TEST(PlanCache, EvictionRacingBorrowerIsSafe) {
  // The concurrent version: borrower threads hold and read plans while
  // the main thread churns a capacity-1 cache through evictions. Runs
  // under -DKF_SANITIZE=thread via the sanitize-smoke label.
  PlanCache Cache(1);
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Reads{0};
  std::vector<std::thread> Borrowers;
  for (int T = 0; T != 2; ++T)
    Borrowers.emplace_back([&] {
      while (!Stop.load()) {
        std::shared_ptr<const CompiledPlan> Plan = Cache.lookup(1);
        if (Plan) {
          // Dereference AFTER the entry may have been evicted.
          EXPECT_EQ(Plan->Key, 1u);
          ++Reads;
        }
      }
    });
  // Make sure the borrowers actually observe the entry at least once
  // (one core may not schedule them during a fast churn loop).
  Cache.insert(dummyPlan(1));
  while (Reads.load() == 0)
    std::this_thread::yield();
  for (int I = 0; I != 2000; ++I) {
    Cache.insert(dummyPlan(1));
    Cache.insert(dummyPlan(2)); // Evicts 1 under the borrowers' feet.
  }
  Stop = true;
  for (std::thread &T : Borrowers)
    T.join();
  EXPECT_GT(Reads.load(), 0u);
}

TEST(PlanCache, GetOrCompileIsSingleFlight) {
  // N threads race the same cold key: exactly ONE runs the compile
  // functor; the rest block on the in-flight slot and count as hits.
  PlanCache Cache(4);
  constexpr int NumThreads = 4;
  std::atomic<int> Compiles{0};
  std::vector<std::shared_ptr<const CompiledPlan>> Got(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Got[T] = Cache.getOrCompile(42, [&] {
        ++Compiles;
        // Widen the race window so followers really wait on the latch.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return dummyPlan(42);
      });
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Compiles.load(), 1);
  for (int T = 1; T != NumThreads; ++T)
    EXPECT_EQ(Got[T], Got[0]); // One shared plan object.
  PlanCacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, static_cast<uint64_t>(NumThreads - 1));
  EXPECT_EQ(Stats.Entries, 1u);
}

TEST(PlanCache, GetOrCompileFailureIsNotCached) {
  PlanCache Cache(4);
  bool WasHit = true;
  std::shared_ptr<const CompiledPlan> Plan = Cache.getOrCompile(
      7, [] { return std::shared_ptr<const CompiledPlan>(); }, &WasHit);
  EXPECT_EQ(Plan, nullptr);
  EXPECT_FALSE(WasHit);
  EXPECT_EQ(Cache.stats().Entries, 0u);
  // The failed attempt does not poison the key: a later compile lands.
  Plan = Cache.getOrCompile(7, [] { return dummyPlan(7); }, &WasHit);
  EXPECT_NE(Plan, nullptr);
  EXPECT_FALSE(WasHit);
  EXPECT_EQ(Cache.stats().Entries, 1u);
}

//===--------------------------------------------------------------------===//
// FramePool under concurrency
//===--------------------------------------------------------------------===//

TEST(FramePool, ConcurrentAcquireReleaseKeepsCountersConsistent) {
  // Regression for a latent single-owner assumption: the pool's free list
  // and counters were unguarded, which the server's frame churn (a
  // borrower racing the double-buffered filler) could corrupt. Threads
  // hammer one pool; every acquire must be accounted as exactly one reuse
  // or one allocation. Runs under -DKF_SANITIZE=thread via the
  // sanitize-smoke label.
  std::vector<ImageInfo> Shapes(2);
  Shapes[0] = ImageInfo{"in", 16, 12, 1};
  Shapes[1] = ImageInfo{"out", 16, 12, 1};
  std::vector<ImageId> Outputs = {1};
  FramePool Pool;
  constexpr int NumThreads = 3;
  constexpr int IterationsPerThread = 200;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != IterationsPerThread; ++I) {
        std::vector<Image> Frame = Pool.acquire(Shapes, Outputs);
        ASSERT_EQ(Frame.size(), Shapes.size());
        Pool.release(std::move(Frame));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Pool.framesAllocated() + Pool.framesReused(),
            static_cast<uint64_t>(NumThreads) * IterationsPerThread);
  // At most NumThreads frames were ever simultaneously outstanding.
  EXPECT_LE(Pool.framesAllocated(), static_cast<uint64_t>(NumThreads));
  EXPECT_GT(Pool.framesReused(), 0u);
}

} // namespace
