//===- tests/test_server.cpp - Multi-tenant server differential harness ---===//
//
// The serving layer on top of the serving layer: a PipelineServer
// multiplexes N tenant sessions over one shared ThreadPool and one shared
// PlanCache, and none of that sharing may be visible in the pixels. The
// differential harness here runs mixed registry pipelines concurrently
// and demands bit-identical outputs versus each pipeline run serially on
// a private session, across thread counts and VM modes. Around it sit
// deterministic unit tests for the stride arbiter, the tagged thread
// pool, the bounded-queue backpressure policies, the fair (weighted,
// starvation-free) dispatch order, and the cross-tenant plan-cache
// accounting.
//
//===----------------------------------------------------------------------===//

#include "EngineConfigs.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "pipelines/Pipelines.h"
#include "sim/Server.h"
#include "support/Stride.h"
#include "support/ThreadPool.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#if defined(__linux__)
#include <sched.h>
#endif
#include <memory>
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

/// A registry pipeline lowered to its fused form. The Program is heap
/// allocated because FusedProgram::Source points at it: the pair must
/// stay valid while any tenant session runs it.
struct BuiltPipeline {
  std::unique_ptr<Program> P;
  FusedProgram FP;
};

BuiltPipeline buildPipeline(const std::string &Name, int W, int H) {
  const PipelineSpec *Spec = findPipeline(Name);
  EXPECT_NE(Spec, nullptr) << Name;
  BuiltPipeline Built;
  Built.P = std::make_unique<Program>(Spec->Builder(W, H));
  MinCutFusionResult MinCut = runMinCutFusion(*Built.P, HardwareModel());
  Built.FP = fuseProgram(*Built.P, MinCut.Blocks, FusionStyle::Optimized);
  return Built;
}

/// Per-(tenant, frame) input seed, identical for the server run and the
/// serial reference run.
uint64_t frameSeed(size_t Tenant, int Frame) {
  return 0x7e57 + Tenant * 1009 + static_cast<uint64_t>(Frame);
}

//===--------------------------------------------------------------------===//
// StrideScheduler
//===--------------------------------------------------------------------===//

TEST(StrideScheduler, EqualWeightsAlternate) {
  StrideScheduler S;
  unsigned A = S.addSource(1);
  unsigned B = S.addSource(1);
  std::vector<unsigned> Candidates = {A, B};
  std::string Order;
  for (int I = 0; I != 8; ++I) {
    int Picked = S.pick(Candidates);
    Order += Picked == static_cast<int>(A) ? 'A' : 'B';
    S.charge(static_cast<unsigned>(Picked));
  }
  EXPECT_EQ(Order, "ABABABAB");
}

TEST(StrideScheduler, WeightsYieldProportionalService) {
  StrideScheduler S;
  unsigned A = S.addSource(3);
  unsigned B = S.addSource(1);
  std::vector<unsigned> Candidates = {A, B};
  int CountA = 0, CountB = 0;
  for (int I = 0; I != 400; ++I) {
    int Picked = S.pick(Candidates);
    (Picked == static_cast<int>(A) ? CountA : CountB)++;
    S.charge(static_cast<unsigned>(Picked));
  }
  // 3:1 service over any sufficiently long window.
  EXPECT_EQ(CountA, 300);
  EXPECT_EQ(CountB, 100);
}

TEST(StrideScheduler, TiesBreakToLowestId) {
  StrideScheduler S;
  S.addSource(1);
  S.addSource(1);
  S.addSource(1);
  EXPECT_EQ(S.pick({2, 1, 0}), 0);
  S.charge(0);
  EXPECT_EQ(S.pick({2, 1, 0}), 1);
}

TEST(StrideScheduler, ActivateClampsToCompetitorsMinPass) {
  StrideScheduler S;
  unsigned A = S.addSource(1);
  unsigned B = S.addSource(1);
  // A races alone for a while; B then joins at parity, not at pass 0.
  for (int I = 0; I != 5; ++I)
    S.charge(A);
  S.activate(B, {A});
  EXPECT_EQ(S.pass(B), S.pass(A));
  // A long-idle source never moves BACKWARD either.
  S.charge(B);
  S.activate(B, {A});
  EXPECT_GT(S.pass(B), S.pass(A));
}

TEST(StrideScheduler, ActivateWithNoCompetitorClampsToVirtualTime) {
  StrideScheduler S;
  unsigned A = S.addSource(1);
  unsigned B = S.addSource(1);
  // A is served five times while B is idle; B then returns while nobody
  // else is runnable. It re-enters at the pass A held when last served,
  // not at 0, so when the two compete they alternate instead of B taking
  // five picks in a row.
  for (int I = 0; I != 5; ++I)
    S.charge(A);
  EXPECT_EQ(S.virtualTime(), 4 * StrideScheduler::StrideOne);
  S.activate(B, {});
  EXPECT_EQ(S.pass(B), S.virtualTime());
  std::vector<unsigned> Candidates = {A, B};
  std::string Order;
  for (int I = 0; I != 6; ++I) {
    int Picked = S.pick(Candidates);
    Order += Picked == static_cast<int>(A) ? 'A' : 'B';
    S.charge(static_cast<unsigned>(Picked));
  }
  EXPECT_EQ(Order, "BABABA");
  // The clock never runs backward, and activation never lowers a pass.
  const uint64_t Pass = S.pass(A);
  S.activate(A, {});
  EXPECT_EQ(S.pass(A), Pass);
}

TEST(StrideScheduler, SetWeightTakesEffectOnNextCharge) {
  StrideScheduler S;
  unsigned A = S.addSource(1);
  S.charge(A);
  uint64_t Full = S.pass(A);
  S.setWeight(A, 4);
  S.charge(A);
  EXPECT_EQ(S.pass(A) - Full, StrideScheduler::StrideOne / 4);
  // Weight 0 is clamped, never a division by zero.
  S.setWeight(A, 0);
  EXPECT_EQ(S.weight(A), 1u);
}

TEST(StrideScheduler, OversizedWeightIsClampedNotMonopolizing) {
  // A weight above StrideOne used to truncate the stride (StrideOne /
  // weight) to zero: the source's pass never advanced, so it won every
  // min-pass pick forever and starved the other tenants. normalize()
  // now clamps weights to [1, StrideOne]; the heaviest legal weight
  // still pays one pass unit per charge, so service interleaves.
  StrideScheduler S;
  unsigned A = S.addSource(StrideScheduler::StrideOne * 4);
  unsigned B = S.addSource(1);
  EXPECT_EQ(S.weight(A), StrideScheduler::StrideOne);
  std::vector<unsigned> Candidates = {A, B};
  std::string Order;
  for (int I = 0; I != 8; ++I) {
    int Picked = S.pick(Candidates);
    Order += Picked == static_cast<int>(A) ? 'A' : 'B';
    S.charge(static_cast<unsigned>(Picked));
  }
  // A's stride is 1 pass unit, B's is StrideOne: A runs ahead within the
  // first of B's pass units but must yield to B exactly once per
  // StrideOne units -- the exact sequence pins down that A's pass
  // advances at all (the bug froze it at 0 and produced "AAAAAAAA").
  EXPECT_EQ(Order, "ABAAAAAA");
  EXPECT_GT(S.pass(A), 0u);
}

TEST(StrideScheduler, ReWeightClampsPassAgainstRunnableCompetitors) {
  // Downgrading a tenant's weight mid-run used to leave its pass far
  // behind the competitors it had been beating at high weight: the
  // next picks would hand it a monopoly until the pass caught up. The
  // Runnable-aware setWeight overload re-clamps like activate().
  StrideScheduler S;
  unsigned A = S.addSource(1000);
  unsigned B = S.addSource(1);
  std::vector<unsigned> Candidates = {A, B};
  // A's high weight lets it accumulate service while B advances slowly.
  for (int I = 0; I != 50; ++I) {
    int Picked = S.pick(Candidates);
    S.charge(static_cast<unsigned>(Picked));
  }
  ASSERT_LT(S.pass(A), S.pass(B));
  // Demote A to parity, clamping against the runnable set: A resumes at
  // B's pass instead of replaying its backlog.
  S.setWeight(A, 1, {B});
  EXPECT_EQ(S.pass(A), S.pass(B));
  std::string Order;
  for (int I = 0; I != 8; ++I) {
    int Picked = S.pick(Candidates);
    Order += Picked == static_cast<int>(A) ? 'A' : 'B';
    S.charge(static_cast<unsigned>(Picked));
  }
  EXPECT_EQ(Order, "ABABABAB");
}

TEST(StrideScheduler, EmptyCandidatesPickNone) {
  StrideScheduler S;
  S.addSource(1);
  EXPECT_EQ(S.pick({}), -1);
}

//===--------------------------------------------------------------------===//
// Tagged ThreadPool
//===--------------------------------------------------------------------===//

TEST(ThreadPoolSources, RegisterAssignsDenseIdsAboveDefault) {
  ThreadPool Pool(2);
  unsigned A = Pool.registerSource("a", 2);
  unsigned B = Pool.registerSource("b");
  EXPECT_EQ(A, 1u);
  EXPECT_EQ(B, 2u);
  ThreadPoolStats Stats = Pool.stats();
  ASSERT_EQ(Stats.SourceNames.size(), 3u);
  EXPECT_EQ(Stats.SourceNames[0], "default");
  EXPECT_EQ(Stats.SourceNames[1], "a");
  EXPECT_EQ(Stats.SourceNames[2], "b");
}

TEST(ThreadPoolSources, TilesAreChargedPerSource) {
  ThreadPool Pool(2);
  unsigned A = Pool.registerSource("a");
  auto Nop = [](const TileRange &, unsigned) {};
  Pool.parallelFor2D(16, 16, 8, 8, Nop, A); // 4 tiles on source a.
  Pool.parallelFor2D(16, 8, 8, 8, Nop);     // 2 tiles on the default.
  ThreadPoolStats Stats = Pool.stats();
  ASSERT_EQ(Stats.TilesPerSource.size(), 2u);
  EXPECT_EQ(Stats.TilesPerSource[0], 2u);
  EXPECT_EQ(Stats.TilesPerSource[1], 4u);
  EXPECT_EQ(Stats.Tiles, 6u);
}

TEST(ThreadPoolSources, UnregisteredSourceFallsBackToDefault) {
  ThreadPool Pool(2);
  Pool.parallelFor2D(8, 8, 8, 8, [](const TileRange &, unsigned) {}, 77);
  ThreadPoolStats Stats = Pool.stats();
  ASSERT_EQ(Stats.TilesPerSource.size(), 1u);
  EXPECT_EQ(Stats.TilesPerSource[0], 1u);
}

#if defined(__linux__)
TEST(ThreadPoolPinning, PinnedWorkerRunsOnItsCpu) {
  const std::vector<int> Cpus = allowedCpus();
  if (Cpus.size() < 2)
    GTEST_SKIP() << "needs two CPUs";
  ThreadPool TP(2);
  ASSERT_TRUE(TP.pinWorkers({Cpus[1]}));
  std::atomic<int> Wrong{0}, Ran{0};
  // Worker 1 is the pinned thread; worker 0 is this (unpinned) caller,
  // which holds its first tile until worker 1 has run one.
  TP.parallelFor2D(
      64, 1, 1, 1, [&](const TileRange &, unsigned Worker) {
        if (Worker == 0) {
          const auto Limit =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (Ran.load() == 0 && std::chrono::steady_clock::now() < Limit)
            std::this_thread::yield();
          return;
        }
        ++Ran;
        if (sched_getcpu() != Cpus[1])
          ++Wrong;
      });
  EXPECT_EQ(Wrong.load(), 0);
  EXPECT_GT(Ran.load(), 0);
}
#endif

TEST(ThreadPoolSources, ConcurrentLaunchesShareWorkersCorrectly) {
  // Two caller threads launch onto ONE pool concurrently, each writing a
  // distinct function of (x, y) into its own buffer. Every pixel must be
  // written exactly once with the right value no matter how the stride
  // arbiter interleaves the tile claims. Runs under -DKF_SANITIZE=thread
  // via the sanitize-smoke label.
  constexpr int W = 64, H = 48;
  ThreadPool Pool(3);
  unsigned SrcA = Pool.registerSource("a");
  unsigned SrcB = Pool.registerSource("b", 2);
  std::vector<int> BufA(W * H, -1), BufB(W * H, -1);
  auto Launch = [&](std::vector<int> &Buf, int Scale, unsigned Source) {
    Pool.parallelFor2D(W, H, 8, 8,
                       [&](const TileRange &Tile, unsigned) {
                         for (int Y = Tile.Y0; Y != Tile.Y1; ++Y)
                           for (int X = Tile.X0; X != Tile.X1; ++X)
                             Buf[Y * W + X] = Scale * (Y * W + X);
                       },
                       Source);
  };
  for (int Round = 0; Round != 4; ++Round) {
    std::thread TA([&] { Launch(BufA, 3, SrcA); });
    std::thread TB([&] { Launch(BufB, 5, SrcB); });
    TA.join();
    TB.join();
    for (int I = 0; I != W * H; ++I) {
      ASSERT_EQ(BufA[I], 3 * I);
      ASSERT_EQ(BufB[I], 5 * I);
    }
  }
  ThreadPoolStats Stats = Pool.stats();
  constexpr uint64_t TilesPerLaunch = (W / 8) * (H / 8);
  EXPECT_EQ(Stats.TilesPerSource[SrcA], 4 * TilesPerLaunch);
  EXPECT_EQ(Stats.TilesPerSource[SrcB], 4 * TilesPerLaunch);
  uint64_t PerWorker = 0;
  for (uint64_t T : Stats.TilesPerWorker)
    PerWorker += T;
  EXPECT_EQ(PerWorker, Stats.Tiles);
}

//===--------------------------------------------------------------------===//
// Differential correctness: concurrent tenants == serial sessions
//===--------------------------------------------------------------------===//

/// Runs \p Pipelines as concurrent server tenants (dispatcher threads,
/// shared pool and plan cache) and as serial private sessions with the
/// same per-frame input seeds, then demands bit-identical outputs.
void expectServerMatchesSerial(const std::vector<std::string> &Names,
                               const ExecutionOptions &Options,
                               int FramesEach) {
  const int Threads = Options.Threads;
  std::vector<BuiltPipeline> Pipelines;
  for (const std::string &Name : Names)
    Pipelines.push_back(buildPipeline(Name, 48, 40));

  // Captured outputs: [tenant][frame][image id]. Slots are pre-sized so
  // consumers (dispatcher threads) write disjoint cells; one tenant's
  // frames are serialized by the scheduler's busy flag.
  std::vector<std::vector<std::vector<Image>>> Served(Names.size());
  for (auto &Frames : Served)
    Frames.resize(FramesEach);

  {
    ServerOptions SO;
    SO.Threads = Threads;
    SO.Dispatchers = 2;
    PipelineServer Server(SO);
    std::vector<PipelineServer::SessionId> Ids;
    for (size_t T = 0; T != Pipelines.size(); ++T) {
      TenantOptions TO;
      TO.Name = Names[T] + "-" + std::to_string(T);
      TO.QueueCapacity = 2; // Small: exercises Block backpressure too.
      Ids.push_back(Server.open(Pipelines[T].FP, Options, TO));
    }
    for (int Frame = 0; Frame != FramesEach; ++Frame)
      for (size_t T = 0; T != Ids.size(); ++T) {
        const Program &P = *Pipelines[T].P;
        std::vector<Image> *Slot = &Served[T][Frame];
        bool Ok = Server.submit(
            Ids[T],
            [&P, T](int Index, std::vector<Image> &Pool) {
              fillInputs(P, Pool, frameSeed(T, Index));
            },
            [Slot, &P](int, const std::vector<Image> &Pool) {
              for (ImageId Out : P.terminalOutputs())
                Slot->push_back(Pool[Out]);
            });
        ASSERT_TRUE(Ok);
      }
    Server.drainAll();
    for (size_t T = 0; T != Ids.size(); ++T) {
      TenantStats Stats = Server.tenantStats(Ids[T]);
      EXPECT_EQ(Stats.Completed, static_cast<uint64_t>(FramesEach));
      EXPECT_EQ(Stats.Rejected, 0u);
      EXPECT_EQ(Stats.LatenciesMs.size(),
                static_cast<size_t>(FramesEach));
    }
  }

  // Serial references: each pipeline on its own session, pool and cache.
  for (size_t T = 0; T != Pipelines.size(); ++T) {
    const Program &P = *Pipelines[T].P;
    PlanCache Cache;
    PipelineSession Session(Pipelines[T].FP, Options, &Cache);
    for (int Frame = 0; Frame != FramesEach; ++Frame) {
      std::vector<Image> Ref = Session.acquireFrame();
      fillInputs(P, Ref, frameSeed(T, Frame));
      Session.runFrame(Ref);
      size_t Slot = 0;
      for (ImageId Out : P.terminalOutputs()) {
        ASSERT_LT(Slot, Served[T][Frame].size());
        EXPECT_DOUBLE_EQ(
            maxAbsDifference(Ref[Out], Served[T][Frame][Slot]), 0.0)
            << Names[T] << " frame " << Frame << " threads " << Threads;
        ++Slot;
      }
      Session.releaseFrame(std::move(Ref));
    }
  }
}

/// The (VM mode, tiling) pairs the server differential runs: each engine
/// under the default per-launch tiling, and span with every launch tiled
/// overlapped.
enum class ServerEngine : uint8_t { Scalar, Span, Jit, SpanOverlapped };

ExecutionOptions serverEngineOptions(ServerEngine Engine) {
  ExecutionOptions Options;
  switch (Engine) {
  case ServerEngine::Scalar:
    Options.Mode = VmMode::Scalar;
    break;
  case ServerEngine::Span:
    Options.Mode = VmMode::Span;
    break;
  case ServerEngine::Jit:
    Options.Mode = VmMode::Jit;
    break;
  case ServerEngine::SpanOverlapped:
    Options.Mode = VmMode::Span;
    Options.Tiling = TilingStrategy::Overlapped;
    break;
  }
  return Options;
}

class ServerDifferential : public ::testing::TestWithParam<ServerEngine> {};

TEST_P(ServerDifferential, MixedTenantsMatchSerialAcrossThreads) {
  const std::vector<std::string> Names = {"harris", "sobel", "unsharp",
                                          "night"};
  for (int Threads : threadSweep()) {
    ExecutionOptions Options = serverEngineOptions(GetParam());
    Options.Threads = Threads;
    expectServerMatchesSerial(Names, Options, 3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VmModes, ServerDifferential,
    ::testing::Values(ServerEngine::Scalar, ServerEngine::Span,
                      ServerEngine::Jit, ServerEngine::SpanOverlapped),
    [](const auto &Info) -> std::string {
      ExecutionOptions Options = serverEngineOptions(Info.param);
      std::string Name = vmModeName(Options.Mode);
      if (Options.Tiling != TilingStrategy::Auto)
        Name += std::string("_") + tilingStrategyName(Options.Tiling);
      return Name;
    });

//===--------------------------------------------------------------------===//
// Backpressure
//===--------------------------------------------------------------------===//

TEST(ServerBackpressure, RejectPolicyIsDeterministic) {
  BuiltPipeline Built = buildPipeline("sobel", 32, 28);
  ServerOptions SO;
  SO.Threads = 1;
  SO.Dispatchers = 0; // Inline dispatch: queue state is fully controlled.
  PipelineServer Server(SO);
  TenantOptions TO;
  TO.QueueCapacity = 2;
  TO.Policy = BackpressurePolicy::Reject;
  PipelineServer::SessionId Id = Server.open(Built.FP, ExecutionOptions(), TO);

  const Program &P = *Built.P;
  auto Fill = [&P](int Index, std::vector<Image> &Pool) {
    fillInputs(P, Pool, static_cast<uint64_t>(Index));
  };
  EXPECT_TRUE(Server.submit(Id, Fill));
  EXPECT_TRUE(Server.submit(Id, Fill));
  EXPECT_FALSE(Server.submit(Id, Fill)); // Queue full: rejected.
  EXPECT_EQ(Server.tenantStats(Id).Rejected, 1u);

  EXPECT_EQ(Server.runPending(1), 1u); // One slot frees...
  EXPECT_TRUE(Server.submit(Id, Fill)); // ...and the retry is admitted.
  EXPECT_EQ(Server.runPending(), 2u);

  TenantStats Stats = Server.tenantStats(Id);
  EXPECT_EQ(Stats.Submitted, 3u);
  EXPECT_EQ(Stats.Completed, 3u);
  EXPECT_EQ(Stats.Rejected, 1u);
  EXPECT_EQ(Stats.MaxQueueDepth, 2u);
}

TEST(ServerBackpressure, BlockPolicyAdmitsEverythingEventually) {
  BuiltPipeline Built = buildPipeline("sobel", 32, 28);
  ServerOptions SO;
  SO.Threads = 1;
  SO.Dispatchers = 1;
  PipelineServer Server(SO);
  TenantOptions TO;
  TO.QueueCapacity = 1; // Every second submit must block on the full queue.
  TO.Policy = BackpressurePolicy::Block;
  PipelineServer::SessionId Id = Server.open(Built.FP, ExecutionOptions(), TO);

  const Program &P = *Built.P;
  constexpr int Frames = 6;
  std::atomic<int> Consumed{0};
  for (int I = 0; I != Frames; ++I) {
    bool Ok = Server.submit(
        Id,
        [&P](int Index, std::vector<Image> &Pool) {
          fillInputs(P, Pool, static_cast<uint64_t>(Index));
        },
        [&Consumed](int, const std::vector<Image> &) { ++Consumed; });
    EXPECT_TRUE(Ok);
  }
  Server.drain(Id);
  EXPECT_EQ(Consumed.load(), Frames);
  TenantStats Stats = Server.tenantStats(Id);
  EXPECT_EQ(Stats.Completed, static_cast<uint64_t>(Frames));
  EXPECT_EQ(Stats.Rejected, 0u);
  EXPECT_LE(Stats.MaxQueueDepth, 1u);
}

TEST(ServerBackpressure, SubmitToClosedTenantFails) {
  BuiltPipeline Built = buildPipeline("sobel", 32, 28);
  ServerOptions SO;
  SO.Threads = 1;
  SO.Dispatchers = 0;
  PipelineServer Server(SO);
  PipelineServer::SessionId Id = Server.open(Built.FP);
  Server.close(Id);
  EXPECT_FALSE(Server.submit(
      Id, [](int, std::vector<Image> &) {}));
}

//===--------------------------------------------------------------------===//
// Fair scheduling (inline dispatch: the order is exact, not statistical)
//===--------------------------------------------------------------------===//

/// Opens one tenant per (name, weight) pair, submits the given frame
/// counts, dispatches everything inline and returns the tenant index of
/// each served frame in dispatch order.
std::vector<size_t> dispatchOrder(const std::vector<uint64_t> &Weights,
                                  const std::vector<int> &Frames) {
  BuiltPipeline Built = buildPipeline("sobel", 24, 20);
  ServerOptions SO;
  SO.Threads = 1;
  SO.Dispatchers = 0;
  PipelineServer Server(SO);
  std::vector<size_t> Order;
  std::vector<PipelineServer::SessionId> Ids;
  for (size_t T = 0; T != Weights.size(); ++T) {
    TenantOptions TO;
    TO.QueueCapacity = 64;
    TO.Weight = Weights[T];
    Ids.push_back(Server.open(Built.FP, ExecutionOptions(), TO));
  }
  const Program &P = *Built.P;
  for (size_t T = 0; T != Ids.size(); ++T)
    for (int I = 0; I != Frames[T]; ++I) {
      bool Ok = Server.submit(
          Ids[T],
          [&P](int Index, std::vector<Image> &Pool) {
            fillInputs(P, Pool, static_cast<uint64_t>(Index));
          },
          [&Order, T](int, const std::vector<Image> &) {
            Order.push_back(T);
          });
      EXPECT_TRUE(Ok);
    }
  Server.runPending();
  return Order;
}

TEST(ServerFairness, EqualWeightsInterleaveRoundRobin) {
  std::vector<size_t> Order = dispatchOrder({1, 1}, {4, 4});
  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 0, 1, 0, 1, 0, 1}));
}

TEST(ServerFairness, WeightsSkewServiceProportionally) {
  // Weight 3 vs 1: the stride arithmetic fixes the exact interleaving.
  std::vector<size_t> Order = dispatchOrder({3, 1}, {6, 2});
  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 0, 0, 0, 1, 0, 0}));
}

TEST(ServerFairness, SaturatingTenantCannotStarveOthers) {
  // Tenant 0 floods 12 frames; tenant 1's 2 frames must still land inside
  // the first 4 dispatches at equal weight.
  std::vector<size_t> Order = dispatchOrder({1, 1}, {12, 2});
  ASSERT_EQ(Order.size(), 14u);
  int LastOfTenant1 = -1;
  for (size_t I = 0; I != Order.size(); ++I)
    if (Order[I] == 1)
      LastOfTenant1 = static_cast<int>(I);
  EXPECT_LE(LastOfTenant1, 3);
}

TEST(ServerFairness, LateJoinerEntersAtParityNotCatchUp) {
  // Tenant 0 runs alone for a while; tenant 1 then joins and must NOT get
  // a monopolizing catch-up burst -- the schedule returns to alternation.
  BuiltPipeline Built = buildPipeline("sobel", 24, 20);
  ServerOptions SO;
  SO.Threads = 1;
  SO.Dispatchers = 0;
  PipelineServer Server(SO);
  TenantOptions TO;
  TO.QueueCapacity = 64;
  PipelineServer::SessionId A = Server.open(Built.FP, ExecutionOptions(), TO);
  PipelineServer::SessionId B = Server.open(Built.FP, ExecutionOptions(), TO);
  const Program &P = *Built.P;
  std::vector<unsigned> Order;
  auto SubmitOne = [&](PipelineServer::SessionId Id, unsigned Tag) {
    ASSERT_TRUE(Server.submit(
        Id,
        [&P](int Index, std::vector<Image> &Pool) {
          fillInputs(P, Pool, static_cast<uint64_t>(Index));
        },
        [&Order, Tag](int, const std::vector<Image> &) {
          Order.push_back(Tag);
        }));
  };
  for (int I = 0; I != 4; ++I)
    SubmitOne(A, 0);
  Server.runPending(); // A's pass is now far ahead of B's untouched 0.
  for (int I = 0; I != 3; ++I) {
    SubmitOne(A, 0);
    SubmitOne(B, 1);
  }
  Server.runPending();
  EXPECT_EQ(Order, (std::vector<unsigned>{0, 0, 0, 0, 0, 1, 0, 1, 0, 1}));
}

TEST(ServerFairness, TenantReturningInALullGetsNoCatchUpBurst) {
  // Tenant 0 runs alone, then its queue drains. Tenant 1 submits first,
  // while nothing else is queued, and tenant 0 follows. Tenant 1 must not
  // keep the pass it had before tenant 0 ran: the schedule alternates
  // instead of serving tenant 1's whole backlog first.
  BuiltPipeline Built = buildPipeline("sobel", 24, 20);
  ServerOptions SO;
  SO.Threads = 1;
  SO.Dispatchers = 0;
  PipelineServer Server(SO);
  TenantOptions TO;
  TO.QueueCapacity = 64;
  PipelineServer::SessionId A = Server.open(Built.FP, ExecutionOptions(), TO);
  PipelineServer::SessionId B = Server.open(Built.FP, ExecutionOptions(), TO);
  const Program &P = *Built.P;
  std::vector<unsigned> Order;
  auto SubmitOne = [&](PipelineServer::SessionId Id, unsigned Tag) {
    ASSERT_TRUE(Server.submit(
        Id,
        [&P](int Index, std::vector<Image> &Pool) {
          fillInputs(P, Pool, static_cast<uint64_t>(Index));
        },
        [&Order, Tag](int, const std::vector<Image> &) {
          Order.push_back(Tag);
        }));
  };
  for (int I = 0; I != 4; ++I)
    SubmitOne(A, 0);
  Server.runPending();
  for (int I = 0; I != 3; ++I)
    SubmitOne(B, 1);
  for (int I = 0; I != 3; ++I)
    SubmitOne(A, 0);
  Server.runPending();
  EXPECT_EQ(Order, (std::vector<unsigned>{0, 0, 0, 0, 1, 0, 1, 0, 1, 0}));
}

//===--------------------------------------------------------------------===//
// Shared plan cache across tenants
//===--------------------------------------------------------------------===//

TEST(ServerPlanCache, SameProgramAndOptionsShareOnePlan) {
  BuiltPipeline Built = buildPipeline("harris", 40, 34);
  ServerOptions SO;
  SO.Threads = 1;
  SO.Dispatchers = 0;
  PipelineServer Server(SO);
  const Program &P = *Built.P;
  auto Fill = [&P](int Index, std::vector<Image> &Pool) {
    fillInputs(P, Pool, static_cast<uint64_t>(Index));
  };

  PipelineServer::SessionId A = Server.open(Built.FP);
  PipelineServer::SessionId B = Server.open(Built.FP);
  ASSERT_TRUE(Server.submit(A, Fill));
  ASSERT_TRUE(Server.submit(B, Fill));
  ASSERT_TRUE(Server.submit(A, Fill));
  EXPECT_EQ(Server.runPending(), 3u);

  // Three plan lookups, ONE compilation: the first tenant misses, every
  // other lookup (including the sibling tenant's first) hits the shared
  // entry.
  PlanCacheStats Cache = Server.cacheStats();
  EXPECT_EQ(Cache.Misses, 1u);
  EXPECT_EQ(Cache.Hits, 2u);
  EXPECT_EQ(Cache.Entries, 1u);
  EXPECT_EQ(Server.tenantStats(A).Session.PlanMisses +
                Server.tenantStats(B).Session.PlanMisses,
            1u);

  // A tenant under a DIFFERENT optimizer setting is isolated: its own
  // key, its own compilation, a second cache entry.
  ExecutionOptions Unoptimized;
  Unoptimized.Opt = OptMode::Off;
  PipelineServer::SessionId C = Server.open(Built.FP, Unoptimized);
  ASSERT_TRUE(Server.submit(C, Fill));
  EXPECT_EQ(Server.runPending(), 1u);
  Cache = Server.cacheStats();
  EXPECT_EQ(Cache.Misses, 2u);
  EXPECT_EQ(Cache.Entries, 2u);
  EXPECT_EQ(Server.tenantStats(C).Session.PlanMisses, 1u);

  // Options that only steer execution never split the key: a tiled
  // tenant shares the first plan. The Source tag differs across ALL
  // tenants too, yet every sharing above happened.
  ExecutionOptions Tiled;
  Tiled.TileHeight = 8;
  PipelineServer::SessionId D = Server.open(Built.FP, Tiled);
  ASSERT_TRUE(Server.submit(D, Fill));
  EXPECT_EQ(Server.runPending(), 1u);
  Cache = Server.cacheStats();
  EXPECT_EQ(Cache.Misses, 2u);
  EXPECT_EQ(Cache.Entries, 2u);
  EXPECT_EQ(Server.tenantStats(D).Session.PlanMisses, 0u);
}

//===--------------------------------------------------------------------===//
// Session churn under concurrency (TSan food)
//===--------------------------------------------------------------------===//

TEST(ServerChurn, RandomizedOpenSubmitCloseFromManyThreads) {
  // Client threads churn tenants against live dispatchers: open, submit a
  // few frames, sometimes drain, close. Exercises the close-vs-dispatch
  // and submit-vs-close races; runs under -DKF_SANITIZE=thread via the
  // sanitize-smoke and server-smoke labels.
  BuiltPipeline Sobel = buildPipeline("sobel", 24, 20);
  BuiltPipeline Unsharp = buildPipeline("unsharp", 24, 20);
  const BuiltPipeline *Specs[2] = {&Sobel, &Unsharp};

  ServerOptions SO;
  SO.Threads = 2;
  SO.Dispatchers = 2;
  PipelineServer Server(SO);

  constexpr int Clients = 3;
  constexpr int IterationsPerClient = 8;
  std::atomic<uint64_t> ServedTotal{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      Rng Gen(0xc0ffee + static_cast<uint64_t>(C));
      for (int I = 0; I != IterationsPerClient; ++I) {
        uint64_t R = Gen.next();
        const BuiltPipeline &Built = *Specs[R & 1];
        TenantOptions TO;
        TO.QueueCapacity = 1 + (R >> 1) % 3;
        TO.Weight = 1 + (R >> 3) % 3;
        TO.Policy = (R >> 5) & 1 ? BackpressurePolicy::Reject
                                 : BackpressurePolicy::Block;
        PipelineServer::SessionId Id =
            Server.open(Built.FP, ExecutionOptions(), TO);
        const Program &P = *Built.P;
        int Frames = 1 + (R >> 6) % 3;
        // Under the Reject policy a full queue refuses a frame; either
        // outcome is fine here.
        for (int F = 0; F != Frames; ++F)
          Server.submit(
              Id,
              [&P](int Index, std::vector<Image> &Pool) {
                fillInputs(P, Pool, static_cast<uint64_t>(Index));
              },
              [&ServedTotal](int, const std::vector<Image> &) {
                ++ServedTotal;
              });
        if ((R >> 8) & 1)
          Server.drain(Id);
        Server.close(Id);
        // After close() returns the tenant is gone: stats are zeroed and
        // further submits fail.
        EXPECT_FALSE(Server.submit(Id, nullptr));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Server.drainAll();
  EXPECT_GT(ServedTotal.load(), 0u);
  // Both pipelines under default options: at most two distinct plans.
  EXPECT_LE(Server.cacheStats().Entries, 2u);
  EXPECT_GE(Server.cacheStats().Hits, 1u);
}

} // namespace
