//===- bench/mincut_scaling.cpp - Compile-time microbenchmarks -------------------===//
//
// google-benchmark microbenchmarks of the compile-time components
// (Section III-C complexity discussion): the Stoer-Wagner minimum cut on
// dense random connected graphs and on the weighted kernel DAGs fusion
// actually cuts, full Algorithm 1 runs on random pipelines, the benefit
// model's weight assignment, and the exhaustive search blow-up.
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "fusion/ExhaustivePartitioner.h"
#include "fusion/MinCutPartitioner.h"
#include "graph/MinCut.h"
#include "graph/RandomGraphs.h"

#include <benchmark/benchmark.h>

using namespace kf;

static void BM_StoerWagner(benchmark::State &State) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Rng Gen(99 + N);
  auto W = randomConnectedWeights(N, 3 * N, 1.0, 100.0, Gen);
  for (auto _ : State) {
    CutResult Cut = stoerWagnerMinCut(W);
    benchmark::DoNotOptimize(Cut.Weight);
  }
  State.SetComplexityN(N);
}
BENCHMARK(BM_StoerWagner)->RangeMultiplier(2)->Range(8, 128)->Complexity();

// The first cut Algorithm 1 makes on a random pipeline: the whole weighted
// kernel DAG (sparse, mean degree about 2.3) as one block.
static void BM_StoerWagnerKernelDag(benchmark::State &State) {
  unsigned NumKernels = static_cast<unsigned>(State.range(0));
  Rng Gen(7 + NumKernels);
  Program P = makeRandomPipeline(NumKernels, 0.4, 48, 48, Gen);
  LegalityChecker Checker(P, HardwareModel());
  Digraph Dag = BenefitModel(Checker).buildWeightedDag();
  std::vector<Digraph::NodeId> All(Dag.numNodes());
  for (Digraph::NodeId N = 0; N != Dag.numNodes(); ++N)
    All[N] = N;
  for (auto _ : State) {
    CutResult Cut = stoerWagnerMinCut(Dag, All);
    benchmark::DoNotOptimize(Cut.Weight);
  }
  State.SetComplexityN(NumKernels);
}
BENCHMARK(BM_StoerWagnerKernelDag)
    ->RangeMultiplier(2)
    ->Range(8, 64)
    ->Complexity();

static void BM_MinCutFusionRandomPipeline(benchmark::State &State) {
  unsigned NumKernels = static_cast<unsigned>(State.range(0));
  Rng Gen(7 + NumKernels);
  Program P = makeRandomPipeline(NumKernels, 0.4, 64, 64, Gen);
  HardwareModel HW = paperHardwareModel();
  for (auto _ : State) {
    MinCutFusionResult Result = runMinCutFusion(P, HW);
    benchmark::DoNotOptimize(Result.TotalBenefit);
  }
  State.SetComplexityN(NumKernels);
}
BENCHMARK(BM_MinCutFusionRandomPipeline)
    ->RangeMultiplier(2)
    ->Range(4, 64)
    ->Complexity();

static void BM_MinCutFusionHarris(benchmark::State &State) {
  Program P = makeHarris(2048, 2048);
  HardwareModel HW = paperHardwareModel();
  for (auto _ : State) {
    MinCutFusionResult Result = runMinCutFusion(P, HW);
    benchmark::DoNotOptimize(Result.TotalBenefit);
  }
}
BENCHMARK(BM_MinCutFusionHarris);

static void BM_BenefitModelWeightAssignment(benchmark::State &State) {
  Program P = makeHarris(2048, 2048);
  HardwareModel HW = paperHardwareModel();
  LegalityChecker Checker(P, HW);
  BenefitModel Model(Checker);
  for (auto _ : State) {
    Digraph Dag = Model.buildWeightedDag();
    benchmark::DoNotOptimize(Dag.totalWeight());
  }
}
BENCHMARK(BM_BenefitModelWeightAssignment);

static void BM_ExhaustiveSearch(benchmark::State &State) {
  unsigned NumKernels = static_cast<unsigned>(State.range(0));
  Rng Gen(3 + NumKernels);
  Program P = makeRandomPipeline(NumKernels, 0.4, 64, 64, Gen);
  HardwareModel HW = paperHardwareModel();
  for (auto _ : State) {
    ExhaustiveFusionResult Result = runExhaustiveFusion(P, HW);
    benchmark::DoNotOptimize(Result.TotalBenefit);
  }
  State.SetComplexityN(NumKernels);
}
BENCHMARK(BM_ExhaustiveSearch)->DenseRange(4, 10, 2);

static void BM_FuserMaterialization(benchmark::State &State) {
  Program P = makeHarris(2048, 2048);
  HardwareModel HW = paperHardwareModel();
  MinCutFusionResult Fusion = runMinCutFusion(P, HW);
  for (auto _ : State) {
    FusedProgram FP =
        fuseProgram(P, Fusion.Blocks, FusionStyle::Optimized);
    benchmark::DoNotOptimize(FP.numLaunches());
  }
}
BENCHMARK(BM_FuserMaterialization);

#include "image/Generators.h"
#include "ir/ExprVM.h"
#include "sim/Executor.h"

static void BM_InterpreterHarris(benchmark::State &State) {
  Program P = makeHarris(96, 96);
  Rng Gen(1);
  std::vector<Image> Pool = makeImagePool(P);
  Pool[0] = makeRandomImage(96, 96, 1, Gen);
  for (auto _ : State) {
    std::vector<Image> Work = Pool;
    runUnfused(P, Work);
    benchmark::DoNotOptimize(Work[9].at(48, 48));
  }
}
BENCHMARK(BM_InterpreterHarris)->Unit(benchmark::kMillisecond);

static void BM_BytecodeVmHarris(benchmark::State &State) {
  Program P = makeHarris(96, 96);
  FusedProgram Unfused = unfusedProgram(P);
  Rng Gen(1);
  std::vector<Image> Pool = makeImagePool(P);
  Pool[0] = makeRandomImage(96, 96, 1, Gen);
  ExecutionOptions Serial;
  Serial.Threads = 1;
  for (auto _ : State) {
    std::vector<Image> Work = Pool;
    runFusedVm(Unfused, Work, Serial);
    benchmark::DoNotOptimize(Work[9].at(48, 48));
  }
}
BENCHMARK(BM_BytecodeVmHarris)->Unit(benchmark::kMillisecond);

static void BM_VmCompilation(benchmark::State &State) {
  Program P = makeNight(32, 32); // The fattest bodies (unrolled 5x5 x2).
  for (auto _ : State) {
    StagedVmProgram SP = compileStagedProgram(P, {1}, {false});
    benchmark::DoNotOptimize(SP.Stages[0].Code.Insts.size());
  }
}
BENCHMARK(BM_VmCompilation);
