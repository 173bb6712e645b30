//===- bench/crossover_sweep.cpp - Locality/recompute crossover ------------------===//
//
// Regenerates the compute-boundedness discussion of Section V (the Night
// filter analysis): sweeping the arithmetic cost of a point producer
// feeding a 3x3 local consumer shows where the estimated benefit of
// point-to-local fusion (Eq. 8: w = delta_reg - cost_op * IS_ks * sz)
// crosses zero, and that the benefit model's fuse/skip decision tracks the
// simulated execution times -- fusing past the crossover would slow the
// pipeline down ("compute-bound applications benefit less from kernel
// fusion").
//
// The second half studies the analogous crossover between the two tiling
// strategies of the fused VM: the interior/halo split (recursive halo
// recompute at tile edges) vs overlapped tiling (each tile recomputes a
// margin-grown footprint into scratch planes, Eq. 9's fused reach).
// It sweeps fused reach against tile size on synthetic blur chains,
// A/Bs Harris at the paper's 2048x2048, and measures every registry
// pipeline under both strategies and under the default per-launch rule
// (TilingStrategy::Auto), reporting how far the default lands from the
// measured best. Every run goes through a PipelineSession -- the plan is
// compiled once, then frames are timed -- so the numbers are those of the
// served path. Results are spliced into the shared throughput JSON as the
// "tiling_crossover" section.
//
// Options:
//   --out FILE          JSON results file (default BENCH_throughput.json)
//   --tiling-scale S    registry-pipeline image scale (default 0.25)
//   --tiling-reps N     best-of-N wall-clock reps (default 3)
//   --harris-size N     Harris A/B image extent (default 2048)
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "fusion/MinCutPartitioner.h"
#include "ir/Verifier.h"
#include "pipelines/Masks.h"
#include "sim/Session.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <chrono>
#include <cstdio>
#include <string>

using namespace kf;

namespace {

/// A chain of \p Depth 3x3 binomial blurs: fused whole, the destination's
/// reach (Eq. 9) is exactly \p Depth, which makes chains the natural axis
/// for the reach-vs-tile-size sweep.
Program makeDeepBlurChain(int Width, int Height, int Depth) {
  Program P("blurdepth" + std::to_string(Depth));
  ExprContext &C = P.context();
  int MaskIdx = P.addMask(binomial3Normalized());
  ImageId Prev = P.addImage("in", Width, Height);
  for (int N = 0; N != Depth; ++N) {
    ImageId Next = P.addImage("blur" + std::to_string(N), Width, Height);
    Kernel K;
    K.Name = "blur" + std::to_string(N);
    K.Kind = OperatorKind::Local;
    K.Inputs = {Prev};
    K.Output = Next;
    K.Body = C.stencil(MaskIdx, ReduceOp::Sum,
                       C.mul(C.maskValue(), C.stencilInput(0)));
    K.Border = BorderMode::Clamp;
    P.addKernel(std::move(K));
    Prev = Next;
  }
  verifyProgramOrDie(P);
  return P;
}

/// Best-of-\p Reps wall milliseconds for one frame of \p FP under
/// \p Options on a pipeline session whose plan is compiled untimed.
double measureFusedWallMs(const Program &P, const FusedProgram &FP,
                          const ExecutionOptions &Options, int Reps) {
  PlanCache Cache;
  PipelineSession Session(FP, Options, &Cache);
  Session.plan();
  std::vector<Image> Pool = makeImagePool(P);
  fillExternalInputs(P, Pool, 0x7113);
  double Best = 0.0;
  for (int R = 0; R < std::max(Reps, 1); ++R) {
    auto Start = std::chrono::steady_clock::now();
    Session.runFrame(Pool);
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    Best = R == 0 ? Ms : std::min(Best, Ms);
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cl(Argc, Argv);
  HardwareModel HW = paperHardwareModel();
  CostModelParams Params;
  DeviceSpec Device = DeviceSpec::gtx680();

  std::printf("=== Crossover sweep: point-to-local fusion vs producer cost "
              "(GTX680, 2048x2048) ===\n\n");
  std::printf("Eq. 8: w = %.0f - (%.0f * (nALU+1)) * 1 * 9; the model "
              "predicts the crossover at\nnALU+1 > %.1f operations.\n\n",
              HW.GlobalAccessCycles, HW.AluCost,
              HW.GlobalAccessCycles / (HW.AluCost * 9.0));

  TablePrinter Table({"producer ALU ops", "edge weight w", "model fuses?",
                      "t_base ms", "t_fused ms", "fused/base speedup"});

  for (int AluOps : {1, 2, 4, 6, 8, 10, 11, 12, 16, 24, 48, 96}) {
    Program P = makePointToLocal(2048, 2048, AluOps);

    // What the model decides.
    MinCutFusionResult Decision = runMinCutFusion(P, HW);
    bool Fused = Decision.Blocks.Blocks.size() == 1;
    LegalityChecker Checker(P, HW);
    BenefitModel Model(Checker);
    EdgeBenefit Edge = Model.edgeBenefit(0, 1);

    // Simulated times of both choices, regardless of the decision.
    double TBase = estimateProgramTimeMs(
        accountFusedProgram(unfusedProgram(P)), Device, Params);
    Partition Whole;
    Whole.Blocks.push_back(PartitionBlock{{0, 1}});
    double TFused = estimateProgramTimeMs(
        accountFusedProgram(fuseProgram(P, Whole, FusionStyle::Optimized)),
        Device, Params);

    Table.addRow({std::to_string(AluOps + 1), // +1: the store (Eq. 6).
                  Edge.Weight <= HW.Epsilon ? "eps"
                                            : formatDouble(Edge.Weight, 0),
                  Fused ? "yes" : "no", formatDouble(TBase, 3),
                  formatDouble(TFused, 3),
                  formatDouble(TBase / TFused, 3)});
  }
  std::fputs(Table.render().c_str(), stdout);

  std::printf("\nReading: while the producer is cheap, fusing wins and the "
              "model fuses; as the producer\ngrows, the 9x recompute makes "
              "the fused kernel compute-bound and the speedup decays\n"
              "below 1.0 -- the model stops fusing near the analytic "
              "crossover. This is the mechanism\nbehind the Night filter's "
              "flat Table I row.\n");

  //===------------------------------------------------------------------===//
  // Tiling-strategy crossover: interior/halo vs overlapped tiling.
  //===------------------------------------------------------------------===//

  std::string OutFile = Cl.getOption("out", "BENCH_throughput.json");
  double TilingScale = Cl.getDoubleOption("tiling-scale", 0.25);
  int Reps = std::max(1, static_cast<int>(Cl.getIntOption("tiling-reps", 3)));
  int HarrisSize =
      std::max(64, static_cast<int>(Cl.getIntOption("harris-size", 2048)));

  auto abOptions = [](TilingStrategy Strategy, int TileW, int TileH) {
    ExecutionOptions Options;
    Options.Tiling = Strategy;
    if (Strategy == TilingStrategy::Overlapped) {
      Options.TileWidth = TileW;
      Options.TileHeight = TileH;
    }
    return Options;
  };

  // Reach vs tile size: deep blur chains fused whole (reach == depth) at
  // a fixed image size, overlapped tiles shrinking against them. The
  // redundant margin area grows as (T+2R)^2/T^2, so deep chains punish
  // small tiles.
  std::printf("\n=== Tiling crossover: fused reach vs overlapped tile size "
              "(host VM, 512x512) ===\n\n");
  TablePrinter ReachTable({"chain depth (reach)", "tile", "interior ms",
                           "overlapped ms", "overlapped/interior speedup"});
  std::string ReachJson = "[";
  // Depth stops at 4: the shared border-ring path recomputes producers
  // recursively per halo pixel (9^depth taps), so deeper chains measure
  // the ring, not the tiled interior the sweep is about.
  for (int Depth : {1, 2, 3, 4}) {
    Program P = makeDeepBlurChain(512, 512, Depth);
    Partition Whole;
    PartitionBlock Block;
    for (KernelId Id = 0; Id != P.numKernels(); ++Id)
      Block.Kernels.push_back(Id);
    Whole.Blocks.push_back(Block);
    FusedProgram FP = fuseProgram(P, Whole, FusionStyle::Optimized);
    double InteriorMs = measureFusedWallMs(
        P, FP, abOptions(TilingStrategy::InteriorHalo, 0, 0), Reps);
    for (auto [TileW, TileH] : {std::pair<int, int>{32, 8},
                                std::pair<int, int>{128, 32},
                                std::pair<int, int>{256, 64}}) {
      double OverlapMs = measureFusedWallMs(
          P, FP, abOptions(TilingStrategy::Overlapped, TileW, TileH), Reps);
      double Speedup = OverlapMs > 0.0 ? InteriorMs / OverlapMs : 0.0;
      ReachTable.addRow({std::to_string(Depth),
                         std::to_string(TileW) + "x" + std::to_string(TileH),
                         formatDouble(InteriorMs, 3),
                         formatDouble(OverlapMs, 3),
                         formatDouble(Speedup, 3)});
      char Row[256];
      std::snprintf(Row, sizeof(Row),
                    "%s\n    {\"reach\": %d, \"tile\": \"%dx%d\", "
                    "\"interior_ms\": %.4f, \"overlapped_ms\": %.4f, "
                    "\"overlapped_speedup\": %.4f}",
                    ReachJson.size() > 1 ? "," : "", Depth, TileW, TileH,
                    InteriorMs, OverlapMs, Speedup);
      ReachJson += Row;
    }
  }
  ReachJson += "\n  ]";
  std::fputs(ReachTable.render().c_str(), stdout);

  // Registry pipelines under both strategies and under the default
  // per-launch rule, which picks a strategy per launch and so can beat
  // both whole-program strategies.
  std::printf("\n=== Tiling crossover: registry pipelines (scale %.2f, "
              "best of %d) ===\n\n",
              TilingScale, Reps);
  TablePrinter AppTable({"app", "interior ms", "overlapped ms", "auto ms",
                         "measured winner", "auto/best"});
  std::string AppJson = "[";
  int InteriorWins = 0, OverlappedWins = 0;
  double WorstAutoOverBest = 0.0;
  auto measureOne = [&](const std::string &Name, const Program &P,
                        const FusedProgram &FP, bool Registry) {
    double InteriorMs = measureFusedWallMs(
        P, FP, abOptions(TilingStrategy::InteriorHalo, 0, 0), Reps);
    double OverlapMs = measureFusedWallMs(
        P, FP, abOptions(TilingStrategy::Overlapped, 0, 0), Reps);
    double AutoMs = measureFusedWallMs(
        P, FP, abOptions(TilingStrategy::Auto, 0, 0), Reps);

    const char *MeasuredWinner =
        OverlapMs < InteriorMs ? "overlapped" : "interior";
    (OverlapMs < InteriorMs ? OverlappedWins : InteriorWins) += 1;
    double BestMs = std::min(InteriorMs, OverlapMs);
    double AutoOverBest = BestMs > 0.0 ? AutoMs / BestMs : 0.0;
    WorstAutoOverBest = std::max(WorstAutoOverBest, AutoOverBest);
    AppTable.addRow({Name, formatDouble(InteriorMs, 3),
                     formatDouble(OverlapMs, 3), formatDouble(AutoMs, 3),
                     MeasuredWinner, formatDouble(AutoOverBest, 3)});
    char Row[320];
    std::snprintf(Row, sizeof(Row),
                  "%s\n    {\"app\": \"%s\", \"registry\": %s, "
                  "\"interior_ms\": %.4f, "
                  "\"overlapped_ms\": %.4f, \"auto_ms\": %.4f, "
                  "\"measured_winner\": \"%s\", \"auto_over_best\": %.4f}",
                  AppJson.size() > 1 ? "," : "", Name.c_str(),
                  Registry ? "true" : "false", InteriorMs, OverlapMs, AutoMs,
                  MeasuredWinner, AutoOverBest);
    AppJson += Row;
  };

  for (const PipelineSpec &Spec : paperPipelines()) {
    AppVariants App = buildAppVariants(Spec, TilingScale);
    measureOne(Spec.Name, *App.Source, App.Optimized, /*Registry=*/true);
  }
  // Pure point chains bound the other side of the crossover: no windows,
  // so overlapped tiling's scratch planes are pure overhead against the
  // interior path's in-register chaining.
  for (int ChainAlu : {8, 32}) {
    Program P = makePointChain(512, 512, 6, ChainAlu);
    MinCutFusionResult Fusion = runMinCutFusion(P, HW);
    FusedProgram FP =
        fuseProgram(P, Fusion.Blocks, FusionStyle::Optimized);
    measureOne("pointchain-alu" + std::to_string(ChainAlu), P, FP,
               /*Registry=*/false);
  }
  AppJson += "\n  ]";
  std::fputs(AppTable.render().c_str(), stdout);
  std::printf("wins: %d interior, %d overlapped; the default rule is at "
              "worst %.3fx the measured best\n",
              InteriorWins, OverlappedWins, WorstAutoOverBest);

  // Harris at the paper's full frame: the headline A/B of the strategy.
  const PipelineSpec *Harris = findPipeline("harris");
  Program HarrisP = Harris->Builder(HarrisSize, HarrisSize);
  FusedProgram HarrisFp =
      fuseProgram(HarrisP, runMinCutFusion(HarrisP, HW).Blocks,
                  FusionStyle::Optimized);
  double HarrisInterior = measureFusedWallMs(
      HarrisP, HarrisFp, abOptions(TilingStrategy::InteriorHalo, 0, 0), Reps);
  double HarrisOverlap = measureFusedWallMs(
      HarrisP, HarrisFp, abOptions(TilingStrategy::Overlapped, 0, 0), Reps);
  std::printf("\nharris %dx%d A/B (best of %d): interior %.3f ms, "
              "overlapped %.3f ms, overlapped speedup %.3fx\n",
              HarrisSize, HarrisSize, Reps, HarrisInterior, HarrisOverlap,
              HarrisOverlap > 0.0 ? HarrisInterior / HarrisOverlap : 0.0);

  std::string Section = "{\n  \"reach_sweep\": " + ReachJson +
                        ",\n  \"pipelines\": " + AppJson;
  char Tail[512];
  std::snprintf(
      Tail, sizeof(Tail),
      ",\n  \"worst_auto_over_best\": %.4f,\n"
      "  \"harris_ab\": {\"width\": %d, \"height\": %d, "
      "\"interior_ms\": %.4f, \"overlapped_ms\": %.4f, "
      "\"overlapped_speedup\": %.4f}\n}",
      WorstAutoOverBest, HarrisSize, HarrisSize,
      HarrisInterior, HarrisOverlap,
      HarrisOverlap > 0.0 ? HarrisInterior / HarrisOverlap : 0.0);
  Section += Tail;
  if (spliceJsonSection(OutFile, "tiling_crossover", Section))
    std::printf("appended tiling_crossover section to %s\n", OutFile.c_str());
  else {
    std::fprintf(stderr, "error: cannot write %s\n", OutFile.c_str());
    return 1;
  }
  return 0;
}
