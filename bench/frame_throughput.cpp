//===- bench/frame_throughput.cpp - Streaming session frame rate ----------------===//
//
// Measures frames/sec of a streaming serving workload -- the same fused
// pipeline applied to a stream of frames -- cold versus warm:
//
//   cold  per-frame runFusedVm loop: every frame re-compiles the plan
//         (bytecode, validation, optimizer, JIT), rebuilds the thread
//         pool, and allocates every buffer (what a naive serving loop
//         pays);
//   warm  PipelineSession: the plan is compiled once and served from the
//         plan cache, frame buffers recycle through the session's frame
//         pool, and the next frame's input fill overlaps execution on a
//         filler thread (double buffering).
//
// A second experiment swaps the interior VM engine on the launches of one
// compiled plan (optimizer off, interior/halo tiling): scalar (per-pixel
// bytecode dispatch) versus span (lane-batched interpretation) versus jit
// (the plan's compiled cell chains, src/jit), reporting the pairwise
// interior speedups and asserting all three engines bit-identical.
//
// A third experiment compiles session plans for the primary app plus the
// guard-heavy registry pipelines (clamp/select-dense night and enhance)
// with the interval-fact-gated bytecode optimizer on versus off
// (ExecutionOptions::Opt, ir/VmOptimizer.h) and reports the interior
// speedup and removed-instruction counts, asserting optimized and
// unoptimized plans bit-identical.
//
// Results are appended to the throughput JSON (BENCH_throughput.json) as
// "frame_throughput", "jit_speedup", and "opt_speedup" sections. The
// final cold and warm frames use the same input and are checked
// bit-identical. The bench exits 1 when any of its bit-identity checks
// fails, or when a launch holding a JIT artifact ran another engine in
// the jit row.
//
// Options:
//   --app <name>      pipeline registry name (default harris)
//   --width/--height  frame size (default the paper's 2048x2048)
//   --frames N        frames per measured stream (default 4)
//   --ab-reps N       runs per engine in the interior A/Bs (default 3)
//   --threads N       worker threads (0 = auto)
//   --out FILE        JSON results file (default BENCH_throughput.json)
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "sim/Session.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace kf;

namespace {

double sinceMs(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cl(Argc, Argv, {});
  std::string AppName = Cl.getOption("app", "harris");
  const PipelineSpec *Spec = findPipeline(AppName);
  if (!Spec) {
    std::fprintf(stderr, "error: unknown pipeline '%s'\n", AppName.c_str());
    return 1;
  }
  int Width = static_cast<int>(Cl.getIntOption("width", 2048));
  int Height = static_cast<int>(Cl.getIntOption("height", 2048));
  int Frames = std::max(2, static_cast<int>(Cl.getIntOption("frames", 4)));
  std::string OutFile = Cl.getOption("out", "BENCH_throughput.json");

  ExecutionOptions Options;
  Options.Threads = static_cast<int>(Cl.getIntOption("threads", 0));

  PipelineSpec Sized = *Spec;
  Sized.Width = Width;
  Sized.Height = Height;
  AppVariants App = buildAppVariants(Sized);
  const Program &P = *App.Source;
  const FusedProgram &FP = App.Optimized;

  auto FillFrame = [&](int Frame, std::vector<Image> &Pool) {
    fillExternalInputs(P, Pool, 0xf3a7e + static_cast<uint64_t>(Frame));
  };

  std::printf("=== Frame throughput: %s at %dx%d, %d frames, %u threads "
              "===\n\n",
              AppName.c_str(), Width, Height, Frames,
              resolveThreadCount(Options.Threads));

  // Cold: a per-frame runFusedVm loop -- compile, thread pool, and every
  // buffer paid per frame.
  std::vector<Image> ColdLast;
  auto ColdStart = std::chrono::steady_clock::now();
  for (int F = 0; F != Frames; ++F) {
    std::vector<Image> Pool = makeImagePool(P);
    FillFrame(F, Pool);
    runFusedVm(FP, Pool, Options);
    if (F + 1 == Frames)
      ColdLast = std::move(Pool);
  }
  double ColdMs = sinceMs(ColdStart);

  // Warm: one primer frame compiles the plan and charges the cold-start
  // cost, then the measured stream runs entirely from the caches.
  PlanCache Cache;
  PipelineSession Session(FP, Options, &Cache);
  auto PrimeStart = std::chrono::steady_clock::now();
  Session.runFrames(1, FillFrame);
  double PrimeMs = sinceMs(PrimeStart);

  std::vector<Image> WarmLast;
  auto WarmStart = std::chrono::steady_clock::now();
  Session.runFrames(Frames, FillFrame,
                    [&](int F, const std::vector<Image> &Pool) {
                      if (F + 1 == Frames)
                        WarmLast = Pool;
                    });
  double WarmMs = sinceMs(WarmStart);

  double MaxDiff = 0.0;
  for (const FusedKernel &FK : FP.Kernels)
    for (KernelId Dest : FK.Destinations) {
      ImageId Out = P.kernel(Dest).Output;
      MaxDiff =
          std::max(MaxDiff, maxAbsDifference(WarmLast[Out], ColdLast[Out]));
    }

  // Interior timing of one compiled plan: its launches run AbReps times
  // on identical inputs, interior CPU time collected per launch via
  // LaunchTiming (min over reps -- compile time never enters the split).
  // Shared by the engine and optimizer A/Bs.
  int AbReps = std::max(1, static_cast<int>(Cl.getIntOption("ab-reps", 3)));
  struct PlanMeasure {
    double InteriorMs = 0.0;
    double HaloMs = 0.0;
    /// A launch that holds a JIT artifact ran another engine under a Jit
    /// request: the jit row would silently measure something else.
    bool JitMissed = false;
    std::vector<Image> Pool;
  };
  auto timePlan = [&](const Program &AppP, const CompiledPlan &Plan,
                      const ExecutionOptions &RunOptions) {
    ThreadPool TP(resolveThreadCount(RunOptions.Threads));
    VmScratch Scratch;
    PlanMeasure M;
    M.Pool = makeImagePool(AppP);
    fillExternalInputs(AppP, M.Pool, 0xf3a7e);
    for (int R = 0; R != AbReps; ++R) {
      LaunchTiming Timing;
      for (const CompiledLaunch &L : Plan.Launches) {
        const ImageInfo &Info = Plan.Shapes[L.Output];
        Image Out(Info.Width, Info.Height, Info.Channels);
        runCompiledLaunch(L.Code, L.Root, L.Halo, M.Pool, Out, RunOptions,
                          TP, Scratch, &Timing, L.Jit.get());
        if (RunOptions.Mode == VmMode::Jit && L.Jit &&
            Timing.Mode != VmMode::Jit)
          M.JitMissed = true;
        M.Pool[L.Output] = std::move(Out);
      }
      if (R == 0 || Timing.InteriorMs < M.InteriorMs) {
        M.InteriorMs = Timing.InteriorMs;
        M.HaloMs = Timing.HaloMs;
      }
    }
    return M;
  };

  // Engine A/B: one plan compiled without the optimizer, its launches
  // run with the interior engine swapped. Tiling is pinned to the
  // interior/halo split, the only strategy the JIT runs under.
  ExecutionOptions AbOptions = Options;
  AbOptions.Opt = OptMode::Off;
  AbOptions.Tiling = TilingStrategy::InteriorHalo;
  std::shared_ptr<const CompiledPlan> AbPlan = compilePlan(FP, AbOptions);
  auto measureInterior = [&](VmMode Mode) {
    ExecutionOptions ModeOptions = AbOptions;
    ModeOptions.Mode = Mode;
    return timePlan(P, *AbPlan, ModeOptions);
  };
  PlanMeasure Scalar = measureInterior(VmMode::Scalar);
  PlanMeasure Span = measureInterior(VmMode::Span);
  PlanMeasure Jit = measureInterior(VmMode::Jit);
  double SpanSpeedup =
      Span.InteriorMs > 0.0 ? Scalar.InteriorMs / Span.InteriorMs : 0.0;
  double JitOverSpan =
      Jit.InteriorMs > 0.0 ? Span.InteriorMs / Jit.InteriorMs : 0.0;
  double JitOverScalar =
      Jit.InteriorMs > 0.0 ? Scalar.InteriorMs / Jit.InteriorMs : 0.0;
  double AbDiff = 0.0;
  for (const FusedKernel &FK : FP.Kernels)
    for (KernelId Dest : FK.Destinations) {
      ImageId Out = P.kernel(Dest).Output;
      AbDiff = std::max(AbDiff,
                        maxAbsDifference(Scalar.Pool[Out], Span.Pool[Out]));
      AbDiff = std::max(AbDiff,
                        maxAbsDifference(Span.Pool[Out], Jit.Pool[Out]));
    }

  double ColdFps = Frames * 1000.0 / ColdMs;
  double WarmFps = Frames * 1000.0 / WarmMs;
  const SessionStats &S = Session.stats();

  TablePrinter Table({"mode", "wall ms", "frames/s", "speedup"});
  Table.addRow({"cold per-frame runFusedVm", formatDouble(ColdMs, 3),
                formatDouble(ColdFps, 3), "1.000"});
  Table.addRow({"warm session stream", formatDouble(WarmMs, 3),
                formatDouble(WarmFps, 3), formatDouble(WarmFps / ColdFps, 3)});
  std::fputs(Table.render().c_str(), stdout);
  std::printf("session cold-start (first frame incl. compile): %.3f ms; "
              "plan cache: %llu hits, %llu misses; frame buffers: %llu "
              "reused, %llu allocated\n",
              PrimeMs, static_cast<unsigned long long>(S.PlanHits),
              static_cast<unsigned long long>(S.PlanMisses),
              static_cast<unsigned long long>(S.FramesReused),
              static_cast<unsigned long long>(S.FramesAllocated));
  std::printf("max |warm - cold| over destinations: %g\n", MaxDiff);
  std::printf("interior A/B (best of %d): scalar %.3f ms, span %.3f ms, "
              "jit %.3f ms; span-over-scalar %.2fx, jit-over-span %.2fx, "
              "jit-over-scalar %.2fx; max pairwise |diff| over "
              "destinations: %g\n",
              AbReps, Scalar.InteriorMs, Span.InteriorMs, Jit.InteriorMs,
              SpanSpeedup, JitOverSpan, JitOverScalar, AbDiff);

  char Section[1024];
  std::snprintf(
      Section, sizeof(Section),
      "{\"app\": \"%s\", \"width\": %d, \"height\": %d, \"frames\": %d, "
      "\"threads\": %u, \"vm_mode\": \"%s\", "
      "\"cold_wall_ms\": %.4f, \"warm_wall_ms\": %.4f, "
      "\"cold_frames_per_sec\": %.4f, \"warm_frames_per_sec\": %.4f, "
      "\"warm_over_cold\": %.4f, \"session_cold_start_ms\": %.4f, "
      "\"plan_cache_hits\": %llu, \"plan_cache_misses\": %llu, "
      "\"interior_scalar_ms\": %.4f, \"interior_span_ms\": %.4f, "
      "\"span_over_scalar_interior\": %.4f}",
      AppName.c_str(), Width, Height, Frames,
      resolveThreadCount(Options.Threads),
      vmModeName(Options.Mode), ColdMs, WarmMs, ColdFps,
      WarmFps, WarmFps / ColdFps, PrimeMs,
      static_cast<unsigned long long>(S.PlanHits),
      static_cast<unsigned long long>(S.PlanMisses), Scalar.InteriorMs,
      Span.InteriorMs, SpanSpeedup);
  if (spliceJsonSection(OutFile, "frame_throughput", Section))
    std::printf("\nappended frame_throughput section to %s\n",
                OutFile.c_str());
  else {
    std::fprintf(stderr, "error: cannot write %s\n", OutFile.c_str());
    return 1;
  }

  // The JIT interior A/B as its own section: the same compiled launches
  // with the interpreter dispatch removed (per-plan cell chains).
  std::snprintf(
      Section, sizeof(Section),
      "{\"app\": \"%s\", \"width\": %d, \"height\": %d, "
      "\"threads\": %u, \"ab_reps\": %d, "
      "\"interior_scalar_ms\": %.4f, \"interior_span_ms\": %.4f, "
      "\"interior_jit_ms\": %.4f, \"jit_over_span_interior\": %.4f, "
      "\"jit_over_scalar_interior\": %.4f, \"max_abs_diff\": %g}",
      AppName.c_str(), Width, Height, resolveThreadCount(Options.Threads),
      AbReps, Scalar.InteriorMs, Span.InteriorMs, Jit.InteriorMs,
      JitOverSpan, JitOverScalar, AbDiff);
  if (spliceJsonSection(OutFile, "jit_speedup", Section))
    std::printf("appended jit_speedup section to %s\n", OutFile.c_str());
  else {
    std::fprintf(stderr, "error: cannot write %s\n", OutFile.c_str());
    return 1;
  }

  // Optimizer A/B: the same fused program compiled into session plans
  // with the interval-fact-gated bytecode optimizer on versus off, over
  // the primary app plus the guard-heavy registry pipelines whose
  // clamp/select guards the facts can decide. Interior time is the min
  // over AbReps plan executions on identical inputs; removed-instruction
  // counts come from the optimized plan's per-launch VmOptStats.
  struct OptMeasure {
    PlanMeasure Run;
    unsigned Removed = 0;
    unsigned OriginalInsts = 0;
    unsigned OptimizedInsts = 0;
  };
  auto measurePlan = [&](const Program &AppP, const FusedProgram &AppFP,
                         OptMode Opt) {
    ExecutionOptions PlanOptions = Options;
    PlanOptions.Opt = Opt;
    std::shared_ptr<const CompiledPlan> Plan = compilePlan(AppFP, PlanOptions);
    OptMeasure M;
    M.Run = timePlan(AppP, *Plan, PlanOptions);
    for (const CompiledLaunch &L : Plan->Launches) {
      M.Removed += L.OptStats.removedInsts();
      M.OriginalInsts += L.OptStats.OriginalInsts;
      M.OptimizedInsts += L.OptStats.OptimizedInsts;
    }
    return M;
  };

  std::vector<std::string> OptApps = {AppName};
  for (const char *GuardHeavy : {"night", "enhance"})
    if (AppName != GuardHeavy && findPipeline(GuardHeavy))
      OptApps.push_back(GuardHeavy);

  TablePrinter OptTable(
      {"app", "opt off ms", "opt on ms", "speedup", "insts", "removed"});
  std::string OptEntries;
  double OptAbDiff = 0.0;
  for (const std::string &OptApp : OptApps) {
    PipelineSpec OptSpec = *findPipeline(OptApp);
    OptSpec.Width = Width;
    OptSpec.Height = Height;
    AppVariants Variants = buildAppVariants(OptSpec);
    OptMeasure Off = measurePlan(*Variants.Source, Variants.Optimized,
                                 OptMode::Off);
    OptMeasure On = measurePlan(*Variants.Source, Variants.Optimized,
                                OptMode::On);
    double Speedup = On.Run.InteriorMs > 0.0 ? Off.Run.InteriorMs / On.Run.InteriorMs
                                         : 0.0;
    double Diff = 0.0;
    for (const FusedKernel &FK : Variants.Optimized.Kernels)
      for (KernelId Dest : FK.Destinations) {
        ImageId Out = Variants.Source->kernel(Dest).Output;
        Diff = std::max(Diff, maxAbsDifference(On.Run.Pool[Out], Off.Run.Pool[Out]));
      }
    OptAbDiff = std::max(OptAbDiff, Diff);
    OptTable.addRow({OptApp, formatDouble(Off.Run.InteriorMs, 3),
                     formatDouble(On.Run.InteriorMs, 3), formatDouble(Speedup, 3),
                     std::to_string(On.OriginalInsts),
                     std::to_string(On.Removed)});
    std::snprintf(
        Section, sizeof(Section),
        "%s{\"app\": \"%s\", \"interior_opt_off_ms\": %.4f, "
        "\"interior_opt_on_ms\": %.4f, \"opt_over_unopt_interior\": %.4f, "
        "\"original_insts\": %u, \"optimized_insts\": %u, "
        "\"removed_insts\": %u, \"max_abs_diff\": %g}",
        OptEntries.empty() ? "" : ", ", OptApp.c_str(), Off.Run.InteriorMs,
        On.Run.InteriorMs, Speedup, On.OriginalInsts, On.OptimizedInsts,
        On.Removed, Diff);
    OptEntries += Section;
  }
  std::printf("\noptimizer A/B (interior, best of %d):\n", AbReps);
  std::fputs(OptTable.render().c_str(), stdout);
  std::printf("max |opt on - opt off| over destinations: %g\n", OptAbDiff);

  std::string OptSection = "{\"width\": " + std::to_string(Width) +
                           ", \"height\": " + std::to_string(Height) +
                           ", \"threads\": " +
                           std::to_string(resolveThreadCount(Options.Threads)) +
                           ", \"ab_reps\": " + std::to_string(AbReps) +
                           ", \"apps\": [" + OptEntries + "]}";
  if (spliceJsonSection(OutFile, "opt_speedup", OptSection))
    std::printf("appended opt_speedup section to %s\n", OutFile.c_str());
  else {
    std::fprintf(stderr, "error: cannot write %s\n", OutFile.c_str());
    return 1;
  }

  std::printf("\nExpected shape: warm >= cold -- the warm stream serves "
              "the compiled plan from the\nplan cache, recycles frame "
              "buffers instead of reallocating, and overlaps input\nfill "
              "with execution; the gap widens with core count (the fill "
              "thread and the\ntile workers genuinely overlap) and "
              "narrows at 1 thread where only the saved\ncompile, "
              "allocation, and zero-fill passes remain. Outputs are "
              "bit-identical\n(max |warm - cold| must print 0).\n\n"
              "The interior A/B swaps per-pixel bytecode dispatch "
              "(scalar) for lane-batched\nspan interpretation and for "
              "the JIT's per-plan cell chains over the same\nlaunches: "
              "span should beat scalar clearly (the register working set "
              "stays\nL1-resident and the per-op loops vectorize), and "
              "jit should shave a further\nmargin off span by removing "
              "the switch-per-instruction-per-chunk dispatch.\nAll "
              "three must stay bit-identical (max pairwise |diff| must "
              "print 0).\n\n"
              "The optimizer A/B compiles the same plans with the "
              "interval-fact-gated bytecode\noptimizer on vs off: "
              "guard-heavy pipelines (decidable clamps and selects, "
              "CSE-able\nrecomputes) should show an interior win "
              "proportional to the removed-instruction\ncount, and "
              "optimized plans must stay bit-identical (max |diff| must "
              "print 0).\n");

  if (Jit.JitMissed) {
    std::fprintf(stderr, "error: a launch with a JIT artifact ran another "
                         "engine in the jit row\n");
    return 1;
  }
  if (MaxDiff != 0.0 || AbDiff != 0.0 || OptAbDiff != 0.0) {
    std::fprintf(stderr, "error: a bit-identity check printed a non-zero "
                         "difference\n");
    return 1;
  }
  return 0;
}
