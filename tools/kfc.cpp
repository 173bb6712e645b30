//===- tools/kfc.cpp - The kernel-fusion compiler driver -------------------------===//
//
// kfc: parse a .kfp pipeline description, run the kernel-fusion analysis,
// and emit reports or code -- the command-line face of the library, in the
// spirit of Hipacc's source-to-source compiler driver.
//
//   kfc pipeline.kfp                       fusion report (default)
//   kfc pipeline.kfp --emit cuda           fused CUDA source on stdout
//   kfc pipeline.kfp --emit cpp            fused C++ source
//   kfc pipeline.kfp --emit ir             textual IR dump
//   kfc pipeline.kfp --emit kfp            re-serialized pipeline
//   kfc pipeline.kfp --emit dot            Graphviz DAG with fusion blocks
//   kfc pipeline.kfp --style basic         prior-work pairwise fusion
//   kfc pipeline.kfp --style none          no fusion (baseline)
//   kfc pipeline.kfp --trace               print Algorithm 1 iterations
//   kfc pipeline.kfp --time                simulated times on the 3 GPUs
//
// Hardware-model knobs: --tg --ts --calu --csfu --cmshared --gamma.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "backend/cpu/CppEmitter.h"
#include "backend/cuda/CudaEmitter.h"
#include "backend/opencl/ClEmitter.h"
#include "frontend/LazyScript.h"
#include "frontend/Parser.h"
#include "frontend/Serializer.h"
#include "fusion/BasicFusion.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "ir/Printer.h"
#include "ir/Simplify.h"
#include "sim/CostModel.h"
#include "sim/Executor.h"
#include "sim/LazyRuntime.h"
#include "sim/Metrics.h"
#include "sim/Server.h"
#include "sim/Session.h"
#include "support/Statistics.h"
#include "support/CommandLine.h"
#include "support/DotWriter.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "transform/Fuser.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace kf;

static void printUsage() {
  std::printf(
      "usage: kfc <pipeline.kfp> [options]\n"
      "       kfc --lazy <script.lz> [options]\n"
      "  --lazy <script.lz>           record the op-per-line lazy builder\n"
      "                               script (docs/FRONTEND.md), fuse and\n"
      "                               gate it, then materialize --repeat\n"
      "                               times (default 2: cold build + warm\n"
      "                               plan-cache hit) and compare against\n"
      "                               the unfused reference; honors\n"
      "                               --analyze/--Werror, --style\n"
      "                               optimized|none, and the --run\n"
      "                               engine options below\n"
      "  --emit cuda|cpp|opencl|ir|kfp|dot  emit code instead of the "
      "report\n"
      "  --style optimized|basic|none fusion strategy (default optimized)\n"
      "  --analyze                    run the static analyzer: program\n"
      "                               lint, fused-bytecode validation, and\n"
      "                               footprint/halo checks; exit 1 on\n"
      "                               errors\n"
      "  --analysis-json=<out.json>   with --analyze: also write the\n"
      "                               diagnostics as JSON\n"
      "  --Werror                     with --analyze: warnings fail too\n"
      "  --trace                      print the Algorithm 1 iterations\n"
      "  --trace=<out.json>           with --run: record spans and write a\n"
      "                               chrome://tracing JSON timeline\n"
      "  --metrics                    with --run: per-launch predicted vs\n"
      "                               measured table + span/counter summary\n"
      "  --time                       print simulated GPU times\n"
      "  --run                        execute on random input: fused VM\n"
      "                               (plan compile + run) vs unfused AST\n"
      "                               wall time + max |diff|; exit 1\n"
      "                               when any output bit differs\n"
      "  --threads <n>                worker threads for --run (0 = auto)\n"
      "  --vm scalar|span|jit         interior VM engine for --run: jit\n"
      "                               (the default; compiled per-plan\n"
      "                               cell chains, span where a launch\n"
      "                               has none), span (lane-batched), or\n"
      "                               scalar (every pixel through the\n"
      "                               per-pixel bytecode reference;\n"
      "                               ignores --tiling)\n"
      "  --tiling auto|interior|overlapped\n"
      "                               tiling strategy for --run: the\n"
      "                               interior/halo split, overlapped\n"
      "                               tiles recomputing their own halos,\n"
      "                               or auto (the default): overlapped\n"
      "                               where a launch's channels share a\n"
      "                               producer plane, interior otherwise\n"
      "  --opt on|off                 interval-fact-gated bytecode\n"
      "                               optimizer at session compile time\n"
      "                               (default on; off executes bytecode\n"
      "                               as compiled -- results are\n"
      "                               identical)\n"
      "  --tile <WxH>                 tile extents for --run, e.g. 128x32\n"
      "                               (default per strategy)\n"
      "  --frames <n>                 with --run: stream n frames through a\n"
      "                               pipeline session (compiled-plan cache\n"
      "                               + frame buffer reuse)\n"
      "  --repeat <k>                 with --frames: repeat the stream k\n"
      "                               times on one session (warm repeats)\n"
      "  --serve                      multiplex the pipeline across N\n"
      "                               concurrent sessions of one server\n"
      "                               (shared thread pool + plan cache):\n"
      "                               per-session p50/p99 frame latency,\n"
      "                               aggregate pixels/s, and a\n"
      "                               bit-identical probe vs a serial\n"
      "                               session\n"
      "  --sessions <n>               with --serve: concurrent sessions\n"
      "                               (default 4)\n"
      "  --arrival uniform|zipf       with --serve: frame arrival pattern\n"
      "                               (uniform round-robin, or Zipf-skewed\n"
      "                               popularity; default uniform)\n"
      "  --fold                       run constant folding/simplification\n"
      "  --multi-out                  allow multi-destination fusion\n"
      "  --tg/--ts/--calu/--csfu/--cmshared/--gamma <num>  model knobs\n");
}

/// Parses the shared execution-engine options (--threads/--vm/--tiling/
/// --opt/--tile) into \p Exec, hardened per the option-grammar rules:
/// every unknown enumerator or malformed tile spec is a printed
/// diagnostic and a false return, never a crash. Used by --run, --serve,
/// and --lazy.
static bool parseExecutionOptions(const CommandLine &Cl,
                                  ExecutionOptions &Exec) {
  Exec.Threads = static_cast<int>(Cl.getIntOption("threads", 0));
  std::string VmName = Cl.getOption("vm", "jit");
  if (VmName == "scalar")
    Exec.Mode = VmMode::Scalar;
  else if (VmName == "span")
    Exec.Mode = VmMode::Span;
  else if (VmName == "jit")
    Exec.Mode = VmMode::Jit;
  else {
    std::fprintf(stderr,
                 "error: invalid --vm '%s' (expected 'scalar', 'span' "
                 "or 'jit')\n",
                 VmName.c_str());
    return false;
  }
  std::string TilingName = Cl.getOption("tiling", "auto");
  if (TilingName == "interior")
    Exec.Tiling = TilingStrategy::InteriorHalo;
  else if (TilingName == "overlapped")
    Exec.Tiling = TilingStrategy::Overlapped;
  else if (TilingName != "auto") {
    std::fprintf(stderr,
                 "error: invalid --tiling '%s' (expected 'auto', "
                 "'interior' or 'overlapped')\n",
                 TilingName.c_str());
    return false;
  }
  std::string OptName = Cl.getOption("opt", "on");
  if (OptName == "on")
    Exec.Opt = OptMode::On;
  else if (OptName == "off")
    Exec.Opt = OptMode::Off;
  else {
    std::fprintf(stderr, "error: invalid --opt '%s' (expected 'on' or "
                         "'off')\n",
                 OptName.c_str());
    return false;
  }
  std::string TileSpec = Cl.getOption("tile", "");
  if (!TileSpec.empty() &&
      !parseTileSpec(TileSpec.c_str(), Exec.TileWidth, Exec.TileHeight)) {
    std::fprintf(stderr,
                 "error: invalid --tile '%s' (expected 'WxH' with "
                 "extents in [1, 65536])\n",
                 TileSpec.c_str());
    return false;
  }
  return true;
}

static std::string blockNames(const Program &P,
                              const std::vector<KernelId> &Block) {
  std::vector<std::string> Names;
  for (KernelId Id : Block)
    Names.push_back(P.kernel(Id).Name);
  return "{" + joinStrings(Names, ", ") + "}";
}

/// "N -> M": the instruction count of \p Before and \p After, or only
/// their \p Op instructions when one is given.
static std::string beforeAfter(const StagedVmProgram &Before,
                               const StagedVmProgram &After,
                               const VmOp *Op) {
  auto Count = [Op](const StagedVmProgram &SP) {
    size_t N = 0;
    for (const VmStage &Stage : SP.Stages)
      for (const VmInst &Inst : Stage.Code.Insts)
        N += !Op || Inst.Op == *Op;
    return N;
  };
  return std::to_string(Count(Before)) + " -> " + std::to_string(Count(After));
}

/// A run's distance from its reference over every compared output: the
/// max |diff| the report prints, and the samples that differ in any bit
/// (signed zeros and NaN payloads count), which decide the verdict.
struct OutputDiff {
  double MaxAbs = 0.0;
  long long Bits = 0;

  void add(const Image &Got, const Image &Want) {
    MaxAbs = std::max(MaxAbs, maxAbsDifference(Got, Want));
    Bits += countBitDifferences(Got, Want);
  }
  bool identical() const { return Bits == 0; }
};

/// The exit status of a run: 0 when the \p What result matched
/// \p Reference bit for bit, else 1 with an error on stderr.
static int checkRunMatches(const OutputDiff &Diff, const char *What,
                           const char *Reference = "the unfused ast") {
  if (Diff.identical())
    return 0;
  std::fprintf(stderr,
               "error: %s result differs from %s reference (max |diff| %g, "
               "%lld samples differ in bits)\n",
               What, Reference, Diff.MaxAbs, Diff.Bits);
  return 1;
}

/// The `kfc --lazy <script>` driver: records the builder script through
/// the lazy frontend, runs the materialization gate, and (outside
/// --analyze) executes the pipeline --repeat times against the shared
/// plan cache -- the second materialization of the same shape must hit
/// warm -- then differentially compares the fused result against the
/// unfused AST reference.
static int runLazyDriver(const CommandLine &Cl, DiagnosticEngine &DE,
                         bool Analyze, bool Werror,
                         const std::function<int()> &FinishAnalysis) {
  // Hardened option grammar: an empty or whitespace-only script path is
  // a diagnostic, never a crash or an open() of "".
  std::string ScriptPath = trimString(Cl.getOption("lazy", ""));
  if (ScriptPath.empty()) {
    std::fprintf(stderr,
                 "error: --lazy expects a non-empty script path\n");
    return 1;
  }

  LazyScriptResult Script = parseLazyScriptFile(ScriptPath);
  if (!Script.ok()) {
    for (const LazyIssue &Issue : Script.Errors) {
      DiagLocation Loc;
      Loc.Unit = ScriptPath;
      Loc.Kernel = Issue.Where;
      DE.error(Issue.Code, Issue.Message, Loc);
    }
    if (Analyze)
      return FinishAnalysis();
    std::fputs(DE.renderText().c_str(), stdout);
    std::fprintf(stderr, "error: lazy script '%s' rejected\n",
                 ScriptPath.c_str());
    return 1;
  }

  ExecutionOptions Exec;
  if (!parseExecutionOptions(Cl, Exec))
    return 1;

  LazyGateOptions Gate;
  Gate.Werror = Werror;
  Gate.Legality.AllowMultipleDestinations = Cl.hasOption("multi-out");
  std::string Style = Cl.getOption("style", "optimized");
  if (Style == "none")
    Gate.Fuse = false;
  else if (Style != "optimized") {
    std::fprintf(stderr,
                 "error: invalid --style '%s' for --lazy (expected "
                 "'optimized' or 'none')\n",
                 Style.c_str());
    return 1;
  }
  Gate.HW.GlobalAccessCycles =
      Cl.getDoubleOption("tg", Gate.HW.GlobalAccessCycles);
  Gate.HW.SharedAccessCycles =
      Cl.getDoubleOption("ts", Gate.HW.SharedAccessCycles);
  Gate.HW.AluCost = Cl.getDoubleOption("calu", Gate.HW.AluCost);
  Gate.HW.SfuCost = Cl.getDoubleOption("csfu", Gate.HW.SfuCost);
  Gate.HW.SharedMemThreshold =
      Cl.getDoubleOption("cmshared", Gate.HW.SharedMemThreshold);
  Gate.HW.Gamma = Cl.getDoubleOption("gamma", Gate.HW.Gamma);

  MaterializedPipeline MP =
      compileLazy(*Script.Pipeline, Script.outputs(), Gate);
  for (const Diagnostic &Diag : MP.Diags.diagnostics())
    DE.report(Diag);
  if (Analyze)
    return FinishAnalysis();
  if (!MP.Ok) {
    std::fputs(DE.renderText().c_str(), stdout);
    std::fprintf(stderr,
                 "error: lazy pipeline '%s' rejected by the analyzer\n",
                 ScriptPath.c_str());
    return 1;
  }
  if (!DE.empty())
    std::fputs(DE.renderText().c_str(), stdout);

  const Program &P = *MP.Prog;
  std::printf("lazy pipeline '%s': %zu recorded ops -> %u live kernels "
              "in %u fused launches (shape hash %016llx)\n",
              Script.Pipeline->name().c_str(), Script.Pipeline->numOps(),
              P.numKernels(), MP.Fused.numLaunches(),
              static_cast<unsigned long long>(MP.StructuralHash));

  // Deterministic inputs honoring the repo-wide [0, 1] contract.
  Rng Gen(2026);
  std::vector<Image> InputImages;
  InputImages.reserve(MP.Inputs.size());
  for (const auto &Entry : MP.Inputs) {
    const ImageInfo &Info = P.image(Entry.second);
    InputImages.push_back(
        makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen));
  }
  std::vector<std::pair<std::string, const Image *>> Inputs;
  Inputs.reserve(MP.Inputs.size());
  for (size_t I = 0; I != MP.Inputs.size(); ++I)
    Inputs.emplace_back(MP.Inputs[I].first, &InputImages[I]);

  // Repeat materializations against the process-wide plan cache; the
  // default of two demonstrates the cold build followed by the warm
  // same-shape hit.
  int Repeat = std::max(1, static_cast<int>(Cl.getIntOption("repeat", 2)));
  LazyRunResult Last;
  for (int R = 0; R != Repeat; ++R) {
    LazyRunResult Run = runLazy(MP, Inputs, Exec);
    if (!Run.Ok) {
      std::fputs(Run.Diags.renderText().c_str(), stdout);
      std::fprintf(stderr, "error: lazy execution failed\n");
      return 1;
    }
    std::printf("materialize %d: %s, compile %.3f ms, exec %.3f ms\n", R,
                Run.Stats.PlanWasHit ? "warm (plan-cache hit)"
                                     : "cold (compiled)",
                Run.Stats.CompileMs, Run.Stats.ExecMs);
    Last = std::move(Run);
  }

  // Differential probe: the unfused AST walker over the same live
  // program and inputs must agree bit-for-bit.
  std::vector<Image> Pool = makeImagePool(P);
  for (const auto &Entry : MP.Inputs)
    for (const auto &Given : Inputs)
      if (Given.first == Entry.first)
        Pool[Entry.second] = *Given.second;
  runUnfused(P, Pool, Exec);
  OutputDiff Diff;
  for (size_t I = 0; I != MP.Outputs.size(); ++I)
    Diff.add(Last.Outputs[I], Pool[MP.Outputs[I]]);
  for (size_t I = 0; I != MP.Outputs.size(); ++I) {
    const Image &Out = Last.Outputs[I];
    double Sum = 0.0;
    for (int Y = 0; Y != Out.height(); ++Y)
      for (int X = 0; X != Out.width(); ++X)
        for (int C = 0; C != Out.channels(); ++C)
          Sum += Out.at(X, Y, C);
    std::printf("  output %zu: %dx%dx%d mean %.6f\n", I, Out.width(),
                Out.height(), Out.channels(),
                Sum / (static_cast<double>(Out.iterationSpace()) *
                       Out.channels()));
  }
  std::printf("max |lazy - unfused| = %.3g%s\n", Diff.MaxAbs,
              Diff.identical() ? " (bit-identical)" : "");
  return checkRunMatches(Diff, "lazy");
}

int main(int Argc, char **Argv) {
  CommandLine Cl(Argc, Argv,
                 {"trace", "time", "fold", "multi-out", "run", "metrics",
                  "analyze", "Werror", "serve", "help"});
  // --lazy takes its script as the option value, so lazy mode runs with
  // zero positionals; every other mode requires exactly the .kfp path.
  const bool LazyMode = Cl.hasOption("lazy");
  if (Cl.hasOption("help") ||
      Cl.positional().size() != (LazyMode ? 0U : 1U)) {
    printUsage();
    return Cl.hasOption("help") ? 0 : 1;
  }

  // A bare --trace prints the Algorithm 1 iterations (report mode);
  // --trace=<file> records execution spans and writes a chrome://tracing
  // timeline. --metrics implies recording too.
  std::string TracePath = Cl.getOption("trace", "");
  if (TracePath == "1")
    TracePath.clear();
  const bool Metrics = Cl.hasOption("metrics");
  if (!TracePath.empty() || Metrics) {
    TraceRecorder::global().setEnabled(true);
    MetricsRegistry::global().setEnabled(true);
  }

  // --analyze parses leniently: the strict verifier is replaced by the
  // coded lint pass so every problem is reported, not just the first.
  const bool Analyze = Cl.hasOption("analyze");
  const bool Werror = Cl.hasOption("Werror");
  DiagnosticEngine DE;

  // Renders the collected diagnostics (text to stdout, optional JSON
  // file) and returns the process exit status.
  auto finishAnalysis = [&]() -> int {
    std::string JsonPath = Cl.getOption("analysis-json", "");
    if (!JsonPath.empty()) {
      std::FILE *Out = std::fopen(JsonPath.c_str(), "wb");
      if (!Out) {
        std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
        return 1;
      }
      std::string Json = DE.renderJson();
      std::fwrite(Json.data(), 1, Json.size(), Out);
      std::fclose(Out);
    }
    if (!DE.empty())
      std::fputs(DE.renderText().c_str(), stdout);
    std::printf("analysis: %u error(s), %u warning(s)\n", DE.errorCount(),
                DE.warningCount());
    return DE.failed(Werror) ? 1 : 0;
  };

  if (LazyMode)
    return runLazyDriver(Cl, DE, Analyze, Werror, finishAnalysis);

  ParseResult Parsed =
      parsePipelineFile(Cl.positional().front(), /*Verify=*/!Analyze);
  if (!Parsed.success() && !(Analyze && Parsed.Prog)) {
    if (Analyze) {
      // Lex/parse failures still get coded, machine-readable output.
      DiagLocation Loc;
      Loc.Unit = Cl.positional().front();
      for (const std::string &Error : Parsed.Errors)
        DE.error("KF-P00", Error, Loc);
      return finishAnalysis();
    }
    for (const std::string &Error : Parsed.Errors)
      std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  Program &P = *Parsed.Prog;
  if (Analyze) {
    lintProgram(P, DE);
    // Fusion and bytecode compilation assume well-formed IR (their cost
    // analysis asserts on malformed bodies), so stop at lint errors.
    if (DE.errorCount() > 0)
      return finishAnalysis();
  }
  if (Cl.hasOption("fold")) {
    unsigned Changed = simplifyProgram(P);
    if (Changed != 0)
      std::fprintf(stderr, "note: simplified %u kernel bodies\n", Changed);
  }

  HardwareModel HW;
  HW.GlobalAccessCycles = Cl.getDoubleOption("tg", HW.GlobalAccessCycles);
  HW.SharedAccessCycles = Cl.getDoubleOption("ts", HW.SharedAccessCycles);
  HW.AluCost = Cl.getDoubleOption("calu", HW.AluCost);
  HW.SfuCost = Cl.getDoubleOption("csfu", HW.SfuCost);
  HW.SharedMemThreshold =
      Cl.getDoubleOption("cmshared", HW.SharedMemThreshold);
  HW.Gamma = Cl.getDoubleOption("gamma", HW.Gamma);

  // Run the requested fusion strategy.
  LegalityOptions Options;
  Options.AllowMultipleDestinations = Cl.hasOption("multi-out");
  std::string Style = Cl.getOption("style", "optimized");
  MinCutFusionResult MinCut; // Also used for the report's edge table.
  Partition Blocks;
  FusionStyle TransformStyle = FusionStyle::Optimized;
  if (Style == "optimized") {
    MinCut = runMinCutFusion(P, HW, Options);
    Blocks = MinCut.Blocks;
  } else if (Style == "basic") {
    MinCut = runMinCutFusion(P, HW, Options);
    BasicFusionResult Basic = runBasicFusion(P, HW);
    Blocks = Basic.Blocks;
    TransformStyle = FusionStyle::Basic;
  } else if (Style == "none") {
    MinCut = runMinCutFusion(P, HW, Options);
    Blocks = makeSingletonPartition(P);
  } else {
    std::fprintf(stderr, "error: unknown --style '%s'\n", Style.c_str());
    return 1;
  }
  FusedProgram FP = fuseProgram(P, Blocks, TransformStyle);

  if (Analyze) {
    // Re-check the chosen partition against the legality rules, then run
    // the launch checker the session compile runs (checkLaunches) and
    // print what it proved: each fused kernel's stage intervals, and the
    // optimizer's effect on each launch as the session compile applies
    // it (instructions and transcendental ops before -> after).
    checkFusedLegality(FP, HW, Options, DE);
    std::vector<CompiledLaunch> Launches = checkLaunches(FP, DE);
    auto Launch = Launches.begin();
    for (const FusedKernel &FK : FP.Kernels) {
      const std::vector<StageValueFacts> &Facts = Launch->Facts;
      if (!Facts.empty())
        std::printf("intervals for %s:\n", FK.Name.c_str());
      for (size_t I = 0; I != Facts.size(); ++I)
        std::printf("  stage %zu (%s): %s\n", I,
                    P.kernel(FK.Stages[I].Kernel).Name.c_str(),
                    formatInterval(Facts[I].Result).c_str());
      for (size_t D = 0; D != FK.Destinations.size(); ++D, ++Launch) {
        if (Launch->Facts.empty())
          continue; // Failed validation; the diagnostics say why.
        StagedVmProgram Optimized = Launch->Code;
        uint16_t Root = Launch->Root;
        optimizeStagedProgram(Optimized, Root, Launch->Facts);
        std::printf("optimizer for %s -> %s: insts %s", FK.Name.c_str(),
                    P.image(Launch->Output).Name.c_str(),
                    beforeAfter(Launch->Code, Optimized, nullptr).c_str());
        for (auto [Op, Name] : {std::pair{VmOp::Exp, "exp"},
                                {VmOp::Log, "log"},
                                {VmOp::Pow, "pow"},
                                {VmOp::Sqrt, "sqrt"}})
          std::printf(", %s %s", Name,
                      beforeAfter(Launch->Code, Optimized, &Op).c_str());
        std::printf("\n");
      }
    }
    return finishAnalysis();
  }

  if (Cl.hasOption("run") || Cl.hasOption("serve")) {
    ExecutionOptions Exec;
    if (!parseExecutionOptions(Cl, Exec))
      return 1;

    // Runs after the engines (and their thread pools, which export their
    // scheduling counters at destruction) are done.
    auto reportObservability = [&] {
      if (Metrics) {
        std::string Table = MetricsRegistry::global().renderTable();
        if (!Table.empty()) {
          std::printf("\npredicted vs measured launches (reference device "
                      "%s):\n",
                      MetricsRegistry::referenceDevice().Name.c_str());
          std::fputs(Table.c_str(), stdout);
        }
        std::string Summary = TraceRecorder::global().metricsSummary();
        if (!Summary.empty()) {
          std::printf("\nspan / counter summary:\n");
          std::fputs(Summary.c_str(), stdout);
        }
      }
      if (!TracePath.empty()) {
        if (TraceRecorder::global().writeChromeTrace(TracePath))
          std::printf("wrote chrome trace to '%s' (load in "
                      "chrome://tracing)\n",
                      TracePath.c_str());
        else
          std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                       TracePath.c_str());
      }
    };

    int Frames = static_cast<int>(Cl.getIntOption("frames", 0));
    int Repeat = std::max(1, static_cast<int>(Cl.getIntOption("repeat", 1)));

    if (Cl.hasOption("serve")) {
      // Server mode: N concurrent client sessions of this pipeline,
      // multiplexed over one shared thread pool and plan cache, driven by
      // dispatcher threads. Reports per-session frame latency quantiles,
      // aggregate throughput, and a bit-identical probe against a serial
      // private session.
      int Sessions = std::max(1, static_cast<int>(Cl.getIntOption(
                                     "sessions", 4)));
      std::string Arrival = Cl.getOption("arrival", "uniform");
      if (Arrival != "uniform" && Arrival != "zipf") {
        std::fprintf(stderr,
                     "error: invalid --arrival '%s' (expected 'uniform' "
                     "or 'zipf')\n",
                     Arrival.c_str());
        return 1;
      }
      int FramesEach = Frames > 0 ? Frames : 8;
      int Total = FramesEach * Sessions;

      // Arrival schedule: the tenant of each successive submission.
      // Uniform round-robins; zipf draws tenants with probability
      // proportional to 1/(rank+1) -- the classic skewed-popularity
      // model -- so low-numbered sessions are hot and the tail is cold.
      std::vector<int> Schedule;
      Schedule.reserve(Total);
      if (Arrival == "uniform") {
        for (int F = 0; F != Total; ++F)
          Schedule.push_back(F % Sessions);
      } else {
        std::vector<double> Cdf(Sessions);
        double Sum = 0.0;
        for (int S = 0; S != Sessions; ++S) {
          Sum += 1.0 / (S + 1);
          Cdf[S] = Sum;
        }
        Rng Gen(2026);
        for (int F = 0; F != Total; ++F) {
          double U = Gen.uniform(0.0, Sum);
          int S = 0;
          while (S + 1 < Sessions && Cdf[S] < U)
            ++S;
          Schedule.push_back(S);
        }
      }
      std::vector<int> PerSession(Sessions, 0);
      for (int S : Schedule)
        ++PerSession[S];

      // The same (session, frame) seed drives the server run and the
      // serial probe, so the outputs must be bit-identical.
      auto FillFor = [&P](int SessionIdx) {
        return [&P, SessionIdx](int FrameIdx, std::vector<Image> &Pool) {
          Rng Gen(2026 + static_cast<uint64_t>(SessionIdx) * 131071 +
                  static_cast<uint64_t>(FrameIdx) * 977);
          for (ImageId Id : P.externalInputs()) {
            const ImageInfo &Info = P.image(Id);
            Pool[Id] = makeRandomImage(Info.Width, Info.Height,
                                       Info.Channels, Gen);
          }
        };
      };

      std::vector<ImageId> Outputs;
      for (const FusedKernel &FK : FP.Kernels)
        for (KernelId Dest : FK.Destinations)
          Outputs.push_back(P.kernel(Dest).Output);

      // Probe: capture session 0's last frame from inside the server...
      int ProbeIndex = PerSession[0] - 1;
      std::vector<Image> Probe;
      double WallMs = 0.0;
      std::vector<TenantStats> Stats;
      {
        ServerOptions SO;
        SO.Threads = Exec.Threads;
        SO.Dispatchers = 2;
        PipelineServer Server(SO);
        std::vector<PipelineServer::SessionId> Ids;
        for (int S = 0; S != Sessions; ++S) {
          TenantOptions TO;
          TO.Name = "s" + std::to_string(S);
          TO.QueueCapacity = 4;
          Ids.push_back(Server.open(FP, Exec, TO));
        }
        auto Start = std::chrono::steady_clock::now();
        for (int S : Schedule) {
          PipelineSession::FrameConsumer Consume;
          if (S == 0)
            Consume = [&Probe, &Outputs,
                       ProbeIndex](int Idx, const std::vector<Image> &Pool) {
              if (Idx == ProbeIndex)
                for (ImageId Out : Outputs)
                  Probe.push_back(Pool[Out]);
            };
          Server.submit(Ids[S], FillFor(S), Consume);
        }
        Server.drainAll();
        WallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
        for (int S = 0; S != Sessions; ++S)
          Stats.push_back(Server.tenantStats(Ids[S]));
      } // Server scope: pool exports its counters on destruction.

      // ...and replay session 0 serially on a private session.
      OutputDiff Diff;
      if (ProbeIndex >= 0) {
        PipelineSession Serial(FP, Exec);
        std::vector<Image> Ref = Serial.acquireFrame();
        FillFor(0)(ProbeIndex, Ref);
        Serial.runFrame(Ref);
        size_t Slot = 0;
        for (ImageId Out : Outputs)
          Diff.add(Probe[Slot++], Ref[Out]);
        Serial.releaseFrame(std::move(Ref));
      }

      uint64_t Completed = 0;
      long long PixelsPerFrame = 0;
      for (ImageId Out : Outputs)
        PixelsPerFrame += P.image(Out).iterationSpace();
      TablePrinter Table({"session", "frames", "p50 ms", "p99 ms",
                          "mean ms", "queue ms", "exec ms"});
      for (const TenantStats &T : Stats) {
        Completed += T.Completed;
        std::vector<double> Sorted = T.LatenciesMs;
        std::sort(Sorted.begin(), Sorted.end());
        double Mean = 0.0;
        for (double L : Sorted)
          Mean += L;
        Table.addRow(
            {T.Name, std::to_string(T.Completed),
             Sorted.empty() ? "-" : formatDouble(quantileSorted(Sorted, 0.5), 3),
             Sorted.empty() ? "-" : formatDouble(quantileSorted(Sorted, 0.99), 3),
             Sorted.empty() ? "-"
                            : formatDouble(Mean / Sorted.size(), 3),
             formatDouble(T.QueueMs, 3), formatDouble(T.ExecMs, 3)});
      }
      double PixelsPerSec =
          Completed * PixelsPerFrame * 1000.0 / std::max(WallMs, 1e-9);
      std::printf("served '%s' to %d sessions (%s arrival, %u threads, "
                  "%s fusion): %llu frames in %.3f ms\n",
                  P.name().c_str(), Sessions, Arrival.c_str(),
                  resolveThreadCount(Exec.Threads), Style.c_str(),
                  static_cast<unsigned long long>(Completed), WallMs);
      std::fputs(Table.render().c_str(), stdout);
      std::printf("aggregate throughput: %.3f Mpixel/s\n",
                  PixelsPerSec / 1e6);
      std::printf("max |server frame - serial session| over destinations: "
                  "%g\n",
                  Diff.MaxAbs);
      reportObservability();
      return checkRunMatches(Diff, "server frame", "the serial session");
    }

    if (Frames > 0) {
      // Session streaming mode: compile the fused plan once, stream
      // frames through recycled buffers with double-buffered input fill.
      auto FillFrame = [&](int Frame, std::vector<Image> &Pool) {
        Rng Gen(2026 + static_cast<uint64_t>(Frame) * 977);
        for (ImageId Id : P.externalInputs()) {
          const ImageInfo &Info = P.image(Id);
          Pool[Id] =
              makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen);
        }
      };

      // Unfused AST reference for the stream's final frame.
      std::vector<Image> Reference = makeImagePool(P);
      FillFrame(Frames - 1, Reference);
      runUnfused(P, Reference, Exec);

      OutputDiff Diff;
      {
      PipelineSession Session(FP, Exec);
      std::vector<Image> LastFrame;
      TablePrinter Stream({"repeat", "wall ms", "frames/s"});
      for (int R = 0; R != Repeat; ++R) {
        auto Start = std::chrono::steady_clock::now();
        Session.runFrames(
            Frames, FillFrame,
            [&](int Frame, const std::vector<Image> &Pool) {
              if (R + 1 == Repeat && Frame + 1 == Frames)
                LastFrame = Pool;
            });
        double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
        Stream.addRow({std::to_string(R + 1) + (R == 0 ? " (cold)" : ""),
                       formatDouble(Ms, 3),
                       formatDouble(Frames * 1000.0 / Ms, 3)});
      }

      for (const FusedKernel &FK : FP.Kernels)
        for (KernelId Dest : FK.Destinations) {
          ImageId Out = P.kernel(Dest).Output;
          Diff.add(LastFrame[Out], Reference[Out]);
        }

      const SessionStats &S = Session.stats();
      std::printf("streamed '%s' with %u threads (%s fusion, %s tiling), "
                  "%d frames x %d repeats\n",
                  P.name().c_str(), resolveThreadCount(Exec.Threads),
                  Style.c_str(),
                  tilingStrategyName(Exec.Tiling),
                  Frames, Repeat);
      std::fputs(Stream.render().c_str(), stdout);
      std::printf("plan cache: %llu hits, %llu misses (compile %.3f ms); "
                  "frame buffers: %llu reused, %llu allocated\n",
                  static_cast<unsigned long long>(S.PlanHits),
                  static_cast<unsigned long long>(S.PlanMisses),
                  S.CompileMs,
                  static_cast<unsigned long long>(S.FramesReused),
                  static_cast<unsigned long long>(S.FramesAllocated));
      std::printf("max |session frame - unfused ast| over destinations: "
                  "%g\n",
                  Diff.MaxAbs);
      } // Session scope: its thread pool exports counters on destruction.
      reportObservability();
      return checkRunMatches(Diff, "session frame");
    }

    // Deterministic random fill of every external input (images no
    // kernel produces), so runs are reproducible across invocations.
    std::vector<bool> Produced(P.numImages());
    for (KernelId Id = 0; Id != P.numKernels(); ++Id)
      Produced[P.kernel(Id).Output] = true;
    std::vector<Image> Reference = makeImagePool(P);
    Rng Gen(2026);
    for (ImageId Id = 0; Id != P.numImages(); ++Id)
      if (!Produced[Id]) {
        const ImageInfo &Info = P.image(Id);
        Reference[Id] =
            makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen);
      }
    std::vector<Image> VmPool = Reference;

    auto WallMs = [](auto &&Fn) {
      auto Start = std::chrono::steady_clock::now();
      Fn();
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - Start)
          .count();
    };
    double AstMs = WallMs([&] { runUnfused(P, Reference, Exec); });
    double VmMs = WallMs([&] { runFusedVm(FP, VmPool, Exec); });

    OutputDiff Diff;
    for (const FusedKernel &FK : FP.Kernels)
      for (KernelId Dest : FK.Destinations) {
        ImageId Out = P.kernel(Dest).Output;
        Diff.add(VmPool[Out], Reference[Out]);
      }

    std::printf("executed '%s' with %u threads (%s fusion, %s tiling)\n",
                P.name().c_str(), resolveThreadCount(Exec.Threads),
                Style.c_str(),
                tilingStrategyName(Exec.Tiling));
    TablePrinter Run({"engine", "wall ms", "speedup"});
    Run.addRow({"unfused ast", formatDouble(AstMs, 3), "1.000"});
    Run.addRow(
        {"fused vm", formatDouble(VmMs, 3), formatDouble(AstMs / VmMs, 3)});
    std::fputs(Run.render().c_str(), stdout);
    std::printf("max |fused vm - unfused ast| over destinations: %g\n",
                Diff.MaxAbs);
    reportObservability();
    return checkRunMatches(Diff, "fused vm");
  }

  std::string Emit = Cl.getOption("emit", "");
  if (Emit == "cuda") {
    std::fputs(emitCudaProgram(FP).c_str(), stdout);
    return 0;
  }
  if (Emit == "cpp") {
    std::fputs(emitCppProgram(FP).c_str(), stdout);
    return 0;
  }
  if (Emit == "opencl") {
    std::fputs(emitOpenClProgram(FP).c_str(), stdout);
    return 0;
  }
  if (Emit == "ir") {
    std::fputs(programToString(P).c_str(), stdout);
    std::fputs(fusedProgramToString(FP).c_str(), stdout);
    return 0;
  }
  if (Emit == "kfp") {
    std::fputs(serializeProgram(P).c_str(), stdout);
    return 0;
  }
  if (Emit == "dot") {
    DotWriter Dot(P.name());
    for (KernelId Id = 0; Id != P.numKernels(); ++Id)
      Dot.addNode(P.kernel(Id).Name, P.kernel(Id).Name);
    for (Digraph::EdgeId E = 0; E != MinCut.WeightedDag.numEdges(); ++E) {
      const Digraph::Edge &Ed = MinCut.WeightedDag.edge(E);
      Dot.addEdge(P.kernel(Ed.From).Name, P.kernel(Ed.To).Name,
                  Ed.Weight <= HW.Epsilon ? "eps"
                                          : formatDouble(Ed.Weight, 0));
    }
    unsigned Index = 0;
    for (const PartitionBlock &Block : Blocks.Blocks) {
      std::vector<std::string> Names;
      for (KernelId Id : Block.Kernels)
        Names.push_back(P.kernel(Id).Name);
      Dot.addCluster("P" + std::to_string(Index++), Names);
    }
    std::fputs(Dot.finish().c_str(), stdout);
    return 0;
  }
  if (!Emit.empty()) {
    std::fprintf(stderr, "error: unknown --emit '%s'\n", Emit.c_str());
    return 1;
  }

  // Default: the fusion report.
  std::printf("pipeline '%s': %u kernels, %u images, %u dependence edges\n",
              P.name().c_str(), P.numKernels(), P.numImages(),
              MinCut.WeightedDag.numEdges());

  TablePrinter Edges({"edge", "scenario", "weight"});
  for (Digraph::EdgeId E = 0; E != MinCut.WeightedDag.numEdges(); ++E) {
    const Digraph::Edge &Ed = MinCut.WeightedDag.edge(E);
    const EdgeBenefit &B = MinCut.EdgeInfo[E];
    Edges.addRow({P.kernel(Ed.From).Name + " -> " + P.kernel(Ed.To).Name,
                  fusionScenarioName(B.Scenario),
                  B.Weight <= HW.Epsilon ? "eps"
                                         : formatDouble(B.Weight, 1)});
  }
  std::fputs(Edges.render().c_str(), stdout);

  if (Cl.hasOption("trace") && TracePath.empty()) {
    std::printf("\nAlgorithm 1 trace:\n");
    unsigned Iteration = 0;
    for (const FusionTraceStep &Step : MinCut.Trace) {
      ++Iteration;
      if (Step.Accepted)
        std::printf("[%2u] %s -> ready\n", Iteration,
                    blockNames(P, Step.Block).c_str());
      else
        std::printf("[%2u] %s illegal (%s); cut %.4g -> %s | %s\n",
                    Iteration, blockNames(P, Step.Block).c_str(),
                    Step.Reason.c_str(), Step.CutWeight,
                    blockNames(P, Step.SideA).c_str(),
                    blockNames(P, Step.SideB).c_str());
    }
  }

  std::printf("\n%s partition: %s\n", Style.c_str(),
              partitionToString(P, Blocks).c_str());
  if (Style == "optimized")
    std::printf("estimated benefit (Eq. 1): %.1f cycles/pixel\n",
                MinCut.TotalBenefit);
  std::printf("%s", fusedProgramToString(FP).c_str());

  if (Cl.hasOption("time")) {
    CostModelParams Params;
    FusedProgram Baseline = unfusedProgram(P);
    std::printf("\nsimulated times (ms):\n");
    TablePrinter Times({"device", "baseline", Style, "speedup"});
    for (const DeviceSpec &Device : DeviceSpec::paperDevices()) {
      double TBase = estimateProgramTimeMs(accountFusedProgram(Baseline),
                                           Device, Params);
      double TFused =
          estimateProgramTimeMs(accountFusedProgram(FP), Device, Params);
      Times.addRow({Device.Name, formatDouble(TBase, 3),
                    formatDouble(TFused, 3),
                    formatDouble(TBase / TFused, 3)});
    }
    std::fputs(Times.render().c_str(), stdout);
  }
  return 0;
}
