//===- ledger/Measure.cpp - Timing, tracing and reporting harness --------===//

#include "Measure.h"

#include "analysis/Analyzer.h"
#include "analysis/IntervalAnalysis.h"
#include "analysis/ProgramLint.h"
#include "frontend/Parser.h"
#include "frontend/Serializer.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Generators.h"
#include "jit/JitProgram.h"
#include "pipelines/Pipelines.h"
#include "sim/CostModel.h"
#include "sim/Executor.h"
#include "transform/Fuser.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <thread>
#include <unistd.h>

using namespace ledger;
using namespace kf;

//===--------------------------------------------------------------------===//
// Samples and Report
//===--------------------------------------------------------------------===//

double Samples::quantile(double Q) const {
  if (Values.empty())
    return 0.0;
  std::vector<double> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  double Pos = Q * (Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * (Pos - Lo);
}

double Samples::mean() const {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / Values.size();
}

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

} // namespace

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit, size_t SampleCount) {
  Metrics[Name] = Entry{Value, Unit};
  if (SampleCount != 0)
    SampleCounts[Name] = SampleCount;
}

void Report::quantileMetric(const std::string &Name, const Samples &S,
                            double Q) {
  metric(Name, S.quantile(Q), "ms", S.size());
}

void Report::meta(const std::string &Key, const std::string &Json) {
  Meta.emplace_back(Key, Json);
}

void Report::metaString(const std::string &Key, const std::string &Value) {
  meta(Key, jsonString(Value));
}

void Report::mismatch(const std::string &What) {
  Correct = false;
  ++Failed;
  Mismatches.push_back(What);
}

void Report::print() const {
  std::string M = "{\"ledger\": {";
  for (const auto &[Key, Json] : Meta)
    M += jsonString(Key) + ": " + Json + ", ";
  M += "\"samples\": {";
  bool First = true;
  for (const auto &[Name, Count] : SampleCounts) {
    M += (First ? "" : ", ") + jsonString(Name) + ": " + std::to_string(Count);
    First = false;
  }
  M += "}, \"mismatches\": [";
  First = true;
  for (const std::string &What : Mismatches) {
    M += (First ? "" : ", ") + jsonString(What);
    First = false;
  }
  M += "]}}";
  std::printf("%s\n", M.c_str());

  std::string R = std::string("{\"correct\": ") +
                  (correct() ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  First = true;
  for (const auto &[Name, E] : Metrics) {
    R += (First ? "" : ", ") + jsonString(Name) +
         ": {\"value\": " + jsonNumber(E.Value) +
         ", \"unit\": " + jsonString(E.Unit) + "}";
    First = false;
  }
  R += "}}";
  std::printf("%s\n", R.c_str());
  std::fflush(stdout);
}

//===--------------------------------------------------------------------===//
// Tracer
//===--------------------------------------------------------------------===//

double Tracer::medianMs(const std::string &Layer) const {
  auto It = Spans.find(Layer);
  return It == Spans.end() ? 0.0 : It->second.median();
}

size_t Tracer::calls(const std::string &Layer) const {
  auto It = Spans.find(Layer);
  return It == Spans.end() ? 0 : It->second.size();
}

double Tracer::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0.0 : It->second;
}

double Tracer::ratio(const std::string &Num, const std::string &Den) const {
  double D = counter(Den);
  return D == 0.0 ? 0.0 : counter(Num) / D;
}

//===--------------------------------------------------------------------===//
// Compile path
//===--------------------------------------------------------------------===//

bool ledger::buildKfp(const std::string &Text, Built &Out, Tracer &T) {
  ParseResult Parsed =
      T.span("frontend.parse_ms", [&] { return parsePipelineText(Text); });
  if (!Parsed.success())
    return false;
  Out.Prog = std::move(Parsed.Prog);
  const Program &P = *Out.Prog;
  DiagnosticEngine DE;
  T.span("analysis.lint_ms", [&] { lintProgram(P, DE); });
  if (DE.errorCount() != 0)
    return false;
  MinCutFusionResult MinCut = T.span(
      "fusion.mincut_ms", [&] { return runMinCutFusion(P, HardwareModel()); });
  Out.FP = T.span("transform.fuse_ms", [&] {
    return fuseProgram(P, MinCut.Blocks, FusionStyle::Optimized);
  });
  T.count("fusion.launches", Out.FP.numLaunches());
  T.count("fusion.kernels", P.numKernels());
  return true;
}

std::shared_ptr<const CompiledPlan>
ledger::compilePlanTraced(const FusedProgram &FP,
                          const ExecutionOptions &Options, Tracer &T) {
  if (!T.on())
    return compilePlan(FP, Options);
  auto Start = Clock::now();
  std::shared_ptr<const CompiledPlan> Plan = compilePlan(FP, Options);
  const double PlanMs = msSince(Start);
  T.add("session.compile_plan_ms", PlanMs);

  // The plan's children, re-run from outside in compilePlan's order; each
  // layer's time is summed over the plan's launches.
  const Program &P = *FP.Source;
  double LowerMs = 0, CheckMs = 0, IntervalMs = 0, OptMs = 0, JitMs = 0;
  double OriginalInsts = 0;
  std::vector<InputRange> PoolRanges(P.numImages());
  for (const FusedKernel &FK : FP.Kernels) {
    auto T0 = Clock::now();
    StagedVmProgram SP = compileFusedKernel(FP, FK);
    LowerMs += msSince(T0);
    for (KernelId Dest : FK.Destinations) {
      uint16_t Root = 0;
      for (size_t I = 0; I != FK.Stages.size(); ++I)
        if (FK.Stages[I].Kernel == Dest)
          Root = static_cast<uint16_t>(I);
      const ImageId Out = P.kernel(Dest).Output;
      const int Halo = fusedLaunchHalo(SP, Root, P.image(Out));
      for (const VmStage &Stage : SP.Stages)
        OriginalInsts += Stage.Code.Insts.size();
      DiagnosticEngine DE;
      auto T1 = Clock::now();
      analyzeLaunch(P, FK, FK.Name, SP, Root, Halo, Plan->Shapes, DE);
      auto T2 = Clock::now();
      IntervalAnalysisResult Intervals =
          analyzeStagedIntervals(SP, Root, PoolRanges);
      auto T3 = Clock::now();
      StagedVmProgram Optimized = SP;
      optimizeStagedProgram(Optimized, Root, Intervals.Stages);
      auto T4 = Clock::now();
      CheckMs += msBetween(T1, T2);
      IntervalMs += msBetween(T2, T3);
      OptMs += msBetween(T3, T4);
      PoolRanges[Out].Lo = Intervals.Result.Lo;
      PoolRanges[Out].Hi = Intervals.Result.Hi;
      PoolRanges[Out].MayNaN = Intervals.Result.MayNaN;
    }
  }
  for (const CompiledLaunch &Launch : Plan->Launches) {
    auto T0 = Clock::now();
    std::shared_ptr<const JitProgram> Jit =
        compileJitProgram(Launch.Code, Launch.Root, Plan->Shapes);
    JitMs += msSince(T0);
    T.count("opt.removed", Launch.OptStats.removedInsts());
    T.count("jit.accepted", Launch.Jit ? 1 : 0);
    T.count("jit.launches", 1);
  }
  T.count("opt.original", OriginalInsts);
  T.add("ir.lower_ms", LowerMs);
  T.add("analysis.launch_check_ms", CheckMs);
  T.add("analysis.interval_ms", IntervalMs);
  T.add("ir.opt_ms", OptMs);
  T.add("jit.compile_ms", JitMs);
  T.add("session.compile_self_ms",
        PlanMs - (LowerMs + CheckMs + IntervalMs + OptMs + JitMs));
  return Plan;
}

void ledger::reportParts(const std::vector<Part> &Parts, const Samples &SetupS,
                         Report &R) {
  R.metric("setup_s", SetupS.median(), "s", SetupS.size());
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  double CpuMsPerMpix = Parts.front().CpuMsPerMpix;
  double MpixPerS = Parts.front().MpixPerS;
  Samples FrameMs, CompileMs;
  for (const Part &P : Parts) {
    CpuMsPerMpix = std::min(CpuMsPerMpix, P.CpuMsPerMpix);
    MpixPerS = std::max(MpixPerS, P.MpixPerS);
    FrameMs.append(P.FrameMs);
    CompileMs.append(P.CompileMs);
  }
  R.metric("cpu_ms_per_mpix", CpuMsPerMpix, "ms/Mpix");
  R.metric("mpix_per_s", MpixPerS, "Mpix/s");
  R.quantileMetric("frame_p50_ms", FrameMs, 0.5);
  R.quantileMetric("frame_p95_ms", FrameMs, 0.95);
  R.quantileMetric("compile_p50_ms", CompileMs, 0.5);
  R.quantileMetric("compile_p90_ms", CompileMs, 0.9);
  std::string Counts = "[";
  for (const Part &P : Parts)
    Counts += std::string(Counts.size() > 1 ? ", " : "") + "{\"frames\": " +
              std::to_string(P.FrameMs.size()) + ", \"compiles\": " +
              std::to_string(P.CompileMs.size()) +
              ", \"cpu_ms_per_mpix\": " + jsonNumber(P.CpuMsPerMpix) +
              ", \"mpix_per_s\": " + jsonNumber(P.MpixPerS) + "}";
  R.meta("parts", Counts + "]");
}

void ledger::reportCompileLayers(const Tracer &T, Report &R) {
  for (const char *Layer :
       {"frontend.parse_ms", "frontend.lazy_record_ms", "analysis.lint_ms",
        "analysis.launch_check_ms", "analysis.interval_ms",
        "analysis.lazy_gate_ms", "ir.lower_ms", "session.compile_plan_ms",
        "session.compile_self_ms", "fusion.mincut_ms", "transform.fuse_ms",
        "ir.opt_ms", "jit.compile_ms"})
    R.metric(Layer, T.medianMs(Layer), "ms", T.calls(Layer));
  R.metric("fusion.launches_per_kernel",
           T.ratio("fusion.launches", "fusion.kernels"), "ratio");
  R.metric("ir.opt_removed_frac", T.ratio("opt.removed", "opt.original"),
           "frac");
  R.metric("jit.accept_frac", T.ratio("jit.accepted", "jit.launches"),
           "frac");
}

//===--------------------------------------------------------------------===//
// Frames and the oracle
//===--------------------------------------------------------------------===//

double ledger::frameMpix(const Program &P) {
  // Every ledger pipeline's outputs share one extent: the frame.
  const ImageInfo &Out = P.image(P.terminalOutputs().front());
  return static_cast<double>(Out.Width) * Out.Height / 1e6;
}

void ledger::fillInputs(const Program &P, std::vector<Image> &Frame,
                        const std::vector<Image> &Sources) {
  const std::vector<ImageId> Inputs = P.externalInputs();
  for (size_t I = 0; I != Inputs.size(); ++I)
    Frame[Inputs[I]] = Sources[I];
}

std::vector<Image> ledger::makeInputs(const Program &P, uint64_t Seed) {
  Rng Gen(Seed);
  std::vector<Image> Out;
  for (ImageId Id : P.externalInputs()) {
    const ImageInfo &Info = P.image(Id);
    Out.push_back(makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen));
  }
  return Out;
}

bool ledger::matchesReference(
    const Program &P, const std::vector<Image> &Inputs,
    const std::vector<std::pair<ImageId, Image>> &Got) {
  std::vector<Image> Pool = makeImagePool(P);
  fillInputs(P, Pool, Inputs);
  ExecutionOptions Reference;
  Reference.Threads = static_cast<int>(hardwareThreads());
  runUnfused(P, Pool, Reference);
  for (const auto &[Id, Image] : Got) {
    const std::vector<float> &A = Pool[Id].data();
    const std::vector<float> &B = Image.data();
    if (A.size() != B.size() ||
        std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) != 0)
      return false;
  }
  return !Got.empty();
}

std::vector<std::pair<ImageId, Image>>
ledger::captureOutputs(const Program &P, const std::vector<Image> &Frame) {
  std::vector<std::pair<ImageId, Image>> Out;
  for (ImageId Id : P.terminalOutputs())
    Out.emplace_back(Id, Frame[Id]);
  return Out;
}

//===--------------------------------------------------------------------===//
// Process and machine probes
//===--------------------------------------------------------------------===//

double ledger::processCpuMs() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  auto Ms = [](const timeval &T) { return T.tv_sec * 1e3 + T.tv_usec / 1e3; };
  return Ms(Usage.ru_utime) + Ms(Usage.ru_stime);
}

double ledger::peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return Usage.ru_maxrss / 1024.0;
}

unsigned ledger::hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

namespace {

/// Cache size in bytes of level \p Level (2 or 3); 0 when unknown.
long cacheBytes(int Level) {
  long V = sysconf(Level == 2 ? _SC_LEVEL2_CACHE_SIZE : _SC_LEVEL3_CACHE_SIZE);
  return V > 0 ? V : 0;
}

/// Copy bandwidth over a working set of \p WorkingSetBytes (source plus
/// destination), best of several passes.
double copyBandwidthGbps(size_t WorkingSetBytes) {
  const size_t N = std::max<size_t>(WorkingSetBytes / 2 / sizeof(float), 1024);
  std::vector<float> Src(N, 1.0f), Dst(N, 0.0f);
  // Passes until both a minimum count and a minimum total time are met;
  // the best pass is the roof (STREAM reports the best, too).
  double Best = 0.0;
  auto Start = Clock::now();
  for (int Pass = 0; Pass < 5 || msSince(Start) < 200.0; ++Pass) {
    Src[Pass % N] += 1.0f; // Defeat any cross-pass elision.
    auto T0 = Clock::now();
    std::memcpy(Dst.data(), Src.data(), N * sizeof(float));
    double S = msSince(T0) / 1e3;
    double Gbps = 2.0 * N * sizeof(float) / S / 1e9;
    Best = std::max(Best, Gbps);
    if (Pass > 1000)
      break;
  }
  volatile float Sink = Dst[N / 2];
  (void)Sink;
  return Best;
}

size_t dramProbeBytes() {
  // At least 4x the LLC, at least 64 MiB; capped at 1.25 GiB so a huge
  // reported LLC cannot exhaust a shared machine.
  const size_t Llc = static_cast<size_t>(cacheBytes(3));
  return std::clamp<size_t>(4 * Llc, 64ull << 20, 1280ull << 20);
}

} // namespace

double ledger::reportBandwidthRoofs(size_t WorkingSetBytes, Report &R) {
  const size_t Dram = dramProbeBytes();
  const double DramGbps = copyBandwidthGbps(Dram);
  const double WsGbps = copyBandwidthGbps(WorkingSetBytes);
  R.metric("membw.copy_gbps_dram", DramGbps, "GB/s");
  R.metric("membw.copy_gbps_ws", WsGbps, "GB/s");
  R.meta("membw", "{\"dram_bytes\": " + std::to_string(Dram) +
                      ", \"ws_bytes\": " + std::to_string(WorkingSetBytes) +
                      ", \"threads\": 1, \"kernel\": \"memcpy\"}");
  return WsGbps;
}

std::string ledger::environmentJson() {
  std::string Cpu = "unknown";
  std::ifstream Info("/proc/cpuinfo");
  std::string Line;
  while (std::getline(Info, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        Cpu = Line.substr(Line.find_first_not_of(' ', Colon + 1));
      break;
    }
  utsname Uts{};
  std::string Kernel = "unknown";
  if (uname(&Uts) == 0)
    Kernel = std::string(Uts.sysname) + " " + Uts.release;
#ifdef NDEBUG
  const char *Asserts = "false";
#else
  const char *Asserts = "true";
#endif
  return "{\"compiler\": " + jsonString(KF_LEDGER_COMPILER) +
         ", \"build_type\": " + jsonString(KF_LEDGER_BUILD_TYPE) +
         ", \"flags\": " + jsonString(KF_LEDGER_FLAGS) +
         ", \"asserts\": " + Asserts + ", \"cpu\": " + jsonString(Cpu) +
         ", \"nproc\": " + std::to_string(hardwareThreads()) +
         ", \"l2_bytes\": " + std::to_string(cacheBytes(2)) +
         ", \"llc_bytes\": " + std::to_string(cacheBytes(3)) +
         ", \"kernel\": " + jsonString(Kernel) + "}";
}

//===--------------------------------------------------------------------===//
// Per-launch timing
//===--------------------------------------------------------------------===//

namespace {

const char *modeName(VmMode M) {
  switch (M) {
  case VmMode::Scalar:
    return "scalar";
  case VmMode::Span:
    return "span";
  case VmMode::Jit:
    return "jit";
  default:
    return "auto";
  }
}

const char *tilingName(TilingStrategy S) {
  return S == TilingStrategy::Overlapped ? "overlapped" : "interior";
}

std::string dashed(std::string Name) {
  std::replace(Name.begin(), Name.end(), '+', '-');
  return Name;
}

/// Empty records of \p FP's launches holding their computed bytes and
/// FLOPs.
std::map<std::string, LaunchRecord> launchRecords(const FusedProgram &FP) {
  std::map<std::string, LaunchRecord> Records;
  for (const LaunchStats &S : accountFusedProgram(FP).Launches) {
    LaunchRecord &Rec = Records[S.Name];
    Rec.Bytes = S.totalGlobalBytes();
    Rec.Flops = S.AluOps + S.SfuOps;
  }
  return Records;
}

void addTiming(LaunchRecord &Rec, const LaunchTiming &Timing) {
  Rec.Ms.add(Timing.TotalMs);
  Rec.InteriorMs.add(Timing.InteriorMs);
  Rec.HaloMs.add(Timing.HaloMs);
  Rec.Mode = modeName(Timing.Mode);
  Rec.Tiling = tilingName(Timing.Tiling);
}

} // namespace

std::map<std::string, LaunchRecord>
ledger::timeLaunches(const FusedProgram &FP, const CompiledPlan &Plan,
                     const ExecutionOptions &Options,
                     const std::vector<Image> &Inputs, int Frames) {
  std::map<std::string, LaunchRecord> Records = launchRecords(FP);
  ThreadPool Pool(1);
  VmScratch Scratch;
  std::vector<Image> Frame = makeImagePool(*FP.Source);
  fillInputs(*FP.Source, Frame, Inputs);
  for (const CompiledLaunch &Launch : Plan.Launches) {
    const ImageInfo &Info = Plan.Shapes[Launch.Output];
    Frame[Launch.Output] = Image(Info.Width, Info.Height, Info.Channels);
  }
  for (int F = 0; F != Frames; ++F)
    for (const CompiledLaunch &Launch : Plan.Launches) {
      LaunchTiming Timing;
      runCompiledLaunch(Launch.Code, Launch.Root, Launch.Halo, Frame,
                        Frame[Launch.Output], Options, Pool, Scratch, &Timing,
                        Launch.Jit.get());
      addTiming(Records[Launch.Name], Timing);
    }
  return Records;
}

void ledger::reportHarrisLaunches(
    const FusedProgram &HarrisFP,
    const std::map<std::string, LaunchRecord> &Records, double RoofGbps,
    Report &R) {
  std::string Meta = "{";
  for (const FusedKernel &FK : HarrisFP.Kernels) {
    const std::string Base = "exec.harris." + dashed(FK.Name) + ".";
    auto It = Records.find(FK.Name);
    LaunchRecord Empty;
    const LaunchRecord &Rec = It == Records.end() ? Empty : It->second;
    const double Ms = Rec.Ms.median();
    const double Gbps = Ms > 0 ? Rec.Bytes / (Ms * 1e6) : 0.0;
    R.metric(Base + "ms", Ms, "ms", Rec.Ms.size());
    R.metric(Base + "interior_ms", Rec.InteriorMs.median(), "ms",
             Rec.InteriorMs.size());
    R.metric(Base + "halo_ms", Rec.HaloMs.median(), "ms", Rec.HaloMs.size());
    R.metric(Base + "gbps", Gbps, "GB/s");
    R.metric(Base + "gflops", Ms > 0 ? Rec.Flops / (Ms * 1e6) : 0.0,
             "GFLOP/s");
    R.metric(Base + "roofline_frac", RoofGbps > 0 ? Gbps / RoofGbps : 0.0,
             "frac");
    Meta += std::string(Meta.size() > 1 ? ", " : "") + "\"" + dashed(FK.Name) +
            "\": {\"engine\": \"" + Rec.Mode + "\", \"tiling\": \"" +
            Rec.Tiling + "\", \"computed_bytes\": " + jsonNumber(Rec.Bytes) +
            ", \"computed_flops\": " + jsonNumber(Rec.Flops) + "}";
  }
  R.meta("harris_launches", Meta + "}");
}

const std::vector<std::string> &ledger::serveApps() {
  static const std::vector<std::string> Apps = {
      "harris", "sobel", "unsharp", "shitomasi", "enhance", "night"};
  return Apps;
}

double ledger::frameBytes(const FusedProgram &FP) {
  return accountFusedProgram(FP).totalGlobalBytes();
}

double ledger::largestLaunchBytes(const FusedProgram &FP) {
  double Max = 0.0;
  for (const LaunchStats &S : accountFusedProgram(FP).Launches)
    Max = std::max(Max, S.totalGlobalBytes());
  return Max;
}

std::string ledger::registryText(const std::string &App, int Width,
                                 int Height) {
  return serializeProgram(findPipeline(App)->Builder(Width, Height));
}

PoolDelta ledger::poolDelta(const ThreadPool &Pool, const PoolDelta *Before) {
  ThreadPoolStats S = Pool.stats();
  PoolDelta D;
  D.Tiles = S.Tiles;
  D.IdleWaits = S.IdleWaits;
  D.TilesPerWorker = S.TilesPerWorker;
  if (Before) {
    D.Tiles -= Before->Tiles;
    D.IdleWaits -= Before->IdleWaits;
    for (size_t I = 0; I != D.TilesPerWorker.size() &&
                       I != Before->TilesPerWorker.size();
         ++I)
      D.TilesPerWorker[I] -= Before->TilesPerWorker[I];
  }
  return D;
}

void ledger::reportPool(const PoolDelta &D, double Frames, Report &R) {
  double Max = 0.0, Sum = 0.0;
  for (uint64_t T : D.TilesPerWorker) {
    Max = std::max(Max, static_cast<double>(T));
    Sum += static_cast<double>(T);
  }
  const double Mean =
      D.TilesPerWorker.empty() ? 0.0 : Sum / D.TilesPerWorker.size();
  R.metric("pool.tiles_per_frame", Frames > 0 ? D.Tiles / Frames : 0.0,
           "count");
  R.metric("pool.idle_waits_per_frame",
           Frames > 0 ? D.IdleWaits / Frames : 0.0, "count");
  R.metric("pool.worker_imbalance", Mean > 0 ? Max / Mean : 0.0, "ratio");
}
