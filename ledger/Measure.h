//===- ledger/Measure.h - Timing, tracing and reporting harness -*- C++ -*-===//
///
/// \file
/// The pieces every ledger workload shares:
///
///   - Samples and Report: timing samples summarized by quantiles, and the
///     run's result (metrics by name with their unit, attempted/failed
///     counts, metadata such as sample counts and the environment stamp).
///   - Tracer: per-layer spans recorded around the benchmark's own calls
///     into the library's public functions. Disabled, a span is the bare
///     call with no clock read; nothing inside src/ is instrumented.
///   - The compile path from pipeline text to a plan, traced per layer.
///   - The correctness oracle: the AST interpreter (runUnfused) on the same
///     inputs, compared bit for bit.
///   - Process and machine probes: CPU time, peak RSS, an in-process
///     STREAM-style copy bandwidth.
///
//===----------------------------------------------------------------------===//

#ifndef KF_LEDGER_MEASURE_H
#define KF_LEDGER_MEASURE_H

#include "sim/Session.h"
#include "transform/FusedKernel.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

inline double msSince(Clock::time_point From) {
  return msBetween(From, Clock::now());
}

/// Timing samples of one quantity.
class Samples {
public:
  void add(double V) { Values.push_back(V); }
  void append(const Samples &Other) {
    Values.insert(Values.end(), Other.Values.begin(), Other.Values.end());
  }
  size_t size() const { return Values.size(); }
  bool empty() const { return Values.empty(); }
  /// Linear-interpolated quantile \p Q in [0, 1]; 0 when empty.
  double quantile(double Q) const;
  double median() const { return quantile(0.5); }
  double mean() const;

private:
  std::vector<double> Values;
};

/// Options of one benchmark run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
};

/// The outcome of one run: what the last line of stdout reports, plus a
/// metadata object printed on the line before it.
class Report {
public:
  /// Records metric \p Name. Timing metrics pass their sample count, which
  /// lands in the metadata.
  void metric(const std::string &Name, double Value, const std::string &Unit,
              size_t SampleCount = 0);
  /// Records a timing metric as quantile \p Q of \p S.
  void quantileMetric(const std::string &Name, const Samples &S, double Q);
  /// Adds metadata member \p Key holding the JSON value \p Json.
  void meta(const std::string &Key, const std::string &Json);
  void metaString(const std::string &Key, const std::string &Value);

  /// Counts one attempted operation, failed when \p Ok is false.
  void attempt(bool Ok) {
    ++Attempted;
    Failed += Ok ? 0 : 1;
  }
  /// Counts a reference mismatch of an already attempted operation.
  void mismatch(const std::string &What);

  bool has(const std::string &Name) const { return Metrics.count(Name) != 0; }
  bool correct() const { return Correct && Failed == 0; }
  uint64_t attempted() const { return Attempted; }

  /// Prints the metadata line and then the result line.
  void print() const;

private:
  struct Entry {
    double Value;
    std::string Unit;
  };
  std::map<std::string, Entry> Metrics;
  std::map<std::string, size_t> SampleCounts;
  std::vector<std::pair<std::string, std::string>> Meta;
  std::vector<std::string> Mismatches;
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// Per-layer spans and counters recorded from the benchmark's side of each
/// call. A disabled tracer runs every span as the bare call.
class Tracer {
public:
  explicit Tracer(bool OnIn) : On(OnIn) {}
  bool on() const { return On; }

  /// Runs \p F, recording its duration under \p Layer when tracing.
  template <typename Fn> decltype(auto) span(const char *Layer, Fn &&F) {
    if (!On)
      return F();
    auto Start = Clock::now();
    if constexpr (std::is_void_v<decltype(F())>) {
      F();
      Spans[Layer].add(msSince(Start));
    } else {
      decltype(auto) R = F();
      Spans[Layer].add(msSince(Start));
      return R;
    }
  }

  void add(const std::string &Layer, double Ms) {
    if (On)
      Spans[Layer].add(Ms);
  }
  /// Accumulates counter \p Name (for ratios computed at the end).
  void count(const std::string &Name, double Delta) {
    if (On)
      Counters[Name] += Delta;
  }

  /// Median of layer \p Layer in ms; 0 when the layer never ran.
  double medianMs(const std::string &Layer) const;
  size_t calls(const std::string &Layer) const;
  /// Counter \p Num divided by counter \p Den; 0 when \p Den is 0.
  double ratio(const std::string &Num, const std::string &Den) const;

private:
  double counter(const std::string &Name) const;

  bool On;
  std::map<std::string, Samples> Spans;
  std::map<std::string, double> Counters;
};

/// A pipeline built from text: the program (heap-allocated so the fused
/// program's back-pointer survives moves) and its fused form.
struct Built {
  std::unique_ptr<kf::Program> Prog;
  kf::FusedProgram FP;
};

/// .kfp text -> parsePipelineText -> lintProgram -> runMinCutFusion ->
/// fuseProgram, each a traced layer. False on any parse or lint error.
bool buildKfp(const std::string &Text, Built &Out, Tracer &T);

/// compilePlan as a traced layer (session.compile_plan_ms). When tracing,
/// the plan's children are re-run from outside and timed one by one --
/// compileFusedKernel, analyzeLaunch, analyzeStagedIntervals,
/// optimizeStagedProgram, compileJitProgram -- and the plan time minus
/// theirs is recorded as session.compile_self_ms. Also counts the plan's
/// optimizer and JIT outcomes.
std::shared_ptr<const kf::CompiledPlan>
compilePlanTraced(const kf::FusedProgram &FP,
                  const kf::ExecutionOptions &Options, Tracer &T);

/// The end-to-end measurements of one part of an untraced run.
struct Part {
  double CpuMsPerMpix = 0.0;
  double MpixPerS = 0.0;
  Samples FrameMs, CompileMs;
};

/// Parts an untraced run's measured time is split into.
constexpr int RunParts = 5;

/// Reports the end-to-end metrics: setup_s (median of \p SetupS) and
/// peak_rss_mb once; the frame and compile percentiles over the samples of
/// all \p Parts pooled; cpu_ms_per_mpix and mpix_per_s as their best value
/// over the parts. Other tenants of the host only ever slow a part down,
/// so the best part's throughput is the one they disturbed least.
void reportParts(const std::vector<Part> &Parts, const Samples &SetupS,
                 Report &R);

/// Records the per-layer compile metrics every workload reports.
void reportCompileLayers(const Tracer &T, Report &R);

/// Output Mpixels of one frame: the output frame's width x height.
double frameMpix(const kf::Program &P);

/// The external inputs of \p P copied from \p Sources (by input order).
void fillInputs(const kf::Program &P, std::vector<kf::Image> &Frame,
                const std::vector<kf::Image> &Sources);

/// Seeded [0, 1] input images for every external input of \p P.
std::vector<kf::Image> makeInputs(const kf::Program &P, uint64_t Seed);

/// The correctness oracle: runs the AST interpreter (runUnfused) over a
/// fresh pool holding \p Inputs (external inputs of \p P in order) and
/// compares every (image id, image) of \p Got bit for bit.
bool matchesReference(
    const kf::Program &P, const std::vector<kf::Image> &Inputs,
    const std::vector<std::pair<kf::ImageId, kf::Image>> &Got);

/// The terminal outputs of \p Frame, copied for a later oracle check.
std::vector<std::pair<kf::ImageId, kf::Image>>
captureOutputs(const kf::Program &P, const std::vector<kf::Image> &Frame);

/// Process CPU time (user + system, all threads) in ms.
double processCpuMs();
/// Peak resident set size of the process in MiB.
double peakRssMb();
/// Online hardware threads.
unsigned hardwareThreads();

/// Runs a single-threaded STREAM-style copy probe twice -- over at least
/// four times the LLC and over \p WorkingSetBytes -- and reports
/// membw.copy_gbps_dram and membw.copy_gbps_ws (bytes read plus written
/// per second), stating both sizes; returns the ws roof in GB/s.
double reportBandwidthRoofs(size_t WorkingSetBytes, Report &R);

/// Process-wide stamp: compiler, flags, CPU, caches, kernel.
std::string environmentJson();

/// Per-launch metrics (exec.<app>.<launch>.*) from LaunchTiming samples.
struct LaunchRecord {
  Samples Ms, InteriorMs, HaloMs;
  double Bytes = 0.0; ///< Computed (accountFusedProgram), not measured.
  double Flops = 0.0; ///< Computed ALU + SFU operations.
  std::string Mode, Tiling;
};

/// Runs \p Frames frames of \p Plan launch by launch through
/// runCompiledLaunch with a LaunchTiming, filling inputs from \p Inputs.
std::map<std::string, LaunchRecord>
timeLaunches(const kf::FusedProgram &FP, const kf::CompiledPlan &Plan,
             const kf::ExecutionOptions &Options,
             const std::vector<kf::Image> &Inputs, int Frames);

/// Reports exec.harris.<launch>.{ms,interior_ms,halo_ms,gbps,gflops,
/// roofline_frac}; names are those of \p HarrisFP's launches with '+'
/// spelled '-'. \p Records may be empty (the workload runs no Harris):
/// every metric then reads 0.
void reportHarrisLaunches(const kf::FusedProgram &HarrisFP,
                          const std::map<std::string, LaunchRecord> &Records,
                          double RoofGbps, Report &R);

/// Names of the serve pipelines, in popularity order.
const std::vector<std::string> &serveApps();

/// Computed global bytes of one frame of \p FP (all launches).
double frameBytes(const kf::FusedProgram &FP);
/// Computed global bytes of the largest launch of \p FP.
double largestLaunchBytes(const kf::FusedProgram &FP);

/// Serialized .kfp text of registry pipeline \p App at the given size.
std::string registryText(const std::string &App, int Width, int Height);

/// The ThreadPool counters the pool.* metrics are computed from.
struct PoolDelta {
  uint64_t Tiles = 0, IdleWaits = 0;
  std::vector<uint64_t> TilesPerWorker;
};
PoolDelta poolDelta(const kf::ThreadPool &Pool, const PoolDelta *Before);
/// Reports pool.tiles_per_frame, pool.idle_waits_per_frame and
/// pool.worker_imbalance (max / mean tiles per worker).
void reportPool(const PoolDelta &D, double Frames, Report &R);

} // namespace ledger

#endif // KF_LEDGER_MEASURE_H
