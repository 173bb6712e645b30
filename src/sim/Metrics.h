//===- sim/Metrics.h - Predicted-vs-measured model validation ---*- C++ -*-===//
///
/// \file
/// Continuous validation of the analytic benefit model against execution.
/// The fusion decisions rest entirely on the cost model (Eqs. 3-12)
/// predicting the cycles a fused launch takes; an analytic GPU model is
/// only trustworthy while its predictions are checked against measured
/// behaviour (Jangda & Guha, "Model-Based Warp Overlapped Tiling"). The
/// MetricsRegistry pairs, per fused launch, the model's *predicted*
/// cycles/milliseconds on a reference device with the host simulator's
/// *measured* wall time (plus the interior/halo split the executor
/// collects), and renders the comparison as a table with a geomean
/// predicted/measured ratio -- the reproduction's running analogue of the
/// paper's Table I.
///
/// Predicted and measured times live on different machines (an analytic
/// GPU vs the host CPU simulator), so the point of the ratio is not 1.0
/// but *stability*: a launch whose ratio is far off the geomean is one
/// where the model mis-ranks work, which is exactly what would mislead
/// the partitioner.
///
/// Like TraceRecorder, the registry is process-wide, thread-safe, off by
/// default, and one relaxed atomic load when disabled.
///
//===----------------------------------------------------------------------===//

#ifndef KF_SIM_METRICS_H
#define KF_SIM_METRICS_H

#include "ir/ExprVM.h"
#include "sim/DeviceSpec.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace kf {

struct FusedProgram;

/// One fused launch's model-vs-execution record. Prediction and
/// measurement arrive from different call sites (plan compilation vs
/// execution) and are merged by (Program, Launch) key.
struct LaunchModelRecord {
  std::string Program;       ///< Pipeline / program name ("" if unnamed).
  std::string Launch;        ///< Fused kernel name, e.g. "fk0".
  unsigned Stages = 0;       ///< Stages fused into the launch.
  long long Pixels = 0;      ///< Output iteration-space size.
  double PredictedMs = 0.0;  ///< Model estimate on the reference device.
  double PredictedCycles = 0.0; ///< PredictedMs in reference-clock cycles.
  uint64_t Runs = 0;         ///< Measured executions merged in.
  double MeasuredMs = 0.0;   ///< Total measured host wall time.
  double InteriorMs = 0.0;   ///< Interior-pixel share of MeasuredMs.
  double HaloMs = 0.0;       ///< Halo-pixel share of MeasuredMs.

  /// The interior engine and the tiling strategy the launch's runs used
  /// (LaunchTiming::Mode and ::Tiling of the last run merged in; a plan
  /// runs a launch the same way every frame).
  VmMode Mode = VmMode::Span;
  TilingStrategy Tiling = TilingStrategy::InteriorHalo;

  /// The JIT chain the launch last ran: flattened instructions and the
  /// cells left after cell fusion, which each chunk executes. Zero when
  /// no run used the JIT.
  size_t FlatCells = 0;
  size_t JitCells = 0;

  double measuredMeanMs() const { return Runs ? MeasuredMs / Runs : 0.0; }
  /// Predicted / measured-mean ratio; 0 when either side is missing.
  double ratio() const {
    double Mean = measuredMeanMs();
    return Mean > 0.0 && PredictedMs > 0.0 ? PredictedMs / Mean : 0.0;
  }
};

/// Per-session serving statistics of one PipelineServer tenant: frame
/// counts and end-to-end latency (enqueue to consume), split into the
/// time a frame sat queued behind its session's earlier frames and the
/// time it executed. Merged by session name.
struct ServerSessionRecord {
  std::string Session;      ///< Tenant name (e.g. "s0:harris").
  uint64_t Frames = 0;      ///< Frames completed.
  uint64_t Rejected = 0;    ///< Submissions refused by backpressure.
  double QueueMs = 0.0;     ///< Total time frames waited queued.
  double ExecMs = 0.0;      ///< Total time frames spent executing.
  double MaxLatencyMs = 0.0; ///< Worst single frame, queue + exec.

  double meanLatencyMs() const {
    return Frames ? (QueueMs + ExecMs) / Frames : 0.0;
  }
};

/// The process-wide predicted-vs-measured registry.
class MetricsRegistry {
public:
  static MetricsRegistry &global();

  /// Cheap enabled test for instrumentation sites.
  static bool enabled() {
    return EnabledFlag.load(std::memory_order_relaxed);
  }

  void setEnabled(bool Enabled);

  /// The device the predictions are evaluated on (the paper's GTX 745).
  static DeviceSpec referenceDevice();

  /// Runs the cost model over every fused kernel of \p FP and records one
  /// prediction per launch under program \p Program. Re-recording the
  /// same key refreshes the prediction without touching measurements.
  /// No-op while disabled.
  void recordPrediction(const std::string &Program, const FusedProgram &FP);

  /// Merges one measured execution of launch \p Launch of \p Program.
  /// \p InteriorMs / \p HaloMs may be zero when the executor did not
  /// collect the split. \p Mode and \p Tiling are the resolved interior
  /// engine and tiling strategy the run used (LaunchTiming::Mode and
  /// ::Tiling). \p FlatCells / \p JitCells describe the JIT chain a Jit
  /// run executed (JitProgram::FlatInsts and cells()). No-op while
  /// disabled.
  void recordLaunch(const std::string &Program, const std::string &Launch,
                    double MeasuredMs, double InteriorMs = 0.0,
                    double HaloMs = 0.0, VmMode Mode = VmMode::Span,
                    TilingStrategy Tiling = TilingStrategy::InteriorHalo,
                    size_t FlatCells = 0, size_t JitCells = 0);

  /// Merges one served frame of tenant \p Session: \p QueueMs spent
  /// queued, \p ExecMs executing. No-op while disabled.
  void recordServerFrame(const std::string &Session, double QueueMs,
                         double ExecMs);

  /// Merges one backpressure rejection of tenant \p Session. No-op while
  /// disabled.
  void recordServerRejection(const std::string &Session);

  /// Snapshot of per-tenant serving records, in first-seen order.
  std::vector<ServerSessionRecord> serverSessions() const;

  /// Snapshot of all records, in first-seen order.
  std::vector<LaunchModelRecord> records() const;

  /// Geomean of per-launch predicted/measured ratios over records with
  /// both sides present; 0 when there are none.
  double geomeanRatio() const;

  /// The per-launch predicted-vs-measured table plus the geomean line.
  /// Empty string when nothing was recorded.
  std::string renderTable() const;

  /// Drops all records (the enabled flag is kept).
  void clear();

private:
  MetricsRegistry() = default;

  LaunchModelRecord &findOrCreate(const std::string &Program,
                                  const std::string &Launch);
  ServerSessionRecord &findOrCreateSession(const std::string &Session);

  static std::atomic<bool> EnabledFlag;

  mutable std::mutex Mutex;
  std::vector<LaunchModelRecord> Records;
  std::vector<ServerSessionRecord> Sessions;
};

} // namespace kf

#endif // KF_SIM_METRICS_H
