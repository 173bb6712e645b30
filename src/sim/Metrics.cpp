//===- sim/Metrics.cpp ------------------------------------------------------===//

#include "sim/Metrics.h"

#include "sim/CostModel.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <cmath>

using namespace kf;

std::atomic<bool> MetricsRegistry::EnabledFlag{false};

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry Registry;
  return Registry;
}

void MetricsRegistry::setEnabled(bool Enabled) {
  EnabledFlag.store(Enabled, std::memory_order_relaxed);
}

DeviceSpec MetricsRegistry::referenceDevice() { return DeviceSpec::gtx745(); }

LaunchModelRecord &
MetricsRegistry::findOrCreate(const std::string &Program,
                              const std::string &Launch) {
  for (LaunchModelRecord &Record : Records)
    if (Record.Program == Program && Record.Launch == Launch)
      return Record;
  LaunchModelRecord Record;
  Record.Program = Program;
  Record.Launch = Launch;
  Records.push_back(std::move(Record));
  return Records.back();
}

void MetricsRegistry::recordPrediction(const std::string &Program,
                                       const FusedProgram &FP) {
  if (!enabled())
    return;
  DeviceSpec Device = referenceDevice();
  CostModelParams Params;
  ProgramStats Stats = accountFusedProgram(FP);
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const LaunchStats &LS : Stats.Launches) {
    LaunchModelRecord &Record = findOrCreate(Program, LS.Name);
    Record.Stages = LS.NumStages;
    Record.Pixels = LS.OutputPixels;
    Record.PredictedMs = estimateLaunchTimeMs(LS, Device, Params);
    // Milliseconds on the reference device expressed in its core cycles.
    Record.PredictedCycles =
        Record.PredictedMs * 1e-3 * Device.CoreClockGHz * 1e9;
  }
}

void MetricsRegistry::recordLaunch(const std::string &Program,
                                   const std::string &Launch,
                                   double MeasuredMs, double InteriorMs,
                                   double HaloMs, VmMode Mode,
                                   TilingStrategy Tiling, size_t FlatCells,
                                   size_t JitCells) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  LaunchModelRecord &Record = findOrCreate(Program, Launch);
  ++Record.Runs;
  Record.MeasuredMs += MeasuredMs;
  Record.InteriorMs += InteriorMs;
  Record.HaloMs += HaloMs;
  switch (Mode) {
  case VmMode::Span:
    ++Record.SpanRuns;
    Record.SpanInteriorMs += InteriorMs;
    break;
  case VmMode::Jit:
    ++Record.JitRuns;
    Record.JitInteriorMs += InteriorMs;
    Record.FlatCells = FlatCells;
    Record.JitCells = JitCells;
    break;
  default:
    ++Record.ScalarRuns;
    Record.ScalarInteriorMs += InteriorMs;
    break;
  }
  if (Tiling == TilingStrategy::Overlapped) {
    ++Record.OverlappedRuns;
    Record.OverlappedMs += MeasuredMs;
  } else {
    ++Record.InteriorTilingRuns;
    Record.InteriorTilingMs += MeasuredMs;
  }
}

ServerSessionRecord &
MetricsRegistry::findOrCreateSession(const std::string &Session) {
  for (ServerSessionRecord &Existing : Sessions)
    if (Existing.Session == Session)
      return Existing;
  Sessions.emplace_back();
  Sessions.back().Session = Session;
  return Sessions.back();
}

void MetricsRegistry::recordServerFrame(const std::string &Session,
                                        double QueueMs, double ExecMs) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  ServerSessionRecord &Record = findOrCreateSession(Session);
  ++Record.Frames;
  Record.QueueMs += QueueMs;
  Record.ExecMs += ExecMs;
  Record.MaxLatencyMs = std::max(Record.MaxLatencyMs, QueueMs + ExecMs);
}

void MetricsRegistry::recordServerRejection(const std::string &Session) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  ++findOrCreateSession(Session).Rejected;
}

std::vector<ServerSessionRecord> MetricsRegistry::serverSessions() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Sessions;
}

std::vector<LaunchModelRecord> MetricsRegistry::records() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Records;
}

double MetricsRegistry::geomeanRatio() const {
  std::vector<LaunchModelRecord> Snapshot = records();
  double LogSum = 0.0;
  unsigned Count = 0;
  for (const LaunchModelRecord &Record : Snapshot) {
    double Ratio = Record.ratio();
    if (Ratio > 0.0) {
      LogSum += std::log(Ratio);
      ++Count;
    }
  }
  return Count ? std::exp(LogSum / Count) : 0.0;
}

std::string MetricsRegistry::renderTable() const {
  std::vector<LaunchModelRecord> Snapshot = records();
  if (Snapshot.empty())
    return "";
  std::string Result;
  TablePrinter Table({"program", "launch", "stages", "pixels", "pred Mcyc",
                      "pred ms", "runs", "meas ms", "interior ms", "halo ms",
                      "vm", "cells", "tiling", "pred/meas"});
  for (const LaunchModelRecord &Record : Snapshot) {
    double Runs = Record.Runs ? static_cast<double>(Record.Runs) : 1.0;
    // The vm column names the interior engine; a launch measured in both
    // span and scalar mode shows the span-over-scalar interior speedup
    // instead.
    std::string Vm = "-";
    if (Record.spanOverScalar() > 0.0)
      Vm = formatDouble(Record.spanOverScalar(), 2) + "x";
    else if (Record.JitRuns)
      Vm = "jit";
    else if (Record.SpanRuns)
      Vm = "span";
    else if (Record.ScalarRuns)
      Vm = "scalar";
    // Likewise the tiling column: strategy name, or the overlapped
    // speedup when the launch was A/B-measured under both strategies.
    std::string Tiling = "-";
    if (Record.overlappedSpeedup() > 0.0)
      Tiling = formatDouble(Record.overlappedSpeedup(), 2) + "x";
    else if (Record.OverlappedRuns)
      Tiling = "overlap";
    else if (Record.InteriorTilingRuns)
      Tiling = "interior";
    // The JIT chain: flattened instructions -> cells executed per chunk.
    std::string Cells = "-";
    if (Record.JitCells)
      Cells = std::to_string(Record.FlatCells) + "->" +
              std::to_string(Record.JitCells);
    Table.addRow({Record.Program, Record.Launch,
                  std::to_string(Record.Stages),
                  std::to_string(Record.Pixels),
                  formatDouble(Record.PredictedCycles / 1e6, 3),
                  formatDouble(Record.PredictedMs, 4),
                  std::to_string(Record.Runs),
                  formatDouble(Record.measuredMeanMs(), 4),
                  formatDouble(Record.InteriorMs / Runs, 4),
                  formatDouble(Record.HaloMs / Runs, 4), Vm, Cells, Tiling,
                  Record.ratio() > 0.0 ? formatDouble(Record.ratio(), 3)
                                       : std::string("-")});
  }
  Result += Table.render();
  double Geomean = geomeanRatio();
  if (Geomean > 0.0) {
    Result += "geomean predicted/measured ratio: ";
    Result += formatDouble(Geomean, 3);
    Result += "\n";
  }
  std::vector<ServerSessionRecord> Serving = serverSessions();
  if (!Serving.empty()) {
    TablePrinter Server({"session", "frames", "rejected", "queue ms",
                         "exec ms", "mean lat ms", "max lat ms"});
    for (const ServerSessionRecord &S : Serving) {
      double Frames = S.Frames ? static_cast<double>(S.Frames) : 1.0;
      Server.addRow({S.Session, std::to_string(S.Frames),
                     std::to_string(S.Rejected),
                     formatDouble(S.QueueMs / Frames, 3),
                     formatDouble(S.ExecMs / Frames, 3),
                     formatDouble(S.meanLatencyMs(), 3),
                     formatDouble(S.MaxLatencyMs, 3)});
    }
    Result += Server.render();
  }
  return Result;
}

/// Minimal JSON string escape (names are identifiers, but be safe).
static std::string jsonEscape(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

std::string MetricsRegistry::toJson(const std::string &Indent) const {
  std::vector<LaunchModelRecord> Snapshot = records();
  std::string Out = "[";
  bool First = true;
  for (const LaunchModelRecord &Record : Snapshot) {
    if (!First)
      Out += ",";
    First = false;
    Out += "\n" + Indent + "{";
    Out += "\"program\": \"" + jsonEscape(Record.Program) + "\", ";
    Out += "\"launch\": \"" + jsonEscape(Record.Launch) + "\", ";
    Out += "\"stages\": " + std::to_string(Record.Stages) + ", ";
    Out += "\"pixels\": " + std::to_string(Record.Pixels) + ", ";
    Out += "\"predicted_cycles\": " + formatDouble(Record.PredictedCycles, 1) +
           ", ";
    Out += "\"predicted_ms\": " + formatDouble(Record.PredictedMs, 6) + ", ";
    Out += "\"runs\": " + std::to_string(Record.Runs) + ", ";
    Out += "\"measured_mean_ms\": " +
           formatDouble(Record.measuredMeanMs(), 6) + ", ";
    Out += "\"interior_ms\": " + formatDouble(Record.InteriorMs, 6) + ", ";
    Out += "\"halo_ms\": " + formatDouble(Record.HaloMs, 6) + ", ";
    Out += "\"span_runs\": " + std::to_string(Record.SpanRuns) + ", ";
    Out += "\"scalar_runs\": " + std::to_string(Record.ScalarRuns) + ", ";
    Out += "\"jit_runs\": " + std::to_string(Record.JitRuns) + ", ";
    Out += "\"interior_span_ms\": " +
           formatDouble(Record.SpanInteriorMs, 6) + ", ";
    Out += "\"interior_scalar_ms\": " +
           formatDouble(Record.ScalarInteriorMs, 6) + ", ";
    Out += "\"interior_jit_ms\": " +
           formatDouble(Record.JitInteriorMs, 6) + ", ";
    Out += "\"span_over_scalar\": " +
           formatDouble(Record.spanOverScalar(), 6) + ", ";
    Out += "\"overlapped_runs\": " + std::to_string(Record.OverlappedRuns) +
           ", ";
    Out += "\"interior_tiling_runs\": " +
           std::to_string(Record.InteriorTilingRuns) + ", ";
    Out += "\"overlapped_ms\": " + formatDouble(Record.OverlappedMs, 6) +
           ", ";
    Out += "\"interior_tiling_ms\": " +
           formatDouble(Record.InteriorTilingMs, 6) + ", ";
    Out += "\"overlapped_speedup\": " +
           formatDouble(Record.overlappedSpeedup(), 6) + ", ";
    Out += "\"ratio\": " + formatDouble(Record.ratio(), 6);
    Out += "}";
  }
  Out += "\n" + (Indent.size() >= 2 ? Indent.substr(2) : std::string()) + "]";
  return Out;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Records.clear();
  Sessions.clear();
}
