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
  Record.Mode = Mode;
  Record.Tiling = Tiling;
  if (Mode == VmMode::Jit) {
    Record.FlatCells = FlatCells;
    Record.JitCells = JitCells;
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
    // The engine and tiling the launch ran; "-" before its first run.
    std::string Vm = "-", Tiling = "-";
    if (Record.Runs) {
      Vm = vmModeName(Record.Mode);
      Tiling = Record.Tiling == TilingStrategy::Overlapped ? "overlap"
                                                           : "interior";
    }
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

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Records.clear();
  Sessions.clear();
}
