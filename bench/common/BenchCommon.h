//===- bench/common/BenchCommon.h - Shared evaluation harness ---*- C++ -*-===//
///
/// \file
/// Shared machinery of the evaluation benchmarks: building the three
/// implementation variants the paper compares (baseline, basic fusion of
/// prior work [12], optimized fusion), timing them on the three simulated
/// GPUs, and the paper's published Table I / Table II numbers for
/// side-by-side reporting.
///
//===----------------------------------------------------------------------===//

#ifndef KF_BENCH_COMMON_BENCHCOMMON_H
#define KF_BENCH_COMMON_BENCHCOMMON_H

#include "fusion/HardwareModel.h"
#include "pipelines/Pipelines.h"
#include "sim/CostModel.h"
#include "sim/Executor.h"
#include "sim/Runner.h"
#include "transform/Fuser.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace kf {

/// The three implementations compared throughout Section V.
enum class Variant { Baseline, BasicFusion, OptimizedFusion };

const char *variantName(Variant V);

/// The paper's benefit-model constants (Section III-B walk-through).
HardwareModel paperHardwareModel();

/// One application prepared in all three variants. The source program is
/// heap-allocated so the fused programs' back-pointers stay valid when an
/// AppVariants is moved around.
struct AppVariants {
  std::string Name;
  std::unique_ptr<Program> Source;
  FusedProgram Baseline;
  FusedProgram Basic;
  FusedProgram Optimized;

  const FusedProgram &variant(Variant V) const;
};

/// Builds the three variants of \p Spec at its paper image size scaled by
/// \p Scale on each axis (1.0 = the paper size; benchmarks use smaller
/// scales to keep host-execution runs tractable).
AppVariants buildAppVariants(const PipelineSpec &Spec, double Scale = 1.0);

/// Wall-clock milliseconds to actually execute one variant's pixels on
/// the host through runFusedVm under \p Options (best of \p Repeats runs
/// on a shared pool pre-filled with deterministic random inputs). The
/// Baseline variant is the singleton partition.
double measureVariantWallMs(const AppVariants &App, Variant V,
                            const ExecutionOptions &Options, int Repeats = 3);

/// Analytic execution time of one variant on one device (milliseconds).
double variantTimeMs(const AppVariants &App, Variant V,
                     const DeviceSpec &Device, const CostModelParams &Params);

/// Simulated repeated-measurement statistics (Figure 6 protocol: the
/// paper performs 500 runs per configuration).
BoxStats variantRunStats(const AppVariants &App, Variant V,
                         const DeviceSpec &Device,
                         const CostModelParams &Params, int Runs);

/// Published speedups from the paper's Table I, indexed by
/// [device name][app name]. Apps use the registry names.
struct PaperTable1 {
  std::map<std::string, std::map<std::string, double>> OptOverBase;
  std::map<std::string, std::map<std::string, double>> BasicOverBase;
  std::map<std::string, std::map<std::string, double>> OptOverBasic;
};
const PaperTable1 &paperTable1();

/// Published geometric means from Table II, indexed by app name.
struct PaperTable2 {
  std::map<std::string, double> OptOverBase;
  std::map<std::string, double> BasicOverBase;
  std::map<std::string, double> OptOverBasic;
};
const PaperTable2 &paperTable2();

} // namespace kf

#endif // KF_BENCH_COMMON_BENCHCOMMON_H
