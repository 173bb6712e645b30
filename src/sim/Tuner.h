//===- sim/Tuner.h - Fusion parameter autotuning -----------------*- C++ -*-===//
///
/// \file
/// A small autotuner closing the loop between the fusion engine and the
/// simulator: it sweeps the user-facing knobs -- the shared-memory
/// threshold c_Mshared of Eq. 2 (the paper sets it to 2 by hand "in order
/// to obtain high resource utilization") and the thread-block tile shape
/// -- and picks the configuration with the lowest simulated execution
/// time for a given device. This mechanizes the tradeoff exploration the
/// paper motivates in Figure 1.
///
//===----------------------------------------------------------------------===//

#ifndef KF_SIM_TUNER_H
#define KF_SIM_TUNER_H

#include "fusion/HardwareModel.h"
#include "fusion/Partition.h"
#include "sim/CostModel.h"

namespace kf {

/// One point of the search space.
struct TuneCandidate {
  double SharedMemThreshold = 2.0;
  TileShape Tile;
};

/// One evaluated configuration.
struct TunePoint {
  TuneCandidate Candidate;
  double TimeMs = 0.0;
  unsigned Launches = 0;
};

/// Outcome of a tuning run.
struct TuneResult {
  TunePoint Best;
  Partition BestPartition;           ///< Fusion under the best candidate.
  std::vector<TunePoint> Explored;   ///< All evaluated points, in order.
};

/// The default search grid: thresholds {1, 1.5, 2, 3, 4, 8} crossed with
/// tiles {32x4, 32x8, 64x2, 16x8, 16x16}.
std::vector<TuneCandidate> defaultTuneGrid();

/// Evaluates every candidate: re-runs the min-cut fusion with the
/// candidate threshold, materializes with the candidate tile, and
/// estimates the program time on \p Device. Deterministic; ties keep the
/// earliest candidate.
TuneResult tuneFusion(const Program &P, const DeviceSpec &Device,
                      const HardwareModel &BaseHW,
                      const CostModelParams &BaseParams,
                      const std::vector<TuneCandidate> &Grid =
                          defaultTuneGrid());

} // namespace kf

#endif // KF_SIM_TUNER_H
