//===- sim/CostModel.h - Analytic GPU timing model --------------*- C++ -*-===//
///
/// \file
/// The analytic cost model the simulated evaluation runs on. For every
/// (fused) kernel launch it accounts the quantities kernel fusion trades
/// against each other:
///
///   - global-memory traffic (bytes read/written; fusion eliminates the
///     intermediate images),
///   - on-chip traffic (shared-memory/cache accesses for window reads and
///     tile staging),
///   - computation (ALU/SFU operations, multiplied along recompute chains
///     by the stage multiplicities the fuser derived),
///   - occupancy (shared-memory bytes per thread block limit how many
///     blocks a streaming multiprocessor can host -- the resource
///     pressure Eq. 2 guards against).
///
/// Launch time is launch overhead plus max(compute time, memory time)
/// stretched by an occupancy-dependent latency-hiding factor. The model
/// is deliberately simple and documented; it preserves which variant wins
/// and roughly by what factor, not absolute milliseconds of the authors'
/// testbed (see DESIGN.md, substitutions).
///
//===----------------------------------------------------------------------===//

#ifndef KF_SIM_COSTMODEL_H
#define KF_SIM_COSTMODEL_H

#include "sim/DeviceSpec.h"
#include "transform/Fuser.h"

namespace kf {

/// Accounted quantities of one kernel launch.
struct LaunchStats {
  std::string Name;
  long long OutputPixels = 0;      ///< Iteration-space size.
  int OutputChannels = 1;
  double GlobalBytesRead = 0.0;
  double GlobalBytesWritten = 0.0;
  double SharedAccesses = 0.0;     ///< On-chip reads/writes (count).
  double AluOps = 0.0;
  double SfuOps = 0.0;
  double SharedBytesPerBlock = 0.0;
  unsigned NumStages = 1;

  double totalGlobalBytes() const {
    return GlobalBytesRead + GlobalBytesWritten;
  }
};

/// Accounted quantities of a whole (fused) program execution.
struct ProgramStats {
  std::vector<LaunchStats> Launches;

  double totalGlobalBytes() const;
  double totalAluOps() const;
  unsigned numLaunches() const {
    return static_cast<unsigned>(Launches.size());
  }
};

/// Tunable constants of the timing model.
struct CostModelParams {
  double SfuOpFactor = 8.0;      ///< SFU ops cost this many ALU slots.
  /// Shared/cache access cost in ALU issue slots. Kepler SMXes pair 192
  /// ALU lanes with 32 load/store units, so an on-chip access occupies
  /// roughly six ALU slots of issue bandwidth.
  double SharedAccessFactor = 6.0;
  double MemEfficiency = 0.75;   ///< Achievable fraction of peak bandwidth.
  double OccupancyKnee = 0.5;    ///< Occupancy below this exposes latency.
  int RegistersPerThread = 32;   ///< Constant: fusion does not raise it
                                 ///< (Section II-B1 observation).
  TileShape Tile;                ///< Thread-block shape (threads).
};

/// Statically accounts every launch of \p FP (no pixel execution; counts
/// scale with the iteration space analytically). Recompute chains are
/// charged by the fuser's stage multiplicities.
ProgramStats accountFusedProgram(const FusedProgram &FP,
                                 const TileShape &Tile = TileShape());

/// Occupancy (0..1] of a launch on \p Device: thread capacity under the
/// shared-memory and register limits.
double launchOccupancy(const LaunchStats &Stats, const DeviceSpec &Device,
                       const CostModelParams &Params);

/// Estimated execution time of one launch in milliseconds (excluding
/// launch overhead).
double estimateLaunchTimeMs(const LaunchStats &Stats,
                            const DeviceSpec &Device,
                            const CostModelParams &Params);

/// Estimated end-to-end time of the program in milliseconds, including
/// per-launch overheads.
double estimateProgramTimeMs(const ProgramStats &Stats,
                             const DeviceSpec &Device,
                             const CostModelParams &Params);

} // namespace kf

#endif // KF_SIM_COSTMODEL_H
