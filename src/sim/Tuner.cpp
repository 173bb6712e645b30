//===- sim/Tuner.cpp ----------------------------------------------------------===//

#include "sim/Tuner.h"

#include "fusion/MinCutPartitioner.h"
#include "transform/Fuser.h"

#include <cassert>

using namespace kf;

std::vector<TuneCandidate> kf::defaultTuneGrid() {
  std::vector<TuneCandidate> Grid;
  const double Thresholds[] = {1.0, 1.5, 2.0, 3.0, 4.0, 8.0};
  const TileShape Tiles[] = {{32, 4}, {32, 8}, {64, 2}, {16, 8}, {16, 16}};
  for (double Threshold : Thresholds)
    for (const TileShape &Tile : Tiles)
      Grid.push_back(TuneCandidate{Threshold, Tile});
  return Grid;
}

TuneResult kf::tuneFusion(const Program &P, const DeviceSpec &Device,
                          const HardwareModel &BaseHW,
                          const CostModelParams &BaseParams,
                          const std::vector<TuneCandidate> &Grid) {
  assert(!Grid.empty() && "tuning needs at least one candidate");

  TuneResult Result;
  bool HaveBest = false;
  for (const TuneCandidate &Candidate : Grid) {
    HardwareModel HW = BaseHW;
    HW.SharedMemThreshold = Candidate.SharedMemThreshold;
    MinCutFusionResult Fusion = runMinCutFusion(P, HW);
    FusedProgram FP = fuseProgram(P, Fusion.Blocks, FusionStyle::Optimized,
                                  Candidate.Tile);
    CostModelParams Params = BaseParams;
    Params.Tile = Candidate.Tile;
    ProgramStats Stats = accountFusedProgram(FP, Candidate.Tile);

    TunePoint Point;
    Point.Candidate = Candidate;
    Point.TimeMs = estimateProgramTimeMs(Stats, Device, Params);
    Point.Launches = FP.numLaunches();
    Result.Explored.push_back(Point);

    if (!HaveBest || Point.TimeMs < Result.Best.TimeMs) {
      HaveBest = true;
      Result.Best = Point;
      Result.BestPartition = Fusion.Blocks;
    }
  }
  return Result;
}
