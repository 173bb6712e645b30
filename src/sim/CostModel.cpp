//===- sim/CostModel.cpp ----------------------------------------------------===//

#include "sim/CostModel.h"

#include "fusion/Legality.h"
#include "ir/CostInfo.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

using namespace kf;

double ProgramStats::totalGlobalBytes() const {
  double Sum = 0.0;
  for (const LaunchStats &L : Launches)
    Sum += L.totalGlobalBytes();
  return Sum;
}

double ProgramStats::totalAluOps() const {
  double Sum = 0.0;
  for (const LaunchStats &L : Launches)
    Sum += L.AluOps;
  return Sum;
}

namespace {

/// Tile area overhead of staging a window input: loaded elements per
/// computed element for a block of Tile threads with halo \p Halo.
double tileLoadFactor(const TileShape &Tile, int Halo) {
  if (Halo <= 0)
    return 1.0;
  double TileElems = static_cast<double>(Tile.Width + 2 * Halo) *
                     (Tile.Height + 2 * Halo);
  return TileElems / (static_cast<double>(Tile.Width) * Tile.Height);
}

/// Accounts one fused kernel.
class LaunchAccountant {
public:
  LaunchAccountant(const Program &P, const FusedKernel &FK,
                   const TileShape &Tile)
      : P(P), FK(FK), Tile(Tile) {
    for (const FusedStage &Stage : FK.Stages)
      Costs.emplace(Stage.Kernel, analyzeKernelCost(P, Stage.Kernel));
  }

  LaunchStats account() {
    LaunchStats Stats;
    Stats.Name = FK.Name;
    const ImageInfo &DestOut = P.image(P.kernel(FK.Destination).Output);
    Stats.OutputPixels = DestOut.iterationSpace();
    Stats.OutputChannels = DestOut.Channels;
    Stats.NumStages = static_cast<unsigned>(FK.Stages.size());
    double Samples =
        static_cast<double>(Stats.OutputPixels) * Stats.OutputChannels;

    computeSpreads();

    // Destination writes are the only global stores (one image per
    // destination; a single one under the paper's rules).
    for (KernelId DestId : FK.Destinations) {
      const ImageInfo &Info = P.image(P.kernel(DestId).Output);
      Stats.GlobalBytesWritten +=
          static_cast<double>(Info.iterationSpace()) * Info.Channels * 4.0;
    }

    // Global reads: one pass over each distinct external image, loaded
    // through the cache/tiles with a footprint grown by the evaluation
    // spread of the reading stages.
    std::map<ImageId, int> ExternalHalo; // image -> max effective halo
    for (const FusedStage &Stage : FK.Stages) {
      const Kernel &K = P.kernel(Stage.Kernel);
      const KernelCost &Cost = Costs.at(Stage.Kernel);
      for (size_t In = 0; In != K.Inputs.size(); ++In) {
        ImageId Img = K.Inputs[In];
        if (isInternal(Img))
          continue;
        const InputFootprint &F = Cost.Footprints[In];
        int Halo = Spread.at(Stage.Kernel) + std::max(F.HaloX, F.HaloY);
        auto [It, Inserted] = ExternalHalo.emplace(Img, Halo);
        if (!Inserted)
          It->second = std::max(It->second, Halo);
      }
    }
    for (const auto &[Img, Halo] : ExternalHalo) {
      const ImageInfo &Info = P.image(Img);
      double ImgSamples =
          static_cast<double>(Info.iterationSpace()) * Info.Channels;
      Stats.GlobalBytesRead += ImgSamples * 4.0 * tileLoadFactor(Tile, Halo);
    }

    // Per-stage operations and on-chip traffic: a stage is evaluated
    // Multiplicity times per output pixel (recompute chains).
    for (const FusedStage &Stage : FK.Stages) {
      const Kernel &K = P.kernel(Stage.Kernel);
      const KernelCost &Cost = Costs.at(Stage.Kernel);
      double M = Stage.Multiplicity;
      Stats.AluOps += M * static_cast<double>(Cost.NumAlu) * Samples;
      Stats.SfuOps += M * static_cast<double>(Cost.NumSfu) * Samples;

      // Tile-staged stages pay shared writes for the fill.
      if (Stage.OutputPlacement == Placement::SharedTile)
        Stats.SharedAccesses += M * Samples;

      for (size_t In = 0; In != K.Inputs.size(); ++In) {
        ImageId Img = K.Inputs[In];
        const InputFootprint &F = Cost.Footprints[In];
        int Halo = std::max(F.HaloX, F.HaloY);
        // Recompute chains revisit overlapping positions; the generated
        // (unrolled) code loads each distinct pixel of the grown
        // footprint once, so cap the charge at the distinct-footprint
        // size.
        double FootprintSide = 2.0 * (Spread.at(Stage.Kernel) + Halo) + 1.0;
        double Reads = std::min(M * static_cast<double>(F.ReadsPerPixel),
                                FootprintSide * FootprintSide);
        if (isInternal(Img)) {
          const FusedStage *Producer = FK.findStage(*P.producerOf(Img));
          assert(Producer && "internal image without a stage producer");
          if (Producer->OutputPlacement == Placement::SharedTile)
            Stats.SharedAccesses += Reads * Samples;
          // Register / RegisterRecompute: register traffic, free.
          continue;
        }
        // External image: the first load per pixel fills the tile/cache
        // (accounted as global bytes above); repeats are on-chip.
        if (F.WindowAccess || Halo > 0) {
          Stats.SharedAccesses += tileLoadFactor(Tile, Halo) * Samples;
          Stats.SharedAccesses += Reads * Samples;
        } else if (Reads > 1.0) {
          Stats.SharedAccesses += (Reads - 1.0) * Samples;
        }
      }
    }

    // Shared-memory footprint per thread block: tiles for external window
    // inputs plus tiles staging internal intermediates.
    for (const FusedStage &Stage : FK.Stages) {
      const Kernel &K = P.kernel(Stage.Kernel);
      const KernelCost &Cost = Costs.at(Stage.Kernel);
      for (size_t In = 0; In != K.Inputs.size(); ++In) {
        ImageId Img = K.Inputs[In];
        const InputFootprint &F = Cost.Footprints[In];
        int Halo = std::max(F.HaloX, F.HaloY);
        bool Windowed = F.WindowAccess || Halo > 0;
        if (!Windowed)
          continue;
        if (isInternal(Img)) {
          const FusedStage *Producer = FK.findStage(*P.producerOf(Img));
          if (Producer->OutputPlacement != Placement::SharedTile)
            continue; // Recomputed: no tile.
        }
        const ImageInfo &Info = P.image(Img);
        Stats.SharedBytesPerBlock +=
            static_cast<double>(Tile.Width + 2 * Halo) *
            (Tile.Height + 2 * Halo) * 4.0 * Info.Channels;
      }
    }
    return Stats;
  }

private:
  bool isInternal(ImageId Img) const {
    std::optional<KernelId> Producer = P.producerOf(Img);
    if (!Producer)
      return false;
    const FusedStage *Stage = FK.findStage(*Producer);
    return Stage && !FK.isDestination(Stage->Kernel);
  }

  /// Evaluation spread: how far from the output pixel a stage gets
  /// evaluated, via recompute chains (0 for the destination).
  void computeSpreads() {
    for (auto It = FK.Stages.rbegin(); It != FK.Stages.rend(); ++It) {
      const FusedStage &Stage = *It;
      if (FK.isDestination(Stage.Kernel)) {
        Spread[Stage.Kernel] = 0;
        continue;
      }
      ImageId Out = P.kernel(Stage.Kernel).Output;
      int MaxSpread = 0;
      for (KernelId Consumer : P.consumersOf(Out)) {
        const KernelCost &Cost = Costs.at(Consumer);
        const Kernel &CK = P.kernel(Consumer);
        int AccessHalo = 0;
        for (size_t In = 0; In != CK.Inputs.size(); ++In)
          if (CK.Inputs[In] == Out)
            AccessHalo = std::max(AccessHalo,
                                  std::max(Cost.Footprints[In].HaloX,
                                           Cost.Footprints[In].HaloY));
        MaxSpread =
            std::max(MaxSpread, Spread.at(Consumer) + AccessHalo);
      }
      Spread[Stage.Kernel] = MaxSpread;
    }
  }

  const Program &P;
  const FusedKernel &FK;
  TileShape Tile;
  std::map<KernelId, KernelCost> Costs;
  std::map<KernelId, int> Spread;
};

} // namespace

ProgramStats kf::accountFusedProgram(const FusedProgram &FP,
                                     const TileShape &Tile) {
  ProgramStats Stats;
  for (const FusedKernel &FK : FP.Kernels) {
    LaunchAccountant Accountant(*FP.Source, FK, Tile);
    Stats.Launches.push_back(Accountant.account());
  }
  return Stats;
}

double kf::launchOccupancy(const LaunchStats &Stats, const DeviceSpec &Device,
                           const CostModelParams &Params) {
  int ThreadsPerBlock = Params.Tile.Width * Params.Tile.Height;
  int BlocksByShared =
      Stats.SharedBytesPerBlock > 0.0
          ? static_cast<int>(Device.SharedMemPerSMBytes /
                             Stats.SharedBytesPerBlock)
          : Device.MaxBlocksPerSM;
  int BlocksByRegs = Device.RegistersPerSM /
                     (Params.RegistersPerThread * ThreadsPerBlock);
  int Blocks = std::max(
      1, std::min({Device.MaxBlocksPerSM, BlocksByShared, BlocksByRegs}));
  double Occ = static_cast<double>(Blocks) * ThreadsPerBlock /
               Device.MaxThreadsPerSM;
  return std::min(1.0, Occ);
}

double kf::estimateLaunchTimeMs(const LaunchStats &Stats,
                                const DeviceSpec &Device,
                                const CostModelParams &Params) {
  double OpSlots = Stats.AluOps + Params.SfuOpFactor * Stats.SfuOps +
                   Params.SharedAccessFactor * Stats.SharedAccesses;
  double ComputeSec =
      OpSlots / (static_cast<double>(Device.CudaCores) *
                 Device.CoreClockGHz * 1e9);
  double MemSec = Stats.totalGlobalBytes() /
                  (Device.MemBandwidthGBs * 1e9 * Params.MemEfficiency);

  double Occ = launchOccupancy(Stats, Device, Params);
  double LatencyStretch =
      Occ >= Params.OccupancyKnee ? 1.0 : Params.OccupancyKnee / Occ;
  return std::max(ComputeSec, MemSec) * LatencyStretch * 1e3;
}

double kf::estimateProgramTimeMs(const ProgramStats &Stats,
                                 const DeviceSpec &Device,
                                 const CostModelParams &Params) {
  double TotalMs = 0.0;
  for (const LaunchStats &L : Stats.Launches)
    TotalMs += Device.LaunchOverheadUs * 1e-3 +
               estimateLaunchTimeMs(L, Device, Params);
  return TotalMs;
}
