//===- transform/Fuser.cpp --------------------------------------------------===//

#include "transform/Fuser.h"

#include "fusion/Legality.h"
#include "support/Error.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace kf;

const char *kf::placementName(Placement P) {
  switch (P) {
  case Placement::Global:
    return "global";
  case Placement::Register:
    return "register";
  case Placement::RegisterRecompute:
    return "register-recompute";
  case Placement::SharedTile:
    return "shared-tile";
  }
  KF_UNREACHABLE("unknown placement");
}

const FusedStage *FusedKernel::findStage(KernelId Id) const {
  for (const FusedStage &Stage : Stages)
    if (Stage.Kernel == Id)
      return &Stage;
  return nullptr;
}

bool FusedKernel::isDestination(KernelId Id) const {
  return std::find(Destinations.begin(), Destinations.end(), Id) !=
         Destinations.end();
}

const FusedKernel *FusedProgram::producerOf(ImageId Id) const {
  for (const FusedKernel &FK : Kernels)
    for (const FusedStage &Stage : FK.Stages)
      if (Source->kernel(Stage.Kernel).Output == Id)
        return &FK;
  return nullptr;
}

namespace {

/// Builds one FusedKernel from a partition block.
class BlockFuser {
public:
  /// \p KernelOrder is a topological order of the program's kernel DAG,
  /// shared by every block of the program.
  BlockFuser(const Program &P, const LegalityChecker &Checker,
             const std::vector<KernelId> &KernelOrder,
             const std::vector<KernelId> &Block, FusionStyle Style,
             const TileShape &Tile)
      : P(P), Checker(Checker), KernelOrder(KernelOrder), Block(Block),
        Style(Style), Tile(Tile) {}

  FusedKernel fuse() {
    FusedKernel FK;
    orderStages(FK);
    FK.Destination = FK.Stages.back().Kernel;
    // Destinations: stages without in-block consumers. Exactly one under
    // the paper's rules; several under the multi-destination extension.
    for (const FusedStage &Stage : FK.Stages) {
      bool HasInternalConsumer = false;
      for (KernelId Consumer :
           P.consumersOf(P.kernel(Stage.Kernel).Output))
        HasInternalConsumer |= inBlock(Consumer);
      if (!HasInternalConsumer)
        FK.Destinations.push_back(Stage.Kernel);
    }
    std::sort(FK.Destinations.begin(), FK.Destinations.end());
    assert(FK.isDestination(FK.Destination) &&
           "last stage must be a destination");

    std::vector<std::string> Names;
    for (const FusedStage &Stage : FK.Stages)
      Names.push_back(P.kernel(Stage.Kernel).Name);
    FK.Name = joinStrings(Names, "+");

    for (FusedStage &Stage : FK.Stages) {
      Stage.EffectiveWindowWidth =
          Checker.effectiveWindowWidth(Block, Stage.Kernel);
      Stage.CarriedHalo = (Stage.EffectiveWindowWidth - 1) / 2;
    }
    assignPlacements(FK);
    computeMultiplicities(FK);
    return FK;
  }

private:
  bool inBlock(KernelId Id) const {
    return std::find(Block.begin(), Block.end(), Id) != Block.end();
  }

  /// Orders the block's kernels topologically; the unique sink comes last.
  void orderStages(FusedKernel &FK) {
    for (KernelId N : KernelOrder)
      if (inBlock(N)) {
        FusedStage Stage;
        Stage.Kernel = N;
        FK.Stages.push_back(Stage);
      }
    assert(FK.Stages.size() == Block.size() && "stage ordering lost kernels");

    // Move the destination (no in-block consumer) to the end; topological
    // order guarantees it is already last for legal single-sink blocks,
    // but assert it.
    ImageId LastOut = P.kernel(FK.Stages.back().Kernel).Output;
    for (KernelId Consumer : P.consumersOf(LastOut))
      assert(!inBlock(Consumer) &&
             "last stage of a block must be its destination");
  }

  /// Reads-per-pixel of \p Consumer on image \p Img, plus whether any
  /// access is windowed.
  std::pair<long long, bool> consumerAccess(KernelId Consumer,
                                            ImageId Img) const {
    const Kernel &K = P.kernel(Consumer);
    const KernelCost &Cost = Checker.cost(Consumer);
    long long Reads = 0;
    bool Window = false;
    for (size_t In = 0; In != K.Inputs.size(); ++In) {
      if (K.Inputs[In] != Img)
        continue;
      const InputFootprint &F = Cost.Footprints[In];
      Reads += F.ReadsPerPixel;
      Window |= F.WindowAccess || F.HaloX > 0 || F.HaloY > 0;
    }
    return {Reads, Window};
  }

  void assignPlacements(FusedKernel &FK) {
    for (FusedStage &Stage : FK.Stages) {
      if (FK.isDestination(Stage.Kernel)) {
        Stage.OutputPlacement = Placement::Global;
        continue;
      }
      ImageId Out = P.kernel(Stage.Kernel).Output;
      bool AnyWindow = false;
      for (KernelId Consumer : P.consumersOf(Out)) {
        assert(inBlock(Consumer) &&
               "non-destination intermediate escapes the block");
        AnyWindow |= consumerAccess(Consumer, Out).second;
      }
      if (!AnyWindow) {
        Stage.OutputPlacement = Placement::Register;
        continue;
      }
      bool ProducerIsPoint =
          P.kernel(Stage.Kernel).Kind == OperatorKind::Point;
      if (Style == FusionStyle::Optimized && ProducerIsPoint)
        Stage.OutputPlacement = Placement::RegisterRecompute;
      else
        Stage.OutputPlacement = Placement::SharedTile;
    }
  }

  void computeMultiplicities(FusedKernel &FK) {
    // Reverse topological walk: consumers are later stages.
    for (auto It = FK.Stages.rbegin(); It != FK.Stages.rend(); ++It) {
      FusedStage &Stage = *It;
      if (FK.isDestination(Stage.Kernel)) {
        Stage.Multiplicity = 1.0;
        continue;
      }
      ImageId Out = P.kernel(Stage.Kernel).Output;
      switch (Stage.OutputPlacement) {
      case Placement::Register: {
        // Evaluated once per consumer context; contexts are shared, so
        // the widest consumer dominates.
        double MaxConsumer = 0.0;
        for (KernelId Consumer : P.consumersOf(Out))
          MaxConsumer = std::max(
              MaxConsumer, FK.findStage(Consumer)->Multiplicity);
        Stage.Multiplicity = std::max(1.0, MaxConsumer);
        break;
      }
      case Placement::RegisterRecompute: {
        // Re-evaluated for every window element of every consumer.
        double Total = 0.0;
        for (KernelId Consumer : P.consumersOf(Out)) {
          auto [Reads, Window] = consumerAccess(Consumer, Out);
          (void)Window;
          Total += FK.findStage(Consumer)->Multiplicity *
                   static_cast<double>(Reads);
        }
        Stage.Multiplicity = std::max(1.0, Total);
        break;
      }
      case Placement::SharedTile: {
        // Filled once per thread block; the per-pixel overhead is the
        // tile-to-block area ratio, with the tile halo covering the
        // widest consumer window.
        int Halo = 0;
        for (KernelId Consumer : P.consumersOf(Out)) {
          const FusedStage *CS = FK.findStage(Consumer);
          int ConsumerHalo =
              (Checker.cost(Consumer).WindowWidth - 1) / 2;
          (void)CS;
          Halo = std::max(Halo, ConsumerHalo);
        }
        double TileElems = static_cast<double>(Tile.Width + 2 * Halo) *
                           (Tile.Height + 2 * Halo);
        double BlockElems =
            static_cast<double>(Tile.Width) * Tile.Height;
        Stage.Multiplicity = TileElems / BlockElems;
        break;
      }
      case Placement::Global:
        KF_UNREACHABLE("non-destination stage placed in global memory");
      }
    }
  }

  const Program &P;
  const LegalityChecker &Checker;
  const std::vector<KernelId> &KernelOrder;
  const std::vector<KernelId> &Block;
  FusionStyle Style;
  TileShape Tile;
};

} // namespace

FusedProgram kf::fuseProgram(const Program &P, const Partition &S,
                             FusionStyle Style, const TileShape &Tile) {
  std::string Invalid = validatePartition(P, S);
  if (!Invalid.empty())
    reportFatalError("cannot fuse program '" + P.name() + "': " + Invalid);

  // The legality checker provides cached costs and the width growth rule;
  // the hardware model is irrelevant for those, use defaults.
  static const HardwareModel DefaultHW;
  LegalityChecker Checker(P, DefaultHW);

  FusedProgram FP;
  FP.Source = &P;
  FP.Style = Style;
  FP.SourcePartition = S;
  FP.SourcePartition.normalize();

  // Stage order within every block: one topological order of the DAG.
  Digraph Dag = P.buildKernelDag();
  std::optional<std::vector<Digraph::NodeId>> KernelOrder =
      Dag.topologicalOrder();
  assert(KernelOrder && "kernel DAG has a cycle");

  // Launch order: topological order of the block contraction of the DAG.
  Digraph BlockGraph;
  for (size_t B = 0; B != FP.SourcePartition.Blocks.size(); ++B)
    BlockGraph.addNode("block" + std::to_string(B));
  for (Digraph::EdgeId E = 0; E != Dag.numEdges(); ++E) {
    const Digraph::Edge &Ed = Dag.edge(E);
    int From = FP.SourcePartition.blockOf(Ed.From);
    int To = FP.SourcePartition.blockOf(Ed.To);
    if (From != To)
      BlockGraph.addEdge(static_cast<unsigned>(From),
                         static_cast<unsigned>(To));
  }
  std::optional<std::vector<Digraph::NodeId>> BlockOrder =
      BlockGraph.topologicalOrder();
  if (!BlockOrder)
    reportFatalError("partition blocks of '" + P.name() +
                     "' form a dependence cycle");

  for (Digraph::NodeId B : *BlockOrder) {
    BlockFuser Fuser(P, Checker, *KernelOrder,
                     FP.SourcePartition.Blocks[B].Kernels, Style, Tile);
    FP.Kernels.push_back(Fuser.fuse());
  }
  return FP;
}

FusedProgram kf::unfusedProgram(const Program &P) {
  return fuseProgram(P, makeSingletonPartition(P), FusionStyle::Optimized);
}

std::string kf::fusedProgramToString(const FusedProgram &FP) {
  const Program &P = *FP.Source;
  std::string Out = "fused program " + P.name() + " (" +
                    (FP.Style == FusionStyle::Optimized ? "optimized"
                                                        : "basic") +
                    ", " + std::to_string(FP.Kernels.size()) + " launches)\n";
  for (const FusedKernel &FK : FP.Kernels) {
    Out += "  kernel " + FK.Name + "\n";
    for (const FusedStage &Stage : FK.Stages) {
      Out += "    stage " + P.kernel(Stage.Kernel).Name + " [" +
             placementName(Stage.OutputPlacement) +
             ", mult=" + formatDouble(Stage.Multiplicity, 3) +
             ", width=" + std::to_string(Stage.EffectiveWindowWidth) + "]\n";
    }
  }
  return Out;
}
