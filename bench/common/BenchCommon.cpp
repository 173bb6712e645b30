//===- bench/common/BenchCommon.cpp --------------------------------------------===//

#include "bench/common/BenchCommon.h"

#include "fusion/BasicFusion.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Generators.h"
#include "support/Error.h"

#include <chrono>
#include <cmath>

using namespace kf;

const char *kf::variantName(Variant V) {
  switch (V) {
  case Variant::Baseline:
    return "baseline";
  case Variant::BasicFusion:
    return "basic";
  case Variant::OptimizedFusion:
    return "optimized";
  }
  KF_UNREACHABLE("unknown variant");
}

HardwareModel kf::paperHardwareModel() {
  HardwareModel HW;
  HW.GlobalAccessCycles = 400.0;
  HW.SharedAccessCycles = 4.0;
  HW.AluCost = 4.0;
  HW.SfuCost = 16.0;
  HW.SharedMemThreshold = 2.0;
  HW.Gamma = 0.0;
  return HW;
}

const FusedProgram &AppVariants::variant(Variant V) const {
  switch (V) {
  case Variant::Baseline:
    return Baseline;
  case Variant::BasicFusion:
    return Basic;
  case Variant::OptimizedFusion:
    return Optimized;
  }
  KF_UNREACHABLE("unknown variant");
}

AppVariants kf::buildAppVariants(const PipelineSpec &Spec, double Scale) {
  AppVariants App;
  App.Name = Spec.Name;
  int W = std::max(8, static_cast<int>(std::lround(Spec.Width * Scale)));
  int H = std::max(8, static_cast<int>(std::lround(Spec.Height * Scale)));
  App.Source = std::make_unique<Program>(Spec.Builder(W, H));
  const Program &P = *App.Source;
  HardwareModel HW = paperHardwareModel();
  App.Baseline = unfusedProgram(P);
  BasicFusionResult Basic = runBasicFusion(P, HW);
  App.Basic = fuseProgram(P, Basic.Blocks, FusionStyle::Basic);
  MinCutFusionResult Optimized = runMinCutFusion(P, HW);
  App.Optimized = fuseProgram(P, Optimized.Blocks, FusionStyle::Optimized);
  return App;
}

namespace {

/// Fills every external input of \p P (images no kernel produces) in
/// \p Pool with deterministic random data, so measured runs are
/// reproducible across invocations.
void fillExternalInputs(const Program &P, std::vector<Image> &Pool,
                        uint64_t Seed) {
  std::vector<bool> Produced(P.numImages());
  for (KernelId Id = 0; Id != P.numKernels(); ++Id)
    Produced[P.kernel(Id).Output] = true;
  Rng Gen(Seed);
  for (ImageId Id = 0; Id != P.numImages(); ++Id)
    if (!Produced[Id]) {
      const ImageInfo &Info = P.image(Id);
      Pool[Id] =
          makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen);
    }
}

} // namespace

double kf::measureVariantWallMs(const AppVariants &App, Variant V,
                                const ExecutionOptions &Options,
                                int Repeats) {
  const Program &P = *App.Source;
  const FusedProgram &FP = App.variant(V);
  std::vector<Image> Pool = makeImagePool(P);
  fillExternalInputs(P, Pool, 0xbe7c);

  double Best = 0.0;
  for (int R = 0; R < std::max(Repeats, 1); ++R) {
    auto Start = std::chrono::steady_clock::now();
    runFusedVm(FP, Pool, Options);
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    Best = R == 0 ? Ms : std::min(Best, Ms);
  }
  return Best;
}

double kf::variantTimeMs(const AppVariants &App, Variant V,
                         const DeviceSpec &Device,
                         const CostModelParams &Params) {
  ProgramStats Stats = accountFusedProgram(App.variant(V), Params.Tile);
  return estimateProgramTimeMs(Stats, Device, Params);
}

BoxStats kf::variantRunStats(const AppVariants &App, Variant V,
                             const DeviceSpec &Device,
                             const CostModelParams &Params, int Runs) {
  NoiseModel Noise;
  // Distinct deterministic seed per configuration.
  Noise.Seed = 0x5eed ^ (static_cast<uint64_t>(V) << 32) ^
               std::hash<std::string>{}(App.Name + Device.Name);
  return simulateRuns(variantTimeMs(App, V, Device, Params), Runs, Noise);
}

const PaperTable1 &kf::paperTable1() {
  static const PaperTable1 Table = [] {
    PaperTable1 T;
    auto fill = [](std::map<std::string, std::map<std::string, double>> &M,
                   const char *Device, std::initializer_list<double> Row) {
      const char *Apps[6] = {"harris",    "sobel",   "unsharp",
                             "shitomasi", "enhance", "night"};
      int I = 0;
      for (double V : Row)
        M[Device][Apps[I++]] = V;
    };
    fill(T.OptOverBase, "GTX745", {1.145, 1.108, 2.025, 1.138, 1.760, 1.000});
    fill(T.OptOverBase, "GTX680", {1.344, 1.377, 3.438, 1.357, 1.920, 1.020});
    fill(T.OptOverBase, "K20c", {1.146, 1.048, 2.304, 1.149, 1.809, 1.000});
    fill(T.BasicOverBase, "GTX745",
         {1.044, 1.002, 1.007, 1.046, 1.413, 1.001});
    fill(T.BasicOverBase, "GTX680",
         {1.266, 0.987, 1.001, 1.287, 1.785, 1.020});
    fill(T.BasicOverBase, "K20c", {1.094, 1.002, 0.999, 1.099, 1.490, 1.000});
    fill(T.OptOverBasic, "GTX745",
         {1.097, 1.106, 2.011, 1.088, 1.245, 0.999});
    fill(T.OptOverBasic, "GTX680",
         {1.061, 1.394, 3.435, 1.055, 1.076, 1.000});
    fill(T.OptOverBasic, "K20c", {1.047, 1.046, 2.304, 1.046, 1.214, 1.000});
    return T;
  }();
  return Table;
}

const PaperTable2 &kf::paperTable2() {
  static const PaperTable2 Table = [] {
    PaperTable2 T;
    const char *Apps[6] = {"harris",    "sobel",   "unsharp",
                           "shitomasi", "enhance", "night"};
    const double Opt[6] = {1.208, 1.169, 2.522, 1.211, 1.829, 1.007};
    const double Basic[6] = {1.131, 1.000, 1.002, 1.139, 1.555, 1.007};
    const double OptBasic[6] = {1.068, 1.173, 2.516, 1.063, 1.176, 1.000};
    for (int I = 0; I != 6; ++I) {
      T.OptOverBase[Apps[I]] = Opt[I];
      T.BasicOverBase[Apps[I]] = Basic[I];
      T.OptOverBasic[Apps[I]] = OptBasic[I];
    }
    return T;
  }();
  return Table;
}
