//===- bench/model_validation.cpp - Predicted vs measured launches --------------===//
//
// Validates the analytic cost model against execution for every registry
// pipeline: runs the optimized fused program through the bytecode VM with
// the MetricsRegistry enabled, so each fused launch pairs the model's
// predicted cycles (on the reference GTX 745) with the host simulator's
// measured wall time and interior/halo split.
//
// Predicted and measured times live on different machines, so the
// predicted/measured ratio is not expected to be 1.0; what matters is its
// *stability* across launches (the paper's Table I argument): a launch
// whose ratio strays far from the geomean is one the model mis-ranks.
//
// Results are appended to the throughput JSON (BENCH_throughput.json) as
// a "model_validation" section.
//
// Options:
//   --scale S         image-size scale vs the paper sizes (default 0.25)
//   --threads N       worker threads (0 = auto)
//   --repeats N       measured runs per pipeline (default 2)
//   --out FILE        JSON results file (default BENCH_throughput.json)
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "sim/Metrics.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace kf;

int main(int Argc, char **Argv) {
  CommandLine Cl(Argc, Argv, {});
  double Scale = Cl.getDoubleOption("scale", 0.25);
  int Repeats = std::max(1, static_cast<int>(Cl.getIntOption("repeats", 2)));
  std::string OutFile = Cl.getOption("out", "BENCH_throughput.json");

  ExecutionOptions Options;
  Options.Threads = static_cast<int>(Cl.getIntOption("threads", 0));

  MetricsRegistry &Registry = MetricsRegistry::global();
  Registry.setEnabled(true);
  Registry.clear();

  std::printf("=== Model validation: predicted vs measured launches "
              "(scale %.2f, %d repeats, %u threads) ===\n\n",
              Scale, Repeats, resolveThreadCount(Options.Threads));

  for (const PipelineSpec &Spec : paperPipelines()) {
    AppVariants App = buildAppVariants(Spec, Scale);
    const Program &P = *App.Source;
    std::vector<Image> Pool = makeImagePool(P);
    fillExternalInputs(P, Pool, 0x5eed + P.numKernels());
    for (int R = 0; R != Repeats; ++R) {
      // Fresh output buffers per run; runFusedVm records prediction and
      // measurement into the registry.
      std::vector<Image> Run = Pool;
      runFusedVm(App.Optimized, Run, Options);
    }
    std::printf("measured '%s' (%u fused launches)\n", Spec.Name.c_str(),
                App.Optimized.numLaunches());
  }

  std::printf("\n%s", Registry.renderTable().c_str());

  std::string Section = "{\"scale\": " + formatDouble(Scale, 4) +
                        ", \"repeats\": " + std::to_string(Repeats) +
                        ", \"threads\": " +
                        std::to_string(resolveThreadCount(Options.Threads)) +
                        ", \"vm_mode\": \"" +
                        vmModeName(Options.Mode) + "\"" +
                        ", \"reference_device\": \"" +
                        MetricsRegistry::referenceDevice().Name +
                        "\", \"geomean_ratio\": " +
                        formatDouble(Registry.geomeanRatio(), 6) +
                        ", \"launches\": " + Registry.toJson("    ") + "}";
  if (spliceJsonSection(OutFile, "model_validation", Section))
    std::printf("\nappended model_validation section to %s\n",
                OutFile.c_str());
  else {
    std::fprintf(stderr, "error: cannot write %s\n", OutFile.c_str());
    return 1;
  }

  std::printf("\nExpected shape: every launch carries both a prediction "
              "and a measurement, and\nthe per-launch predicted/measured "
              "ratios cluster around the geomean -- the two\nsides live "
              "on different machines (analytic GPU vs host simulator), "
              "so the\nabsolute ratio is meaningless but its spread is "
              "the model's ranking error.\n");
  return 0;
}
