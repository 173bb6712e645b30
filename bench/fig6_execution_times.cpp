//===- bench/fig6_execution_times.cpp - Figure 6 reproduction -------------------===//
//
// Regenerates the paper's Figure 6: execution times in milliseconds of the
// six applications on the three (simulated) GPUs, for the baseline, basic
// fusion, and optimized fusion implementations. The paper performs 500
// runs per configuration and draws box plots; this harness prints the
// same five-number summaries (min / 25% / median / 75% / max).
//
// Options: --runs N (default 500), --csv (machine-readable output).
//
// With --measure the harness executes the variants' pixels for real on
// the host (bytecode VM engine, see sim/Executor.h) instead of querying
// the analytic model: one "host" row replaces the three simulated GPUs.
// --threads N and --scale S (image-size factor, default 0.25) control
// the measured runs.
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "support/AsciiPlot.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace kf;

int main(int Argc, char **Argv) {
  CommandLine Cl(Argc, Argv, {"csv", "plot", "measure"});
  int Runs = static_cast<int>(Cl.getIntOption("runs", 500));
  bool Csv = Cl.hasOption("csv");
  bool Plot = Cl.hasOption("plot");

  if (Cl.hasOption("measure")) {
    double Scale = Cl.getDoubleOption("scale", 0.25);
    ExecutionOptions Options;
    Options.Threads = static_cast<int>(Cl.getIntOption("threads", 0));
    int Repeats = static_cast<int>(Cl.getIntOption("repeats", 3));

    std::printf("=== Figure 6 (measured): host wall-clock times in ms "
                "(VM engine, scale %.3g, best of %d) ===\n\n",
                Scale, Repeats);
    TablePrinter Table({"app", "size", "variant", "wall ms"});
    for (const PipelineSpec &Spec : paperPipelines()) {
      AppVariants App = buildAppVariants(Spec, Scale);
      const ImageInfo &In = App.Source->image(0);
      std::string Size =
          std::to_string(In.Width) + "x" + std::to_string(In.Height);
      for (Variant V : {Variant::Baseline, Variant::BasicFusion,
                        Variant::OptimizedFusion}) {
        double Ms = measureVariantWallMs(App, V, Options, Repeats);
        Table.addRow({App.Name, Size, variantName(V),
                      formatDouble(Ms, 3)});
      }
    }
    std::fputs(Table.render().c_str(), stdout);
    std::printf("\nHost caveat: recompute-based fusion trades memory "
                "traffic for arithmetic, which\npays off on GPUs (the "
                "simulated rows) but can lose on a CPU interpreter "
                "for\ncompute-bound apps (Night).\n");
    return 0;
  }

  CostModelParams Params;
  std::vector<AppVariants> Apps;
  for (const PipelineSpec &Spec : paperPipelines())
    Apps.push_back(buildAppVariants(Spec));

  if (!Csv)
    std::printf("=== Figure 6: execution times in ms (%d simulated runs, "
                "box statistics) ===\n",
                Runs);

  TablePrinter CsvTable({"device", "app", "variant", "min", "q25", "median",
                         "q75", "max"});

  for (const DeviceSpec &Device : DeviceSpec::paperDevices()) {
    if (!Csv)
      std::printf("\n-- %s --\n", Device.Name.c_str());
    TablePrinter Table({"app", "variant", "median", "min", "q25", "q75",
                        "max"});
    std::vector<BoxPlotRow> PlotRows;
    for (const AppVariants &App : Apps) {
      for (Variant V : {Variant::Baseline, Variant::BasicFusion,
                        Variant::OptimizedFusion}) {
        BoxStats Stats = variantRunStats(App, V, Device, Params, Runs);
        Table.addRow({App.Name, variantName(V),
                      formatDouble(Stats.Median, 3),
                      formatDouble(Stats.Min, 3),
                      formatDouble(Stats.Q25, 3),
                      formatDouble(Stats.Q75, 3),
                      formatDouble(Stats.Max, 3)});
        CsvTable.addRow({Device.Name, App.Name, variantName(V),
                         formatDouble(Stats.Min, 4),
                         formatDouble(Stats.Q25, 4),
                         formatDouble(Stats.Median, 4),
                         formatDouble(Stats.Q75, 4),
                         formatDouble(Stats.Max, 4)});
        PlotRows.push_back(
            BoxPlotRow{App.Name + "/" + variantName(V), Stats});
      }
    }
    if (!Csv)
      std::fputs(Plot ? renderBoxPlots(PlotRows).c_str()
                      : Table.render().c_str(),
                 stdout);
  }

  if (Csv) {
    std::fputs(CsvTable.renderCsv().c_str(), stdout);
  } else {
    std::printf("\nShapes to compare with the paper's Figure 6: optimized "
                "<= basic <= baseline per app;\nUnsharp shows the largest "
                "gap; Night is essentially flat (compute-bound); GTX745 "
                "has the\nlargest absolute times (lowest memory "
                "bandwidth).\n");
  }
  return 0;
}
