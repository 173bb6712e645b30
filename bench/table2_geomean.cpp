//===- bench/table2_geomean.cpp - Table II reproduction --------------------------===//
//
// Regenerates the paper's Table II: geometric mean of the speedups across
// the three GPUs, per application and comparison, next to the published
// values (headline: up to 2.52 on Unsharp).
//
// With --measure the numbers come from real host execution of the
// variants (bytecode VM engine); --threads N and --scale S (default
// 0.25) control the measured runs.
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "support/CommandLine.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <cstdio>

using namespace kf;

int main(int Argc, char **Argv) {
  CommandLine Cl(Argc, Argv, {"measure"});
  int Runs = static_cast<int>(Cl.getIntOption("runs", 500));
  bool Measure = Cl.hasOption("measure");
  double Scale = Cl.getDoubleOption("scale", 0.25);
  ExecutionOptions ExecOptions;
  ExecOptions.Threads = static_cast<int>(Cl.getIntOption("threads", 0));
  int Repeats = static_cast<int>(Cl.getIntOption("repeats", 3));

  CostModelParams Params;
  std::vector<AppVariants> Apps;
  for (const PipelineSpec &Spec : paperPipelines())
    Apps.push_back(Measure ? buildAppVariants(Spec, Scale)
                           : buildAppVariants(Spec));
  const PaperTable2 &Paper = paperTable2();

  // --measure: real host execution (VM engine); the "geomean" collapses
  // to the single host measurement per app.
  std::map<std::string, std::map<std::string, double>> HostMs;
  if (Measure)
    for (const AppVariants &App : Apps)
      for (Variant V : {Variant::Baseline, Variant::BasicFusion,
                        Variant::OptimizedFusion})
        HostMs[App.Name][variantName(V)] = measureVariantWallMs(
            App, V, ExecOptions, Repeats);

  if (Measure)
    std::printf("=== Table II (measured): host wall-clock speedups "
                "(VM engine, scale %.3g; paper GPU\ngeomeans in "
                "parentheses for context) ===\n\n",
                Scale);
  else
    std::printf("=== Table II: geometric mean of speedups across all GPUs "
                "(measured, paper in parentheses) ===\n\n");

  struct Comparison {
    const char *Title;
    Variant Num;
    Variant Den;
    const std::map<std::string, double> *Published;
  };
  const Comparison Comparisons[3] = {
      {"Optm over Base", Variant::Baseline, Variant::OptimizedFusion,
       &Paper.OptOverBase},
      {"Basic over Base", Variant::Baseline, Variant::BasicFusion,
       &Paper.BasicOverBase},
      {"Optm over Basic", Variant::BasicFusion, Variant::OptimizedFusion,
       &Paper.OptOverBasic},
  };

  std::vector<std::string> Header{"comparison"};
  for (const AppVariants &App : Apps)
    Header.push_back(App.Name);
  TablePrinter Table(Header);

  for (const Comparison &Cmp : Comparisons) {
    std::vector<std::string> Row{Cmp.Title};
    for (const AppVariants &App : Apps) {
      std::vector<double> Speedups;
      if (Measure) {
        Speedups.push_back(HostMs[App.Name][variantName(Cmp.Num)] /
                           HostMs[App.Name][variantName(Cmp.Den)]);
      } else {
        for (const DeviceSpec &Device : DeviceSpec::paperDevices()) {
          double Slow =
              variantRunStats(App, Cmp.Num, Device, Params, Runs).Median;
          double Fast =
              variantRunStats(App, Cmp.Den, Device, Params, Runs).Median;
          Speedups.push_back(Slow / Fast);
        }
      }
      Row.push_back(formatDouble(geometricMean(Speedups), 3) + " (" +
                    formatDouble(Cmp.Published->at(App.Name), 3) + ")");
    }
    Table.addRow(Row);
  }
  std::fputs(Table.render().c_str(), stdout);

  std::printf("\nPaper headline: \"a geometric mean speedup of up to 2.52\" "
              "(Unsharp, optimized over baseline).\n");
  return 0;
}
