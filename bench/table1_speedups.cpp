//===- bench/table1_speedups.cpp - Table I reproduction -------------------------===//
//
// Regenerates the paper's Table I: per-GPU speedups of optimized fusion
// over baseline, basic fusion over baseline, and optimized over basic,
// for the six applications -- printed side by side with the paper's
// published numbers. Speedups are derived from the median of the
// simulated runs, as the paper derives its gains from medians.
//
// With --measure the speedups come from real host execution of the
// variants (bytecode VM engine) instead of the simulator; --threads N
// and --scale S (default 0.25) control the measured runs.
//
//===----------------------------------------------------------------------===//

#include "bench/common/BenchCommon.h"
#include "support/CommandLine.h"
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
  const PaperTable1 &Paper = paperTable1();

  // With --measure, variants execute their pixels for real on the host
  // (VM engine) and the three simulated GPUs collapse into one "host"
  // row; paper values stay printed for context, but a CPU interpreter
  // is not a GPU -- recompute-heavy fusions (Night) can lose here.
  std::map<std::string, std::map<std::string, double>> HostMs;
  if (Measure) {
    std::printf("=== Table I (measured): host wall-clock speedups "
                "(VM engine, scale %.3g; paper GPU\nvalues in "
                "parentheses for context) ===\n",
                Scale);
    for (const AppVariants &App : Apps)
      for (Variant V : {Variant::Baseline, Variant::BasicFusion,
                        Variant::OptimizedFusion})
        HostMs[App.Name][variantName(V)] = measureVariantWallMs(
            App, V, ExecOptions, Repeats);
  }

  if (!Measure)
    std::printf("=== Table I: speedup comparison (measured = simulator, "
                "paper values in parentheses) ===\n");

  struct Comparison {
    const char *Title;
    Variant Num;
    Variant Den;
    const std::map<std::string, std::map<std::string, double>> *Published;
  };
  const Comparison Comparisons[3] = {
      {"Optimized Fusion over Baseline", Variant::Baseline,
       Variant::OptimizedFusion, &Paper.OptOverBase},
      {"Basic Fusion over Baseline", Variant::Baseline,
       Variant::BasicFusion, &Paper.BasicOverBase},
      {"Optimized Fusion over Basic Fusion", Variant::BasicFusion,
       Variant::OptimizedFusion, &Paper.OptOverBasic},
  };

  for (const Comparison &Cmp : Comparisons) {
    std::printf("\n-- %s --\n", Cmp.Title);
    std::vector<std::string> Header{"device"};
    for (const AppVariants &App : Apps)
      Header.push_back(App.Name);
    TablePrinter Table(Header);
    if (Measure) {
      std::vector<std::string> Row{"host"};
      for (const AppVariants &App : Apps) {
        double Slow = HostMs[App.Name][variantName(Cmp.Num)];
        double Fast = HostMs[App.Name][variantName(Cmp.Den)];
        // No host GPU to compare against; print the paper's K20c
        // column for context.
        double Published = Cmp.Published->at("K20c").at(App.Name);
        Row.push_back(formatDouble(Slow / Fast, 3) + " (" +
                      formatDouble(Published, 3) + ")");
      }
      Table.addRow(Row);
    } else {
      for (const DeviceSpec &Device : DeviceSpec::paperDevices()) {
        std::vector<std::string> Row{Device.Name};
        for (const AppVariants &App : Apps) {
          double Slow =
              variantRunStats(App, Cmp.Num, Device, Params, Runs).Median;
          double Fast =
              variantRunStats(App, Cmp.Den, Device, Params, Runs).Median;
          double Published =
              Cmp.Published->at(Device.Name).at(App.Name);
          Row.push_back(formatDouble(Slow / Fast, 3) + " (" +
                        formatDouble(Published, 3) + ")");
        }
        Table.addRow(Row);
      }
    }
    std::fputs(Table.render().c_str(), stdout);
  }

  std::printf("\nShape checks (the claims the reproduction preserves):\n"
              "  * every optimized-over-baseline >= 1, largest on "
              "Unsharp;\n"
              "  * basic fails on Sobel and Unsharp (ratio ~1.0) but "
              "helps Enhancement;\n"
              "  * Night stays ~1.0 everywhere (compute-bound);\n"
              "  * optimized >= basic for every cell.\n");
  return 0;
}
