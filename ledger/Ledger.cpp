//===- ledger/Ledger.cpp - The perf ledger benchmark program --------------===//
//
// Usage:
//   kf_ledger --workload serve_mixed|compile_churn
//             --seed N --seconds S --trace 0|1 [--revision TEXT]
//
// Prints one metadata line ({"ledger": {...}}: environment stamp, sample
// counts, oracle mismatches) and, last, the result line with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exits non-zero on any
// failed operation or reference mismatch. ledger/README.md lists every
// metric; ledger/run.py builds this binary and runs it.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace ledger;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: kf_ledger --workload "
               "serve_mixed|compile_churn --seed N --seconds S "
               "--trace 0|1 [--revision TEXT]\n",
               Why);
  std::exit(2);
}

/// Per-layer metrics a workload may not exercise; each reads 0 there.
/// (The compile layers and exec.harris.* are reported by every workload.)
const char *const SometimesIdleLayers[] = {
    "exec.harris.frame_ms",      "exec.harris.roofline_frac",
    "exec.sobel.frame_ms",       "exec.sobel.roofline_frac",
    "exec.unsharp.frame_ms",     "exec.unsharp.roofline_frac",
    "exec.shitomasi.frame_ms",   "exec.shitomasi.roofline_frac",
    "exec.enhance.frame_ms",     "exec.enhance.roofline_frac",
    "exec.night.frame_ms",       "exec.night.roofline_frac",
    "session.fill_ms",           "framepool.reuse_frac",
    "server.queue_wait_p50_ms",  "server.queue_wait_p95_ms",
    "server.exec_p50_ms",        "server.submit_block_ms",
    "server.late_frac",          "server.t0-harris.p50_ms",
    "server.t1-sobel.p50_ms",    "server.t2-unsharp.p50_ms",
    "server.t3-shitomasi.p50_ms", "server.t4-enhance.p50_ms",
    "server.t5-night.p50_ms",    "server.t6-harris.p50_ms",
    "server.t7-sobel.p50_ms",    "loadgen.lag_p99_ms"};

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opt;
  std::string Revision = "unknown";
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Arg).c_str());
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Opt.Workload = Value;
    } else if (Arg == "--seed") {
      Opt.Seed = std::strtoull(Value, &End, 10);
      HaveSeed = *Value != '\0' && *End == '\0';
    } else if (Arg == "--seconds") {
      Opt.Seconds = std::strtod(Value, &End);
      if (*End != '\0' || !(Opt.Seconds > 0.0))
        usage("--seconds must be a positive number");
    } else if (Arg == "--trace") {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        usage("--trace must be 0 or 1");
      Opt.Trace = Value[0] == '1';
    } else if (Arg == "--revision") {
      Revision = Value;
    } else {
      usage(("unknown option " + Arg).c_str());
    }
  }
  if (!HaveSeed)
    usage("--seed N is required");

  // The ledger measures defaults: any execution knob in the environment
  // would silently change what is measured.
  for (const char *Knob : {"KF_VM", "KF_TILING", "KF_OPT", "KF_TILE",
                           "KF_THREADS"})
    if (std::getenv(Knob)) {
      std::fprintf(stderr,
                   "error: %s is set; the ledger measures the defaults, so "
                   "unset every KF_* knob (KF_VM, KF_TILING, KF_OPT, KF_TILE, "
                   "KF_THREADS) and run again\n",
                   Knob);
      return 2;
    }

  Report R;
  R.metaString("workload", Opt.Workload);
  R.meta("seed", std::to_string(Opt.Seed));
  R.meta("seconds", std::to_string(Opt.Seconds));
  R.meta("trace", Opt.Trace ? "true" : "false");
  R.metaString("revision", Revision);
  R.meta("env", environmentJson());
  if (Opt.Workload == "serve_mixed")
    runServeMixed(Opt, R);
  else if (Opt.Workload == "compile_churn")
    runCompileChurn(Opt, R);
  else
    usage("--workload must be serve_mixed or compile_churn");

  if (Opt.Trace) {
    std::string Idle = "[";
    for (const char *Name : SometimesIdleLayers)
      if (!R.has(Name)) {
        R.metric(Name, 0.0, std::string(Name).ends_with("_ms") ? "ms" : "frac");
        Idle += std::string(Idle.size() > 1 ? ", " : "") + "\"" + Name + "\"";
      }
    R.meta("not_exercised", Idle + "]");
  }
  R.print();
  return R.correct() && R.attempted() > 0 ? 0 : 1;
}
