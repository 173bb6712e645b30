//===- ledger/Workloads.h - The two ledger workloads ------------*- C++ -*-===//
///
/// \file
/// Each workload builds its inputs from the run's seed, sets up several
/// times (setup_s is the median), measures for the requested seconds and
/// checks its outputs against the AST interpreter. Untraced runs measure
/// in RunParts parts and report the end-to-end metrics (reportParts);
/// traced runs measure half the time untraced and half traced, and report
/// the per-layer metrics plus the difference (trace.overhead_frac).
/// ledger/README.md describes each workload.
///
//===----------------------------------------------------------------------===//

#ifndef KF_LEDGER_WORKLOADS_H
#define KF_LEDGER_WORKLOADS_H

#include "Measure.h"

namespace ledger {

void runServeMixed(const RunOptions &Options, Report &R);
void runCompileChurn(const RunOptions &Options, Report &R);

} // namespace ledger

#endif // KF_LEDGER_WORKLOADS_H
