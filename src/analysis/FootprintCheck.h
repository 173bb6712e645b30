//===- analysis/FootprintCheck.h - Static footprint/halo checks -*- C++ -*-===//
///
/// \file
/// The static footprint/halo checker -- the analyzer's second pass. The
/// fused executor splits every launch into an interior (border checks
/// statically impossible, row-wise fast path) and a halo rim (bordered,
/// index-exchanged slow path); the split parameter is the launch halo
/// derived from the staged program's Reach metadata. A halo that is too
/// small turns border pixels into out-of-bounds reads -- silently, since
/// the interior path does no checking.
///
/// This pass re-derives the footprint twice, independently of what
/// compileFusedKernel recorded:
///
///   1. from the *bytecode*: the transitive maximum access offset of each
///      stage through loads and stage calls (what the emitted code can
///      actually touch), and
///   2. from the *IR*: each stage's window halo grown by its eliminated
///      in-block producers -- the Eq. 9 mask-growth arithmetic of the
///      paper, the same recurrence fusion/Legality uses for Eq. 2.
///
/// It then proves, per launch: the bytecode never reaches farther than the
/// source IR allows (KF-F02, a miscompile otherwise), the recorded Reach
/// metadata covers the bytecode (KF-F03), the interior/halo split covers
/// every access of the fused stage chain (KF-F01), and the uniform-extent
/// flag that legitimizes the interior is honest (KF-F04).
///
//===----------------------------------------------------------------------===//

#ifndef KF_ANALYSIS_FOOTPRINTCHECK_H
#define KF_ANALYSIS_FOOTPRINTCHECK_H

#include "ir/ExprVM.h"
#include "support/Diagnostics.h"
#include "transform/FusedKernel.h"

namespace kf {

/// Per-stage transitive access reach recomputed from the bytecode alone
/// (load offsets, plus stage-call offsets grown by the callee's reach).
/// Invalid (non-preceding) stage-call targets contribute nothing; the
/// bytecode validator reports those.
std::vector<int> computeBytecodeReach(const StagedVmProgram &SP);

/// Per-stage reach derived from the source IR of fused kernel \p FK: the
/// stage's own input halos, grown through eliminated in-block producers
/// (Eq. 9 generalized to rectangular halos via the max extent). Stage
/// order matches FK.Stages.
std::vector<int> computeIrReach(const Program &P, const FusedKernel &FK);

/// Checks one compiled launch of \p FK: \p SP/\p Root/\p Halo as the
/// executor will run them, \p PoolShapes the plan's image table. Reports
/// KF-F01..KF-F04 into \p DE.
void checkLaunchFootprint(const Program &P, const FusedKernel &FK,
                          const StagedVmProgram &SP, uint16_t Root,
                          int Halo, const std::vector<ImageInfo> &PoolShapes,
                          DiagnosticEngine &DE, DiagLocation Loc = {});

/// Proves the overlapped tiling strategy safe for this launch: every
/// scratch plane's margin (recomputed from the bytecode's stage-call
/// offsets, the walk buildOverlapSchedule performs collapsed over
/// channels, so it bounds every (stage, channel) plane of the schedule)
/// plus the plane stage's direct load halo must stay within
/// the launch halo -- the interior rectangle overlapped tiles run on is
/// inset by exactly \p Halo, so a violating stage would read out of
/// bounds from inside a grown tile. Reports KF-F06. Skipped for mixed
/// extents (overlapped execution falls back to interior/halo there).
void checkOverlapCoverage(const StagedVmProgram &SP, uint16_t Root,
                          int Halo, DiagnosticEngine &DE,
                          DiagLocation Loc = {});

} // namespace kf

#endif // KF_ANALYSIS_FOOTPRINTCHECK_H
