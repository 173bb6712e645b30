//===- analysis/Analyzer.h - Static-analysis driver -------------*- C++ -*-===//
///
/// \file
/// The driver tying the three analysis passes together (see
/// docs/ANALYSIS.md):
///
///   1. lintProgram          program/IR verifier + lint    (KF-P##)
///   2. checkLaunchFootprint static footprint/halo checker (KF-F##)
///   3. validateStagedProgram fused-bytecode validator     (KF-B##)
///
/// analyzeLaunch runs passes 2 and 3 over one compiled fused launch --
/// the (staged program, root, halo) triple exactly as the executor will
/// run it, against the plan's image table. checkFusedLegality re-checks
/// every multi-stage partition block against the fusion legality rules
/// (Figure 2 scenarios, Eq. 2 shared-memory constraint), catching
/// partitioners that bypassed or disagreed with fusion/Legality (KF-F05).
///
/// Analysis cost is observable: each entry point opens a Trace span and
/// bumps the "analysis.*" counters when tracing is enabled.
///
//===----------------------------------------------------------------------===//

#ifndef KF_ANALYSIS_ANALYZER_H
#define KF_ANALYSIS_ANALYZER_H

#include "analysis/BytecodeValidator.h"
#include "analysis/FootprintCheck.h"
#include "analysis/ProgramLint.h"
#include "fusion/Legality.h"
#include "support/Diagnostics.h"
#include "transform/FusedKernel.h"

namespace kf {

/// Runs the bytecode validator and the footprint checker over one
/// compiled launch of \p FK. \p Name labels diagnostics (fused kernel
/// name); \p PoolShapes is the image table the launch executes over.
void analyzeLaunch(const Program &P, const FusedKernel &FK,
                   const std::string &Name, const StagedVmProgram &SP,
                   uint16_t Root, int Halo,
                   const std::vector<ImageInfo> &PoolShapes,
                   DiagnosticEngine &DE);

/// Re-checks every multi-stage block of \p FP against the legality rules
/// under \p HW / \p Options; violations (including the Eq. 2 shared-
/// memory constraint) are reported as KF-F05 errors.
void checkFusedLegality(const FusedProgram &FP, const HardwareModel &HW,
                        const LegalityOptions &Options,
                        DiagnosticEngine &DE);

} // namespace kf

#endif // KF_ANALYSIS_ANALYZER_H
