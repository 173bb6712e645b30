//===- ir/Verifier.h - Structural validation of programs --------*- C++ -*-===//
///
/// \file
/// The one structural check of a Program, run before the fusion engine
/// sees it: image and mask references in range, single-producer images,
/// well-formed masks and kernel bodies, matching shapes and channels,
/// operator-kind / body consistency (point kernels must not contain
/// window accesses), positive granularity, and an acyclic kernel DAG.
/// Every violation is reported with a stable KF-P code into a
/// DiagnosticEngine and nothing aborts, so its callers choose the
/// policy: the parser folds the errors into its own (`verifier:` lines),
/// pipelines abort on the first (verifyProgramOrDie), and the analyzer's
/// lint pass (analysis/ProgramLint.h) adds its warnings on top.
///
/// Codes: KF-P01..KF-P08, KF-P12 (docs/ANALYSIS.md).
///
//===----------------------------------------------------------------------===//

#ifndef KF_IR_VERIFIER_H
#define KF_IR_VERIFIER_H

#include "ir/Program.h"
#include "support/Diagnostics.h"

#include <vector>

namespace kf {

/// Reports every structural violation of \p P into \p DE as an error.
/// Returns false when an image id is out of range: the checks that index
/// images were skipped, and no caller may index images by \p P's ids.
/// \p WindowedInputs, when given, receives per kernel and per input
/// whether the body reads that input through a stencil window or a
/// non-zero offset (the access has a halo).
bool verifyProgram(const Program &P, DiagnosticEngine &DE,
                   std::vector<std::vector<bool>> *WindowedInputs = nullptr);

/// Aborts with the first error when \p P is invalid. Pipelines call this
/// after construction.
void verifyProgramOrDie(const Program &P);

} // namespace kf

#endif // KF_IR_VERIFIER_H
