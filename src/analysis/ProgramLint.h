//===- analysis/ProgramLint.h - Program verifier plus lint -----*- C++ -*-===//
///
/// \file
/// Pass 1 of the static analyzer: the structural program verifier
/// (ir/Verifier.h, KF-P01..P08/P12 errors) plus three lint warnings the
/// verifier's callers do not want -- dead kernels, unused images, and
/// border-mode conflicts across fusible edges (the Section IV-B
/// index-exchange method applies the *consumer's* border handling to
/// eliminated intermediates, so a window edge between kernels with
/// different modes cannot be fused; the fusion legality check rejects it
/// and this pass warns ahead of time). Every finding is reported and
/// nothing aborts, so `kfc --analyze` can show a DSL user the complete
/// picture of a malformed .kfp file.
///
/// Codes: KF-P01..KF-P12 (docs/ANALYSIS.md).
///
//===----------------------------------------------------------------------===//

#ifndef KF_ANALYSIS_PROGRAMLINT_H
#define KF_ANALYSIS_PROGRAMLINT_H

#include "ir/Program.h"
#include "support/Diagnostics.h"

namespace kf {

/// Runs verifyProgram and the lint checks over \p P, reporting into \p DE.
/// Structural violations are errors; lint findings (dead kernels, unused
/// images, unfusable border-mode edges) are warnings.
void lintProgram(const Program &P, DiagnosticEngine &DE);

} // namespace kf

#endif // KF_ANALYSIS_PROGRAMLINT_H
