//===- analysis/IntervalAnalysis.h - Interval abstract interp ---*- C++ -*-===//
///
/// \file
/// An abstract interpreter over staged VM programs in the interval
/// domain: each register's possible values are tracked as a closed float
/// interval with +-inf endpoints plus a may-be-NaN bit (RegInterval,
/// ir/VmOptimizer.h). The fused bytecode is straight-line -- no control
/// flow, every Select evaluates both arms -- so one pass per stage in
/// stage order is a sound fixpoint: KF-B05's strictly-backward-call
/// invariant means every StageCall's callee facts are final when the
/// caller is interpreted.
///
/// The derived facts are position-independent: they cover every
/// evaluation position (interior, halo, index-exchanged or raw exterior,
/// overlapped-tiling plane cells), every border mode, and every
/// execution engine, which is what makes them strong enough to gate the
/// bit-identical rewrites of ir/VmOptimizer.h.
///
/// Transfer functions exploit float monotonicity: + - * / min max sqrt
/// floor are evaluated at interval endpoints in float (rounding is
/// monotone, so the endpoint images bound every attainable value); exp,
/// log and pow are not correctly rounded on every libm, so their
/// endpoint images are widened outward by a couple of ULPs. NaN
/// production (inf - inf, 0 * inf, 0/0, inf/inf, sqrt/log of negatives,
/// pow of a negative base) is tracked explicitly. A per-stage value
/// numbering recognizes `x * x` even when the compiler duplicated the
/// whole subtree per reference, so discriminants like
/// (gx - gy)^2 + 4*gxy^2 prove nonnegative under sqrt.
///
/// Alongside the interval, each value carries the NoNegZero proof (no
/// outcome is -0.0f), which lets the optimizer fold a zero-valued result
/// to a +0 constant and drop an `x + 0`. Round-to-nearest decides it:
///   Exp, Log, Abs, CmpLT/GT, CoordX/Y, x*x   always
///   Const                  unless the immediate is -0
///   Add                    either operand never -0
///   Sub                    minuend never -0, or subtrahend never zero
///   Mul, Div               both operands >= 0 and never -0
///   Min, Max, Select       every operand that can be returned
///   Sqrt, Floor            inherited from the operand
///   Load, StageCall        the pool range / the callee's result
/// An interval excluding zero never holds -0 whatever the bit says.
/// Declared [0, 1] inputs stay unproven.
///
/// Value-quality findings are reported as KF-V diagnostics:
///   KF-V01  warning  possible division by zero
///   KF-V02  warning  Sqrt/Log of a possibly negative value
///   KF-V03  warning  Pow of a possibly negative base with a possibly
///                    non-integral exponent
///   KF-V04  warning  result is guaranteed NaN or infinite
///   KF-V05  note     Select condition statically decided
///   KF-V06  note     Min/Max clamp is a provable no-op
///
//===----------------------------------------------------------------------===//

#ifndef KF_ANALYSIS_INTERVALANALYSIS_H
#define KF_ANALYSIS_INTERVALANALYSIS_H

#include "ir/VmOptimizer.h"
#include "support/Diagnostics.h"

#include <vector>

namespace kf {

/// Declared value range of one pool image. The default is the [0, 1]
/// float plane of normalized image data -- the contract every session
/// input filler in the repo honors. Callers must override the entry of
/// every *produced* pool image a later launch loads (with the producing
/// launch's result interval); an image missing from the vector is
/// assumed to be a declared [0, 1] input. The contract admits -0.0f
/// (it compares equal to 0), so a declared input never proves
/// NoNegZero; a produced image carries its launch's proof.
struct InputRange {
  float Lo = 0.0f;
  float Hi = 1.0f;
  bool MayNaN = false;
  bool NoNegZero = false;

  RegInterval interval() const {
    RegInterval R = RegInterval::range(Lo, Hi, MayNaN);
    R.NoNegZero = NoNegZero;
    return R;
  }

  /// The range a launch whose result interval is \p R writes.
  static InputRange of(const RegInterval &R) {
    InputRange In;
    In.Lo = R.Lo;
    In.Hi = R.Hi;
    In.MayNaN = R.MayNaN;
    In.NoNegZero = R.NoNegZero;
    return In;
  }
};

/// The result of one interval interpretation: per-stage register facts
/// (indexed like SP.Stages; bottom for never-written registers) and the
/// root stage's result interval.
struct IntervalAnalysisResult {
  std::vector<StageValueFacts> Stages;
  RegInterval Result;
};

/// Interprets \p SP in the interval domain. \p PoolRanges is indexed by
/// ImageId (entries past its size default to the [0, 1] input contract).
/// When \p DE is given, KF-V01..V06 diagnostics are reported against
/// \p Loc with stage/instruction indices filled in; the facts themselves
/// are independent of \p Root (the whole program is interpreted
/// bottom-up), which only selects the exported Result.
IntervalAnalysisResult
analyzeStagedIntervals(const StagedVmProgram &SP, uint16_t Root,
                       const std::vector<InputRange> &PoolRanges = {},
                       DiagnosticEngine *DE = nullptr,
                       DiagLocation Loc = {});

} // namespace kf

#endif // KF_ANALYSIS_INTERVALANALYSIS_H
