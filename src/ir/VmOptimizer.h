//===- ir/VmOptimizer.h - Fact-gated bytecode optimizer ---------*- C++ -*-===//
///
/// \file
/// A bytecode-to-bytecode rewriter over staged VM programs, gated on the
/// per-register value facts the interval abstract interpreter
/// (analysis/IntervalAnalysis.h) proves. Every rewrite is required to be
/// **bit-identical** on every pixel the original program could evaluate
/// -- interior, halo, index-exchanged exterior, and overlapped-tiling
/// plane cells alike -- because the differential test suites compare
/// optimized session plans against the unoptimized reference paths at
/// full float precision.
///
/// The passes, in order per stage: copy propagation (decided Min/Max/
/// Select, and `x + 0` with x proven never -0, collapse to operand
/// renames), constant folding (exactly, with the same std:: float
/// operations the interpreter executes, or from a fact that pins the
/// result to one value -- a zero only with the NoNegZero proof; never
/// to a non-finite constant, which would trip KF-B09 and the JIT gate),
/// common-subexpression elimination (including StageCall sites, which
/// deduplicates whole recursive recomputes), a backward dead-instruction
/// sweep from the stage result, dead-stage removal from the launch root,
/// and register-frame compaction. The result is re-validated through
/// BytecodeValidator (KF-B01..B11) by the caller before it may replace
/// the original program.
///
/// The interval domain (RegInterval) lives here rather than in
/// src/analysis because the rewriter consumes the facts and kf_analysis
/// already links against kf_ir, not the other way around.
///
//===----------------------------------------------------------------------===//

#ifndef KF_IR_VMOPTIMIZER_H
#define KF_IR_VMOPTIMIZER_H

#include "ir/ExprVM.h"

#include <cmath>
#include <string>
#include <vector>

namespace kf {

/// The abstract value of one register: the closed float interval
/// [Lo, Hi] of its possible non-NaN outcomes (endpoints may be +-inf),
/// plus whether NaN is a possible outcome. The empty numeric range --
/// "no non-NaN outcome exists" -- is the sentinel Lo = +inf, Hi = -inf;
/// an always-NaN value is that sentinel with MayNaN set. Lo and Hi are
/// themselves never NaN.
///
/// Float comparison cannot tell -0 from +0, so a zero endpoint says
/// nothing about the sign of a zero outcome. NoNegZero is the separate
/// proof that -0.0f is never an outcome; it defaults to false
/// ("unproven"), so an interval built without it stays sound.
struct RegInterval {
  float Lo = INFINITY;  ///< Sentinel pair: the default-constructed
  float Hi = -INFINITY; ///< interval is bottom (no value possible).
  bool MayNaN = false;
  bool NoNegZero = false; ///< Proven: no outcome is -0.0f.

  /// Top: any float including NaN.
  static RegInterval full() {
    RegInterval R;
    R.Lo = -INFINITY;
    R.Hi = INFINITY;
    R.MayNaN = true;
    return R;
  }

  /// The singleton {V}; a NaN \p V maps to the always-NaN element.
  /// The zero sign is exact here: point(+0) proves NoNegZero, point(-0)
  /// does not.
  static RegInterval point(float V) {
    RegInterval R;
    if (std::isnan(V)) {
      R.MayNaN = true;
    } else {
      R.Lo = V;
      R.Hi = V;
    }
    R.NoNegZero = !isNegZero(V);
    return R;
  }

  static RegInterval range(float LoIn, float HiIn, bool MayNaNIn = false) {
    RegInterval R;
    R.Lo = LoIn;
    R.Hi = HiIn;
    R.MayNaN = MayNaNIn;
    return R;
  }

  /// No non-NaN outcome (with MayNaN: the value is always NaN; without:
  /// bottom -- the register can hold no value at all).
  bool numericEmpty() const { return !(Lo <= Hi); }

  /// Bottom: the register was never written (or the fact is absent).
  bool bottom() const { return numericEmpty() && !MayNaN; }

  /// Whether the numeric range admits zero (either sign).
  bool containsZero() const { return Lo <= 0.0f && 0.0f <= Hi; }

  /// Whether -0.0f is provably not an outcome: by proof, or because the
  /// numeric range excludes zero altogether.
  bool neverNegZero() const { return NoNegZero || !containsZero(); }

  /// The one non-NaN value every outcome equals bit for bit, if the
  /// interval pins one: a finite point without NaN, and for a zero
  /// point only with NoNegZero (the result is then +0.0f).
  bool pinnedValue(float &V) const {
    if (MayNaN || Lo != Hi || !std::isfinite(Lo))
      return false;
    if (Lo == 0.0f) {
      if (!NoNegZero)
        return false;
      V = 0.0f; // Lo may carry either zero sign; the proof says +0.
      return true;
    }
    V = Lo;
    return true;
  }

  static bool isNegZero(float V) { return V == 0.0f && std::signbit(V); }

  bool mayPosInf() const { return Hi == INFINITY && !numericEmpty(); }
  bool mayNegInf() const { return Lo == -INFINITY && !numericEmpty(); }
  bool mayInf() const { return mayPosInf() || mayNegInf(); }

  /// Soundness predicate the property suite asserts: every concretely
  /// observed value must satisfy this.
  bool contains(float V) const {
    if (std::isnan(V))
      return MayNaN;
    if (NoNegZero && isNegZero(V))
      return false;
    return Lo <= V && V <= Hi;
  }

  /// Least upper bound. Bottom is the identity: its neverNegZero() holds
  /// vacuously.
  void join(const RegInterval &O) {
    NoNegZero = neverNegZero() && O.neverNegZero();
    Lo = std::min(Lo, O.Lo);
    Hi = std::max(Hi, O.Hi);
    MayNaN = MayNaN || O.MayNaN;
  }

  /// Folds one concrete outcome into the interval. The transfer
  /// functions use this to build hulls from corner values, so it never
  /// proves NoNegZero (the hull's interior holds values no corner shows);
  /// it only withdraws the proof when \p V is -0.
  void joinValue(float V) {
    if (std::isnan(V)) {
      MayNaN = true;
      return;
    }
    if (isNegZero(V))
      NoNegZero = false;
    Lo = std::min(Lo, V);
    Hi = std::max(Hi, V);
  }
};

/// Renders \p R for the kfc --analyze interval table: "[lo, hi]",
/// "[lo, hi] | nan", "always-nan", or "unwritten".
std::string formatInterval(const RegInterval &R);

/// Whether \p Op reads the A (resp. B) register operand. Const, CoordX/Y,
/// Load and StageCall read no registers; only the binary arithmetic ops,
/// the comparisons and Select read B. (Select additionally reads the Sel
/// register; StageCall's Sel is a stage index, not a register.)
bool vmOpReadsA(VmOp Op);
bool vmOpReadsB(VmOp Op);

/// The exported facts of one stage of a staged program: one interval per
/// frame-relative register (bottom for registers the stage never
/// writes), plus the stage's result interval. Intervals are
/// position-independent -- they cover every pixel, border mode, and
/// execution path -- which is what lets the property suite check final
/// register states without tracking where each value was computed.
struct StageValueFacts {
  std::vector<RegInterval> Regs;
  RegInterval Result;
};

/// How a fact decides a Min/Max/Select/Add instruction. TakeA/TakeB assert
/// that replacing the instruction with a copy of the named operand is
/// bit-identical for every value the operands can hold, including NaN
/// propagation and signed-zero ordering under the exact
/// std::min/std::max/!= semantics the interpreter executes.
enum class ClampDecision : uint8_t { Keep, TakeA, TakeB };

/// Decision for `Dst = std::min(A, B)` (= B < A ? B : A).
ClampDecision decideMin(const RegInterval &A, const RegInterval &B);

/// Decision for `Dst = std::max(A, B)` (= A < B ? B : A).
ClampDecision decideMax(const RegInterval &A, const RegInterval &B);

/// Decision for `Dst = A + B`: TakeA when B is always a zero (of either
/// sign) and A is never -0, TakeB symmetrically.
ClampDecision decideAdd(const RegInterval &A, const RegInterval &B);

/// Decision for `Dst = Sel != 0 ? A : B`, from the condition interval
/// (NaN compares unequal to zero, so an always-NaN condition takes A).
ClampDecision decideSelect(const RegInterval &Sel);

/// Counters of one optimizeStagedProgram run.
struct VmOptStats {
  unsigned FoldedConsts = 0;   ///< All-constant ALU instructions folded.
  unsigned PinnedConsts = 0;   ///< ALU results facts pin to one value.
  unsigned AddZeroRemoved = 0; ///< `x + 0` collapsed to x.
  unsigned ClampsRemoved = 0;  ///< Min/Max decided to one operand.
  unsigned SelectsDecided = 0; ///< Selects decided to one arm.
  unsigned CseReplaced = 0;    ///< Instructions removed as duplicates.
  unsigned RemovedStages = 0;  ///< Stages unreachable from the root.
  unsigned OriginalInsts = 0;  ///< Total instructions before.
  unsigned OptimizedInsts = 0; ///< Total instructions after.

  unsigned removedInsts() const {
    return OriginalInsts >= OptimizedInsts ? OriginalInsts - OptimizedInsts
                                           : 0;
  }
};

/// Rewrites \p SP in place using per-stage \p Facts (one StageValueFacts
/// per stage, Regs sized to the stage frame), rebasing \p Root if dead
/// stages are dropped. Returns true when anything changed. The rewritten
/// program preserves every KF-B invariant the input satisfied (the
/// caller re-validates regardless) and recomputes Reach[]; a shrunk
/// reach only widens the interior, never the footprint. Bails out
/// unchanged on streams that are not in the single-assignment form the
/// bytecode compiler emits.
bool optimizeStagedProgram(StagedVmProgram &SP, uint16_t &Root,
                           const std::vector<StageValueFacts> &Facts,
                           VmOptStats *Stats = nullptr);

} // namespace kf

#endif // KF_IR_VMOPTIMIZER_H
