//===- analysis/IntervalAnalysis.cpp ------------------------------------------===//

#include "analysis/IntervalAnalysis.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>

using namespace kf;

namespace {

/// Two-ULP outward widening for transfer functions whose libm
/// implementation is not guaranteed correctly rounded (exp, log, pow).
/// Infinities are fixed points in both directions: an exact infinite
/// bound is already attained (e.g. log(0) = -inf), so widening it
/// inward-toward-finite would only lose the guaranteed-non-finite fact.
float widenDown(float V) {
  if (!std::isfinite(V))
    return V;
  return std::nextafterf(std::nextafterf(V, -INFINITY), -INFINITY);
}

float widenUp(float V) {
  if (!std::isfinite(V))
    return V;
  return std::nextafterf(std::nextafterf(V, INFINITY), INFINITY);
}

/// Whether every outcome of \p R is NaN or infinite -- the KF-V04
/// condition, and the cascade guard that keeps one poisoned operand from
/// flagging its entire use chain.
bool guaranteedBad(const RegInterval &R) {
  if (R.numericEmpty())
    return R.MayNaN; // always-NaN (bottom is not "bad", just absent)
  return (R.Lo == INFINITY && R.Hi == INFINITY) ||
         (R.Lo == -INFINITY && R.Hi == -INFINITY);
}

RegInterval transferAdd(const RegInterval &A, const RegInterval &B,
                        bool Subtract) {
  RegInterval R;
  R.MayNaN = A.MayNaN || B.MayNaN;
  // Under round-to-nearest a sum is -0 only when both addends are -0,
  // and a - b is -0 only when a is -0 and b is +0.
  R.NoNegZero = A.neverNegZero() ||
                (Subtract ? !B.containsZero() : B.neverNegZero());
  if (A.numericEmpty() || B.numericEmpty())
    return R; // a NaN operand propagates; no numeric outcome
  // fl(+) is monotone in both arguments, so the four float corner sums
  // bound every attainable value; a NaN corner (inf + -inf) can only
  // involve endpoint infinities, so corners also find every NaN case.
  const float BL = Subtract ? -B.Hi : B.Lo;
  const float BH = Subtract ? -B.Lo : B.Hi;
  const float Corners[4] = {A.Lo + BL, A.Lo + BH, A.Hi + BL, A.Hi + BH};
  for (float V : Corners)
    R.joinValue(V);
  return R;
}

/// Whether a product or quotient of \p A and \p B has a clear sign bit:
/// both operands are >= 0 and never -0.
bool nonNegativeSigns(const RegInterval &A, const RegInterval &B) {
  return A.Lo >= 0.0f && B.Lo >= 0.0f && A.neverNegZero() &&
         B.neverNegZero();
}

RegInterval transferMul(const RegInterval &A, const RegInterval &B) {
  RegInterval R;
  R.MayNaN = A.MayNaN || B.MayNaN;
  R.NoNegZero = nonNegativeSigns(A, B);
  if (A.numericEmpty() || B.numericEmpty())
    return R;
  const float Corners[4] = {A.Lo * B.Lo, A.Lo * B.Hi, A.Hi * B.Lo,
                            A.Hi * B.Hi};
  for (float V : Corners)
    R.joinValue(V);
  // 0 * inf is NaN and the zero need not sit at a corner (an interval
  // straddling zero has it strictly inside), so corner scanning alone
  // would miss it.
  if ((A.containsZero() && B.mayInf()) || (B.containsZero() && A.mayInf()))
    R.MayNaN = true;
  return R;
}

/// x * x when both operands are the same value number: the plain product
/// transfer loses the correlation and reports [lo*hi, ...] < 0 for a
/// sign-straddling x, while the square is provably nonnegative.
RegInterval transferSquare(const RegInterval &A) {
  RegInterval R;
  R.MayNaN = A.MayNaN;
  R.NoNegZero = true; // the operand signs are equal, so the product's is +
  if (A.numericEmpty())
    return R;
  const float LL = A.Lo * A.Lo;
  const float HH = A.Hi * A.Hi;
  R.Lo = A.containsZero() ? 0.0f : std::min(LL, HH);
  R.Hi = std::max(LL, HH);
  return R; // a*a with numeric a is never NaN (inf*inf = inf)
}

RegInterval transferDiv(const RegInterval &A, const RegInterval &B) {
  RegInterval R;
  R.MayNaN = A.MayNaN || B.MayNaN;
  R.NoNegZero = nonNegativeSigns(A, B);
  if (A.numericEmpty() || B.numericEmpty())
    return R;
  if (B.containsZero()) {
    // x/0 is +-inf for x != 0; the numeric range collapses to top.
    R.Lo = -INFINITY;
    R.Hi = INFINITY;
    if (A.containsZero())
      R.MayNaN = true; // 0/0
    if (A.mayInf())
      R.MayNaN = true; // inf/inf against an inf divisor is caught below,
                       // but inf/0 is fine; only inf/inf needs B.mayInf
  }
  if (A.mayInf() && B.mayInf())
    R.MayNaN = true; // inf/inf
  if (!B.containsZero()) {
    // A divisor interval excluding zero has one sign, so a/b is monotone
    // in each argument and float corner quotients are exact bounds.
    const float Corners[4] = {A.Lo / B.Lo, A.Lo / B.Hi, A.Hi / B.Lo,
                              A.Hi / B.Hi};
    for (float V : Corners)
      R.joinValue(V);
  }
  return R;
}

RegInterval transferMin(const RegInterval &A, const RegInterval &B) {
  // std::min returns its first operand unless B < A strictly, so a NaN
  // B yields A (numeric) and a NaN A yields NaN.
  RegInterval R;
  R.MayNaN = A.MayNaN;
  R.NoNegZero = A.neverNegZero() && B.neverNegZero(); // returns A or B
  if (A.numericEmpty())
    return R;
  if (!B.numericEmpty()) {
    R.joinValue(std::min(A.Lo, B.Lo));
    R.joinValue(std::min(A.Hi, B.Hi));
  }
  if (B.MayNaN || B.numericEmpty()) {
    R.joinValue(A.Lo); // min(a, NaN) == a
    R.joinValue(A.Hi);
  }
  return R;
}

RegInterval transferMax(const RegInterval &A, const RegInterval &B) {
  RegInterval R;
  R.MayNaN = A.MayNaN;
  R.NoNegZero = A.neverNegZero() && B.neverNegZero();
  if (A.numericEmpty())
    return R;
  if (!B.numericEmpty()) {
    R.joinValue(std::max(A.Lo, B.Lo));
    R.joinValue(std::max(A.Hi, B.Hi));
  }
  if (B.MayNaN || B.numericEmpty()) {
    R.joinValue(A.Lo);
    R.joinValue(A.Hi);
  }
  return R;
}

/// Whether the exponent interval is pinned to one finite integral value
/// (pow of a negative base is well-defined exactly then). A zero value
/// is excluded: [−0, +0] endpoints compare equal yet pow treats the
/// exponent signs identically (pow(x, +-0) == 1), so zero is fine too --
/// but the base-zero case is what the caller must keep out.
bool constIntegralExponent(const RegInterval &B) {
  return !B.MayNaN && !B.numericEmpty() && B.Lo == B.Hi &&
         std::isfinite(B.Lo) && std::floor(B.Lo) == B.Lo;
}

RegInterval transferPow(const RegInterval &A, const RegInterval &B) {
  RegInterval R;
  R.MayNaN = A.MayNaN || B.MayNaN;
  if (A.numericEmpty() || B.numericEmpty())
    return R;
  if (A.Lo == A.Hi && B.Lo == B.Hi && A.Lo != 0.0f) {
    // Both pinned (base nonzero: [-0,+0] endpoints compare equal but
    // pow(-0, -1) and pow(+0, -1) differ in sign of infinity).
    const float V = std::pow(A.Lo, B.Lo);
    if (std::isnan(V)) {
      R.MayNaN = true;
      return R;
    }
    R.Lo = widenDown(V);
    R.Hi = widenUp(V);
    return R;
  }
  if (A.Lo >= 0.0f) {
    // Nonnegative base: pow never produces NaN (pow(0,0), pow(inf,0)
    // and pow(1, +-inf) are all 1) and the result is nonnegative.
    R.Lo = 0.0f;
    R.Hi = INFINITY;
    return R;
  }
  if (constIntegralExponent(B)) {
    // Negative base, integral exponent: defined, any sign, no NaN.
    R.Lo = -INFINITY;
    R.Hi = INFINITY;
    return R;
  }
  return RegInterval::full();
}

RegInterval transferSqrt(const RegInterval &A) {
  RegInterval R;
  R.MayNaN = A.MayNaN || A.Lo < 0.0f;
  R.NoNegZero = A.neverNegZero(); // sqrt(-0) is -0
  if (A.numericEmpty() || A.Hi < 0.0f) {
    R.MayNaN = R.MayNaN || !A.numericEmpty();
    return R;
  }
  // IEEE sqrt is correctly rounded: endpoint images are exact bounds.
  R.Lo = std::sqrt(std::max(A.Lo, 0.0f));
  R.Hi = std::sqrt(A.Hi);
  return R;
}

RegInterval transferExp(const RegInterval &A) {
  RegInterval R;
  R.MayNaN = A.MayNaN;
  R.NoNegZero = true; // exp underflows to +0
  if (A.numericEmpty())
    return R;
  R.Lo = std::max(0.0f, widenDown(std::exp(A.Lo)));
  R.Hi = widenUp(std::exp(A.Hi));
  return R;
}

RegInterval transferLog(const RegInterval &A) {
  RegInterval R;
  R.MayNaN = A.MayNaN || A.Lo < 0.0f;
  R.NoNegZero = true; // log(1) is +0
  if (A.numericEmpty() || A.Hi < 0.0f) {
    R.MayNaN = R.MayNaN || !A.numericEmpty();
    return R;
  }
  // log(+-0) is -inf (a pole, not NaN); only strictly negative inputs
  // produce NaN.
  R.Lo = widenDown(std::log(std::max(A.Lo, 0.0f)));
  R.Hi = widenUp(std::log(A.Hi));
  return R;
}

RegInterval transferNeg(const RegInterval &A) {
  RegInterval R;
  R.MayNaN = A.MayNaN;
  R.Lo = -A.Hi; // the empty sentinel negates onto itself
  R.Hi = -A.Lo;
  return R;
}

RegInterval transferAbs(const RegInterval &A) {
  RegInterval R;
  R.MayNaN = A.MayNaN;
  R.NoNegZero = true;
  if (A.numericEmpty())
    return R;
  const float AL = std::abs(A.Lo);
  const float AH = std::abs(A.Hi);
  R.Lo = A.containsZero() ? 0.0f : std::min(AL, AH);
  R.Hi = std::max(AL, AH);
  return R;
}

RegInterval transferFloor(const RegInterval &A) {
  RegInterval R;
  R.MayNaN = A.MayNaN;
  R.NoNegZero = A.neverNegZero(); // floor(-0) is -0; floor(-0.5) is -1
  R.Lo = std::floor(A.Lo); // exact and monotone; +-inf are fixed points,
  R.Hi = std::floor(A.Hi); // so the empty sentinel survives
  return R;
}

RegInterval transferCmp(const RegInterval &A, const RegInterval &B,
                        bool Greater) {
  if (A.bottom() || B.bottom())
    return RegInterval();
  RegInterval R;
  // A NaN on either side compares false (0); the empty sentinels make
  // the always-false endpoint tests hold vacuously.
  const bool Always0 = Greater ? A.Hi <= B.Lo : A.Lo >= B.Hi;
  const bool NoNaN = !A.MayNaN && !B.MayNaN && !A.numericEmpty() &&
                     !B.numericEmpty();
  const bool Always1 = NoNaN && (Greater ? A.Lo > B.Hi : A.Hi < B.Lo);
  if (Always0)
    return RegInterval::point(0.0f);
  if (Always1)
    return RegInterval::point(1.0f);
  R.Lo = 0.0f;
  R.Hi = 1.0f;
  R.NoNegZero = true; // the outcomes are +0 and 1
  return R;
}

/// Value-number key: (op, operand VNs, immediate bits, load/call
/// fields). Structurally identical subcomputations get one VN, which is
/// how `x * x` is recognized when the compiler duplicated the subtree.
using VnKey = std::tuple<uint8_t, unsigned, unsigned, unsigned, uint32_t,
                         int16_t, int16_t, int16_t, int16_t>;

} // namespace

IntervalAnalysisResult
kf::analyzeStagedIntervals(const StagedVmProgram &SP, uint16_t Root,
                           const std::vector<InputRange> &PoolRanges,
                           DiagnosticEngine *DE, DiagLocation Loc) {
  IntervalAnalysisResult Out;
  Out.Stages.resize(SP.Stages.size());
  if (SP.Stages.empty())
    return Out;

  // Conservative coordinate bounds: every evaluation position -- halo
  // pixels, index-exchanged or raw exterior stage-call positions, and
  // overlapped-tiling plane cells grown by the reach margin -- lies
  // within the largest stage extent padded by the largest reach.
  int MaxExtent = 1;
  for (const VmStage &Stage : SP.Stages)
    MaxExtent = std::max(MaxExtent, std::max(Stage.OutW, Stage.OutH));
  int MaxReach = 0;
  for (int R : SP.Reach)
    MaxReach = std::max(MaxReach, R);
  RegInterval CoordRange = RegInterval::range(
      static_cast<float>(-MaxReach),
      static_cast<float>(MaxExtent - 1 + MaxReach));
  CoordRange.NoNegZero = true; // integer coordinates convert to +0

  for (size_t SI = 0; SI != SP.Stages.size(); ++SI) {
    const VmStage &Stage = SP.Stages[SI];
    StageValueFacts &F = Out.Stages[SI];
    F.Regs.assign(Stage.Code.NumRegs, RegInterval());

    std::map<VnKey, unsigned> VnTable;
    std::vector<unsigned> Vn(Stage.Code.NumRegs, 0);
    unsigned NextVn = 1;

    auto regOk = [&](uint16_t R) { return R < Stage.Code.NumRegs; };
    auto fact = [&](uint16_t R) -> RegInterval {
      return regOk(R) ? F.Regs[R] : RegInterval::full();
    };

    for (size_t II = 0; II != Stage.Code.Insts.size(); ++II) {
      const VmInst &Inst = Stage.Code.Insts[II];
      if (!regOk(Inst.Dst))
        continue; // malformed stream; the validator owns that complaint
      const RegInterval A = vmOpReadsA(Inst.Op) ? fact(Inst.A)
                                                   : RegInterval();
      const RegInterval B = fact(Inst.B);
      RegInterval R;
      DiagLocation At = Loc;
      At.Stage = static_cast<int>(SI);
      At.Inst = static_cast<int>(II);

      switch (Inst.Op) {
      case VmOp::Const:
        R = RegInterval::point(Inst.Imm);
        break;
      case VmOp::CoordX:
      case VmOp::CoordY:
        R = CoordRange;
        break;
      case VmOp::Load: {
        if (Inst.InputIdx < 0 ||
            static_cast<size_t>(Inst.InputIdx) >= Stage.Inputs.size()) {
          R = RegInterval::full();
          break;
        }
        const ImageId Img = Stage.Inputs[Inst.InputIdx];
        R = Img < PoolRanges.size() ? PoolRanges[Img].interval()
                                    : InputRange().interval();
        // The bordered path of a constant-border stage can substitute
        // the border constant for any out-of-range access.
        if (Stage.Border == BorderMode::Constant)
          R.joinValue(Stage.BorderConstant);
        break;
      }
      case VmOp::StageCall:
        R = Inst.Sel < SI ? Out.Stages[Inst.Sel].Result
                          : RegInterval::full();
        break;
      case VmOp::Add:
        R = transferAdd(A, B, /*Subtract=*/false);
        break;
      case VmOp::Sub:
        R = transferAdd(A, B, /*Subtract=*/true);
        break;
      case VmOp::Mul:
        if (regOk(Inst.A) && regOk(Inst.B) && Vn[Inst.A] != 0 &&
            Vn[Inst.A] == Vn[Inst.B])
          R = transferSquare(A);
        else
          R = transferMul(A, B);
        break;
      case VmOp::Div:
        R = transferDiv(A, B);
        if (DE && B.containsZero())
          DE->warning("KF-V01",
                      "possible division by zero: divisor range " +
                          formatInterval(B) + " admits zero",
                      At,
                      "guard the divisor away from zero (e.g. "
                      "max(d, epsilon)) or declare a tighter input range");
        break;
      case VmOp::Min:
        R = transferMin(A, B);
        if (DE && decideMin(A, B) != ClampDecision::Keep)
          DE->note("KF-V06",
                   "min clamp is a provable no-op: operand ranges " +
                       formatInterval(A) + " and " + formatInterval(B) +
                       " decide it statically",
                   At, "the optimizer removes this instruction");
        break;
      case VmOp::Max:
        R = transferMax(A, B);
        if (DE && decideMax(A, B) != ClampDecision::Keep)
          DE->note("KF-V06",
                   "max clamp is a provable no-op: operand ranges " +
                       formatInterval(A) + " and " + formatInterval(B) +
                       " decide it statically",
                   At, "the optimizer removes this instruction");
        break;
      case VmOp::Pow:
        R = transferPow(A, B);
        if (DE && A.Lo < 0.0f && !constIntegralExponent(B))
          DE->warning("KF-V03",
                      "pow of a possibly negative base " +
                          formatInterval(A) +
                          " with a possibly non-integral exponent " +
                          formatInterval(B) + " can produce NaN",
                      At,
                      "clamp the base nonnegative or use an integral "
                      "constant exponent");
        break;
      case VmOp::CmpLT:
        R = transferCmp(A, B, /*Greater=*/false);
        break;
      case VmOp::CmpGT:
        R = transferCmp(A, B, /*Greater=*/true);
        break;
      case VmOp::Neg:
        R = transferNeg(A);
        break;
      case VmOp::Abs:
        R = transferAbs(A);
        break;
      case VmOp::Sqrt:
        R = transferSqrt(A);
        if (DE && A.Lo < 0.0f)
          DE->warning("KF-V02",
                      "sqrt of a possibly negative value " +
                          formatInterval(A) + " can produce NaN",
                      At, "clamp the argument with max(x, 0)");
        break;
      case VmOp::Exp:
        R = transferExp(A);
        break;
      case VmOp::Log:
        R = transferLog(A);
        if (DE && A.Lo < 0.0f)
          DE->warning("KF-V02",
                      "log of a possibly negative value " +
                          formatInterval(A) + " can produce NaN",
                      At, "clamp the argument with max(x, 0)");
        break;
      case VmOp::Floor:
        R = transferFloor(A);
        break;
      case VmOp::Select: {
        const RegInterval Sel = fact(Inst.Sel);
        const ClampDecision D = decideSelect(Sel);
        if (D == ClampDecision::TakeA)
          R = A;
        else if (D == ClampDecision::TakeB)
          R = B;
        else {
          R = A;
          R.join(B);
        }
        if (DE && D != ClampDecision::Keep)
          DE->note("KF-V05",
                   std::string("select condition ") + formatInterval(Sel) +
                       " is statically decided: the " +
                       (D == ClampDecision::TakeA ? "false" : "true") +
                       " arm is never taken",
                   At, "the optimizer folds this to the taken arm");
        break;
      }
      }

      // KF-V04: the instruction's own result is guaranteed NaN/inf while
      // none of its register operands already were -- cascades stay
      // silent so one poisoned value reports once, at its origin.
      if (DE && Inst.Op != VmOp::Const && Inst.Op != VmOp::Load &&
          Inst.Op != VmOp::StageCall && guaranteedBad(R)) {
        const bool OperandBad =
            (vmOpReadsA(Inst.Op) && guaranteedBad(A)) ||
            (vmOpReadsB(Inst.Op) && guaranteedBad(B)) ||
            (Inst.Op == VmOp::Select && guaranteedBad(fact(Inst.Sel)));
        if (!OperandBad)
          DE->warning("KF-V04",
                      "result is guaranteed non-finite: " +
                          formatInterval(R),
                      At,
                      "every pixel of this value is NaN or infinite; "
                      "check the expression or the declared input ranges");
      }

      F.Regs[Inst.Dst] = R;

      // Value number the defining instruction (operand VNs, not register
      // numbers, so re-materialized copies of a subtree unify).
      uint32_t ImmBits = 0;
      std::memcpy(&ImmBits, &Inst.Imm, sizeof(ImmBits));
      const unsigned VnA =
          vmOpReadsA(Inst.Op) && regOk(Inst.A) ? Vn[Inst.A] : 0;
      const unsigned VnB =
          vmOpReadsB(Inst.Op) && regOk(Inst.B) ? Vn[Inst.B] : 0;
      unsigned VnSel = 0;
      if (Inst.Op == VmOp::Select && regOk(Inst.Sel))
        VnSel = Vn[Inst.Sel];
      else if (Inst.Op == VmOp::StageCall)
        VnSel = Inst.Sel + 1; // stage index, already a stable identity
      const VnKey Key(static_cast<uint8_t>(Inst.Op), VnA, VnB, VnSel,
                      ImmBits, Inst.InputIdx, Inst.Ox, Inst.Oy,
                      Inst.Channel);
      auto It = VnTable.find(Key);
      if (It == VnTable.end())
        It = VnTable.emplace(Key, NextVn++).first;
      Vn[Inst.Dst] = It->second;
    }

    if (Stage.Code.ResultReg < F.Regs.size())
      F.Result = F.Regs[Stage.Code.ResultReg];
    else
      F.Result = RegInterval::full();
  }

  Out.Result = Root < Out.Stages.size() ? Out.Stages[Root].Result
                                        : RegInterval::full();
  return Out;
}
