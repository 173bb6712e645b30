//===- ir/VmOptimizer.cpp -----------------------------------------------------===//

#include "ir/VmOptimizer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <tuple>

using namespace kf;

std::string kf::formatInterval(const RegInterval &R) {
  if (R.bottom())
    return "unwritten";
  if (R.numericEmpty())
    return "always-nan";
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "[%g, %g]%s", static_cast<double>(R.Lo),
                static_cast<double>(R.Hi), R.MayNaN ? " | nan" : "");
  return Buf;
}

//===----------------------------------------------------------------------===//
// Rewrite decisions
//
// These must be exact under the interpreter's operator semantics:
//   std::min(a, b) = (b < a) ? b : a   -- returns a when either is NaN
//   std::max(a, b) = (a < b) ? b : a   -- returns a when either is NaN
//   select: cond != 0 ? a : b          -- NaN != 0 is true; -0 == 0
//   a + b, round to nearest            -- -0 + +0 is +0
// Note both min and max return the *first* operand on ties, so deciding
// "TakeA" never has to distinguish -0 from +0; deciding "TakeB" requires
// strict ordering and NaN-freedom on both sides.
//===----------------------------------------------------------------------===//

ClampDecision kf::decideMin(const RegInterval &A, const RegInterval &B) {
  if (A.bottom() || B.bottom())
    return ClampDecision::Keep;
  // min returns A unless B < A strictly: B always >= A numerically (the
  // empty-B sentinel Lo = +inf satisfies this vacuously, and NaN on
  // either side also returns A).
  if (B.Lo >= A.Hi || A.numericEmpty())
    return ClampDecision::TakeA;
  // min returns B only when B < A strictly for every pair, which NaN on
  // either side would break.
  if (B.Hi < A.Lo && !A.MayNaN && !B.MayNaN)
    return ClampDecision::TakeB;
  return ClampDecision::Keep;
}

ClampDecision kf::decideMax(const RegInterval &A, const RegInterval &B) {
  if (A.bottom() || B.bottom())
    return ClampDecision::Keep;
  if (B.Hi <= A.Lo || A.numericEmpty())
    return ClampDecision::TakeA;
  if (A.Hi < B.Lo && !A.MayNaN && !B.MayNaN)
    return ClampDecision::TakeB;
  return ClampDecision::Keep;
}

ClampDecision kf::decideAdd(const RegInterval &A, const RegInterval &B) {
  // x + -0 is x for every x, and x + +0 is x for every x but -0 (which
  // it turns into +0): a zero addend of either sign goes when the other
  // addend is never -0. A bottom fact proves nothing, though
  // neverNegZero() holds for it vacuously.
  if (A.bottom() || B.bottom())
    return ClampDecision::Keep;
  auto IsZero = [](const RegInterval &R) {
    return !R.MayNaN && R.Lo == 0.0f && R.Hi == 0.0f;
  };
  if (IsZero(B) && A.neverNegZero())
    return ClampDecision::TakeA;
  if (IsZero(A) && B.neverNegZero())
    return ClampDecision::TakeB;
  return ClampDecision::Keep;
}

ClampDecision kf::decideSelect(const RegInterval &Sel) {
  if (Sel.bottom())
    return ClampDecision::Keep;
  // cond != 0 is true for every nonzero numeric value and for NaN. The
  // numeric-empty (always-NaN) sentinel has Lo = +inf, so Lo > 0 covers
  // it; Lo > 0 also excludes both signed zeros (-0 == 0 compares equal).
  if (Sel.Lo > 0.0f || Sel.Hi < 0.0f)
    return ClampDecision::TakeA;
  if (Sel.Lo == 0.0f && Sel.Hi == 0.0f && !Sel.MayNaN)
    return ClampDecision::TakeB;
  return ClampDecision::Keep;
}

//===----------------------------------------------------------------------===//
// The rewriter
//===----------------------------------------------------------------------===//

bool kf::vmOpReadsA(VmOp Op) {
  switch (Op) {
  case VmOp::Const:
  case VmOp::CoordX:
  case VmOp::CoordY:
  case VmOp::Load:
  case VmOp::StageCall:
    return false;
  default:
    return true;
  }
}

bool kf::vmOpReadsB(VmOp Op) {
  switch (Op) {
  case VmOp::Add:
  case VmOp::Sub:
  case VmOp::Mul:
  case VmOp::Div:
  case VmOp::Min:
  case VmOp::Max:
  case VmOp::Pow:
  case VmOp::CmpLT:
  case VmOp::CmpGT:
  case VmOp::Select:
    return true;
  default:
    return false;
  }
}

namespace {

bool readsA(VmOp Op) { return vmOpReadsA(Op); }
bool readsB(VmOp Op) { return vmOpReadsB(Op); }

/// Folds one all-constant ALU instruction with the identical std:: float
/// operations evalAluInst executes, so the folded immediate is bit-equal
/// to what the interpreter would have computed. Returns false for ops
/// that are not pure functions of (A, B).
bool foldAlu(VmOp Op, float A, float B, float &Out) {
  switch (Op) {
  case VmOp::Add:
    Out = A + B;
    return true;
  case VmOp::Sub:
    Out = A - B;
    return true;
  case VmOp::Mul:
    Out = A * B;
    return true;
  case VmOp::Div:
    Out = A / B;
    return true;
  case VmOp::Min:
    Out = std::min(A, B);
    return true;
  case VmOp::Max:
    Out = std::max(A, B);
    return true;
  case VmOp::Pow:
    Out = std::pow(A, B);
    return true;
  case VmOp::CmpLT:
    Out = A < B ? 1.0f : 0.0f;
    return true;
  case VmOp::CmpGT:
    Out = A > B ? 1.0f : 0.0f;
    return true;
  case VmOp::Neg:
    Out = -A;
    return true;
  case VmOp::Abs:
    Out = std::abs(A);
    return true;
  case VmOp::Sqrt:
    Out = std::sqrt(A);
    return true;
  case VmOp::Exp:
    Out = std::exp(A);
    return true;
  case VmOp::Log:
    Out = std::log(A);
    return true;
  case VmOp::Floor:
    Out = std::floor(A);
    return true;
  default:
    return false;
  }
}

/// Zeroes every field \p Inst's opcode does not read, so structurally
/// equal computations compare equal under the CSE key no matter what
/// stale operand bits they carried.
VmInst normalize(const VmInst &Inst) {
  VmInst N;
  N.Op = Inst.Op;
  N.Dst = Inst.Dst;
  switch (Inst.Op) {
  case VmOp::Const:
    N.Imm = Inst.Imm;
    break;
  case VmOp::CoordX:
  case VmOp::CoordY:
    break;
  case VmOp::Load:
    N.InputIdx = Inst.InputIdx;
    N.Ox = Inst.Ox;
    N.Oy = Inst.Oy;
    N.Channel = Inst.Channel;
    break;
  case VmOp::StageCall:
    N.Sel = Inst.Sel;
    N.Ox = Inst.Ox;
    N.Oy = Inst.Oy;
    N.Channel = Inst.Channel;
    break;
  case VmOp::Select:
    N.A = Inst.A;
    N.B = Inst.B;
    N.Sel = Inst.Sel;
    break;
  default:
    N.A = Inst.A;
    if (readsB(Inst.Op))
      N.B = Inst.B;
    break;
  }
  return N;
}

/// Value-number key of a normalized instruction (Dst excluded). Imm is
/// keyed by bit pattern so -0 and +0 constants stay distinct.
using CseKey = std::tuple<uint8_t, uint16_t, uint16_t, uint16_t, uint32_t,
                          int16_t, int16_t, int16_t, int16_t>;

CseKey cseKey(const VmInst &Inst) {
  uint32_t ImmBits;
  static_assert(sizeof(ImmBits) == sizeof(Inst.Imm), "float is 32-bit");
  std::memcpy(&ImmBits, &Inst.Imm, sizeof(ImmBits));
  return CseKey(static_cast<uint8_t>(Inst.Op), Inst.A, Inst.B, Inst.Sel,
                ImmBits, Inst.InputIdx, Inst.Ox, Inst.Oy, Inst.Channel);
}

} // namespace

bool kf::optimizeStagedProgram(StagedVmProgram &SP, uint16_t &Root,
                               const std::vector<StageValueFacts> &Facts,
                               VmOptStats *Stats) {
  VmOptStats Local;
  VmOptStats &S = Stats ? *Stats : Local;
  S = VmOptStats();
  if (Root >= SP.Stages.size() || Facts.size() != SP.Stages.size())
    return false;
  for (const VmStage &Stage : SP.Stages)
    S.OriginalInsts += static_cast<unsigned>(Stage.Code.Insts.size());
  S.OptimizedInsts = S.OriginalInsts;

  // The forward pass relies on the single-assignment form the bytecode
  // compiler emits (one fresh destination per expression node). Foreign
  // streams that reuse destinations are left untouched.
  for (const VmStage &Stage : SP.Stages) {
    std::vector<char> Written(Stage.Code.NumRegs, 0);
    for (const VmInst &Inst : Stage.Code.Insts) {
      if (Inst.Dst >= Stage.Code.NumRegs || Written[Inst.Dst])
        return false;
      Written[Inst.Dst] = 1;
    }
    if (Stage.Code.ResultReg >= Stage.Code.NumRegs ||
        !Written[Stage.Code.ResultReg])
      return false;
  }

  StagedVmProgram New = SP;
  for (size_t SI = 0; SI != New.Stages.size(); ++SI) {
    VmProgram &Code = New.Stages[SI].Code;
    const StageValueFacts &SF = Facts[SI];
    auto factOf = [&](uint16_t Reg) -> RegInterval {
      if (Reg < SF.Regs.size())
        return SF.Regs[Reg];
      return RegInterval(); // bottom: decisions keep, folds skip
    };

    const unsigned NumRegs = Code.NumRegs;
    std::vector<uint16_t> Rename(NumRegs);
    for (unsigned R = 0; R != NumRegs; ++R)
      Rename[R] = static_cast<uint16_t>(R);
    std::vector<char> HasConst(NumRegs, 0);
    std::vector<float> ConstVal(NumRegs, 0.0f);
    std::map<CseKey, uint16_t> Cse;
    std::vector<VmInst> Fwd;
    Fwd.reserve(Code.Insts.size());

    for (const VmInst &Orig : Code.Insts) {
      VmInst Inst = Orig;
      if (readsA(Inst.Op))
        Inst.A = Rename[Inst.A];
      if (readsB(Inst.Op))
        Inst.B = Rename[Inst.B];
      if (Inst.Op == VmOp::Select)
        Inst.Sel = Rename[Inst.Sel];

      // Fact-gated decisions: collapse a decided Min/Max/Select, or an
      // Add of zero, to a rename of the surviving operand. Facts are
      // indexed by the *original* operand registers (renames preserve
      // runtime values, so the decision transfers to the renamed
      // operands).
      ClampDecision Decision = ClampDecision::Keep;
      if (Inst.Op == VmOp::Min)
        Decision = decideMin(factOf(Orig.A), factOf(Orig.B));
      else if (Inst.Op == VmOp::Max)
        Decision = decideMax(factOf(Orig.A), factOf(Orig.B));
      else if (Inst.Op == VmOp::Select)
        Decision = decideSelect(factOf(Orig.Sel));
      else if (Inst.Op == VmOp::Add)
        Decision = decideAdd(factOf(Orig.A), factOf(Orig.B));
      if (Decision != ClampDecision::Keep) {
        const uint16_t Src =
            Decision == ClampDecision::TakeA ? Inst.A : Inst.B;
        Rename[Orig.Dst] = Src;
        if (HasConst[Src]) {
          HasConst[Orig.Dst] = 1;
          ConstVal[Orig.Dst] = ConstVal[Src];
        }
        if (Inst.Op == VmOp::Select)
          ++S.SelectsDecided;
        else if (Inst.Op == VmOp::Add)
          ++S.AddZeroRemoved;
        else
          ++S.ClampsRemoved;
        continue;
      }

      // Constant folding, exact first: all-constant operands are folded
      // with the interpreter's own operations. Otherwise an ALU result
      // whose fact pins one value (RegInterval::pinnedValue) becomes that
      // constant -- facts are sound for every pixel and execution path,
      // so the constant is what every evaluation computes. Folding to a
      // non-finite or NaN immediate is refused: it would trade an
      // instruction for a KF-B09 warning and a JIT refusal, and
      // guaranteed-bad values are the analyzer's (KF-V04) business, not
      // the optimizer's.
      if (Inst.Op == VmOp::Const) {
        HasConst[Orig.Dst] = 1;
        ConstVal[Orig.Dst] = Inst.Imm;
      } else if (readsA(Inst.Op)) {
        float Folded = 0.0f;
        const bool Exact =
            Inst.Op != VmOp::Select && HasConst[Inst.A] &&
            (!readsB(Inst.Op) || HasConst[Inst.B]) &&
            foldAlu(Inst.Op, ConstVal[Inst.A],
                    readsB(Inst.Op) ? ConstVal[Inst.B] : 0.0f, Folded) &&
            std::isfinite(Folded);
        if (Exact || factOf(Orig.Dst).pinnedValue(Folded)) {
          VmInst C;
          C.Op = VmOp::Const;
          C.Dst = Orig.Dst;
          C.Imm = Folded;
          Inst = C;
          HasConst[Orig.Dst] = 1;
          ConstVal[Orig.Dst] = Folded;
          ++(Exact ? S.FoldedConsts : S.PinnedConsts);
        }
      }

      // Value-numbering CSE over the renamed stream. Every opcode is a
      // pure function of its operands and the evaluation position, so
      // structurally equal instructions -- including Load and StageCall
      // sites, where a duplicate means a whole redundant recursive
      // recompute -- collapse to the first definition.
      Inst = normalize(Inst);
      auto It = Cse.find(cseKey(Inst));
      if (It != Cse.end()) {
        Rename[Orig.Dst] = It->second;
        if (HasConst[It->second]) {
          HasConst[Orig.Dst] = 1;
          ConstVal[Orig.Dst] = ConstVal[It->second];
        }
        ++S.CseReplaced;
        continue;
      }
      Cse.emplace(cseKey(Inst), Inst.Dst);
      Fwd.push_back(Inst);
    }

    Code.ResultReg = Rename[Code.ResultReg];

    // Backward sweep: drop every instruction whose destination no
    // surviving instruction (or the stage result) reads.
    std::vector<char> Live(NumRegs, 0);
    Live[Code.ResultReg] = 1;
    std::vector<VmInst> Kept;
    Kept.reserve(Fwd.size());
    for (size_t I = Fwd.size(); I != 0; --I) {
      const VmInst &Inst = Fwd[I - 1];
      if (!Live[Inst.Dst])
        continue;
      if (readsA(Inst.Op))
        Live[Inst.A] = 1;
      if (readsB(Inst.Op))
        Live[Inst.B] = 1;
      if (Inst.Op == VmOp::Select)
        Live[Inst.Sel] = 1;
      Kept.push_back(Inst);
    }
    std::reverse(Kept.begin(), Kept.end());
    Code.Insts = std::move(Kept);
  }

  // Stages whose last StageCall site was rewritten away are dead weight:
  // drop everything unreachable from the root, renumbering call targets.
  // Order is preserved, so the strictly-backward invariant (KF-B05)
  // survives the renumbering.
  std::vector<char> Reachable(New.Stages.size(), 0);
  std::vector<uint16_t> Work = {Root};
  Reachable[Root] = 1;
  while (!Work.empty()) {
    const uint16_t SI = Work.back();
    Work.pop_back();
    for (const VmInst &Inst : New.Stages[SI].Code.Insts)
      if (Inst.Op == VmOp::StageCall && !Reachable[Inst.Sel]) {
        Reachable[Inst.Sel] = 1;
        Work.push_back(Inst.Sel);
      }
  }
  std::vector<uint16_t> StageMap(New.Stages.size(), 0);
  {
    std::vector<VmStage> LiveStages;
    uint16_t Next = 0;
    for (size_t SI = 0; SI != New.Stages.size(); ++SI) {
      if (!Reachable[SI]) {
        ++S.RemovedStages;
        continue;
      }
      StageMap[SI] = Next++;
      LiveStages.push_back(std::move(New.Stages[SI]));
    }
    New.Stages = std::move(LiveStages);
    for (VmStage &Stage : New.Stages)
      for (VmInst &Inst : Stage.Code.Insts)
        if (Inst.Op == VmOp::StageCall)
          Inst.Sel = StageMap[Inst.Sel];
  }
  const uint16_t NewRoot = StageMap[Root];

  // Register-frame compaction: dense-renumber each stage's surviving
  // destinations in definition order (single assignment makes the def
  // set the used set), then rebase the frames. StageCall's Sel is a
  // stage index, never a register -- it is not remapped here.
  unsigned RegBase = 0;
  for (VmStage &Stage : New.Stages) {
    std::vector<uint16_t> Remap(Stage.Code.NumRegs, 0);
    uint16_t Next = 0;
    for (const VmInst &Inst : Stage.Code.Insts)
      Remap[Inst.Dst] = Next++;
    for (VmInst &Inst : Stage.Code.Insts) {
      Inst.Dst = Remap[Inst.Dst];
      if (readsA(Inst.Op))
        Inst.A = Remap[Inst.A];
      if (readsB(Inst.Op))
        Inst.B = Remap[Inst.B];
      if (Inst.Op == VmOp::Select)
        Inst.Sel = Remap[Inst.Sel];
    }
    Stage.Code.ResultReg = Remap[Stage.Code.ResultReg];
    Stage.Code.NumRegs = Next;
    Stage.RegBase = RegBase;
    RegBase += Next;
  }
  New.NumRegs = RegBase;

  // Recompute Reach[] with the compiler's recurrence; rewrites only ever
  // remove access sites, so reach can shrink (growing the interior) but
  // never grow. UniformExtents is left as compiled: a surviving-extent
  // set is a subset of the original, so a true claim stays honest.
  New.Reach.assign(New.Stages.size(), 0);
  for (size_t SI = 0; SI != New.Stages.size(); ++SI) {
    int Reach = 0;
    for (const VmInst &Inst : New.Stages[SI].Code.Insts) {
      const int Off = std::max(std::abs(static_cast<int>(Inst.Ox)),
                               std::abs(static_cast<int>(Inst.Oy)));
      if (Inst.Op == VmOp::Load)
        Reach = std::max(Reach, Off);
      else if (Inst.Op == VmOp::StageCall)
        Reach = std::max(Reach, Off + New.Reach[Inst.Sel]);
    }
    New.Reach[SI] = Reach;
  }

  S.OptimizedInsts = 0;
  for (const VmStage &Stage : New.Stages)
    S.OptimizedInsts += static_cast<unsigned>(Stage.Code.Insts.size());

  const bool Changed = S.FoldedConsts != 0 || S.PinnedConsts != 0 ||
                       S.AddZeroRemoved != 0 || S.ClampsRemoved != 0 ||
                       S.SelectsDecided != 0 || S.CseReplaced != 0 ||
                       S.RemovedStages != 0 ||
                       S.OptimizedInsts != S.OriginalInsts;
  if (!Changed)
    return false;
  SP = std::move(New);
  Root = NewRoot;
  return true;
}
