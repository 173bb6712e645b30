//===- analysis/BytecodeValidator.cpp --------------------------------------===//

#include "analysis/BytecodeValidator.h"

#include <algorithm>
#include <cmath>

using namespace kf;

namespace {

/// Validates one stage's instruction stream against its register frame
/// and input table; \p CheckStageCall is invoked for every StageCall so
/// the staged validator can apply its cross-stage rules.
template <class StageCallFn>
void validateStream(const VmProgram &Code,
                    const std::vector<ImageInfo> &PoolShapes,
                    const std::vector<ImageId> &Inputs, DiagnosticEngine &DE,
                    const DiagLocation &Loc, StageCallFn &&CheckStageCall) {
  if (Code.Insts.empty()) {
    DE.error("KF-B01", "empty instruction stream", Loc);
    return;
  }
  // Registers are uninitialized scratch: an instruction may only read a
  // register some earlier instruction wrote.
  std::vector<bool> Defined(Code.NumRegs, false);

  auto located = [&](size_t InstIdx) {
    DiagLocation L = Loc;
    L.Inst = static_cast<int>(InstIdx);
    return L;
  };
  auto checkReg = [&](uint16_t Reg, const char *Role, size_t InstIdx,
                      bool Read) {
    if (Reg >= Code.NumRegs) {
      DE.error("KF-B02",
               std::string(Role) + " register " + std::to_string(Reg) +
                   " out of range (frame has " +
                   std::to_string(Code.NumRegs) + " registers)",
               located(InstIdx));
      return;
    }
    if (Read && !Defined[Reg])
      DE.error("KF-B03",
               std::string(Role) + " register " + std::to_string(Reg) +
                   " read before it is written",
               located(InstIdx));
  };

  for (size_t I = 0; I != Code.Insts.size(); ++I) {
    const VmInst &Inst = Code.Insts[I];
    switch (Inst.Op) {
    case VmOp::Const:
      if (!std::isfinite(Inst.Imm))
        DE.warning("KF-B09", "non-finite constant immediate", located(I));
      break;
    case VmOp::CoordX:
    case VmOp::CoordY:
      break;
    case VmOp::Load: {
      if (Inst.InputIdx < 0 ||
          static_cast<size_t>(Inst.InputIdx) >= Inputs.size()) {
        DE.error("KF-B04",
                 "load input index " + std::to_string(Inst.InputIdx) +
                     " out of range (stage has " +
                     std::to_string(Inputs.size()) + " inputs)",
                 located(I));
        break;
      }
      if (Inst.Channel < -1)
        DE.error("KF-B04",
                 "load channel " + std::to_string(Inst.Channel) +
                     " is invalid (-1 or a fixed channel index)",
                 located(I));
      ImageId Img = Inputs[Inst.InputIdx];
      if (Img >= PoolShapes.size()) {
        DE.error("KF-B04",
                 "load targets pool image " + std::to_string(Img) +
                     " beyond the plan's " +
                     std::to_string(PoolShapes.size()) + " images",
                 located(I));
      } else if (Inst.Channel >= PoolShapes[Img].Channels) {
        DE.error("KF-B04",
                 "load channel " + std::to_string(Inst.Channel) +
                     " out of range for image '" + PoolShapes[Img].Name +
                     "' (" + std::to_string(PoolShapes[Img].Channels) +
                     " channels)",
                 located(I));
      }
      break;
    }
    case VmOp::Add:
    case VmOp::Sub:
    case VmOp::Mul:
    case VmOp::Div:
    case VmOp::Min:
    case VmOp::Max:
    case VmOp::Pow:
    case VmOp::CmpLT:
    case VmOp::CmpGT:
      checkReg(Inst.A, "operand", I, /*Read=*/true);
      checkReg(Inst.B, "operand", I, /*Read=*/true);
      break;
    case VmOp::Neg:
    case VmOp::Abs:
    case VmOp::Sqrt:
    case VmOp::Exp:
    case VmOp::Log:
    case VmOp::Floor:
      checkReg(Inst.A, "operand", I, /*Read=*/true);
      break;
    case VmOp::Select:
      checkReg(Inst.A, "operand", I, /*Read=*/true);
      checkReg(Inst.B, "operand", I, /*Read=*/true);
      checkReg(Inst.Sel, "condition", I, /*Read=*/true);
      break;
    case VmOp::StageCall:
      CheckStageCall(Inst, I);
      break;
    }
    checkReg(Inst.Dst, "destination", I, /*Read=*/false);
    if (Inst.Dst < Code.NumRegs)
      Defined[Inst.Dst] = true;
  }

  if (Code.ResultReg >= Code.NumRegs)
    DE.error("KF-B02",
             "result register " + std::to_string(Code.ResultReg) +
                 " out of range (frame has " +
                 std::to_string(Code.NumRegs) + " registers)",
             Loc);
  else if (!Defined[Code.ResultReg])
    DE.error("KF-B03",
             "result register " + std::to_string(Code.ResultReg) +
                 " is never written",
             Loc, "the instruction stream may be truncated");
}

} // namespace

void kf::validateStagedProgram(const StagedVmProgram &SP, uint16_t Root,
                               const std::vector<ImageInfo> &PoolShapes,
                               DiagnosticEngine &DE, DiagLocation Loc,
                               int MaxCallDepth) {
  if (SP.Stages.empty()) {
    DE.error("KF-B01", "staged program has no stages", Loc);
    return;
  }
  if (SP.Stages.size() > 0xFFFF)
    DE.error("KF-B10",
             "stage count " + std::to_string(SP.Stages.size()) +
                 " exceeds the 16-bit StageCall operand range",
             Loc);
  if (Root >= SP.Stages.size()) {
    DE.error("KF-B05",
             "root stage " + std::to_string(Root) + " out of range (" +
                 std::to_string(SP.Stages.size()) + " stages)",
             Loc);
    return;
  }

  // CallDepth[i]: longest stage-call chain rooted at stage i. Calls must
  // target strictly preceding stages, so a forward pass suffices; invalid
  // targets contribute nothing (they are reported as errors below).
  std::vector<int> CallDepth(SP.Stages.size(), 0);

  for (size_t S = 0; S != SP.Stages.size(); ++S) {
    const VmStage &Stage = SP.Stages[S];
    DiagLocation StageLoc = Loc;
    StageLoc.Stage = static_cast<int>(S);

    if (Stage.RegBase > SP.NumRegs ||
        Stage.Code.NumRegs > SP.NumRegs - Stage.RegBase)
      DE.error("KF-B07",
               "register frame [" + std::to_string(Stage.RegBase) + ", " +
                   std::to_string(Stage.RegBase + Stage.Code.NumRegs) +
                   ") overruns the shared scratch block of " +
                   std::to_string(SP.NumRegs) + " registers",
               StageLoc);
    if (Stage.OutW <= 0 || Stage.OutH <= 0)
      DE.error("KF-B01",
               "stage output extent " + std::to_string(Stage.OutW) + "x" +
                   std::to_string(Stage.OutH) + " must be positive",
               StageLoc);

    int Depth = 0;
    validateStream(
        Stage.Code, PoolShapes, Stage.Inputs, DE, StageLoc,
        [&](const VmInst &Inst, size_t InstIdx) {
          DiagLocation InstLoc = StageLoc;
          InstLoc.Inst = static_cast<int>(InstIdx);
          if (Inst.Sel >= SP.Stages.size()) {
            DE.error("KF-B05",
                     "stage call targets stage " + std::to_string(Inst.Sel) +
                         " of " + std::to_string(SP.Stages.size()),
                     InstLoc);
            return;
          }
          if (Inst.Sel >= S) {
            DE.error("KF-B05",
                     "stage call targets non-preceding stage " +
                         std::to_string(Inst.Sel) +
                         " (calls must go strictly backward; forward or "
                         "self calls can recurse unboundedly)",
                     InstLoc);
            return;
          }
          if (Inst.Channel < -1)
            DE.error("KF-B04",
                     "stage call channel " + std::to_string(Inst.Channel) +
                         " is invalid",
                     InstLoc);
          Depth = std::max(Depth, 1 + CallDepth[Inst.Sel]);
        });
    CallDepth[S] = Depth;
    if (Depth > MaxCallDepth)
      DE.error("KF-B10",
               "stage-call depth " + std::to_string(Depth) +
                   " exceeds the recursion limit " +
                   std::to_string(MaxCallDepth),
               StageLoc);
  }

  // Span-mode lane-frame layout (KF-B11): the span interpreter gives each
  // stage the lane-buffer frame [RegBase*Lane, (RegBase+NumRegs)*Lane). A
  // caller's frame stays live while its stage calls evaluate callees, so
  // the frames of distinct stages must be pairwise disjoint -- overlap
  // would let a callee silently clobber its caller's registers. (KF-B07
  // only proves each frame fits the shared scratch.)
  std::vector<std::pair<unsigned, size_t>> Frames; // (RegBase, stage).
  for (size_t S = 0; S != SP.Stages.size(); ++S)
    Frames.emplace_back(SP.Stages[S].RegBase, S);
  std::sort(Frames.begin(), Frames.end());
  for (size_t I = 1; I < Frames.size(); ++I) {
    const VmStage &Prev = SP.Stages[Frames[I - 1].second];
    if (Frames[I].first < Prev.RegBase + Prev.Code.NumRegs) {
      DiagLocation StageLoc = Loc;
      StageLoc.Stage = static_cast<int>(Frames[I].second);
      DE.error("KF-B11",
               "register frame [" + std::to_string(Frames[I].first) + ", " +
                   std::to_string(Frames[I].first +
                                  SP.Stages[Frames[I].second].Code.NumRegs) +
                   ") overlaps stage " +
                   std::to_string(Frames[I - 1].second) + "'s frame [" +
                   std::to_string(Prev.RegBase) + ", " +
                   std::to_string(Prev.RegBase + Prev.Code.NumRegs) +
                   "); span-mode lane frames must be pairwise disjoint",
               StageLoc);
    }
  }

  if (SP.Reach.size() != SP.Stages.size())
    DE.error("KF-B08",
             "reach table has " + std::to_string(SP.Reach.size()) +
                 " entries for " + std::to_string(SP.Stages.size()) +
                 " stages",
             Loc);
}
