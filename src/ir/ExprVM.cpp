//===- ir/ExprVM.cpp ----------------------------------------------------------===//

#include "ir/ExprVM.h"

#include "image/Border.h"
#include "ir/LaneOps.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <map>

using namespace kf;

const char *kf::vmModeName(VmMode Mode) {
  switch (Mode) {
  case VmMode::Scalar:
    return "scalar";
  case VmMode::Span:
    return "span";
  case VmMode::Jit:
    return "jit";
  }
  KF_UNREACHABLE("unknown VM mode");
}

const char *kf::tilingStrategyName(TilingStrategy Strategy) {
  switch (Strategy) {
  case TilingStrategy::Auto:
    return "auto";
  case TilingStrategy::InteriorHalo:
    return "interior";
  case TilingStrategy::Overlapped:
    return "overlapped";
  }
  KF_UNREACHABLE("unknown tiling strategy");
}

const char *kf::optModeName(OptMode Mode) {
  switch (Mode) {
  case OptMode::On:
    return "on";
  case OptMode::Off:
    return "off";
  }
  KF_UNREACHABLE("unknown opt mode");
}

namespace {

/// Bindings of stencil-scoped scalars while compiling an element.
struct StencilBinding {
  int Dx = 0;
  int Dy = 0;
  float MaskVal = 0.0f;
  bool Active = false;
};

/// Recursive compiler from the body of kernel \p K to the linear VM
/// form. When \p Eliminated maps an input image of \p K to a stage index,
/// reads of that image compile to StageCall instructions.
class VmCompiler {
public:
  VmCompiler(const Program &P, const Kernel &K,
             const std::map<ImageId, uint16_t> &Eliminated)
      : P(P), K(K), Eliminated(Eliminated) {}

  VmProgram compile(const Expr *Body) {
    VmProgram VM;
    VM.ResultReg = emit(Body, StencilBinding(), VM);
    VM.NumRegs = NextReg;
    return VM;
  }

private:
  uint16_t fresh() {
    assert(NextReg < 0xFFFF && "register file exhausted");
    return static_cast<uint16_t>(NextReg++);
  }

  uint16_t emitConst(float Value, VmProgram &VM) {
    VmInst Inst;
    Inst.Op = VmOp::Const;
    Inst.Dst = fresh();
    Inst.Imm = Value;
    VM.Insts.push_back(Inst);
    return Inst.Dst;
  }

  uint16_t emitBinary(VmOp Op, uint16_t A, uint16_t B, VmProgram &VM) {
    VmInst Inst;
    Inst.Op = Op;
    Inst.Dst = fresh();
    Inst.A = A;
    Inst.B = B;
    VM.Insts.push_back(Inst);
    return Inst.Dst;
  }

  uint16_t emit(const Expr *E, const StencilBinding &Env, VmProgram &VM) {
    switch (E->Kind) {
    case ExprKind::FloatConst:
      return emitConst(E->Value, VM);
    case ExprKind::CoordX:
    case ExprKind::CoordY: {
      VmInst Inst;
      Inst.Op = E->Kind == ExprKind::CoordX ? VmOp::CoordX : VmOp::CoordY;
      Inst.Dst = fresh();
      VM.Insts.push_back(Inst);
      return Inst.Dst;
    }
    case ExprKind::MaskValue:
      assert(Env.Active && "mask value outside a stencil");
      return emitConst(Env.MaskVal, VM);
    case ExprKind::StencilOffX:
      assert(Env.Active && "stencil offset outside a stencil");
      return emitConst(static_cast<float>(Env.Dx), VM);
    case ExprKind::StencilOffY:
      assert(Env.Active && "stencil offset outside a stencil");
      return emitConst(static_cast<float>(Env.Dy), VM);
    case ExprKind::InputAt:
    case ExprKind::StencilInput: {
      VmInst Inst;
      Inst.Op = VmOp::Load;
      Inst.Dst = fresh();
      Inst.InputIdx = static_cast<int16_t>(E->InputIdx);
      if (E->Kind == ExprKind::InputAt) {
        Inst.Ox = static_cast<int16_t>(E->OffsetX);
        Inst.Oy = static_cast<int16_t>(E->OffsetY);
      } else {
        assert(Env.Active && "window access outside a stencil");
        Inst.Ox = static_cast<int16_t>(Env.Dx);
        Inst.Oy = static_cast<int16_t>(Env.Dy);
      }
      Inst.Channel = static_cast<int16_t>(E->Channel);
      auto Stage = Eliminated.find(K.Inputs[E->InputIdx]);
      if (Stage != Eliminated.end()) {
        Inst.Op = VmOp::StageCall;
        Inst.Sel = Stage->second;
      }
      VM.Insts.push_back(Inst);
      return Inst.Dst;
    }
    case ExprKind::Binary: {
      uint16_t A = emit(E->Lhs, Env, VM);
      uint16_t B = emit(E->Rhs, Env, VM);
      VmOp Op = VmOp::Add;
      switch (E->BinaryOp) {
      case BinOp::Add:
        Op = VmOp::Add;
        break;
      case BinOp::Sub:
        Op = VmOp::Sub;
        break;
      case BinOp::Mul:
        Op = VmOp::Mul;
        break;
      case BinOp::Div:
        Op = VmOp::Div;
        break;
      case BinOp::Min:
        Op = VmOp::Min;
        break;
      case BinOp::Max:
        Op = VmOp::Max;
        break;
      case BinOp::Pow:
        Op = VmOp::Pow;
        break;
      case BinOp::CmpLT:
        Op = VmOp::CmpLT;
        break;
      case BinOp::CmpGT:
        Op = VmOp::CmpGT;
        break;
      }
      return emitBinary(Op, A, B, VM);
    }
    case ExprKind::Unary: {
      uint16_t A = emit(E->Lhs, Env, VM);
      VmOp Op = VmOp::Neg;
      switch (E->UnaryOp) {
      case UnOp::Neg:
        Op = VmOp::Neg;
        break;
      case UnOp::Abs:
        Op = VmOp::Abs;
        break;
      case UnOp::Sqrt:
        Op = VmOp::Sqrt;
        break;
      case UnOp::Exp:
        Op = VmOp::Exp;
        break;
      case UnOp::Log:
        Op = VmOp::Log;
        break;
      case UnOp::Floor:
        Op = VmOp::Floor;
        break;
      }
      VmInst Inst;
      Inst.Op = Op;
      Inst.Dst = fresh();
      Inst.A = A;
      VM.Insts.push_back(Inst);
      return Inst.Dst;
    }
    case ExprKind::Select: {
      VmInst Inst;
      Inst.Op = VmOp::Select;
      Inst.Sel = emit(E->Cond, Env, VM);
      Inst.A = emit(E->Lhs, Env, VM);
      Inst.B = emit(E->Rhs, Env, VM);
      Inst.Dst = fresh();
      VM.Insts.push_back(Inst);
      return Inst.Dst;
    }
    case ExprKind::Stencil: {
      // Fully unroll the reduction: one element expansion per window
      // position with mask value and offsets baked as constants; combine
      // with the reduce operator in evaluation order.
      const Mask &M = P.mask(E->MaskIdx);
      uint16_t Acc = 0;
      bool First = true;
      for (int Dy = -M.haloY(); Dy <= M.haloY(); ++Dy)
        for (int Dx = -M.haloX(); Dx <= M.haloX(); ++Dx) {
          StencilBinding Elem{Dx, Dy, M.at(Dx, Dy), true};
          uint16_t Value = emit(E->Lhs, Elem, VM);
          if (First) {
            Acc = Value;
            First = false;
            continue;
          }
          VmOp Op = VmOp::Add;
          switch (E->Reduce) {
          case ReduceOp::Sum:
            Op = VmOp::Add;
            break;
          case ReduceOp::Product:
            Op = VmOp::Mul;
            break;
          case ReduceOp::Min:
            Op = VmOp::Min;
            break;
          case ReduceOp::Max:
            Op = VmOp::Max;
            break;
          }
          Acc = emitBinary(Op, Acc, Value, VM);
        }
      return Acc;
    }
    }
    KF_UNREACHABLE("unknown expression kind");
  }

  const Program &P;
  const Kernel &K;
  const std::map<ImageId, uint16_t> &Eliminated;
  unsigned NextReg = 0;
};

/// Evaluates one non-load, non-call instruction into \p Regs: the ALU
/// half of the per-pixel evaluator.
inline void evalAluInst(const VmInst &Inst, float *Regs, int X, int Y) {
  switch (Inst.Op) {
  case VmOp::Const:
    Regs[Inst.Dst] = Inst.Imm;
    break;
  case VmOp::CoordX:
    Regs[Inst.Dst] = static_cast<float>(X);
    break;
  case VmOp::CoordY:
    Regs[Inst.Dst] = static_cast<float>(Y);
    break;
  case VmOp::Add:
    Regs[Inst.Dst] = Regs[Inst.A] + Regs[Inst.B];
    break;
  case VmOp::Sub:
    Regs[Inst.Dst] = Regs[Inst.A] - Regs[Inst.B];
    break;
  case VmOp::Mul:
    Regs[Inst.Dst] = Regs[Inst.A] * Regs[Inst.B];
    break;
  case VmOp::Div:
    Regs[Inst.Dst] = Regs[Inst.A] / Regs[Inst.B];
    break;
  case VmOp::Min:
    Regs[Inst.Dst] = std::min(Regs[Inst.A], Regs[Inst.B]);
    break;
  case VmOp::Max:
    Regs[Inst.Dst] = std::max(Regs[Inst.A], Regs[Inst.B]);
    break;
  case VmOp::Pow:
    Regs[Inst.Dst] = std::pow(Regs[Inst.A], Regs[Inst.B]);
    break;
  case VmOp::CmpLT:
    Regs[Inst.Dst] = Regs[Inst.A] < Regs[Inst.B] ? 1.0f : 0.0f;
    break;
  case VmOp::CmpGT:
    Regs[Inst.Dst] = Regs[Inst.A] > Regs[Inst.B] ? 1.0f : 0.0f;
    break;
  case VmOp::Neg:
    Regs[Inst.Dst] = -Regs[Inst.A];
    break;
  case VmOp::Abs:
    Regs[Inst.Dst] = std::abs(Regs[Inst.A]);
    break;
  case VmOp::Sqrt:
    Regs[Inst.Dst] = std::sqrt(Regs[Inst.A]);
    break;
  case VmOp::Exp:
    Regs[Inst.Dst] = std::exp(Regs[Inst.A]);
    break;
  case VmOp::Log:
    Regs[Inst.Dst] = std::log(Regs[Inst.A]);
    break;
  case VmOp::Floor:
    Regs[Inst.Dst] = std::floor(Regs[Inst.A]);
    break;
  case VmOp::Select:
    Regs[Inst.Dst] = Regs[Inst.Sel] != 0.0f ? Regs[Inst.A] : Regs[Inst.B];
    break;
  case VmOp::Load:
  case VmOp::StageCall:
    KF_UNREACHABLE("memory op reached the ALU path");
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Row-wise (instruction-major) interior evaluation
//===----------------------------------------------------------------------===//

namespace {

/// Executes \p Code instruction-major over one chunk of VmLaneWidth lanes
/// and returns the result register's lanes; registers are VmLaneWidth
/// floats apart in \p RowRegs. Const and the register-to-register ops run
/// the laneAlu loops here; the ops whose lanes depend on where the lanes
/// sit (CoordX, CoordY, Load, StageCall) go to \p Place(Inst, D), which
/// writes the destination register's lanes. Every lane engine of the
/// interpreter -- span rows, overlap planes, the border ring -- shares this
/// dispatch.
template <class PlaceFn>
const float *evalLanes(const VmProgram &Code, float *RowRegs,
                       PlaceFn &&Place) {
  auto Row = [&](uint16_t Reg) {
    return RowRegs + static_cast<size_t>(Reg) * VmLaneWidth;
  };
  for (const VmInst &Inst : Code.Insts) {
    float *D = Row(Inst.Dst);
    const float *A = Row(Inst.A), *B = Row(Inst.B);
    switch (Inst.Op) {
    case VmOp::Const:
      laneFill(D, Inst.Imm);
      break;
    case VmOp::CoordX:
    case VmOp::CoordY:
    case VmOp::Load:
    case VmOp::StageCall:
      Place(Inst, D);
      break;
    case VmOp::Add:
      laneAlu<VmOp::Add>(D, A, B, nullptr);
      break;
    case VmOp::Sub:
      laneAlu<VmOp::Sub>(D, A, B, nullptr);
      break;
    case VmOp::Mul:
      laneAlu<VmOp::Mul>(D, A, B, nullptr);
      break;
    case VmOp::Div:
      laneAlu<VmOp::Div>(D, A, B, nullptr);
      break;
    case VmOp::Min:
      laneAlu<VmOp::Min>(D, A, B, nullptr);
      break;
    case VmOp::Max:
      laneAlu<VmOp::Max>(D, A, B, nullptr);
      break;
    case VmOp::Pow:
      laneAlu<VmOp::Pow>(D, A, B, nullptr);
      break;
    case VmOp::CmpLT:
      laneAlu<VmOp::CmpLT>(D, A, B, nullptr);
      break;
    case VmOp::CmpGT:
      laneAlu<VmOp::CmpGT>(D, A, B, nullptr);
      break;
    case VmOp::Neg:
      laneAlu<VmOp::Neg>(D, A, B, nullptr);
      break;
    case VmOp::Abs:
      laneAlu<VmOp::Abs>(D, A, B, nullptr);
      break;
    case VmOp::Sqrt:
      laneAlu<VmOp::Sqrt>(D, A, B, nullptr);
      break;
    case VmOp::Exp:
      laneAlu<VmOp::Exp>(D, A, B, nullptr);
      break;
    case VmOp::Log:
      laneAlu<VmOp::Log>(D, A, B, nullptr);
      break;
    case VmOp::Floor:
      laneAlu<VmOp::Floor>(D, A, B, nullptr);
      break;
    case VmOp::Select:
      laneAlu<VmOp::Select>(D, A, B, Row(Inst.Sel));
      break;
    }
  }
  return Row(Code.ResultReg);
}

/// evalLanes over the chunk of row \p Y that starts at column \p X0:
/// coordinates are a row's, and loads read the pool images directly,
/// unchecked (the span's caller checked them once, lanesInside).
/// \p Inputs resolves Load pool images; \p CallRow handles StageCall ops
/// (writes the callee's lanes into the destination register).
template <class CallRowFn>
const float *evalRowImpl(const VmProgram &Code, const std::vector<Image> &Pool,
                         const std::vector<ImageId> &Inputs, int Y, int X0,
                         int Channel, float *RowRegs, CallRowFn &&CallRow) {
  return evalLanes(Code, RowRegs, [&](const VmInst &Inst, float *D) {
    switch (Inst.Op) {
    case VmOp::CoordX:
      laneIota(D, X0);
      break;
    case VmOp::CoordY:
      laneFill(D, static_cast<float>(Y));
      break;
    case VmOp::Load: {
      const Image &Img = Pool[Inputs[Inst.InputIdx]];
      int Ch = Inst.Channel < 0 ? Channel : Inst.Channel;
      const float *Base =
          Img.data().data() +
          (static_cast<size_t>(Y + Inst.Oy) * Img.width() + (X0 + Inst.Ox)) *
              Img.channels() +
          Ch;
      if (Img.channels() == 1)
        laneCopy(D, Base);
      else
        laneGather(D, Base, Img.channels());
      break;
    }
    case VmOp::StageCall:
      CallRow(Inst, D);
      break;
    default:
      KF_UNREACHABLE("not a placement op");
    }
  });
}

} // namespace

//===----------------------------------------------------------------------===//
// Staged (fused-kernel) programs
//===----------------------------------------------------------------------===//

StagedVmProgram
kf::compileStagedProgram(const Program &P,
                         const std::vector<KernelId> &StageKernels,
                         const std::vector<bool> &IsEliminated) {
  assert(StageKernels.size() == IsEliminated.size() &&
         "one elimination flag per stage");
  assert(StageKernels.size() <= 0xFFFF && "stage index must fit Sel");

  std::map<ImageId, uint16_t> Eliminated;
  for (size_t I = 0; I != StageKernels.size(); ++I)
    if (IsEliminated[I])
      Eliminated[P.kernel(StageKernels[I]).Output] =
          static_cast<uint16_t>(I);

  StagedVmProgram SP;
  SP.Reach.resize(StageKernels.size(), 0);
  unsigned RegBase = 0;
  int RefW = -1, RefH = -1;
  auto noteExtent = [&](int W, int H) {
    if (RefW < 0) {
      RefW = W;
      RefH = H;
    } else if (W != RefW || H != RefH) {
      SP.UniformExtents = false;
    }
  };

  for (size_t I = 0; I != StageKernels.size(); ++I) {
    const Kernel &K = P.kernel(StageKernels[I]);
    VmStage Stage;
    VmCompiler Compiler(P, K, Eliminated);
    Stage.Code = Compiler.compile(K.Body);
    Stage.Inputs = K.Inputs;
    Stage.Border = K.Border;
    Stage.BorderConstant = K.BorderConstant;
    const ImageInfo &OutInfo = P.image(K.Output);
    Stage.OutW = OutInfo.Width;
    Stage.OutH = OutInfo.Height;
    Stage.RegBase = RegBase;
    RegBase += Stage.Code.NumRegs;
    noteExtent(Stage.OutW, Stage.OutH);

    // Transitive reach: direct load offsets, plus call offsets grown by
    // the callee's reach (callees precede their consumers in stage
    // order, so Reach is final when read).
    int Reach = 0;
    for (const VmInst &Inst : Stage.Code.Insts) {
      int Off = std::max(std::abs(static_cast<int>(Inst.Ox)),
                         std::abs(static_cast<int>(Inst.Oy)));
      if (Inst.Op == VmOp::Load) {
        const ImageInfo &In = P.image(K.Inputs[Inst.InputIdx]);
        noteExtent(In.Width, In.Height);
        Reach = std::max(Reach, Off);
      } else if (Inst.Op == VmOp::StageCall) {
        assert(Inst.Sel < I && "stage call to a non-preceding stage");
        Reach = std::max(Reach, Off + SP.Reach[Inst.Sel]);
      }
    }
    SP.Reach[I] = Reach;
    SP.Stages.push_back(std::move(Stage));
  }
  SP.NumRegs = RegBase;
  return SP;
}

float kf::runStagedVm(const StagedVmProgram &SP, uint16_t RootStage,
                      const std::vector<Image> &Pool, int X, int Y,
                      int Channel, float *Regs, bool UseIndexExchange) {
  const VmStage &Stage = SP.Stages[RootStage];
  float *Frame = Regs + Stage.RegBase;
  for (const VmInst &Inst : Stage.Code.Insts) {
    switch (Inst.Op) {
    case VmOp::Load: {
      const Image &Img = Pool[Stage.Inputs[Inst.InputIdx]];
      assert(!Img.empty() && "reading an unmaterialized image");
      int Ch = Inst.Channel < 0 ? Channel : Inst.Channel;
      Frame[Inst.Dst] = sampleWithBorder(Img, X + Inst.Ox, Y + Inst.Oy, Ch,
                                         Stage.Border, Stage.BorderConstant);
      break;
    }
    case VmOp::StageCall: {
      const VmStage &Callee = SP.Stages[Inst.Sel];
      int Ch = Inst.Channel < 0 ? Channel : Inst.Channel;
      int TX = X + Inst.Ox;
      int TY = Y + Inst.Oy;
      bool Exterior =
          TX < 0 || TX >= Callee.OutW || TY < 0 || TY >= Callee.OutH;
      if (Exterior && UseIndexExchange) {
        // Index exchange (Section IV-B): exterior accesses to the
        // eliminated intermediate are exchanged per the *consuming*
        // stage's border handling before the producer is evaluated.
        int EX = exchangeIndex(TX, Callee.OutW, Stage.Border);
        int EY = exchangeIndex(TY, Callee.OutH, Stage.Border);
        if (EX < 0 || EY < 0) {
          Frame[Inst.Dst] = Stage.BorderConstant;
          break;
        }
        TX = EX;
        TY = EY;
      }
      // Without the exchange the producer is (incorrectly) evaluated at
      // the raw exterior position -- reproducing Figure 4b.
      Frame[Inst.Dst] =
          runStagedVm(SP, Inst.Sel, Pool, TX, TY, Ch, Regs, UseIndexExchange);
      break;
    }
    default:
      evalAluInst(Inst, Frame, X, Y);
      break;
    }
  }
  return Frame[Stage.Code.ResultReg];
}

namespace {

/// Lane-wise interior evaluation of one stage over the chunk of row \p Y
/// that starts at column \p X0; returns the stage result's lanes. Stage
/// calls recurse lane-wise too -- the callee streams its subprogram across
/// the (offset-shifted) lanes and its result is copied into the caller's
/// destination register -- so the whole staged program stays
/// instruction-major. Stage frames partition \p LaneRegs at
/// RegBase * VmLaneWidth, so no frame ever overruns into its neighbour
/// (the validator's KF-B11 invariant); the acyclic call graph guarantees a
/// stage never reuses a live frame, and sequential calls to the same
/// callee simply overwrite its frame.
const float *evalStagedRow(const StagedVmProgram &SP, uint16_t StageIdx,
                           const std::vector<Image> &Pool, int Y, int X0,
                           int Channel, float *LaneRegs) {
  const VmStage &Stage = SP.Stages[StageIdx];
  float *Frame = LaneRegs + static_cast<size_t>(Stage.RegBase) * VmLaneWidth;
  return evalRowImpl(
      Stage.Code, Pool, Stage.Inputs, Y, X0, Channel, Frame,
      [&](const VmInst &Inst, float *D) {
        int Ch = Inst.Channel < 0 ? Channel : Inst.Channel;
        laneCopy(D, evalStagedRow(SP, Inst.Sel, Pool, Y + Inst.Oy,
                                  X0 + Inst.Ox, Ch, LaneRegs));
      });
}

/// Whether lanesInside holds for every load of stage \p StageIdx over the
/// span [X0, X1) of row \p Y, and of its callees at their displaced spans
/// (the walk evalStagedRow's recursion takes).
bool stagedSpanInside(const StagedVmProgram &SP, uint16_t StageIdx,
                      const std::vector<Image> &Pool, int Y, int X0, int X1) {
  const VmStage &Stage = SP.Stages[StageIdx];
  for (const VmInst &Inst : Stage.Code.Insts) {
    if (Inst.Op == VmOp::Load &&
        !lanesInside({Inst.Ox, Inst.Ox, Inst.Oy, Inst.Oy},
                     Pool[Stage.Inputs[Inst.InputIdx]], Y, Y + 1, X0, X1))
      return false;
    if (Inst.Op == VmOp::StageCall &&
        !stagedSpanInside(SP, Inst.Sel, Pool, Y + Inst.Oy, X0 + Inst.Ox,
                          X1 + Inst.Ox))
      return false;
  }
  return true;
}

} // namespace

void kf::runStagedVmSpan(const StagedVmProgram &SP, uint16_t RootStage,
                         const std::vector<Image> &Pool, int Y, int X0,
                         int X1, int Channel, float *LaneRegs,
                         float *Out, int OutStride) {
  // The one check of the span's reads: the chunks load unchecked.
  assert((X1 <= X0 || stagedSpanInside(SP, RootStage, Pool, Y, X0, X1)) &&
         "span evaluation outside the interior region");
  // The working set is SP.NumRegs * VmLaneWidth floats whatever the span
  // width. StageCall recursion inside evalStagedRow shifts the chunk's
  // column range per call, so the callee streams over exactly the
  // caller's lanes.
  forEachLaneChunk(X0, X1, [&](int C0, int From, int To) {
    laneStore(From, To, Out + static_cast<size_t>(C0 - X0) * OutStride,
              OutStride,
              evalStagedRow(SP, RootStage, Pool, Y, C0, Channel, LaneRegs));
  });
}

//===----------------------------------------------------------------------===//
// Border ring
//===----------------------------------------------------------------------===//

namespace {

/// Where the VmLaneWidth lanes of a ring chunk sit at one stage: lane i
/// evaluates pixel (X[i], Y[i]).
struct RingLanes {
  int X[VmLaneWidth];
  int Y[VmLaneWidth];
};

/// True when no instruction of \p Code but Insts[\p Index] writes that
/// instruction's destination register, so its lanes survive a later pass
/// over the stream that skips it. The compiler and the optimizer emit
/// single-assignment streams, but the validator does not require it.
bool writtenOnlyBy(const VmProgram &Code, size_t Index) {
  const uint16_t Dst = Code.Insts[Index].Dst;
  for (size_t I = 0; I != Code.Insts.size(); ++I)
    if (I != Index && Code.Insts[I].Dst == Dst)
      return false;
  return true;
}

/// Evaluates stage \p StageIdx of \p SP at channel \p Channel over the
/// lanes of \p At with full border handling, and returns the stage
/// result's lanes: the lane-batched twin of runStagedVm. Loads are
/// bordered per lane; a StageCall index-exchanges each lane's position
/// against the callee's extent (raw positions without \p UseIndexExchange)
/// and recurses lane-wise into the callee's frame, the KF-B11 layout of
/// span mode. A lane whose exchanged position is a Constant border reads
/// the consumer's BorderConstant: the callee runs it at the clamped
/// in-image position (every lane of a chunk runs the same instruction
/// stream) and the constant is patched in afterwards. With
/// \p ShareExplicitCalls, StageCalls with an explicit channel are skipped
/// (their destination lanes still hold the previous pass's values); only
/// the root's per-channel passes after the first set it.
const float *evalStagedRing(const StagedVmProgram &SP, uint16_t StageIdx,
                            const std::vector<Image> &Pool,
                            const RingLanes &At, int Channel, float *LaneRegs,
                            bool UseIndexExchange, bool ShareExplicitCalls) {
  constexpr int N = VmLaneWidth;
  const VmStage &Stage = SP.Stages[StageIdx];
  float *Frame = LaneRegs + static_cast<size_t>(Stage.RegBase) * N;
  const VmInst *First = Stage.Code.Insts.data();
  return evalLanes(Stage.Code, Frame, [&](const VmInst &Inst, float *D) {
    switch (Inst.Op) {
    case VmOp::CoordX:
      for (int I = 0; I != N; ++I)
        D[I] = static_cast<float>(At.X[I]);
      break;
    case VmOp::CoordY:
      for (int I = 0; I != N; ++I)
        D[I] = static_cast<float>(At.Y[I]);
      break;
    case VmOp::Load: {
      const Image &Img = Pool[Stage.Inputs[Inst.InputIdx]];
      assert(!Img.empty() && "reading an unmaterialized image");
      const int Ch = Inst.Channel < 0 ? Channel : Inst.Channel;
      const unsigned IW = static_cast<unsigned>(Img.width());
      const unsigned IH = static_cast<unsigned>(Img.height());
      const int C = Img.channels();
      const float *Data = Img.data().data();
      for (int I = 0; I != N; ++I) {
        const int LX = At.X[I] + Inst.Ox, LY = At.Y[I] + Inst.Oy;
        D[I] = static_cast<unsigned>(LX) < IW && static_cast<unsigned>(LY) < IH
                   ? Data[(static_cast<size_t>(LY) * IW + LX) * C + Ch]
                   : sampleWithBorder(Img, LX, LY, Ch, Stage.Border,
                                      Stage.BorderConstant);
      }
      break;
    }
    case VmOp::StageCall: {
      if (ShareExplicitCalls && Inst.Channel >= 0 &&
          writtenOnlyBy(Stage.Code, static_cast<size_t>(&Inst - First)))
        break;
      const VmStage &Callee = SP.Stages[Inst.Sel];
      RingLanes CalleeAt;
      bool IsConstant[N];
      bool AnyConstant = false;
      for (int I = 0; I != N; ++I) {
        int TX = At.X[I] + Inst.Ox, TY = At.Y[I] + Inst.Oy;
        IsConstant[I] = false;
        const bool Exterior =
            TX < 0 || TX >= Callee.OutW || TY < 0 || TY >= Callee.OutH;
        if (Exterior && UseIndexExchange) {
          // Index exchange (Section IV-B) per the consuming stage's
          // border handling, as in runStagedVm.
          const int EX = exchangeIndex(TX, Callee.OutW, Stage.Border);
          const int EY = exchangeIndex(TY, Callee.OutH, Stage.Border);
          if (EX < 0 || EY < 0) {
            IsConstant[I] = AnyConstant = true;
            TX = std::clamp(TX, 0, Callee.OutW - 1);
            TY = std::clamp(TY, 0, Callee.OutH - 1);
          } else {
            TX = EX;
            TY = EY;
          }
        }
        CalleeAt.X[I] = TX;
        CalleeAt.Y[I] = TY;
      }
      laneCopy(D, evalStagedRing(SP, Inst.Sel, Pool, CalleeAt,
                                 Inst.Channel < 0 ? Channel : Inst.Channel,
                                 LaneRegs, UseIndexExchange, false));
      if (AnyConstant)
        for (int I = 0; I != N; ++I)
          if (IsConstant[I])
            D[I] = Stage.BorderConstant;
      break;
    }
    default:
      KF_UNREACHABLE("not a placement op");
    }
  });
}

} // namespace

void kf::runStagedVmRing(const StagedVmProgram &SP, uint16_t RootStage,
                         const std::vector<Image> &Pool, const int *Xs,
                         const int *Ys, int Count, int Channels,
                         float *LaneRegs, float *OutBase, int OutWidth,
                         bool UseIndexExchange) {
  assert(Count > 0 && Count <= VmLaneWidth && "ring chunk of 1..64 pixels");
  // Pad the chunk to full width with its last pixel: the padding lanes
  // repeat real work and are never stored.
  RingLanes At;
  for (int I = 0; I != VmLaneWidth; ++I) {
    At.X[I] = Xs[std::min(I, Count - 1)];
    At.Y[I] = Ys[std::min(I, Count - 1)];
  }
  for (int C = 0; C != Channels; ++C) {
    // Root-level calls with an explicit channel do not depend on the
    // destination channel: computed on the first pass, reused after.
    const float *Result = evalStagedRing(SP, RootStage, Pool, At, C, LaneRegs,
                                         UseIndexExchange, C > 0);
    for (int I = 0; I != Count; ++I)
      OutBase[(static_cast<size_t>(Ys[I]) * OutWidth + Xs[I]) * Channels +
              C] = Result[I];
  }
}

//===----------------------------------------------------------------------===//
// Overlapped tiling
//===----------------------------------------------------------------------===//

OverlapSchedule kf::buildOverlapSchedule(const StagedVmProgram &SP,
                                         uint16_t Root, int Channels) {
  OverlapSchedule Schedule;
  if (!SP.UniformExtents || Root >= SP.Stages.size() || Channels <= 0)
    return Schedule; // Valid stays false: no interior, no planes.

  // Per demanded (stage, channel) of the stages before the root (stage
  // calls only target preceding stages): the largest margin over all
  // destination channels, and how many destination channels demand it.
  struct Demand {
    int Margin = 0;
    int Channels = 0;
  };
  std::vector<std::map<int, Demand>> Merged(Root);
  for (int C = 0; C != Channels; ++C) {
    // Margin per (stage, channel) this destination channel demands: the
    // maximum stage-call distance from the root. Walking stages in
    // decreasing index is a reverse topological order, so a stage's
    // margin is final before its own calls are expanded.
    std::vector<std::map<int, int>> Margin(Root + 1);
    Margin[Root][C] = 0;
    for (int S = Root; S >= 0; --S) {
      for (const auto &[Ch, M] : Margin[S]) {
        for (const VmInst &Inst : SP.Stages[S].Code.Insts) {
          if (Inst.Op != VmOp::StageCall)
            continue;
          assert(Inst.Sel < S && "stage call to a non-preceding stage");
          int Off = std::max(std::abs(static_cast<int>(Inst.Ox)),
                             std::abs(static_cast<int>(Inst.Oy)));
          int CalleeCh = Inst.Channel < 0 ? Ch : Inst.Channel;
          auto [It, Inserted] = Margin[Inst.Sel].emplace(CalleeCh, M + Off);
          if (!Inserted)
            It->second = std::max(It->second, M + Off);
        }
      }
    }
    for (int S = 0; S != static_cast<int>(Root); ++S)
      for (const auto &[Ch, M] : Margin[S]) {
        Demand &D = Merged[S][Ch];
        D.Margin = std::max(D.Margin, M);
        ++D.Channels;
      }
  }
  // Materialization order: ascending stage index puts every callee
  // before its callers, so a plane only reads already-filled planes. A
  // callee's merged margin still covers every caller plane plus the call
  // offset: the destination channel that set the caller's maximum also
  // demanded the callee at least that much farther out.
  for (int S = 0; S != static_cast<int>(Root); ++S)
    for (const auto &[Ch, D] : Merged[S]) {
      Schedule.Planes.push_back(
          {static_cast<uint16_t>(S), static_cast<int16_t>(Ch), D.Margin});
      Schedule.MaxMargin = std::max(Schedule.MaxMargin, D.Margin);
      Schedule.SharedPlanes |= D.Channels > 1;
    }
  Schedule.Valid = true;
  return Schedule;
}

size_t kf::overlapPlaneFloats(const OverlapSchedule &Schedule, int RootW,
                              int RootH) {
  size_t Floats = 0;
  for (const OverlapPlane &Plane : Schedule.Planes)
    Floats += static_cast<size_t>(RootW + 2 * Plane.Margin) *
              (RootH + 2 * Plane.Margin);
  return Floats;
}

namespace {

/// A materialized plane during one runOverlappedTile call: the grown
/// region [X0, X0+W) x [Y0, Y0+H) backed by \p Data (pitch = W), with
/// \p Avail floats up to the end of the scratch, slack included.
struct PlaneView {
  int X0 = 0;
  int Y0 = 0;
  int W = 0;
  int H = 0;
  float *Data = nullptr;
  size_t Avail = 0;
};

/// Whether lanesInside holds for every pool load and plane read of stage
/// \p Stage over the region [RX0, RX1) x [RY0, RY1) at channel \p Ch.
template <class ResolveFn>
bool regionReadsInside(const VmStage &Stage, const std::vector<Image> &Pool,
                       int RX0, int RX1, int RY0, int RY1, int Ch,
                       ResolveFn &&Resolve) {
  for (const VmInst &Inst : Stage.Code.Insts) {
    const ReadBox At{Inst.Ox, Inst.Ox, Inst.Oy, Inst.Oy};
    if (Inst.Op == VmOp::Load &&
        !lanesInside(At, Pool[Stage.Inputs[Inst.InputIdx]], RY0, RY1, RX0,
                     RX1))
      return false;
    if (Inst.Op == VmOp::StageCall) {
      const PlaneView V =
          Resolve(Inst.Sel, Inst.Channel < 0 ? Ch : Inst.Channel);
      if (!lanesInside(At, V.W, V.H, V.Avail, RY0 - V.Y0, RY1 - V.Y0,
                       RX0 - V.X0, RX1 - V.X0))
        return false;
    }
  }
  return true;
}

/// Evaluates stage \p StageIdx of \p SP over region
/// [RX0, RX1) x [RY0, RY1) at channel \p Ch, resolving StageCall ops
/// against the plane views of \p Resolve, writing result (x, y) to
/// Dst[(y - RY0) * DstPitch + (x - RX0) * DstStride], streaming
/// evalRowImpl chunks (plane reads are contiguous lane copies). It runs
/// exactly the instruction streams the interior/halo strategy runs, so
/// values are bit-identical. Every read of the region is checked once,
/// up front (regionReadsInside).
template <class ResolveFn>
void evalOverlapRegion(const StagedVmProgram &SP, uint16_t StageIdx,
                       const std::vector<Image> &Pool, int RX0, int RX1,
                       int RY0, int RY1, int Ch, float *LaneRegs,
                       float *Dst, size_t DstPitch, int DstStride,
                       ResolveFn &&Resolve) {
  const VmStage &Stage = SP.Stages[StageIdx];
  assert(regionReadsInside(Stage, Pool, RX0, RX1, RY0, RY1, Ch, Resolve) &&
         "overlap region reads outside the interior or its planes");
  // The callee plane sample stage call Inst reads for pixel (X, Y).
  auto PlaneAt = [&](const VmInst &Inst, int X, int Y) {
    const PlaneView V =
        Resolve(Inst.Sel, Inst.Channel < 0 ? Ch : Inst.Channel);
    return V.Data + static_cast<size_t>(Y + Inst.Oy - V.Y0) * V.W +
           (X + Inst.Ox - V.X0);
  };
  float *Frame = LaneRegs + static_cast<size_t>(Stage.RegBase) * VmLaneWidth;
  for (int Y = RY0; Y != RY1; ++Y) {
    float *DstRow = Dst + static_cast<size_t>(Y - RY0) * DstPitch;
    forEachLaneChunk(RX0, RX1, [&](int C0, int From, int To) {
      const float *Result =
          evalRowImpl(Stage.Code, Pool, Stage.Inputs, Y, C0, Ch, Frame,
                      [&](const VmInst &Inst, float *D) {
                        laneCopy(D, PlaneAt(Inst, C0, Y));
                      });
      laneStore(From, To, DstRow + static_cast<size_t>(C0 - RX0) * DstStride,
                DstStride, Result);
    });
  }
}

} // namespace

void kf::runOverlappedTile(const StagedVmProgram &SP, uint16_t Root,
                           const OverlapSchedule &Schedule,
                           const std::vector<Image> &Pool, int X0, int X1,
                           int Y0, int Y1, int Channels, float *PlaneScratch,
                           float *LaneRegs, float *OutBase, int OutWidth,
                           OverlapTileStats *Stats) {
  assert(Schedule.Valid && "overlapped execution without a valid schedule");
  const int RootW = X1 - X0, RootH = Y1 - Y0;
  if (RootW <= 0 || RootH <= 0)
    return;
  const long long RootArea = static_cast<long long>(RootW) * RootH;
  const size_t ScratchFloats =
      overlapPlaneFloats(Schedule, RootW, RootH) + VmLaneWidth;

  // Planes lie back to back in the scratch, in schedule order; a plane's
  // view follows from the tile, its margin and the areas before it, so
  // views are derived on the fly and the tile loop never allocates.
  auto ViewAt = [&](const OverlapPlane &Plane, size_t Offset) {
    PlaneView V;
    V.X0 = X0 - Plane.Margin;
    V.Y0 = Y0 - Plane.Margin;
    V.W = RootW + 2 * Plane.Margin;
    V.H = RootH + 2 * Plane.Margin;
    V.Data = PlaneScratch + Offset;
    V.Avail = ScratchFloats - Offset;
    return V;
  };
  auto Resolve = [&](uint16_t Stage, int Ch) {
    // The plane list is tiny (demanded stages x channels); a linear scan
    // beats a hash per stage-call instruction.
    size_t Offset = 0;
    for (const OverlapPlane &Plane : Schedule.Planes) {
      PlaneView V = ViewAt(Plane, Offset);
      if (Plane.Stage == Stage && Plane.Channel == Ch)
        return V;
      Offset += static_cast<size_t>(V.W) * V.H;
    }
    KF_UNREACHABLE("stage call outside the overlap schedule");
  };

  // Materialize every plane once (callees first), then run the root per
  // destination channel straight into the destination image.
  size_t Offset = 0;
  for (const OverlapPlane &Plane : Schedule.Planes) {
    const PlaneView V = ViewAt(Plane, Offset);
    evalOverlapRegion(SP, Plane.Stage, Pool, V.X0, V.X0 + V.W, V.Y0,
                      V.Y0 + V.H, Plane.Channel, LaneRegs, V.Data, V.W, 1,
                      Resolve);
    const long long Area = static_cast<long long>(V.W) * V.H;
    Offset += static_cast<size_t>(Area);
    if (Stats) {
      Stats->OverlapPixels += Area - RootArea;
      Stats->ComputedPixels += Area;
    }
  }
  for (int C = 0; C != Channels; ++C)
    evalOverlapRegion(SP, Root, Pool, X0, X1, Y0, Y1, C, LaneRegs,
                      OutBase +
                          (static_cast<size_t>(Y0) * OutWidth + X0) *
                              Channels +
                          C,
                      static_cast<size_t>(OutWidth) * Channels, Channels,
                      Resolve);
  if (Stats)
    Stats->ComputedPixels += RootArea * Channels;
}
