//===- jit/JitProgram.cpp -------------------------------------------------===//

#include "jit/JitProgram.h"

#include "analysis/BytecodeValidator.h"
#include "ir/LaneOps.h"

#include <cassert>

using namespace kf;

namespace {

//===--------------------------------------------------------------------===//
// Precompiled op templates
//===--------------------------------------------------------------------===//
//
// Every template is instantiated twice: N = VmLaneWidth gives the full
// chain its compile-time trip count (the lane loops compile to packed SIMD
// with no runtime bound checks), N = 0 gives the tail chain a runtime bound
// from the execution state. The loops themselves are the span
// interpreter's (ir/LaneOps.h), so every lane computes the identical float
// operation sequence -- bit-identity with span mode is by construction.

template <int N> void opConst(const JitCell &C, JitExec &E) {
  laneFill<N>(E.N, E.Lanes + C.Dst, C.Imm);
}

template <int N> void opCoordX(const JitCell &C, JitExec &E) {
  // Ox is the accumulated stage-call displacement.
  laneIota<N>(E.N, E.Lanes + C.Dst, E.X0 + C.Ox);
}

template <int N> void opCoordY(const JitCell &C, JitExec &E) {
  laneFill<N>(E.N, E.Lanes + C.Dst, static_cast<float>(E.Y + C.Oy));
}

/// Interior load. \p Mono specializes the single-channel (stride-1)
/// layout every grayscale stage hits; \p DynChannel distinguishes cells
/// whose channel was pinned at compile time from cells that read the
/// launch channel.
template <int N, bool Mono, bool DynChannel>
void opLoad(const JitCell &C, JitExec &E) {
  const int W = laneCount<N>(E.N);
  const Image &Img = (*E.Pool)[C.Image];
  assert(!Img.empty() && "reading an unmaterialized image");
  assert(!Mono || Img.channels() == 1);
  const int Ch = DynChannel ? E.Channel : C.Channel;
  const int Stride = Mono ? 1 : Img.channels();
  assert(E.Y + C.Oy >= 0 && E.Y + C.Oy < Img.height() &&
         E.X0 + C.Ox >= 0 && E.X0 + W - 1 + C.Ox < Img.width() &&
         "JIT evaluation outside the interior region");
  const float *Base =
      Img.data().data() +
      (static_cast<size_t>(E.Y + C.Oy) * Img.width() + (E.X0 + C.Ox)) *
          Stride +
      Ch;
  if constexpr (Mono)
    laneCopy<N>(W, E.Lanes + C.Dst, Base);
  else
    laneGather<N>(W, E.Lanes + C.Dst, Base, Stride);
}

template <int N, VmOp Op> void opAlu(const JitCell &C, JitExec &E) {
  laneAlu<N, Op>(E.N, E.Lanes + C.Dst, E.Lanes + C.A, E.Lanes + C.B,
                 E.Lanes + C.Sel);
}

/// The register-copy cell a flattened StageCall leaves behind: moves the
/// inlined callee's result lanes into the caller's destination register
/// (the assignment the interpreter performs when the recursive call
/// returns).
template <int N> void opCopy(const JitCell &C, JitExec &E) {
  laneCopy<N>(E.N, E.Lanes + C.Dst, E.Lanes + C.A);
}

//===--------------------------------------------------------------------===//
// Flattening (stage-call inlining) and cell patching
//===--------------------------------------------------------------------===//

/// A width-agnostic cell: the patched operands plus the facts needed to
/// pick the op template (the Fn pointer differs between the full and the
/// tail chain).
struct CellSpec {
  VmOp Op = VmOp::Const;
  bool MonoLoad = false; ///< Load from a single-channel image.
  bool CopyCell = false; ///< StageCall's trailing register copy.
  JitCell Cell;          ///< Fn left null; patched per chain.
};

/// Flattens a validated staged program rooted at one stage: stage calls
/// inline the callee's stream with accumulated displacements, so the cell
/// sequence equals the instruction sequence the span interpreter executes
/// per chunk. The cell count therefore mirrors per-chunk runtime work,
/// not program size -- MaxCells is a safety cap far above any registry
/// pipeline, mirroring the validator's call-depth cap.
class Flattener {
public:
  static constexpr size_t MaxCells = 1u << 20;

  Flattener(const StagedVmProgram &SP,
            const std::vector<ImageInfo> &Shapes)
      : SP(SP), Shapes(Shapes) {}

  bool run(uint16_t Root) {
    emitStage(Root, /*Ox=*/0, /*Oy=*/0, /*Channel=*/-1);
    return !Overflow && !Cells.empty();
  }

  const std::vector<CellSpec> &cells() const { return Cells; }

  uint32_t resultOffset(uint16_t Root) const {
    return frameOffset(SP.Stages[Root], SP.Stages[Root].Code.ResultReg);
  }

private:
  /// Absolute lane-buffer float offset of \p Reg in \p Stage's frame.
  /// KF-B02/B07/B11 guarantee the result lies inside the disjoint slice
  /// [RegBase, RegBase + NumRegs) * VmLaneWidth of the shared buffer.
  static uint32_t frameOffset(const VmStage &Stage, uint16_t Reg) {
    return (Stage.RegBase + Reg) * static_cast<uint32_t>(VmLaneWidth);
  }

  void emitStage(uint16_t StageIdx, int Ox, int Oy, int Channel) {
    const VmStage &Stage = SP.Stages[StageIdx];
    for (const VmInst &Inst : Stage.Code.Insts) {
      if (Cells.size() >= MaxCells) {
        Overflow = true;
        return;
      }
      if (Inst.Op == VmOp::StageCall) {
        // Inline the callee at the accumulated displacement (KF-B05
        // guarantees Sel < StageIdx, so this recursion is finite), then
        // copy its result register into the caller's destination.
        int CalleeCh = Inst.Channel < 0 ? Channel : Inst.Channel;
        emitStage(Inst.Sel, Ox + Inst.Ox, Oy + Inst.Oy, CalleeCh);
        if (Overflow)
          return;
        CellSpec Copy;
        Copy.Op = VmOp::StageCall;
        Copy.CopyCell = true;
        Copy.Cell.Dst = frameOffset(Stage, Inst.Dst);
        Copy.Cell.A = resultOffset(Inst.Sel);
        Cells.push_back(Copy);
        continue;
      }
      CellSpec CS;
      CS.Op = Inst.Op;
      JitCell &C = CS.Cell;
      C.Dst = frameOffset(Stage, Inst.Dst);
      switch (Inst.Op) {
      case VmOp::Const:
        C.Imm = Inst.Imm;
        break;
      case VmOp::CoordX:
      case VmOp::CoordY:
        C.Ox = Ox;
        C.Oy = Oy;
        break;
      case VmOp::Load:
        C.Image = Stage.Inputs[Inst.InputIdx];
        C.Ox = Ox + Inst.Ox;
        C.Oy = Oy + Inst.Oy;
        C.Channel = static_cast<int16_t>(
            Inst.Channel < 0 ? Channel : Inst.Channel);
        CS.MonoLoad = Shapes[C.Image].Channels == 1;
        break;
      default: // ALU ops and Select.
        C.A = frameOffset(Stage, Inst.A);
        C.B = frameOffset(Stage, Inst.B);
        C.Sel = frameOffset(Stage, Inst.Sel);
        break;
      }
      Cells.push_back(CS);
    }
  }

  const StagedVmProgram &SP;
  const std::vector<ImageInfo> &Shapes;
  std::vector<CellSpec> Cells;
  bool Overflow = false;
};

/// Picks the op template for \p CS at chain width \p N (VmLaneWidth for
/// the full chain, 0 = runtime bound for the tail chain).
template <int N> JitOpFn selectFn(const CellSpec &CS) {
  if (CS.CopyCell)
    return opCopy<N>;
  switch (CS.Op) {
  case VmOp::Const:
    return opConst<N>;
  case VmOp::CoordX:
    return opCoordX<N>;
  case VmOp::CoordY:
    return opCoordY<N>;
  case VmOp::Load:
    if (CS.MonoLoad)
      return CS.Cell.Channel < 0 ? opLoad<N, true, true>
                                 : opLoad<N, true, false>;
    return CS.Cell.Channel < 0 ? opLoad<N, false, true>
                               : opLoad<N, false, false>;
  case VmOp::Add:
    return opAlu<N, VmOp::Add>;
  case VmOp::Sub:
    return opAlu<N, VmOp::Sub>;
  case VmOp::Mul:
    return opAlu<N, VmOp::Mul>;
  case VmOp::Div:
    return opAlu<N, VmOp::Div>;
  case VmOp::Min:
    return opAlu<N, VmOp::Min>;
  case VmOp::Max:
    return opAlu<N, VmOp::Max>;
  case VmOp::Pow:
    return opAlu<N, VmOp::Pow>;
  case VmOp::CmpLT:
    return opAlu<N, VmOp::CmpLT>;
  case VmOp::CmpGT:
    return opAlu<N, VmOp::CmpGT>;
  case VmOp::Neg:
    return opAlu<N, VmOp::Neg>;
  case VmOp::Abs:
    return opAlu<N, VmOp::Abs>;
  case VmOp::Sqrt:
    return opAlu<N, VmOp::Sqrt>;
  case VmOp::Exp:
    return opAlu<N, VmOp::Exp>;
  case VmOp::Log:
    return opAlu<N, VmOp::Log>;
  case VmOp::Floor:
    return opAlu<N, VmOp::Floor>;
  case VmOp::Select:
    return opAlu<N, VmOp::Select>;
  case VmOp::StageCall:
    break; // Flattened away; only the copy cell remains.
  }
  return nullptr;
}

} // namespace

std::shared_ptr<const JitProgram>
kf::compileJitProgram(const StagedVmProgram &SP, uint16_t Root,
                      const std::vector<ImageInfo> &PoolShapes) {
  // The validator is the gate: every invariant the flattening and the op
  // templates rely on (KF-B01..B11) is checked here, and any error means
  // no artifact -- the caller falls back to the interpreter, which is the
  // one allowed to report the diagnostics.
  DiagnosticEngine DE;
  validateStagedProgram(SP, Root, PoolShapes, DE);
  if (DE.errorCount() > 0)
    return nullptr;
  // KF-B09 (non-finite constant immediate) is only a warning to the
  // interpreter, which evaluates whatever the constant is. The patched
  // Const cells assume finite immediates like every other baked operand,
  // so the JIT treats it as a refusal too: the launch falls back to the
  // span interpreter, which has well-defined NaN/inf semantics.
  if (DE.hasCode("KF-B09"))
    return nullptr;

  Flattener Flat(SP, PoolShapes);
  if (!Flat.run(Root))
    return nullptr;

  auto JP = std::make_shared<JitProgram>();
  JP->NumRegs = SP.NumRegs;
  JP->ResultOffset = Flat.resultOffset(Root);
  JP->FlatInsts = Flat.cells().size();
  JP->Full.reserve(JP->FlatInsts + 1);
  JP->Tail.reserve(JP->FlatInsts + 1);
  for (const CellSpec &CS : Flat.cells()) {
    JitCell Full = CS.Cell;
    Full.Fn = selectFn<VmLaneWidth>(CS);
    JitCell Tail = CS.Cell;
    Tail.Fn = selectFn<0>(CS);
    if (!Full.Fn || !Tail.Fn)
      return nullptr; // Unpatchable op: refuse rather than mis-execute.
    JP->Full.push_back(Full);
    JP->Tail.push_back(Tail);
  }
  JP->Full.push_back(JitCell{}); // Null-Fn chain terminators.
  JP->Tail.push_back(JitCell{});
  return JP;
}

void kf::runJitSpan(const JitProgram &JP, const std::vector<Image> &Pool,
                    int Y, int X0, int X1, int Channel, float *LaneRegs,
                    float *Out, int OutStride) {
  JitExec E;
  E.Lanes = LaneRegs;
  E.Pool = &Pool;
  E.Y = Y;
  E.Channel = Channel;
  // Chunking mirrors runStagedVmSpan: full-width chunks run the chain
  // whose op loops carry the compile-time VmLaneWidth bound; only a span
  // narrower than one lane runs the runtime-bound tail chain.
  forEachLaneChunk(X0, X1, [&](auto Width, int C0, int From, int W) {
    constexpr int N = decltype(Width)::value;
    E.X0 = C0;
    E.N = W;
    for (const JitCell *Cell = (N ? JP.Full : JP.Tail).data(); Cell->Fn;
         ++Cell)
      Cell->Fn(*Cell, E);
    laneStore<N>(From, W, Out + static_cast<size_t>(C0 - X0) * OutStride,
                 OutStride, LaneRegs + JP.ResultOffset);
  });
}
