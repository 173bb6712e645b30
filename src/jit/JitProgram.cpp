//===- jit/JitProgram.cpp -------------------------------------------------===//

#include "jit/JitProgram.h"

#include "analysis/BytecodeValidator.h"
#include "ir/LaneOps.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <type_traits>

using namespace kf;

namespace {

//===--------------------------------------------------------------------===//
// Precompiled op templates
//===--------------------------------------------------------------------===//
//
// Every template runs one chunk of VmLaneWidth lanes, the compile-time trip
// count its lane loops compile to packed SIMD with. The loops themselves
// are the span interpreter's (ir/LaneOps.h), so every lane computes the
// identical float operation sequence -- bit-identity with span mode is by
// construction.

static_assert(sizeof(JitCell) == 64, "a cell is one cache line");

/// Where a cell reads an operand from (the JitOperand fields it uses).
enum class Arg : uint8_t {
  Reg, ///< A lane register.
  Img, ///< An interior mono image row, read in place of a Load register.
  Imm, ///< An immediate, read in place of a Const register.
};

template <Arg K> using ArgTag = std::integral_constant<Arg, K>;

/// The first sample an interior load of \p O reads for the chunk: the
/// image row at (X0 + Ox, Y + Oy) in channel \p Ch, \p Mono specializing
/// the single-channel (stride-1) layout every grayscale stage hits.
/// Unchecked: runJitSpan checked every read of the span once
/// (JitProgram::Reads).
template <bool Mono>
[[gnu::always_inline]] inline const float *
imageRow(const JitOperand &O, const JitExec &E, int Ch) {
  const Image &Img = (*E.Pool)[O.Image];
  const int Stride = Mono ? 1 : Img.channels();
  return Img.data().data() +
         (static_cast<size_t>(E.Y + O.Oy) * Img.width() + (E.X0 + O.Ox)) *
             Stride +
         Ch;
}

/// Operand \p O read as kind \p K: a lane pointer for a register or an
/// image row, a LaneImm for an immediate.
template <Arg K>
[[gnu::always_inline]] inline auto operand(const JitOperand &O,
                                           const JitExec &E) {
  if constexpr (K == Arg::Reg)
    return static_cast<const float *>(E.Lanes + O.Reg);
  else if constexpr (K == Arg::Img)
    return imageRow<true>(O, E, O.Channel < 0 ? E.Channel : O.Channel);
  else
    return LaneImm{O.Imm};
}

void opConst(const JitCell &C, JitExec &E) {
  laneFill(E.Lanes + C.Dst, C.A.Imm);
}

void opCoordX(const JitCell &C, JitExec &E) {
  // Ox is the accumulated stage-call displacement.
  laneIota(E.Lanes + C.Dst, E.X0 + C.A.Ox);
}

void opCoordY(const JitCell &C, JitExec &E) {
  laneFill(E.Lanes + C.Dst, static_cast<float>(E.Y + C.A.Oy));
}

/// Interior load. \p DynChannel distinguishes cells whose channel was
/// pinned at compile time from cells that read the launch channel.
template <bool Mono, bool DynChannel>
void opLoad(const JitCell &C, JitExec &E) {
  const float *Base =
      imageRow<Mono>(C.A, E, DynChannel ? E.Channel : C.A.Channel);
  if constexpr (Mono)
    laneCopy(E.Lanes + C.Dst, Base);
  else
    laneGather(E.Lanes + C.Dst, Base, (*E.Pool)[C.A.Image].channels());
}

/// An ALU op. Unfused cells read registers only; the binary ops also come
/// with an immediate or an image row on either side (never both
/// immediates). A fused Add or Mul of two lane pointers reads its second
/// operand through LaneAfterNaN, so the first operand's NaN wins as it
/// does in the interpreter's register-to-register loop.
template <VmOp Op, Arg KA = Arg::Reg, Arg KB = Arg::Reg>
void opAlu(const JitCell &C, JitExec &E) {
  auto A = operand<KA>(C.A, E);
  auto B = operand<KB>(C.B, E);
  constexpr bool Commutative = Op == VmOp::Add || Op == VmOp::Mul;
  constexpr bool Fused = KA != Arg::Reg || KB != Arg::Reg;
  if constexpr (Commutative && Fused && KA != Arg::Imm && KB != Arg::Imm)
    laneAlu<Op>(E.Lanes + C.Dst, A,
                LaneAfterNaN<decltype(A), decltype(B)>{A, B}, nullptr);
  else
    laneAlu<Op>(E.Lanes + C.Dst, A, B, E.Lanes + C.C.Reg);
}

/// A fused multiply-add: A + B * C, or B * C + A unless \p AccFirst.
template <bool AccFirst, Arg KR, Arg KX, Arg KY>
void opMulAdd(const JitCell &C, JitExec &E) {
  laneMulAdd<AccFirst>(E.Lanes + C.Dst, operand<KR>(C.A, E),
                       operand<KX>(C.B, E), operand<KY>(C.C, E));
}

/// The register-copy cell a flattened StageCall leaves behind: moves the
/// inlined callee's result lanes into the caller's destination register
/// (the assignment the interpreter performs when the recursive call
/// returns). Cell fusion forwards most of them to their readers.
void opCopy(const JitCell &C, JitExec &E) {
  laneCopy(E.Lanes + C.Dst, E.Lanes + C.A.Reg);
}

//===--------------------------------------------------------------------===//
// Flattening (stage-call inlining) and cell patching
//===--------------------------------------------------------------------===//

/// A cell before template selection: the patched operands plus the facts
/// needed to pick the op template.
struct CellSpec {
  VmOp Op = VmOp::Const;
  bool MonoLoad = false; ///< Load from a single-channel image.
  bool CopyCell = false; ///< StageCall's trailing register copy.
  bool MulAdd = false;   ///< Fused Add of a Mul: A + B * C or B * C + A.
  bool AccFirst = true;  ///< MulAdd: the accumulator A is the left addend.
  bool Dead = false;     ///< Dropped by cell fusion: nothing reads it.
  Arg Kind[3] = {Arg::Reg, Arg::Reg, Arg::Reg}; ///< How A, B, C are read.
  JitCell Cell;          ///< Fn left null; set by selectFn.
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
    // Size every stage's flattened stream first -- a callee precedes its
    // callers (KF-B05) -- so the cap is checked before anything is
    // emitted, and the cells are allocated once.
    std::vector<size_t> Size(Root + 1, 0);
    for (size_t S = 0; S <= Root; ++S)
      for (const VmInst &Inst : SP.Stages[S].Code.Insts)
        Size[S] = std::min(MaxCells + 1,
                           Size[S] + 1 +
                               (Inst.Op == VmOp::StageCall ? Size[Inst.Sel]
                                                           : 0));
    if (Size[Root] == 0 || Size[Root] > MaxCells)
      return false;
    Cells.reserve(Size[Root]);
    emitStage(Root, /*Ox=*/0, /*Oy=*/0, /*Channel=*/-1);
    return true;
  }

  std::vector<CellSpec> &cells() { return Cells; }

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
      if (Inst.Op == VmOp::StageCall) {
        // Inline the callee at the accumulated displacement (KF-B05
        // guarantees Sel < StageIdx, so this recursion is finite), then
        // copy its result register into the caller's destination.
        int CalleeCh = Inst.Channel < 0 ? Channel : Inst.Channel;
        emitStage(Inst.Sel, Ox + Inst.Ox, Oy + Inst.Oy, CalleeCh);
        CellSpec Copy;
        Copy.Op = VmOp::StageCall;
        Copy.CopyCell = true;
        Copy.Cell.Dst = frameOffset(Stage, Inst.Dst);
        Copy.Cell.A.Reg = resultOffset(Inst.Sel);
        Cells.push_back(Copy);
        continue;
      }
      CellSpec CS;
      CS.Op = Inst.Op;
      JitCell &C = CS.Cell;
      C.Dst = frameOffset(Stage, Inst.Dst);
      switch (Inst.Op) {
      case VmOp::Const:
        C.A.Imm = Inst.Imm;
        break;
      case VmOp::CoordX:
      case VmOp::CoordY:
        C.A.Ox = Ox;
        C.A.Oy = Oy;
        break;
      case VmOp::Load:
        C.A.Image = Stage.Inputs[Inst.InputIdx];
        C.A.Ox = Ox + Inst.Ox;
        C.A.Oy = Oy + Inst.Oy;
        C.A.Channel = Inst.Channel < 0 ? Channel : Inst.Channel;
        CS.MonoLoad = Shapes[C.A.Image].Channels == 1;
        break;
      default: // ALU ops and Select.
        C.A.Reg = frameOffset(Stage, Inst.A);
        C.B.Reg = frameOffset(Stage, Inst.B);
        C.C.Reg = frameOffset(Stage, Inst.Sel);
        break;
      }
      Cells.push_back(CS);
    }
  }

  const StagedVmProgram &SP;
  const std::vector<ImageInfo> &Shapes;
  std::vector<CellSpec> Cells;
};

//===--------------------------------------------------------------------===//
// Cell fusion
//===--------------------------------------------------------------------===//

/// The operand slots of a cell, in the order A, B, C.
constexpr JitOperand JitCell::*Slots[] = {&JitCell::A, &JitCell::B,
                                          &JitCell::C};

/// How many of a cell's slots it reads (A, then B, then C).
int operandCount(const CellSpec &CS) {
  if (CS.MulAdd)
    return 3;
  if (CS.CopyCell)
    return 1;
  switch (CS.Op) {
  case VmOp::Const:
  case VmOp::CoordX:
  case VmOp::CoordY:
  case VmOp::Load:
    return 0;
  case VmOp::Neg:
  case VmOp::Abs:
  case VmOp::Sqrt:
  case VmOp::Exp:
  case VmOp::Log:
  case VmOp::Floor:
    return 1;
  case VmOp::Select:
    return 3;
  default:
    return 2;
  }
}

/// The binary ops with a template for every operand kind on either side.
bool isFusableBinary(VmOp Op) {
  switch (Op) {
  case VmOp::Add:
  case VmOp::Sub:
  case VmOp::Mul:
  case VmOp::Div:
  case VmOp::Min:
  case VmOp::Max:
  case VmOp::CmpLT:
  case VmOp::CmpGT:
    return true;
  default:
    return false;
  }
}

/// The peephole pass over a flattened chain, in place; dropped cells are
/// marked Dead. One forward scan keeps, per register, the cell that last
/// wrote it (Def) and how many times it was written (Version); every cell
/// records the version of each register it reads. A cell may take an operand from an earlier cell
/// only while every register that value came from still holds the version
/// that cell read -- repeated calls to one callee reuse its frame, so a
/// stage call's result register is rewritten by the next call. Const and
/// Load values depend on no register (pool images are immutable during a
/// launch, which never reads its own output), so they fold anywhere. One
/// backward liveness scan then drops every cell whose result nothing
/// reads; the root result register is live at the end of the chain, so
/// its last writer always stays. Every array is dense, sized by the
/// register count or the cell count.
void fuseCells(std::vector<CellSpec> &Cells, unsigned NumRegs,
               uint32_t ResultOffset) {
  auto regOf = [](uint32_t Offset) { return Offset / VmLaneWidth; };
  std::vector<int> Def(NumRegs, -1);
  std::vector<uint32_t> Version(NumRegs, 0);
  std::vector<std::array<uint32_t, 3>> ReadVersion(Cells.size());
  std::vector<char> Live(NumRegs, 0);

  auto slot = [](CellSpec &CS, int S) -> JitOperand & {
    return CS.Cell.*Slots[S];
  };
  // Whether slot S of cell D still reads what it read when D ran.
  auto unchanged = [&](int D, int S) {
    return Cells[D].Kind[S] != Arg::Reg ||
           Version[regOf(slot(Cells[D], S).Reg)] == ReadVersion[D][S];
  };
  // Folds a Const or mono Load definition into register slot S of CS.
  // The two factors of a product, or the two operands of a binary op,
  // are never both immediates (no template takes that form).
  auto fold = [&](CellSpec &CS, int S, int Other) {
    if (CS.Kind[S] != Arg::Reg)
      return;
    JitOperand &O = slot(CS, S);
    const int D = Def[regOf(O.Reg)];
    if (D < 0)
      return;
    const CellSpec &Src = Cells[D];
    if (Src.Op == VmOp::Const && (Other < 0 || CS.Kind[Other] != Arg::Imm)) {
      O = JitOperand();
      O.Imm = Src.Cell.A.Imm;
      CS.Kind[S] = Arg::Imm;
    } else if (Src.Op == VmOp::Load && Src.MonoLoad) {
      O = Src.Cell.A;
      CS.Kind[S] = Arg::Img;
    }
  };

  for (size_t J = 0; J != Cells.size(); ++J) {
    CellSpec &CS = Cells[J];
    const int Operands = operandCount(CS);
    // Read the callee's result register in place of the stage call's
    // copy of it, while that register still holds what was copied.
    for (int S = 0; S != Operands; ++S) {
      JitOperand &O = slot(CS, S);
      for (int D = Def[regOf(O.Reg)];
           D >= 0 && Cells[D].CopyCell && unchanged(D, 0);
           D = Def[regOf(O.Reg)])
        O.Reg = Cells[D].Cell.A.Reg;
      // Read before any write of the chain (the validator's KF-B03 rules
      // this out): the value crosses chunks, so its writer stays.
      if (Def[regOf(O.Reg)] < 0)
        Live[regOf(O.Reg)] = 1;
    }
    // An Add of a Mul whose factors still hold: one multiply-add cell,
    // the product being either addend. Matched on the Add's registers,
    // before any of them is folded.
    if (CS.Op == VmOp::Add) {
      for (int M : {1, 0}) {
        const int D = Def[regOf(slot(CS, M).Reg)];
        if (D < 0 || Cells[D].Op != VmOp::Mul || !unchanged(D, 0) ||
            !unchanged(D, 1))
          continue;
        const CellSpec &Mul = Cells[D];
        CS.Cell.A = slot(CS, 1 - M);
        CS.Cell.B = Mul.Cell.A;
        CS.Cell.C = Mul.Cell.B;
        CS.Kind[1] = Mul.Kind[0];
        CS.Kind[2] = Mul.Kind[1];
        CS.MulAdd = true;
        CS.AccFirst = M == 1;
        break;
      }
    }
    if (CS.MulAdd) {
      fold(CS, 0, -1);
      fold(CS, 1, 2);
      fold(CS, 2, 1);
    } else if (isFusableBinary(CS.Op)) {
      fold(CS, 0, 1);
      fold(CS, 1, 0);
    }
    for (int S = 0; S != operandCount(CS); ++S)
      if (CS.Kind[S] == Arg::Reg)
        ReadVersion[J][S] = Version[regOf(slot(CS, S).Reg)];
    const uint32_t Dst = regOf(CS.Cell.Dst);
    ++Version[Dst];
    Def[Dst] = static_cast<int>(J);
  }

  Live[regOf(ResultOffset)] = 1;
  for (size_t J = Cells.size(); J-- != 0;) {
    CellSpec &CS = Cells[J];
    const uint32_t Dst = regOf(CS.Cell.Dst);
    if (!Live[Dst]) {
      CS.Dead = true;
      continue;
    }
    Live[Dst] = 0;
    for (int S = 0; S != operandCount(CS); ++S)
      if (CS.Kind[S] == Arg::Reg)
        Live[regOf(slot(CS, S).Reg)] = 1;
  }
}

//===--------------------------------------------------------------------===//
// Template selection
//===--------------------------------------------------------------------===//

/// Returns Fn(ArgTag<K>{}): turns a runtime operand kind into a template
/// argument.
template <class F> JitOpFn withArg(Arg K, F &&Fn) {
  switch (K) {
  case Arg::Reg:
    return Fn(ArgTag<Arg::Reg>{});
  case Arg::Img:
    return Fn(ArgTag<Arg::Img>{});
  case Arg::Imm:
    return Fn(ArgTag<Arg::Imm>{});
  }
  return nullptr;
}

/// The binary op template for \p CS's operand kinds.
template <VmOp Op> JitOpFn binaryFn(const CellSpec &CS) {
  return withArg(CS.Kind[0], [&](auto A) {
    return withArg(CS.Kind[1], [&](auto B) -> JitOpFn {
      constexpr Arg KA = decltype(A)::value, KB = decltype(B)::value;
      if constexpr (KA == Arg::Imm && KB == Arg::Imm)
        return nullptr;
      else
        return opAlu<Op, KA, KB>;
    });
  });
}

/// The multiply-add template for \p CS's operand kinds and order.
JitOpFn mulAddFn(const CellSpec &CS) {
  return withArg(CS.Kind[0], [&](auto R) {
    return withArg(CS.Kind[1], [&](auto X) {
      return withArg(CS.Kind[2], [&](auto Y) -> JitOpFn {
        constexpr Arg KR = decltype(R)::value, KX = decltype(X)::value,
                      KY = decltype(Y)::value;
        if constexpr (KX == Arg::Imm && KY == Arg::Imm)
          return nullptr;
        else
          return CS.AccFirst ? opMulAdd<true, KR, KX, KY>
                             : opMulAdd<false, KR, KX, KY>;
      });
    });
  });
}

/// Picks the op template for \p CS.
JitOpFn selectFn(const CellSpec &CS) {
  if (CS.CopyCell)
    return opCopy;
  if (CS.MulAdd)
    return mulAddFn(CS);
  switch (CS.Op) {
  case VmOp::Const:
    return opConst;
  case VmOp::CoordX:
    return opCoordX;
  case VmOp::CoordY:
    return opCoordY;
  case VmOp::Load:
    if (CS.MonoLoad)
      return CS.Cell.A.Channel < 0 ? opLoad<true, true>
                                   : opLoad<true, false>;
    return CS.Cell.A.Channel < 0 ? opLoad<false, true>
                                 : opLoad<false, false>;
  case VmOp::Add:
    return binaryFn<VmOp::Add>(CS);
  case VmOp::Sub:
    return binaryFn<VmOp::Sub>(CS);
  case VmOp::Mul:
    return binaryFn<VmOp::Mul>(CS);
  case VmOp::Div:
    return binaryFn<VmOp::Div>(CS);
  case VmOp::Min:
    return binaryFn<VmOp::Min>(CS);
  case VmOp::Max:
    return binaryFn<VmOp::Max>(CS);
  case VmOp::Pow:
    return opAlu<VmOp::Pow>;
  case VmOp::CmpLT:
    return binaryFn<VmOp::CmpLT>(CS);
  case VmOp::CmpGT:
    return binaryFn<VmOp::CmpGT>(CS);
  case VmOp::Neg:
    return opAlu<VmOp::Neg>;
  case VmOp::Abs:
    return opAlu<VmOp::Abs>;
  case VmOp::Sqrt:
    return opAlu<VmOp::Sqrt>;
  case VmOp::Exp:
    return opAlu<VmOp::Exp>;
  case VmOp::Log:
    return opAlu<VmOp::Log>;
  case VmOp::Floor:
    return opAlu<VmOp::Floor>;
  case VmOp::Select:
    return opAlu<VmOp::Select>;
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
  std::vector<CellSpec> &Cells = Flat.cells();
  JP->FlatInsts = Cells.size();
  fuseCells(Cells, SP.NumRegs, JP->ResultOffset);
  const size_t Live = std::count_if(
      Cells.begin(), Cells.end(), [](const CellSpec &CS) { return !CS.Dead; });
  JP->Chain.reserve(Live + 1);
  for (const CellSpec &CS : Cells) {
    // Every image operand is a flattened load's, so the loads, live or
    // not, bound the chain's reads (runJitSpan's check).
    if (CS.Op == VmOp::Load) {
      const JitOperand &O = CS.Cell.A;
      auto It = std::find_if(
          JP->Reads.begin(), JP->Reads.end(),
          [&](const JitRead &R) { return R.Image == O.Image; });
      if (It == JP->Reads.end())
        It = JP->Reads.insert(It, {O.Image, PoolShapes[O.Image].Channels,
                                   {O.Ox, O.Ox, O.Oy, O.Oy}});
      ReadBox &B = It->Box;
      B = {std::min(B.MinOx, O.Ox), std::max(B.MaxOx, O.Ox),
           std::min(B.MinOy, O.Oy), std::max(B.MaxOy, O.Oy)};
    }
    if (CS.Dead)
      continue;
    JitCell Cell = CS.Cell;
    Cell.Fn = selectFn(CS);
    if (!Cell.Fn)
      return nullptr; // Unpatchable op: refuse rather than mis-execute.
    JP->Chain.push_back(Cell);
  }
  JP->Chain.push_back(JitCell{}); // Null-Fn chain terminator.
  return JP;
}

void kf::runJitSpan(const JitProgram &JP, const std::vector<Image> &Pool,
                    int Y, int X0, int X1, int Channel, float *LaneRegs,
                    float *Out, int OutStride) {
  // The one check of the span's reads: the cells read image rows
  // unchecked, every chunk.
  assert((X1 <= X0 ||
          std::all_of(JP.Reads.begin(), JP.Reads.end(),
                      [&](const JitRead &R) {
                        const Image &Img = Pool[R.Image];
                        return Img.channels() == R.Channels &&
                               lanesInside(R.Box, Img, Y, Y + 1, X0, X1);
                      })) &&
         "JIT evaluation outside the interior region");
  JitExec E;
  E.Lanes = LaneRegs;
  E.Pool = &Pool;
  E.Y = Y;
  E.Channel = Channel;
  // Chunking mirrors runStagedVmSpan: every chunk runs the one chain over
  // VmLaneWidth lanes, whose loops carry that compile-time bound.
  forEachLaneChunk(X0, X1, [&](int C0, int From, int To) {
    E.X0 = C0;
    for (const JitCell *Cell = JP.Chain.data(); Cell->Fn; ++Cell)
      Cell->Fn(*Cell, E);
    laneStore(From, To, Out + static_cast<size_t>(C0 - X0) * OutStride,
              OutStride, LaneRegs + JP.ResultOffset);
  });
}
