//===- jit/JitProgram.h - Copy-and-patch JIT of fused bytecode --*- C++ -*-===//
///
/// \file
/// The JIT execution backend (VmMode::Jit): a validated staged VM program
/// is compiled once per plan into a flat chain of *cells*, each pairing a
/// precompiled op function with its patched operands (absolute lane-buffer
/// offsets, baked stage-call displacements, image ids). Executing a row
/// span then walks the chain once per chunk of VmLaneWidth lanes and calls
/// through plain function pointers -- a portable copy-and-patch /
/// direct-threaded realization that removes the interpreter's
/// switch-per-instruction-per-chunk from the interior loop. Every op loop
/// carries the compile-time bound VmLaneWidth (the lane loops are the span
/// interpreter's, ir/LaneOps.h), so it compiles to packed SIMD; a span
/// narrower than one lane runs one whole chunk and stores its own lanes.
///
/// Stage calls are flattened at compile time: each StageCall site inlines
/// the callee's instruction stream with the accumulated (Ox, Oy)
/// displacement and pinned channel baked into its coordinate and load
/// cells, followed by a register-copy cell into the caller's destination.
/// That reproduces, cell for cell, the operation sequence the span
/// interpreter executes recursively.
///
/// One linear peephole pass then fuses the flattened cells: Const and
/// interior mono Load operands are folded into the cell that reads them
/// (as an immediate or an in-place image read), an Add of a Mul becomes
/// one multiply-add cell, a stage call's result copy is forwarded to its
/// readers, and the cells left dead are dropped. A fused cell performs
/// the same float operations on the same values in the same operand
/// order; only where an operand is read from changes. So JIT results stay
/// bit-identical to span mode (the differential suites in
/// tests/test_jit.cpp pin this down). docs/VM.md lists the patterns.
///
/// The bytecode validator's invariants (KF-B01..B11, see
/// analysis/BytecodeValidator.h) are the contract this codegen trusts:
/// in-frame register indices, frames inside the shared scratch and
/// pairwise disjoint, strictly-backward stage calls, bounded call depth,
/// in-range load inputs. compileJitProgram therefore refuses -- returns
/// nullptr -- any program the validator rejects; corrupted bytecode never
/// reaches cell selection, let alone threaded execution.
///
//===----------------------------------------------------------------------===//

#ifndef KF_JIT_JITPROGRAM_H
#define KF_JIT_JITPROGRAM_H

#include "image/Image.h"
#include "ir/ExprVM.h"
#include "ir/Program.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace kf {

struct JitCell;

/// Per-chunk execution state threaded through the cell chain. Lanes is
/// the shared lane buffer (NumRegs * VmLaneWidth floats, the same scratch
/// span mode uses); the chunk is the VmLaneWidth lanes from (X0, Y).
struct JitExec {
  float *Lanes = nullptr;
  const std::vector<Image> *Pool = nullptr;
  int X0 = 0;
  int Y = 0;
  int Channel = 0;
};

/// A patched op function: performs one cell over the chunk described by
/// \p E, reading its operands from \p Cell.
using JitOpFn = void (*)(const JitCell &Cell, JitExec &E);

/// One operand of a cell. The cell's op template decides what it reads: a
/// lane register (Reg, an absolute float offset into the lane buffer:
/// frame base and register index collapsed at compile time), an immediate
/// (Imm), or an interior image read (Image at the chunk's position
/// displaced by (Ox, Oy), channel Channel; -1 = the launch channel at run
/// time). Coordinate cells read only Ox/Oy, the accumulated stage-call
/// displacement.
struct JitOperand {
  union {
    uint32_t Reg = 0;
    float Imm;
    ImageId Image;
  };
  int Ox = 0;
  int Oy = 0;
  int Channel = -1;
};

/// One patched cell: a precompiled op template plus its operands. A and B
/// are the operands of an ALU op, C the Select condition; a fused
/// multiply-add computes A + B * C (or B * C + A). One cache line.
struct JitCell {
  JitOpFn Fn = nullptr;
  uint32_t Dst = 0;
  JitOperand A;
  JitOperand B;
  JitOperand C;
};

/// One image a JIT program reads: the channel count its cells were
/// specialized for, and the box of offsets they read it at (relative to
/// the pixel, stage-call displacements included).
struct JitRead {
  ImageId Image = 0;
  int Channels = 1;
  ReadBox Box;
};

/// A compiled launch artifact: the cell chain (null-Fn terminated) plus
/// the layout facts the executor needs. Compiled once per plan
/// (sim/Session caches it in the PlanCache next to the bytecode) and
/// shared read-only across worker threads.
struct JitProgram {
  std::vector<JitCell> Chain; ///< The cells each chunk runs, in order.
  std::vector<JitRead> Reads; ///< Every image the cells read, once each.
  uint32_t ResultOffset = 0;  ///< Lane offset of the root result register.
  unsigned NumRegs = 0;       ///< Lane buffer = NumRegs * VmLaneWidth floats.
  size_t FlatInsts = 0;       ///< Flattened instruction count, before fusion.

  /// Cells each chunk executes: the flattened instructions left after
  /// cell fusion.
  size_t cells() const { return Chain.size() - 1; }
};

/// Compiles \p SP rooted at \p Root into a JIT program. Runs the bytecode
/// validator first and returns nullptr when it reports any error (the
/// validator's invariants are the contract the flattening trusts), or
/// when flattening would exceed the cell-count safety cap. \p PoolShapes
/// are the plan's image shapes, used both by the validator and to
/// specialize load cells on the input's channel stride.
std::shared_ptr<const JitProgram>
compileJitProgram(const StagedVmProgram &SP, uint16_t Root,
                  const std::vector<ImageInfo> &PoolShapes);

/// Executes \p JP over interior pixels [X0, X1) of row \p Y for
/// \p Channel, writing result i to Out[i * OutStride]. The span is
/// chunked into lanes exactly like runStagedVmSpan, and its reads are
/// checked once against JP.Reads (lanesInside: a span narrower than one
/// lane needs the rows below it for its dead lanes); \p LaneRegs must hold
/// JP.NumRegs * VmLaneWidth floats. Interior-only (direct loads),
/// bit-identical to span mode.
void runJitSpan(const JitProgram &JP, const std::vector<Image> &Pool,
                int Y, int X0, int X1, int Channel, float *LaneRegs,
                float *Out, int OutStride = 1);

} // namespace kf

#endif // KF_JIT_JITPROGRAM_H
