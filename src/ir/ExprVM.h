//===- ir/ExprVM.h - Bytecode compilation of kernel bodies ------*- C++ -*-===//
///
/// \file
/// A linear bytecode representation of kernel bodies. Where the
/// interpreter in sim/Executor walks the AST per pixel (virtual dispatch
/// per node), the VM compiles a body once -- unrolling stencil loops and
/// folding mask coefficients and window offsets into immediate operands
/// -- and then evaluates a flat instruction stream into a register file.
///
/// Every launch compiles to a *staged* VM program (StagedVmProgram): one
/// subprogram per original kernel, where reads of eliminated intermediates
/// become StageCall instructions that evaluate the producer's subprogram at
/// an offset-shifted position -- the runtime mirror of the recompute-based
/// fusion of Section IV, including the index-exchange border handling of
/// Section IV-B. An unfused kernel is the trivial case: a one-stage
/// program, as the singleton partition (transform/Fuser's unfusedProgram)
/// yields. A launch splits its image into an interior, which skips every
/// border check, and a border ring of Reach[root] pixels, which runs the
/// bordered index-exchange path -- the interior/halo specialization the
/// generated GPU code performs.
///
/// Interior evaluation comes in three modes (VmMode):
///   - jit (the default): the launch's per-plan JIT artifact (src/jit), a
///     chain of native lane-loop cells; a launch without one runs span;
///   - span: each instruction streams across a whole row span through
///     fixed-width lane buffers (VmLaneWidth floats per register,
///     structure-of-arrays), written as plain contiguous loops
///     (ir/LaneOps.h) that compile to packed SIMD; a span narrower than a
///     lane runs one whole chunk and stores only its own lanes;
///   - scalar: every pixel of the launch, ring included, through
///     runStagedVm -- the per-pixel bytecode reference, kept as an escape
///     hatch; it ignores the tiling strategy.
///
/// The border ring runs one path under every mode: runStagedVmRing
/// evaluates up to VmLaneWidth arbitrary ring pixels at once for every
/// destination channel, through the same lane loops, with bordered loads
/// and index exchange per lane. runStagedVm is its per-pixel reference.
///
/// This is the evaluation path the benchmarks use for large images; the
/// tree walker stays the semantic reference (the test suite asserts
/// bit-identical results).
///
//===----------------------------------------------------------------------===//

#ifndef KF_IR_EXPRVM_H
#define KF_IR_EXPRVM_H

#include "image/Image.h"
#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace kf {

/// How the VM engines evaluate interior pixels.
enum class VmMode : uint8_t {
  /// Per-pixel bytecode reference: every pixel of a launch, border
  /// ring included, runs runStagedVm (one pass over the instruction
  /// stream per pixel, bordered loads, index exchange). Ignores the
  /// tiling strategy.
  Scalar,
  /// Batched row-span execution: each instruction runs across a whole
  /// span of interior pixels through fixed-width lane buffers.
  Span,
  /// JIT-compiled row-span execution: the validated staged bytecode is
  /// flattened (stage calls inlined with their offsets baked in) into a
  /// direct-threaded chain of specialized op functions compiled per plan
  /// (src/jit), removing per-instruction interpreter dispatch from the
  /// interior loop. Bit-identical to Span. A launch without a JIT
  /// artifact (the validator-gated compile refused it) runs Span.
  Jit,
};

/// Stable lower-case name of \p Mode ("scalar" / "span" / "jit").
const char *vmModeName(VmMode Mode);

/// How a fused launch decomposes the image across tiles.
enum class TilingStrategy : uint8_t {
  /// Each fused launch picks from its bytecode: Overlapped when its
  /// overlap schedule is valid and at least two destination channels
  /// demand the same producer plane (OverlapSchedule::SharedPlanes),
  /// InteriorHalo otherwise.
  Auto,
  /// The global interior/halo split of Section IV-B: one interior region
  /// per image runs the border-check-free fast path, the border ring the
  /// bordered slow path, and eliminated producers are recomputed
  /// recursively per read (stage-call recursion).
  InteriorHalo,
  /// Overlapped tiling: every interior tile independently materializes
  /// the eliminated producer stages it demands over the tile *grown by
  /// the producer's reach margin* into per-worker scratch planes, each
  /// (stage, channel) plane once per tile, then reads the planes instead
  /// of recomputing. Adjacent grown tiles
  /// overlap, so the margin cells are computed redundantly -- the classic
  /// redundant-compute-for-zero-synchronization trade (Jangda & Guha).
  /// Bit-identical to InteriorHalo; the border ring runs the bordered
  /// lane path (runStagedVmRing) either way.
  Overlapped,
};

/// Stable lower-case name of \p Strategy ("auto" / "interior" /
/// "overlapped").
const char *tilingStrategyName(TilingStrategy Strategy);

/// Whether session plan compilation runs the fact-gated bytecode
/// optimizer (ir/VmOptimizer.h) over the validated staged programs
/// before JIT lowering.
enum class OptMode : uint8_t {
  /// Run the interval-fact-gated rewrites (the default).
  On,
  /// Escape hatch: compile and execute the un-optimized bytecode
  /// exactly as the compiler emitted it.
  Off,
};

/// Stable lower-case name of \p Mode ("on" / "off").
const char *optModeName(OptMode Mode);

/// Lane width of the lane engines (span, JIT, border ring), and their only
/// chunk width: every register of a chunk is a contiguous block of this
/// many floats (structure of arrays), so the whole register file of a
/// chunk stays L1-resident independent of the image width. A span
/// narrower than a lane runs one chunk and stores only its own lanes.
constexpr int VmLaneWidth = 64;

/// The signed box of (Ox, Oy) offsets at which a lane program reads one
/// image, relative to the pixel a lane computes.
struct ReadBox {
  int MinOx = 0;
  int MaxOx = 0;
  int MinOy = 0;
  int MaxOy = 0;
};

/// VM opcodes. Loads read images with the owning kernel's border
/// handling; everything else operates on the register file.
enum class VmOp : uint8_t {
  Const,  ///< Dst = Imm.
  CoordX, ///< Dst = (float)x.
  CoordY, ///< Dst = (float)y.
  Load,   ///< Dst = input[InputIdx] at (x + Ox, y + Oy), channel field.
  Add,    ///< Dst = A + B.
  Sub,
  Mul,
  Div,
  Min,
  Max,
  Pow,
  CmpLT,
  CmpGT,
  Neg,
  Abs,
  Sqrt,
  Exp,
  Log,
  Floor,
  Select,    ///< Dst = regs[C] != 0 ? A : B  (C in the Sel field).
  StageCall, ///< Dst = stage Sel of the staged program, evaluated at
             ///< (x + Ox, y + Oy) with the channel field's rules. Only
             ///< valid inside a StagedVmProgram.
};

/// One VM instruction (fixed width; unused fields are zero).
struct VmInst {
  VmOp Op = VmOp::Const;
  uint16_t Dst = 0;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t Sel = 0;     ///< Select condition register / StageCall callee.
  float Imm = 0.0f;     ///< Const immediate.
  int16_t InputIdx = 0; ///< Load: kernel input index.
  int16_t Ox = 0;       ///< Load/StageCall: x offset (stencil baked in).
  int16_t Oy = 0;       ///< Load/StageCall: y offset.
  int16_t Channel = -1; ///< Load/StageCall: -1 = current channel.
};

/// A compiled kernel body: the instruction stream of one VmStage.
struct VmProgram {
  std::vector<VmInst> Insts;
  uint16_t ResultReg = 0;
  unsigned NumRegs = 0;

  bool empty() const { return Insts.empty(); }
};

/// One stage of a staged (fused-kernel) VM program.
struct VmStage {
  VmProgram Code;              ///< Body; may contain StageCall ops.
  std::vector<ImageId> Inputs; ///< Pool image ids for Load ops.
  BorderMode Border = BorderMode::Clamp; ///< Owning kernel's border mode.
  float BorderConstant = 0.0f;
  int OutW = 0; ///< Extent of the stage's output image (index exchange
  int OutH = 0; ///< happens against this when the stage is a callee).
  unsigned RegBase = 0; ///< This stage's frame in the shared scratch.
};

/// A fused kernel compiled to bytecode: one subprogram per stage (in the
/// fused kernel's topological stage order), where every read of an
/// eliminated intermediate is a StageCall into the producer's subprogram.
/// Because the stage call graph is acyclic, each stage owns a fixed
/// register frame inside one shared scratch block of NumRegs floats.
struct StagedVmProgram {
  std::vector<VmStage> Stages;
  unsigned NumRegs = 0;

  /// Reach[i]: how far stage i's evaluation can read from its own
  /// position, transitively through stage calls -- the fused halo when
  /// i is a destination (Eq. 9's grown window, measured in pixels).
  std::vector<int> Reach;

  /// True when every stage output and every loaded input share one
  /// extent; only then is an interior region (border checks statically
  /// impossible) well-defined.
  bool UniformExtents = true;
};

/// Compiles kernels \p StageKernels of \p P (topological order) into a
/// staged program. Stencil reductions are fully unrolled: the instruction
/// count grows with the mask sizes. \p IsEliminated[i] marks stages whose
/// output image is eliminated by fusion: reads of those images from later
/// stages become StageCall instructions instead of pool loads.
/// sim/Executor uses this to compile FusedKernels (compileFusedKernel).
StagedVmProgram compileStagedProgram(const Program &P,
                                     const std::vector<KernelId> &StageKernels,
                                     const std::vector<bool> &IsEliminated);

/// Evaluates stage \p RootStage of \p SP at (X, Y, Channel) with full
/// border handling: pool loads are bordered, and exterior stage calls
/// apply the index exchange of Section IV-B (or, with
/// \p UseIndexExchange false, reproduce the incorrect naive border fusion
/// of Figure 4b by evaluating producers at raw exterior positions).
/// \p Regs must hold SP.NumRegs floats. The per-pixel reference of every
/// lane engine: VmMode::Scalar runs it at every pixel of a launch.
float runStagedVm(const StagedVmProgram &SP, uint16_t RootStage,
                  const std::vector<Image> &Pool, int X, int Y, int Channel,
                  float *Regs, bool UseIndexExchange = true);

/// Span-mode interior evaluation of a staged program: computes pixels
/// [X0, X1) of row \p Y for \p Channel in one call, writing result i to
/// Out[i * OutStride]. The span is chunked into lanes of VmLaneWidth
/// pixels (the last chunk overlapping its predecessor, a span narrower
/// than a lane running one whole chunk; see forEachLaneChunk and
/// lanesInside in ir/LaneOps.h, checked once per span); within a chunk
/// every stage's instruction stream runs instruction-major, and StageCall
/// ops recurse span-aware (the callee streams over the offset-shifted
/// chunk straight into the caller's destination lanes). Stage frames
/// partition the lane buffer at VmStage::RegBase * VmLaneWidth, so a
/// chunk never overruns a frame and the whole working set is
/// SP.NumRegs * VmLaneWidth floats whatever the span width. \p LaneRegs
/// must hold SP.NumRegs * VmLaneWidth floats. Bit-identical to per-pixel
/// runStagedVm.
void runStagedVmSpan(const StagedVmProgram &SP, uint16_t RootStage,
                     const std::vector<Image> &Pool, int Y, int X0, int X1,
                     int Channel, float *LaneRegs, float *Out,
                     int OutStride = 1);

/// Border-ring evaluation of a staged program: computes stage
/// \p RootStage at the \p Count (1..VmLaneWidth) pixels (Xs[i], Ys[i]),
/// which may lie anywhere in the destination, for every destination
/// channel [0, \p Channels), and stores pixel i's channel c to
/// OutBase[(Ys[i] * OutWidth + Xs[i]) * Channels + c]. The chunk runs at
/// full lane width (lanes past \p Count repeat the last pixel and are not
/// stored) with the semantics of runStagedVm per lane: bordered loads,
/// and stage calls index-exchanged per lane (raw positions without
/// \p UseIndexExchange) that recurse lane-wise into the callee's frame.
/// A root-level stage call with an explicit channel is evaluated once
/// per chunk and reused by every destination channel. \p LaneRegs must
/// hold SP.NumRegs * VmLaneWidth floats (the span-mode layout).
/// Bit-identical to runStagedVm.
void runStagedVmRing(const StagedVmProgram &SP, uint16_t RootStage,
                     const std::vector<Image> &Pool, const int *Xs,
                     const int *Ys, int Count, int Channels, float *LaneRegs,
                     float *OutBase, int OutWidth,
                     bool UseIndexExchange = true);

//===----------------------------------------------------------------------===//
// Overlapped tiling (TilingStrategy::Overlapped)
//===----------------------------------------------------------------------===//

/// One scratch plane of the overlapped execution strategy: stage
/// \p Stage evaluated at concrete channel \p Channel over the
/// destination tile grown by \p Margin pixels on every side. The margin
/// is the transitive stage-call distance from the root, so every plane
/// cell a consumer reads (at offsets up to the call offset) lies inside
/// the callee's own, larger plane.
struct OverlapPlane {
  uint16_t Stage = 0;
  int16_t Channel = 0;
  int Margin = 0;
};

/// The compile-time materialization schedule of one launch under
/// overlapped tiling: every (stage, channel) plane any destination
/// channel demands, listed once at the largest margin over all
/// destination channels, in materialization order (callees before
/// callers). A tile computes each plane once and then runs the root once
/// per destination channel over the shared planes. Derived purely from
/// the staged bytecode -- the same Eq. 9 reach arithmetic
/// compileStagedProgram records in Reach[], split per (stage, channel)
/// instead of collapsed to the root maximum.
struct OverlapSchedule {
  std::vector<OverlapPlane> Planes;
  int MaxMargin = 0; ///< Largest margin of any plane (<= Reach[Root]).
  /// True when at least two destination channels demand one plane: the
  /// interior/halo strategy then recomputes that plane's values once per
  /// demanding channel, which the schedule computes once per tile.
  bool SharedPlanes = false;
  /// False when the strategy cannot run this launch (mixed stage or
  /// input extents void the interior region the planes are built for);
  /// the executor then falls back to the interior/halo strategy.
  bool Valid = false;
};

/// Builds the overlap schedule of \p SP rooted at \p Root for a
/// \p Channels -channel destination. Invalid (Valid == false) when
/// SP.UniformExtents does not hold.
OverlapSchedule buildOverlapSchedule(const StagedVmProgram &SP,
                                     uint16_t Root, int Channels);

/// Scratch floats one worker needs to hold every plane of \p Schedule
/// for a RootW x RootH destination tile: the summed grown-plane areas.
size_t overlapPlaneFloats(const OverlapSchedule &Schedule, int RootW,
                          int RootH);

/// Optional per-call accounting of runOverlappedTile, feeding the
/// tile.overlap_pixels / tile.redundant_halo_ms trace counters.
struct OverlapTileStats {
  long long OverlapPixels = 0;  ///< Plane cells outside the root tile.
  long long ComputedPixels = 0; ///< All evaluated cells (planes + root).
};

/// Executes destination stage \p Root over the interior tile
/// [X0, X1) x [Y0, Y1) under the overlapped strategy: every plane of
/// \p Schedule is materialized once over its margin-grown tile into
/// \p PlaneScratch (at least overlapPlaneFloats(Schedule, X1-X0, Y1-Y0)
/// + VmLaneWidth floats: planes back to back in schedule order, then
/// slack for narrow rows), stage calls read the callee's plane, and the
/// root runs once per destination channel, writing straight into
/// \p OutBase (the destination image base, width \p OutWidth,
/// \p Channels channels). Allocates nothing. Runs the span interpreter
/// (the JIT chains read pool images, not planes); \p LaneRegs is the
/// per-worker lane scratch, SP.NumRegs * VmLaneWidth floats. The tile
/// must lie at least SP.Reach[Root] away from every border (the interior
/// region), and a tile narrower than a lane no lower than sim/Executor's
/// laneRowsEnd; every value is computed by the same instruction stream as
/// the interior/halo strategy, so results are bit-identical.
void runOverlappedTile(const StagedVmProgram &SP, uint16_t Root,
                       const OverlapSchedule &Schedule,
                       const std::vector<Image> &Pool, int X0, int X1,
                       int Y0, int Y1, int Channels, float *PlaneScratch,
                       float *LaneRegs, float *OutBase, int OutWidth,
                       OverlapTileStats *Stats = nullptr);

} // namespace kf

#endif // KF_IR_EXPRVM_H
