//===- sim/Executor.h - Functional interpreter for programs -----*- C++ -*-===//
///
/// \file
/// Executes programs and fused programs on real image buffers. This is the
/// reproduction's stand-in for running the generated CUDA on a GPU: it
/// implements the exact data semantics the generated code would have,
/// which is what the correctness claims of Section IV (border fusion with
/// index exchange) are about. Fused execution supports disabling the index
/// exchange to reproduce the *incorrect* naive border fusion of Figure 4b.
///
/// Two evaluation engines share those semantics:
///   - the AST walker (runUnfused / runFused): virtual dispatch per
///     expression node, recursive producer re-evaluation -- the semantic
///     reference;
///   - the bytecode VM (runFusedVm): the program compiles to a session
///     plan (compilePlan, sim/Session.h) -- validated, optimized and
///     JIT-lowered staged programs of flat instruction streams with
///     stage-call ops (see ir/ExprVM.h) -- evaluated row-wise over the
///     interior and in 64-pixel lane chunks over the border ring. An
///     unfused run is runFusedVm over the singleton partition,
///     unfusedProgram(P) (transform/Fuser.h).
/// Both engines execute over a tile decomposition driven by a thread pool
/// (support/ThreadPool.h). Every pixel is a pure function of the inputs,
/// so results are bit-identical at any thread count; the test suite
/// asserts this.
///
//===----------------------------------------------------------------------===//

#ifndef KF_SIM_EXECUTOR_H
#define KF_SIM_EXECUTOR_H

#include "image/Image.h"
#include "ir/ExprVM.h"
#include "support/ThreadPool.h"
#include "transform/FusedKernel.h"

#include <cstddef>
#include <new>
#include <vector>

namespace kf {

struct JitProgram;

/// Options controlling execution.
struct ExecutionOptions {
  /// Apply the index-exchange method of Section IV-B to window accesses
  /// that reach into the exterior region of eliminated intermediates.
  /// Disabling this reproduces the incorrect border fusion of Figure 4b.
  bool UseIndexExchange = true;

  /// Worker threads for the tiled executors. 0 resolves via the
  /// KF_THREADS environment variable, falling back to the hardware
  /// concurrency (see resolveThreadCount); 1 forces the serial path.
  int Threads = 0;

  /// Tile extents for the parallel decomposition. Non-positive width
  /// selects full-row tiles (best for the row-wise VM path);
  /// non-positive height selects a heuristic from the image height and
  /// thread count.
  int TileWidth = 0;
  int TileHeight = 0;

  /// Interior execution mode of the VM engines. Jit runs a launch's
  /// per-plan JIT artifact and falls back to the lane-batched span mode
  /// where the launch carries none; Scalar runs every pixel through the
  /// per-pixel bytecode reference (runStagedVm) and ignores Tiling. All
  /// modes are bit-identical on every pipeline and border mode.
  VmMode Mode = VmMode::Jit;

  /// Tiling strategy of the fused VM engine. Auto picks per launch:
  /// overlapped where its destination channels share a producer plane,
  /// the interior/halo split otherwise (see TilingStrategy::Auto in
  /// ir/ExprVM.h). Overlapped trades redundant margin recompute for
  /// recursion-free, cache-resident tiles. All strategies are
  /// bit-identical on every pipeline and border mode.
  TilingStrategy Tiling = TilingStrategy::Auto;

  /// Whether session plan compilation runs the interval-fact-gated
  /// bytecode optimizer (ir/VmOptimizer.h) over validated launches
  /// before JIT lowering. Off is the escape hatch executing the bytecode
  /// exactly as compiled. Optimized plans are bit-identical to
  /// unoptimized plans on every pipeline, mode, and tiling strategy.
  OptMode Opt = OptMode::On;

  /// Work-source tag charged for every tile this execution claims from a
  /// shared ThreadPool (see ThreadPool::registerSource); the pipeline
  /// server registers one source per tenant so concurrent frames
  /// interleave stride-fairly. 0 is the pool's default source. A pure
  /// scheduling hint: it never changes which pixels are computed. Like
  /// every option but Opt it is not part of planKey, so sessions that
  /// differ only in Source share compiled plans.
  unsigned Source = 0;
};

/// Parses a tile specification "WxH" (e.g. "128x32"). Returns false --
/// leaving the outputs untouched -- unless both extents parse fully and
/// lie in [1, 65536].
bool parseTileSpec(const char *Text, int &TileW, int &TileH);

/// Resolves the effective tile extents of one launch over a
/// \p ImageW x \p ImageH image: explicit positive Options extents win,
/// then the per-strategy default -- full rows with a height heuristic
/// for InteriorHalo, an L2-sized 128x32 block for Overlapped. Results
/// are clamped to the image.
void resolveTileSize(const ExecutionOptions &Options,
                     TilingStrategy Strategy, int ImageW, int ImageH,
                     unsigned Threads, int &TileW, int &TileH);

/// Allocates an image pool for \p P: one (empty) image slot per program
/// image, shaped per the image table. External inputs must be filled by
/// the caller before execution.
std::vector<Image> makeImagePool(const Program &P);

/// Executes every kernel of \p P unfused, in topological order, filling
/// the pool's non-input images. External inputs must be present. AST
/// engine (the semantic reference), tiled across Options.Threads.
void runUnfused(const Program &P, std::vector<Image> &Pool,
                const ExecutionOptions &Options = ExecutionOptions());

/// Executes \p FP, writing only the fused kernels' destination outputs;
/// eliminated intermediates stay empty (that is the point of fusion).
/// AST engine: eliminated producers are re-evaluated recursively per
/// read, with index exchange at exterior positions.
void runFused(const FusedProgram &FP, std::vector<Image> &Pool,
              const ExecutionOptions &Options = ExecutionOptions());

/// Compiles fused kernel \p FK of \p FP into a staged bytecode program:
/// one subprogram per stage, reads of eliminated intermediates lowered
/// to offset-shifted stage calls. Stage order (and thus stage indices)
/// matches FK.Stages.
StagedVmProgram compileFusedKernel(const FusedProgram &FP,
                                   const FusedKernel &FK);

/// Executes \p FP through the staged bytecode VM: compiles the session
/// plan (compilePlan, sim/Session.h) and runs it with the launch loop of
/// PipelineSession::runFrame on a fresh thread pool and scratch. Interior
/// tiles run the border-check-free fast path, halo tiles the
/// index-exchange-correct slow path. Bit-identical to runFused at any
/// thread count. Defined in sim/Session.cpp.
void runFusedVm(const FusedProgram &FP, std::vector<Image> &Pool,
                const ExecutionOptions &Options = ExecutionOptions());

/// Allocates whole cache lines: every buffer starts on a line boundary and
/// its size is rounded up to whole lines, so no other allocation shares a
/// line with it. Workers write their register scratch on every VM
/// instruction; two workers' buffers sharing a line would bounce that line
/// between cores (false sharing), at a cost that depended on where the
/// heap happened to place the buffers in each process.
template <class T> struct CacheLineAllocator {
  using value_type = T;
  static constexpr size_t LineBytes = 64;

  CacheLineAllocator() = default;
  template <class U> CacheLineAllocator(const CacheLineAllocator<U> &) {}

  T *allocate(size_t N) {
    const size_t Lines = (N * sizeof(T) + LineBytes - 1) / LineBytes;
    return static_cast<T *>(
        ::operator new(Lines * LineBytes, std::align_val_t(LineBytes)));
  }
  void deallocate(T *P, size_t) {
    ::operator delete(P, std::align_val_t(LineBytes));
  }
  template <class U> bool operator==(const CacheLineAllocator<U> &) const {
    return true;
  }
};

/// One worker's register scratch (see CacheLineAllocator).
using WorkerRegs = std::vector<float, CacheLineAllocator<float>>;

/// Per-worker register scratch of the VM engines, grown on demand and
/// reusable across launches and frames. The serving layer (sim/Session.h)
/// keeps one per session so the streaming hot path performs no per-frame
/// scratch allocation.
struct VmScratch {
  /// Lane buffers: NumRegs * VmLaneWidth floats per worker
  /// (structure-of-arrays register frames, see runStagedVmSpan), used by
  /// span and JIT interiors, the border ring, and as the scalar mode's
  /// per-pixel registers.
  std::vector<WorkerRegs> LaneRegs;
  /// Overlapped-strategy plane buffers: every margin-grown plane of a
  /// tile's schedule back to back, overlapPlaneFloats floats per worker
  /// (see runOverlappedTile); empty under the interior/halo strategy.
  std::vector<WorkerRegs> PlaneRegs;
  /// One border-ring chunk: the pixel coordinates a worker collects from
  /// its tile's ring before runStagedVmRing evaluates them together.
  struct RingChunk {
    int X[VmLaneWidth];
    int Y[VmLaneWidth];
  };
  /// One ring chunk per worker (whole cache lines each).
  std::vector<RingChunk, CacheLineAllocator<RingChunk>> Ring;

  /// Grows the per-worker vectors to at least the given float counts.
  void ensure(unsigned Threads, size_t LaneFloats, size_t PlaneFloats = 0);
};

/// The end of the rows of the tile interior [IA, IB) x [JA, JB) of a
/// W x H launch with halo \p Halo that the lane engines may run, the rest
/// going to the border ring. A span narrower than a lane runs one chunk
/// from IA, so row Y runs only while (Y + Halo) * W + IA + Halo +
/// VmLaneWidth <= W * H: its last lane's farthest read stays inside the
/// W x H images of the launch (UniformExtents). See docs/VM.md.
int laneRowsEnd(int W, int H, int Halo, int IA, int IB, int JA, int JB);

/// The interior/halo split parameter of one fused launch: how far from the
/// border the staged program rooted at \p Root can reach. Mixed stage or
/// input extents void the interior entirely (every pixel is halo).
int fusedLaunchHalo(const StagedVmProgram &SP, uint16_t Root,
                    const ImageInfo &Info);

/// Fine-grained timing of one launch, split between the border-check-free
/// interior row path and the index-exchange border ring. Collected
/// only on request (clock reads per tile are not free); the tracing /
/// metrics layer asks for it when enabled. Interior + halo is CPU time
/// summed across workers, so it can exceed TotalMs (wall time) on
/// multi-threaded launches.
struct LaunchTiming {
  double TotalMs = 0.0;
  double InteriorMs = 0.0;
  double HaloMs = 0.0;
  /// The interior mode the launch actually ran (Span where a Jit request
  /// had no artifact or tiled overlapped), so the trace/metrics layers
  /// can split interior time by engine. A Scalar launch has no border
  /// ring: its InteriorMs covers every pixel and its HaloMs is 0.
  VmMode Mode = VmMode::Span;
  /// The resolved tiling strategy the launch actually ran (never Auto: a
  /// schedule-less launch falls back to InteriorHalo, and so does every
  /// Scalar launch).
  TilingStrategy Tiling = TilingStrategy::InteriorHalo;
  /// Overlapped strategy only: redundantly computed plane cells (the
  /// margins adjacent grown tiles both evaluate) and all evaluated cells
  /// (planes plus every destination channel), summed across tiles.
  long long OverlapPixels = 0;
  long long ComputedPixels = 0;
};

/// Executes one compiled fused launch -- the staged program \p SP rooted
/// at stage \p Root with interior/halo split \p Halo -- writing the
/// destination image into \p Out *in place*. \p Out must already be shaped
/// like the destination; it is fully overwritten (no prior clear needed).
/// The building block of the plan launch loop (sim/Session.cpp) behind
/// both runFusedVm and PipelineSession::runFrame. A non-null \p Timing
/// collects the wall time and the interior/halo CPU split of this launch.
///
/// \p Jit is the launch's JIT artifact (compiled at plan time and cached
/// next to the plan, see sim/Session.h), or null. When the resolved mode
/// is Jit and no artifact was supplied -- the validator-gated compilation
/// refused the launch -- it runs the bit-identical span interpreter.
/// Under the overlapped tiling strategy interior tiles likewise run the
/// span engine (the JIT chains read pool images, not scratch planes); a
/// Jit request there degrades to Span, never to different results. The
/// Scalar mode ignores \p Halo and the tiling strategy: every pixel runs
/// runStagedVm.
void runCompiledLaunch(const StagedVmProgram &SP, uint16_t Root, int Halo,
                       const std::vector<Image> &Pool, Image &Out,
                       const ExecutionOptions &Options, ThreadPool &TP,
                       VmScratch &Scratch, LaunchTiming *Timing = nullptr,
                       const JitProgram *Jit = nullptr);

/// Evaluates a single kernel of \p P at one pixel, reading inputs from
/// \p Pool (border handling per the kernel). Exposed for unit tests.
float evalKernelAt(const Program &P, KernelId Id,
                   const std::vector<Image> &Pool, int X, int Y,
                   int Channel);

} // namespace kf

#endif // KF_SIM_EXECUTOR_H
