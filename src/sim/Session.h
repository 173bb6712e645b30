//===- sim/Session.h - Streaming pipeline sessions --------------*- C++ -*-===//
///
/// \file
/// The serving layer: a PipelineSession applies one fused program to a
/// stream of frames, the shape of a realistic deployment (the same
/// pipeline over millions of camera frames). runFusedVm runs the same
/// plan through the same launch loop, but pays plan compilation, scratch
/// setup, thread-pool construction, and buffer allocation on every call;
/// a session pays them once:
///
///   - CompiledPlan: the immutable compile-once artifact -- per-launch
///     staged bytecode (compileFusedKernel), interior/halo split, and the
///     pool allocation plan. Self-contained: executing a plan needs no
///     Program or FusedProgram.
///   - PlanCache: an LRU cache of CompiledPlans keyed by the content hash
///     of the program IR (Program::structuralHash), the fused structure,
///     and the optimizer setting (planKey), with hit/miss/eviction
///     counters. Runtime fusion systems amortize repeated launches
///     exactly this way (Kristensen et al., "Fusion of Array Operations
///     at Runtime").
///   - FramePool: recycles whole frame buffers (one std::vector<Image>
///     pool per in-flight frame) so steady-state frames allocate nothing.
///   - runFrames: streams N frames, double-buffering the input fill of
///     frame i+1 on a filler thread while frame i executes on the
///     session's persistent ThreadPool.
///
/// Results are bit-identical to a fresh runFusedVm / runFused call per
/// frame at any thread count; tests/test_session.cpp asserts this
/// differentially for every registry pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef KF_SIM_SESSION_H
#define KF_SIM_SESSION_H

#include "ir/VmOptimizer.h"
#include "sim/Executor.h"
#include "support/Diagnostics.h"

#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace kf {

struct JitProgram;

/// One launch of a compiled plan: a staged bytecode program, the root
/// stage computing the destination, the interior/halo split, and the JIT
/// artifact (src/jit) compiled from the validated bytecode. Jit is null
/// when JIT compilation refused the program (validator gate); such a
/// launch runs the span interpreter under every mode.
struct CompiledLaunch {
  std::string Name;   ///< Fused kernel name (trace/metrics label).
  StagedVmProgram Code;
  uint16_t Root = 0;
  ImageId Output = 0; ///< Pool image the launch writes.
  int Halo = 0;
  /// Compiled-per-plan JIT chain, cached in the PlanCache next to the
  /// bytecode and shared read-only across frames and sessions.
  std::shared_ptr<const JitProgram> Jit;
  /// Per-stage interval facts the abstract interpreter proved for the
  /// bytecode as *compiled* (analysis/IntervalAnalysis.h) -- the
  /// optimizer's evidence, cached so tests and tools can audit what the
  /// rewrite was gated on. Indexed like the pre-optimization stages.
  std::vector<StageValueFacts> Facts;
  /// What the fact-gated optimizer did to this launch (all zero under
  /// OptMode::Off, or when nothing was provable).
  VmOptStats OptStats;
};

/// The immutable compile-once artifact of one (program, fused structure,
/// options) configuration. Shared between sessions via shared_ptr; never
/// mutated after compilation.
struct CompiledPlan {
  uint64_t Key = 0;           ///< Cache key the plan was compiled under.
  std::string ProgramName;
  std::vector<ImageInfo> Shapes;        ///< Pool allocation plan.
  std::vector<ImageId> ExternalInputs;  ///< Images frames must fill.
  std::vector<CompiledLaunch> Launches; ///< In launch order.
};

/// Cache key of a fused program under given options: content hash of the
/// source IR plus the partition structure and fusion style plus
/// Options.Opt, the one option compilePlan reads. Distinct partitions of
/// one program never collide; options that only steer execution (threads,
/// tiles, engine, tiling, index exchange, Source) never split a plan.
uint64_t planKey(const FusedProgram &FP, const ExecutionOptions &Options);

/// The one launch checker, shared by compilePlan, the lazy gate
/// (compileLazy) and `kfc --analyze`. Lowers each fused kernel of \p FP
/// to staged bytecode (compileFusedKernel), makes one launch per
/// destination with its interior/halo split, and validates it
/// (analyzeLaunch: bytecode and footprint). Then, in launch order, it
/// runs the interval interpreter over the launches of every fused kernel
/// that validated. Each launch's result interval seeds the loads of
/// later launches, and external inputs carry the [0, 1] contract. KF-V
/// diagnostics come from each fused kernel's first launch and name
/// \p Unit. Returns the launches unoptimized, with Facts and without JIT
/// artifacts.
std::vector<CompiledLaunch> checkLaunches(const FusedProgram &FP,
                                          DiagnosticEngine &DE,
                                          const std::string &Unit = {});

/// Compiles \p FP into an immutable plan (checkLaunches, then the
/// fact-gated optimizer, JIT artifacts and pool shapes) keyed for
/// \p Options; a launch that fails validation is a fatal error. The one
/// compile step of every VM run: sessions cache its result, runFusedVm
/// calls it per run.
std::shared_ptr<const CompiledPlan>
compilePlan(const FusedProgram &FP, const ExecutionOptions &Options);

/// Hit/miss counters of a PlanCache.
struct PlanCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  size_t Entries = 0;
};

/// An LRU cache of compiled plans. Thread-safe; sessions may share one
/// cache (e.g. the process-wide globalPlanCache(), or the cross-tenant
/// cache a PipelineServer owns). Entries are shared_ptr<const CompiledPlan>,
/// so a borrower executing a plan keeps it alive even while the LRU evicts
/// it under concurrent misses -- eviction drops the cache's reference,
/// never the borrower's (tests/test_session.cpp pins this down).
class PlanCache {
public:
  explicit PlanCache(size_t CapacityIn = 16);

  /// Returns the cached plan for \p Key (promoting it to most recently
  /// used and counting a hit) or nullptr (counting a miss).
  std::shared_ptr<const CompiledPlan> lookup(uint64_t Key);

  /// Inserts \p Plan under Plan->Key as most recently used, evicting the
  /// least recently used entry beyond capacity. Re-inserting an existing
  /// key replaces the entry.
  void insert(std::shared_ptr<const CompiledPlan> Plan);

  /// Single-flight lookup-or-compile: a hit returns the cached plan; on a
  /// miss, exactly one caller runs \p Compile (outside the cache lock)
  /// and inserts the result, while concurrent callers of the same key
  /// block and then share it. Followers count as hits -- they were served
  /// a shared plan without compiling -- so concurrent first touches by N
  /// tenants cost one miss, one compile, N-1 hits. \p WasHit, when given,
  /// receives whether this caller compiled (false) or shared (true).
  std::shared_ptr<const CompiledPlan> getOrCompile(
      uint64_t Key,
      const std::function<std::shared_ptr<const CompiledPlan>()> &Compile,
      bool *WasHit = nullptr);

  size_t capacity() const { return Capacity; }
  PlanCacheStats stats() const;
  void clear();

private:
  using LruList = std::list<std::shared_ptr<const CompiledPlan>>;

  /// One in-flight compilation (single-flight slot). Latched under Mutex;
  /// followers wait on InFlightCv until Done.
  struct InFlight {
    std::shared_ptr<const CompiledPlan> Plan;
    bool Done = false;
  };

  /// Inserts under an already-held Mutex (shared by insert/getOrCompile).
  void insertLocked(std::shared_ptr<const CompiledPlan> Plan);

  size_t Capacity;
  mutable std::mutex Mutex;
  std::condition_variable InFlightCv;
  LruList Lru; ///< Front = most recently used.
  std::unordered_map<uint64_t, LruList::iterator> Index;
  std::unordered_map<uint64_t, std::shared_ptr<InFlight>> Pending;
  PlanCacheStats Stats;
};

/// The process-wide plan cache sessions use by default.
PlanCache &globalPlanCache();

/// Recycles frame buffers: released frame pools are kept and handed back
/// by acquire() instead of reallocating, so a steady-state streaming loop
/// performs no buffer allocation. Thread-safe: the server's dispatcher
/// threads acquire and release frames of one session's pool concurrently
/// with the submitting client (the pool was single-owner until the server
/// layer arrived; the free list and counters are now guarded).
class FramePool {
public:
  /// A pool of images sized for \p Shapes: recycled when a free frame
  /// exists, freshly allocated otherwise. Only the \p Outputs images are
  /// pre-allocated; external inputs are the filler's responsibility and
  /// eliminated intermediates stay empty.
  std::vector<Image> acquire(const std::vector<ImageInfo> &Shapes,
                             const std::vector<ImageId> &Outputs);

  /// Returns \p Frame to the free list for the next acquire().
  void release(std::vector<Image> &&Frame);

  uint64_t framesReused() const;
  uint64_t framesAllocated() const;

private:
  mutable std::mutex Mutex;
  std::vector<std::vector<Image>> Free;
  uint64_t Reused = 0;
  uint64_t Allocated = 0;
};

/// Aggregate counters of one session.
struct SessionStats {
  uint64_t Frames = 0;        ///< Frames executed.
  uint64_t PlanHits = 0;      ///< Frame-level plan lookups served cached.
  uint64_t PlanMisses = 0;    ///< Frame-level lookups that compiled.
  uint64_t FramesReused = 0;  ///< acquireFrame() served from the pool.
  uint64_t FramesAllocated = 0;
  double CompileMs = 0.0;     ///< Wall time spent compiling plans.
  double ExecMs = 0.0;        ///< Wall time spent executing frames.
};

/// A streaming execution session for one fused program: compile once, run
/// many frames. Not thread-safe itself (one session per stream; the
/// server layer guarantees at most one frame of a session is in flight);
/// the execution inside runs on the session's persistent ThreadPool, or
/// on a borrowed shared pool when the session belongs to a PipelineServer.
class PipelineSession {
public:
  /// \p FP must outlive the session (it is re-consulted when an options
  /// change forces recompilation). Plans go through \p Cache, defaulting
  /// to the process-wide cache. When \p SharedPoolIn is given the session
  /// never builds its own ThreadPool: every launch runs on the borrowed
  /// pool (which must outlive the session), tagged with
  /// ExecutionOptions::Source, and Options.Threads is ignored.
  explicit PipelineSession(const FusedProgram &FP,
                           ExecutionOptions OptionsIn = ExecutionOptions(),
                           PlanCache *CacheIn = nullptr,
                           ThreadPool *SharedPoolIn = nullptr);

  const ExecutionOptions &options() const { return Options; }

  /// Changes the execution options. The next frame re-keys the plan
  /// lookup: a changed Opt misses the cache and recompiles; any change
  /// rebuilds the thread pool if the worker count changed.
  void setOptions(const ExecutionOptions &NewOptions);

  /// The current plan, compiling (or fetching from the cache) on demand.
  std::shared_ptr<const CompiledPlan> plan();

  /// A frame buffer shaped for the current plan, recycled when possible.
  std::vector<Image> acquireFrame();

  /// Returns a frame obtained from acquireFrame() for reuse.
  void releaseFrame(std::vector<Image> &&Frame);

  /// Executes one frame in place: external inputs of \p Frame must be
  /// filled; launch outputs are (over)written reusing their buffers.
  /// Performs the per-frame plan lookup (hit/miss counted in stats()).
  void runFrame(std::vector<Image> &Frame);

  /// Fills frame \p Index's external inputs in the given pool.
  using FrameFiller = std::function<void(int, std::vector<Image> &)>;
  /// Observes frame \p Index's finished pool (outputs valid).
  using FrameConsumer =
      std::function<void(int, const std::vector<Image> &)>;

  /// Streams \p NumFrames frames: while frame i executes, frame i+1's
  /// input fill runs concurrently on a filler thread into a second
  /// recycled buffer (double buffering). \p Consume, when given, runs on
  /// the session thread after each frame completes. Returns stats().
  SessionStats runFrames(int NumFrames, const FrameFiller &Fill,
                         const FrameConsumer &Consume = nullptr);

  const SessionStats &stats() const { return Stats; }

private:
  const FusedProgram *FP;
  ExecutionOptions Options;
  PlanCache *Cache;
  ThreadPool *SharedPool = nullptr;         ///< Borrowed; wins over Pool.
  std::shared_ptr<const CompiledPlan> Plan; ///< Current plan, if keyed.
  std::unique_ptr<ThreadPool> Pool;         ///< Persistent across frames.
  unsigned PoolThreads = 0;
  VmScratch Scratch;
  FramePool Frames;
  SessionStats Stats;

  // Frame layout, fixed for the session's program: what acquireFrame()
  // allocates without forcing a (counted) plan lookup.
  std::vector<ImageInfo> Shapes;
  std::vector<ImageId> Outputs;

  void ensureThreadPool();
};

} // namespace kf

#endif // KF_SIM_SESSION_H
