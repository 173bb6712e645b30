//===- support/ThreadPool.h - Tiled data-parallel execution -----*- C++ -*-===//
///
/// \file
/// A reusable pool of worker threads with a 2-D tiled parallel-for
/// primitive, the host-side analogue of the tiled GPU launches the paper's
/// generated kernels use. The iteration space is decomposed into tiles in
/// a fixed row-major order; workers claim tiles from the job's cursor
/// (static enumeration, dynamic work-queue assignment), so load imbalance
/// between cheap interior tiles and expensive halo tiles self-schedules.
/// Every executor callback writes a disjoint tile of the output and reads
/// only immutable inputs, so results are bit-identical at any thread
/// count; with one thread the tiles run inline on the caller in
/// enumeration order (the serial reference path).
///
/// Multiple launches may be in flight concurrently (the multi-tenant
/// pipeline server dispatches frames from independent sessions onto one
/// shared pool). Each launch is tagged with a *work source* id; pool
/// workers arbitrate between runnable launches with deterministic stride
/// scheduling (support/Stride.h), so tile batches from concurrent frames
/// interleave in proportion to their sources' weights instead of running
/// serially. The caller of parallelFor2D drains only its own launch — it
/// participates as worker index 0 of that launch, and worker indices
/// 1..numThreads()-1 are globally unique across launches, so per-worker
/// scratch indexed by the callback's worker id is never shared between
/// threads within a launch.
///
//===----------------------------------------------------------------------===//

#ifndef KF_SUPPORT_THREADPOOL_H
#define KF_SUPPORT_THREADPOOL_H

#include "support/Stride.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace kf {

/// The CPUs this process may run on, ascending (empty where the platform
/// does not say).
std::vector<int> allowedCpus();

/// Pins \p T to \p Cpu. Returns false where pinning failed or is not
/// supported.
bool pinThread(std::thread &T, int Cpu);

/// A half-open 2-D tile [X0, X1) x [Y0, Y1) of an iteration space.
struct TileRange {
  int X0 = 0;
  int Y0 = 0;
  int X1 = 0;
  int Y1 = 0;

  int width() const { return X1 - X0; }
  int height() const { return Y1 - Y0; }
  long long area() const {
    return static_cast<long long>(width()) * height();
  }
};

/// Resolves a requested worker count: \p Requested > 0 is taken verbatim;
/// 0 consults the KF_THREADS environment variable and falls back to
/// std::thread::hardware_concurrency(). A malformed or non-positive
/// KF_THREADS value is ignored with a one-time stderr warning (it would
/// otherwise silently change the parallelism of every run). The result is
/// always >= 1.
unsigned resolveThreadCount(int Requested);

/// Cumulative scheduling counters of one ThreadPool, for the tracing /
/// metrics layer: how evenly tiles spread over workers and sources, and
/// how often workers went idle waiting for a launch.
struct ThreadPoolStats {
  uint64_t Launches = 0;  ///< parallelFor2D calls that fanned out.
  uint64_t Tiles = 0;     ///< Tiles executed across all launches.
  uint64_t IdleWaits = 0; ///< Times a worker blocked awaiting work.
  std::vector<uint64_t> TilesPerWorker; ///< Indexed by worker id.
  std::vector<uint64_t> TilesPerSource; ///< Indexed by work-source id.
  std::vector<std::string> SourceNames; ///< Parallel to TilesPerSource.
};

/// A fixed-size pool of persistent worker threads. The pool is created
/// once and reused across many parallelFor2D launches (kernel launches of
/// a program run), so thread start-up cost is not paid per kernel.
/// parallelFor2D is safe to call from multiple threads concurrently; the
/// launches share the workers under stride-fair arbitration.
class ThreadPool {
public:
  /// Spawns \p ThreadsIn - 1 workers (the caller participates as worker
  /// 0). A count of 0 or 1 creates no threads: every launch runs inline.
  explicit ThreadPool(unsigned ThreadsIn);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return NumThreads; }

  /// Registers a named work source with scheduling weight \p Weight
  /// (clamped to >= 1) and returns its id for ExecutionOptions::Source /
  /// parallelFor2D. Source 0 always exists: the unnamed default at weight
  /// 1 that every untagged launch charges.
  unsigned registerSource(const std::string &Name, uint64_t Weight = 1);

  /// Re-weights an existing source; out-of-range ids are ignored.
  void setSourceWeight(unsigned Source, uint64_t Weight);

  /// Pins worker I (1 <= I < numThreads()) to CPU Cpus[I - 1]. Workers
  /// without an entry stay unpinned. Returns false if any pin failed.
  bool pinWorkers(const std::vector<int> &Cpus);

  /// Snapshot of the cumulative scheduling counters. Always maintained
  /// (the per-tile cost is one non-atomic per-worker increment); consumed
  /// by the tracing layer and `kfc --metrics`.
  ThreadPoolStats stats() const;

  /// Decomposes the Width x Height space into TileW x TileH tiles (edge
  /// tiles are clipped) and invokes \p Fn once per tile with the tile and
  /// the index of the executing worker (in [0, numThreads())). Blocks
  /// until every tile has run. Empty spaces invoke nothing. Non-positive
  /// tile extents select the full corresponding extent. \p Source tags
  /// the launch for stride arbitration against concurrent launches;
  /// unregistered ids fall back to source 0. The calling thread drains
  /// only this launch (as its worker 0) — concurrent callers never share
  /// a worker index within a launch.
  void parallelFor2D(int Width, int Height, int TileW, int TileH,
                     const std::function<void(const TileRange &, unsigned)> &Fn,
                     unsigned Source = 0);

private:
  /// One in-flight launch. Lives on the calling thread's stack for the
  /// duration of its parallelFor2D call; linked into ActiveJobs while any
  /// tile is unclaimed or running. All fields are guarded by Mutex.
  struct Job {
    const std::function<void(const TileRange &, unsigned)> *Fn = nullptr;
    std::vector<TileRange> Tiles;
    size_t NextTile = 0;  ///< First unclaimed tile index.
    /// Tiles claimed-or-unclaimed but not finished. Written under Mutex;
    /// atomic so the caller can poll it while it spins (spinUntil).
    std::atomic<size_t> Remaining{0};
    unsigned Source = 0;
  };

  void workerLoop(unsigned WorkerIdx);
  /// Polls \p Ready, without Mutex, for up to SpinMicros before the
  /// caller blocks on a condition variable; returns its last value.
  template <class Pred> static bool spinUntil(Pred &&Ready);
  /// Min-pass runnable job, or nullptr. Mutex must be held.
  Job *pickJobLocked();
  /// True if any active job still has unclaimed tiles. Mutex must be held.
  bool anyRunnableLocked() const;
  /// Claims the next tile of \p J and charges its source. Mutex must be
  /// held; returns the claimed tile index.
  size_t claimTileLocked(Job &J);

  unsigned NumThreads = 1;
  std::vector<std::thread> Workers;

  mutable std::mutex Mutex; ///< mutable: stats() snapshots under lock.
  std::condition_variable StartCv; ///< Workers: work arrived.
  std::condition_variable DoneCv;  ///< Callers: some job finished a tile.
  bool Shutdown = false;
  std::list<Job *> ActiveJobs; ///< FIFO within a source.
  /// Bumped under Mutex whenever a launch is posted or the pool shuts
  /// down, so an idle worker can spin on it without the lock.
  std::atomic<uint64_t> Posted{0};

  StrideScheduler Sched;                ///< Guarded by Mutex.
  std::vector<std::string> SourceNames; ///< Guarded by Mutex.
  std::vector<uint64_t> SourceTiles;    ///< Guarded by Mutex.

  // Scheduling counters. Per-worker tile counts are atomics so stats()
  // can read them while workers drain (relaxed; they are statistics, not
  // synchronization). The rest is guarded by Mutex.
  std::vector<std::atomic<uint64_t>> TileCounts;
  uint64_t LaunchCount = 0;
  uint64_t IdleWaitCount = 0;
};

} // namespace kf

#endif // KF_SUPPORT_THREADPOOL_H
