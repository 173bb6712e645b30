//===- support/ThreadPool.cpp ---------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

using namespace kf;

std::vector<int> kf::allowedCpus() {
  std::vector<int> Cpus;
#if defined(__linux__)
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Set))
        Cpus.push_back(Cpu);
#endif
  return Cpus;
}

bool kf::pinThread(std::thread &T, int Cpu) {
#if defined(__linux__)
  if (Cpu < 0 || Cpu >= CPU_SETSIZE)
    return false;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return pthread_setaffinity_np(T.native_handle(), sizeof(Set), &Set) == 0;
#else
  (void)T;
  (void)Cpu;
  return false;
#endif
}

unsigned kf::resolveThreadCount(int Requested) {
  if (Requested > 0)
    return static_cast<unsigned>(Requested);
  if (const char *Env = std::getenv("KF_THREADS")) {
    char *End = nullptr;
    errno = 0;
    long Value = std::strtol(Env, &End, 10);
    if (End != Env && *End == '\0' && errno != ERANGE && Value > 0 &&
        Value <= INT_MAX)
      return static_cast<unsigned>(Value);
    // A malformed / non-positive / out-of-range KF_THREADS silently
    // changing the parallelism of every run is a debugging trap: say so,
    // but only once per process (resolveThreadCount runs per launch).
    static std::atomic<bool> Warned{false};
    if (!Warned.exchange(true))
      std::fprintf(stderr,
                   "warning: ignoring invalid KF_THREADS='%s' (expected a "
                   "positive integer); using hardware concurrency\n",
                   Env);
  }
  unsigned Hardware = std::thread::hardware_concurrency();
  return Hardware > 0 ? Hardware : 1;
}

ThreadPool::ThreadPool(unsigned ThreadsIn)
    : NumThreads(ThreadsIn > 0 ? ThreadsIn : 1), TileCounts(NumThreads) {
  // Source 0: the unnamed default every untagged launch charges.
  Sched.addSource(1);
  SourceNames.emplace_back("default");
  SourceTiles.push_back(0);
  Workers.reserve(NumThreads - 1);
  for (unsigned I = 1; I != NumThreads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

bool ThreadPool::pinWorkers(const std::vector<int> &Cpus) {
  bool Ok = true;
  for (size_t I = 0; I != Workers.size() && I != Cpus.size(); ++I)
    Ok &= pinThread(Workers[I], Cpus[I]);
  return Ok;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Shutdown = true;
    Posted.fetch_add(1, std::memory_order_release);
  }
  StartCv.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();

  // A pool created inside a single run (runFusedVm, a session) dies with
  // it; exporting its scheduling counters here gives the tracing layer
  // tile-queue utilization without threading the pool object out.
  if (TraceRecorder::enabled()) {
    TraceRecorder &Recorder = TraceRecorder::global();
    ThreadPoolStats Stats = stats();
    Recorder.addCounter("threadpool.launches",
                        static_cast<double>(Stats.Launches));
    Recorder.addCounter("threadpool.tiles",
                        static_cast<double>(Stats.Tiles));
    Recorder.addCounter("threadpool.idle_waits",
                        static_cast<double>(Stats.IdleWaits));
    for (unsigned I = 0; I != Stats.TilesPerWorker.size(); ++I)
      Recorder.addCounter("threadpool.tiles.worker" + std::to_string(I),
                          static_cast<double>(Stats.TilesPerWorker[I]));
    // Source 0 carries every untagged launch; named sources only exist
    // when a server registered tenants, so only emit the split then.
    for (unsigned I = 1; I < Stats.TilesPerSource.size(); ++I)
      Recorder.addCounter("threadpool.tiles.source." + Stats.SourceNames[I],
                          static_cast<double>(Stats.TilesPerSource[I]));
  }
}

unsigned ThreadPool::registerSource(const std::string &Name, uint64_t Weight) {
  std::lock_guard<std::mutex> Lock(Mutex);
  unsigned Id = Sched.addSource(Weight);
  SourceNames.push_back(Name.empty() ? "source" + std::to_string(Id) : Name);
  SourceTiles.push_back(0);
  return Id;
}

void ThreadPool::setSourceWeight(unsigned Source, uint64_t Weight) {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Clamp the re-weighted source's pass to the runnable minimum: a tenant
  // downgraded from a heavy weight keeps the tiny pass it earned while
  // heavy, and without the clamp it would win every tile claim until the
  // pass caught up at the new slow rate.
  std::vector<unsigned> Runnable;
  for (const Job *Active : ActiveJobs)
    if (Active->NextTile < Active->Tiles.size())
      Runnable.push_back(Active->Source);
  Sched.setWeight(Source, Weight, Runnable);
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats Stats;
  Stats.TilesPerWorker.resize(NumThreads);
  for (unsigned I = 0; I != NumThreads; ++I) {
    Stats.TilesPerWorker[I] = TileCounts[I].load(std::memory_order_relaxed);
    Stats.Tiles += Stats.TilesPerWorker[I];
  }
  std::lock_guard<std::mutex> Lock(Mutex);
  Stats.Launches = LaunchCount;
  Stats.IdleWaits = IdleWaitCount;
  Stats.TilesPerSource = SourceTiles;
  Stats.SourceNames = SourceNames;
  return Stats;
}

bool ThreadPool::anyRunnableLocked() const {
  for (const Job *J : ActiveJobs)
    if (J->NextTile < J->Tiles.size())
      return true;
  return false;
}

ThreadPool::Job *ThreadPool::pickJobLocked() {
  // Stride pick over the active jobs: minimum source pass wins; ties keep
  // the earliest-submitted job (ActiveJobs is FIFO), so within one source
  // frames complete in submission order.
  Job *Best = nullptr;
  uint64_t BestPass = 0;
  for (Job *J : ActiveJobs) {
    if (J->NextTile >= J->Tiles.size())
      continue;
    uint64_t Pass = Sched.pass(J->Source);
    if (!Best || Pass < BestPass) {
      Best = J;
      BestPass = Pass;
    }
  }
  return Best;
}

size_t ThreadPool::claimTileLocked(Job &J) {
  size_t TileIdx = J.NextTile++;
  Sched.charge(J.Source);
  ++SourceTiles[J.Source];
  return TileIdx;
}

namespace {

/// How long a thread that runs out of tiles polls for more before it
/// blocks. Launches of one frame follow each other within microseconds,
/// so a worker that parks at the end of every launch pays a sleep and a
/// wake-up per launch. Threads that slept and woke that often were also
/// left stacked on one core by the OS more often (see PipelineServer's
/// pinning). A worker pays at most this much CPU per idle period.
constexpr auto SpinMicros = std::chrono::microseconds(100);

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

} // namespace

template <class Pred> bool ThreadPool::spinUntil(Pred &&Ready) {
  const auto Deadline = std::chrono::steady_clock::now() + SpinMicros;
  while (!Ready()) {
    for (int I = 0; I != 32; ++I)
      cpuRelax();
    if (std::chrono::steady_clock::now() >= Deadline)
      return Ready();
    // Hand the core over if another thread waits for it.
    std::this_thread::yield();
  }
  return true;
}

void ThreadPool::workerLoop(unsigned WorkerIdx) {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    Job *J = pickJobLocked();
    if (!J) {
      if (Shutdown)
        return;
      const uint64_t Seen = Posted.load(std::memory_order_relaxed);
      Lock.unlock();
      const bool Arrived = spinUntil([&] {
        return Posted.load(std::memory_order_acquire) != Seen;
      });
      Lock.lock();
      if (Arrived)
        continue;
      ++IdleWaitCount; // The worker is about to block for work.
      StartCv.wait(Lock, [&] { return Shutdown || anyRunnableLocked(); });
      continue;
    }
    size_t TileIdx = claimTileLocked(*J);
    const auto &Fn = *J->Fn;
    const TileRange &Tile = J->Tiles[TileIdx];
    Lock.unlock();
    Fn(Tile, WorkerIdx);
    TileCounts[WorkerIdx].fetch_add(1, std::memory_order_relaxed);
    Lock.lock();
    if (--J->Remaining == 0)
      DoneCv.notify_all(); // J's caller may be waiting; wake every waiter.
  }
}

void ThreadPool::parallelFor2D(
    int Width, int Height, int TileW, int TileH,
    const std::function<void(const TileRange &, unsigned)> &Fn,
    unsigned Source) {
  if (Width <= 0 || Height <= 0)
    return;
  if (TileW <= 0)
    TileW = Width;
  if (TileH <= 0)
    TileH = Height;

  std::vector<TileRange> Enumerated;
  for (int Y0 = 0; Y0 < Height; Y0 += TileH)
    for (int X0 = 0; X0 < Width; X0 += TileW)
      Enumerated.push_back(TileRange{X0, Y0, std::min(X0 + TileW, Width),
                                     std::min(Y0 + TileH, Height)});

  // Serial reference path: no workers, or nothing worth fanning out. The
  // caller runs every tile inline in enumeration order; concurrent
  // callers of a 1-thread shared pool each drain their own launch on
  // their own thread.
  if (NumThreads == 1 || Enumerated.size() == 1) {
    for (const TileRange &Tile : Enumerated)
      Fn(Tile, 0);
    TileCounts[0].fetch_add(Enumerated.size(), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++LaunchCount;
      if (Source >= SourceTiles.size())
        Source = 0;
      SourceTiles[Source] += Enumerated.size();
    }
    return;
  }

  Job J;
  J.Fn = &Fn;
  J.Tiles = std::move(Enumerated);
  J.Remaining = J.Tiles.size();

  std::unique_lock<std::mutex> Lock(Mutex);
  if (Source >= Sched.numSources())
    Source = 0; // Unregistered tag: charge the default source.
  J.Source = Source;
  // If this source had no job in flight, clamp its pass up to the busiest
  // competitors' minimum (or the virtual time, with none) so a returning
  // tenant doesn't replay its idle time as a monopoly burst.
  std::vector<unsigned> Runnable;
  bool SourceWasIdle = true;
  for (const Job *Active : ActiveJobs) {
    if (Active->Source == Source)
      SourceWasIdle = false;
    if (Active->NextTile < Active->Tiles.size())
      Runnable.push_back(Active->Source);
  }
  if (SourceWasIdle)
    Sched.activate(Source, Runnable);
  ActiveJobs.push_back(&J);
  Posted.fetch_add(1, std::memory_order_release);
  ++LaunchCount;
  Lock.unlock();
  StartCv.notify_all();

  // The caller drains only its own job, as that job's worker 0. It must
  // not steal tiles from concurrent launches: worker index 0 would then
  // be shared by two threads inside one launch, and per-worker scratch
  // indexed by the callback's worker id would race.
  uint64_t Drained = 0;
  Lock.lock();
  while (J.NextTile < J.Tiles.size()) {
    size_t TileIdx = claimTileLocked(J);
    const TileRange &Tile = J.Tiles[TileIdx];
    Lock.unlock();
    Fn(Tile, 0);
    ++Drained;
    Lock.lock();
    if (--J.Remaining == 0)
      DoneCv.notify_all();
  }
  if (J.Remaining != 0) {
    // The last tiles run on other workers; they finish within a tile's
    // time, usually sooner than a sleep and a wake-up.
    Lock.unlock();
    spinUntil(
        [&] { return J.Remaining.load(std::memory_order_acquire) == 0; });
    Lock.lock();
  }
  DoneCv.wait(Lock, [&] { return J.Remaining == 0; });
  ActiveJobs.erase(std::find(ActiveJobs.begin(), ActiveJobs.end(), &J));
  Lock.unlock();
  if (Drained != 0)
    TileCounts[0].fetch_add(Drained, std::memory_order_relaxed);
}
