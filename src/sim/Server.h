//===- sim/Server.h - Multi-tenant pipeline server --------------*- C++ -*-===//
///
/// \file
/// The serving layer above PipelineSession: a PipelineServer multiplexes N
/// independent client sessions over ONE shared ThreadPool and ONE shared
/// PlanCache. Each tenant keeps its own PipelineSession (frame pool,
/// scratch, stats) but borrows the server's pool -- so tile batches from
/// concurrently in-flight frames of different tenants interleave under
/// stride-fair arbitration (support/Stride.h) instead of running serially
/// -- and shares compiled plans: the cache key is the program's structural
/// hash plus the optimizer setting (planKey), so two tenants running the
/// same pipeline with the same Opt compile once (single-flight) and share
/// the plan.
///
/// Admission is per tenant: a bounded frame queue with a backpressure
/// policy (Block or Reject; sim/Scheduler.h) and a scheduling weight that
/// applies at both granularities -- the frame-level dispatch pick and the
/// tile-level pool arbitration charge the same weight.
///
/// Execution is driven by dispatcher threads (ServerOptions::Dispatchers),
/// or -- with zero dispatchers -- by the caller via runPending(), which
/// dispatches inline in the exact stride order and is what the
/// deterministic fairness tests use. Results are bit-identical to running
/// each tenant's frames serially on a private session: tiles are disjoint
/// and pixels are pure functions of the (immutable) inputs, so no
/// interleaving can change a single bit (tests/test_server.cpp asserts
/// this differentially).
///
/// Observability: `server.frame` trace spans (queue/exec split),
/// `server.queue.<tenant>` depth gauges, and a per-tenant frame-latency
/// table in the MetricsRegistry.
///
//===----------------------------------------------------------------------===//

#ifndef KF_SIM_SERVER_H
#define KF_SIM_SERVER_H

#include "sim/Scheduler.h"
#include "sim/Session.h"

#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace kf {

/// Server-wide configuration.
struct ServerOptions {
  /// Worker threads of the shared pool. 0 resolves via KF_THREADS /
  /// hardware concurrency (resolveThreadCount).
  int Threads = 0;

  /// Capacity of the cross-tenant shared plan cache.
  size_t PlanCacheCapacity = 32;

  /// Dispatcher threads executing queued frames. 0 means no background
  /// execution: the owner drives dispatch with runPending() (inline,
  /// deterministic).
  unsigned Dispatchers = 1;
};

/// Per-tenant configuration.
struct TenantOptions {
  std::string Name;        ///< Trace/metrics label; "" = "s<id>".
  size_t QueueCapacity = 4;///< Bounded frame queue depth (>= 1).
  uint64_t Weight = 1;     ///< Stride weight, frames AND tiles.
  BackpressurePolicy Policy = BackpressurePolicy::Block;
};

/// Aggregate view of one tenant, merging scheduler counters, session
/// counters, and the server's latency samples.
struct TenantStats {
  std::string Name;
  uint64_t Submitted = 0;  ///< Frames admitted to the queue.
  uint64_t Completed = 0;  ///< Frames fully served.
  uint64_t Rejected = 0;   ///< Submissions refused by backpressure.
  size_t MaxQueueDepth = 0;
  double QueueMs = 0.0;    ///< Total admission-to-dispatch wait.
  double ExecMs = 0.0;     ///< Total fill+run+consume time.
  std::vector<double> LatenciesMs; ///< Per-frame queue+exec, serve order.
  SessionStats Session;    ///< The tenant session's own counters.
};

/// A multi-tenant pipeline server. All public member functions are
/// thread-safe; submit() may block (Block policy). Destruction drains
/// every tenant queue, then stops and joins the dispatchers.
class PipelineServer {
public:
  using SessionId = unsigned;

  explicit PipelineServer(ServerOptions OptionsIn = ServerOptions());
  ~PipelineServer();

  PipelineServer(const PipelineServer &) = delete;
  PipelineServer &operator=(const PipelineServer &) = delete;

  /// Opens a tenant session for \p FP (which must outlive the tenant)
  /// under \p ExecOptions. ExecOptions.Source is overwritten with the
  /// tenant's pool work-source tag. Returns the tenant's id.
  SessionId open(const FusedProgram &FP,
                 ExecutionOptions ExecOptions = ExecutionOptions(),
                 TenantOptions TenantIn = TenantOptions());

  /// Submits one frame: \p Fill runs on the dispatching thread to fill
  /// the frame's external inputs, then the frame executes, then
  /// \p Consume (if any) observes the outputs. Both receive the tenant's
  /// 0-based frame index. Returns false when the tenant is closed or the
  /// queue rejected the frame (Reject policy).
  bool submit(SessionId Id, PipelineSession::FrameFiller Fill,
              PipelineSession::FrameConsumer Consume = nullptr);

  /// Blocks until tenant \p Id has no queued or in-flight frames.
  void drain(SessionId Id);

  /// Blocks until no tenant has queued or in-flight frames.
  void drainAll();

  /// Closes tenant \p Id: further submits fail, queued frames drain, then
  /// the tenant's session is destroyed. Safe against concurrent submits.
  void close(SessionId Id);

  /// Inline dispatch: executes up to \p MaxFrames queued frames on the
  /// calling thread, in exact stride order, returning the number served.
  /// The deterministic twin of the dispatcher threads (Dispatchers = 0).
  size_t runPending(size_t MaxFrames = SIZE_MAX);

  /// Snapshot of tenant \p Id's counters (zeroed Name when unknown).
  TenantStats tenantStats(SessionId Id) const;

  PlanCacheStats cacheStats() const { return Cache.stats(); }
  ThreadPool &pool() { return Pool; }
  unsigned threads() const { return Pool.numThreads(); }

private:
  struct Tenant {
    std::string Name;
    std::unique_ptr<PipelineSession> Session;
    unsigned SchedId = 0;   ///< FrameScheduler session id (== SessionId).
    unsigned PoolSource = 0;///< ThreadPool work-source tag.
    std::mutex SubmitMutex; ///< Orders index assignment with enqueue.
    int NextFrame = 0;      ///< Next submit's frame index.
    // Latency samples, guarded by StatsMutex (dispatchers append while
    // clients snapshot).
    mutable std::mutex StatsMutex;
    std::vector<double> LatenciesMs;
    double QueueMs = 0.0;
    double ExecMs = 0.0;
    SessionStats SessionSnapshot; ///< Copied after each served frame.
  };

  void dispatchLoop();
  /// Fills, runs, and consumes one dequeued frame of \p T.
  void serveFrame(Tenant &T, const QueuedFrame &Work);
  /// Shared tail of submit/close/stats: the tenant for \p Id or null.
  std::shared_ptr<Tenant> findTenant(SessionId Id) const;

  ServerOptions Options;
  ThreadPool Pool;
  PlanCache Cache;
  FrameScheduler Sched;

  mutable std::mutex TenantsMutex;
  /// shared_ptr: a dispatcher serving a frame keeps its tenant alive
  /// while close() drops the map entry.
  std::unordered_map<SessionId, std::shared_ptr<Tenant>> Tenants;

  std::vector<std::thread> Dispatchers;
};

} // namespace kf

#endif // KF_SIM_SERVER_H
