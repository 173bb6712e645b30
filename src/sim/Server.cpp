//===- sim/Server.cpp -------------------------------------------------------===//

#include "sim/Server.h"

#include "sim/Metrics.h"
#include "support/Trace.h"

#include <chrono>

using namespace kf;

namespace {

double elapsedMs(std::chrono::steady_clock::time_point From,
                 std::chrono::steady_clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

} // namespace

PipelineServer::PipelineServer(ServerOptions OptionsIn)
    : Options(OptionsIn),
      Pool(resolveThreadCount(Options.Threads)),
      Cache(Options.PlanCacheCapacity) {
  Dispatchers.reserve(Options.Dispatchers);
  for (unsigned I = 0; I != Options.Dispatchers; ++I)
    Dispatchers.emplace_back([this] { dispatchLoop(); });
  // The threads that execute tiles are the pool's workers and the
  // dispatchers (each runs its own frame's tiles too). When they fit the
  // CPUs the process may use, each gets a CPU of its own. Left to the OS,
  // two of them could stay stacked on one CPU for seconds, each running
  // half the time, while another CPU idled: the saturated throughput of
  // one process ran at three cores' worth and of the next at four.
  const std::vector<int> Cpus = allowedCpus();
  const size_t Workers = Pool.numThreads() - 1;
  const size_t Executors = Workers + Dispatchers.size();
  if (Executors > 1 && Executors <= Cpus.size()) {
    Pool.pinWorkers(Cpus);
    for (size_t I = 0; I != Dispatchers.size(); ++I)
      pinThread(Dispatchers[I], Cpus[Workers + I]);
  }
}

PipelineServer::~PipelineServer() {
  // With live dispatchers, queued frames drain before shutdown. With
  // none, there is nobody to serve them: undispatched frames are
  // discarded (drive runPending() first for a clean finish).
  if (!Dispatchers.empty())
    Sched.waitAllIdle();
  Sched.stop();
  for (std::thread &D : Dispatchers)
    D.join();
}

PipelineServer::SessionId PipelineServer::open(const FusedProgram &FP,
                                               ExecutionOptions ExecOptions,
                                               TenantOptions TenantIn) {
  SessionId Id =
      Sched.addSession(TenantIn.QueueCapacity, TenantIn.Weight,
                       TenantIn.Policy);
  auto T = std::make_shared<Tenant>();
  T->Name = TenantIn.Name.empty() ? "s" + std::to_string(Id) : TenantIn.Name;
  T->SchedId = Id;
  // One pool work source per tenant: the same weight that arbitrates
  // frame dispatch also arbitrates tile claims, so a heavy tenant gets
  // proportionally more of both.
  T->PoolSource = Pool.registerSource(T->Name, TenantIn.Weight);
  ExecOptions.Source = T->PoolSource;
  T->Session =
      std::make_unique<PipelineSession>(FP, ExecOptions, &Cache, &Pool);
  {
    std::lock_guard<std::mutex> Lock(TenantsMutex);
    Tenants.emplace(Id, std::move(T));
  }
  return Id;
}

std::shared_ptr<PipelineServer::Tenant>
PipelineServer::findTenant(SessionId Id) const {
  std::lock_guard<std::mutex> Lock(TenantsMutex);
  auto It = Tenants.find(Id);
  return It == Tenants.end() ? nullptr : It->second;
}

bool PipelineServer::submit(SessionId Id, PipelineSession::FrameFiller Fill,
                            PipelineSession::FrameConsumer Consume) {
  std::shared_ptr<Tenant> T = findTenant(Id);
  if (!T)
    return false;
  QueuedFrame Work;
  Work.Fill = std::move(Fill);
  Work.Consume = std::move(Consume);
  // Frame indices must be contiguous in queue order even under
  // concurrent submitters, so the index assignment and the enqueue are
  // one critical section. A Block-policy enqueue parks later submitters
  // here too -- they would block on the full queue anyway.
  std::lock_guard<std::mutex> Lock(T->SubmitMutex);
  Work.Index = T->NextFrame;
  if (!Sched.enqueue(Id, std::move(Work))) {
    if (MetricsRegistry::enabled())
      MetricsRegistry::global().recordServerRejection(T->Name);
    return false;
  }
  ++T->NextFrame;
  if (TraceRecorder::enabled())
    TraceRecorder::global().setGauge(
        "server.queue." + T->Name,
        static_cast<double>(Sched.queueStats(Id).Depth));
  return true;
}

void PipelineServer::serveFrame(Tenant &T, const QueuedFrame &Work) {
  auto DispatchedAt = std::chrono::steady_clock::now();
  double QueueMs = elapsedMs(Work.Enqueued, DispatchedAt);

  TraceSpan Span("server.frame", "server");
  std::vector<Image> Frame = T.Session->acquireFrame();
  if (Work.Fill)
    Work.Fill(Work.Index, Frame);
  T.Session->runFrame(Frame);
  if (Work.Consume)
    Work.Consume(Work.Index, Frame);
  T.Session->releaseFrame(std::move(Frame));

  double ExecMs = elapsedMs(DispatchedAt, std::chrono::steady_clock::now());
  Span.arg("queue_ms", QueueMs);
  Span.arg("exec_ms", ExecMs);
  {
    std::lock_guard<std::mutex> Lock(T.StatsMutex);
    T.LatenciesMs.push_back(QueueMs + ExecMs);
    T.QueueMs += QueueMs;
    T.ExecMs += ExecMs;
    // Session counters snapshot under the same lock: runFrame just
    // finished on this thread and the next frame of this session cannot
    // start until complete(), so the read is quiescent.
    T.SessionSnapshot = T.Session->stats();
  }
  if (MetricsRegistry::enabled())
    MetricsRegistry::global().recordServerFrame(T.Name, QueueMs, ExecMs);
  if (TraceRecorder::enabled())
    TraceRecorder::global().setGauge(
        "server.queue." + T.Name,
        static_cast<double>(Sched.queueStats(T.SchedId).Depth));
}

void PipelineServer::dispatchLoop() {
  unsigned Id = 0;
  QueuedFrame Work;
  while (Sched.dequeue(Id, Work)) {
    // The tenant is pinned by shared_ptr: close() may drop the map entry,
    // but it first waits for this frame's complete().
    if (std::shared_ptr<Tenant> T = findTenant(Id))
      serveFrame(*T, Work);
    Sched.complete(Id);
  }
}

size_t PipelineServer::runPending(size_t MaxFrames) {
  size_t Served = 0;
  unsigned Id = 0;
  QueuedFrame Work;
  while (Served != MaxFrames && Sched.tryDequeue(Id, Work)) {
    if (std::shared_ptr<Tenant> T = findTenant(Id))
      serveFrame(*T, Work);
    Sched.complete(Id);
    ++Served;
  }
  return Served;
}

void PipelineServer::drain(SessionId Id) { Sched.waitSessionIdle(Id); }

void PipelineServer::drainAll() { Sched.waitAllIdle(); }

void PipelineServer::close(SessionId Id) {
  // Closed first so racing submits fail instead of landing in a dying
  // queue; then the already-admitted frames drain (the dispatchers, or a
  // runPending() driver, keep serving them).
  Sched.closeSession(Id);
  Sched.waitSessionIdle(Id);
  Sched.removeSession(Id);
  std::lock_guard<std::mutex> Lock(TenantsMutex);
  Tenants.erase(Id);
}

TenantStats PipelineServer::tenantStats(SessionId Id) const {
  TenantStats Stats;
  std::shared_ptr<Tenant> T = findTenant(Id);
  if (!T)
    return Stats;
  FrameQueueStats Queue = Sched.queueStats(Id);
  Stats.Name = T->Name;
  Stats.Submitted = Queue.Enqueued;
  Stats.Completed = Queue.Completed;
  Stats.Rejected = Queue.Rejected;
  Stats.MaxQueueDepth = Queue.MaxDepth;
  std::lock_guard<std::mutex> Lock(T->StatsMutex);
  Stats.QueueMs = T->QueueMs;
  Stats.ExecMs = T->ExecMs;
  Stats.LatenciesMs = T->LatenciesMs;
  Stats.Session = T->SessionSnapshot;
  return Stats;
}
