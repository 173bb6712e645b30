//===- sim/Scheduler.cpp ----------------------------------------------------===//

#include "sim/Scheduler.h"

#include <algorithm>

using namespace kf;

unsigned FrameScheduler::addSession(size_t Capacity, uint64_t Weight,
                                    BackpressurePolicy Policy) {
  std::lock_guard<std::mutex> Lock(Mutex);
  unsigned Id = NextId++;
  SessionState &S = Sessions[Id];
  S.Capacity = Capacity ? Capacity : 1;
  S.Policy = Policy;
  S.StrideId = Sched.addSource(Weight);
  return Id;
}

void FrameScheduler::closeSession(unsigned Session) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Sessions.find(Session);
    if (It == Sessions.end())
      return;
    It->second.Closed = true;
  }
  // Blocked producers of this session must observe Closed and fail.
  SpaceCv.notify_all();
}

void FrameScheduler::removeSession(unsigned Session) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Sessions.find(Session);
  if (It != Sessions.end())
    Sessions.erase(It);
}

bool FrameScheduler::enqueue(unsigned Session, QueuedFrame Work) {
  std::unique_lock<std::mutex> Lock(Mutex);
  auto It = Sessions.find(Session);
  if (It == Sessions.end())
    return false;
  SessionState *S = &It->second;
  if (S->Closed || Stopped)
    return false;
  if (S->Queue.size() >= S->Capacity) {
    if (S->Policy == BackpressurePolicy::Reject) {
      ++S->Stats.Rejected;
      return false;
    }
    // Block until a slot frees. The session may close or the scheduler
    // stop while we wait; both unblock with failure. The map node is
    // stable across rehashing, but re-find after waking anyway in case
    // the session was removed outright.
    SpaceCv.wait(Lock, [&] {
      auto Found = Sessions.find(Session);
      if (Found == Sessions.end())
        return true;
      S = &Found->second;
      return Stopped || S->Closed || S->Queue.size() < S->Capacity;
    });
    if (Sessions.find(Session) == Sessions.end() || Stopped || S->Closed)
      return false;
  }
  Work.Enqueued = std::chrono::steady_clock::now();
  const bool WasIdle = S->Queue.empty() && !S->Busy;
  S->Queue.push_back(std::move(Work));
  ++S->Stats.Enqueued;
  S->Stats.MaxDepth = std::max(S->Stats.MaxDepth, S->Queue.size());
  if (WasIdle) {
    // The session re-enters the stride race at parity with the sessions
    // currently competing (or, with none, at the scheduler's virtual
    // time), not with the pass it left off at.
    std::vector<unsigned> Runnable;
    for (const auto &[Id, Other] : Sessions)
      if (Id != Session && !Other.Queue.empty() && !Other.Busy)
        Runnable.push_back(Other.StrideId);
    Sched.activate(S->StrideId, Runnable);
  }
  Lock.unlock();
  WorkCv.notify_one();
  return true;
}

long long FrameScheduler::pickLocked() const {
  long long Best = -1;
  uint64_t BestPass = 0;
  for (const auto &[Id, S] : Sessions) {
    if (S.Busy || S.Queue.empty())
      continue;
    uint64_t Pass = Sched.pass(S.StrideId);
    // Ties break to the lowest session id so the dispatch sequence is a
    // pure function of history (the map iterates in hash order).
    if (Best < 0 || Pass < BestPass ||
        (Pass == BestPass && Id < static_cast<unsigned>(Best))) {
      Best = Id;
      BestPass = Pass;
    }
  }
  return Best;
}

void FrameScheduler::popLocked(unsigned Session, QueuedFrame &Work) {
  SessionState &S = Sessions[Session];
  Work = std::move(S.Queue.front());
  S.Queue.pop_front();
  S.Busy = true;
  ++S.Stats.Dispatched;
  Sched.charge(S.StrideId);
}

bool FrameScheduler::dequeue(unsigned &Session, QueuedFrame &Work) {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    long long Picked = pickLocked();
    if (Picked >= 0) {
      Session = static_cast<unsigned>(Picked);
      popLocked(Session, Work);
      Lock.unlock();
      SpaceCv.notify_all(); // A queue slot freed.
      return true;
    }
    if (Stopped)
      return false;
    WorkCv.wait(Lock, [&] { return Stopped || pickLocked() >= 0; });
  }
}

bool FrameScheduler::tryDequeue(unsigned &Session, QueuedFrame &Work) {
  std::unique_lock<std::mutex> Lock(Mutex);
  long long Picked = pickLocked();
  if (Picked < 0)
    return false;
  Session = static_cast<unsigned>(Picked);
  popLocked(Session, Work);
  Lock.unlock();
  SpaceCv.notify_all();
  return true;
}

void FrameScheduler::complete(unsigned Session) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Sessions.find(Session);
    if (It == Sessions.end())
      return;
    It->second.Busy = false;
    ++It->second.Stats.Completed;
  }
  // The session's next queued frame became dispatchable, a drainer may
  // now see it idle, and (Block policy) its producers already woke when
  // the frame was dequeued.
  WorkCv.notify_all();
  IdleCv.notify_all();
}

void FrameScheduler::stop() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopped = true;
  }
  WorkCv.notify_all();
  SpaceCv.notify_all();
  IdleCv.notify_all();
}

void FrameScheduler::waitSessionIdle(unsigned Session) {
  std::unique_lock<std::mutex> Lock(Mutex);
  IdleCv.wait(Lock, [&] {
    auto It = Sessions.find(Session);
    return It == Sessions.end() || idleLocked(It->second);
  });
}

void FrameScheduler::waitAllIdle() {
  std::unique_lock<std::mutex> Lock(Mutex);
  IdleCv.wait(Lock, [&] {
    for (const auto &[Id, S] : Sessions)
      if (!idleLocked(S))
        return false;
    return true;
  });
}

FrameQueueStats FrameScheduler::queueStats(unsigned Session) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Sessions.find(Session);
  if (It == Sessions.end())
    return FrameQueueStats();
  FrameQueueStats Stats = It->second.Stats;
  Stats.Depth = It->second.Queue.size();
  return Stats;
}
