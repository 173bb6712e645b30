//===- sim/Session.cpp ------------------------------------------------------===//

#include "sim/Session.h"

#include "analysis/Analyzer.h"
#include "analysis/BytecodeValidator.h"
#include "analysis/IntervalAnalysis.h"
#include "jit/JitProgram.h"
#include "sim/Metrics.h"
#include "support/Error.h"
#include "support/Trace.h"

#include <cassert>
#include <chrono>
#include <thread>

using namespace kf;

namespace {

/// splitmix64 finalizer: a full-avalanche 64-bit mixer.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// The pool allocation plan of \p P: one shape per image id.
std::vector<ImageInfo> poolShapes(const Program &P) {
  std::vector<ImageInfo> Shapes;
  Shapes.reserve(P.numImages());
  for (ImageId Id = 0; Id != P.numImages(); ++Id)
    Shapes.push_back(P.image(Id));
  return Shapes;
}

double sinceMs(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// The one launch loop of a compiled plan, behind both runFusedVm and
/// PipelineSession::runFrame: checks \p Frame against the plan's pool
/// shapes, then runs every launch in order, writing its output in place.
/// With tracing or metrics on, each launch gets a "launch <name>" span
/// and a MetricsRegistry::recordLaunch.
void runPlan(const CompiledPlan &Plan, std::vector<Image> &Frame,
             const ExecutionOptions &Options, ThreadPool &TP,
             VmScratch &Scratch) {
  if (Frame.size() != Plan.Shapes.size())
    reportFatalError("image pool size mismatch for '" +
                     Plan.ProgramName + "'");
  for (ImageId Id : Plan.ExternalInputs) {
    const Image &In = Frame[Id];
    const ImageInfo &Info = Plan.Shapes[Id];
    if (In.empty() || In.width() != Info.Width ||
        In.height() != Info.Height || In.channels() != Info.Channels)
      reportFatalError("external input '" + Info.Name +
                       "' missing or mis-shaped in the image pool");
  }

  const bool Observe = TraceRecorder::enabled() || MetricsRegistry::enabled();
  for (const CompiledLaunch &Launch : Plan.Launches) {
    const ImageInfo &Info = Plan.Shapes[Launch.Output];
    Image &Out = Frame[Launch.Output];
    if (Out.width() != Info.Width || Out.height() != Info.Height ||
        Out.channels() != Info.Channels)
      Out = Image(Info.Width, Info.Height, Info.Channels);
    // In-place write: a launch never reads its own output (the kernel DAG
    // is acyclic), so reusing the previous frame's buffer is safe.
    if (!Observe) {
      runCompiledLaunch(Launch.Code, Launch.Root, Launch.Halo, Frame, Out,
                        Options, TP, Scratch, nullptr, Launch.Jit.get());
    } else {
      std::string Label = "launch " + Launch.Name;
      LaunchTiming Timing;
      TraceSpan Span(Label.c_str(), "sim");
      runCompiledLaunch(Launch.Code, Launch.Root, Launch.Halo, Frame, Out,
                        Options, TP, Scratch, &Timing, Launch.Jit.get());
      Span.arg("interior_ms", Timing.InteriorMs);
      Span.arg("halo_ms", Timing.HaloMs);
      Span.arg("vm_span", Timing.Mode == VmMode::Span ? 1.0 : 0.0);
      Span.arg("tiling_overlapped",
               Timing.Tiling == TilingStrategy::Overlapped ? 1.0 : 0.0);
      Span.arg("overlap_pixels",
               static_cast<double>(Timing.OverlapPixels));
      const JitProgram *Jit =
          Timing.Mode == VmMode::Jit ? Launch.Jit.get() : nullptr;
      MetricsRegistry::global().recordLaunch(
          Plan.ProgramName, Launch.Name, Timing.TotalMs,
          Timing.InteriorMs, Timing.HaloMs, Timing.Mode, Timing.Tiling,
          Jit ? Jit->FlatInsts : 0, Jit ? Jit->cells() : 0);
    }
  }
}

} // namespace

uint64_t kf::planKey(const FusedProgram &FP, const ExecutionOptions &Options) {
  assert(FP.Source && "fused program without a source program");
  uint64_t H = FP.Source->structuralHash();
  H = mix64(H ^ static_cast<uint64_t>(FP.Style));
  for (const FusedKernel &FK : FP.Kernels) {
    H = mix64(H ^ 0xb10c);
    for (const FusedStage &Stage : FK.Stages)
      H = mix64(H ^ ((static_cast<uint64_t>(Stage.Kernel) << 8) |
                     static_cast<uint64_t>(Stage.OutputPlacement)));
    for (KernelId Dest : FK.Destinations)
      H = mix64(H ^ (0xde57 + Dest));
  }
  // compilePlan reads only Opt. The other options change how a plan
  // runs, never what it holds, so sessions that differ only there (the
  // server's per-tenant Source tag included) share one plan.
  return mix64(H ^ static_cast<uint64_t>(Options.Opt));
}

std::vector<CompiledLaunch> kf::checkLaunches(const FusedProgram &FP,
                                              DiagnosticEngine &DE,
                                              const std::string &Unit) {
  const Program &P = *FP.Source;
  std::vector<ImageInfo> Shapes = poolShapes(P);
  std::vector<InputRange> PoolRanges(P.numImages());
  std::vector<CompiledLaunch> Launches;
  for (const FusedKernel &FK : FP.Kernels) {
    StagedVmProgram SP = compileFusedKernel(FP, FK);
    const size_t First = Launches.size();
    const unsigned Errors = DE.errorCount();
    for (KernelId DestId : FK.Destinations) {
      CompiledLaunch &Launch = Launches.emplace_back();
      Launch.Name = FK.Name;
      for (size_t I = 0; I != FK.Stages.size(); ++I)
        if (FK.Stages[I].Kernel == DestId)
          Launch.Root = static_cast<uint16_t>(I);
      Launch.Output = P.kernel(DestId).Output;
      Launch.Halo = fusedLaunchHalo(SP, Launch.Root, P.image(Launch.Output));
      Launch.Code = SP;
      analyzeLaunch(P, FK, FK.Name, Launch.Code, Launch.Root, Launch.Halo,
                    Shapes, DE);
    }
    // Interpreting bytecode the validator rejected is not sound, so those
    // launches get no facts.
    if (DE.errorCount() != Errors)
      continue;
    DiagLocation Loc;
    Loc.Unit = Unit;
    Loc.Kernel = FK.Name;
    for (size_t I = First; I != Launches.size(); ++I) {
      CompiledLaunch &Launch = Launches[I];
      IntervalAnalysisResult Intervals = analyzeStagedIntervals(
          Launch.Code, Launch.Root, PoolRanges, I == First ? &DE : nullptr,
          Loc);
      Launch.Facts = std::move(Intervals.Stages);
      PoolRanges[Launch.Output] = InputRange::of(Intervals.Result);
    }
  }
  return Launches;
}

std::shared_ptr<const CompiledPlan>
kf::compilePlan(const FusedProgram &FP, const ExecutionOptions &Options) {
  const Program &P = *FP.Source;
  TraceSpan Span("session.compile", "session");
  // Plan compilation is where a streaming run's launches take shape, so
  // it is also where their model predictions are recorded.
  if (MetricsRegistry::enabled())
    MetricsRegistry::global().recordPrediction(P.name(), FP);
  auto Plan = std::make_shared<CompiledPlan>();
  Plan->Key = planKey(FP, Options);
  Plan->ProgramName = P.name();
  Plan->Shapes = poolShapes(P);
  Plan->ExternalInputs = P.externalInputs();

  // Every freshly compiled plan is statically validated before it can
  // reach the executor or the plan cache. Compilation bugs surface here
  // as diagnostics instead of undefined behavior mid-run.
  DiagnosticEngine DE;
  Plan->Launches = checkLaunches(FP, DE);
  if (DE.errorCount() > 0)
    reportFatalError("compiled plan for '" + P.name() +
                     "' failed static validation:\n" + DE.renderText());

  // Unless ExecutionOptions::Opt turns the escape hatch, run the
  // fact-gated bytecode optimizer over every launch. A rewritten stream
  // must pass the bytecode validator again before it may replace the
  // original (the optimizer preserves KF-B01..B11 by construction; this
  // is the defensive recheck), and its halo is re-derived -- rewrites
  // only ever shrink reach, which widens the interior.
  double RemovedInsts = 0;
  if (Options.Opt == OptMode::On)
    for (CompiledLaunch &Launch : Plan->Launches) {
      StagedVmProgram Optimized = Launch.Code;
      uint16_t Root = Launch.Root;
      VmOptStats Stats;
      if (!optimizeStagedProgram(Optimized, Root, Launch.Facts, &Stats))
        continue;
      DiagnosticEngine OptDE;
      validateStagedProgram(Optimized, Root, Plan->Shapes, OptDE);
      if (OptDE.errorCount() != 0)
        continue;
      Launch.Code = std::move(Optimized);
      Launch.Root = Root;
      Launch.Halo =
          fusedLaunchHalo(Launch.Code, Launch.Root, P.image(Launch.Output));
      Launch.OptStats = Stats;
      RemovedInsts += Stats.removedInsts();
    }
  if (TraceRecorder::enabled())
    TraceRecorder::global().addCounter("opt.removed_insts", RemovedInsts);
  Span.arg("opt_removed_insts", RemovedInsts);

  // With validation green, compile the per-launch JIT artifacts (the
  // validator's invariants are the contract the JIT codegen trusts --
  // compileJitProgram re-runs it and refuses independently). The artifact
  // is mode-independent derived data riding in the cached plan: the
  // default Jit mode runs it where a launch carries one, so sessions get
  // the native interior path by default, with nullptr falling back to
  // span.
  for (CompiledLaunch &Launch : Plan->Launches)
    Launch.Jit = compileJitProgram(Launch.Code, Launch.Root, Plan->Shapes);
  return Plan;
}

void kf::runFusedVm(const FusedProgram &FP, std::vector<Image> &Pool,
                    const ExecutionOptions &Options) {
  std::shared_ptr<const CompiledPlan> Plan = compilePlan(FP, Options);
  ThreadPool TP(resolveThreadCount(Options.Threads));
  VmScratch Scratch;
  runPlan(*Plan, Pool, Options, TP, Scratch);
}

//===--------------------------------------------------------------------===//
// PlanCache
//===--------------------------------------------------------------------===//

PlanCache::PlanCache(size_t CapacityIn)
    : Capacity(CapacityIn == 0 ? 1 : CapacityIn) {}

std::shared_ptr<const CompiledPlan> PlanCache::lookup(uint64_t Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Index.find(Key);
  if (It == Index.end()) {
    ++Stats.Misses;
    return nullptr;
  }
  ++Stats.Hits;
  Lru.splice(Lru.begin(), Lru, It->second); // Promote to most recent.
  return *It->second;
}

void PlanCache::insertLocked(std::shared_ptr<const CompiledPlan> Plan) {
  auto It = Index.find(Plan->Key);
  if (It != Index.end()) {
    *It->second = std::move(Plan);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.push_front(std::move(Plan));
  Index[Lru.front()->Key] = Lru.begin();
  while (Lru.size() > Capacity) {
    // Eviction only drops the cache's shared_ptr reference: a session
    // still executing the evicted plan holds its own reference and the
    // plan stays alive until that borrower releases it.
    Index.erase(Lru.back()->Key);
    Lru.pop_back();
    ++Stats.Evictions;
  }
}

void PlanCache::insert(std::shared_ptr<const CompiledPlan> Plan) {
  assert(Plan && "inserting a null plan");
  std::lock_guard<std::mutex> Lock(Mutex);
  insertLocked(std::move(Plan));
}

std::shared_ptr<const CompiledPlan> PlanCache::getOrCompile(
    uint64_t Key,
    const std::function<std::shared_ptr<const CompiledPlan>()> &Compile,
    bool *WasHit) {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    auto It = Index.find(Key);
    if (It != Index.end()) {
      ++Stats.Hits;
      Lru.splice(Lru.begin(), Lru, It->second);
      if (WasHit)
        *WasHit = true;
      return *It->second;
    }
    auto PendingIt = Pending.find(Key);
    if (PendingIt == Pending.end())
      break; // This caller leads the compile.
    // Another caller is compiling this key right now: wait and share its
    // result instead of compiling the same plan twice (single-flight).
    std::shared_ptr<InFlight> Slot = PendingIt->second;
    InFlightCv.wait(Lock, [&] { return Slot->Done; });
    ++Stats.Hits; // Served a shared plan without compiling: a hit.
    if (WasHit)
      *WasHit = true;
    return Slot->Plan;
  }

  ++Stats.Misses;
  auto Slot = std::make_shared<InFlight>();
  Pending.emplace(Key, Slot);
  Lock.unlock();
  std::shared_ptr<const CompiledPlan> Plan = Compile();
  Lock.lock();
  Slot->Plan = Plan;
  Slot->Done = true;
  Pending.erase(Key);
  if (Plan)
    insertLocked(Plan);
  Lock.unlock();
  InFlightCv.notify_all();
  if (WasHit)
    *WasHit = false;
  return Plan;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  PlanCacheStats Out = Stats;
  Out.Entries = Lru.size();
  return Out;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  // In-flight compiles (Pending) are left alone: their leaders insert on
  // completion as if freshly compiled.
  Lru.clear();
  Index.clear();
  Stats = PlanCacheStats();
}

PlanCache &kf::globalPlanCache() {
  static PlanCache Cache(16);
  return Cache;
}

//===--------------------------------------------------------------------===//
// FramePool
//===--------------------------------------------------------------------===//

std::vector<Image>
FramePool::acquire(const std::vector<ImageInfo> &Shapes,
                   const std::vector<ImageId> &Outputs) {
  std::vector<Image> Frame;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!Free.empty() && Free.back().size() == Shapes.size()) {
      Frame = std::move(Free.back());
      Free.pop_back();
      ++Reused;
    } else {
      Frame.resize(Shapes.size());
      ++Allocated;
    }
  }
  // Reshaping happens outside the lock: the frame is exclusively owned
  // here, and image allocation is the expensive part.
  // (Re)shape the launch outputs; recycled frames of the same session
  // already match and keep their buffers.
  for (ImageId Id : Outputs) {
    const ImageInfo &Info = Shapes[Id];
    const Image &Existing = Frame[Id];
    if (Existing.width() != Info.Width || Existing.height() != Info.Height ||
        Existing.channels() != Info.Channels)
      Frame[Id] = Image(Info.Width, Info.Height, Info.Channels);
  }
  return Frame;
}

void FramePool::release(std::vector<Image> &&Frame) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Free.push_back(std::move(Frame));
}

uint64_t FramePool::framesReused() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Reused;
}

uint64_t FramePool::framesAllocated() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Allocated;
}

//===--------------------------------------------------------------------===//
// PipelineSession
//===--------------------------------------------------------------------===//

PipelineSession::PipelineSession(const FusedProgram &FPIn,
                                 ExecutionOptions OptionsIn,
                                 PlanCache *CacheIn,
                                 ThreadPool *SharedPoolIn)
    : FP(&FPIn), Options(OptionsIn),
      Cache(CacheIn ? CacheIn : &globalPlanCache()),
      SharedPool(SharedPoolIn) {
  const Program &P = *FP->Source;
  Shapes = poolShapes(P);
  for (const FusedKernel &FK : FP->Kernels)
    for (KernelId Dest : FK.Destinations)
      Outputs.push_back(P.kernel(Dest).Output);
}

void PipelineSession::setOptions(const ExecutionOptions &NewOptions) {
  Options = NewOptions;
  Plan.reset(); // Next frame re-keys; the thread pool rebuilds lazily.
}

void PipelineSession::ensureThreadPool() {
  if (SharedPool)
    return; // Borrowed pool: the server owns sizing and lifetime.
  unsigned Want = resolveThreadCount(Options.Threads);
  if (!Pool || PoolThreads != Want) {
    Pool = std::make_unique<ThreadPool>(Want);
    PoolThreads = Want;
  }
}

std::shared_ptr<const CompiledPlan> PipelineSession::plan() {
  uint64_t Key = planKey(*FP, Options);
  // Single-flight through the (possibly shared) cache: when N tenants
  // first touch the same plan concurrently, one compiles and the rest
  // share the result.
  bool WasHit = false;
  std::shared_ptr<const CompiledPlan> Cached = Cache->getOrCompile(
      Key,
      [&] {
        auto Start = std::chrono::steady_clock::now();
        auto Compiled = compilePlan(*FP, Options);
        Stats.CompileMs += sinceMs(Start);
        return Compiled;
      },
      &WasHit);
  if (WasHit)
    ++Stats.PlanHits;
  else
    ++Stats.PlanMisses;
  Plan = Cached;
  return Cached;
}

std::vector<Image> PipelineSession::acquireFrame() {
  std::vector<Image> Frame = Frames.acquire(Shapes, Outputs);
  Stats.FramesReused = Frames.framesReused();
  Stats.FramesAllocated = Frames.framesAllocated();
  return Frame;
}

void PipelineSession::releaseFrame(std::vector<Image> &&Frame) {
  Frames.release(std::move(Frame));
}

void PipelineSession::runFrame(std::vector<Image> &Frame) {
  std::shared_ptr<const CompiledPlan> Current = plan();
  ensureThreadPool();
  TraceSpan FrameSpan("session.frame", "session");
  auto Start = std::chrono::steady_clock::now();
  runPlan(*Current, Frame, Options, SharedPool ? *SharedPool : *Pool,
          Scratch);
  Stats.ExecMs += sinceMs(Start);
  ++Stats.Frames;
}

SessionStats PipelineSession::runFrames(int NumFrames,
                                        const FrameFiller &Fill,
                                        const FrameConsumer &Consume) {
  if (NumFrames <= 0)
    return Stats;

  std::vector<Image> Current = acquireFrame();
  if (Fill)
    Fill(0, Current);
  for (int F = 0; F != NumFrames; ++F) {
    // Double buffering: fill frame F+1 on a filler thread while frame F
    // executes on the session's thread pool. The two frames are disjoint
    // buffers; join() orders the fill before the swap below.
    std::vector<Image> Next;
    std::thread Filler;
    if (F + 1 != NumFrames) {
      Next = acquireFrame();
      if (Fill)
        Filler = std::thread([&Fill, &Next, F] {
          // Spanning the fill on its own thread makes the fill/exec
          // overlap directly visible on the trace timeline.
          TraceSpan Span("session.fill", "session");
          Fill(F + 1, Next);
        });
    }

    runFrame(Current);
    if (Consume)
      Consume(F, Current);

    if (Filler.joinable())
      Filler.join();
    if (F + 1 != NumFrames) {
      releaseFrame(std::move(Current));
      Current = std::move(Next);
    }
  }
  releaseFrame(std::move(Current));
  return Stats;
}
