//===- ledger/CompileChurn.cpp - A stream of build requests --------------===//
//
// Closed loop, one client: each request takes pipeline text to its first
// output frame. Requests alternate seeded random .kfp DAGs and .lz
// scripts of 8-64 kernels, generated before timing; a fixed share repeats
// a recently requested shape, so plan-cache hits sit beside misses.
// Frames are 48x48, so the compile layers do nearly all the work.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Workloads.h"

#include "frontend/LazyScript.h"
#include "frontend/Parser.h"
#include "image/Generators.h"
#include "sim/LazyRuntime.h"

#include <sched.h>

using namespace ledger;
using namespace kf;

namespace {

constexpr int FrameSize = 48;
constexpr int SetupRounds = 7;
constexpr unsigned NumShapes = 512;
/// The share of builds whose shape was built before is serve_mixed's:
/// eight tenants over six pipelines, so two builds in eight repeat one.
constexpr double RepeatShare = 0.25;
/// A repeat picks one of the last RepeatWindow new shapes. The window is
/// half the cache, so every repeat finds its plan and plancache.hit_frac
/// equals RepeatShare; within that, it only chooses which recent shape
/// repeats, and shape sizes are stratified, so the mix does not move.
constexpr unsigned RepeatWindow = 16;
constexpr size_t CacheCapacity = 32;
/// Requests served in set-up: enough to fill the cache twice over, so the
/// set-up spans many shapes.
constexpr size_t WarmRequests = 2 * CacheCapacity;
constexpr size_t OrderLength = size_t(1) << 17;
/// Requests between two moves of the client to the next CPU.
constexpr size_t RequestsPerCpu = 32;

/// Moves the calling thread round robin over the CPUs it may run on, and
/// back to all of them (so threads it starts later are not pinned). On a
/// shared host one CPU can run
/// about 1.5 times slower than another for tens of seconds, as its
/// neighbours load it; a closed loop that stayed on one CPU would measure
/// that CPU, one that moves samples them all.
class CpuRotation {
public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
      return;
    for (int Cpu = 0; Cpu != CPU_SETSIZE; ++Cpu)
      if (CPU_ISSET(Cpu, &Allowed))
        Cpus.push_back(Cpu);
  }
  ~CpuRotation() { restore(); }
  void restore() {
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof(Allowed), &Allowed);
  }
  void next() {
    if (Cpus.size() < 2)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Next++ % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

private:
  cpu_set_t Allowed;
  std::vector<int> Cpus;
  size_t Next = 0;
};

/// The service's state.
struct Churn {
  ThreadPool Pool{1};
  PlanCache Cache{CacheCapacity};
};

/// A program with its inputs (in external-input order) and outputs, as
/// one request built and ran them; kept for the oracle.
struct Request {
  bool Ok = false;
  std::unique_ptr<Program> Prog;
  std::vector<Image> Inputs;
  std::vector<std::pair<ImageId, Image>> Outputs;
};

/// The image a frame input named \p Name reads: lazy scripts name theirs
/// in0 and in1, a .kfp DAG's single input takes in0.
const Image &inputNamed(const std::string &Name,
                        const std::vector<Image> &Images) {
  return Images[Name == "in1" ? 1 : 0];
}

/// What one measured window observed.
struct Window {
  Samples CompileMs, FrameMs;
  uint64_t Requests = 0, Failed = 0, Hits = 0, Misses = 0;
  double WallMs = 0.0, CpuMs = 0.0;
  PoolDelta Pool;
};

/// Serves requests from \p Order at \p Cursor until \p Seconds have passed
/// or \p MaxRequests were served, moving to the next CPU every
/// RequestsPerCpu requests.
void churnWindow(Churn &C, const std::vector<ShapeText> &Shapes,
                 const std::vector<unsigned> &Order,
                 const std::vector<Image> &Images, double Seconds,
                 size_t MaxRequests, size_t &Cursor,
                 std::vector<Request> &First, CpuRotation &Cpus, Tracer &T,
                 Window &W) {
  ExecutionOptions Options;
  Options.Threads = 1;
  const PoolDelta PoolBefore = poolDelta(C.Pool, nullptr);
  const double Cpu0 = processCpuMs();
  const auto Start = Clock::now();
  while (W.Requests != MaxRequests && msSince(Start) < Seconds * 1e3) {
    if (Cursor % RequestsPerCpu == 0)
      Cpus.next();
    const unsigned Index = Order[Cursor++ % Order.size()];
    const ShapeText &Shape = Shapes[Index];
    const bool Capture = !First[Index].Ok;
    ++W.Requests;
    bool Hit = false;
    auto compileWith = [&](const FusedProgram &FP) {
      return C.Cache.getOrCompile(
          planKey(FP, Options),
          [&] { return compilePlanTraced(FP, Options, T); }, &Hit);
    };

    const auto T0 = Clock::now();
    bool Ok = false;
    if (!Shape.Lazy) {
      Built B;
      Ok = buildKfp(Shape.Text, B, T) && compileWith(B.FP) != nullptr;
      const auto T1 = Clock::now();
      if (Ok) {
        PipelineSession Session(B.FP, Options, &C.Cache, &C.Pool);
        std::vector<Image> Frame = Session.acquireFrame();
        const std::vector<Image> Inputs = {Images[0]};
        T.span("session.fill_ms",
               [&] { fillInputs(*B.Prog, Frame, Inputs); });
        Session.runFrame(Frame);
        W.FrameMs.add(msSince(T1));
        if (Capture) {
          First[Index].Outputs = captureOutputs(*B.Prog, Frame);
          First[Index].Inputs = Inputs;
          First[Index].Prog = std::move(B.Prog);
        }
      }
      W.CompileMs.add(msBetween(T0, T1));
    } else {
      LazyScriptResult Script = T.span("frontend.lazy_record_ms", [&] {
        return parseLazyScript(Shape.Text);
      });
      MaterializedPipeline MP;
      if (Script.ok())
        MP = T.span("analysis.lazy_gate_ms", [&] {
          return compileLazy(*Script.Pipeline, Script.outputs());
        });
      Ok = MP.Ok && compileWith(MP.Fused) != nullptr;
      const auto T1 = Clock::now();
      W.CompileMs.add(msBetween(T0, T1));
      if (Ok) {
        std::vector<std::pair<std::string, const Image *>> Inputs;
        for (const auto &Entry : MP.Inputs)
          Inputs.emplace_back(Entry.first, &inputNamed(Entry.first, Images));
        LazyRunResult Run = runLazy(MP, Inputs, Options, &C.Cache, &C.Pool);
        W.FrameMs.add(msSince(T1));
        Ok = Run.Ok;
        if (Ok && Capture) {
          for (size_t I = 0; I != MP.Outputs.size(); ++I)
            First[Index].Outputs.emplace_back(MP.Outputs[I],
                                              std::move(Run.Outputs[I]));
          for (ImageId Id : MP.Prog->externalInputs())
            for (const auto &Entry : MP.Inputs)
              if (Entry.second == Id)
                First[Index].Inputs.push_back(inputNamed(Entry.first, Images));
          First[Index].Prog = std::move(MP.Prog);
        }
      }
    }
    if (!Ok)
      ++W.Failed;
    else if (Capture)
      First[Index].Ok = true;
    (Hit ? W.Hits : W.Misses) += Ok ? 1 : 0;
  }
  W.WallMs = msSince(Start);
  W.CpuMs = processCpuMs() - Cpu0;
  W.Pool = poolDelta(C.Pool, &PoolBefore);
  Cpus.restore();
}

} // namespace

void ledger::runCompileChurn(const RunOptions &Opt, Report &R) {
  // The request corpus, input images and request order, drawn from the
  // seed before timing.
  const std::vector<ShapeText> Shapes =
      makeChurnShapes(Opt.Seed, NumShapes, FrameSize, FrameSize);
  std::vector<Image> Images;
  Rng Gen(subSeed(Opt.Seed, 20));
  for (int I = 0; I != 2; ++I)
    Images.push_back(makeRandomImage(FrameSize, FrameSize, 1, Gen));
  const std::vector<unsigned> Order = makeChurnRequestOrder(
      Opt.Seed, NumShapes, OrderLength, RepeatShare, RepeatWindow);

  // Set-up: the pool and the plan cache, and the first WarmRequests
  // requests served, which fill the cache.
  std::vector<Request> First(NumShapes);
  CpuRotation Cpus;
  Tracer Off(false), T(Opt.Trace);
  Samples SetupS;
  std::unique_ptr<Churn> C;
  size_t Cursor = 0;
  Window Warm;
  for (int Round = 0; Round != SetupRounds; ++Round) {
    C.reset();
    Cursor = 0;
    Warm = Window();
    auto Start = Clock::now();
    C = std::make_unique<Churn>();
    churnWindow(*C, Shapes, Order, Images, 1e9, WarmRequests, Cursor, First,
                Cpus, Off, Warm);
    SetupS.add(msSince(Start) / 1e3);
  }

  const double Mpix = FrameSize * FrameSize / 1e6;
  std::vector<Window> Windows(Opt.Trace ? 2 : RunParts);
  for (size_t I = 0; I != Windows.size(); ++I)
    churnWindow(*C, Shapes, Order, Images, Opt.Seconds / Windows.size(),
                OrderLength, Cursor, First, Cpus, Opt.Trace && I == 1 ? T : Off,
                Windows[I]);
  for (uint64_t I = 0; I != Warm.Requests; ++I)
    R.attempt(I >= Warm.Failed);
  for (const Window &W : Windows)
    for (uint64_t I = 0; I != W.Requests; ++I)
      R.attempt(I >= W.Failed);

  // The oracle: each distinct shape's first frame against runUnfused.
  unsigned Checked = 0;
  for (unsigned I = 0; I != NumShapes; ++I)
    if (First[I].Ok) {
      ++Checked;
      if (!matchesReference(*First[I].Prog, First[I].Inputs,
                            First[I].Outputs))
        R.mismatch("compile_churn: first frame of shape " +
                   std::to_string(I) + " differs from runUnfused");
    }
  R.meta("churn", "{\"shapes\": " + std::to_string(NumShapes) +
                      ", \"shapes_checked\": " + std::to_string(Checked) +
                      ", \"frame\": " + std::to_string(FrameSize) +
                      ", \"repeat_share\": " + std::to_string(RepeatShare) +
                      ", \"repeat_window\": " + std::to_string(RepeatWindow) +
                      ", \"warm_requests\": " + std::to_string(WarmRequests) +
                      ", \"cache_capacity\": " +
                      std::to_string(CacheCapacity) + "}");

  if (!Opt.Trace) {
    std::vector<Part> Parts(RunParts);
    for (int I = 0; I != RunParts; ++I) {
      const Window &W = Windows[I];
      Parts[I].CpuMsPerMpix = W.CpuMs / (W.Requests * Mpix);
      Parts[I].MpixPerS = W.Requests * Mpix / (W.WallMs / 1e3);
      Parts[I].FrameMs = W.FrameMs;
      Parts[I].CompileMs = W.CompileMs;
    }
    reportParts(Parts, SetupS, R);
    return;
  }

  // Traced: the first half untraced, the second traced.
  const Window &Untraced = Windows[0], &Traced = Windows[1];
  reportCompileLayers(T, R);
  // The largest shape's frame pool: every image of a 64-kernel DAG.
  reportBandwidthRoofs((MaxChurnKernels + 1) * FrameSize * FrameSize *
                           sizeof(float),
                       R);
  Built Harris;
  Tracer Untimed(false);
  buildKfp(registryText("harris", FrameSize, FrameSize), Harris, Untimed);
  reportHarrisLaunches(Harris.FP, {}, 0.0, R);
  R.metric("session.fill_ms", T.medianMs("session.fill_ms"), "ms",
           T.calls("session.fill_ms"));
  R.metric("plancache.hit_frac",
           static_cast<double>(Traced.Hits) /
               std::max<uint64_t>(1, Traced.Hits + Traced.Misses),
           "frac");
  R.metric("plancache.evictions",
           static_cast<double>(C->Cache.stats().Evictions), "count");
  reportPool(Traced.Pool, static_cast<double>(Traced.Requests), R);
  R.metric("proc.cores_busy", Traced.CpuMs / Traced.WallMs, "cores");
  R.metric("trace.overhead_frac",
           (Traced.WallMs / Traced.Requests) /
                   (Untraced.WallMs / Untraced.Requests) -
               1.0,
           "frac");
}
