//===- sim/LazyRuntime.cpp - Materialization of lazy pipelines ------------===//

#include "sim/LazyRuntime.h"

#include "analysis/Analyzer.h"
#include "fusion/MinCutPartitioner.h"
#include "transform/Fuser.h"

#include <chrono>

namespace kf {

MaterializedPipeline compileLazy(const LazyPipeline &LP,
                                 const std::vector<LazyImage> &Outputs,
                                 const LazyGateOptions &Gate) {
  MaterializedPipeline MP;

  // -- Lower. Frontend-level issues (dangling handles, bad shapes, ...)
  // become diagnostics against the pipeline name.
  LazyLowering Lowered = LP.lower(Outputs);
  for (const LazyIssue &Issue : Lowered.Issues) {
    DiagLocation Loc;
    Loc.Unit = LP.name();
    Loc.Kernel = Issue.Where;
    MP.Diags.error(Issue.Code, Issue.Message, Loc);
  }
  if (!Lowered.recordOk())
    return MP;

  // -- Lint the *full* (unpruned, user-named) program so every recorded
  // op is validated and diagnostics read like the client's code. Dead
  // branches are the normal lazy idiom, so the dead-code warnings
  // (KF-P09 dead kernel, KF-P10 unused image) are dropped: pruning, not
  // the user, is responsible for them here.
  {
    DiagnosticEngine FullLint;
    lintProgram(*Lowered.Full, FullLint);
    for (const Diagnostic &Diag : FullLint.diagnostics())
      if (Diag.Code != "KF-P09" && Diag.Code != "KF-P10")
        MP.Diags.report(Diag);
    if (MP.Diags.errorCount() > 0)
      return MP;
  }

  // -- Defensive re-lint of the pruned canonical program the executor
  // will actually see. By construction it can only pass (its kernels are
  // a renamed subset plus identity exports); if it ever fails, reject --
  // the session compile path asserts on malformed IR.
  {
    DiagnosticEngine LiveLint;
    lintProgram(*Lowered.Live, LiveLint);
    if (LiveLint.errorCount() > 0) {
      for (const Diagnostic &Diag : LiveLint.diagnostics())
        MP.Diags.report(Diag);
      return MP;
    }
  }

  MP.Prog = std::move(Lowered.Live);
  MP.Inputs = std::move(Lowered.LiveInputs);
  MP.Outputs = std::move(Lowered.LiveOutputs);
  MP.StructuralHash = Lowered.StructuralHash;

  // -- Fuse: min-cut partitioning by default, singleton blocks when the
  // caller wants op-at-a-time execution (the bench's baseline).
  const Program &P = *MP.Prog;
  Partition Blocks = Gate.Fuse
                         ? runMinCutFusion(P, Gate.HW, Gate.Legality).Blocks
                         : makeSingletonPartition(P);
  MP.Fused = fuseProgram(P, Blocks, FusionStyle::Optimized);

  // -- The fused-program gate, the same checks `kfc --analyze` and
  // compilePlan run: legality re-check, then per-launch footprint +
  // bytecode validation and the interval interpretation (checkLaunches).
  checkFusedLegality(MP.Fused, Gate.HW, Gate.Legality, MP.Diags);
  checkLaunches(MP.Fused, MP.Diags, LP.name());

  MP.Ok = !MP.Diags.failed(Gate.Werror);
  return MP;
}

LazyRunResult
runLazy(const MaterializedPipeline &MP,
        const std::vector<std::pair<std::string, const Image *>> &Inputs,
        const ExecutionOptions &Exec, PlanCache *Cache,
        ThreadPool *SharedPool) {
  LazyRunResult Result;
  if (!MP.Ok || !MP.Prog) {
    Result.Diags.error("KF-P00",
                       "cannot execute a pipeline the gate rejected");
    return Result;
  }

  // -- Input contract: every external input present, with the declared
  // shape. Violations are diagnosed, never forwarded to the session
  // (whose compiled launches index buffers by the declared shapes).
  for (const auto &Entry : MP.Inputs) {
    const ImageInfo &Info = MP.Prog->image(Entry.second);
    const Image *Provided = nullptr;
    for (const auto &Given : Inputs)
      if (Given.first == Entry.first)
        Provided = Given.second;
    if (Provided == nullptr) {
      Result.Diags.error("KF-P00", "missing external input '" + Entry.first +
                                       "'");
      continue;
    }
    if (Provided->width() != Info.Width || Provided->height() != Info.Height ||
        Provided->channels() != Info.Channels)
      Result.Diags.error(
          "KF-P00",
          "input '" + Entry.first + "' has shape " +
              std::to_string(Provided->width()) + "x" +
              std::to_string(Provided->height()) + "x" +
              std::to_string(Provided->channels()) + ", expected " +
              std::to_string(Info.Width) + "x" + std::to_string(Info.Height) +
              "x" + std::to_string(Info.Channels));
  }
  if (Result.Diags.errorCount() > 0)
    return Result;

  PipelineSession Session(MP.Fused, Exec, Cache, SharedPool);
  std::vector<Image> Frame = Session.acquireFrame();
  for (const auto &Entry : MP.Inputs)
    for (const auto &Given : Inputs)
      if (Given.first == Entry.first)
        Frame[Entry.second] = *Given.second;

  auto Start = std::chrono::steady_clock::now();
  Session.runFrame(Frame);
  auto End = std::chrono::steady_clock::now();

  Result.Outputs.reserve(MP.Outputs.size());
  for (ImageId Id : MP.Outputs)
    Result.Outputs.push_back(Frame[Id]);

  const SessionStats &Stats = Session.stats();
  Result.Stats.PlanWasHit = Stats.PlanHits > 0;
  Result.Stats.CompileMs = Stats.CompileMs;
  Result.Stats.ExecMs =
      std::chrono::duration<double, std::milli>(End - Start).count();
  Result.Stats.PlanKey = planKey(MP.Fused, Session.options());
  Result.Ok = true;
  return Result;
}

LazyRunResult materializeLazy(
    const LazyPipeline &LP, const std::vector<LazyImage> &Outputs,
    const std::vector<std::pair<std::string, const Image *>> &Inputs,
    const ExecutionOptions &Exec, const LazyGateOptions &Gate,
    PlanCache *Cache, ThreadPool *SharedPool) {
  MaterializedPipeline MP = compileLazy(LP, Outputs, Gate);
  if (!MP.Ok) {
    LazyRunResult Result;
    Result.Diags = MP.Diags;
    return Result;
  }
  return runLazy(MP, Inputs, Exec, Cache, SharedPool);
}

} // namespace kf
