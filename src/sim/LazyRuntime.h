//===- sim/LazyRuntime.h - Materialization of lazy pipelines ----*- C++ -*-===//
///
/// \file
/// The execution half of the lazy frontend (frontend/Lazy.h): lowering a
/// recorded DAG, running the full static-analysis gate, fusing, and
/// executing through the session machinery. Split from the frontend
/// because materialization needs fusion + analysis + sessions, which the
/// frontend layer (ir + support only) must not depend on.
///
/// Materialization stages (docs/FRONTEND.md):
///
///   record -> lower -> lint -> fuse -> legality/footprint/bytecode ->
///   intervals -> [session: optimize -> JIT -> execute]
///
/// compileLazy covers everything up to the session: it produces a
/// MaterializedPipeline holding the canonical live Program, its fused
/// form, and the collected diagnostics. Lazy programs are untrusted
/// input, so the gate is strict: any KF-* error (or warning under Werror)
/// rejects the pipeline -- the session layer, whose compile path aborts
/// on invalid programs by contract, never sees one that failed the gate.
///
/// runLazy executes a frame of a materialized pipeline through a
/// PipelineSession against a PlanCache, so repeated materializations of
/// structurally identical DAGs -- the same *shape*, regardless of the
/// user's value names -- hit the cache warm (frontend/Lazy.h explains the
/// canonical naming that makes the structural hash shape-keyed).
///
//===----------------------------------------------------------------------===//

#ifndef KF_SIM_LAZYRUNTIME_H
#define KF_SIM_LAZYRUNTIME_H

#include "frontend/Lazy.h"
#include "fusion/HardwareModel.h"
#include "fusion/Legality.h"
#include "sim/Session.h"
#include "support/Diagnostics.h"

namespace kf {

/// Gate configuration of one materialization.
struct LazyGateOptions {
  HardwareModel HW;         ///< Cost model driving the min-cut partitioner.
  LegalityOptions Legality; ///< Fusion legality rules.
  bool Fuse = true;         ///< false = singleton partition (op-at-a-time).
  bool Werror = false;      ///< Reject on analyzer warnings too.
};

/// The result of compileLazy: the canonical live program, its fused form,
/// and the gate's diagnostics. Move-only (owns the Program the
/// FusedProgram points into; the heap-allocated Program keeps its address
/// across moves, so Fused.Source stays valid).
struct MaterializedPipeline {
  bool Ok = false;          ///< Gate passed; safe to execute.
  DiagnosticEngine Diags;   ///< Everything the gate reported.
  std::unique_ptr<Program> Prog; ///< Canonical live program.
  FusedProgram Fused;       ///< Fused form of *Prog.
  /// User input name -> image id of *Prog (what a frame must fill).
  std::vector<std::pair<std::string, ImageId>> Inputs;
  /// Image ids of the requested outputs, in request order.
  std::vector<ImageId> Outputs;
  /// Prog->structuralHash(): the shape key the plan cache builds on.
  uint64_t StructuralHash = 0;
};

/// Lowers \p LP for the requested \p Outputs and runs the full gate:
/// frontend issues, program lint (over the *unpruned* DAG, so problems in
/// branches that pruning would drop are still rejected), fusion, fused
/// legality, per-launch footprint + bytecode validation, and interval
/// interpretation. Never throws or aborts on malformed input; inspect
/// MaterializedPipeline::Ok and ::Diags.
///
/// Dead branches (recorded ops no requested output depends on) are pruned
/// silently: KF-P09/KF-P10 dead-code warnings do not fire for lazy
/// pipelines, since unrequested branches are the normal idiom of a
/// record-everything client.
MaterializedPipeline compileLazy(const LazyPipeline &LP,
                                 const std::vector<LazyImage> &Outputs,
                                 const LazyGateOptions &Gate = {});

/// Counters of one runLazy call.
struct LazyRunStats {
  bool PlanWasHit = false; ///< Plan came out of the cache warm.
  double CompileMs = 0.0;  ///< Plan compilation time (0 on a hit).
  double ExecMs = 0.0;     ///< Frame execution time.
  uint64_t PlanKey = 0;    ///< Cache key the frame executed under.
};

/// The result of one lazy frame execution.
struct LazyRunResult {
  bool Ok = false;
  DiagnosticEngine Diags; ///< Input-contract errors (KF-P00), if any.
  /// One image per requested output, in request order.
  std::vector<Image> Outputs;
  LazyRunStats Stats;
};

/// Executes one frame of \p MP through a PipelineSession. \p Inputs maps
/// user input names to frames; every external input of the pipeline must
/// be present with the declared shape (values in [0, 1], the repo-wide
/// input contract the interval gate assumes). \p Cache defaults to the
/// process-wide plan cache; pass the server's cache to share plans with
/// other tenants. \p SharedPool, when given, borrows a server thread pool
/// instead of building one.
LazyRunResult runLazy(const MaterializedPipeline &MP,
                      const std::vector<std::pair<std::string, const Image *>>
                          &Inputs,
                      const ExecutionOptions &Exec = ExecutionOptions(),
                      PlanCache *Cache = nullptr,
                      ThreadPool *SharedPool = nullptr);

/// Convenience wrapper: compileLazy + runLazy in one call -- the
/// `materialize()` of the record-and-fuse API. On gate rejection the
/// result carries the gate's diagnostics and no outputs.
LazyRunResult materializeLazy(
    const LazyPipeline &LP, const std::vector<LazyImage> &Outputs,
    const std::vector<std::pair<std::string, const Image *>> &Inputs,
    const ExecutionOptions &Exec = ExecutionOptions(),
    const LazyGateOptions &Gate = {}, PlanCache *Cache = nullptr,
    ThreadPool *SharedPool = nullptr);

} // namespace kf

#endif // KF_SIM_LAZYRUNTIME_H
