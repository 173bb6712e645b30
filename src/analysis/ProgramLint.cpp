//===- analysis/ProgramLint.cpp --------------------------------------------===//

#include "analysis/ProgramLint.h"

#include "ir/Verifier.h"

#include <set>

using namespace kf;

void kf::lintProgram(const Program &P, DiagnosticEngine &DE) {
  std::vector<std::vector<bool>> WindowedInputs;
  if (!verifyProgram(P, DE, &WindowedInputs))
    return; // The lint checks below would dereference invalid ids.
  DiagLocation ProgLoc;
  ProgLoc.Unit = P.name();

  std::set<ImageId> Produced;
  std::set<ImageId> Consumed;
  for (KernelId Id = 0; Id != P.numKernels(); ++Id) {
    const Kernel &K = P.kernel(Id);
    Produced.insert(K.Output);
    Consumed.insert(K.Inputs.begin(), K.Inputs.end());

    // Border-mode compatibility across fusible edges (Section IV-B): a
    // window read of a produced intermediate is a fusion candidate whose
    // index exchange applies *this* kernel's border mode; if the producer
    // is a local kernel with a different mode, the edge cannot legally
    // fuse (fusion/Legality rejects it) -- warn at program level.
    for (size_t InIdx = 0; InIdx != K.Inputs.size(); ++InIdx) {
      if (!WindowedInputs[Id][InIdx])
        continue;
      std::optional<KernelId> Producer = P.producerOf(K.Inputs[InIdx]);
      if (!Producer)
        continue;
      const Kernel &Prod = P.kernel(*Producer);
      if (Prod.Kind == OperatorKind::Local && Prod.Border != K.Border) {
        DiagLocation Loc = ProgLoc;
        Loc.Kernel = K.Name;
        DE.warning("KF-P11",
                   "window edge '" + Prod.Name + "' -> '" + K.Name +
                       "' mixes border modes (" +
                       borderModeName(Prod.Border) + " vs " +
                       borderModeName(K.Border) +
                       "); the edge cannot be fused",
                   Loc, "use one border mode along the fusible chain");
      }
    }
  }

  // Unused images: declared but neither produced nor consumed.
  for (ImageId Id = 0; Id != P.numImages(); ++Id)
    if (!Produced.count(Id) && !Consumed.count(Id))
      DE.warning("KF-P10",
                 "image '" + P.image(Id).Name +
                     "' is neither produced nor consumed",
                 ProgLoc, "remove the unused image declaration");

  // The dead-kernel reachability below needs an acyclic DAG (the
  // verifier reported KF-P01 otherwise).
  Digraph Dag = P.buildKernelDag();
  if (Dag.hasCycle())
    return;

  // Dead kernels. Terminal outputs (produced, never consumed) are the
  // pipeline results; with a single terminal every kernel provably feeds
  // it. With several, the last declared kernel's output is the primary
  // result (builders and the serializer emit kernels in topological
  // order), and kernels that cannot reach it produce unused outputs.
  std::vector<ImageId> Terminals = P.terminalOutputs();
  if (Terminals.size() > 1 && P.numKernels() != 0) {
    KernelId Primary = P.numKernels() - 1;
    std::vector<bool> ReachesPrimary(P.numKernels(), false);
    ReachesPrimary[Primary] = true;
    std::vector<KernelId> Work{Primary};
    while (!Work.empty()) {
      KernelId N = Work.back();
      Work.pop_back();
      for (Digraph::NodeId Pred : Dag.predecessors(N))
        if (!ReachesPrimary[Pred]) {
          ReachesPrimary[Pred] = true;
          Work.push_back(Pred);
        }
    }
    for (KernelId Id = 0; Id != P.numKernels(); ++Id)
      if (!ReachesPrimary[Id]) {
        DiagLocation Loc = ProgLoc;
        Loc.Kernel = P.kernel(Id).Name;
        DE.warning("KF-P09",
                   "dead kernel: no path to the pipeline result '" +
                       P.image(P.kernel(Primary).Output).Name + "'",
                   Loc, "remove the dead kernel or consume its output");
      }
  }
}
