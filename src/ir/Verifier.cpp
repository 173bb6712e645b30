//===- ir/Verifier.cpp -----------------------------------------------------===//

#include "ir/Verifier.h"

#include "support/Error.h"

#include <set>

using namespace kf;

namespace {

/// Walks one kernel body, reporting coded diagnostics and recording which
/// inputs are accessed through windows / offsets.
class BodyChecker {
  const Program &P;
  const Kernel &K;
  const DiagLocation &Loc;
  DiagnosticEngine &DE;

public:
  BodyChecker(const Program &P, const Kernel &K, const DiagLocation &Loc,
              DiagnosticEngine &DE)
      : P(P), K(K), Loc(Loc), DE(DE), WindowedInput(K.Inputs.size(), false) {}

  bool SawStencil = false;
  bool SawNonZeroOffset = false;
  /// Per kernel input: accessed through a stencil window or a non-zero
  /// constant offset (i.e. the access has a halo).
  std::vector<bool> WindowedInput;

  void walk(const Expr *E, bool InStencil) {
    if (!E) {
      DE.error("KF-P05", "null expression operand", Loc);
      return;
    }
    switch (E->Kind) {
    case ExprKind::FloatConst:
    case ExprKind::CoordX:
    case ExprKind::CoordY:
      return;
    case ExprKind::MaskValue:
    case ExprKind::StencilOffX:
    case ExprKind::StencilOffY:
      if (!InStencil)
        DE.error("KF-P05", "stencil-scoped node outside a stencil", Loc);
      return;
    case ExprKind::InputAt:
      if (checkInput(E->InputIdx, E->Channel) &&
          (E->OffsetX != 0 || E->OffsetY != 0)) {
        SawNonZeroOffset = true;
        WindowedInput[E->InputIdx] = true;
      }
      return;
    case ExprKind::StencilInput:
      if (!InStencil)
        DE.error("KF-P05", "window access outside a stencil", Loc);
      if (checkInput(E->InputIdx, E->Channel) && InStencil)
        WindowedInput[E->InputIdx] = true;
      return;
    case ExprKind::Binary:
      walk(E->Lhs, InStencil);
      walk(E->Rhs, InStencil);
      return;
    case ExprKind::Unary:
      walk(E->Lhs, InStencil);
      return;
    case ExprKind::Select:
      walk(E->Cond, InStencil);
      walk(E->Lhs, InStencil);
      walk(E->Rhs, InStencil);
      return;
    case ExprKind::Stencil:
      SawStencil = true;
      if (InStencil)
        DE.error("KF-P05", "nested stencils are not supported", Loc);
      if (E->MaskIdx < 0 || E->MaskIdx >= static_cast<int>(P.numMasks()))
        DE.error("KF-P05",
                 "stencil references mask " + std::to_string(E->MaskIdx) +
                     " but the program declares " +
                     std::to_string(P.numMasks()) + " masks",
                 Loc, "declare the mask before the kernel that uses it");
      walk(E->Lhs, /*InStencil=*/true);
      return;
    }
    KF_UNREACHABLE("unknown expression kind");
  }

private:
  /// Returns true when the access indices are in range (downstream checks
  /// may then dereference them safely).
  bool checkInput(int InputIdx, int Channel) {
    if (InputIdx < 0 || InputIdx >= static_cast<int>(K.Inputs.size())) {
      DE.error("KF-P05",
               "input index " + std::to_string(InputIdx) +
                   " out of range (kernel has " +
                   std::to_string(K.Inputs.size()) + " inputs)",
               Loc);
      return false;
    }
    const ImageInfo &In = P.image(K.Inputs[InputIdx]);
    if (Channel >= In.Channels)
      DE.error("KF-P07",
               "channel " + std::to_string(Channel) +
                   " out of range for input '" + In.Name + "' (" +
                   std::to_string(In.Channels) + " channels)",
               Loc);
    const ImageInfo &Out = P.image(K.Output);
    if (Channel < 0 && In.Channels != Out.Channels)
      DE.error("KF-P07",
               "implicit channel access requires matching channel counts: "
               "input '" +
                   In.Name + "' has " + std::to_string(In.Channels) +
                   ", output '" + Out.Name + "' has " +
                   std::to_string(Out.Channels),
               Loc, "select an explicit channel with '.<n>'");
    return true;
  }
};

} // namespace

bool kf::verifyProgram(const Program &P, DiagnosticEngine &DE,
                       std::vector<std::vector<bool>> *WindowedInputs) {
  DiagLocation ProgLoc;
  ProgLoc.Unit = P.name();

  // Masks: odd positive extents, coefficient count matching the extents
  // (the accessor-arity contract stencil unrolling relies on).
  for (int M = 0; M != static_cast<int>(P.numMasks()); ++M) {
    const Mask &Msk = P.mask(M);
    if (Msk.Width <= 0 || Msk.Height <= 0 || Msk.Width % 2 == 0 ||
        Msk.Height % 2 == 0)
      DE.error("KF-P04",
               "mask " + std::to_string(M) + " extents " +
                   std::to_string(Msk.Width) + "x" +
                   std::to_string(Msk.Height) + " must be positive and odd",
               ProgLoc, "use an odd window such as 3x3 or 5x5");
    else if (Msk.Weights.size() !=
             static_cast<size_t>(Msk.Width) * Msk.Height)
      DE.error("KF-P04",
               "mask " + std::to_string(M) + " declares " +
                   std::to_string(static_cast<long long>(Msk.Width) *
                                  Msk.Height) +
                   " coefficients but carries " +
                   std::to_string(Msk.Weights.size()),
               ProgLoc);
  }

  // Image-id ranges first: every downstream check dereferences them.
  bool IdsValid = true;
  for (const Kernel &K : P.kernels()) {
    auto reportBadId = [&](const char *Role, ImageId Id) {
      DiagLocation Loc = ProgLoc;
      Loc.Kernel = K.Name;
      DE.error("KF-P02",
               std::string(Role) + " image id " + std::to_string(Id) +
                   " is not a declared image",
               Loc);
      IdsValid = false;
    };
    if (K.Output >= P.numImages())
      reportBadId("output", K.Output);
    for (ImageId In : K.Inputs)
      if (In >= P.numImages())
        reportBadId("input", In);
  }
  if (!IdsValid)
    return false;

  if (WindowedInputs)
    WindowedInputs->assign(P.numKernels(), {});
  std::set<ImageId> Produced;
  for (KernelId Id = 0; Id != P.numKernels(); ++Id) {
    const Kernel &K = P.kernel(Id);
    DiagLocation Loc = ProgLoc;
    Loc.Kernel = K.Name;

    if (!Produced.insert(K.Output).second)
      DE.error("KF-P03",
               "image '" + P.image(K.Output).Name +
                   "' has more than one producer",
               Loc, "each image may be written by at most one kernel");
    if (K.Granularity <= 0)
      DE.error("KF-P12",
               "granularity " + std::to_string(K.Granularity) +
                   " must be positive",
               Loc);

    const ImageInfo &Out = P.image(K.Output);
    for (ImageId In : K.Inputs) {
      const ImageInfo &InInfo = P.image(In);
      if (InInfo.Width != Out.Width || InInfo.Height != Out.Height)
        DE.error("KF-P06",
                 "input '" + InInfo.Name + "' (" +
                     std::to_string(InInfo.Width) + "x" +
                     std::to_string(InInfo.Height) +
                     ") differs in shape from output '" + Out.Name + "' (" +
                     std::to_string(Out.Width) + "x" +
                     std::to_string(Out.Height) + ")",
                 Loc);
      if (In == K.Output)
        DE.error("KF-P06", "kernel reads its own output '" + Out.Name + "'",
                 Loc);
    }

    BodyChecker Checker(P, K, Loc, DE);
    Checker.walk(K.Body, /*InStencil=*/false);

    bool IsWindowed = Checker.SawStencil || Checker.SawNonZeroOffset;
    if (K.Kind == OperatorKind::Point && IsWindowed)
      DE.error("KF-P08",
               "point kernel accesses inputs away from the iteration point",
               Loc, "declare the kernel 'local' or drop the window access");
    if (K.Kind == OperatorKind::Local && !IsWindowed)
      DE.error("KF-P08", "local kernel contains no window access", Loc,
               "declare the kernel 'point' or add a window access");
    if (WindowedInputs)
      (*WindowedInputs)[Id] = std::move(Checker.WindowedInput);
  }

  if (P.buildKernelDag().hasCycle())
    DE.error("KF-P01", "kernel dependence graph has a cycle", ProgLoc,
             "break the cycle: no kernel may transitively feed itself");
  return true;
}

void kf::verifyProgramOrDie(const Program &P) {
  DiagnosticEngine DE;
  verifyProgram(P, DE);
  if (DE.empty())
    return;
  const Diagnostic &First = DE.diagnostics().front();
  reportFatalError("program '" + P.name() + "' is invalid: " + First.Code +
                   ": " + First.Loc.str() + ": " + First.Message);
}
