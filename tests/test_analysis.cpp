//===- tests/test_analysis.cpp - Static analyzer: lint + footprint --------------===//
//
// The diagnostics engine, the program lint pass (KF-P codes on
// hand-constructed bad programs), the footprint/halo checker (KF-F codes
// against compiled fused launches), and the legality recheck (KF-F05).
// The bytecode validator has its own mutation suite in
// test_bytecode_validator.cpp.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"
#include "fusion/MinCutPartitioner.h"
#include "pipelines/Masks.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "sim/Session.h"
#include "support/Trace.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

using namespace kf;

namespace {

//===--------------------------------------------------------------------===//
// DiagnosticEngine
//===--------------------------------------------------------------------===//

TEST(Diagnostics, CountsAndFailurePolicy) {
  DiagnosticEngine DE;
  EXPECT_TRUE(DE.empty());
  EXPECT_FALSE(DE.failed());

  DE.warning("KF-P10", "unused image");
  EXPECT_EQ(DE.warningCount(), 1u);
  EXPECT_FALSE(DE.failed());
  EXPECT_TRUE(DE.failed(/*Werror=*/true));

  DE.error("KF-P01", "cycle");
  EXPECT_EQ(DE.errorCount(), 1u);
  EXPECT_TRUE(DE.failed());
  EXPECT_TRUE(DE.hasCode("KF-P01"));
  EXPECT_TRUE(DE.hasCode("KF-P10"));
  EXPECT_FALSE(DE.hasCode("KF-P02"));
}

TEST(Diagnostics, TextRendering) {
  DiagnosticEngine DE;
  DiagLocation Loc;
  Loc.Unit = "prog";
  Loc.Kernel = "blur";
  Loc.Stage = 2;
  Loc.Inst = 7;
  DE.error("KF-B02", "register out of range", Loc, "shrink the frame");
  std::string Text = DE.renderText();
  EXPECT_NE(Text.find("error: KF-B02:"), std::string::npos) << Text;
  EXPECT_NE(Text.find("prog"), std::string::npos);
  EXPECT_NE(Text.find("blur"), std::string::npos);
  EXPECT_NE(Text.find("register out of range"), std::string::npos);
  EXPECT_NE(Text.find("hint: shrink the frame"), std::string::npos);
}

TEST(Diagnostics, JsonRendering) {
  DiagnosticEngine DE;
  DiagLocation Loc;
  Loc.Unit = "p";
  DE.warning("KF-P10", "a \"quoted\" message", Loc);
  DE.error("KF-P01", "cycle");
  std::string Json = DE.renderJson();
  EXPECT_NE(Json.find("\"diagnostics\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"code\": \"KF-P10\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\\\"quoted\\\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"errors\": 1"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"warnings\": 1"), std::string::npos) << Json;
}

//===--------------------------------------------------------------------===//
// Program lint
//===--------------------------------------------------------------------===//

/// Lints \p P into a fresh engine.
DiagnosticEngine lint(const Program &P) {
  DiagnosticEngine DE;
  lintProgram(P, DE);
  return DE;
}

TEST(ProgramLint, RegistryPipelinesAreClean) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 48);
    DiagnosticEngine DE = lint(P);
    EXPECT_TRUE(DE.empty()) << Spec.Name << ":\n" << DE.renderText();
  }
}

TEST(ProgramLint, CyclicDagIsKFP01) {
  Program P("cyclic");
  ImageId A = P.addImage("a", 8, 8);
  ImageId B = P.addImage("b", 8, 8);
  Kernel K1;
  K1.Name = "k1";
  K1.Inputs = {B};
  K1.Output = A;
  K1.Body = P.context().inputAt(0);
  P.addKernel(std::move(K1));
  Kernel K2;
  K2.Name = "k2";
  K2.Inputs = {A};
  K2.Output = B;
  K2.Body = P.context().inputAt(0);
  P.addKernel(std::move(K2));

  DiagnosticEngine DE = lint(P);
  EXPECT_TRUE(DE.hasCode("KF-P01")) << DE.renderText();
  EXPECT_TRUE(DE.failed());
}

TEST(ProgramLint, UndefinedImageIsKFP02) {
  Program P("badid");
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  Kernel K;
  K.Name = "k";
  K.Inputs = {In};
  K.Output = Out;
  K.Body = P.context().inputAt(0);
  KernelId Id = P.addKernel(std::move(K));
  // addKernel asserts on out-of-range ids, so corrupt the stored kernel
  // afterwards -- the lint pass exists to catch exactly this kind of
  // hand-mutated or deserialized program.
  P.kernel(Id).Inputs[0] = 7; // No such image.

  DiagnosticEngine DE = lint(P);
  EXPECT_TRUE(DE.hasCode("KF-P02")) << DE.renderText();
}

TEST(ProgramLint, MultipleProducersIsKFP03) {
  Program P("twoprod");
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  for (const char *Name : {"k1", "k2"}) {
    Kernel K;
    K.Name = Name;
    K.Inputs = {In};
    K.Output = Out;
    K.Body = P.context().inputAt(0);
    P.addKernel(std::move(K));
  }
  EXPECT_TRUE(lint(P).hasCode("KF-P03"));
}

TEST(ProgramLint, EvenMaskIsKFP04) {
  Program P("evenmask");
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  // Field assignment bypasses the asserting Mask constructor, exactly as
  // the lenient parser does for bad fixtures.
  Mask M;
  M.Width = 2;
  M.Height = 2;
  M.Weights = {1, 1, 1, 1};
  int MaskIdx = P.addMask(std::move(M));
  Kernel K;
  K.Name = "blur";
  K.Kind = OperatorKind::Local;
  K.Inputs = {In};
  K.Output = Out;
  K.Body = P.context().stencil(MaskIdx, ReduceOp::Sum,
                               P.context().mul(P.context().stencilInput(0),
                                               P.context().maskValue()));
  P.addKernel(std::move(K));

  DiagnosticEngine DE = lint(P);
  EXPECT_TRUE(DE.hasCode("KF-P04")) << DE.renderText();
}

TEST(ProgramLint, MaskCoefficientCountIsKFP04) {
  Program P("shortmask");
  Mask M;
  M.Width = 3;
  M.Height = 3;
  M.Weights = {1, 2, 3}; // 9 expected.
  P.addMask(std::move(M));
  EXPECT_TRUE(lint(P).hasCode("KF-P04"));
}

TEST(ProgramLint, OutOfRangeMaskReferenceIsKFP05) {
  Program P("badmask");
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  Kernel K;
  K.Name = "blur";
  K.Kind = OperatorKind::Local;
  K.Inputs = {In};
  K.Output = Out;
  K.Body = P.context().stencil(5, ReduceOp::Sum, // No mask 5.
                               P.context().stencilInput(0));
  P.addKernel(std::move(K));
  EXPECT_TRUE(lint(P).hasCode("KF-P05"));
}

TEST(ProgramLint, ShapeMismatchAndSelfReadAreKFP06) {
  Program P("shapes");
  ImageId Small = P.addImage("small", 4, 4);
  ImageId Big = P.addImage("big", 8, 8);
  Kernel K;
  K.Name = "k";
  K.Inputs = {Small, Big};
  K.Output = Big;
  K.Body = P.context().add(P.context().inputAt(0), P.context().inputAt(1));
  P.addKernel(std::move(K));

  DiagnosticEngine DE = lint(P);
  EXPECT_TRUE(DE.hasCode("KF-P06")) << DE.renderText();
  EXPECT_GE(DE.errorCount(), 2u); // Shape mismatch + reads its own output.
}

TEST(ProgramLint, ChannelOutOfRangeIsKFP07) {
  Program P("channels");
  ImageId In = P.addImage("in", 8, 8, /*Channels=*/3);
  ImageId Out = P.addImage("out", 8, 8, /*Channels=*/3);
  Kernel K;
  K.Name = "k";
  K.Inputs = {In};
  K.Output = Out;
  K.Body = P.context().inputAt(0, 0, 0, /*Channel=*/5);
  P.addKernel(std::move(K));
  EXPECT_TRUE(lint(P).hasCode("KF-P07"));
}

TEST(ProgramLint, KindBodyMismatchIsKFP08) {
  Program P("kinds");
  ImageId In = P.addImage("in", 8, 8);
  ImageId Mid = P.addImage("mid", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  Kernel Point;
  Point.Name = "offset_point";
  Point.Kind = OperatorKind::Point;
  Point.Inputs = {In};
  Point.Output = Mid;
  Point.Body = P.context().inputAt(0, 1, 0); // Offset in a point kernel.
  P.addKernel(std::move(Point));
  Kernel Local;
  Local.Name = "pointy_local";
  Local.Kind = OperatorKind::Local;
  Local.Inputs = {Mid};
  Local.Output = Out;
  Local.Body = P.context().inputAt(0); // No window in a local kernel.
  P.addKernel(std::move(Local));

  DiagnosticEngine DE = lint(P);
  EXPECT_TRUE(DE.hasCode("KF-P08"));
  EXPECT_EQ(DE.errorCount(), 2u) << DE.renderText();
}

TEST(ProgramLint, DeadKernelIsKFP09Warning) {
  Program P("dead");
  ImageId In = P.addImage("in", 8, 8);
  ImageId Orphan = P.addImage("orphan", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  Kernel D;
  D.Name = "deadend";
  D.Inputs = {In};
  D.Output = Orphan; // Terminal, but not the primary result.
  D.Body = P.context().inputAt(0);
  P.addKernel(std::move(D));
  Kernel R;
  R.Name = "result";
  R.Inputs = {In};
  R.Output = Out;
  R.Body = P.context().inputAt(0);
  P.addKernel(std::move(R));

  DiagnosticEngine DE = lint(P);
  EXPECT_TRUE(DE.hasCode("KF-P09")) << DE.renderText();
  EXPECT_EQ(DE.errorCount(), 0u); // Dead code is a warning, not an error.
  EXPECT_TRUE(DE.failed(/*Werror=*/true));
}

TEST(ProgramLint, UnusedImageIsKFP10Warning) {
  Program P("unused");
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  P.addImage("nobody", 8, 8);
  Kernel K;
  K.Name = "k";
  K.Inputs = {In};
  K.Output = Out;
  K.Body = P.context().inputAt(0);
  P.addKernel(std::move(K));

  DiagnosticEngine DE = lint(P);
  EXPECT_TRUE(DE.hasCode("KF-P10"));
  EXPECT_EQ(DE.errorCount(), 0u);
}

TEST(ProgramLint, BorderConflictIsKFP11Warning) {
  Program P = makeBlurChain(16, 16, BorderMode::Clamp);
  P.kernel(1).Border = BorderMode::Mirror; // Consumer disagrees.
  DiagnosticEngine DE = lint(P);
  EXPECT_TRUE(DE.hasCode("KF-P11")) << DE.renderText();
  EXPECT_EQ(DE.errorCount(), 0u);
}

TEST(ProgramLint, NonPositiveGranularityIsKFP12) {
  Program P("gran");
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  Kernel K;
  K.Name = "k";
  K.Inputs = {In};
  K.Output = Out;
  K.Granularity = 0;
  K.Body = P.context().inputAt(0);
  P.addKernel(std::move(K));
  EXPECT_TRUE(lint(P).hasCode("KF-P12"));
}

//===--------------------------------------------------------------------===//
// Footprint / halo checker
//===--------------------------------------------------------------------===//

/// Shapes vector as compilePlan builds it.
std::vector<ImageInfo> poolShapes(const Program &P) {
  std::vector<ImageInfo> Shapes;
  for (ImageId Id = 0; Id != P.numImages(); ++Id)
    Shapes.push_back(P.image(Id));
  return Shapes;
}

/// Fuses both blurs of makeBlurChain into one multi-stage kernel via an
/// explicit partition (the mincut benefit model may legally decline this
/// fusion, but test_fusion_legality proves the block itself is legal).
FusedProgram fuseBlurChain(const Program &P) {
  Partition Blocks;
  Blocks.Blocks.push_back(PartitionBlock{{0, 1}});
  return fuseProgram(P, Blocks, FusionStyle::Optimized);
}

TEST(FootprintCheck, BytecodeReachMatchesIrReachOnRegistry) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 48);
    FusedProgram FP =
        fuseProgram(P, runMinCutFusion(P, HardwareModel()).Blocks,
                    FusionStyle::Optimized);
    for (const FusedKernel &FK : FP.Kernels) {
      StagedVmProgram SP = compileFusedKernel(FP, FK);
      std::vector<int> Bc = computeBytecodeReach(SP);
      std::vector<int> Ir = computeIrReach(P, FK);
      ASSERT_EQ(Bc.size(), Ir.size());
      for (size_t S = 0; S != Bc.size(); ++S)
        EXPECT_LE(Bc[S], Ir[S]) << Spec.Name << " " << FK.Name << " stage "
                                << S;
    }
  }
}

TEST(FootprintCheck, CompiledRegistryLaunchesVerifyClean) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 48);
    FusedProgram FP =
        fuseProgram(P, runMinCutFusion(P, HardwareModel()).Blocks,
                    FusionStyle::Optimized);
    DiagnosticEngine DE;
    checkLaunches(FP, DE);
    EXPECT_FALSE(DE.failed()) << Spec.Name << ":\n" << DE.renderText();
  }
}

TEST(FootprintCheck, UndersizedHaloIsKFF01) {
  Program P = makeBlurChain(32, 32, BorderMode::Clamp);
  FusedProgram FP = fuseBlurChain(P);
  ASSERT_EQ(FP.Kernels.size(), 1u); // Both blurs fuse.
  const FusedKernel &FK = FP.Kernels.front();
  StagedVmProgram SP = compileFusedKernel(FP, FK);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
  int Halo =
      fusedLaunchHalo(SP, Root, P.image(P.kernel(FK.Destination).Output));
  ASSERT_GT(Halo, 0);

  DiagnosticEngine DE;
  checkLaunchFootprint(P, FK, SP, Root, Halo - 1, poolShapes(P), DE);
  EXPECT_TRUE(DE.hasCode("KF-F01")) << DE.renderText();
}

TEST(FootprintCheck, ShrunkReachMetadataIsKFF03) {
  Program P = makeBlurChain(32, 32, BorderMode::Clamp);
  FusedProgram FP = fuseBlurChain(P);
  const FusedKernel &FK = FP.Kernels.front();
  StagedVmProgram SP = compileFusedKernel(FP, FK);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
  ASSERT_GT(SP.Reach[Root], 0);
  SP.Reach[Root] = 0; // Claim the root reaches nothing.

  DiagnosticEngine DE;
  checkLaunchFootprint(P, FK, SP, Root, /*Halo=*/8, poolShapes(P), DE);
  EXPECT_TRUE(DE.hasCode("KF-F03")) << DE.renderText();
}

TEST(FootprintCheck, DishonestUniformExtentsIsKFF04) {
  Program P = makeBlurChain(32, 32, BorderMode::Clamp);
  FusedProgram FP = fuseBlurChain(P);
  const FusedKernel &FK = FP.Kernels.front();
  StagedVmProgram SP = compileFusedKernel(FP, FK);
  ASSERT_TRUE(SP.UniformExtents);
  SP.Stages.front().OutW += 4; // Stage extents no longer agree.

  DiagnosticEngine DE;
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
  checkLaunchFootprint(P, FK, SP, Root, /*Halo=*/8, poolShapes(P), DE);
  EXPECT_TRUE(DE.hasCode("KF-F04")) << DE.renderText();
}

//===--------------------------------------------------------------------===//
// Legality recheck (KF-F05) and trace counters
//===--------------------------------------------------------------------===//

TEST(AnalyzeLegality, RegistryFusionsPassRecheck) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 48);
    HardwareModel HW;
    FusedProgram FP = fuseProgram(P, runMinCutFusion(P, HW).Blocks,
                                  FusionStyle::Optimized);
    DiagnosticEngine DE;
    checkFusedLegality(FP, HW, LegalityOptions(), DE);
    EXPECT_FALSE(DE.failed()) << Spec.Name << ":\n" << DE.renderText();
  }
}

TEST(AnalyzeLegality, IllegalHandBuiltBlockIsKFF05) {
  // Harris {dx, sx}: dx's output also feeds sxy outside the block -- the
  // Figure 2c external-output scenario no partitioner may emit.
  Program P = makeHarris(16, 16);
  KernelId Dx = 0, Sx = 0;
  for (KernelId Id = 0; Id != P.numKernels(); ++Id) {
    if (P.kernel(Id).Name == "dx")
      Dx = Id;
    if (P.kernel(Id).Name == "sx")
      Sx = Id;
  }
  Partition Blocks = makeSingletonPartition(P);
  FusedProgram FP = fuseProgram(P, Blocks, FusionStyle::Optimized);
  FusedKernel Bad;
  Bad.Name = "dx+sx";
  Bad.Stages.push_back(FusedStage{Dx, Placement::Register, 1.0, 1, 0});
  Bad.Stages.push_back(FusedStage{Sx, Placement::Global, 1.0, 1, 0});
  Bad.Destination = Sx;
  Bad.Destinations = {Sx};
  FP.Kernels.push_back(std::move(Bad));

  DiagnosticEngine DE;
  checkFusedLegality(FP, HardwareModel(), LegalityOptions(), DE);
  EXPECT_TRUE(DE.hasCode("KF-F05")) << DE.renderText();
}

TEST(AnalyzeLaunch, RecordsTraceCounters) {
  TraceRecorder::global().clear();
  TraceRecorder::global().setEnabled(true);
  Program P = makeBlurChain(32, 32, BorderMode::Clamp);
  FusedProgram FP = fuseBlurChain(P);
  const FusedKernel &FK = FP.Kernels.front();
  StagedVmProgram SP = compileFusedKernel(FP, FK);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
  DiagnosticEngine DE;
  analyzeLaunch(P, FK, FK.Name, SP, Root, /*Halo=*/8, poolShapes(P), DE);
  TraceRecorder::global().setEnabled(false);

  std::map<std::string, double> Counters = TraceRecorder::global().counters();
  EXPECT_GE(Counters["analysis.launches_checked"], 1.0);
  bool SawSpan = false;
  for (const TraceSpanRecord &Span : TraceRecorder::global().spans())
    if (Span.Name == "analysis.launch")
      SawSpan = true;
  EXPECT_TRUE(SawSpan);
  TraceRecorder::global().clear();
}

} // namespace
