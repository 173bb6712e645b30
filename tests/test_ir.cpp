//===- tests/test_ir.cpp - IR, cost analysis, verifier, printer ---------------===//

#include "frontend/Parser.h"
#include "ir/CostInfo.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pipelines/Masks.h"
#include "pipelines/Pipelines.h"

#include <gtest/gtest.h>

using namespace kf;

namespace {

KernelId kernelByName(const Program &P, const std::string &Name) {
  for (KernelId Id = 0; Id != P.numKernels(); ++Id)
    if (P.kernel(Id).Name == Name)
      return Id;
  ADD_FAILURE() << "kernel not found: " << Name;
  return 0;
}

/// The codes verifyProgram reports for \p P, in report order.
std::vector<std::string> verifierCodes(const Program &P) {
  DiagnosticEngine DE;
  verifyProgram(P, DE);
  std::vector<std::string> Codes;
  for (const Diagnostic &Diag : DE.diagnostics())
    Codes.push_back(Diag.Code);
  return Codes;
}

using Codes = std::vector<std::string>;

TEST(Mask, AccessorsAndHalo) {
  Mask M = binomial3Unnormalized();
  EXPECT_EQ(M.size(), 9);
  EXPECT_EQ(M.haloX(), 1);
  EXPECT_FLOAT_EQ(M.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(M.at(-1, -1), 1.0f);
  EXPECT_FLOAT_EQ(M.at(1, 0), 2.0f);
}

TEST(Mask, UniformFactory) {
  Mask M = Mask::uniform(5, 5, 0.04f);
  EXPECT_EQ(M.size(), 25);
  EXPECT_FLOAT_EQ(M.at(2, -2), 0.04f);
}

TEST(Program, ProducerConsumerQueries) {
  Program P = makeSobel(16, 16);
  // Image 1 is dx_out, produced by kernel 0 (dx), consumed by mag.
  EXPECT_EQ(P.producerOf(1), KernelId{0});
  EXPECT_FALSE(P.producerOf(0).has_value()); // Input image.
  std::vector<KernelId> Consumers = P.consumersOf(0);
  EXPECT_EQ(Consumers.size(), 2u); // dx and dy read the input.
  EXPECT_EQ(P.externalInputs(), std::vector<ImageId>{0});
  EXPECT_EQ(P.terminalOutputs(), std::vector<ImageId>{3});
}

TEST(Program, KernelDagShape) {
  Program P = makeHarris(16, 16);
  Digraph Dag = P.buildKernelDag();
  EXPECT_EQ(Dag.numNodes(), 9u);
  EXPECT_EQ(Dag.numEdges(), 10u);
  EXPECT_FALSE(Dag.hasCycle());
}

TEST(Program, CommunicatedImage) {
  Program P = makeSobel(16, 16);
  KernelId Dx = kernelByName(P, "dx");
  KernelId Mag = kernelByName(P, "mag");
  ASSERT_TRUE(P.communicatedImage(Dx, Mag).has_value());
  EXPECT_EQ(*P.communicatedImage(Dx, Mag), P.kernel(Dx).Output);
  EXPECT_FALSE(P.communicatedImage(Mag, Dx).has_value());
}

TEST(CostInfo, PointKernelCountsStore) {
  Program P = makeHarris(16, 16);
  KernelCost Cost = analyzeKernelCost(P, kernelByName(P, "sx"));
  EXPECT_EQ(Cost.NumAlu, 2); // One multiply plus the store.
  EXPECT_EQ(Cost.NumSfu, 0);
  EXPECT_EQ(Cost.WindowWidth, 1);
  ASSERT_EQ(Cost.Footprints.size(), 1u);
  EXPECT_EQ(Cost.Footprints[0].ReadsPerPixel, 2);
  EXPECT_FALSE(Cost.Footprints[0].WindowAccess);
}

TEST(CostInfo, LocalConvolutionCounts) {
  Program P = makeBlurChain(16, 16, BorderMode::Clamp);
  KernelCost Cost = analyzeKernelCost(P, 0);
  // 9 multiplies + 8 reduce-adds + 1 store.
  EXPECT_EQ(Cost.NumAlu, 18);
  EXPECT_EQ(Cost.WindowWidth, 3);
  EXPECT_EQ(Cost.windowSize(), 9);
  ASSERT_EQ(Cost.Footprints.size(), 1u);
  EXPECT_EQ(Cost.Footprints[0].ReadsPerPixel, 9);
  EXPECT_TRUE(Cost.Footprints[0].WindowAccess);
  EXPECT_EQ(Cost.Footprints[0].HaloX, 1);
}

TEST(CostInfo, SfuOperationsAreCountedSeparately) {
  Program P = makeSobel(16, 16);
  KernelCost Cost = analyzeKernelCost(P, kernelByName(P, "mag"));
  EXPECT_EQ(Cost.NumSfu, 1); // The sqrt.
  EXPECT_EQ(Cost.NumAlu, 4); // mul, mul, add, store.
  // dx*dx + dy*dy: each squared operand is two AST-level reads (the
  // analysis does not assume CSE).
  EXPECT_EQ(Cost.totalReadsPerPixel(), 4);
}

TEST(CostInfo, NightAtrousIsExpensive) {
  Program P = makeNight(16, 16);
  KernelCost Cost = analyzeKernelCost(P, kernelByName(P, "atrous0"));
  // The bilateral kernel is heavyweight (the paper counts 68 ALU
  // operations in the Hipacc version; ours is in the same league).
  EXPECT_GT(Cost.NumAlu, 60);
  EXPECT_GT(Cost.NumSfu, 10);
}

TEST(Verifier, AcceptsAllPaperPipelines) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(32, 32);
    EXPECT_EQ(verifierCodes(P), Codes{}) << Spec.Name;
  }
}

TEST(Verifier, RejectsPointKernelWithWindowAccess) {
  Program P("bad");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  int M = P.addMask(Mask::uniform(3, 3, 1.0f));
  Kernel K;
  K.Name = "k";
  K.Kind = OperatorKind::Point; // Claimed point, but uses a stencil.
  K.Inputs = {In};
  K.Output = Out;
  K.Body = C.stencil(M, ReduceOp::Sum, C.stencilInput(0));
  P.addKernel(std::move(K));
  EXPECT_EQ(verifierCodes(P), Codes{"KF-P08"});
}

TEST(Verifier, RejectsLocalKernelWithoutWindow) {
  Program P("bad");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  Kernel K;
  K.Name = "k";
  K.Kind = OperatorKind::Local;
  K.Inputs = {In};
  K.Output = Out;
  K.Body = C.inputAt(0);
  P.addKernel(std::move(K));
  EXPECT_EQ(verifierCodes(P), Codes{"KF-P08"});
}

TEST(Verifier, RejectsDoubleProducer) {
  Program P("bad");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  for (int I = 0; I != 2; ++I) {
    Kernel K;
    K.Name = "k" + std::to_string(I);
    K.Kind = OperatorKind::Point;
    K.Inputs = {In};
    K.Output = Out;
    K.Body = C.inputAt(0);
    P.addKernel(std::move(K));
  }
  EXPECT_EQ(verifierCodes(P), Codes{"KF-P03"});
}

TEST(Verifier, RejectsShapeMismatch) {
  Program P("bad");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 16, 16);
  Kernel K;
  K.Name = "k";
  K.Kind = OperatorKind::Point;
  K.Inputs = {In};
  K.Output = Out;
  K.Body = C.inputAt(0);
  P.addKernel(std::move(K));
  EXPECT_EQ(verifierCodes(P), Codes{"KF-P06"});
}

TEST(Verifier, RejectsStencilScopedNodesOutsideStencil) {
  Program P("bad");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  Kernel K;
  K.Name = "k";
  K.Kind = OperatorKind::Point;
  K.Inputs = {In};
  K.Output = Out;
  K.Body = C.maskValue();
  P.addKernel(std::move(K));
  EXPECT_EQ(verifierCodes(P), Codes{"KF-P05"});
}

TEST(Verifier, RejectsChannelMismatchWithImplicitAccess) {
  Program P("bad");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", 8, 8, 3);
  ImageId Out = P.addImage("out", 8, 8, 1);
  Kernel K;
  K.Name = "k";
  K.Kind = OperatorKind::Point;
  K.Inputs = {In};
  K.Output = Out;
  K.Body = C.inputAt(0); // Implicit channel over mismatched counts.
  P.addKernel(std::move(K));
  EXPECT_EQ(verifierCodes(P), Codes{"KF-P07"});
}

TEST(Verifier, ParsedDoubleProducerFailsWithKFP03) {
  ParseResult Result = parsePipelineText(R"(program bad
image in 8 8
image out 8 8
point kernel k0(in) -> out {
  out = in
}
point kernel k1(in) -> out {
  out = (in * 2)
}
)");
  EXPECT_EQ(Result.Prog, nullptr);
  ASSERT_EQ(Result.Errors.size(), 1u);
  EXPECT_EQ(Result.Errors.front(),
            "verifier: KF-P03: bad:kernel 'k1': image 'out' has more than "
            "one producer");
}

TEST(Printer, ExprRendering) {
  ExprContext C;
  const Expr *E =
      C.add(C.mul(C.inputAt(0), C.floatConst(2.0f)), C.inputAt(1));
  EXPECT_EQ(exprToString(E, {"a", "b"}),
            "((a(0,0) * 2.0000) + b(0,0))");
}

TEST(Printer, KernelAndProgramRendering) {
  Program P = makeSobel(8, 8);
  std::string Text = programToString(P);
  EXPECT_NE(Text.find("program sobel"), std::string::npos);
  EXPECT_NE(Text.find("local kernel dx(in)"), std::string::npos);
  EXPECT_NE(Text.find("[border=clamp]"), std::string::npos);
  EXPECT_NE(Text.find("sqrt("), std::string::npos);
  EXPECT_NE(Text.find("sum[mask0]"), std::string::npos);
}

TEST(ExprContext, ArenaGrowsAndNodesStayValid) {
  ExprContext C;
  const Expr *First = C.floatConst(1.0f);
  for (int I = 0; I != 10000; ++I)
    C.floatConst(static_cast<float>(I));
  EXPECT_FLOAT_EQ(First->Value, 1.0f); // deque keeps addresses stable.
  EXPECT_EQ(C.numExprs(), 10001u);
}

} // namespace
