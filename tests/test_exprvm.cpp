//===- tests/test_exprvm.cpp - Bytecode VM vs tree-walking interpreter ----------===//

#include "image/Compare.h"
#include "image/Generators.h"
#include "ir/ExprVM.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

using namespace kf;

namespace {

/// Kernel \p Id of \p P compiled alone: the one-stage program an unfused
/// launch runs.
StagedVmProgram compileSingleton(const Program &P, KernelId Id) {
  return compileStagedProgram(P, {Id}, {false});
}

TEST(ExprVm, CompilesConvolutionToUnrolledStream) {
  Program P = makeBlurChain(16, 16, BorderMode::Clamp);
  StagedVmProgram SP = compileSingleton(P, 0);
  ASSERT_EQ(SP.Stages.size(), 1u);
  const VmProgram &VM = SP.Stages[0].Code;
  // 9 mask constants + 9 loads + 9 muls + 8 reduce adds = 35.
  EXPECT_EQ(VM.Insts.size(), 35u);
  EXPECT_GT(VM.NumRegs, 0u);
  unsigned Loads = 0;
  for (const VmInst &Inst : VM.Insts)
    if (Inst.Op == VmOp::Load)
      ++Loads;
  EXPECT_EQ(Loads, 9u);
}

TEST(ExprVm, BakesMaskWeightsAsImmediates) {
  Program P = makeBlurChain(16, 16, BorderMode::Clamp);
  const VmProgram VM = compileSingleton(P, 0).Stages[0].Code;
  // The binomial center weight 0.25 must appear as a Const immediate.
  bool SawCenterWeight = false;
  for (const VmInst &Inst : VM.Insts)
    if (Inst.Op == VmOp::Const && Inst.Imm == 0.25f)
      SawCenterWeight = true;
  EXPECT_TRUE(SawCenterWeight);
}

TEST(ExprVm, MatchesInterpreterAtSinglePixels) {
  Program P = makeSobel(12, 12);
  std::vector<Image> Pool = makeImagePool(P);
  Rng Gen(4);
  Pool[0] = makeRandomImage(12, 12, 1, Gen);
  StagedVmProgram SP = compileSingleton(P, 0);
  std::vector<float> Regs(SP.NumRegs);
  for (int X : {0, 1, 6, 11})
    for (int Y : {0, 5, 11})
      EXPECT_FLOAT_EQ(runStagedVm(SP, 0, Pool, X, Y, 0, Regs.data()),
                      evalKernelAt(P, 0, Pool, X, Y, 0))
          << X << "," << Y;
}

/// Full-pipeline equivalence across all bundled applications: the
/// singleton partition through the VM against the AST walker.
class VmEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(VmEquivalence, RunUnfusedVmMatchesInterpreter) {
  const PipelineSpec *Spec = findPipeline(GetParam());
  ASSERT_NE(Spec, nullptr);
  int W = GetParam() == "night" ? 18 : 22;
  Program P = Spec->Builder(W, 16);
  const ImageInfo &InInfo = P.image(0);
  Rng Gen(123);
  Image Input =
      makeRandomImage(InInfo.Width, InInfo.Height, InInfo.Channels, Gen);

  std::vector<Image> Reference = makeImagePool(P);
  Reference[0] = Input;
  runUnfused(P, Reference);

  std::vector<Image> VmPool = makeImagePool(P);
  VmPool[0] = Input;
  runFusedVm(unfusedProgram(P), VmPool);

  for (ImageId Id = 0; Id != P.numImages(); ++Id) {
    if (Reference[Id].empty())
      continue;
    EXPECT_DOUBLE_EQ(maxAbsDifference(VmPool[Id], Reference[Id]), 0.0)
        << GetParam() << " image " << P.image(Id).Name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, VmEquivalence,
                         ::testing::Values("harris", "sobel", "unsharp",
                                           "shitomasi", "enhance",
                                           "night"),
                         [](const auto &Info) { return Info.param; });

TEST(ExprVm, BorderModesMatchInterpreter) {
  for (BorderMode Mode : {BorderMode::Clamp, BorderMode::Mirror,
                          BorderMode::Repeat, BorderMode::Constant}) {
    Program P = makeBlurChain(14, 10, Mode);
    Rng Gen(8);
    std::vector<Image> Reference = makeImagePool(P);
    Reference[0] = makeRandomImage(14, 10, 1, Gen);
    runUnfused(P, Reference);
    std::vector<Image> VmPool = makeImagePool(P);
    VmPool[0] = Reference[0];
    runFusedVm(unfusedProgram(P), VmPool);
    EXPECT_DOUBLE_EQ(maxAbsDifference(VmPool[2], Reference[2]), 0.0)
        << borderModeName(Mode);
  }
}

TEST(ExprVm, CoordinatesAndSelect) {
  Program P("coords");
  ExprContext &C = P.context();
  ImageId In = P.addImage("in", 8, 8);
  ImageId Out = P.addImage("out", 8, 8);
  Kernel K;
  K.Name = "k";
  K.Kind = OperatorKind::Point;
  K.Inputs = {In};
  K.Output = Out;
  // out = x < y ? in : -in.
  K.Body = C.select(C.binary(BinOp::CmpLT, C.coordX(), C.coordY()),
                    C.inputAt(0), C.unary(UnOp::Neg, C.inputAt(0)));
  P.addKernel(std::move(K));

  std::vector<Image> Pool = makeImagePool(P);
  Rng Gen(5);
  Pool[0] = makeRandomImage(8, 8, 1, Gen, 0.5f, 1.0f);
  StagedVmProgram SP = compileSingleton(P, 0);
  std::vector<float> Regs(SP.NumRegs);
  EXPECT_FLOAT_EQ(runStagedVm(SP, 0, Pool, 2, 5, 0, Regs.data()),
                  Pool[0].at(2, 5));
  EXPECT_FLOAT_EQ(runStagedVm(SP, 0, Pool, 5, 2, 0, Regs.data()),
                  -Pool[0].at(5, 2));
}

} // namespace
