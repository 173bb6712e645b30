//===- tests/test_interval.cpp - Interval abstract interpretation ---------------===//
//
// The interval abstract interpreter over fused bytecode
// (analysis/IntervalAnalysis.h): unit tests of the transfer functions on
// hand-built staged programs, the KF-V diagnostics, and the soundness
// property suite -- every register value a concrete evaluation ever
// produces must lie inside the predicted interval. The property holds at
// every pixel (interior, halo, and the index-exchanged exterior positions
// stage calls evaluate at), over every registry pipeline and over
// randomized programs; that position-independence is exactly what lets
// the bytecode optimizer (ir/VmOptimizer.h) rewrite on these facts.
//
//===----------------------------------------------------------------------===//

#include "analysis/IntervalAnalysis.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Generators.h"
#include "pipelines/Pipelines.h"
#include "sim/Session.h"
#include "support/Random.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

using namespace kf;

namespace {

//===--------------------------------------------------------------------===//
// Hand-built single-stage programs
//===--------------------------------------------------------------------===//

VmInst alu(VmOp Op, uint16_t Dst, uint16_t A = 0, uint16_t B = 0,
           uint16_t Sel = 0) {
  VmInst I;
  I.Op = Op;
  I.Dst = Dst;
  I.A = A;
  I.B = B;
  I.Sel = Sel;
  return I;
}

VmInst constant(uint16_t Dst, float Imm) {
  VmInst I;
  I.Op = VmOp::Const;
  I.Dst = Dst;
  I.Imm = Imm;
  return I;
}

VmInst load(uint16_t Dst, int16_t InputIdx = 0) {
  VmInst I;
  I.Op = VmOp::Load;
  I.Dst = Dst;
  I.InputIdx = InputIdx;
  return I;
}

/// One 16x16 stage reading pool image 0, result in the highest register.
StagedVmProgram singleStage(std::vector<VmInst> Insts, uint16_t ResultReg,
                            unsigned NumRegs,
                            BorderMode Border = BorderMode::Clamp,
                            float BorderConstant = 0.0f) {
  StagedVmProgram SP;
  VmStage S;
  S.Code.Insts = std::move(Insts);
  S.Code.ResultReg = ResultReg;
  S.Code.NumRegs = NumRegs;
  S.Inputs = {0};
  S.Border = Border;
  S.BorderConstant = BorderConstant;
  S.OutW = 16;
  S.OutH = 16;
  S.RegBase = 0;
  SP.Stages.push_back(std::move(S));
  SP.NumRegs = NumRegs;
  SP.Reach = {0};
  return SP;
}

RegInterval resultOf(const StagedVmProgram &SP,
                     const std::vector<InputRange> &Ranges = {},
                     DiagnosticEngine *DE = nullptr) {
  return analyzeStagedIntervals(SP, 0, Ranges, DE).Result;
}

TEST(IntervalTransfer, ConstAndAdd) {
  StagedVmProgram SP = singleStage(
      {constant(0, 2.0f), constant(1, 3.0f), alu(VmOp::Add, 2, 0, 1)}, 2, 3);
  RegInterval R = resultOf(SP);
  EXPECT_EQ(R.Lo, 5.0f);
  EXPECT_EQ(R.Hi, 5.0f);
  EXPECT_FALSE(R.MayNaN);
}

TEST(IntervalTransfer, LoadDefaultsToUnitRange) {
  StagedVmProgram SP = singleStage({load(0)}, 0, 1);
  RegInterval R = resultOf(SP);
  EXPECT_EQ(R.Lo, 0.0f);
  EXPECT_EQ(R.Hi, 1.0f);
  EXPECT_FALSE(R.MayNaN);
}

TEST(IntervalTransfer, LoadHonorsDeclaredRange) {
  StagedVmProgram SP = singleStage({load(0)}, 0, 1);
  InputRange In;
  In.Lo = -3.0f;
  In.Hi = 7.0f;
  RegInterval R = resultOf(SP, {In});
  EXPECT_EQ(R.Lo, -3.0f);
  EXPECT_EQ(R.Hi, 7.0f);
}

TEST(IntervalTransfer, ConstantBorderJoinsTheBorderValue) {
  StagedVmProgram SP = singleStage({load(0)}, 0, 1, BorderMode::Constant,
                                   5.0f);
  RegInterval R = resultOf(SP);
  EXPECT_EQ(R.Lo, 0.0f);
  EXPECT_EQ(R.Hi, 5.0f);
}

TEST(IntervalTransfer, CoordsCoverReachGrownExtent) {
  StagedVmProgram SP = singleStage({alu(VmOp::CoordX, 0)}, 0, 1);
  SP.Reach = {2};
  RegInterval R = resultOf(SP);
  EXPECT_EQ(R.Lo, -2.0f);
  EXPECT_EQ(R.Hi, 17.0f); // 16 - 1 + 2
}

TEST(IntervalTransfer, DivByZeroIsFullAndWarnsV01) {
  // in / (in - 0.5): the divisor spans zero.
  StagedVmProgram SP = singleStage(
      {load(0), constant(1, 0.5f), alu(VmOp::Sub, 2, 0, 1),
       alu(VmOp::Div, 3, 0, 2)},
      3, 4);
  DiagnosticEngine DE;
  RegInterval R = resultOf(SP, {}, &DE);
  EXPECT_TRUE(DE.hasCode("KF-V01")) << DE.renderText();
  EXPECT_EQ(R.Lo, -INFINITY);
  EXPECT_EQ(R.Hi, INFINITY);
  EXPECT_TRUE(R.MayNaN); // 0 / 0 is attainable
}

TEST(IntervalTransfer, SignPureDivisionStaysTight) {
  StagedVmProgram SP = singleStage(
      {constant(0, 1.0f), constant(1, 2.0f), constant(2, 4.0f),
       alu(VmOp::Min, 3, 1, 2), alu(VmOp::Div, 4, 0, 1)},
      4, 5);
  DiagnosticEngine DE;
  RegInterval R = resultOf(SP, {}, &DE);
  EXPECT_FALSE(DE.hasCode("KF-V01"));
  EXPECT_EQ(R.Lo, 0.5f);
  EXPECT_EQ(R.Hi, 0.5f);
  EXPECT_FALSE(R.MayNaN);
}

TEST(IntervalTransfer, SqrtOfPossiblyNegativeWarnsV02) {
  StagedVmProgram SP = singleStage(
      {load(0), constant(1, 0.5f), alu(VmOp::Sub, 2, 0, 1),
       alu(VmOp::Sqrt, 3, 2)},
      3, 4);
  DiagnosticEngine DE;
  RegInterval R = resultOf(SP, {}, &DE);
  EXPECT_TRUE(DE.hasCode("KF-V02")) << DE.renderText();
  EXPECT_TRUE(R.MayNaN);
  EXPECT_EQ(R.Lo, 0.0f);
}

TEST(IntervalTransfer, SquaredSubtreeIsProvablyNonNegative) {
  // (in - 0.5) * (in - 0.5): value numbering must recognize the operands
  // as the same subtree, so the square -- and a sqrt of it -- is clean.
  StagedVmProgram SP = singleStage(
      {load(0), constant(1, 0.5f), alu(VmOp::Sub, 2, 0, 1),
       alu(VmOp::Mul, 3, 2, 2), alu(VmOp::Sqrt, 4, 3)},
      4, 5);
  DiagnosticEngine DE;
  RegInterval R = resultOf(SP, {}, &DE);
  EXPECT_FALSE(DE.hasCode("KF-V02")) << DE.renderText();
  EXPECT_GE(R.Lo, 0.0f);
  EXPECT_FALSE(R.MayNaN);
}

TEST(IntervalTransfer, RematerializedSubtreeUnifiesAcrossRegisters) {
  // The same subtree computed twice into different registers must get one
  // value number (operand VNs, not register numbers).
  StagedVmProgram SP = singleStage(
      {load(0), constant(1, 0.5f), alu(VmOp::Sub, 2, 0, 1), load(3),
       constant(4, 0.5f), alu(VmOp::Sub, 5, 3, 4), alu(VmOp::Mul, 6, 2, 5),
       alu(VmOp::Sqrt, 7, 6)},
      7, 8);
  DiagnosticEngine DE;
  RegInterval R = resultOf(SP, {}, &DE);
  EXPECT_FALSE(DE.hasCode("KF-V02")) << DE.renderText();
  EXPECT_GE(R.Lo, 0.0f);
}

TEST(IntervalTransfer, ZeroTimesInfinityMayBeNaN) {
  // [0, 1] * [0, inf] admits 0 * inf = NaN even though no corner shows it.
  StagedVmProgram SP = singleStage(
      {load(0), constant(1, 1.0f), constant(2, 0.0f),
       alu(VmOp::Div, 3, 1, 2), alu(VmOp::Abs, 4, 3),
       alu(VmOp::Mul, 5, 0, 4)},
      5, 6);
  RegInterval R = resultOf(SP);
  EXPECT_TRUE(R.MayNaN);
}

TEST(IntervalTransfer, PowWithIntegralConstExponentIsClean) {
  StagedVmProgram SP = singleStage(
      {load(0), constant(1, 0.5f), alu(VmOp::Sub, 2, 0, 1),
       constant(3, 2.0f), alu(VmOp::Pow, 4, 2, 3)},
      4, 5);
  DiagnosticEngine DE;
  resultOf(SP, {}, &DE);
  EXPECT_FALSE(DE.hasCode("KF-V03")) << DE.renderText();
}

TEST(IntervalTransfer, PowNegativeBaseFractionalExponentWarnsV03) {
  StagedVmProgram SP = singleStage(
      {load(0), constant(1, 0.5f), alu(VmOp::Sub, 2, 0, 1),
       alu(VmOp::Pow, 3, 2, 0)},
      3, 4);
  DiagnosticEngine DE;
  RegInterval R = resultOf(SP, {}, &DE);
  EXPECT_TRUE(DE.hasCode("KF-V03")) << DE.renderText();
  EXPECT_TRUE(R.MayNaN);
}

TEST(IntervalTransfer, GuaranteedNonFiniteWarnsV04Once) {
  // log(0) = -inf poisons the chain; the cascade reports only the origin.
  StagedVmProgram SP = singleStage(
      {load(0), constant(1, 0.0f), alu(VmOp::Log, 2, 1),
       alu(VmOp::Add, 3, 0, 2)},
      3, 4);
  DiagnosticEngine DE;
  RegInterval R = resultOf(SP, {}, &DE);
  EXPECT_TRUE(DE.hasCode("KF-V04")) << DE.renderText();
  unsigned V04 = 0;
  for (const Diagnostic &D : DE.diagnostics())
    if (D.Code == "KF-V04")
      ++V04;
  EXPECT_EQ(V04, 1u) << DE.renderText();
  EXPECT_EQ(R.Lo, -INFINITY);
  EXPECT_EQ(R.Hi, -INFINITY);
}

TEST(IntervalTransfer, DecidedSelectNotesV05) {
  StagedVmProgram SP = singleStage(
      {load(0), constant(1, 2.0f), alu(VmOp::Add, 2, 0, 1),
       constant(3, 0.5f), alu(VmOp::Select, 4, 0, 3, 2)},
      4, 5);
  DiagnosticEngine DE;
  RegInterval R = resultOf(SP, {}, &DE);
  EXPECT_TRUE(DE.hasCode("KF-V05")) << DE.renderText();
  EXPECT_EQ(DE.errorCount(), 0u);
  EXPECT_EQ(DE.warningCount(), 0u); // a note, not a warning
  EXPECT_EQ(R.Lo, 0.0f);            // the taken arm only
  EXPECT_EQ(R.Hi, 1.0f);
}

TEST(IntervalTransfer, NoopClampNotesV06) {
  StagedVmProgram SP = singleStage(
      {load(0), constant(1, -1.0f), alu(VmOp::Max, 2, 0, 1)}, 2, 3);
  DiagnosticEngine DE;
  RegInterval R = resultOf(SP, {}, &DE);
  EXPECT_TRUE(DE.hasCode("KF-V06")) << DE.renderText();
  EXPECT_EQ(DE.warningCount(), 0u);
  EXPECT_EQ(R.Lo, 0.0f);
  EXPECT_EQ(R.Hi, 1.0f);
}

TEST(IntervalTransfer, ComparisonsAreZeroOne) {
  StagedVmProgram SP = singleStage(
      {load(0), constant(1, 0.5f), alu(VmOp::CmpLT, 2, 0, 1)}, 2, 3);
  RegInterval R = resultOf(SP);
  EXPECT_EQ(R.Lo, 0.0f);
  EXPECT_EQ(R.Hi, 1.0f);
  EXPECT_FALSE(R.MayNaN); // comparisons never produce NaN
}

TEST(IntervalTransfer, StageCallTakesCalleeResult) {
  StagedVmProgram SP;
  VmStage Callee;
  Callee.Code.Insts = {constant(0, 7.0f)};
  Callee.Code.ResultReg = 0;
  Callee.Code.NumRegs = 1;
  Callee.OutW = Callee.OutH = 16;
  VmStage Caller;
  VmInst Call;
  Call.Op = VmOp::StageCall;
  Call.Dst = 0;
  Call.Sel = 0; // stage index, not a register
  Caller.Code.Insts = {Call};
  Caller.Code.ResultReg = 0;
  Caller.Code.NumRegs = 1;
  Caller.OutW = Caller.OutH = 16;
  Caller.RegBase = 1;
  SP.Stages = {Callee, Caller};
  SP.NumRegs = 2;
  SP.Reach = {0, 0};
  RegInterval R = analyzeStagedIntervals(SP, 1).Result;
  EXPECT_EQ(R.Lo, 7.0f);
  EXPECT_EQ(R.Hi, 7.0f);
}

//===--------------------------------------------------------------------===//
// Sign of zero (NoNegZero)
//===--------------------------------------------------------------------===//

TEST(IntervalNoNegZero, ContainsRejectsNegZeroUnderTheProof) {
  RegInterval R = RegInterval::range(0.0f, 1.0f);
  EXPECT_FALSE(R.NoNegZero); // unproven by default
  EXPECT_TRUE(R.contains(-0.0f));
  R.NoNegZero = true;
  EXPECT_FALSE(R.contains(-0.0f));
  EXPECT_TRUE(R.contains(0.0f));
  EXPECT_TRUE(RegInterval::point(0.0f).NoNegZero);
  EXPECT_FALSE(RegInterval::point(-0.0f).NoNegZero);
  // A zero-free range never holds -0, proof or not; joining keeps the
  // proof only when both sides have it.
  EXPECT_TRUE(RegInterval::range(1.0f, 2.0f).neverNegZero());
  RegInterval J = RegInterval::point(0.0f);
  J.join(RegInterval::range(1.0f, 2.0f));
  EXPECT_TRUE(J.NoNegZero);
  J.join(RegInterval::range(-1.0f, 0.0f));
  EXPECT_FALSE(J.NoNegZero);
  // A -0 outcome withdraws the proof; bottom's join is the identity.
  RegInterval V = RegInterval::point(0.5f);
  V.joinValue(-0.0f);
  EXPECT_FALSE(V.NoNegZero);
  RegInterval Bottom;
  Bottom.join(RegInterval::point(0.0f));
  EXPECT_TRUE(Bottom.NoNegZero);
}

TEST(IntervalNoNegZero, TransferRules) {
  // r0 = in (unproven), r1 = +0, r2 = -0.125, r3 = exp(r0), ...
  StagedVmProgram SP = singleStage(
      {load(0), constant(1, 0.0f), constant(2, -0.125f),
       alu(VmOp::Exp, 3, 0),       // exp: proven
       alu(VmOp::Mul, 4, 1, 3),    // +0 * exp: both >= 0, proven
       alu(VmOp::Mul, 5, 1, 0),    // +0 * in: in may be -0
       alu(VmOp::Mul, 6, 2, 0),    // -0.125 * in: negative weight
       alu(VmOp::Add, 7, 6, 4),    // either addend proven
       alu(VmOp::Add, 8, 6, 5),    // neither
       alu(VmOp::Mul, 9, 0, 0),    // in * in: a square
       alu(VmOp::Sub, 10, 0, 1),   // in - 0: minuend unproven
       alu(VmOp::Sqrt, 11, 0),     // sqrt(-0) is -0
       alu(VmOp::Sqrt, 12, 3),     // inherits exp's proof
       alu(VmOp::Max, 13, 0, 3),   // may return in
       alu(VmOp::Min, 14, 3, 9),   // both proven
       alu(VmOp::Abs, 15, 0),      // abs: proven
       alu(VmOp::Floor, 16, 0),    // floor(-0) is -0
       alu(VmOp::CmpLT, 17, 0, 2), // comparisons: +0 or 1
       alu(VmOp::Div, 18, 3, 4)},  // both >= 0 and proven
      18, 19);
  const StageValueFacts F = analyzeStagedIntervals(SP, 0).Stages[0];
  const bool Want[19] = {false, true,  true,  true,  true,
                         false, false, true,  false, true,
                         false, false, true,  false, true,
                         true,  false, true,  true};
  for (unsigned R = 0; R != 19; ++R)
    EXPECT_EQ(F.Regs[R].NoNegZero, Want[R]) << "r" << R;
  // The +0 * exp product is pinned to +0; the +0 * in product is not.
  float V = 1.0f;
  EXPECT_TRUE(F.Regs[4].pinnedValue(V));
  EXPECT_FALSE(std::signbit(V));
  EXPECT_EQ(V, 0.0f);
  EXPECT_FALSE(F.Regs[5].pinnedValue(V));
}

TEST(IntervalNoNegZero, DeclaredInputsStayUnprovenProducedOnesCarryIt) {
  StagedVmProgram SP = singleStage({load(0)}, 0, 1);
  EXPECT_FALSE(resultOf(SP).NoNegZero); // [0, 1] admits -0
  InputRange Produced = InputRange::of(RegInterval::point(0.0f));
  EXPECT_TRUE(resultOf(SP, {Produced}).NoNegZero);
  // A -0 border constant withdraws the proof.
  StagedVmProgram Bordered =
      singleStage({load(0)}, 0, 1, BorderMode::Constant, -0.0f);
  EXPECT_FALSE(resultOf(Bordered, {Produced}).NoNegZero);
}

//===--------------------------------------------------------------------===//
// Soundness property suite
//===--------------------------------------------------------------------===//

/// NaN payload no VM operation produces: a register still holding it
/// after evaluation was simply never written on that path.
constexpr uint32_t SentinelBits = 0x7fc0dead;

float sentinel() {
  float V;
  std::memcpy(&V, &SentinelBits, sizeof(V));
  return V;
}

bool isSentinel(float V) {
  uint32_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits == SentinelBits;
}

/// The pixels the suite samples: the full border ring neighborhood, the
/// center, and a few seeded interior positions.
std::vector<std::pair<int, int>> samplePositions(int W, int H, Rng &Gen) {
  std::vector<std::pair<int, int>> Out;
  for (int X : {0, 1, W / 2, W - 2, W - 1})
    for (int Y : {0, 1, H / 2, H - 2, H - 1})
      if (X >= 0 && X < W && Y >= 0 && Y < H)
        Out.emplace_back(X, Y);
  for (int I = 0; I != 8; ++I)
    Out.emplace_back(static_cast<int>(Gen.nextBelow(W)),
                     static_cast<int>(Gen.nextBelow(H)));
  return Out;
}

/// Compiles \p FP unoptimized (so launch facts and launch bytecode line
/// up), fills external inputs with random data inside the declared
/// [0, 1] contract, then evaluates every launch at sampled pixels with
/// sentinel-initialized registers and asserts each written register --
/// including callee-stage registers left behind by recursive stage calls
/// at index-exchanged positions -- lies inside its predicted interval.
/// Launch results feed the pool, so later launches read real data. With
/// \p SignedZeros the inputs are rich in +0 and -0 (makeSignedZeroImage),
/// which is where a wrong NoNegZero proof shows: contains() rejects -0
/// under the proof.
void checkFactSoundness(const FusedProgram &FP, uint64_t Seed,
                        bool SignedZeros = false) {
  ExecutionOptions Options;
  Options.Opt = OptMode::Off;
  std::shared_ptr<const CompiledPlan> Plan = compilePlan(FP, Options);
  ASSERT_TRUE(Plan != nullptr);

  Rng Gen(Seed);
  std::vector<Image> Pool(Plan->Shapes.size());
  for (ImageId In : Plan->ExternalInputs) {
    const ImageInfo &Info = Plan->Shapes[In];
    Pool[In] = SignedZeros ? makeSignedZeroImage(Info.Width, Info.Height,
                                                 Info.Channels, Gen)
                           : makeRandomImage(Info.Width, Info.Height,
                                             Info.Channels, Gen, 0.0f, 1.0f);
  }

  for (const CompiledLaunch &Launch : Plan->Launches) {
    const StagedVmProgram &SP = Launch.Code;
    ASSERT_EQ(Launch.Facts.size(), SP.Stages.size());
    const ImageInfo &Info = Plan->Shapes[Launch.Output];
    Image Out(Info.Width, Info.Height, Info.Channels);
    std::vector<float> Regs(SP.NumRegs);

    long long Checked = 0;
    for (auto [X, Y] : samplePositions(Info.Width, Info.Height, Gen)) {
      for (int C = 0; C != Info.Channels; ++C) {
        std::fill(Regs.begin(), Regs.end(), sentinel());
        float V = runStagedVm(SP, Launch.Root, Pool, X, Y, C, Regs.data());
        Out.at(X, Y, C) = V;
        for (size_t SI = 0; SI != SP.Stages.size(); ++SI) {
          const VmStage &Stage = SP.Stages[SI];
          const StageValueFacts &F = Launch.Facts[SI];
          ASSERT_EQ(F.Regs.size(), Stage.Code.NumRegs);
          for (unsigned R = 0; R != Stage.Code.NumRegs; ++R) {
            float Value = Regs[Stage.RegBase + R];
            if (isSentinel(Value))
              continue;
            ++Checked;
            if (!F.Regs[R].contains(Value))
              ADD_FAILURE() << "seed " << Seed << ", launch '" << Launch.Name
                            << "', stage " << SI << ", reg " << R << ": "
                            << Value << " outside "
                            << formatInterval(F.Regs[R]) << " at (" << X
                            << ", " << Y << ", " << C << ")";
          }
        }
      }
    }
    EXPECT_GT(Checked, 0) << "launch '" << Launch.Name << "' checked nothing";

    // Later launches load this output: make the whole image real so the
    // cross-launch range seeding is exercised against actual data.
    for (int Y = 0; Y != Info.Height; ++Y)
      for (int X = 0; X != Info.Width; ++X)
        for (int C = 0; C != Info.Channels; ++C)
          Out.at(X, Y, C) =
              runStagedVm(SP, Launch.Root, Pool, X, Y, C, Regs.data());
    Pool[Launch.Output] = std::move(Out);
  }
}

HardwareModel paperModel() {
  HardwareModel HW;
  HW.SharedMemThreshold = 2.0;
  return HW;
}

TEST(IntervalSoundness, RegistryPipelines) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 48);
    MinCutFusionResult Result = runMinCutFusion(P, paperModel());
    FusedProgram FP = fuseProgram(P, Result.Blocks, FusionStyle::Optimized);
    SCOPED_TRACE(Spec.Name);
    checkFactSoundness(FP, 0xC0FFEE ^ std::hash<std::string>()(Spec.Name));
  }
}

TEST(IntervalSoundness, RegistryPipelinesSignedZeroInputs) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 48);
    MinCutFusionResult Result = runMinCutFusion(P, paperModel());
    FusedProgram FP = fuseProgram(P, Result.Blocks, FusionStyle::Optimized);
    SCOPED_TRACE(Spec.Name);
    checkFactSoundness(FP, 0x5160 ^ std::hash<std::string>()(Spec.Name),
                       /*SignedZeros=*/true);
  }
}

class IntervalSoundnessRandom : public ::testing::TestWithParam<int> {};

FusedProgram randomFusedProgram(uint64_t Seed, std::unique_ptr<Program> &P) {
  Rng Gen(Seed * 2654435761u + 11);
  unsigned NumKernels = 3 + static_cast<unsigned>(Gen.nextBelow(8));
  double LocalFraction = Gen.uniform(0.0, 0.7);
  P = std::make_unique<Program>(
      makeRandomPipeline(NumKernels, LocalFraction, 16, 12, Gen));
  MinCutFusionResult Result = runMinCutFusion(*P, paperModel());
  return fuseProgram(*P, Result.Blocks, FusionStyle::Optimized);
}

TEST_P(IntervalSoundnessRandom, RandomProgramsStayInsideFacts) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  std::unique_ptr<Program> P;
  checkFactSoundness(randomFusedProgram(Seed, P), Seed);
}

TEST_P(IntervalSoundnessRandom, SignedZeroInputsStayInsideFacts) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  std::unique_ptr<Program> P;
  checkFactSoundness(randomFusedProgram(Seed, P), Seed, /*SignedZeros=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSoundnessRandom,
                         ::testing::Range(0, 100));

} // namespace
