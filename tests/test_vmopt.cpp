//===- tests/test_vmopt.cpp - Fact-gated bytecode optimizer ---------------------===//
//
// The interval-fact-gated bytecode optimizer (ir/VmOptimizer.h): unit
// tests of the bit-exact Min/Max/Select decision predicates, the
// differential suite proving optimized session plans bit-identical to
// unoptimized ones across every registry pipeline x VM mode x tiling
// strategy, the validator re-pass over optimized streams, the
// OptMode::Off escape hatch, the removed-instruction stats, and
// the KF-B09 mutation test for the JIT refusal gate.
//
//===----------------------------------------------------------------------===//

#include "EngineConfigs.h"
#include "analysis/BytecodeValidator.h"
#include "analysis/IntervalAnalysis.h"
#include "frontend/Parser.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "jit/JitProgram.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "sim/Session.h"
#include "support/Random.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <functional>

using namespace kf;

namespace {

//===--------------------------------------------------------------------===//
// Decision predicates
//===--------------------------------------------------------------------===//

RegInterval iv(float Lo, float Hi, bool MayNaN = false) {
  return RegInterval::range(Lo, Hi, MayNaN);
}

TEST(ClampDecisions, MinDecides) {
  // min(A, B) = (B < A) ? B : A -- returns A when either side is NaN.
  EXPECT_EQ(decideMin(iv(0, 1), iv(2, 3)), ClampDecision::TakeA);
  EXPECT_EQ(decideMin(iv(0, 1), iv(1, 2)), ClampDecision::TakeA); // ties -> A
  EXPECT_EQ(decideMin(iv(2, 3), iv(0, 1)), ClampDecision::TakeB);
  EXPECT_EQ(decideMin(iv(0, 2), iv(1, 3)), ClampDecision::Keep);
  // NaN possibilities: TakeA stays sound (NaN A is returned either way);
  // TakeB is not (a NaN on either side makes the result A).
  EXPECT_EQ(decideMin(iv(0, 1, true), iv(2, 3)), ClampDecision::TakeA);
  EXPECT_EQ(decideMin(iv(2, 3, true), iv(0, 1)), ClampDecision::Keep);
  EXPECT_EQ(decideMin(iv(2, 3), iv(0, 1, true)), ClampDecision::Keep);
  // An always-NaN A is returned by the exact semantics.
  RegInterval AlwaysNaN;
  AlwaysNaN.MayNaN = true;
  EXPECT_EQ(decideMin(AlwaysNaN, iv(0, 1)), ClampDecision::TakeA);
  // Bottom facts decide nothing.
  EXPECT_EQ(decideMin(RegInterval(), iv(0, 1)), ClampDecision::Keep);
  EXPECT_EQ(decideMin(iv(0, 1), RegInterval()), ClampDecision::Keep);
}

TEST(ClampDecisions, MaxDecides) {
  // max(A, B) = (A < B) ? B : A.
  EXPECT_EQ(decideMax(iv(2, 3), iv(0, 1)), ClampDecision::TakeA);
  EXPECT_EQ(decideMax(iv(1, 2), iv(0, 1)), ClampDecision::TakeA); // ties -> A
  EXPECT_EQ(decideMax(iv(0, 1), iv(2, 3)), ClampDecision::TakeB);
  EXPECT_EQ(decideMax(iv(0, 2), iv(1, 3)), ClampDecision::Keep);
  EXPECT_EQ(decideMax(iv(2, 3, true), iv(0, 1)), ClampDecision::TakeA);
  EXPECT_EQ(decideMax(iv(0, 1, true), iv(2, 3)), ClampDecision::Keep);
  EXPECT_EQ(decideMax(iv(0, 1), iv(2, 3, true)), ClampDecision::Keep);
}

TEST(ClampDecisions, SignedZeroKeepsMinMaxUndecided) {
  // [-0, +0] vs [0, 0]: both compare equal, so the comparison never
  // fires and the exact semantics return A -- equal bounds decide TakeA,
  // and that is bit-identical even for mixed zero signs because
  // std::min/std::max return A on ties.
  float NegZero = -0.0f;
  EXPECT_EQ(decideMin(iv(NegZero, 0), iv(0, 0)), ClampDecision::TakeA);
  EXPECT_EQ(decideMax(iv(NegZero, 0), iv(0, 0)), ClampDecision::TakeA);
}

TEST(ClampDecisions, AddOfZeroDecides) {
  RegInterval Zero = iv(0, 0); // either sign: no NoNegZero proof
  RegInterval Unproven = iv(0, 1);
  RegInterval Proven = iv(0, 1);
  Proven.NoNegZero = true;
  // x + 0 is x unless x may be -0.
  EXPECT_EQ(decideAdd(Proven, Zero), ClampDecision::TakeA);
  EXPECT_EQ(decideAdd(Zero, Proven), ClampDecision::TakeB);
  EXPECT_EQ(decideAdd(iv(1, 2), Zero), ClampDecision::TakeA); // no zero
  EXPECT_EQ(decideAdd(Unproven, Zero), ClampDecision::Keep);  // -0 + +0
  EXPECT_EQ(decideAdd(Zero, Unproven), ClampDecision::Keep);
  // The dropped addend must be a zero on every outcome, NaN excluded.
  EXPECT_EQ(decideAdd(Proven, iv(0, 0, true)), ClampDecision::Keep);
  EXPECT_EQ(decideAdd(Proven, iv(-0.0f, 1)), ClampDecision::Keep);
  // Bottom decides nothing, though it holds neverNegZero() vacuously.
  EXPECT_EQ(decideAdd(RegInterval(), Zero), ClampDecision::Keep);
  EXPECT_EQ(decideAdd(Zero, RegInterval()), ClampDecision::Keep);
}

TEST(ClampDecisions, SelectDecides) {
  // Sel != 0 ? A : B; NaN != 0 is true, -0 == 0 is false.
  EXPECT_EQ(decideSelect(iv(1, 2)), ClampDecision::TakeA);
  EXPECT_EQ(decideSelect(iv(-2, -1)), ClampDecision::TakeA);
  EXPECT_EQ(decideSelect(iv(0, 0)), ClampDecision::TakeB);
  EXPECT_EQ(decideSelect(iv(-0.0f, 0.0f)), ClampDecision::TakeB);
  EXPECT_EQ(decideSelect(iv(0, 1)), ClampDecision::Keep);
  EXPECT_EQ(decideSelect(iv(-1, 1)), ClampDecision::Keep);
  // A possibly-NaN zero cannot take B (NaN selects A) ...
  EXPECT_EQ(decideSelect(iv(0, 0, true)), ClampDecision::Keep);
  // ... but a possibly-NaN nonzero still takes A.
  EXPECT_EQ(decideSelect(iv(1, 2, true)), ClampDecision::TakeA);
  // An always-NaN condition takes A.
  RegInterval AlwaysNaN;
  AlwaysNaN.MayNaN = true;
  EXPECT_EQ(decideSelect(AlwaysNaN), ClampDecision::TakeA);
  // Bottom decides nothing.
  EXPECT_EQ(decideSelect(RegInterval()), ClampDecision::Keep);
}

//===--------------------------------------------------------------------===//
// Shared fixtures
//===--------------------------------------------------------------------===//

HardwareModel paperModel() {
  HardwareModel HW;
  HW.SharedMemThreshold = 2.0;
  return HW;
}

/// A registry pipeline fused at test size; the Program lives behind a
/// stable pointer because FusedProgram::Source refers into it.
struct BuiltPipeline {
  std::unique_ptr<Program> P;
  FusedProgram FP;
};

BuiltPipeline fuseRegistry(const PipelineSpec &Spec) {
  BuiltPipeline B;
  B.P = std::make_unique<Program>(Spec.Builder(96, 64));
  MinCutFusionResult Result = runMinCutFusion(*B.P, paperModel());
  B.FP = fuseProgram(*B.P, Result.Blocks, FusionStyle::Optimized);
  return B;
}

/// Fills the plan's external inputs with seeded random data in the
/// declared [0, 1] contract; with \p SignedZeros, data rich in +0 and -0
/// (makeSignedZeroImage).
void fillInputs(const CompiledPlan &Plan, std::vector<Image> &Frame,
                uint64_t Seed, bool SignedZeros = false) {
  Rng Gen(Seed);
  for (ImageId In : Plan.ExternalInputs) {
    const ImageInfo &Info = Plan.Shapes[In];
    Frame[In] = SignedZeros ? makeSignedZeroImage(Info.Width, Info.Height,
                                                  Info.Channels, Gen)
                            : makeRandomImage(Info.Width, Info.Height,
                                              Info.Channels, Gen, 0.0f, 1.0f);
  }
}

/// Runs one frame of \p FP under \p Options and returns the terminal
/// outputs.
std::vector<Image> runOneFrame(const FusedProgram &FP, const Program &P,
                               const ExecutionOptions &Options,
                               PlanCache &Cache, uint64_t Seed) {
  PipelineSession Session(FP, Options, &Cache);
  std::vector<Image> Frame = Session.acquireFrame();
  fillInputs(*Session.plan(), Frame, Seed);
  Session.runFrame(Frame);
  std::vector<Image> Outputs;
  for (ImageId Out : P.terminalOutputs())
    Outputs.push_back(Frame[Out]);
  return Outputs;
}

//===--------------------------------------------------------------------===//
// Differential: optimized == unoptimized, bit for bit
//===--------------------------------------------------------------------===//

TEST(VmOptDifferential, RegistryBitIdenticalAcrossModesAndTilings) {
  PlanCache Cache(64);
  for (const PipelineSpec &Spec : paperPipelines()) {
    SCOPED_TRACE(Spec.Name);
    BuiltPipeline B = fuseRegistry(Spec);
    const Program &P = *B.P;
    const FusedProgram &FP = B.FP;
    uint64_t Seed = 0xD1FF ^ std::hash<std::string>()(Spec.Name);

    ExecutionOptions Reference;
    Reference.Opt = OptMode::Off;
    Reference.Mode = VmMode::Scalar;
    std::vector<Image> Want = runOneFrame(FP, P, Reference, Cache, Seed);

    forEachEngineConfig([&](const ExecutionOptions &Options,
                            const std::string &Config) {
      std::vector<Image> Got = runOneFrame(FP, P, Options, Cache, Seed);
      ASSERT_EQ(Got.size(), Want.size());
      for (size_t I = 0; I != Want.size(); ++I)
        EXPECT_DOUBLE_EQ(maxAbsDifference(Got[I], Want[I]), 0.0)
            << Spec.Name << " " << Config << " output " << I;
    });
  }
}

/// Inputs full of +0 and -0 are where a wrong sign-of-zero fact would
/// show: optimizer on and off, every engine and tiling, must match the
/// unfused AST reference bit for bit -- a tolerance compare would let a
/// -0 turned +0 through.
TEST(VmOptDifferential, SignedZeroInputsBitIdenticalToUnfused) {
  PlanCache Cache(64);
  for (const PipelineSpec &Spec : paperPipelines()) {
    SCOPED_TRACE(Spec.Name);
    BuiltPipeline B = fuseRegistry(Spec);
    const Program &P = *B.P;
    const uint64_t Seed = 0x5160 ^ std::hash<std::string>()(Spec.Name);

    std::vector<Image> Unfused = makeImagePool(P);
    {
      ExecutionOptions Options;
      fillInputs(*compilePlan(B.FP, Options), Unfused, Seed,
                 /*SignedZeros=*/true);
    }
    runUnfused(P, Unfused);

    forEachEngineConfig([&](const ExecutionOptions &Options,
                            const std::string &Config) {
      // Every launch output, not only the terminal ones: a sign flipped
      // in Sobel's dx is squared away before Harris's corner response.
      PipelineSession Session(B.FP, Options, &Cache);
      std::vector<Image> Frame = Session.acquireFrame();
      fillInputs(*Session.plan(), Frame, Seed, /*SignedZeros=*/true);
      Session.runFrame(Frame);
      for (const CompiledLaunch &Launch : Session.plan()->Launches)
        EXPECT_EQ(countBitDifferences(Frame[Launch.Output],
                                      Unfused[Launch.Output]),
                  0)
            << Launch.Name << " " << Config;
    });
  }
}

/// Instructions of \p Stage with opcode \p Op.
unsigned countOps(const VmStage &Stage, VmOp Op) {
  unsigned N = 0;
  for (const VmInst &Inst : Stage.Code.Insts)
    N += Inst.Op == Op;
  return N;
}

/// `Mul(+0, x)` instructions of \p Stage: zero-weight stencil taps.
unsigned zeroWeightTaps(const VmStage &Stage) {
  std::vector<char> PlusZero(Stage.Code.NumRegs, 0);
  unsigned N = 0;
  for (const VmInst &Inst : Stage.Code.Insts) {
    if (Inst.Op == VmOp::Const && Inst.Imm == 0.0f && !std::signbit(Inst.Imm))
      PlusZero[Inst.Dst] = 1;
    if (Inst.Op == VmOp::Mul && (PlusZero[Inst.A] || PlusZero[Inst.B]))
      ++N;
  }
  return N;
}

/// Night's atrous1 pass is a 5x5 mask with 16 zero taps: their range
/// weights `+0 * exp(...)` fold to +0 and the denominator's `+ 0` terms
/// go, leaving the 9 exp of the nonzero taps. The numerator keeps its
/// `+0 * load` taps: the loaded plane may hold -0.
TEST(VmOptZeroTaps, NightAtrous1KeepsNineExp) {
  BuiltPipeline B = fuseRegistry(*findPipeline("night"));
  ExecutionOptions On;
  On.Opt = OptMode::On;
  std::shared_ptr<const CompiledPlan> Plan = compilePlan(B.FP, On);
  bool Found = false;
  for (const CompiledLaunch &Launch : Plan->Launches) {
    if (Launch.Name != "atrous1+scoto")
      continue;
    Found = true;
    ASSERT_EQ(Launch.Code.Stages.size(), 2u);
    const VmStage &Atrous1 = Launch.Code.Stages[0];
    EXPECT_EQ(countOps(Atrous1, VmOp::Exp), 9u);
    EXPECT_EQ(zeroWeightTaps(Atrous1), 16u);
    size_t Insts = 0;
    for (const VmStage &Stage : Launch.Code.Stages)
      Insts += Stage.Code.Insts.size();
    EXPECT_LE(Insts, 170u);
    EXPECT_GE(Launch.OptStats.PinnedConsts, 16u);
    EXPECT_GE(Launch.OptStats.AddZeroRemoved, 16u);
  }
  EXPECT_TRUE(Found) << "no atrous1+scoto launch";
}

/// Sobel's zero taps multiply loads that may be -0 and feed accumulators
/// that may be -0 (-0.125 * +0 is -0), so `acc + 0 * load` is not `acc`:
/// every launch outside Night keeps each zero-weight tap it compiled
/// with.
TEST(VmOptZeroTaps, SobelZeroTapsSurvive) {
  unsigned SobelTaps = 0;
  for (const PipelineSpec &Spec : paperPipelines()) {
    if (Spec.Name == "night")
      continue;
    BuiltPipeline B = fuseRegistry(Spec);
    ExecutionOptions On, Off;
    On.Opt = OptMode::On;
    Off.Opt = OptMode::Off;
    std::shared_ptr<const CompiledPlan> Optimized = compilePlan(B.FP, On);
    std::shared_ptr<const CompiledPlan> Baseline = compilePlan(B.FP, Off);
    ASSERT_EQ(Optimized->Launches.size(), Baseline->Launches.size());
    for (size_t L = 0; L != Baseline->Launches.size(); ++L) {
      unsigned Want = 0, Got = 0;
      for (const VmStage &Stage : Baseline->Launches[L].Code.Stages)
        Want += zeroWeightTaps(Stage);
      for (const VmStage &Stage : Optimized->Launches[L].Code.Stages)
        Got += zeroWeightTaps(Stage);
      EXPECT_EQ(Got, Want) << Spec.Name << " " << Baseline->Launches[L].Name;
      if (Spec.Name == "sobel" || Spec.Name == "harris")
        SobelTaps += Got;
    }
  }
  EXPECT_GT(SobelTaps, 0u);
}

TEST(VmOptDifferential, OptimizedStreamsRevalidate) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    SCOPED_TRACE(Spec.Name);
    BuiltPipeline B = fuseRegistry(Spec);
    const FusedProgram &FP = B.FP;
    ExecutionOptions Options;
    Options.Opt = OptMode::On;
    std::shared_ptr<const CompiledPlan> Plan = compilePlan(FP, Options);
    ASSERT_TRUE(Plan != nullptr);
    for (const CompiledLaunch &Launch : Plan->Launches) {
      DiagnosticEngine DE;
      validateStagedProgram(Launch.Code, Launch.Root, Plan->Shapes, DE);
      EXPECT_EQ(DE.errorCount(), 0u)
          << Launch.Name << ":\n" << DE.renderText();
    }
  }
}

TEST(VmOptDifferential, OptimizerShrinksOrKeepsEveryRegistryLaunch) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    BuiltPipeline B = fuseRegistry(Spec);
    const FusedProgram &FP = B.FP;
    ExecutionOptions On;
    On.Opt = OptMode::On;
    ExecutionOptions Off;
    Off.Opt = OptMode::Off;
    std::shared_ptr<const CompiledPlan> Optimized = compilePlan(FP, On);
    std::shared_ptr<const CompiledPlan> Baseline = compilePlan(FP, Off);
    ASSERT_EQ(Optimized->Launches.size(), Baseline->Launches.size());
    for (size_t I = 0; I != Optimized->Launches.size(); ++I) {
      size_t OptInsts = 0, BaseInsts = 0;
      for (const VmStage &S : Optimized->Launches[I].Code.Stages)
        OptInsts += S.Code.Insts.size();
      for (const VmStage &S : Baseline->Launches[I].Code.Stages)
        BaseInsts += S.Code.Insts.size();
      EXPECT_LE(OptInsts, BaseInsts) << Spec.Name;
      EXPECT_EQ(Baseline->Launches[I].OptStats.removedInsts(), 0u);
    }
  }
}

//===--------------------------------------------------------------------===//
// Escape hatch
//===--------------------------------------------------------------------===//

TEST(OptMode, NamesAndDefault) {
  EXPECT_STREQ(optModeName(OptMode::On), "on");
  EXPECT_STREQ(optModeName(OptMode::Off), "off");
  EXPECT_EQ(ExecutionOptions().Opt, OptMode::On);
}

//===--------------------------------------------------------------------===//
// Stats on known-reducible programs
//===--------------------------------------------------------------------===//

/// The source tree's analysis fixtures.
const std::string FixtureDir = KF_SOURCE_DIR "/tests/fixtures/analysis/";

/// Compiles a fixture pipeline into an Opt=On plan.
std::shared_ptr<const CompiledPlan> planForFixture(const std::string &File,
                                                   FusedProgram &FP,
                                                   ParseResult &Parsed) {
  Parsed = parsePipelineFile(FixtureDir + File);
  EXPECT_TRUE(Parsed.Prog != nullptr)
      << (Parsed.Errors.empty() ? "" : Parsed.Errors.front());
  if (!Parsed.Prog)
    return nullptr;
  MinCutFusionResult Result = runMinCutFusion(*Parsed.Prog, paperModel());
  FP = fuseProgram(*Parsed.Prog, Result.Blocks, FusionStyle::Optimized);
  ExecutionOptions Options;
  Options.Opt = OptMode::On;
  return compilePlan(FP, Options);
}

TEST(VmOptStatsCounters, DecidedSelectIsRemoved) {
  FusedProgram FP;
  ParseResult Parsed;
  std::shared_ptr<const CompiledPlan> Plan =
      planForFixture("decided_select.kfp", FP, Parsed);
  ASSERT_TRUE(Plan != nullptr);
  unsigned Selects = 0, Removed = 0;
  for (const CompiledLaunch &Launch : Plan->Launches) {
    Selects += Launch.OptStats.SelectsDecided;
    Removed += Launch.OptStats.removedInsts();
  }
  EXPECT_GE(Selects, 1u);
  EXPECT_GE(Removed, 1u);
}

TEST(VmOptStatsCounters, NoopClampIsRemoved) {
  FusedProgram FP;
  ParseResult Parsed;
  std::shared_ptr<const CompiledPlan> Plan =
      planForFixture("noop_clamp.kfp", FP, Parsed);
  ASSERT_TRUE(Plan != nullptr);
  unsigned Clamps = 0, Removed = 0;
  for (const CompiledLaunch &Launch : Plan->Launches) {
    Clamps += Launch.OptStats.ClampsRemoved;
    Removed += Launch.OptStats.removedInsts();
  }
  EXPECT_GE(Clamps, 1u);
  EXPECT_GE(Removed, 1u);
  // And the rewritten plan still computes the same frame.
  ASSERT_TRUE(Parsed.Prog != nullptr);
  PlanCache Cache(8);
  ExecutionOptions On;
  On.Opt = OptMode::On;
  ExecutionOptions Off;
  Off.Opt = OptMode::Off;
  std::vector<Image> Want = runOneFrame(FP, *Parsed.Prog, Off, Cache, 99);
  std::vector<Image> Got = runOneFrame(FP, *Parsed.Prog, On, Cache, 99);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I != Want.size(); ++I)
    EXPECT_DOUBLE_EQ(maxAbsDifference(Got[I], Want[I]), 0.0);
}

//===--------------------------------------------------------------------===//
// KF-B09 JIT refusal gate (mutation test)
//===--------------------------------------------------------------------===//

TEST(JitRefusal, NonFiniteConstIsKfB09AndJitRefuses) {
  BuiltPipeline B = fuseRegistry(*findPipeline("harris"));
  ExecutionOptions Options;
  Options.Opt = OptMode::Off;
  std::shared_ptr<const CompiledPlan> Plan = compilePlan(B.FP, Options);
  ASSERT_FALSE(Plan->Launches.empty());

  // Mutate one Const immediate to infinity: the validator must flag
  // KF-B09 (a warning, not an error) and the JIT gate must refuse even
  // though no *error* was reported.
  StagedVmProgram Mutated;
  uint16_t Root = 0;
  int Halo = 0;
  ImageId Output = 0;
  bool Found = false;
  for (const CompiledLaunch &Launch : Plan->Launches) {
    for (const VmStage &Stage : Launch.Code.Stages)
      for (const VmInst &Inst : Stage.Code.Insts)
        if (Inst.Op == VmOp::Const) {
          Mutated = Launch.Code;
          Root = Launch.Root;
          Halo = Launch.Halo;
          Output = Launch.Output;
          Found = true;
          break;
        }
    if (Found)
      break;
  }
  ASSERT_TRUE(Found) << "no Const instruction in any harris launch";
  for (VmStage &Stage : Mutated.Stages)
    for (VmInst &Inst : Stage.Code.Insts)
      if (Inst.Op == VmOp::Const)
        Inst.Imm = INFINITY;

  DiagnosticEngine DE;
  validateStagedProgram(Mutated, Root, Plan->Shapes, DE);
  EXPECT_TRUE(DE.hasCode("KF-B09")) << DE.renderText();
  EXPECT_EQ(DE.errorCount(), 0u) << DE.renderText();
  EXPECT_EQ(compileJitProgram(Mutated, Root, Plan->Shapes), nullptr);

  // The refused launch still runs -- a Jit request falls back to the
  // span interpreter, bit-identical to the scalar reference on the
  // mutated program.
  std::vector<Image> Pool(Plan->Shapes.size());
  fillInputs(*Plan, Pool, 1234);
  for (size_t I = 0; I != Pool.size(); ++I)
    if (Pool[I].empty())
      Pool[I] = Image(Plan->Shapes[I].Width, Plan->Shapes[I].Height,
                      Plan->Shapes[I].Channels);
  const ImageInfo &Info = Plan->Shapes[Output];
  ThreadPool TP(2);
  VmScratch Scratch;

  Image ScalarOut(Info.Width, Info.Height, Info.Channels);
  ExecutionOptions Scalar;
  Scalar.Mode = VmMode::Scalar;
  runCompiledLaunch(Mutated, Root, Halo, Pool, ScalarOut, Scalar, TP,
                    Scratch);

  Image JitOut(Info.Width, Info.Height, Info.Channels);
  ExecutionOptions Jit;
  Jit.Mode = VmMode::Jit;
  LaunchTiming Timing;
  runCompiledLaunch(Mutated, Root, Halo, Pool, JitOut, Jit, TP, Scratch,
                    &Timing, /*Jit=*/nullptr);
  EXPECT_NE(Timing.Mode, VmMode::Jit); // the gate refused; span ran
  EXPECT_EQ(countDifferingSamples(JitOut, ScalarOut, 0.0), 0);
}

} // namespace
