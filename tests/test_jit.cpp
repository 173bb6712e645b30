//===- tests/test_jit.cpp - JIT backend vs span-mode VM execution ---------------===//
//
// The JIT execution backend (VmMode::Jit, src/jit) compiles validated
// fused bytecode into chains of op cells and must be bit-identical to
// the span interpreter on every bundled pipeline, at every thread count,
// for every border mode, under both tiling strategies, and across every
// span width around the lane boundary. The span mode is itself verified
// against the scalar mode and the AST walker (test_vmspan.cpp,
// test_fusedvm.cpp), so jit == span closes the chain back to the
// semantic reference.
//
// Also covers: the plan-time artifact (compilePlan populates
// CompiledLaunch::Jit, the default Jit mode runs it, and runFusedVm runs
// it), and the validator gate (corrupted bytecode is refused, never
// compiled -- the systematic sweep lives in test_bytecode_validator.cpp).
//
//===----------------------------------------------------------------------===//

#include "EngineConfigs.h"
#include "frontend/Parser.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "jit/JitProgram.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "sim/Metrics.h"
#include "sim/Session.h"
#include "support/Trace.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

using namespace kf;

namespace {

/// Span widths around the lane boundary: narrower than a lane (one
/// full-width chunk that stores only the span's lanes), exactly one lane,
/// and one or two full chunks followed by a partial last chunk (which runs
/// at full width over the span's last lane).
constexpr int LaneBoundaryWidths[] = {
    1, VmLaneWidth - 1, VmLaneWidth, VmLaneWidth + 1,
    2 * VmLaneWidth - 1, 2 * VmLaneWidth, 2 * VmLaneWidth + 1};

/// The bit pattern of \p V: the engines promise bit-identity, which float
/// equality does not test (it equates -0 with +0 and fails on NaN).
uint32_t bitsOf(float V) { return std::bit_cast<uint32_t>(V); }

/// Fuses the whole program into one block (forces fusion regardless of
/// the benefit model).
Partition wholeProgramPartition(const Program &P) {
  Partition S;
  PartitionBlock Block;
  for (KernelId Id = 0; Id != P.numKernels(); ++Id)
    Block.Kernels.push_back(Id);
  S.Blocks.push_back(std::move(Block));
  return S;
}

/// Builds a pipeline at test size with a deterministic random input.
struct TestApp {
  Program P;
  Image Input;
};

TestApp makeTestApp(const std::string &Name) {
  const PipelineSpec *Spec = findPipeline(Name);
  EXPECT_NE(Spec, nullptr);
  // Wide enough that interior rows span several lane chunks plus a tail.
  int W = VmLaneWidth * 2 + 21;
  TestApp App{Spec->Builder(W, 24), Image()};
  const ImageInfo &InInfo = App.P.image(0);
  Rng Gen(977);
  App.Input =
      makeRandomImage(InInfo.Width, InInfo.Height, InInfo.Channels, Gen);
  return App;
}

std::vector<ImageInfo> poolShapes(const Program &P) {
  std::vector<ImageInfo> Shapes;
  for (ImageId Id = 0; Id != P.numImages(); ++Id)
    Shapes.push_back(P.image(Id));
  return Shapes;
}

/// JIT vs span differential across the bundled applications, fused with
/// the paper's min-cut partition, at 1 / 3 / hardware threads, under
/// both tiling strategies.
class JitEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(JitEquivalence, FusedJitMatchesSpanAcrossThreadsAndTiling) {
  TestApp App = makeTestApp(GetParam());
  Partition Blocks = runMinCutFusion(App.P, HardwareModel()).Blocks;
  FusedProgram FP = fuseProgram(App.P, Blocks, FusionStyle::Optimized);

  for (TilingStrategy Tiling :
       {TilingStrategy::InteriorHalo, TilingStrategy::Overlapped}) {
    for (int Threads : threadSweep()) {
      ExecutionOptions Span;
      Span.Threads = Threads;
      Span.TileHeight = 3; // Force multiple tiles even on small images.
      Span.Mode = VmMode::Span;
      Span.Tiling = Tiling;
      ExecutionOptions Jit = Span;
      Jit.Mode = VmMode::Jit;

      std::vector<Image> SpanPool = makeImagePool(App.P);
      SpanPool[0] = App.Input;
      runFusedVm(FP, SpanPool, Span);

      std::vector<Image> JitPool = makeImagePool(App.P);
      JitPool[0] = App.Input;
      runFusedVm(FP, JitPool, Jit);

      expectPoolsIdentical(
          App.P, JitPool, SpanPool,
          GetParam() + " tiling=" + tilingStrategyName(Tiling) +
              " threads=" + std::to_string(Threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, JitEquivalence,
                         ::testing::Values("harris", "sobel", "unsharp",
                                           "shitomasi", "enhance",
                                           "night"),
                         [](const auto &Info) { return Info.param; });

/// Border-mode sweep: jit and span must agree for every border mode,
/// with and without the index exchange (the halo path is shared, but the
/// interior/halo split depends on the reach, so sweep both).
class JitBorder : public ::testing::TestWithParam<BorderMode> {};

TEST_P(JitBorder, BlurChainJitMatchesSpan) {
  BorderMode Mode = GetParam();
  int W = VmLaneWidth + 19, H = 14;
  Program P = makeBlurChain(W, H, Mode);
  Rng Gen(4242);
  Image Input = makeRandomImage(W, H, 1, Gen);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);

  for (bool Exchange : {true, false}) {
    ExecutionOptions Span;
    Span.UseIndexExchange = Exchange;
    Span.Mode = VmMode::Span;
    ExecutionOptions Jit = Span;
    Jit.Mode = VmMode::Jit;

    std::vector<Image> SpanPool = makeImagePool(P);
    SpanPool[0] = Input;
    runFusedVm(FP, SpanPool, Span);

    std::vector<Image> JitPool = makeImagePool(P);
    JitPool[0] = Input;
    runFusedVm(FP, JitPool, Jit);

    EXPECT_DOUBLE_EQ(maxAbsDifference(JitPool[2], SpanPool[2]), 0.0)
        << borderModeName(Mode)
        << (Exchange ? " (index exchange)" : " (naive)");
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, JitBorder,
                         ::testing::Values(BorderMode::Clamp,
                                           BorderMode::Mirror,
                                           BorderMode::Repeat,
                                           BorderMode::Constant),
                         [](const auto &Info) {
                           return std::string(borderModeName(Info.param));
                         });

/// Tail handling: spans of every LaneBoundaryWidths width must each match
/// per-pixel evaluation (runStagedVm) exactly -- narrow spans that store
/// part of one chunk, and wide spans whose last chunk overlaps its
/// predecessor.
TEST(JitVm, TailWidthsMatchPerPixel) {
  int W = 2 * VmLaneWidth + 16, H = 12;
  Program P = makeBlurChain(W, H, BorderMode::Mirror);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);

  std::shared_ptr<const JitProgram> JP =
      compileJitProgram(SP, Root, poolShapes(P));
  ASSERT_NE(JP, nullptr);
  EXPECT_EQ(JP->NumRegs, SP.NumRegs);

  std::vector<Image> Pool = makeImagePool(P);
  Rng Gen(19);
  Pool[0] = makeRandomImage(W, H, 1, Gen);

  int Halo = SP.Reach[Root];
  int Y = H / 2;
  std::vector<float> LaneRegs(static_cast<size_t>(JP->NumRegs) *
                              VmLaneWidth);
  std::vector<float> Regs(SP.NumRegs);

  for (int Width : LaneBoundaryWidths) {
    int X0 = Halo, X1 = X0 + Width;
    ASSERT_LE(X1, W - Halo) << "test image too narrow";
    std::vector<float> Out(Width);
    runJitSpan(*JP, Pool, Y, X0, X1, 0, LaneRegs.data(), Out.data());
    for (int X = X0; X != X1; ++X)
      EXPECT_EQ(bitsOf(Out[X - X0]),
                bitsOf(runStagedVm(SP, Root, Pool, X, Y, 0, Regs.data())))
          << "width=" << Width << " x=" << X;
  }
}

/// One-stage program r3 = Op(r0, r1) with r0..r2 loaded from pool images
/// 0..2 at the pixel itself (r2 is the Select condition); unused operand
/// fields stay zero, as the compiler emits them.
StagedVmProgram makeSingleOpProgram(VmOp Op, int W, int H) {
  VmStage Stage;
  for (uint16_t I = 0; I != 3; ++I) {
    VmInst Load;
    Load.Op = VmOp::Load;
    Load.Dst = I;
    Load.InputIdx = static_cast<int16_t>(I);
    Stage.Code.Insts.push_back(Load);
    Stage.Inputs.push_back(I);
  }
  const bool Unary = Op == VmOp::Neg || Op == VmOp::Abs ||
                     Op == VmOp::Sqrt || Op == VmOp::Exp ||
                     Op == VmOp::Log || Op == VmOp::Floor;
  VmInst Inst;
  Inst.Op = Op;
  Inst.Dst = 3;
  Inst.A = 0;
  Inst.B = Unary ? 0 : 1;
  Inst.Sel = Op == VmOp::Select ? 2 : 0;
  Stage.Code.Insts.push_back(Inst);
  Stage.Code.ResultReg = 3;
  Stage.Code.NumRegs = 4;
  Stage.OutW = W;
  Stage.OutH = H;
  StagedVmProgram SP;
  SP.Stages.push_back(Stage);
  SP.NumRegs = 4;
  SP.Reach = {0};
  return SP;
}

/// Opcode-level differential on IEEE special values: NaNs (signed, with a
/// payload), infinities, signed zeros and denormals through every
/// register-to-register op, scalar vs span vs JIT, bit for bit, at span
/// widths 63 (one chunk stored but for its last lane), 64 (one chunk) and
/// 65 (a chunk plus the overlapping last chunk), all through the packed
/// loops. Guards the NaN and signed-zero semantics of packed
/// min/max/compare/blend against their scalar forms. In the JIT the
/// binary ops' loads fold into image operands (cell fusion); the
/// JitFusion tests cover their register forms.
TEST(JitVm, SpecialValueOpsMatchScalarBitForBit) {
  const int W = VmLaneWidth + 1, H = 64;
  Rng Gen(41);
  std::vector<Image> Pool;
  std::vector<ImageInfo> Shapes;
  for (int I = 0; I != 3; ++I) {
    Pool.push_back(makeSpecialValueImage(W, H, 1, Gen));
    Shapes.push_back({"in" + std::to_string(I), W, H, 1});
  }
  Pool.emplace_back(); // The output image's slot.
  Shapes.push_back({"out", W, H, 1});

  const VmOp Ops[] = {VmOp::Add,   VmOp::Sub,   VmOp::Mul,   VmOp::Div,
                      VmOp::Min,   VmOp::Max,   VmOp::Pow,   VmOp::CmpLT,
                      VmOp::CmpGT, VmOp::Neg,   VmOp::Abs,   VmOp::Sqrt,
                      VmOp::Exp,   VmOp::Log,   VmOp::Floor, VmOp::Select};
  for (VmOp Op : Ops) {
    StagedVmProgram SP = makeSingleOpProgram(Op, W, H);
    std::shared_ptr<const JitProgram> JP = compileJitProgram(SP, 0, Shapes);
    ASSERT_NE(JP, nullptr) << "op " << static_cast<int>(Op);
    std::vector<float> LaneRegs(static_cast<size_t>(SP.NumRegs) *
                                VmLaneWidth);
    std::vector<float> Regs(SP.NumRegs);
    long long Mismatches = 0;
    for (int Width : {VmLaneWidth - 1, VmLaneWidth, VmLaneWidth + 1}) {
      std::vector<float> Span(Width), Jit(Width);
      for (int Y = 0; Y != H; ++Y) {
        runStagedVmSpan(SP, 0, Pool, Y, 0, Width, 0, LaneRegs.data(),
                        Span.data());
        runJitSpan(*JP, Pool, Y, 0, Width, 0, LaneRegs.data(), Jit.data());
        for (int X = 0; X != Width; ++X) {
          const uint32_t Scalar =
              bitsOf(runStagedVm(SP, 0, Pool, X, Y, 0, Regs.data()));
          Mismatches += bitsOf(Span[X]) != Scalar;
          Mismatches += bitsOf(Jit[X]) != Scalar;
        }
      }
    }
    EXPECT_EQ(Mismatches, 0) << "op " << static_cast<int>(Op);
  }
}

/// Strided output: the jit driver must honor OutStride (the
/// multi-channel destination layout the tiled executor uses).
TEST(JitVm, StridedOutputMatchesDense) {
  int W = VmLaneWidth + 16, H = 10;
  Program P = makeBlurChain(W, H, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);

  std::shared_ptr<const JitProgram> JP =
      compileJitProgram(SP, Root, poolShapes(P));
  ASSERT_NE(JP, nullptr);

  std::vector<Image> Pool = makeImagePool(P);
  Rng Gen(31);
  Pool[0] = makeRandomImage(W, H, 1, Gen);

  int Halo = SP.Reach[Root];
  int X0 = Halo, X1 = W - Halo, Y = 4, Width = X1 - X0;
  std::vector<float> LaneRegs(static_cast<size_t>(JP->NumRegs) *
                              VmLaneWidth);

  std::vector<float> Dense(Width);
  runJitSpan(*JP, Pool, Y, X0, X1, 0, LaneRegs.data(), Dense.data());

  const int Stride = 3;
  std::vector<float> Strided(static_cast<size_t>(Width) * Stride, -1.0f);
  runJitSpan(*JP, Pool, Y, X0, X1, 0, LaneRegs.data(), Strided.data(),
             Stride);

  for (int I = 0; I != Width; ++I) {
    EXPECT_FLOAT_EQ(Strided[static_cast<size_t>(I) * Stride], Dense[I])
        << "i=" << I;
    // The gaps stay untouched.
    EXPECT_FLOAT_EQ(Strided[static_cast<size_t>(I) * Stride + 1], -1.0f);
    EXPECT_FLOAT_EQ(Strided[static_cast<size_t>(I) * Stride + 2], -1.0f);
  }
}

/// Every registry pipeline's pristine fused bytecode must JIT-compile
/// (the validator passes it, so the gate must too). Cell fusion never
/// adds a cell: each chain holds at most one cell per flattened
/// instruction.
TEST(JitVm, PristineRegistryProgramsCompile) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 48);
    FusedProgram FP = fuseProgram(
        P, runMinCutFusion(P, HardwareModel()).Blocks,
        FusionStyle::Optimized);
    for (const FusedKernel &FK : FP.Kernels) {
      StagedVmProgram SP = compileFusedKernel(FP, FK);
      uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
      std::shared_ptr<const JitProgram> JP =
          compileJitProgram(SP, Root, poolShapes(P));
      ASSERT_NE(JP, nullptr) << Spec.Name << " " << FK.Name;
      EXPECT_GT(JP->cells(), 0u) << Spec.Name << " " << FK.Name;
      EXPECT_LE(JP->cells(), JP->FlatInsts) << Spec.Name << " " << FK.Name;
      // The chain ends in the null-Fn terminator.
      EXPECT_EQ(JP->Chain.back().Fn, nullptr);
    }
  }
}

/// The chain's op cells are the hot lane loops; their build aligns
/// every function of JitProgram.cpp to a cache line so that a change
/// elsewhere in the library cannot shift their code layout (and their
/// speed). Checks that the alignment reached every cell of every
/// registry launch.
TEST(JitLayout, FullChainCellsAreCacheLineAligned) {
  size_t Cells = 0;
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 48);
    FusedProgram FP = fuseProgram(
        P, runMinCutFusion(P, HardwareModel()).Blocks,
        FusionStyle::Optimized);
    for (const FusedKernel &FK : FP.Kernels) {
      StagedVmProgram SP = compileFusedKernel(FP, FK);
      uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
      std::shared_ptr<const JitProgram> JP =
          compileJitProgram(SP, Root, poolShapes(P));
      ASSERT_NE(JP, nullptr) << Spec.Name << " " << FK.Name;
      for (const JitCell &Cell : JP->Chain) {
        if (!Cell.Fn)
          continue;
        ++Cells;
        EXPECT_EQ(reinterpret_cast<uintptr_t>(Cell.Fn) % 64, 0u)
            << Spec.Name << " " << FK.Name << ": cell "
            << (&Cell - JP->Chain.data());
      }
    }
  }
  EXPECT_GT(Cells, 0u);
}

TEST(JitVm, ModeName) { EXPECT_STREQ(vmModeName(VmMode::Jit), "jit"); }

//===--------------------------------------------------------------------===//
// Cell fusion
//===--------------------------------------------------------------------===//

/// The executed cell count of the registry's stencil launches at quarter
/// size, through compilePlan (optimizer on) as sessions run them: a 3x3
/// stencil is one product plus eight multiply-adds once its constants and
/// loads are folded, and a fused callee's result is read where its
/// stage call left it.
TEST(JitFusion, RegistryLaunchCellCounts) {
  const struct {
    const char *Program, *Launch;
    size_t MaxCells;
  } Bounds[] = {{"harris", "dx", 10},
                {"harris", "dy", 10},
                {"harris", "sx+gx", 20},
                {"harris", "sy+gy", 20},
                {"harris", "sxy+gxy", 20},
                {"sobel", "dx+dy+mag", 24},
                {"unsharp", "blur+hi+cub+sharpen", 16}};
  size_t Checked = 0;
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(Spec.Width / 4, Spec.Height / 4);
    FusedProgram FP = fuseProgram(
        P, runMinCutFusion(P, HardwareModel()).Blocks,
        FusionStyle::Optimized);
    std::shared_ptr<const CompiledPlan> Plan =
        compilePlan(FP, ExecutionOptions());
    for (const CompiledLaunch &Launch : Plan->Launches) {
      ASSERT_NE(Launch.Jit, nullptr) << Spec.Name << " " << Launch.Name;
      for (const auto &Bound : Bounds) {
        if (Spec.Name != Bound.Program || Launch.Name != Bound.Launch)
          continue;
        ++Checked;
        EXPECT_LE(Launch.Jit->cells(), Bound.MaxCells)
            << Spec.Name << " " << Launch.Name << ": "
            << Launch.Jit->FlatInsts << " flattened instructions";
      }
    }
  }
  EXPECT_EQ(Checked, std::size(Bounds));
}

/// One stage of a hand-written program over the three pool images; each
/// helper appends an instruction and returns its destination register.
struct StageBuilder {
  VmStage Stage;

  StageBuilder() { Stage.Inputs = {0, 1, 2}; }

  uint16_t emit(VmInst Inst) {
    Inst.Dst = static_cast<uint16_t>(Stage.Code.NumRegs++);
    Stage.Code.Insts.push_back(Inst);
    return Inst.Dst;
  }
  uint16_t load(int Input, int Ox = 0) {
    VmInst Inst;
    Inst.Op = VmOp::Load;
    Inst.InputIdx = static_cast<int16_t>(Input);
    Inst.Ox = static_cast<int16_t>(Ox);
    return emit(Inst);
  }
  uint16_t constant(float V) {
    VmInst Inst;
    Inst.Op = VmOp::Const;
    Inst.Imm = V;
    return emit(Inst);
  }
  uint16_t op(VmOp Op, uint16_t A, uint16_t B = 0) {
    VmInst Inst;
    Inst.Op = Op;
    Inst.A = A;
    Inst.B = B;
    return emit(Inst);
  }
  uint16_t call(uint16_t Callee, int Ox) {
    VmInst Inst;
    Inst.Op = VmOp::StageCall;
    Inst.Sel = Callee;
    Inst.Ox = static_cast<int16_t>(Ox);
    return emit(Inst);
  }
};

/// Links \p Stages (callees first) into a staged program rooted at the
/// last one, each stage's result being its last instruction's register.
StagedVmProgram linkStages(std::vector<StageBuilder> Stages, int W, int H) {
  StagedVmProgram SP;
  for (StageBuilder &B : Stages) {
    B.Stage.Code.ResultReg = B.Stage.Code.Insts.back().Dst;
    B.Stage.OutW = W;
    B.Stage.OutH = H;
    B.Stage.RegBase = SP.NumRegs;
    SP.NumRegs += B.Stage.Code.NumRegs;
    SP.Stages.push_back(B.Stage);
    SP.Reach.push_back(1);
  }
  return SP;
}

/// Special-value inputs for the fusion differential: one column wider
/// than the widest span, for the loads displaced by one pixel.
struct SpecialPool {
  static constexpr int W = VmLaneWidth + 2, H = 24;
  std::vector<Image> Pool;
  std::vector<ImageInfo> Shapes;

  SpecialPool() {
    Rng Gen(2718);
    for (int I = 0; I != 3; ++I) {
      Pool.push_back(makeSpecialValueImage(W, H, 1, Gen));
      Shapes.push_back({"in" + std::to_string(I), W, H, 1});
    }
    Pool.emplace_back(); // The output image's slot.
    Shapes.push_back({"out", W, H, 1});
  }
};

/// JIT-compiles \p SP, checks it fused to \p ExpectedCells cells, and
/// runs it at span widths 63 (one chunk, its last lane not stored), 64 and
/// 65 (the last chunk overlapping) over every row; returns the samples whose
/// bits differ from the per-pixel interpreter.
long long fusedMismatches(const StagedVmProgram &SP, const SpecialPool &In,
                          size_t ExpectedCells, const std::string &What) {
  const uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
  std::shared_ptr<const JitProgram> JP =
      compileJitProgram(SP, Root, In.Shapes);
  if (!JP) {
    ADD_FAILURE() << What << ": not compiled";
    return -1;
  }
  EXPECT_EQ(JP->cells(), ExpectedCells) << What;
  std::vector<float> LaneRegs(static_cast<size_t>(SP.NumRegs) * VmLaneWidth);
  std::vector<float> Regs(SP.NumRegs);
  long long Mismatches = 0;
  for (int Width : {VmLaneWidth - 1, VmLaneWidth, VmLaneWidth + 1}) {
    std::vector<float> Jit(Width);
    for (int Y = 0; Y != SpecialPool::H; ++Y) {
      runJitSpan(*JP, In.Pool, Y, 0, Width, 0, LaneRegs.data(), Jit.data());
      for (int X = 0; X != Width; ++X)
        Mismatches += bitsOf(Jit[X]) !=
                      bitsOf(runStagedVm(SP, Root, In.Pool, X, Y, 0,
                                         Regs.data()));
    }
  }
  EXPECT_EQ(Mismatches, 0) << What;
  return Mismatches;
}

constexpr VmOp FusableBinaryOps[] = {VmOp::Add,   VmOp::Sub, VmOp::Mul,
                                     VmOp::Div,   VmOp::Min, VmOp::Max,
                                     VmOp::CmpLT, VmOp::CmpGT};

/// Every binary op with an immediate on either side, an image row on
/// either side (against a register, against another image, and the same
/// load feeding both operands), and two registers (the unfused cell,
/// which JitVm.SpecialValueOpsMatchScalarBitForBit no longer reaches: its
/// loads now fold), on special values: operand order decides Sub, Div,
/// Min, Max, the comparisons and which NaN payload survives.
TEST(JitFusion, ImmediateAndImageOperandsMatchInterpreterBitForBit) {
  SpecialPool In;
  const float Imms[] = {0.0f,  -0.0f, 1.5f,
                        -3.0f, std::numeric_limits<float>::denorm_min(),
                        std::numeric_limits<float>::max()};
  for (VmOp Op : FusableBinaryOps) {
    const std::string Name = "op " + std::to_string(static_cast<int>(Op));
    for (float Imm : Imms) {
      for (bool ImmLeft : {true, false}) {
        StageBuilder B;
        uint16_t X = B.load(0), C = B.constant(Imm);
        ImmLeft ? B.op(Op, C, X) : B.op(Op, X, C);
        fusedMismatches(linkStages({B}, In.W, In.H), In, 1,
                        Name + (ImmLeft ? " imm-left " : " imm-right ") +
                            std::to_string(Imm));
      }
    }
    for (bool ImageLeft : {true, false}) {
      // The register operand: a Neg, which no cell folds.
      StageBuilder B;
      uint16_t X = B.load(0), R = B.op(VmOp::Neg, B.load(1));
      ImageLeft ? B.op(Op, X, R) : B.op(Op, R, X);
      fusedMismatches(linkStages({B}, In.W, In.H), In, 3,
                      Name + (ImageLeft ? " image-left" : " image-right"));
    }
    StageBuilder Regs;
    Regs.op(Op, Regs.op(VmOp::Neg, Regs.load(0)),
            Regs.op(VmOp::Neg, Regs.load(1)));
    fusedMismatches(linkStages({Regs}, In.W, In.H), In, 5,
                    Name + " two registers");
    StageBuilder Two;
    Two.op(Op, Two.load(0), Two.load(1, 1));
    fusedMismatches(linkStages({Two}, In.W, In.H), In, 1,
                    Name + " two images");
    StageBuilder Same;
    uint16_t X = Same.load(2);
    Same.op(Op, X, X);
    fusedMismatches(linkStages({Same}, In.W, In.H), In, 1,
                    Name + " one load, both operands");
  }
}

/// Every multiply-add form: the accumulator and each factor a register,
/// an image row or an immediate (never two immediate factors), with the
/// product as the right and as the left addend.
TEST(JitFusion, MultiplyAddFormsMatchInterpreterBitForBit) {
  SpecialPool In;
  enum Kind { Reg, Img, Imm };
  for (Kind R : {Reg, Img, Imm})
    for (Kind X : {Reg, Img, Imm})
      for (Kind Y : {Reg, Img, Imm}) {
        if (X == Imm && Y == Imm)
          continue;
        for (bool ProductRight : {true, false}) {
          StageBuilder B;
          size_t RegOperands = 0;
          auto operand = [&](Kind K, int Input, float V) -> uint16_t {
            if (K == Imm)
              return B.constant(V);
            if (K == Img)
              return B.load(Input);
            ++RegOperands; // A Load and a Neg cell stay.
            return B.op(VmOp::Neg, B.load(Input));
          };
          uint16_t Acc = operand(R, 0, -0.0f);
          uint16_t Product =
              B.op(VmOp::Mul, operand(X, 1, 3.0f), operand(Y, 2, -0.5f));
          ProductRight ? B.op(VmOp::Add, Acc, Product)
                       : B.op(VmOp::Add, Product, Acc);
          fusedMismatches(linkStages({B}, In.W, In.H), In,
                          1 + 2 * RegOperands,
                          "mul-add R=" + std::to_string(R) +
                              " X=" + std::to_string(X) +
                              " Y=" + std::to_string(Y) +
                              (ProductRight ? " acc+xy" : " xy+acc"));
        }
      }
}

/// Two calls to one callee share its register frame: the second call
/// rewrites the result register the first call's copy read. The first
/// copy must stay (its reader comes after the second call), the second
/// is forwarded, and a product of the first call's result must not fuse
/// into an Add after the second call.
TEST(JitFusion, CopyForwardingAcrossRepeatedCallsMatchesInterpreter) {
  SpecialPool In;
  StageBuilder Callee;
  Callee.op(VmOp::Neg, Callee.load(0));

  StageBuilder Sub;
  uint16_t First = Sub.call(0, 0), Second = Sub.call(0, 1);
  Sub.op(VmOp::Sub, First, Second);
  // Load, Neg, copy, Load, Neg, Sub: the second copy is forwarded.
  fusedMismatches(linkStages({Callee, Sub}, In.W, In.H), In, 6,
                  "sub of two calls");

  StageBuilder Mac;
  uint16_t Product = Mac.op(VmOp::Mul, Mac.call(0, 0), Mac.constant(0.5f));
  Mac.op(VmOp::Add, Mac.call(0, 1), Product);
  // Load, Neg, Mul(callee result, imm), Load, Neg, Add: no multiply-add,
  // since the second call rewrote the product's factor.
  fusedMismatches(linkStages({Callee, Mac}, In.W, In.H), In, 6,
                  "product across a second call");
}

/// The launch-level contract: a default (Jit) launch carrying an
/// artifact runs the JIT interior (LaunchTiming reports the mode it ran),
/// while a launch without one and the overlapped strategy run the span
/// engine, and results match span mode bit for bit either way.
TEST(JitVm, AutoLaunchRunsJitAndOverlappedDegradesToSpan) {
  int W = VmLaneWidth * 2 + 9, H = 32;
  Program P = makeBlurChain(W, H, BorderMode::Clamp);
  FusedProgram FP =
      fuseProgram(P, wholeProgramPartition(P), FusionStyle::Optimized);
  StagedVmProgram SP = compileFusedKernel(FP, FP.Kernels[0]);
  uint16_t Root = static_cast<uint16_t>(SP.Stages.size() - 1);
  const ImageInfo &Info = P.image(2);
  int Halo = fusedLaunchHalo(SP, Root, Info);

  std::shared_ptr<const JitProgram> JP =
      compileJitProgram(SP, Root, poolShapes(P));
  ASSERT_NE(JP, nullptr);

  std::vector<Image> Pool = makeImagePool(P);
  Rng Gen(55);
  Pool[0] = makeRandomImage(W, H, 1, Gen);

  ThreadPool TP(2);
  VmScratch Scratch;
  ExecutionOptions Options;

  Image SpanOut(W, H, 1);
  {
    ExecutionOptions Span = Options;
    Span.Mode = VmMode::Span;
    runCompiledLaunch(SP, Root, Halo, Pool, SpanOut, Span, TP, Scratch);
  }

  // Default mode + artifact: the launch runs (and reports) Jit.
  Image JitOut(W, H, 1);
  LaunchTiming Timing;
  runCompiledLaunch(SP, Root, Halo, Pool, JitOut, Options, TP, Scratch,
                    &Timing, JP.get());
  EXPECT_EQ(Timing.Mode, VmMode::Jit);
  EXPECT_DOUBLE_EQ(maxAbsDifference(JitOut, SpanOut), 0.0);

  // Jit without an artifact: span.
  LaunchTiming NoArtifact;
  runCompiledLaunch(SP, Root, Halo, Pool, JitOut, Options, TP, Scratch,
                    &NoArtifact);
  EXPECT_EQ(NoArtifact.Mode, VmMode::Span);

  // Overlapped tiles read scratch planes, not pool images: a Jit request
  // degrades to the span engine, bit-identically.
  ExecutionOptions Overlapped = Options;
  Overlapped.Mode = VmMode::Jit;
  Overlapped.Tiling = TilingStrategy::Overlapped;
  LaunchTiming OverlapTiming;
  runCompiledLaunch(SP, Root, Halo, Pool, JitOut, Overlapped, TP, Scratch,
                    &OverlapTiming, JP.get());
  if (OverlapTiming.Tiling == TilingStrategy::Overlapped) {
    EXPECT_EQ(OverlapTiming.Mode, VmMode::Span);
  }
  EXPECT_DOUBLE_EQ(maxAbsDifference(JitOut, SpanOut), 0.0);
}

/// runFusedVm runs the session plan, not bytecode of its own: every
/// launch whose plan carries a JIT artifact runs the JIT by default, and
/// the fact-gated optimizer rewrites the launches it runs.
TEST(JitVm, RunFusedVmRunsTheCompiledPlan) {
  MetricsRegistry &Registry = MetricsRegistry::global();
  Registry.clear();
  Registry.setEnabled(true);

  TestApp Harris = makeTestApp("harris");
  FusedProgram HarrisFP = fuseProgram(
      Harris.P, runMinCutFusion(Harris.P, HardwareModel()).Blocks,
      FusionStyle::Optimized);
  ExecutionOptions Options;
  std::vector<Image> Pool = makeImagePool(Harris.P);
  Pool[0] = Harris.Input;
  runFusedVm(HarrisFP, Pool, Options);

  std::vector<LaunchModelRecord> Records = Registry.records();
  std::shared_ptr<const CompiledPlan> Plan = compilePlan(HarrisFP, Options);
  unsigned WithArtifact = 0;
  for (const CompiledLaunch &Launch : Plan->Launches) {
    if (!Launch.Jit)
      continue;
    ++WithArtifact;
    bool RanJit = false;
    for (const LaunchModelRecord &Record : Records)
      if (Record.Program == Harris.P.name() && Record.Launch == Launch.Name) {
        RanJit = Record.Runs > 0 && Record.Mode == VmMode::Jit;
        // The metrics table's cells column: the chain that ran.
        EXPECT_EQ(Record.FlatCells, Launch.Jit->FlatInsts) << Launch.Name;
        EXPECT_EQ(Record.JitCells, Launch.Jit->cells()) << Launch.Name;
      }
    EXPECT_TRUE(RanJit) << Launch.Name << " holds an artifact but ran "
                        << "another engine";
    EXPECT_NE(Registry.renderTable().find(
                  std::to_string(Launch.Jit->FlatInsts) + "->" +
                  std::to_string(Launch.Jit->cells())),
              std::string::npos)
        << Launch.Name;
  }
  EXPECT_GT(WithArtifact, 0u);
  Registry.setEnabled(false);
  Registry.clear();

  TraceRecorder &TR = TraceRecorder::global();
  TR.clear();
  TR.setEnabled(true);
  TestApp Night = makeTestApp("night");
  FusedProgram NightFP = fuseProgram(
      Night.P, runMinCutFusion(Night.P, HardwareModel()).Blocks,
      FusionStyle::Optimized);
  ExecutionOptions Opt;
  Opt.Opt = OptMode::On;
  std::vector<Image> NightPool = makeImagePool(Night.P);
  NightPool[0] = Night.Input;
  runFusedVm(NightFP, NightPool, Opt);
  EXPECT_GT(TR.counters()["opt.removed_insts"], 0.0);
  TR.setEnabled(false);
  TR.clear();
}

/// The plan-time artifact: compilePlan populates CompiledLaunch::Jit for
/// every launch of every registry pipeline, the cached plan shares it,
/// and a session's frames (which run it by default) stay bit-identical
/// to the span interpreter.
TEST(JitSession, PlansCarryJitArtifactsAndFramesMatchSpan) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    TestApp App = makeTestApp(Spec.Name);
    FusedProgram FP = fuseProgram(
        App.P, runMinCutFusion(App.P, HardwareModel()).Blocks,
        FusionStyle::Optimized);

    PlanCache Cache(4);
    PipelineSession Session(FP, ExecutionOptions(), &Cache);
    std::shared_ptr<const CompiledPlan> Plan = Session.plan();
    ASSERT_NE(Plan, nullptr) << Spec.Name;
    for (const CompiledLaunch &Launch : Plan->Launches)
      EXPECT_NE(Launch.Jit, nullptr)
          << Spec.Name << " " << Launch.Name
          << ": validated launch has no JIT artifact";

    // The cache returns the same plan object -- artifact included.
    std::shared_ptr<const CompiledPlan> Cached = Cache.lookup(Plan->Key);
    ASSERT_NE(Cached, nullptr) << Spec.Name;
    for (size_t I = 0; I != Plan->Launches.size(); ++I)
      EXPECT_EQ(Cached->Launches[I].Jit, Plan->Launches[I].Jit);

    std::vector<Image> Frame = Session.acquireFrame();
    Frame[0] = App.Input;
    Session.runFrame(Frame);

    ExecutionOptions Span;
    Span.Mode = VmMode::Span;
    std::vector<Image> SpanPool = makeImagePool(App.P);
    SpanPool[0] = App.Input;
    runFusedVm(FP, SpanPool, Span);

    expectPoolsIdentical(App.P, Frame, SpanPool,
                         Spec.Name + std::string(" session-jit"));
    Session.releaseFrame(std::move(Frame));
  }
}

/// The source tree's shipped pipelines.
const std::string PipelinesDir = KF_SOURCE_DIR "/examples/pipelines/";

/// Rewrites every `image <name> W H [C]` declaration of a .kfp source to
/// the given extents, preserving the channel count. The shipped files
/// declare native 2048^2-class frames; the differential only needs the
/// shipped *structure*, and test-sized frames keep the suite fast.
std::string rescaleKfpImages(const std::string &Source, int W, int H) {
  std::string Out;
  size_t Pos = 0;
  while (Pos < Source.size()) {
    size_t End = Source.find('\n', Pos);
    if (End == std::string::npos)
      End = Source.size();
    std::string Line = Source.substr(Pos, End - Pos);
    std::istringstream Stream(Line);
    std::string Kw, Name, OldW, OldH, Channels;
    if (Stream >> Kw && Kw == "image" && Stream >> Name >> OldW >> OldH) {
      Line = "image " + Name + " " + std::to_string(W) + " " +
             std::to_string(H);
      if (Stream >> Channels)
        Line += " " + Channels;
    }
    Out += Line;
    Out += '\n';
    Pos = End + 1;
  }
  return Out;
}

/// Golden-fixture differential: every shipped .kfp pipeline, parsed from
/// disk (not rebuilt from the C++ builders), must run bit-identically
/// under the JIT and the span interpreter.
class JitGoldenKfp : public ::testing::TestWithParam<std::string> {};

TEST_P(JitGoldenKfp, ShippedPipelineJitMatchesSpan) {
  std::ifstream File(PipelinesDir + GetParam() + ".kfp");
  ASSERT_TRUE(File.good()) << GetParam();
  std::stringstream Buffer;
  Buffer << File.rdbuf();
  ParseResult Parsed = parsePipelineText(
      rescaleKfpImages(Buffer.str(), VmLaneWidth * 2 + 21, 96));
  ASSERT_TRUE(Parsed.success())
      << GetParam() << ": "
      << (Parsed.Errors.empty() ? "?" : Parsed.Errors.front());
  const Program &P = *Parsed.Prog;
  FusedProgram FP = fuseProgram(
      P, runMinCutFusion(P, HardwareModel()).Blocks,
      FusionStyle::Optimized);

  const ImageInfo &InInfo = P.image(0);
  Rng Gen(20260807);
  Image Input =
      makeRandomImage(InInfo.Width, InInfo.Height, InInfo.Channels, Gen);

  ExecutionOptions Span;
  Span.Mode = VmMode::Span;
  std::vector<Image> SpanPool = makeImagePool(P);
  SpanPool[0] = Input;
  runFusedVm(FP, SpanPool, Span);

  ExecutionOptions Jit = Span;
  Jit.Mode = VmMode::Jit;
  std::vector<Image> JitPool = makeImagePool(P);
  JitPool[0] = Input;
  runFusedVm(FP, JitPool, Jit);

  expectPoolsIdentical(P, JitPool, SpanPool, GetParam() + ".kfp");
}

INSTANTIATE_TEST_SUITE_P(PaperApps, JitGoldenKfp,
                         ::testing::Values("harris", "sobel", "unsharp",
                                           "shitomasi", "enhance",
                                           "night", "dog", "emboss"),
                         [](const auto &Info) { return Info.param; });

} // namespace
