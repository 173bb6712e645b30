//===- tests/test_lazy.cpp - Lazy frontend differential + gate tests ------------===//
//
// The lazy frontend must be invisible in the results and strict at the
// gate: a lazily recorded Harris DAG materializes bit-identically to the
// registry pipeline across every VM mode, tiling strategy, and thread
// count; two independently recorded DAGs of the same *shape* share one
// plan-cache entry (canonical-naming structural hash); and malformed
// DAGs -- cycles, dangling handles, bad masks, shape mismatches,
// unparsable scripts -- are rejected with exact KF-* codes, never a
// crash. A server test pins down that lazy and registry tenants coexist
// on one shared cache.
//
//===----------------------------------------------------------------------===//

#include "EngineConfigs.h"
#include "frontend/Lazy.h"
#include "frontend/LazyScript.h"
#include "fusion/MinCutPartitioner.h"
#include "image/Compare.h"
#include "image/Generators.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "sim/LazyRuntime.h"
#include "sim/Server.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

using namespace kf;

namespace {

/// Records the registry Harris pipeline (pipelines/Harris.cpp) through
/// the lazy handle API, op for op, and returns the corner-response
/// handle. \p InputName varies the user-facing name without changing the
/// DAG shape; \p K varies the corner constant (a shape change for the
/// structural hash, since float bits are hashed).
LazyImage buildLazyHarris(LazyPipeline &LP, int Width, int Height,
                          const std::string &InputName = "in",
                          float K = 0.04f) {
  const float S8 = 1.0f / 8.0f;
  const float S16 = 1.0f / 16.0f;
  int SobelX = LP.addMask(3, 3,
                          {-1 * S8, 0, 1 * S8, -2 * S8, 0, 2 * S8, -1 * S8, 0,
                           1 * S8});
  int SobelY = LP.addMask(3, 3,
                          {-1 * S8, -2 * S8, -1 * S8, 0, 0, 0, 1 * S8, 2 * S8,
                           1 * S8});
  int Binom = LP.addMask(3, 3,
                         {1 * S16, 2 * S16, 1 * S16, 2 * S16, 4 * S16, 2 * S16,
                          1 * S16, 2 * S16, 1 * S16});

  LazyImage In = LP.input(InputName, Width, Height);
  LazyImage Dx = LP.convolve(In, SobelX);
  LazyImage Dy = LP.convolve(In, SobelY);
  LazyImage Sx = LP.mul(Dx, Dx);
  LazyImage Sy = LP.mul(Dy, Dy);
  LazyImage Sxy = LP.mul(Dx, Dy);
  LazyImage Gx = LP.convolve(Sx, Binom);
  LazyImage Gy = LP.convolve(Sy, Binom);
  LazyImage Gxy = LP.convolve(Sxy, Binom);

  // hc = (gx*gy - gxy^2) - K * (gx + gy)^2, in the registry's operation
  // order so the float rounding sequence matches bit for bit.
  LazyImage Det = LP.mul(Gx, Gy);
  LazyImage Gxy2 = LP.mul(Gxy, Gxy);
  LazyImage M = LP.sub(Det, Gxy2);
  LazyImage Tr = LP.add(Gx, Gy);
  LazyImage Tr2 = LP.mul(Tr, Tr);
  LazyImage Ktr = LP.binary(BinOp::Mul, K, Tr2);
  return LP.sub(M, Ktr);
}

/// The semantic ground truth: the registry Harris program run through
/// the unfused AST walker on \p In.
Image registryHarrisReference(int Width, int Height, const Image &In) {
  Program P = makeHarris(Width, Height);
  std::vector<Image> Pool = makeImagePool(P);
  Pool[P.externalInputs().front()] = In;
  runUnfused(P, Pool);
  return Pool[P.kernels().back().Output];
}

/// True when some frontend issue carries \p Code.
bool hasIssue(const std::vector<LazyIssue> &Issues, const std::string &Code) {
  return std::any_of(Issues.begin(), Issues.end(),
                     [&](const LazyIssue &I) { return I.Code == Code; });
}

std::string renderIssues(const std::vector<LazyIssue> &Issues) {
  std::ostringstream Out;
  for (const LazyIssue &I : Issues)
    Out << I.Code << " (" << I.Where << "): " << I.Message << "\n";
  return Out.str();
}

/// The shipped lazy-script example in the source tree.
const std::string HarrisScriptPath = KF_SOURCE_DIR "/examples/lazy/harris.lz";

//===--------------------------------------------------------------------===//
// Differential: lazy vs registry, across engines
//===--------------------------------------------------------------------===//

struct EngineCase {
  const char *Label;
  VmMode Mode;
  TilingStrategy Tiling;
};

class LazyDifferential : public ::testing::TestWithParam<EngineCase> {};

TEST_P(LazyDifferential, HarrisBitIdenticalToRegistryPipeline) {
  const int Width = 64, Height = 64;
  Rng Gen(0x1a2f);
  Image In = makeRandomImage(Width, Height, 1, Gen, 0.05f, 1.0f);
  Image Ref = registryHarrisReference(Width, Height, In);

  LazyPipeline LP("lazy_harris");
  LazyImage Hc = buildLazyHarris(LP, Width, Height);
  MaterializedPipeline MP = compileLazy(LP, {Hc});
  ASSERT_TRUE(MP.Ok) << MP.Diags.renderText();

  const EngineCase &Engine = GetParam();
  for (int Threads : threadSweep()) {
    ExecutionOptions Exec;
    Exec.Mode = Engine.Mode;
    Exec.Tiling = Engine.Tiling;
    Exec.Threads = Threads;
    PlanCache Cache;
    LazyRunResult R = runLazy(MP, {{"in", &In}}, Exec, &Cache);
    ASSERT_TRUE(R.Ok) << R.Diags.renderText();
    ASSERT_EQ(R.Outputs.size(), 1u);
    EXPECT_DOUBLE_EQ(maxAbsDifference(R.Outputs.front(), Ref), 0.0)
        << Engine.Label << ", threads=" << Threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, LazyDifferential,
    ::testing::Values(
        EngineCase{"scalar_interior", VmMode::Scalar,
                   TilingStrategy::InteriorHalo},
        EngineCase{"span_interior", VmMode::Span,
                   TilingStrategy::InteriorHalo},
        EngineCase{"jit_interior", VmMode::Jit, TilingStrategy::InteriorHalo},
        EngineCase{"scalar_overlapped", VmMode::Scalar,
                   TilingStrategy::Overlapped},
        EngineCase{"span_overlapped", VmMode::Span,
                   TilingStrategy::Overlapped},
        EngineCase{"jit_overlapped", VmMode::Jit,
                   TilingStrategy::Overlapped}),
    [](const ::testing::TestParamInfo<EngineCase> &Info) {
      return Info.param.Label;
    });

TEST(LazyDifferentialExtra, OpAtATimeGateMatchesFusedResult) {
  const int Width = 48, Height = 40;
  Rng Gen(0xbeef);
  Image In = makeRandomImage(Width, Height, 1, Gen, 0.05f, 1.0f);
  Image Ref = registryHarrisReference(Width, Height, In);

  LazyPipeline LP("lazy_harris_unfused");
  LazyImage Hc = buildLazyHarris(LP, Width, Height);
  LazyGateOptions Gate;
  Gate.Fuse = false; // singleton partition: one launch per kernel
  MaterializedPipeline MP = compileLazy(LP, {Hc}, Gate);
  ASSERT_TRUE(MP.Ok) << MP.Diags.renderText();
  EXPECT_EQ(MP.Fused.Kernels.size(), MP.Prog->kernels().size());

  PlanCache Cache;
  LazyRunResult R = runLazy(MP, {{"in", &In}}, ExecutionOptions(), &Cache);
  ASSERT_TRUE(R.Ok) << R.Diags.renderText();
  EXPECT_DOUBLE_EQ(maxAbsDifference(R.Outputs.front(), Ref), 0.0);
}

//===--------------------------------------------------------------------===//
// Structural hash: shape-keyed plan sharing
//===--------------------------------------------------------------------===//

TEST(LazyStructuralHash, SameShapeDifferentNamesSharesThePlan) {
  const int Width = 64, Height = 64;
  LazyPipeline A("tenant_a"), B("tenant_b");
  LazyImage HcA = buildLazyHarris(A, Width, Height, "frame");
  LazyImage HcB = buildLazyHarris(B, Width, Height, "sensor_feed");

  MaterializedPipeline MA = compileLazy(A, {HcA});
  MaterializedPipeline MB = compileLazy(B, {HcB});
  ASSERT_TRUE(MA.Ok) << MA.Diags.renderText();
  ASSERT_TRUE(MB.Ok) << MB.Diags.renderText();

  // Canonical-naming lowering: value names must not leak into the key.
  EXPECT_EQ(MA.StructuralHash, MB.StructuralHash);

  Rng Gen(0x77);
  Image In = makeRandomImage(Width, Height, 1, Gen, 0.05f, 1.0f);
  ExecutionOptions Exec;
  Exec.Threads = 1;
  PlanCache Cache;
  LazyRunResult RA = runLazy(MA, {{"frame", &In}}, Exec, &Cache);
  LazyRunResult RB = runLazy(MB, {{"sensor_feed", &In}}, Exec, &Cache);
  ASSERT_TRUE(RA.Ok) << RA.Diags.renderText();
  ASSERT_TRUE(RB.Ok) << RB.Diags.renderText();

  EXPECT_FALSE(RA.Stats.PlanWasHit) << "first tenant compiles cold";
  EXPECT_TRUE(RB.Stats.PlanWasHit)
      << "second same-shape tenant must hit the shared plan warm";
  EXPECT_EQ(RA.Stats.PlanKey, RB.Stats.PlanKey);
  EXPECT_DOUBLE_EQ(maxAbsDifference(RA.Outputs.front(), RB.Outputs.front()),
                   0.0);
}

TEST(LazyStructuralHash, ConstantShapeAndOpChangesMiss) {
  const int Width = 64, Height = 64;
  LazyPipeline Base("base");
  MaterializedPipeline MBase =
      compileLazy(Base, {buildLazyHarris(Base, Width, Height)});
  ASSERT_TRUE(MBase.Ok) << MBase.Diags.renderText();

  // A different float constant is a different shape (bit-pattern hashed).
  LazyPipeline K("k005");
  MaterializedPipeline MK =
      compileLazy(K, {buildLazyHarris(K, Width, Height, "in", 0.05f)});
  ASSERT_TRUE(MK.Ok) << MK.Diags.renderText();
  EXPECT_NE(MBase.StructuralHash, MK.StructuralHash);

  // A different image extent is a different shape.
  LazyPipeline Sz("small");
  MaterializedPipeline MSz = compileLazy(Sz, {buildLazyHarris(Sz, 32, 64)});
  ASSERT_TRUE(MSz.Ok) << MSz.Diags.renderText();
  EXPECT_NE(MBase.StructuralHash, MSz.StructuralHash);

  // A different operator is a different shape.
  LazyPipeline AddP("addp"), SubP("subp");
  {
    LazyImage A = AddP.input("a", 16, 16), B = AddP.input("b", 16, 16);
    MaterializedPipeline MAdd = compileLazy(AddP, {AddP.add(A, B)});
    LazyImage C = SubP.input("a", 16, 16), D = SubP.input("b", 16, 16);
    MaterializedPipeline MSub = compileLazy(SubP, {SubP.sub(C, D)});
    ASSERT_TRUE(MAdd.Ok && MSub.Ok);
    EXPECT_NE(MAdd.StructuralHash, MSub.StructuralHash);
  }

  // And a shape change must actually miss a warm cache.
  Rng Gen(0x31);
  Image In64 = makeRandomImage(64, 64, 1, Gen, 0.05f, 1.0f);
  ExecutionOptions Exec;
  Exec.Threads = 1;
  PlanCache Cache;
  LazyRunResult R1 = runLazy(MBase, {{"in", &In64}}, Exec, &Cache);
  LazyRunResult R2 = runLazy(MK, {{"in", &In64}}, Exec, &Cache);
  ASSERT_TRUE(R1.Ok && R2.Ok);
  EXPECT_FALSE(R2.Stats.PlanWasHit)
      << "different corner constant must not share a plan";
  EXPECT_NE(R1.Stats.PlanKey, R2.Stats.PlanKey);
}

//===--------------------------------------------------------------------===//
// Malformed DAGs: exact KF-* rejection, never a crash
//===--------------------------------------------------------------------===//

TEST(LazyReject, RawRecordCycleIsRejectedAsDependenceCycle) {
  LazyPipeline LP("cyclic");
  LazyNode NA;
  NA.Op = LazyOpKind::Binary;
  NA.Bin = BinOp::Mul;
  NA.Name = "a";
  NA.A = 1;
  NA.B = 1;
  LazyNode NB = NA;
  NB.Name = "b";
  NB.A = 0;
  NB.B = 0;
  LazyImage HA = LP.record(NA);
  LP.record(NB);

  MaterializedPipeline MP = compileLazy(LP, {HA});
  EXPECT_FALSE(MP.Ok);
  EXPECT_TRUE(MP.Diags.hasCode("KF-P01")) << MP.Diags.renderText();
}

TEST(LazyReject, ForeignHandleIsDangling) {
  LazyPipeline A("a"), B("b");
  LazyImage InA = A.input("in", 8, 8);
  LazyImage InB = B.input("in", 8, 8);
  LazyImage Mixed = A.add(InA, InB); // InB belongs to pipeline B

  MaterializedPipeline MP = compileLazy(A, {Mixed});
  EXPECT_FALSE(MP.Ok);
  EXPECT_TRUE(MP.Diags.hasCode("KF-P02")) << MP.Diags.renderText();
}

TEST(LazyReject, OutOfRangeHandleIsDangling) {
  LazyPipeline LP("dangling");
  LP.input("in", 8, 8);
  MaterializedPipeline MP = compileLazy(LP, {LP.handleAt(42)});
  EXPECT_FALSE(MP.Ok);
  EXPECT_TRUE(MP.Diags.hasCode("KF-P02")) << MP.Diags.renderText();
}

TEST(LazyReject, MalformedMasksAreRejected) {
  { // Even extents.
    LazyPipeline LP("even_mask");
    LazyImage In = LP.input("in", 8, 8);
    int M = LP.addMask(2, 2, {1, 1, 1, 1});
    MaterializedPipeline MP = compileLazy(LP, {LP.convolve(In, M)});
    EXPECT_FALSE(MP.Ok);
    EXPECT_TRUE(MP.Diags.hasCode("KF-P04")) << MP.Diags.renderText();
  }
  { // Weight count contradicting the extents.
    LazyPipeline LP("short_mask");
    LazyImage In = LP.input("in", 8, 8);
    int M = LP.addMask(3, 3, {1, 2});
    MaterializedPipeline MP = compileLazy(LP, {LP.convolve(In, M)});
    EXPECT_FALSE(MP.Ok);
    EXPECT_TRUE(MP.Diags.hasCode("KF-P04")) << MP.Diags.renderText();
  }
  { // Undeclared mask index.
    LazyPipeline LP("no_mask");
    LazyImage In = LP.input("in", 8, 8);
    MaterializedPipeline MP = compileLazy(LP, {LP.convolve(In, 7)});
    EXPECT_FALSE(MP.Ok);
    EXPECT_TRUE(MP.Diags.hasCode("KF-P05")) << MP.Diags.renderText();
  }
}

TEST(LazyReject, OperandShapeMismatchIsRejected) {
  LazyPipeline LP("mismatch");
  LazyImage A = LP.input("a", 64, 64);
  LazyImage B = LP.input("b", 32, 32);
  MaterializedPipeline MP = compileLazy(LP, {LP.add(A, B)});
  EXPECT_FALSE(MP.Ok);
  EXPECT_TRUE(MP.Diags.hasCode("KF-P06")) << MP.Diags.renderText();
}

TEST(LazyReject, NonPositiveInputExtentIsRejected) {
  LazyPipeline LP("degenerate");
  LazyImage In = LP.input("in", 0, 64);
  MaterializedPipeline MP = compileLazy(LP, {In});
  EXPECT_FALSE(MP.Ok);
  EXPECT_TRUE(MP.Diags.hasCode("KF-P00")) << MP.Diags.renderText();
}

TEST(LazyReject, MissingAndMisshapenRunInputsAreRejected) {
  LazyPipeline LP("inputs");
  LazyImage In = LP.input("in", 16, 16);
  MaterializedPipeline MP = compileLazy(LP, {LP.add(In, 1.0f)});
  ASSERT_TRUE(MP.Ok) << MP.Diags.renderText();

  PlanCache Cache;
  LazyRunResult Missing = runLazy(MP, {}, ExecutionOptions(), &Cache);
  EXPECT_FALSE(Missing.Ok);
  EXPECT_TRUE(Missing.Diags.hasCode("KF-P00")) << Missing.Diags.renderText();

  Rng Gen(1);
  Image Wrong = makeRandomImage(8, 16, 1, Gen, 0.05f, 1.0f);
  LazyRunResult Bad =
      runLazy(MP, {{"in", &Wrong}}, ExecutionOptions(), &Cache);
  EXPECT_FALSE(Bad.Ok);
  EXPECT_TRUE(Bad.Diags.hasCode("KF-P00")) << Bad.Diags.renderText();
}

//===--------------------------------------------------------------------===//
// Script frontend
//===--------------------------------------------------------------------===//

TEST(LazyScript, GarbageLinesAreParseErrors) {
  LazyScriptResult R = parseLazyScript("widget foo 1 2\n");
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasIssue(R.Errors, "KF-P00")) << renderIssues(R.Errors);
}

TEST(LazyScript, RedefinitionIsRejected) {
  LazyScriptResult R = parseLazyScript("input a 8 8\n"
                                       "input a 8 8\n"
                                       "output a\n");
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasIssue(R.Errors, "KF-P03")) << renderIssues(R.Errors);
}

TEST(LazyScript, ForwardReferenceCycleReachesTheLintGate) {
  // The two-pass parser makes cycles expressible; the analyzer, not the
  // parser, rejects them.
  LazyScriptResult R = parseLazyScript("input in 8 8\n"
                                       "a = mul b b\n"
                                       "b = mul a a\n"
                                       "output a\n");
  ASSERT_TRUE(R.ok()) << renderIssues(R.Errors);
  MaterializedPipeline MP = compileLazy(*R.Pipeline, R.outputs());
  EXPECT_FALSE(MP.Ok);
  EXPECT_TRUE(MP.Diags.hasCode("KF-P01")) << MP.Diags.renderText();
}

TEST(LazyScript, AllLiteralOperandsAreRejectedAtParse) {
  LazyScriptResult R = parseLazyScript("input in 8 8\n"
                                       "a = add 1.0 2.0\n"
                                       "output a\n");
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasIssue(R.Errors, "KF-P00")) << renderIssues(R.Errors);
}

TEST(LazyScript, ShippedHarrisScriptMatchesTheHandleApi) {
  LazyScriptResult R = parseLazyScriptFile(HarrisScriptPath);
  ASSERT_TRUE(R.ok()) << renderIssues(R.Errors);
  EXPECT_EQ(R.Pipeline->numOps(), 16u);
  ASSERT_EQ(R.OutputNodes.size(), 1u);

  MaterializedPipeline MScript = compileLazy(*R.Pipeline, R.outputs());
  ASSERT_TRUE(MScript.Ok) << MScript.Diags.renderText();

  // The script and the C++ handle API record the same DAG shape, so they
  // must share a structural hash -- and therefore a plan.
  LazyPipeline Api("api_harris");
  MaterializedPipeline MApi = compileLazy(Api, {buildLazyHarris(Api, 256, 256)});
  ASSERT_TRUE(MApi.Ok) << MApi.Diags.renderText();
  EXPECT_EQ(MScript.StructuralHash, MApi.StructuralHash);

  Rng Gen(0x256);
  Image In = makeRandomImage(256, 256, 1, Gen, 0.05f, 1.0f);
  ExecutionOptions Exec;
  Exec.Threads = 1;
  PlanCache Cache;
  LazyRunResult RS = runLazy(MScript, {{"in", &In}}, Exec, &Cache);
  ASSERT_TRUE(RS.Ok) << RS.Diags.renderText();
  EXPECT_DOUBLE_EQ(
      maxAbsDifference(RS.Outputs.front(),
                       registryHarrisReference(256, 256, In)),
      0.0);
}

//===--------------------------------------------------------------------===//
// Server coexistence: lazy and registry tenants share one cache
//===--------------------------------------------------------------------===//

TEST(LazyServer, LazyTenantsCoexistWithRegistryTenantsAndSharePlans) {
  const int Width = 64, Height = 64;
  Rng Gen(0x5eed);
  Image In = makeRandomImage(Width, Height, 1, Gen, 0.05f, 1.0f);
  Image Ref = registryHarrisReference(Width, Height, In);

  // Registry tenant: the classic parse->fuse path.
  Program P = makeHarris(Width, Height);
  HardwareModel HW;
  MinCutFusionResult MinCut = runMinCutFusion(P, HW);
  FusedProgram FP = fuseProgram(P, MinCut.Blocks, FusionStyle::Optimized);

  // Two lazy tenants of the same shape, recorded independently.
  LazyPipeline A("lazy_a"), B("lazy_b");
  MaterializedPipeline MA = compileLazy(A, {buildLazyHarris(A, Width, Height,
                                                            "cam0")});
  MaterializedPipeline MB = compileLazy(B, {buildLazyHarris(B, Width, Height,
                                                            "cam1")});
  ASSERT_TRUE(MA.Ok) << MA.Diags.renderText();
  ASSERT_TRUE(MB.Ok) << MB.Diags.renderText();

  ServerOptions SO;
  SO.Threads = 2;
  SO.Dispatchers = 0; // inline, deterministic dispatch
  PipelineServer Server(SO);
  PipelineServer::SessionId Reg = Server.open(FP);
  PipelineServer::SessionId TenA = Server.open(MA.Fused);
  PipelineServer::SessionId TenB = Server.open(MB.Fused);

  Image OutReg, OutA, OutB;
  ImageId RegIn = P.externalInputs().front();
  ImageId RegOut = P.kernels().back().Output;
  Server.submit(
      Reg, [&](int, std::vector<Image> &Frame) { Frame[RegIn] = In; },
      [&](int, const std::vector<Image> &Pool) { OutReg = Pool[RegOut]; });
  Server.submit(
      TenA,
      [&](int, std::vector<Image> &Frame) { Frame[MA.Inputs.front().second] = In; },
      [&](int, const std::vector<Image> &Pool) {
        OutA = Pool[MA.Outputs.front()];
      });
  Server.submit(
      TenB,
      [&](int, std::vector<Image> &Frame) { Frame[MB.Inputs.front().second] = In; },
      [&](int, const std::vector<Image> &Pool) {
        OutB = Pool[MB.Outputs.front()];
      });
  EXPECT_EQ(Server.runPending(), 3u);

  EXPECT_DOUBLE_EQ(maxAbsDifference(OutReg, Ref), 0.0);
  EXPECT_DOUBLE_EQ(maxAbsDifference(OutA, Ref), 0.0);
  EXPECT_DOUBLE_EQ(maxAbsDifference(OutB, Ref), 0.0);

  // The registry program and the canonical lazy program are distinct
  // shapes (one plan each); the two lazy tenants share theirs.
  PlanCacheStats CS = Server.cacheStats();
  EXPECT_EQ(CS.Misses, 2u);
  EXPECT_EQ(CS.Hits, 1u)
      << "second lazy tenant must reuse the first tenant's plan";
  EXPECT_EQ(CS.Entries, 2u);
}

//===--------------------------------------------------------------------===//
// Gate plumbing details
//===--------------------------------------------------------------------===//

TEST(LazyGate, DeadBranchesPruneSilently) {
  // A record-everything client: only one branch is requested. The dead
  // branch must neither execute nor warn (KF-P09/KF-P10 suppressed).
  LazyPipeline LP("branches");
  LazyImage In = LP.input("in", 16, 16);
  LazyImage Wanted = LP.add(In, 1.0f);
  LP.mul(In, 3.0f); // recorded, never requested

  MaterializedPipeline MP = compileLazy(LP, {Wanted});
  ASSERT_TRUE(MP.Ok) << MP.Diags.renderText();
  EXPECT_EQ(MP.Diags.warningCount(), 0u) << MP.Diags.renderText();
  EXPECT_EQ(MP.Prog->kernels().size(), 1u)
      << "dead branch must be pruned from the live program";
}

TEST(LazyGate, RejectedPipelinesRefuseToRun) {
  LazyPipeline LP("rejected");
  MaterializedPipeline MP = compileLazy(LP, {LP.handleAt(5)});
  ASSERT_FALSE(MP.Ok);
  PlanCache Cache;
  LazyRunResult R = runLazy(MP, {}, ExecutionOptions(), &Cache);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Diags.hasCode("KF-P00")) << R.Diags.renderText();
  EXPECT_TRUE(R.Outputs.empty());
}

TEST(LazyGate, MaterializeLazyIsCompilePlusRun) {
  LazyPipeline LP("oneshot");
  LazyImage In = LP.input("in", 16, 16);
  LazyImage Out = LP.mul(LP.add(In, 0.5f), 2.0f);
  Rng Gen(9);
  Image Frame = makeRandomImage(16, 16, 1, Gen, 0.05f, 1.0f);
  LazyRunResult R = materializeLazy(LP, {Out}, {{"in", &Frame}});
  ASSERT_TRUE(R.Ok) << R.Diags.renderText();
  ASSERT_EQ(R.Outputs.size(), 1u);
  for (int Y = 0; Y != 16; ++Y)
    for (int X = 0; X != 16; ++X)
      ASSERT_EQ(R.Outputs.front().at(X, Y, 0),
                (Frame.at(X, Y, 0) + 0.5f) * 2.0f);
}

} // namespace
