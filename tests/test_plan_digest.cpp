//===- tests/test_plan_digest.cpp - Compiled-plan digest --------------------===//
//
// Pins every CompiledPlan the compile path produces over a fixed corpus:
// the registry pipelines at two sizes, the golden and example .kfp files,
// the example lazy script, and random DAGs shaped like the compile
// workload's requests, each under min-cut fusion, multi-destination
// legality and the unfused singleton partition, with the optimizer on and
// off. A refactoring of the compile or check path that changes any
// launch -- one bytecode field, one proven interval, one optimizer count,
// or whether the JIT accepted it -- changes the digest.
//
//===----------------------------------------------------------------------===//

#include "frontend/LazyScript.h"
#include "frontend/Parser.h"
#include "fusion/MinCutPartitioner.h"
#include "pipelines/Pipelines.h"
#include "sim/LazyRuntime.h"
#include "sim/Session.h"
#include "support/Random.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>

using namespace kf;

namespace {

/// FNV-1a over 64-bit words, like the MinCutTrace digest.
struct PlanDigest {
  uint64_t Hash = 0xcbf29ce484222325ull;
  uint64_t Launches = 0;
  uint64_t MultiDestLaunches = 0;
  uint64_t JitLaunches = 0;

  void add(uint64_t Word) {
    for (int Byte = 0; Byte != 8; ++Byte) {
      Hash ^= (Word >> (8 * Byte)) & 0xff;
      Hash *= 0x100000001b3ull;
    }
  }
  void add(float Value) { add(uint64_t{std::bit_cast<uint32_t>(Value)}); }
  void add(const std::string &Text) {
    add(uint64_t{Text.size()});
    for (char C : Text)
      add(uint64_t{static_cast<unsigned char>(C)});
  }
  void add(const RegInterval &R) {
    add(R.Lo);
    add(R.Hi);
    add(uint64_t{R.MayNaN});
    add(uint64_t{R.NoNegZero});
  }
  void add(const VmInst &I) {
    add(uint64_t{static_cast<uint8_t>(I.Op)});
    add(uint64_t{I.Dst});
    add(uint64_t{I.A});
    add(uint64_t{I.B});
    add(uint64_t{I.Sel});
    add(I.Imm);
    add(static_cast<uint64_t>(static_cast<int64_t>(I.InputIdx)));
    add(static_cast<uint64_t>(static_cast<int64_t>(I.Ox)));
    add(static_cast<uint64_t>(static_cast<int64_t>(I.Oy)));
    add(static_cast<uint64_t>(static_cast<int64_t>(I.Channel)));
  }
  void add(const StagedVmProgram &SP) {
    add(uint64_t{SP.Stages.size()});
    for (const VmStage &Stage : SP.Stages) {
      add(uint64_t{Stage.Code.Insts.size()});
      for (const VmInst &I : Stage.Code.Insts)
        add(I);
      add(uint64_t{Stage.Code.ResultReg});
      add(uint64_t{Stage.Code.NumRegs});
      add(uint64_t{Stage.Inputs.size()});
      for (ImageId In : Stage.Inputs)
        add(uint64_t{In});
      add(uint64_t{static_cast<uint8_t>(Stage.Border)});
      add(Stage.BorderConstant);
      add(static_cast<uint64_t>(Stage.OutW));
      add(static_cast<uint64_t>(Stage.OutH));
      add(uint64_t{Stage.RegBase});
    }
    add(uint64_t{SP.NumRegs});
    add(uint64_t{SP.Reach.size()});
    for (int Reach : SP.Reach)
      add(static_cast<uint64_t>(Reach));
    add(uint64_t{SP.UniformExtents});
  }
  void add(const VmOptStats &S) {
    for (unsigned Count :
         {S.FoldedConsts, S.PinnedConsts, S.AddZeroRemoved, S.ClampsRemoved,
          S.SelectsDecided, S.CseReplaced, S.RemovedStages, S.OriginalInsts,
          S.OptimizedInsts})
      add(uint64_t{Count});
  }
  void add(const CompiledPlan &Plan) {
    add(uint64_t{Plan.Launches.size()});
    for (const CompiledLaunch &L : Plan.Launches) {
      add(L.Name);
      add(uint64_t{L.Output});
      add(uint64_t{L.Root});
      add(static_cast<uint64_t>(L.Halo));
      add(L.Code);
      add(uint64_t{L.Facts.size()});
      for (const StageValueFacts &F : L.Facts) {
        add(uint64_t{F.Regs.size()});
        for (const RegInterval &R : F.Regs)
          add(R);
        add(F.Result);
      }
      add(L.OptStats);
      add(uint64_t{L.Jit != nullptr});
      ++Launches;
      JitLaunches += L.Jit != nullptr;
    }
  }

  /// Compiles \p FP with the optimizer on and off and digests both plans.
  void addBothOptModes(const FusedProgram &FP) {
    for (OptMode Opt : {OptMode::On, OptMode::Off}) {
      ExecutionOptions Options;
      Options.Opt = Opt;
      add(*compilePlan(FP, Options));
    }
    for (const FusedKernel &FK : FP.Kernels)
      MultiDestLaunches += FK.Destinations.size() > 1
                               ? FK.Destinations.size()
                               : 0;
  }

  /// Digests \p P under min-cut fusion, multi-destination legality (with
  /// the looser shared-memory threshold that lets it fuse more) and the
  /// unfused singleton partition.
  void addProgram(const Program &P) {
    Partition Blocks = runMinCutFusion(P, HardwareModel()).Blocks;
    addBothOptModes(fuseProgram(P, Blocks, FusionStyle::Optimized));
    HardwareModel Loose;
    Loose.SharedMemThreshold = 2.0;
    LegalityOptions MultiOut;
    MultiOut.AllowMultipleDestinations = true;
    Blocks = runMinCutFusion(P, Loose, MultiOut).Blocks;
    addBothOptModes(fuseProgram(P, Blocks, FusionStyle::Optimized));
    addBothOptModes(unfusedProgram(P));
  }
};

/// Every .kfp file of \p Dir (under the source tree), in name order.
std::vector<std::string> kfpFiles(const std::string &Dir) {
  std::vector<std::string> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(KF_SOURCE_DIR "/" + Dir))
    if (Entry.path().extension() == ".kfp")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

TEST(PlanDigest, CompiledPlansOverTheCorpusArePinned) {
  PlanDigest Digest;
  for (const PipelineSpec &Spec : paperPipelines()) {
    Digest.addProgram(Spec.Builder(48, 40));
    Digest.addProgram(Spec.Builder(256, 192));
  }
  for (const char *Dir : {"tests/golden", "examples/pipelines"})
    for (const std::string &File : kfpFiles(Dir)) {
      ParseResult Parsed = parsePipelineFile(File);
      ASSERT_TRUE(Parsed.success()) << File;
      Digest.addProgram(*Parsed.Prog);
    }
  // Two terminal outputs sharing one producer: the shape multi-destination
  // legality fuses into one launch with two destinations.
  ParseResult TwoOut = parsePipelineText(R"(program twoout
image in 40 32
image g 40 32
image a 40 32
image b 40 32
mask m 3 3 [0.0625 0.125 0.0625 0.125 0.25 0.125 0.0625 0.125 0.0625]
point kernel grad(in) -> g {
  out = ((in * in) - 0.25)
}
point kernel scale(g) -> a {
  out = (g * 2)
}
local kernel blur(g) -> b border mirror {
  out = sum(m, (mv * g[]))
}
)");
  ASSERT_TRUE(TwoOut.success())
      << (TwoOut.Errors.empty() ? "" : TwoOut.Errors.front());
  Digest.addProgram(*TwoOut.Prog);
  for (unsigned Seed = 0; Seed != 12; ++Seed) {
    Rng Gen(4200 + Seed);
    Digest.addProgram(
        makeRandomPipeline(8 + 5 * Seed, 0.4, 48, 48, Gen));
  }

  LazyScriptResult Script =
      parseLazyScriptFile(KF_SOURCE_DIR "/examples/lazy/harris.lz");
  ASSERT_TRUE(Script.ok());
  for (int Mode = 0; Mode != 3; ++Mode) {
    LazyGateOptions Gate;
    Gate.Fuse = Mode != 2;
    Gate.Legality.AllowMultipleDestinations = Mode == 1;
    MaterializedPipeline MP =
        compileLazy(*Script.Pipeline, Script.outputs(), Gate);
    ASSERT_TRUE(MP.Ok) << MP.Diags.renderText();
    Digest.addBothOptModes(MP.Fused);
  }

  // The corpus exercises what the digest is meant to pin.
  EXPECT_GT(Digest.MultiDestLaunches, 0u);
  EXPECT_GT(Digest.JitLaunches, 0u);
  EXPECT_EQ(Digest.Launches, 2904u);
  EXPECT_EQ(Digest.Hash, 0xc3be9efbac2f6eb7ull);
}

} // namespace
