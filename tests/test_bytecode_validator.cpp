//===- tests/test_bytecode_validator.cpp - Mutation-based validation ------------===//
//
// Takes every registry pipeline's compiled fused bytecode, applies
// systematic single-field corruptions (bad register index, truncated
// instruction stream, negative input slot, invalid stage-call targets,
// frame overruns), and asserts the validator rejects each with the right
// code while every pristine program verifies clean.
//
//===----------------------------------------------------------------------===//

#include "analysis/BytecodeValidator.h"
#include "fusion/MinCutPartitioner.h"
#include "jit/JitProgram.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>

using namespace kf;

namespace {

struct CompiledPipeline {
  Program P;
  FusedProgram FP;
  std::vector<ImageInfo> Shapes;
  std::vector<StagedVmProgram> Programs; // One per fused kernel.
  std::vector<uint16_t> Roots;
};

CompiledPipeline compileSpec(const PipelineSpec &Spec) {
  CompiledPipeline C{Spec.Builder(64, 48), {}, {}, {}, {}};
  C.FP = fuseProgram(C.P, runMinCutFusion(C.P, HardwareModel()).Blocks,
                     FusionStyle::Optimized);
  for (ImageId Id = 0; Id != C.P.numImages(); ++Id)
    C.Shapes.push_back(C.P.image(Id));
  for (const FusedKernel &FK : C.FP.Kernels) {
    C.Programs.push_back(compileFusedKernel(C.FP, FK));
    C.Roots.push_back(
        static_cast<uint16_t>(C.Programs.back().Stages.size() - 1));
  }
  return C;
}

/// Validates one staged program into a fresh engine.
DiagnosticEngine validate(const StagedVmProgram &SP, uint16_t Root,
                          const std::vector<ImageInfo> &Shapes) {
  DiagnosticEngine DE;
  validateStagedProgram(SP, Root, Shapes, DE);
  return DE;
}

/// One corruption: mutates a pristine copy and names the code that must
/// fire.
struct Corruption {
  const char *Name;
  const char *ExpectedCode;
  /// Applies the mutation; returns false when the program has no site for
  /// it (e.g. no multi-stage kernel for a StageCall corruption).
  std::function<bool(StagedVmProgram &)> Apply;
};

VmInst *findInst(StagedVmProgram &SP, VmOp Op) {
  for (VmStage &Stage : SP.Stages)
    for (VmInst &Inst : Stage.Code.Insts)
      if (Inst.Op == Op)
        return &Inst;
  return nullptr;
}

const std::vector<Corruption> &corruptions() {
  static const std::vector<Corruption> Cases = {
      {"destination register out of frame", "KF-B02",
       [](StagedVmProgram &SP) {
         VmStage &Stage = SP.Stages.front();
         Stage.Code.Insts.front().Dst = Stage.Code.NumRegs;
         return true;
       }},
      {"operand register wildly out of range", "KF-B02",
       [](StagedVmProgram &SP) {
         VmInst *Inst = findInst(SP, VmOp::Add);
         if (!Inst)
           Inst = findInst(SP, VmOp::Mul);
         if (!Inst)
           return false;
         Inst->A = 0xFFFF;
         return true;
       }},
      {"result register never written (truncated stream)", "KF-B03",
       [](StagedVmProgram &SP) {
         // Truncate the tail until no remaining instruction writes the
         // stage result; an empty stream would trip KF-B01 instead, so
         // that case counts as no mutation site.
         VmStage &Stage = SP.Stages.back();
         auto writesResult = [&] {
           for (const VmInst &Inst : Stage.Code.Insts)
             if (Inst.Dst == Stage.Code.ResultReg)
               return true;
           return false;
         };
         if (!writesResult())
           return false;
         while (!Stage.Code.Insts.empty() && writesResult())
           Stage.Code.Insts.pop_back();
         return !Stage.Code.Insts.empty();
       }},
      {"negative load input slot", "KF-B04",
       [](StagedVmProgram &SP) {
         VmInst *Load = findInst(SP, VmOp::Load);
         if (!Load)
           return false;
         Load->InputIdx = -3;
         return true;
       }},
      {"load channel out of range", "KF-B04",
       [](StagedVmProgram &SP) {
         VmInst *Load = findInst(SP, VmOp::Load);
         if (!Load)
           return false;
         Load->Channel = 99;
         return true;
       }},
      {"stage call targets itself", "KF-B05",
       [](StagedVmProgram &SP) {
         for (size_t S = 0; S != SP.Stages.size(); ++S)
           for (VmInst &Inst : SP.Stages[S].Code.Insts)
             if (Inst.Op == VmOp::StageCall) {
               Inst.Sel = static_cast<uint16_t>(S);
               return true;
             }
         return false;
       }},
      {"stage call targets a missing stage", "KF-B05",
       [](StagedVmProgram &SP) {
         VmInst *Call = findInst(SP, VmOp::StageCall);
         if (!Call)
           return false;
         Call->Sel = static_cast<uint16_t>(SP.Stages.size());
         return true;
       }},
      {"register frame overruns the scratch block", "KF-B07",
       [](StagedVmProgram &SP) {
         SP.Stages.back().RegBase = SP.NumRegs + 1;
         return true;
       }},
      {"stage frames overlap", "KF-B11",
       [](StagedVmProgram &SP) {
         // Slide stage 1's frame onto stage 0's: both still fit the
         // shared scratch (KF-B07 stays quiet) but are no longer
         // pairwise disjoint, the layout span mode depends on.
         if (SP.Stages.size() < 2)
           return false;
         SP.Stages[1].RegBase = SP.Stages[0].RegBase;
         return true;
       }},
      {"reach table truncated", "KF-B08",
       [](StagedVmProgram &SP) {
         if (SP.Reach.empty())
           return false;
         SP.Reach.pop_back();
         return true;
       }},
  };
  return Cases;
}

TEST(BytecodeValidator, PristineRegistryProgramsPass) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    CompiledPipeline C = compileSpec(Spec);
    for (size_t K = 0; K != C.Programs.size(); ++K) {
      DiagnosticEngine DE = validate(C.Programs[K], C.Roots[K], C.Shapes);
      EXPECT_TRUE(DE.empty()) << Spec.Name << " " << C.FP.Kernels[K].Name
                              << ":\n"
                              << DE.renderText();
    }
  }
}

TEST(BytecodeValidator, EveryCorruptionIsRejected) {
  // Each corruption must fire on at least one registry program, and on
  // every program it applies to it must produce its code.
  std::map<std::string, int> Fired;
  for (const PipelineSpec &Spec : paperPipelines()) {
    CompiledPipeline C = compileSpec(Spec);
    for (size_t K = 0; K != C.Programs.size(); ++K) {
      for (const Corruption &Bad : corruptions()) {
        StagedVmProgram Mutant = C.Programs[K]; // Pristine copy.
        if (!Bad.Apply(Mutant))
          continue;
        DiagnosticEngine DE = validate(Mutant, C.Roots[K], C.Shapes);
        EXPECT_TRUE(DE.hasCode(Bad.ExpectedCode))
            << Spec.Name << " " << C.FP.Kernels[K].Name << ": " << Bad.Name
            << " produced\n"
            << DE.renderText();
        // The validator is the JIT codegen's contract: every corrupted
        // program the validator rejects must be refused before cell
        // selection, never compiled (let alone crash).
        EXPECT_EQ(compileJitProgram(Mutant, C.Roots[K], C.Shapes), nullptr)
            << Spec.Name << " " << C.FP.Kernels[K].Name << ": " << Bad.Name
            << " was JIT-compiled despite failing validation";
        ++Fired[Bad.Name];
      }
    }
  }
  for (const Corruption &Bad : corruptions())
    EXPECT_GT(Fired[Bad.Name], 0)
        << "corruption '" << Bad.Name << "' never found a mutation site";
}

TEST(BytecodeValidator, RootOutOfRangeIsKFB05) {
  CompiledPipeline C = compileSpec(paperPipelines().front());
  const StagedVmProgram &SP = C.Programs.front();
  DiagnosticEngine DE =
      validate(SP, static_cast<uint16_t>(SP.Stages.size()), C.Shapes);
  EXPECT_TRUE(DE.hasCode("KF-B05")) << DE.renderText();
}

TEST(BytecodeValidator, EmptyProgramIsKFB01) {
  StagedVmProgram SP;
  DiagnosticEngine DE;
  validateStagedProgram(SP, 0, {}, DE);
  EXPECT_TRUE(DE.hasCode("KF-B01"));
}

/// Every kernel compiled alone -- the one-stage program an unfused
/// launch runs -- passes validation.
TEST(BytecodeValidator, PlainKernelBodiesPass) {
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.Builder(64, 48);
    std::vector<ImageInfo> Shapes;
    for (ImageId Img = 0; Img != P.numImages(); ++Img)
      Shapes.push_back(P.image(Img));
    for (KernelId Id = 0; Id != P.numKernels(); ++Id) {
      StagedVmProgram SP = compileStagedProgram(P, {Id}, {false});
      DiagnosticEngine DE;
      validateStagedProgram(SP, 0, Shapes, DE);
      EXPECT_TRUE(DE.empty()) << Spec.Name << " " << P.kernel(Id).Name
                              << ":\n"
                              << DE.renderText();
    }
  }
}

} // namespace
