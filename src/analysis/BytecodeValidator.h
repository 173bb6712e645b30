//===- analysis/BytecodeValidator.h - Fused-bytecode validation -*- C++ -*-===//
///
/// \file
/// Structural validation of compiled ExprVM programs -- the analyzer's
/// third pass. The VM (ir/ExprVM.h) executes flat instruction streams into
/// caller-provided register scratch with no runtime bounds checks; a
/// miscompiled program is undefined behavior. The validator proves, at
/// plan-compile time, the properties the interpreters assume:
///
///   - every register operand stays inside the stage's register frame and
///     the frame stays inside the shared scratch block (KF-B02, KF-B07);
///   - every register is written before it is read, and the stage result
///     register is written (KF-B03) -- the register-machine analog of
///     stack-depth bounds checking;
///   - loads name a declared stage input, a pool image of the plan, and an
///     in-range channel (KF-B04);
///   - stage calls target a *preceding* stage, which bounds the call depth
///     by the (validated) stage count and makes recursion impossible
///     (KF-B05, KF-B10);
///   - stage register frames are pairwise disjoint (KF-B11), the layout
///     the span-mode interpreter (runStagedVmSpan) relies on: a caller's
///     lane frame stays live across its stage calls, so overlapping
///     frames would let a callee clobber its caller.
///
/// The full bytecode format, register model, and invariant list live in
/// docs/VM.md.
///
/// sim/Session runs this over every freshly compiled plan (cache-miss
/// path); tests/test_bytecode_validator.cpp proves each check fires by
/// mutating pristine programs field by field.
///
//===----------------------------------------------------------------------===//

#ifndef KF_ANALYSIS_BYTECODEVALIDATOR_H
#define KF_ANALYSIS_BYTECODEVALIDATOR_H

#include "ir/ExprVM.h"
#include "support/Diagnostics.h"

namespace kf {

/// Validates staged fused-kernel bytecode against the pool it will
/// execute over: \p PoolShapes are the plan's image shapes (indexed by
/// ImageId, as VmStage::Inputs references them), \p Root the launch's
/// destination stage. \p MaxCallDepth bounds the stage-call chain depth
/// (the fused VM recurses per call; the compiler never emits chains
/// longer than the stage count, so the default is generous).
void validateStagedProgram(const StagedVmProgram &SP, uint16_t Root,
                           const std::vector<ImageInfo> &PoolShapes,
                           DiagnosticEngine &DE, DiagLocation Loc = {},
                           int MaxCallDepth = 256);

} // namespace kf

#endif // KF_ANALYSIS_BYTECODEVALIDATOR_H
