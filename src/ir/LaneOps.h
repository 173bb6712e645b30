//===- ir/LaneOps.h - Lane loops of the span VM and the JIT -----*- C++ -*-===//
///
/// \file
/// The structure-of-arrays loops both lane engines execute: the span
/// interpreter (evalRowImpl in ir/ExprVM.cpp) and the JIT op cells
/// (jit/JitProgram.cpp). Each helper streams one VM operation across one
/// chunk of lanes. Both engines call the same helpers, so every lane runs
/// the identical float operation sequence in either engine, and span/JIT
/// bit-identity holds by construction. The JIT's fused cells call laneAlu
/// with an immediate (LaneImm) or an image row in place of a register
/// operand, and laneMulAdd for a Mul feeding an Add.
///
/// Width: every helper runs the compile-time trip count VmLaneWidth, the
/// one chunk width of both engines. A span narrower than a lane still runs
/// a whole chunk; its lanes past the span compute values nobody stores
/// (forEachLaneChunk, lanesInside).
///
/// Vectorization: GCC's default -O2 cost model ("very cheap") vectorizes a
/// loop only when the vector code replaces the scalar loop outright -- no
/// runtime alias check, no scalar epilogue. Every lane loop reads and
/// writes one lane buffer through pointers the compiler cannot tell apart,
/// so without a hint every loop stays scalar. KF_LANE_LOOP asserts that the
/// loop carries no dependence between iterations. That holds: two lane
/// registers are either the same block (Dst == A is legal bytecode) or
/// disjoint blocks (the validator's KF-B11 frame invariant), and images and
/// overlap planes never overlap the lane buffer. `__restrict` would be
/// undefined behaviour exactly when Dst == A, so it is not used.
///
/// With the hint, the lane loops compile to packed SSE at the default build
/// (an Add chunk is 16 iterations of movups/addps). Only the loops that
/// call libm (Exp, Log, Pow; Sqrt keeps its errno call; SSE2 has no packed
/// floor) and the runtime-stride gathers and scatters of multi-channel
/// images stay scalar. tools/check_vectorized.py fails the build job when
/// any other lane loop stops vectorizing.
///
//===----------------------------------------------------------------------===//

#ifndef KF_IR_LANEOPS_H
#define KF_IR_LANEOPS_H

#include "ir/ExprVM.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

/// Placed on its own line right before a lane loop: the loop carries no
/// dependence between iterations (see the file comment for why that holds).
#if defined(__clang__)
#define KF_LANE_LOOP _Pragma("clang loop vectorize(assume_safety)")
#elif defined(__GNUC__)
#define KF_LANE_LOOP _Pragma("GCC ivdep")
#else
#define KF_LANE_LOOP
#endif

namespace kf {

/// D[i] = V (Const, CoordY).
inline void laneFill(float *D, float V) {
  KF_LANE_LOOP
  for (int I = 0; I != VmLaneWidth; ++I)
    D[I] = V;
}

/// D[i] = (float)(Base + i) (CoordX).
inline void laneIota(float *D, int Base) {
  KF_LANE_LOOP
  for (int I = 0; I != VmLaneWidth; ++I)
    D[I] = static_cast<float>(Base + I);
}

/// D[i] = Src[i]: a stride-1 load, a stage-call result copy, or an
/// overlap-plane read.
inline void laneCopy(float *D, const float *Src) {
  KF_LANE_LOOP
  for (int I = 0; I != VmLaneWidth; ++I)
    D[I] = Src[I];
}

/// D[i] = Src[i * Stride]: a load from a multi-channel image.
inline void laneGather(float *D, const float *Src, int Stride) {
  KF_LANE_LOOP
  for (int I = 0; I != VmLaneWidth; ++I)
    D[I] = Src[static_cast<size_t>(I) * Stride];
}

/// Out[i * OutStride] = Src[i] for lanes [From, To): the store of a
/// chunk's result lanes that belong to its span and were not stored by the
/// previous chunk (see forEachLaneChunk).
inline void laneStore(int From, int To, float *Out, int OutStride,
                      const float *Src) {
  if (From == 0 && To == VmLaneWidth && OutStride == 1) {
    laneCopy(Out, Src);
    return;
  }
  KF_LANE_LOOP
  for (int I = From; I != To; ++I)
    Out[static_cast<size_t>(I) * OutStride] = Src[I];
}

/// An immediate lane operand: every lane reads the same value. The JIT's
/// fused cells pass one where the unfused program read a Const register;
/// it is finite (the JIT refuses non-finite constants, KF-B09).
struct LaneImm {
  float V;
  float operator[](int) const { return V; }
};

/// Whether a lane operand of type \p T can hold a NaN: a LaneImm cannot.
template <class T> constexpr bool LaneMayBeNaN = !std::is_same_v<T, LaneImm>;

/// B, or A where A is NaN: the second operand of an Add or Mul whose NaN
/// result must be A's. When both operands are NaN, x86 returns the NaN of
/// the operand in the instruction's destination register. The
/// interpreters' loops compile with A there, but a fused loop reading its
/// operands from elsewhere may get them swapped: an Add and a Mul are
/// commutative to the compiler. Fed at most one NaN, the op returns A's
/// NaN in either order; every other value is unchanged. The choice is a
/// bitwise blend, not a conditional: the compiler may sink B's
/// computation into a conditional's arm, and under -ftrapping-math it
/// then cannot vectorize the loop.
template <bool MayBothBeNaN> inline float afterNaN(float A, float B) {
  if constexpr (MayBothBeNaN) {
    const uint32_t Mask = 0u - static_cast<uint32_t>(A != A);
    return std::bit_cast<float>((std::bit_cast<uint32_t>(A) & Mask) |
                                (std::bit_cast<uint32_t>(B) & ~Mask));
  } else {
    return B;
  }
}

/// Operand B of a fused Add or Mul of two lane pointers, through afterNaN.
template <class TA, class TB> struct LaneAfterNaN {
  TA A;
  TB B;
  float operator[](int I) const { return afterNaN<true>(A[I], B[I]); }
};

/// D = Op(A, B) lane-wise, with S the Select condition. A and B are lane
/// pointers (a register, or an interior image row the JIT reads in place
/// of a Load register) or, for the binary ops, a LaneImm; the unused
/// operands are never read. Select reads both candidates before choosing
/// so the loop body has no conditional load (which would keep the loop
/// scalar); the value is the same.
template <VmOp Op, class TA, class TB>
inline void laneAlu(float *D, TA A, TB B, const float *S) {
  if constexpr (Op == VmOp::Add) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = A[I] + B[I];
  } else if constexpr (Op == VmOp::Sub) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = A[I] - B[I];
  } else if constexpr (Op == VmOp::Mul) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = A[I] * B[I];
  } else if constexpr (Op == VmOp::Div) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = A[I] / B[I];
  } else if constexpr (Op == VmOp::Min) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = std::min(A[I], B[I]);
  } else if constexpr (Op == VmOp::Max) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = std::max(A[I], B[I]);
  } else if constexpr (Op == VmOp::Pow) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = std::pow(A[I], B[I]);
  } else if constexpr (Op == VmOp::CmpLT) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = A[I] < B[I] ? 1.0f : 0.0f;
  } else if constexpr (Op == VmOp::CmpGT) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = A[I] > B[I] ? 1.0f : 0.0f;
  } else if constexpr (Op == VmOp::Neg) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = -A[I];
  } else if constexpr (Op == VmOp::Abs) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = std::abs(A[I]);
  } else if constexpr (Op == VmOp::Sqrt) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = std::sqrt(A[I]);
  } else if constexpr (Op == VmOp::Exp) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = std::exp(A[I]);
  } else if constexpr (Op == VmOp::Log) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = std::log(A[I]);
  } else if constexpr (Op == VmOp::Floor) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I)
      D[I] = std::floor(A[I]);
  } else {
    static_assert(Op == VmOp::Select, "not a register-to-register op");
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I) {
      const float IfTrue = A[I], IfFalse = B[I];
      D[I] = S[I] != 0.0f ? IfTrue : IfFalse;
    }
  }
}

/// D = R + X * Y (AccFirst) or X * Y + R: a Mul whose product an Add
/// reads, fused into one loop by the JIT. Each operand is a lane pointer
/// or a LaneImm. The product is rounded to float before the add (the
/// build never contracts to FMA), and each op keeps its operand order,
/// NaNs included (afterNaN), so a lane gets the bits the two unfused
/// laneAlu loops give it.
template <bool AccFirst, class TR, class TX, class TY>
inline void laneMulAdd(float *D, TR R, TX X, TY Y) {
  constexpr bool XY = LaneMayBeNaN<TX> && LaneMayBeNaN<TY>;
  constexpr bool RP = LaneMayBeNaN<TR>; // A product can always be NaN.
  if constexpr (AccFirst) {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I) {
      const float P = X[I] * afterNaN<XY>(X[I], Y[I]);
      D[I] = R[I] + afterNaN<RP>(R[I], P);
    }
  } else {
    KF_LANE_LOOP
    for (int I = 0; I != VmLaneWidth; ++I) {
      const float P = X[I] * afterNaN<XY>(X[I], Y[I]);
      D[I] = P + afterNaN<RP>(P, R[I]);
    }
  }
}

/// Splits the row span [X0, X1) into lane chunks and calls
/// Chunk(C0, From, To) for each: evaluate the VmLaneWidth lanes from
/// column C0, then store lanes [From, To). Full chunks tile the span from
/// X0; the last chunk ends at X1, From skipping the lanes the previous
/// chunk already stored -- bit-identical, since every lane is a pure
/// function of its own x. A span narrower than one lane is one chunk from
/// X0 whose lanes past X1 are not stored; the caller guarantees they read
/// inside every allocation (lanesInside).
template <class ChunkFn>
inline void forEachLaneChunk(int X0, int X1, ChunkFn &&Chunk) {
  int C0 = X0;
  for (; X1 - C0 >= VmLaneWidth; C0 += VmLaneWidth)
    Chunk(C0, 0, VmLaneWidth);
  const int Last = std::max(X0, X1 - VmLaneWidth);
  if (C0 < X1)
    Chunk(Last, C0 - Last, X1 - Last);
}

/// Whether the span [X0, X1) of rows [Y0, Y1) may read a W x H row-major
/// array of \p Size allocated pixels at every offset of \p Box: every
/// stored lane reads inside W x H, and the last lane of a chunk from X0
/// inside the allocation. A span evaluator's one check of its reads.
inline bool lanesInside(const ReadBox &Box, int W, int H, size_t Size,
                        int Y0, int Y1, int X0, int X1) {
  return Y0 + Box.MinOy >= 0 && Y1 - 1 + Box.MaxOy < H &&
         X0 + Box.MinOx >= 0 && X1 - 1 + Box.MaxOx < W &&
         static_cast<size_t>(Y1 - 1 + Box.MaxOy) * W +
                 std::max(X1, X0 + VmLaneWidth) + Box.MaxOx <=
             Size;
}

/// lanesInside for a materialized pool image, whose W x H pixels are the
/// whole allocation.
inline bool lanesInside(const ReadBox &Box, const Image &Img, int Y0, int Y1,
                        int X0, int X1) {
  return !Img.empty() &&
         lanesInside(Box, Img.width(), Img.height(),
                     static_cast<size_t>(Img.width()) * Img.height(), Y0, Y1,
                     X0, X1);
}

} // namespace kf

#endif // KF_IR_LANEOPS_H
