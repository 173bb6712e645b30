//===- image/Compare.h - Image comparison utilities -------------*- C++ -*-===//
///
/// \file
/// Comparison helpers used by the correctness tests: fused pipelines must
/// produce outputs identical (up to floating-point reassociation noise) to
/// their unfused references, including the halo region (Section IV-B).
///
//===----------------------------------------------------------------------===//

#ifndef KF_IMAGE_COMPARE_H
#define KF_IMAGE_COMPARE_H

#include "image/Image.h"

namespace kf {

/// Largest absolute per-sample difference; images must have equal shape.
/// A NaN sample against a number differs by +inf; two NaNs do not differ
/// (their sign and payload are countBitDifferences' concern), nor do two
/// equal infinities. The other tolerance comparisons below count the same
/// way.
double maxAbsDifference(const Image &A, const Image &B);

/// Number of samples differing by more than \p Tolerance.
long long countDifferingSamples(const Image &A, const Image &B,
                                double Tolerance);

/// Number of samples whose bit patterns differ. Unlike the tolerance
/// comparisons this tells -0 from +0: the check for rewrites that must
/// be bit-identical.
long long countBitDifferences(const Image &A, const Image &B);

/// True if every sample differs by at most \p Tolerance.
bool imagesAlmostEqual(const Image &A, const Image &B,
                       double Tolerance = 1e-4);

/// Largest absolute difference restricted to the halo region of width
/// \p Halo (the outermost Halo rows/columns). Useful to localize border
/// handling bugs: a naive local-to-local fusion is exact in the interior
/// but wrong exactly here.
double maxAbsDifferenceInHalo(const Image &A, const Image &B, int Halo);

/// Largest absolute difference restricted to the interior region (pixels at
/// distance >= \p Halo from every border).
double maxAbsDifferenceInInterior(const Image &A, const Image &B, int Halo);

} // namespace kf

#endif // KF_IMAGE_COMPARE_H
