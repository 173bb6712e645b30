//===- image/Generators.h - Synthetic test images ---------------*- C++ -*-===//
///
/// \file
/// Synthetic image generators. The paper's artifact generates random images
/// ("The provided binaries generate random images of size 2,048 by 2,048
/// pixels, hence no additional data is required"); we do the same, plus a
/// few structured patterns that make border-handling bugs visible.
///
//===----------------------------------------------------------------------===//

#ifndef KF_IMAGE_GENERATORS_H
#define KF_IMAGE_GENERATORS_H

#include "image/Image.h"
#include "support/Random.h"

namespace kf {

/// Uniform random samples in [Lo, Hi).
Image makeRandomImage(int Width, int Height, int Channels, Rng &Generator,
                      float Lo = 0.0f, float Hi = 1.0f);

/// Diagonal gradient: pixel (x, y) = (x + 2*y) scaled into [0, 1].
Image makeGradientImage(int Width, int Height, int Channels = 1);

/// All-zero image with a single bright pixel in the middle; convolving it
/// reveals the mask footprint, which makes halo bugs obvious.
Image makeImpulseImage(int Width, int Height, float Peak = 1.0f);

/// Alternating Block x Block checkerboard of values Lo / Hi.
Image makeCheckerboardImage(int Width, int Height, int Block, float Lo,
                            float Hi);

/// Uniform random samples in [0, 1) with both zero signs the [0, 1]
/// input contract admits made common: 6x6 patches of +0.0f, 6x6 patches
/// of -0.0f, and single -0.0f samples scattered through the rest. Zero
/// patches are where a signed-zero rewrite would show (-c * +0 is -0;
/// a stencil over an all -0 window sums to -0).
Image makeSignedZeroImage(int Width, int Height, int Channels,
                          Rng &Generator);

/// Samples drawn uniformly from every IEEE-754 value class a lane op can
/// treat differently from its scalar form -- quiet NaNs of both signs and
/// with a payload, +-inf, +-0, denormals of both signs, +-FLT_MIN,
/// +-FLT_MAX -- and from ordinary values in [-2, 2). The signed-zero image
/// above covers the [0, 1] input contract; this one goes outside it on
/// purpose, for opcode-level differentials (NaN and signed-zero semantics
/// of packed min/max/compare/blend against their scalar forms).
Image makeSpecialValueImage(int Width, int Height, int Channels,
                            Rng &Generator);

/// The 5x5 integer example matrix from Figure 4 of the paper (used by the
/// border-fusion experiment; values are exactly the figure's).
Image makeFigure4Matrix();

} // namespace kf

#endif // KF_IMAGE_GENERATORS_H
