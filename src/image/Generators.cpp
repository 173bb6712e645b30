//===- image/Generators.cpp ------------------------------------------------===//

#include "image/Generators.h"

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

using namespace kf;

Image kf::makeRandomImage(int Width, int Height, int Channels, Rng &Generator,
                          float Lo, float Hi) {
  Image Result(Width, Height, Channels);
  for (float &Sample : Result.data())
    Sample = static_cast<float>(Generator.uniform(Lo, Hi));
  return Result;
}

Image kf::makeSignedZeroImage(int Width, int Height, int Channels,
                              Rng &Generator) {
  constexpr int Patch = 6;
  const int PatchesX = (Width + Patch - 1) / Patch;
  const int PatchesY = (Height + Patch - 1) / Patch;
  // Per patch: 0 = +0 patch, 1 = -0 patch, otherwise random data.
  std::vector<uint64_t> Kind(static_cast<size_t>(PatchesX) * PatchesY);
  for (uint64_t &K : Kind)
    K = Generator.nextBelow(4);
  Image Result(Width, Height, Channels);
  for (int Y = 0; Y != Height; ++Y)
    for (int X = 0; X != Width; ++X)
      for (int Ch = 0; Ch != Channels; ++Ch) {
        const uint64_t K = Kind[static_cast<size_t>(Y / Patch) * PatchesX +
                                X / Patch];
        float &Sample = Result.at(X, Y, Ch);
        if (K == 0)
          Sample = 0.0f;
        else if (K == 1 || Generator.nextBelow(8) == 0)
          Sample = -0.0f;
        else
          Sample = static_cast<float>(Generator.uniform(0.0, 1.0));
      }
  return Result;
}

Image kf::makeSpecialValueImage(int Width, int Height, int Channels,
                                Rng &Generator) {
  using Limits = std::numeric_limits<float>;
  const float NaN = Limits::quiet_NaN();
  const float Denormal = Limits::denorm_min();
  const float Specials[] = {
      NaN, -NaN, std::bit_cast<float>(0x7fc00123u), // Payload NaN.
      Limits::infinity(), -Limits::infinity(),
      0.0f, -0.0f,
      Denormal, -Denormal, Limits::min() - Denormal, // Largest denormal.
      Limits::min(), -Limits::min(), Limits::max(), -Limits::max()};
  constexpr uint64_t NumSpecials = std::size(Specials);
  Image Result(Width, Height, Channels);
  // About one pick in five is an ordinary value, so binary ops also meet
  // specials against ordinary operands.
  for (float &Sample : Result.data()) {
    const uint64_t Pick = Generator.nextBelow(NumSpecials + NumSpecials / 3);
    Sample = Pick < NumSpecials
                 ? Specials[Pick]
                 : static_cast<float>(Generator.uniform(-2.0, 2.0));
  }
  return Result;
}

Image kf::makeGradientImage(int Width, int Height, int Channels) {
  Image Result(Width, Height, Channels);
  float Scale = 1.0f / static_cast<float>(Width + 2 * Height);
  for (int Y = 0; Y != Height; ++Y)
    for (int X = 0; X != Width; ++X)
      for (int Ch = 0; Ch != Channels; ++Ch)
        Result.at(X, Y, Ch) = static_cast<float>(X + 2 * Y) * Scale;
  return Result;
}

Image kf::makeImpulseImage(int Width, int Height, float Peak) {
  Image Result(Width, Height, 1);
  Result.at(Width / 2, Height / 2) = Peak;
  return Result;
}

Image kf::makeCheckerboardImage(int Width, int Height, int Block, float Lo,
                                float Hi) {
  Image Result(Width, Height, 1);
  for (int Y = 0; Y != Height; ++Y)
    for (int X = 0; X != Width; ++X) {
      bool Odd = ((X / Block) + (Y / Block)) % 2 != 0;
      Result.at(X, Y) = Odd ? Hi : Lo;
    }
  return Result;
}

Image kf::makeFigure4Matrix() {
  // Rows exactly as printed in Figure 4a of the paper.
  const float Values[5][5] = {{1, 3, 7, 7, 6},
                              {3, 7, 9, 6, 8},
                              {5, 4, 3, 2, 1},
                              {4, 1, 2, 1, 2},
                              {5, 2, 2, 4, 2}};
  Image Result(5, 5, 1);
  for (int Y = 0; Y != 5; ++Y)
    for (int X = 0; X != 5; ++X)
      Result.at(X, Y) = Values[Y][X];
  return Result;
}
