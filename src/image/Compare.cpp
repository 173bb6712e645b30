//===- image/Compare.cpp ---------------------------------------------------===//

#include "image/Compare.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

using namespace kf;

/// |A - B| of one sample pair, where a NaN against a number differs by
/// +inf and two NaNs do not differ (their payloads are
/// countBitDifferences' business). Equal infinities do not differ either.
static double sampleDifference(float A, float B) {
  const bool NaNA = std::isnan(A), NaNB = std::isnan(B);
  if (NaNA || NaNB)
    return NaNA && NaNB ? 0.0 : std::numeric_limits<double>::infinity();
  if (A == B)
    return 0.0;
  return std::abs(static_cast<double>(A) - B);
}

double kf::maxAbsDifference(const Image &A, const Image &B) {
  assert(A.sameShape(B) && "comparing images of different shapes");
  double Max = 0.0;
  for (size_t I = 0, E = A.data().size(); I != E; ++I)
    Max = std::max(Max, sampleDifference(A.data()[I], B.data()[I]));
  return Max;
}

long long kf::countDifferingSamples(const Image &A, const Image &B,
                                    double Tolerance) {
  assert(A.sameShape(B) && "comparing images of different shapes");
  long long Count = 0;
  for (size_t I = 0, E = A.data().size(); I != E; ++I)
    if (sampleDifference(A.data()[I], B.data()[I]) > Tolerance)
      ++Count;
  return Count;
}

long long kf::countBitDifferences(const Image &A, const Image &B) {
  assert(A.sameShape(B) && "comparing images of different shapes");
  long long Count = 0;
  for (size_t I = 0, E = A.data().size(); I != E; ++I)
    Count += std::memcmp(&A.data()[I], &B.data()[I], sizeof(float)) != 0;
  return Count;
}

bool kf::imagesAlmostEqual(const Image &A, const Image &B, double Tolerance) {
  return maxAbsDifference(A, B) <= Tolerance;
}

double kf::maxAbsDifferenceInHalo(const Image &A, const Image &B, int Halo) {
  assert(A.sameShape(B) && "comparing images of different shapes");
  double Max = 0.0;
  for (int Y = 0; Y != A.height(); ++Y)
    for (int X = 0; X != A.width(); ++X) {
      bool Interior = X >= Halo && X < A.width() - Halo && Y >= Halo &&
                      Y < A.height() - Halo;
      if (Interior)
        continue;
      for (int Ch = 0; Ch != A.channels(); ++Ch)
        Max = std::max(Max, sampleDifference(A.at(X, Y, Ch), B.at(X, Y, Ch)));
    }
  return Max;
}

double kf::maxAbsDifferenceInInterior(const Image &A, const Image &B,
                                      int Halo) {
  assert(A.sameShape(B) && "comparing images of different shapes");
  double Max = 0.0;
  for (int Y = Halo; Y < A.height() - Halo; ++Y)
    for (int X = Halo; X < A.width() - Halo; ++X)
      for (int Ch = 0; Ch != A.channels(); ++Ch)
        Max = std::max(Max, sampleDifference(A.at(X, Y, Ch), B.at(X, Y, Ch)));
  return Max;
}
