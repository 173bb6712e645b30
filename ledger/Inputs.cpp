//===- ledger/Inputs.cpp - Seeded inputs of the ledger workloads ---------===//

#include "Inputs.h"

#include "frontend/Serializer.h"
#include "support/Random.h"
#include "pipelines/Pipelines.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace ledger;

uint64_t ledger::subSeed(uint64_t Seed, uint64_t Stream) {
  // splitmix64 over (seed, stream): nearby seeds give unrelated streams.
  uint64_t X = Seed * 0x9e3779b97f4a7c15ull + Stream * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

namespace {

std::string literal(float V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  return Buf;
}

/// A random lazy builder script of \p Ops recorded operations over two
/// \p Width x \p Height inputs `in0` and `in1`. Only operations whose
/// interval stays finite on [0, 1] inputs are drawn (add, sub, min, max,
/// scaling mul, neg, abs, select, normalized convolutions), so every
/// script passes the analyzer gate; every value no later op reads is
/// requested as an output.
std::string makeRandomLazyScript(unsigned Ops, int Width, int Height,
                                 kf::Rng &Gen) {
  const std::string Size = std::to_string(Width) + " " + std::to_string(Height);
  std::string S = "input in0 " + Size + "\ninput in1 " + Size + "\n";
  // Every mask's absolute weights sum to at most 1, so a convolution never
  // widens its input's interval.
  S += "mask binom 3 3 0.0625 0.125 0.0625 0.125 0.25 0.125 0.0625 0.125 "
       "0.0625\n";
  S += "mask box 3 3 0.111 0.111 0.111 0.111 0.111 0.111 0.111 0.111 "
       "0.111\n";
  S += "mask sobel 3 3 -0.125 0 0.125 -0.25 0 0.25 -0.125 0 0.125\n";
  const char *Masks[] = {"binom", "box", "sobel"};
  const char *Borders[] = {"clamp", "mirror", "repeat"};
  const char *Binary[] = {"add", "sub", "min", "max"};

  std::vector<std::string> Values = {"in0", "in1"};
  std::vector<bool> Read = {false, false};
  for (unsigned I = 0; I != Ops; ++I) {
    std::string Name = "v" + std::to_string(I);
    // The first two ops read in0 and in1, so neither input is pruned.
    size_t A = I < 2 ? I : Gen.nextBelow(Values.size());
    Read[A] = true;
    std::string Line = Name + " = ";
    double Kind = Gen.nextDouble();
    if (Kind < 0.3) {
      Line += std::string("conv ") + Masks[Gen.nextBelow(3)] + " " +
              Values[A] + " " + Borders[Gen.nextBelow(3)];
    } else if (Kind < 0.7) {
      size_t B = Gen.nextBelow(Values.size());
      Read[B] = true;
      Line += std::string(Binary[Gen.nextBelow(4)]) + " " + Values[A] + " " +
              Values[B];
    } else if (Kind < 0.82) {
      Line += "mul " + Values[A] + " " +
              literal(static_cast<float>(Gen.uniform(0.25, 0.95)));
    } else if (Kind < 0.9) {
      Line += std::string(Gen.nextDouble() < 0.5 ? "neg " : "abs ") +
              Values[A];
    } else {
      // A compare feeding a select: two recorded ops.
      size_t B = Gen.nextBelow(Values.size());
      Read[B] = true;
      std::string Cond = Name + "c";
      S += Cond + " = " + (Gen.nextDouble() < 0.5 ? "cmplt " : "cmpgt ") +
           Values[A] + " " + literal(static_cast<float>(Gen.nextDouble())) +
           "\n";
      Line += "select " + Cond + " " + Values[A] + " " + Values[B];
    }
    S += Line + "\n";
    Values.push_back(Name);
    Read.push_back(false);
  }
  std::string Outputs;
  for (size_t V = 2; V != Values.size(); ++V)
    if (!Read[V])
      Outputs += " " + Values[V];
  S += "output" + Outputs + "\n";
  return S;
}

} // namespace

std::vector<ShapeText> ledger::makeChurnShapes(uint64_t Seed, unsigned Count,
                                               int Width, int Height) {
  constexpr unsigned Sizes = MaxChurnKernels - MinChurnKernels + 1;
  kf::Rng Gen(subSeed(Seed, 1));
  std::vector<ShapeText> Shapes;
  Shapes.reserve(Count);
  for (unsigned I = 0; I != Count; ++I) {
    ShapeText S;
    S.Lazy = I % 2 == 1;
    // Stride 37 is coprime to the 57 sizes: consecutive pairs of shapes
    // step through every size before any repeats.
    S.Kernels = MinChurnKernels + (I / 2) * 37 % Sizes;
    if (S.Lazy) {
      S.Text = makeRandomLazyScript(S.Kernels, Width, Height, Gen);
    } else {
      kf::Program P =
          kf::makeRandomPipeline(S.Kernels, 0.4, Width, Height, Gen);
      S.Text = kf::serializeProgram(P);
    }
    Shapes.push_back(std::move(S));
  }
  return Shapes;
}

std::vector<unsigned>
ledger::makeChurnRequestOrder(uint64_t Seed, unsigned NumShapes, size_t Length,
                              double RepeatShare, unsigned RepeatWindow) {
  kf::Rng Gen(subSeed(Seed, 2));
  std::vector<unsigned> Order;
  Order.reserve(Length);
  std::vector<unsigned> Recent; // Most recent last, at most RepeatWindow.
  unsigned Next = 0;
  for (size_t I = 0; I != Length; ++I) {
    unsigned Shape;
    if (!Recent.empty() && Gen.nextDouble() < RepeatShare) {
      Shape = Recent[Gen.nextBelow(Recent.size())];
    } else {
      Shape = Next;
      Next = (Next + 1) % NumShapes;
      Recent.push_back(Shape);
      if (Recent.size() > RepeatWindow)
        Recent.erase(Recent.begin());
    }
    Order.push_back(Shape);
  }
  return Order;
}

std::vector<double> ledger::zipfWeights(unsigned N, double Exponent) {
  std::vector<double> W(N);
  double Sum = 0.0;
  for (unsigned R = 0; R != N; ++R) {
    W[R] = 1.0 / std::pow(R + 1.0, Exponent);
    Sum += W[R];
  }
  for (double &V : W)
    V /= Sum;
  return W;
}

std::vector<Arrival> ledger::makeArrivals(uint64_t Seed, double RatePerS,
                                          double DurationS,
                                          const std::vector<double> &Weights) {
  kf::Rng Gen(subSeed(Seed, 3));
  std::vector<Arrival> Out;
  double T = 0.0;
  while (true) {
    // Exponential inter-arrival gap; 1 - u lies in (0, 1].
    T += -std::log(1.0 - Gen.nextDouble()) / RatePerS;
    if (T >= DurationS)
      break;
    Out.push_back(Arrival{T, 0});
  }
  // Each tenant gets its share of the arrivals, rounded by largest
  // remainder, in a seeded random order: the mix is the same on every
  // seed, so a percentile never moves because one draw held fewer frames
  // of the slowest tenant.
  const size_t N = Out.size();
  std::vector<unsigned> Labels;
  std::vector<std::pair<double, unsigned>> Remainders;
  for (unsigned Tenant = 0; Tenant != Weights.size(); ++Tenant) {
    const double Exact = Weights[Tenant] * N;
    Labels.insert(Labels.end(), static_cast<size_t>(Exact), Tenant);
    Remainders.emplace_back(Exact - std::floor(Exact), Tenant);
  }
  std::sort(Remainders.begin(), Remainders.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });
  for (size_t I = 0; Labels.size() < N; ++I)
    Labels.push_back(Remainders[I % Remainders.size()].second);
  for (size_t I = N; I > 1; --I)
    std::swap(Labels[I - 1], Labels[Gen.nextBelow(I)]);
  for (size_t I = 0; I != N; ++I)
    Out[I].Tenant = Labels[I];
  return Out;
}
