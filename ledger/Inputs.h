//===- ledger/Inputs.h - Seeded inputs of the ledger workloads --*- C++ -*-===//
///
/// \file
/// Everything a ledger workload feeds the program is drawn here from the
/// run's seed, before any timing starts: the compile_churn pipeline texts
/// (.kfp DAGs and .lz builder scripts) and their request order, and the
/// serve_mixed Poisson arrival schedule. The same seed yields the same
/// inputs byte for byte; ledger/InputsTest.cpp pins that down.
///
//===----------------------------------------------------------------------===//

#ifndef KF_LEDGER_INPUTS_H
#define KF_LEDGER_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

/// A distinct sub-seed for purpose \p Stream of run seed \p Seed, so the
/// generators of one run draw decorrelated streams.
uint64_t subSeed(uint64_t Seed, uint64_t Stream);

/// One compile_churn request shape: pipeline text for one of the two
/// frontends.
struct ShapeText {
  bool Lazy = false;   ///< .lz builder script; otherwise .kfp text.
  unsigned Kernels = 0;
  std::string Text;
};

/// Smallest and largest kernel count of a churn shape.
constexpr unsigned MinChurnKernels = 8;
constexpr unsigned MaxChurnKernels = 64;

/// \p Count distinct shapes over \p Width x \p Height frames, alternating
/// .kfp (makeRandomPipeline -> serializeProgram) and .lz scripts. Kernel
/// counts are stratified over [MinChurnKernels, MaxChurnKernels], so every
/// run of consecutive shapes covers the size range evenly; the seed draws
/// the DAG structure.
std::vector<ShapeText> makeChurnShapes(uint64_t Seed, unsigned Count,
                                       int Width, int Height);

/// The shape index of each request: a share \p RepeatShare of requests
/// repeats one of the \p RepeatWindow most recently requested shapes; the
/// rest walk through all \p NumShapes shapes cyclically.
std::vector<unsigned> makeChurnRequestOrder(uint64_t Seed, unsigned NumShapes,
                                            size_t Length, double RepeatShare,
                                            unsigned RepeatWindow);

/// Zipf popularity weights 1 / (rank + 1)^Exponent of \p N tenants,
/// normalized to sum 1.
std::vector<double> zipfWeights(unsigned N, double Exponent);

/// One open-loop arrival: due time since the start of the phase, and the
/// tenant the frame belongs to.
struct Arrival {
  double DueS = 0.0;
  unsigned Tenant = 0;
};

/// Poisson arrivals at \p RatePerS over [0, \p DurationS); tenant t gets
/// the share \p Weights[t] of them (rounded), in a seeded random order.
std::vector<Arrival> makeArrivals(uint64_t Seed, double RatePerS,
                                  double DurationS,
                                  const std::vector<double> &Weights);

} // namespace ledger

#endif // KF_LEDGER_INPUTS_H
