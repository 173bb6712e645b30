//===- tests/EngineConfigs.h - The engine configuration matrix -*- C++ -*-===//
//
// Every distinct engine a caller can select through ExecutionOptions, each
// with the optimizer on and off: scalar (the per-pixel reference, which
// ignores tiling), span x {InteriorHalo, Overlapped} and jit x
// InteriorHalo (a jit request tiled overlapped runs span). All eight must
// produce bit-identical pixels, so differential suites run each of them
// against one reference, with the one pool comparison and the one
// thread-count sweep below.
//
//===----------------------------------------------------------------------===//

#ifndef KF_TESTS_ENGINECONFIGS_H
#define KF_TESTS_ENGINECONFIGS_H

#include "image/Compare.h"
#include "ir/Program.h"
#include "sim/Executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace kf {

/// Calls \p Fn(Options, Name) once per engine configuration: \p Base with
/// its VM mode, tiling strategy and optimizer mode replaced, and a label
/// such as "mode=span tiling=overlapped opt=off" for failure messages.
template <typename FnT>
void forEachEngineConfig(const ExecutionOptions &Base, FnT &&Fn) {
  const std::pair<VmMode, TilingStrategy> Engines[] = {
      {VmMode::Scalar, TilingStrategy::InteriorHalo},
      {VmMode::Span, TilingStrategy::InteriorHalo},
      {VmMode::Span, TilingStrategy::Overlapped},
      {VmMode::Jit, TilingStrategy::InteriorHalo}};
  for (const auto &[Mode, Tiling] : Engines)
    for (OptMode Opt : {OptMode::On, OptMode::Off}) {
      ExecutionOptions Options = Base;
      Options.Mode = Mode;
      Options.Tiling = Tiling;
      Options.Opt = Opt;
      Fn(Options, std::string("mode=") + vmModeName(Mode) +
             " tiling=" + tilingStrategyName(Tiling) +
             " opt=" + optModeName(Opt));
    }
}

template <typename FnT> void forEachEngineConfig(FnT &&Fn) {
  forEachEngineConfig(ExecutionOptions(), std::forward<FnT>(Fn));
}

/// Both pools hold the same images of \p P, and each matches bit for bit:
/// signed zeros and NaN payloads count, which maxAbsDifference cannot see.
inline void expectPoolsIdentical(const Program &P,
                                 const std::vector<Image> &Got,
                                 const std::vector<Image> &Want,
                                 const std::string &Tag) {
  for (ImageId Id = 0; Id != P.numImages(); ++Id) {
    EXPECT_EQ(Got[Id].empty(), Want[Id].empty())
        << Tag << " image " << P.image(Id).Name;
    if (Got[Id].empty() || Want[Id].empty())
      continue;
    EXPECT_EQ(countBitDifferences(Got[Id], Want[Id]), 0)
        << Tag << " image " << P.image(Id).Name;
  }
}

/// Worker-thread counts the differential suites sweep: serial, an uneven
/// count, and the hardware concurrency when distinct.
inline std::vector<int> threadSweep() {
  int Hardware =
      static_cast<int>(std::max(std::thread::hardware_concurrency(), 1u));
  std::vector<int> Counts{1, 3};
  if (Hardware != 1 && Hardware != 3)
    Counts.push_back(Hardware);
  return Counts;
}

} // namespace kf

#endif // KF_TESTS_ENGINECONFIGS_H
