//===- tests/EngineConfigs.h - The engine configuration matrix -*- C++ -*-===//
//
// Every engine configuration a caller can select through ExecutionOptions:
// {Scalar, Span, Jit} x {InteriorHalo, Overlapped} x {On, Off}. All twelve
// must produce bit-identical pixels, so differential suites run each of
// them against one reference.
//
//===----------------------------------------------------------------------===//

#ifndef KF_TESTS_ENGINECONFIGS_H
#define KF_TESTS_ENGINECONFIGS_H

#include "sim/Executor.h"

#include <string>
#include <utility>

namespace kf {

/// Calls \p Fn(Options, Name) once per engine configuration: \p Base with
/// its VM mode, tiling strategy and optimizer mode replaced, and a label
/// such as "mode=span tiling=overlapped opt=off" for failure messages.
template <typename FnT>
void forEachEngineConfig(const ExecutionOptions &Base, FnT &&Fn) {
  for (VmMode Mode : {VmMode::Scalar, VmMode::Span, VmMode::Jit})
    for (TilingStrategy Tiling :
         {TilingStrategy::InteriorHalo, TilingStrategy::Overlapped})
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

} // namespace kf

#endif // KF_TESTS_ENGINECONFIGS_H
