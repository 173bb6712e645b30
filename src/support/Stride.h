//===- support/Stride.h - Deterministic stride scheduling -------*- C++ -*-===//
///
/// \file
/// Stride scheduling (proportional-share, Waldspurger & Weihl): each work
/// source owns a virtual-time "pass"; every unit of service advances the
/// pass by StrideOne / weight, and the next unit of service always goes to
/// the runnable source with the minimum pass (ties break to the lowest
/// source id). Over any window the service received by competing sources
/// converges to the ratio of their weights, and the pick sequence is a
/// pure function of the charge history — fully deterministic, which is
/// what the fairness tests pin down.
///
/// The same scheduler arbitrates at two granularities: the ThreadPool uses
/// it to interleave tile batches from concurrently in-flight launches, and
/// the pipeline server's FrameScheduler uses it to pick which session's
/// queued frame dispatches next.
///
//===----------------------------------------------------------------------===//

#ifndef KF_SUPPORT_STRIDE_H
#define KF_SUPPORT_STRIDE_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace kf {

/// A deterministic proportional-share arbiter over a dense id space of
/// work sources. Not thread-safe: callers serialize access (the ThreadPool
/// charges it under its job mutex).
class StrideScheduler {
public:
  /// Pass advance for one unit of service at weight 1. Large enough that
  /// integer division by any sane weight keeps precision.
  static constexpr uint64_t StrideOne = 1ull << 20;

  /// Adds a source with the given scheduling weight (clamped to
  /// [1, StrideOne]) and returns its dense id.
  unsigned addSource(uint64_t Weight = 1) {
    Entries.push_back({normalize(Weight), 0});
    return static_cast<unsigned>(Entries.size() - 1);
  }

  unsigned numSources() const { return static_cast<unsigned>(Entries.size()); }

  /// Re-weights an existing source. Takes effect on the next charge. A
  /// source that grew its weight while competing kept accumulating pass at
  /// the old (faster) rate, so its absolute pass may sit far behind or
  /// ahead of its peers; callers that know the runnable set should use the
  /// three-argument overload so the re-weighted source re-enters at parity
  /// instead of bursting or stalling.
  void setWeight(unsigned Source, uint64_t Weight) {
    if (Source < Entries.size())
      Entries[Source].Weight = normalize(Weight);
  }

  /// Re-weights \p Source and clamps its pass up to the minimum among the
  /// other sources in \p Runnable (same rule as \c activate). Without the
  /// clamp, a source downgraded from a heavy weight keeps the tiny pass it
  /// accumulated while heavy and monopolizes the arbiter until it catches
  /// up at the new, slow rate.
  void setWeight(unsigned Source, uint64_t Weight,
                 const std::vector<unsigned> &Runnable) {
    setWeight(Source, Weight);
    activate(Source, Runnable);
  }

  uint64_t weight(unsigned Source) const {
    return Source < Entries.size() ? Entries[Source].Weight : 1;
  }

  uint64_t pass(unsigned Source) const {
    return Source < Entries.size() ? Entries[Source].Pass : 0;
  }

  /// Picks the candidate with the minimum pass; ties break to the lowest
  /// id. Returns -1 if \p Candidates is empty. Does not charge.
  int pick(const std::vector<unsigned> &Candidates) const {
    int Best = -1;
    uint64_t BestPass = 0;
    for (unsigned C : Candidates) {
      uint64_t P = pass(C);
      if (Best < 0 || P < BestPass ||
          (P == BestPass && C < static_cast<unsigned>(Best))) {
        Best = static_cast<int>(C);
        BestPass = P;
      }
    }
    return Best;
  }

  /// Charges one unit of service to \p Source: its pass advances by
  /// StrideOne / weight, so heavier sources advance slower and win the
  /// min-pass race proportionally more often.
  void charge(unsigned Source) {
    if (Source < Entries.size()) {
      VirtualTime = std::max(VirtualTime, Entries[Source].Pass);
      Entries[Source].Pass += StrideOne / Entries[Source].Weight;
    }
  }

  /// The scheduler's clock: the highest pass a source held when it was
  /// served. Never decreases.
  uint64_t virtualTime() const { return VirtualTime; }

  /// Called when \p Source transitions idle -> runnable while the sources
  /// in \p Runnable are already competing: clamps its pass up to the
  /// current minimum so a long-idle source re-enters at parity instead of
  /// monopolizing the arbiter with a catch-up burst. With no competitor
  /// runnable, the clamp is to virtualTime() instead: a source that sat
  /// idle while others were served, and returns in a lull, must not keep
  /// its old pass either, or the next time the sources compete it replays
  /// its idle time as a burst and the busy sources stall behind it.
  void activate(unsigned Source, const std::vector<unsigned> &Runnable) {
    if (Source >= Entries.size())
      return;
    bool Any = false;
    uint64_t Min = 0;
    for (unsigned R : Runnable) {
      if (R == Source || R >= Entries.size())
        continue;
      if (!Any || Entries[R].Pass < Min) {
        Min = Entries[R].Pass;
        Any = true;
      }
    }
    if (!Any)
      Min = VirtualTime;
    if (Entries[Source].Pass < Min)
      Entries[Source].Pass = Min;
  }

private:
  struct Entry {
    uint64_t Weight = 1;
    uint64_t Pass = 0;
  };

  /// Clamps a requested weight to [1, StrideOne]. Zero would divide by
  /// zero in charge(); anything above StrideOne would make
  /// StrideOne / Weight truncate to 0, freezing the pass so the source
  /// wins every pick forever.
  static uint64_t normalize(uint64_t Weight) {
    return std::min(std::max<uint64_t>(Weight, 1), StrideOne);
  }

  std::vector<Entry> Entries;
  uint64_t VirtualTime = 0;
};

} // namespace kf

#endif // KF_SUPPORT_STRIDE_H
