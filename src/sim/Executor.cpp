//===- sim/Executor.cpp -----------------------------------------------------===//

#include "sim/Executor.h"

#include "jit/JitProgram.h"

#include "image/Border.h"
#include "support/Error.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>

using namespace kf;

namespace {

/// Resolves reads of a kernel's inputs at absolute coordinates.
class InputSource {
public:
  virtual ~InputSource() = default;
  virtual float read(int InputIdx, int X, int Y, int Channel) = 0;
};

/// Stencil-iteration bindings while evaluating a Stencil element.
struct StencilEnv {
  int Dx = 0;
  int Dy = 0;
  float MaskVal = 0.0f;
};

/// Evaluates kernel body expressions.
class ExprEvaluator {
public:
  ExprEvaluator(const Program &P, InputSource &Source)
      : P(P), Source(Source) {}

  float eval(const Expr *E, int X, int Y, int Channel,
             const StencilEnv *Env) {
    switch (E->Kind) {
    case ExprKind::FloatConst:
      return E->Value;
    case ExprKind::CoordX:
      return static_cast<float>(X);
    case ExprKind::CoordY:
      return static_cast<float>(Y);
    case ExprKind::InputAt:
      return Source.read(E->InputIdx, X + E->OffsetX, Y + E->OffsetY,
                         E->Channel < 0 ? Channel : E->Channel);
    case ExprKind::StencilInput:
      assert(Env && "window access outside a stencil");
      return Source.read(E->InputIdx, X + Env->Dx, Y + Env->Dy,
                         E->Channel < 0 ? Channel : E->Channel);
    case ExprKind::MaskValue:
      assert(Env && "mask value outside a stencil");
      return Env->MaskVal;
    case ExprKind::StencilOffX:
      assert(Env && "stencil offset outside a stencil");
      return static_cast<float>(Env->Dx);
    case ExprKind::StencilOffY:
      assert(Env && "stencil offset outside a stencil");
      return static_cast<float>(Env->Dy);
    case ExprKind::Binary: {
      float L = eval(E->Lhs, X, Y, Channel, Env);
      float R = eval(E->Rhs, X, Y, Channel, Env);
      switch (E->BinaryOp) {
      case BinOp::Add:
        return L + R;
      case BinOp::Sub:
        return L - R;
      case BinOp::Mul:
        return L * R;
      case BinOp::Div:
        return L / R;
      case BinOp::Min:
        return std::min(L, R);
      case BinOp::Max:
        return std::max(L, R);
      case BinOp::Pow:
        return std::pow(L, R);
      case BinOp::CmpLT:
        return L < R ? 1.0f : 0.0f;
      case BinOp::CmpGT:
        return L > R ? 1.0f : 0.0f;
      }
      KF_UNREACHABLE("unknown binary op");
    }
    case ExprKind::Unary: {
      float V = eval(E->Lhs, X, Y, Channel, Env);
      switch (E->UnaryOp) {
      case UnOp::Neg:
        return -V;
      case UnOp::Abs:
        return std::abs(V);
      case UnOp::Sqrt:
        return std::sqrt(V);
      case UnOp::Exp:
        return std::exp(V);
      case UnOp::Log:
        return std::log(V);
      case UnOp::Floor:
        return std::floor(V);
      }
      KF_UNREACHABLE("unknown unary op");
    }
    case ExprKind::Select:
      return eval(E->Cond, X, Y, Channel, Env) != 0.0f
                 ? eval(E->Lhs, X, Y, Channel, Env)
                 : eval(E->Rhs, X, Y, Channel, Env);
    case ExprKind::Stencil: {
      const Mask &M = P.mask(E->MaskIdx);
      bool First = true;
      float Acc = 0.0f;
      for (int Dy = -M.haloY(); Dy <= M.haloY(); ++Dy)
        for (int Dx = -M.haloX(); Dx <= M.haloX(); ++Dx) {
          StencilEnv Elem{Dx, Dy, M.at(Dx, Dy)};
          float V = eval(E->Lhs, X, Y, Channel, &Elem);
          if (First) {
            Acc = V;
            First = false;
            continue;
          }
          switch (E->Reduce) {
          case ReduceOp::Sum:
            Acc += V;
            break;
          case ReduceOp::Product:
            Acc *= V;
            break;
          case ReduceOp::Min:
            Acc = std::min(Acc, V);
            break;
          case ReduceOp::Max:
            Acc = std::max(Acc, V);
            break;
          }
        }
      return Acc;
    }
    }
    KF_UNREACHABLE("unknown expression kind");
  }

private:
  const Program &P;
  InputSource &Source;
};

/// Reads kernel inputs straight from the image pool with the kernel's
/// border handling: the unfused semantics.
class PoolSource : public InputSource {
public:
  PoolSource(const Kernel &K, const std::vector<Image> &Pool)
      : K(K), Pool(Pool) {}

  float read(int InputIdx, int X, int Y, int Channel) override {
    const Image &Img = Pool[K.Inputs[InputIdx]];
    assert(!Img.empty() && "reading an unmaterialized image");
    return sampleWithBorder(Img, X, Y, Channel, K.Border, K.BorderConstant);
  }

private:
  const Kernel &K;
  const std::vector<Image> &Pool;
};

/// Fused-kernel evaluation: reads of eliminated intermediates recursively
/// re-evaluate the producer stage, applying the index exchange of Section
/// IV-B to exterior coordinates.
class FusedEvaluator {
public:
  FusedEvaluator(const FusedProgram &FP, const FusedKernel &FK,
                 const std::vector<Image> &Pool,
                 const ExecutionOptions &Options)
      : P(*FP.Source), Pool(Pool), Options(Options) {
    // Image -> eliminated producer stage, resolved once per fused
    // kernel. (Destination outputs are materialized, not eliminated.)
    EliminatedProducer.assign(P.numImages(), nullptr);
    for (const FusedStage &Stage : FK.Stages)
      if (!FK.isDestination(Stage.Kernel))
        EliminatedProducer[P.kernel(Stage.Kernel).Output] = &Stage;
  }

  /// Value of stage kernel \p Id at (X, Y, Channel). Coordinates must be
  /// inside the image for the destination; intermediate requests handle
  /// the exterior via index exchange at the call site (stageRead).
  float evalStage(KernelId Id, int X, int Y, int Channel) const {
    const Kernel &K = P.kernel(Id);
    StageSource Source(*this, K);
    ExprEvaluator Eval(P, Source);
    return Eval.eval(K.Body, X, Y, Channel, nullptr);
  }

private:
  /// Resolves reads performed by stage \p Requesting.
  class StageSource : public InputSource {
  public:
    StageSource(const FusedEvaluator &Parent, const Kernel &Requesting)
        : Parent(Parent), Requesting(Requesting) {}

    float read(int InputIdx, int X, int Y, int Channel) override {
      return Parent.stageRead(Requesting, Requesting.Inputs[InputIdx], X, Y,
                              Channel);
    }

  private:
    const FusedEvaluator &Parent;
    const Kernel &Requesting;
  };

  float stageRead(const Kernel &Requesting, ImageId Img, int X, int Y,
                  int Channel) const {
    const FusedStage *Producer = EliminatedProducer[Img];
    if (!Producer) {
      // Materialized image (pipeline input or another fused kernel's
      // output): plain bordered read.
      const Image &Buffer = Pool[Img];
      assert(!Buffer.empty() && "reading an unmaterialized image");
      return sampleWithBorder(Buffer, X, Y, Channel, Requesting.Border,
                              Requesting.BorderConstant);
    }

    const ImageInfo &Info = P.image(Img);
    bool Exterior = X < 0 || X >= Info.Width || Y < 0 || Y >= Info.Height;
    if (Exterior && Options.UseIndexExchange) {
      // Index exchange (Section IV-B): exterior accesses to the
      // eliminated intermediate are exchanged according to the border
      // handling specified in the *consuming* kernel, then the producer
      // is evaluated at the exchanged position.
      int EX = exchangeIndex(X, Info.Width, Requesting.Border);
      int EY = exchangeIndex(Y, Info.Height, Requesting.Border);
      if (EX < 0 || EY < 0)
        return Requesting.BorderConstant;
      X = EX;
      Y = EY;
    }
    // Without the exchange the producer is (incorrectly) evaluated at the
    // raw exterior position -- reproducing Figure 4b.
    return evalStage(Producer->Kernel, X, Y, Channel);
  }

  const Program &P;
  const std::vector<Image> &Pool;
  ExecutionOptions Options;
  std::vector<const FusedStage *> EliminatedProducer;
};

//===--------------------------------------------------------------------===//
// Tiled parallel driver
//===--------------------------------------------------------------------===//

/// Row-band heuristic: enough tiles to load-balance interior vs halo
/// work without drowning in scheduling overhead.
int defaultTileHeight(int Height, unsigned Threads) {
  int Bands = static_cast<int>(Threads) * 4;
  return std::clamp(Height / std::max(Bands, 1), 1, 64);
}

} // namespace

bool kf::parseTileSpec(const char *Text, int &TileW, int &TileH) {
  if (!Text || !*Text)
    return false;
  // strtol skips leading whitespace and accepts a sign; the documented
  // grammar is strictly digits 'x' digits, so both components must start
  // with a digit.
  if (!std::isdigit(static_cast<unsigned char>(Text[0])))
    return false;
  char *End = nullptr;
  errno = 0;
  long W = std::strtol(Text, &End, 10);
  if (End == Text || *End != 'x' || errno == ERANGE)
    return false;
  const char *HText = End + 1;
  if (!std::isdigit(static_cast<unsigned char>(HText[0])))
    return false;
  errno = 0;
  long H = std::strtol(HText, &End, 10);
  if (End == HText || *End != '\0' || errno == ERANGE)
    return false;
  if (W < 1 || W > 65536 || H < 1 || H > 65536)
    return false;
  TileW = static_cast<int>(W);
  TileH = static_cast<int>(H);
  return true;
}

void kf::resolveTileSize(const ExecutionOptions &Options,
                         TilingStrategy Strategy, int ImageW, int ImageH,
                         unsigned Threads, int &TileW, int &TileH) {
  int W = Options.TileWidth, H = Options.TileHeight;
  if (Strategy == TilingStrategy::Overlapped) {
    // A block whose grown planes stay L2-resident for typical reaches.
    if (W <= 0)
      W = 128;
    if (H <= 0)
      H = 32;
  } else {
    if (W <= 0)
      W = ImageW;
    if (H <= 0)
      H = defaultTileHeight(ImageH, Threads);
  }
  TileW = std::max(1, std::min(W, std::max(ImageW, 1)));
  TileH = std::max(1, std::min(H, std::max(ImageH, 1)));
}

namespace {

using Clock = std::chrono::steady_clock;

/// A clock read in the timed instantiation of a tile loop; the untimed
/// instantiation returns the epoch and reads no clock.
template <bool Timed> Clock::time_point tick() {
  if constexpr (Timed)
    return Clock::now();
  else
    return {};
}

double elapsedUs(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// Adds a timed tile loop's wall time since \p Start and its per-worker
/// interior/halo CPU times (disjoint slots, summed after the join) to
/// \p Timing.
void addTileTimes(LaunchTiming &Timing, Clock::time_point Start,
                  const std::vector<double> &InteriorUs,
                  const std::vector<double> &HaloUs) {
  Timing.TotalMs += elapsedUs(Start, Clock::now()) / 1e3;
  for (size_t I = 0; I != InteriorUs.size(); ++I) {
    Timing.InteriorMs += InteriorUs[I] / 1e3;
    Timing.HaloMs += HaloUs[I] / 1e3;
  }
}

/// The bordered slow path of one compiled launch: its border ring, run
/// through runStagedVmRing in per-worker chunks of up to VmLaneWidth
/// pixels collected in the VmScratch ring buffers.
struct BorderRing {
  const StagedVmProgram &SP;
  uint16_t Root;
  const std::vector<Image> &Pool;
  VmScratch &Scratch;
  bool UseIndexExchange;

  /// Evaluates the pixels of tile \p T outside its interior rectangle
  /// [IA, IB) x [JA, JB) (already clamped to the tile): the bands above
  /// and below it, and the side strips of the rows between. A tile's ring
  /// pixels go out in full chunks, the last one partial.
  void runTile(Image &Out, const TileRange &T, int IA, int IB, int JA,
               int JB, unsigned Worker) const {
    VmScratch::RingChunk &Chunk = Scratch.Ring[Worker];
    float *LaneRegs = Scratch.LaneRegs[Worker].data();
    int Count = 0;
    auto Flush = [&] {
      runStagedVmRing(SP, Root, Pool, Chunk.X, Chunk.Y, Count,
                      Out.channels(), LaneRegs, Out.data().data(),
                      Out.width(), UseIndexExchange);
      Count = 0;
    };
    auto Span = [&](int Y, int XA, int XB) {
      for (int X = XA; X < XB; ++X) {
        Chunk.X[Count] = X;
        Chunk.Y[Count] = Y;
        if (++Count == VmLaneWidth)
          Flush();
      }
    };
    for (int Y = T.Y0; Y < JA; ++Y)
      Span(Y, T.X0, T.X1);
    for (int Y = JA; Y < JB; ++Y) {
      Span(Y, T.X0, IA);
      Span(Y, IB, T.X1);
    }
    for (int Y = JB; Y < T.Y1; ++Y)
      Span(Y, T.X0, T.X1);
    if (Count)
      Flush();
  }
};

/// Runs the interior/halo-decomposed tile loop over one output image.
/// Each tile's part of the interior rectangle (the pixels at least
/// \p Halo from every border; with a ring, a narrow part only down to
/// laneRowsEnd) goes row by row through \p Row, the row-wise fast path,
/// one call per channel from a hoisted row base; the rest of the tile goes
/// through \p Ring. \p Ring may be null only when \p Halo is 0 and
/// \p Row evaluates per pixel (the AST engines). The \p Timed
/// instantiation brackets each tile's interior and ring with clock reads
/// and adds them to \p Timing.
template <bool Timed, class RowFn>
void runTiledImage(ThreadPool &TP, const ExecutionOptions &Options,
                   Image &Out, int Halo, RowFn &&Row, const BorderRing *Ring,
                   LaunchTiming *Timing = nullptr) {
  assert((Ring || Halo == 0) && "a border ring needs a ring evaluator");
  const int W = Out.width(), H = Out.height(), C = Out.channels();
  const int X0 = std::min(Halo, W), Y0 = std::min(Halo, H);
  const int X1 = std::max(X0, W - Halo), Y1 = std::max(Y0, H - Halo);
  float *OutBase = Out.data().data();

  int TileW, TileH;
  resolveTileSize(Options, TilingStrategy::InteriorHalo, W, H,
                  TP.numThreads(), TileW, TileH);

  std::vector<double> InteriorUs, HaloUs;
  if constexpr (Timed) {
    InteriorUs.assign(TP.numThreads(), 0.0);
    HaloUs.assign(TP.numThreads(), 0.0);
  }
  const Clock::time_point Start = tick<Timed>();
  TP.parallelFor2D(W, H, TileW, TileH, [&](const TileRange &T,
                                           unsigned Worker) {
    const int IA = std::clamp(X0, T.X0, T.X1);
    const int IB = std::clamp(X1, T.X0, T.X1);
    const int JA = std::clamp(Y0, T.Y0, T.Y1);
    int JB = std::clamp(Y1, T.Y0, T.Y1);
    if (Ring)
      JB = laneRowsEnd(W, H, Halo, IA, IB, JA, JB);
    const Clock::time_point T0 = tick<Timed>();
    for (int Y = JA; Y < JB && IA < IB; ++Y) {
      float *RowPx = OutBase + (static_cast<size_t>(Y) * W + IA) * C;
      for (int Ch = 0; Ch != C; ++Ch)
        Row(Y, IA, IB, Ch, RowPx + Ch, C, Worker);
    }
    const Clock::time_point T1 = tick<Timed>();
    if (Ring)
      Ring->runTile(Out, T, IA, IB, JA, JB, Worker);
    if constexpr (Timed) {
      InteriorUs[Worker] += elapsedUs(T0, T1);
      HaloUs[Worker] += elapsedUs(T1, tick<Timed>());
    }
  }, Options.Source);
  if constexpr (Timed)
    addTileTimes(*Timing, Start, InteriorUs, HaloUs);
}

/// Runs one fused launch under the overlapped tiling strategy. The tile
/// loop covers the whole image; each tile's part of the border ring goes
/// through \p Ring exactly as under the interior/halo strategy, while the
/// tile's interior sub-rectangle (down to laneRowsEnd) goes through
/// runOverlappedTile: demanded
/// producer stages materialize into the worker's margin-grown scratch
/// planes and the root reads the planes instead of recursing. Tiles never
/// exchange data -- the margins are recomputed redundantly by every
/// adjacent tile. The \p Timed instantiation brackets each tile's ring
/// and interior with clock reads and adds them, with the overlap
/// statistics, to \p Timing.
template <bool Timed>
void runOverlappedImage(ThreadPool &TP, const ExecutionOptions &Options,
                        Image &Out, int Halo, const OverlapSchedule &Schedule,
                        const BorderRing &Ring, LaunchTiming *Timing) {
  const int W = Out.width(), H = Out.height(), C = Out.channels();
  const int X0 = std::min(Halo, W), Y0 = std::min(Halo, H);
  const int X1 = std::max(X0, W - Halo), Y1 = std::max(Y0, H - Halo);
  float *OutBase = Out.data().data();
  VmScratch &Scratch = Ring.Scratch;

  int TileW, TileH;
  resolveTileSize(Options, TilingStrategy::Overlapped, W, H,
                  TP.numThreads(), TileW, TileH);
  Scratch.ensure(TP.numThreads(),
                 static_cast<size_t>(Ring.SP.NumRegs) * VmLaneWidth,
                 overlapPlaneFloats(Schedule, TileW, TileH) + VmLaneWidth);

  std::vector<double> InteriorUs, HaloUs;
  std::vector<OverlapTileStats> WorkerStats;
  if constexpr (Timed) {
    InteriorUs.assign(TP.numThreads(), 0.0);
    HaloUs.assign(TP.numThreads(), 0.0);
    WorkerStats.resize(TP.numThreads());
  }
  const Clock::time_point Start = tick<Timed>();
  TP.parallelFor2D(W, H, TileW, TileH, [&](const TileRange &T,
                                           unsigned Worker) {
    const int IA = std::clamp(X0, T.X0, T.X1);
    const int IB = std::clamp(X1, T.X0, T.X1);
    const int JA = std::clamp(Y0, T.Y0, T.Y1);
    const int JB = laneRowsEnd(W, H, Halo, IA, IB, JA,
                               std::clamp(Y1, T.Y0, T.Y1));
    const Clock::time_point T0 = tick<Timed>();
    Ring.runTile(Out, T, IA, IB, JA, JB, Worker);
    const Clock::time_point T1 = tick<Timed>();
    if (IA < IB && JA < JB)
      runOverlappedTile(Ring.SP, Ring.Root, Schedule, Ring.Pool, IA, IB, JA,
                        JB, C, Scratch.PlaneRegs[Worker].data(),
                        Scratch.LaneRegs[Worker].data(), OutBase, W,
                        Timed ? &WorkerStats[Worker] : nullptr);
    if constexpr (Timed) {
      const Clock::time_point T2 = tick<Timed>();
      HaloUs[Worker] += elapsedUs(T0, T1);
      InteriorUs[Worker] += elapsedUs(T1, T2);
    }
  }, Options.Source);
  if constexpr (Timed) {
    addTileTimes(*Timing, Start, InteriorUs, HaloUs);
    for (const OverlapTileStats &Stats : WorkerStats) {
      Timing->OverlapPixels += Stats.OverlapPixels;
      Timing->ComputedPixels += Stats.ComputedPixels;
    }
  }
}

/// A row callback of runTiledImage that evaluates \p Pixel(X, Y, Ch,
/// Worker) per pixel: how the engines whose every read is bordered (the
/// AST walkers and the scalar VM) run the tile loop with no border ring.
template <class EvalFn> auto perPixelRow(EvalFn Pixel) {
  return [Pixel](int Y, int XA, int XB, int Ch, float *Px, int Stride,
                 unsigned Worker) {
    for (int X = XA; X < XB; ++X, Px += Stride)
      *Px = Pixel(X, Y, Ch, Worker);
  };
}

void checkExternalInputs(const Program &P, const std::vector<Image> &Pool) {
  for (ImageId Id : P.externalInputs()) {
    const Image &Img = Pool[Id];
    const ImageInfo &Info = P.image(Id);
    if (Img.empty() || Img.width() != Info.Width ||
        Img.height() != Info.Height || Img.channels() != Info.Channels)
      reportFatalError("external input '" + Info.Name +
                       "' missing or mis-shaped in the image pool");
  }
}

} // namespace

std::vector<Image> kf::makeImagePool(const Program &P) {
  return std::vector<Image>(P.numImages());
}

void kf::runUnfused(const Program &P, std::vector<Image> &Pool,
                    const ExecutionOptions &Options) {
  assert(Pool.size() == P.numImages() && "pool size mismatch");
  checkExternalInputs(P, Pool);

  std::optional<std::vector<Digraph::NodeId>> Order =
      P.buildKernelDag().topologicalOrder();
  assert(Order && "kernel DAG has a cycle");
  ThreadPool TP(resolveThreadCount(Options.Threads));
  for (KernelId Id : *Order) {
    const Kernel &K = P.kernel(Id);
    const ImageInfo &Info = P.image(K.Output);
    std::string Label = "launch " + K.Name;
    TraceSpan Span(Label.c_str(), "sim");
    Image Out(Info.Width, Info.Height, Info.Channels);
    PoolSource Source(K, Pool);
    ExprEvaluator Eval(P, Source);
    // The AST engine has no interior specialization (border handling is
    // resolved per read): every pixel is "interior", evaluated per pixel.
    runTiledImage<false>(TP, Options, Out, /*Halo=*/0,
                         perPixelRow([&](int X, int Y, int Ch, unsigned) {
                           return Eval.eval(K.Body, X, Y, Ch, nullptr);
                         }),
                         /*Ring=*/nullptr);
    Pool[K.Output] = std::move(Out);
  }
}

void kf::runFused(const FusedProgram &FP, std::vector<Image> &Pool,
                  const ExecutionOptions &Options) {
  const Program &P = *FP.Source;
  assert(Pool.size() == P.numImages() && "pool size mismatch");
  checkExternalInputs(P, Pool);
  ThreadPool TP(resolveThreadCount(Options.Threads));

  for (const FusedKernel &FK : FP.Kernels) {
    FusedEvaluator Evaluator(FP, FK, Pool, Options);
    // One global output per destination (a single one under the paper's
    // rules; several under the multi-destination extension).
    for (KernelId DestId : FK.Destinations) {
      const Kernel &Dest = P.kernel(DestId);
      const ImageInfo &Info = P.image(Dest.Output);
      Image Out(Info.Width, Info.Height, Info.Channels);
      runTiledImage<false>(TP, Options, Out, /*Halo=*/0,
                           perPixelRow([&](int X, int Y, int Ch, unsigned) {
                             return Evaluator.evalStage(DestId, X, Y, Ch);
                           }),
                           /*Ring=*/nullptr);
      Pool[Dest.Output] = std::move(Out);
    }
  }
}

StagedVmProgram kf::compileFusedKernel(const FusedProgram &FP,
                                       const FusedKernel &FK) {
  const Program &P = *FP.Source;
  std::vector<KernelId> StageKernels;
  std::vector<bool> IsEliminated;
  StageKernels.reserve(FK.Stages.size());
  for (const FusedStage &Stage : FK.Stages) {
    StageKernels.push_back(Stage.Kernel);
    IsEliminated.push_back(!FK.isDestination(Stage.Kernel));
  }
  return compileStagedProgram(P, StageKernels, IsEliminated);
}

void VmScratch::ensure(unsigned Threads, size_t LaneFloats,
                       size_t PlaneFloats) {
  if (LaneRegs.size() < Threads)
    LaneRegs.resize(Threads);
  if (PlaneRegs.size() < Threads)
    PlaneRegs.resize(Threads);
  if (Ring.size() < Threads)
    Ring.resize(Threads);
  for (unsigned I = 0; I != Threads; ++I) {
    LaneRegs[I].resize(std::max(LaneRegs[I].size(), LaneFloats));
    PlaneRegs[I].resize(std::max(PlaneRegs[I].size(), PlaneFloats));
  }
}

int kf::laneRowsEnd(int W, int H, int Halo, int IA, int IB, int JA,
                    int JB) {
  if (IB - IA >= VmLaneWidth)
    return JB;
  // Row Y may run while (Y + Halo) * W <= Room.
  const long long Room =
      static_cast<long long>(W) * H - IA - Halo - VmLaneWidth;
  if (Room < 0)
    return JA;
  return static_cast<int>(
      std::clamp<long long>(Room / W - Halo + 1, JA, JB));
}

int kf::fusedLaunchHalo(const StagedVmProgram &SP, uint16_t Root,
                        const ImageInfo &Info) {
  // The fused footprint: interior pixels can reach no border through
  // any chain of stage calls. Mixed extents void the interior.
  return SP.UniformExtents ? SP.Reach[Root]
                           : std::max(Info.Width, Info.Height);
}

void kf::runCompiledLaunch(const StagedVmProgram &SP, uint16_t Root,
                           int Halo, const std::vector<Image> &Pool,
                           Image &Out, const ExecutionOptions &Options,
                           ThreadPool &TP, VmScratch &Scratch,
                           LaunchTiming *Timing, const JitProgram *Jit) {
  VmMode Mode = Options.Mode;
  // The per-pixel reference runs every pixel alike, so it ignores tiling.
  TilingStrategy Strategy =
      Mode == VmMode::Scalar ? TilingStrategy::InteriorHalo : Options.Tiling;
  // Auto decides per launch from the bytecode: overlapped exactly when
  // destination channels share a producer plane, which the interior/halo
  // recursion would recompute once per channel. A single-channel output
  // shares nothing, so it skips building the schedule.
  OverlapSchedule Schedule;
  if (Strategy == TilingStrategy::Overlapped ||
      (Strategy == TilingStrategy::Auto && Out.channels() > 1))
    Schedule = buildOverlapSchedule(SP, Root, Out.channels());
  if (Strategy == TilingStrategy::Auto)
    Strategy = Schedule.SharedPlanes ? TilingStrategy::Overlapped
                                     : TilingStrategy::InteriorHalo;
  // Mixed extents void the interior region, leaving overlapped tiling
  // nothing to run on; fall back rather than schedule empty tiles.
  if (!Schedule.Valid)
    Strategy = TilingStrategy::InteriorHalo;
  // A Jit request runs the bit-identical span interpreter where there is
  // no artifact (the plan's validator-gated JIT compile refused the
  // launch, or the caller holds none) and under overlapped tiling: the
  // JIT chains load directly from pool images, while overlapped interior
  // tiles read margin-grown scratch planes.
  if (Mode == VmMode::Jit &&
      (!Jit || Strategy == TilingStrategy::Overlapped))
    Mode = VmMode::Span;

  const double InteriorBefore = Timing ? Timing->InteriorMs : 0.0;
  const double HaloBefore = Timing ? Timing->HaloMs : 0.0;
  const long long OverlapBefore = Timing ? Timing->OverlapPixels : 0;
  const long long ComputedBefore = Timing ? Timing->ComputedPixels : 0;

  const BorderRing Ring{SP, Root, Pool, Scratch, Options.UseIndexExchange};
  // Every engine's registers live in the worker's lane buffer.
  auto RunTiled = [&](auto &&Row, int RowHalo, const BorderRing *RowRing) {
    Scratch.ensure(TP.numThreads(),
                   static_cast<size_t>(SP.NumRegs) * VmLaneWidth);
    if (Timing)
      runTiledImage<true>(TP, Options, Out, RowHalo, Row, RowRing, Timing);
    else
      runTiledImage<false>(TP, Options, Out, RowHalo, Row, RowRing);
  };
  if (Mode == VmMode::Scalar) {
    // Every pixel, border ring included, through the per-pixel reference.
    RunTiled(perPixelRow([&](int X, int Y, int Ch, unsigned Worker) {
               return runStagedVm(SP, Root, Pool, X, Y, Ch,
                                  Scratch.LaneRegs[Worker].data(),
                                  Options.UseIndexExchange);
             }),
             /*Halo=*/0, /*Ring=*/nullptr);
  } else if (Strategy == TilingStrategy::Overlapped) {
    if (Timing)
      runOverlappedImage<true>(TP, Options, Out, Halo, Schedule, Ring, Timing);
    else
      runOverlappedImage<false>(TP, Options, Out, Halo, Schedule, Ring,
                                Timing);
  } else {
    RunTiled(
        [&](int Y, int XA, int XB, int Ch, float *OutPtr, int Stride,
            unsigned Worker) {
          float *LaneRegs = Scratch.LaneRegs[Worker].data();
          if (Mode == VmMode::Jit)
            runJitSpan(*Jit, Pool, Y, XA, XB, Ch, LaneRegs, OutPtr, Stride);
          else
            runStagedVmSpan(SP, Root, Pool, Y, XA, XB, Ch, LaneRegs, OutPtr,
                            Stride);
        },
        Halo, &Ring);
  }

  if (Timing) {
    // The per-mode interior split as process counters: deltas of this
    // launch only, so an accumulated Timing never double-counts.
    Timing->Mode = Mode;
    Timing->Tiling = Strategy;
    TraceRecorder &TR = TraceRecorder::global();
    const double InteriorDelta = Timing->InteriorMs - InteriorBefore;
    TR.addCounter(Mode == VmMode::Jit    ? "vm.interior_jit_ms"
                  : Mode == VmMode::Span ? "vm.interior_span_ms"
                                         : "vm.interior_scalar_ms",
                  InteriorDelta);
    TR.addCounter("vm.halo_ms", Timing->HaloMs - HaloBefore);
    if (Strategy == TilingStrategy::Overlapped) {
      const long long OverlapDelta = Timing->OverlapPixels - OverlapBefore;
      const long long ComputedDelta =
          Timing->ComputedPixels - ComputedBefore;
      TR.addCounter("tile.overlap_pixels",
                    static_cast<double>(OverlapDelta));
      // Interior time attributable to redundant margin recompute: the
      // overlapped fraction of all cells this launch evaluated.
      if (ComputedDelta > 0)
        TR.addCounter("tile.redundant_halo_ms",
                      InteriorDelta * static_cast<double>(OverlapDelta) /
                          static_cast<double>(ComputedDelta));
    }
  }
}

float kf::evalKernelAt(const Program &P, KernelId Id,
                       const std::vector<Image> &Pool, int X, int Y,
                       int Channel) {
  const Kernel &K = P.kernel(Id);
  PoolSource Source(K, Pool);
  ExprEvaluator Eval(P, Source);
  return Eval.eval(K.Body, X, Y, Channel, nullptr);
}
