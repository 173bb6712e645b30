//===- tests/test_trace.cpp - Tracing & metrics layer tests ---------------------===//
//
// The observability subsystem: span/counter recording semantics, the
// disabled-path inertness guarantee, the chrome://tracing exporter, and
// the predicted-vs-measured MetricsRegistry. The recorder and registry
// are process-wide singletons, so every test here enables, clears, and
// disables them around its body (a fixture enforces the reset).
//
//===----------------------------------------------------------------------===//

#include "fusion/Partition.h"
#include "image/Generators.h"
#include "pipelines/Pipelines.h"
#include "sim/Executor.h"
#include "sim/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

using namespace kf;

namespace {

/// Fuses the whole program into one block so the VM path always runs a
/// genuinely fused launch.
FusedProgram wholeProgramFused(const Program &P) {
  Partition S;
  PartitionBlock Block;
  for (KernelId Id = 0; Id != P.numKernels(); ++Id)
    Block.Kernels.push_back(Id);
  S.Blocks.push_back(std::move(Block));
  return fuseProgram(P, S, FusionStyle::Optimized);
}

/// Builds the image pool with deterministic random external inputs.
std::vector<Image> seededPool(const Program &P, uint64_t Seed) {
  std::vector<Image> Pool = makeImagePool(P);
  Rng Gen(Seed);
  for (ImageId Id : P.externalInputs()) {
    const ImageInfo &Info = P.image(Id);
    Pool[Id] = makeRandomImage(Info.Width, Info.Height, Info.Channels, Gen);
  }
  return Pool;
}

/// Leaves both singletons disabled and empty regardless of test outcome.
class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    TraceRecorder::global().setEnabled(false);
    TraceRecorder::global().clear();
    MetricsRegistry::global().setEnabled(false);
    MetricsRegistry::global().clear();
  }
  void TearDown() override { SetUp(); }
};

TEST_F(TraceTest, DisabledRecorderIsInert) {
  TraceRecorder &Recorder = TraceRecorder::global();
  EXPECT_FALSE(TraceRecorder::enabled());
  Recorder.recordSpan("ignored", "test", 0.0, 1.0);
  Recorder.addCounter("ignored", 5.0);
  {
    TraceSpan Span("ignored", "test");
    EXPECT_FALSE(Span.active());
  }
  EXPECT_TRUE(Recorder.spans().empty());
  EXPECT_TRUE(Recorder.counters().empty());
}

TEST_F(TraceTest, RecordsSpansAndCounters) {
  TraceRecorder &Recorder = TraceRecorder::global();
  Recorder.setEnabled(true);
  Recorder.recordSpan("alpha", "test", 10.0, 5.0, {{"k", 2.0}});
  Recorder.recordSpan("alpha", "test", 20.0, 7.0);
  Recorder.recordSpan("beta", "test", 0.0, 100.0);
  Recorder.addCounter("hits", 1.0);
  Recorder.addCounter("hits", 2.0);

  std::vector<TraceSpanRecord> Spans = Recorder.spans();
  ASSERT_EQ(Spans.size(), 3u);
  EXPECT_EQ(Spans[0].Name, "alpha");
  ASSERT_EQ(Spans[0].Args.size(), 1u);
  EXPECT_EQ(Spans[0].Args[0].first, "k");

  std::vector<SpanAggregate> Aggs = Recorder.aggregateSpans();
  ASSERT_EQ(Aggs.size(), 2u);
  // Ordered by descending total time: beta (100) before alpha (12).
  EXPECT_EQ(Aggs[0].Name, "beta");
  EXPECT_EQ(Aggs[1].Count, 2u);
  EXPECT_DOUBLE_EQ(Aggs[1].TotalUs, 12.0);
  EXPECT_DOUBLE_EQ(Recorder.counters().at("hits"), 3.0);

  std::string Summary = Recorder.metricsSummary();
  EXPECT_NE(Summary.find("alpha"), std::string::npos);
  EXPECT_NE(Summary.find("hits"), std::string::npos);
}

TEST_F(TraceTest, RaiiSpanMeasuresNonNegativeInterval) {
  TraceRecorder::global().setEnabled(true);
  {
    TraceSpan Span("scoped", "test");
    EXPECT_TRUE(Span.active());
    Span.arg("x", 42.0);
  }
  std::vector<TraceSpanRecord> Spans = TraceRecorder::global().spans();
  ASSERT_EQ(Spans.size(), 1u);
  EXPECT_EQ(Spans[0].Name, "scoped");
  EXPECT_GE(Spans[0].DurationUs, 0.0);
  ASSERT_EQ(Spans[0].Args.size(), 1u);
  EXPECT_DOUBLE_EQ(Spans[0].Args[0].second, 42.0);
}

TEST_F(TraceTest, ThreadIdsAreSmallAndDistinct) {
  TraceRecorder &Recorder = TraceRecorder::global();
  Recorder.setEnabled(true);
  Recorder.recordSpan("main", "test", 0.0, 1.0);
  std::thread Other(
      [&Recorder] { Recorder.recordSpan("other", "test", 0.0, 1.0); });
  Other.join();
  std::vector<TraceSpanRecord> Spans = Recorder.spans();
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_NE(Spans[0].ThreadId, Spans[1].ThreadId);
}

TEST_F(TraceTest, ChromeTraceExportIsWellFormedJson) {
  TraceRecorder &Recorder = TraceRecorder::global();
  Recorder.setEnabled(true);
  Recorder.recordSpan("needs \"escaping\"\n", "test", 1.0, 2.0,
                      {{"arg", 0.5}});
  Recorder.recordSpan("plain", "test", 3.0, 4.0);

  std::string Path = ::testing::TempDir() + "kf_trace.json";
  ASSERT_TRUE(Recorder.writeChromeTrace(Path));
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();
  std::remove(Path.c_str());

  EXPECT_NE(Text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(Text.find("\\\"escaping\\\""), std::string::npos);
  EXPECT_NE(Text.find("\\u000a"), std::string::npos);
  // Brace balance is a cheap well-formedness proxy.
  int Depth = 0;
  for (char C : Text) {
    if (C == '{')
      ++Depth;
    if (C == '}')
      --Depth;
    EXPECT_GE(Depth, 0);
  }
  EXPECT_EQ(Depth, 0);
}

TEST_F(TraceTest, ClearDropsDataButKeepsEnabled) {
  TraceRecorder &Recorder = TraceRecorder::global();
  Recorder.setEnabled(true);
  Recorder.recordSpan("x", "test", 0.0, 1.0);
  Recorder.addCounter("c", 1.0);
  Recorder.clear();
  EXPECT_TRUE(Recorder.spans().empty());
  EXPECT_TRUE(Recorder.counters().empty());
  EXPECT_TRUE(TraceRecorder::enabled());
}

TEST_F(TraceTest, ThreadPoolExportsSchedulingCounters) {
  TraceRecorder::global().setEnabled(true);
  {
    ThreadPool Pool(2);
    Pool.parallelFor2D(8, 8, 4, 4, [](const TileRange &, unsigned) {});
    ThreadPoolStats Stats = Pool.stats();
    EXPECT_EQ(Stats.Launches, 1u);
    EXPECT_EQ(Stats.Tiles, 4u);
    ASSERT_EQ(Stats.TilesPerWorker.size(), 2u);
    EXPECT_EQ(Stats.TilesPerWorker[0] + Stats.TilesPerWorker[1], 4u);
  }
  // Destruction exported the counters into the recorder.
  std::map<std::string, double> Counters = TraceRecorder::global().counters();
  EXPECT_DOUBLE_EQ(Counters.at("threadpool.launches"), 1.0);
  EXPECT_DOUBLE_EQ(Counters.at("threadpool.tiles"), 4.0);
}

TEST_F(TraceTest, MetricsRegistryMergesPredictionsAndMeasurements) {
  MetricsRegistry &Registry = MetricsRegistry::global();
  Registry.setEnabled(true);

  Program P = makeSobel(32, 32);
  FusedProgram FP = wholeProgramFused(P);
  Registry.recordPrediction(P.name(), FP);

  std::vector<LaunchModelRecord> Records = Registry.records();
  ASSERT_EQ(Records.size(), FP.numLaunches());
  for (const LaunchModelRecord &Record : Records) {
    EXPECT_GT(Record.PredictedMs, 0.0);
    EXPECT_GT(Record.PredictedCycles, 0.0);
    EXPECT_EQ(Record.Runs, 0u);
    EXPECT_DOUBLE_EQ(Record.ratio(), 0.0); // No measurement yet.
  }

  const std::string Launch = Records[0].Launch; // Copy: Records is reassigned.
  Registry.recordLaunch(P.name(), Launch, 2.0, 1.5, 0.5);
  Records = Registry.records();
  EXPECT_EQ(Records[0].Mode, VmMode::Span);
  EXPECT_EQ(Records[0].Tiling, TilingStrategy::InteriorHalo);
  Registry.recordLaunch(P.name(), Launch, 4.0, 3.0, 1.0, VmMode::Scalar);
  Records = Registry.records();
  ASSERT_EQ(Records.size(), FP.numLaunches()); // Merged, not appended.
  EXPECT_EQ(Records[0].Runs, 2u);
  // The record names the engine and tiling of the run merged last.
  EXPECT_EQ(Records[0].Mode, VmMode::Scalar);
  EXPECT_EQ(Records[0].Tiling, TilingStrategy::InteriorHalo);
  EXPECT_DOUBLE_EQ(Records[0].MeasuredMs, 6.0);
  EXPECT_DOUBLE_EQ(Records[0].measuredMeanMs(), 3.0);
  EXPECT_GT(Records[0].ratio(), 0.0);

  EXPECT_GT(Registry.geomeanRatio(), 0.0);
  std::string Table = Registry.renderTable();
  EXPECT_NE(Table.find(Launch), std::string::npos);
  EXPECT_NE(Table.find("geomean"), std::string::npos);
  EXPECT_NE(Table.find("scalar"), std::string::npos);
}

TEST_F(TraceTest, FusedVmRecordsLaunchMetricsWhenEnabled) {
  MetricsRegistry &Registry = MetricsRegistry::global();
  Registry.setEnabled(true);
  TraceRecorder::global().setEnabled(true);

  Program P = makeSobel(24, 24);
  FusedProgram FP = wholeProgramFused(P);
  std::vector<Image> Pool = seededPool(P, 7);
  ExecutionOptions Options;
  Options.Threads = 1;
  runFusedVm(FP, Pool, Options);

  // Every launch carries both sides and an interior/halo split.
  std::vector<LaunchModelRecord> Records = Registry.records();
  ASSERT_EQ(Records.size(), FP.numLaunches());
  for (const LaunchModelRecord &Record : Records) {
    EXPECT_EQ(Record.Runs, 1u);
    EXPECT_GT(Record.PredictedMs, 0.0);
    EXPECT_GT(Record.MeasuredMs, 0.0);
    EXPECT_GE(Record.InteriorMs + Record.HaloMs, 0.0);
  }
  // And the trace saw one "launch <name>" span per launch.
  unsigned LaunchSpans = 0;
  for (const TraceSpanRecord &Span : TraceRecorder::global().spans())
    if (Span.Name.rfind("launch ", 0) == 0)
      ++LaunchSpans;
  EXPECT_EQ(LaunchSpans, FP.numLaunches());
}

TEST_F(TraceTest, DisabledExecutionRecordsNothing) {
  Program P = makeSobel(16, 16);
  FusedProgram FP = wholeProgramFused(P);
  std::vector<Image> Pool = seededPool(P, 9);
  ExecutionOptions Options;
  Options.Threads = 1;
  runFusedVm(FP, Pool, Options);
  EXPECT_TRUE(TraceRecorder::global().spans().empty());
  EXPECT_TRUE(MetricsRegistry::global().records().empty());
}

} // namespace
