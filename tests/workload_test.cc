#include <gtest/gtest.h>

#include "common/config.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "telemetry/telemetry.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace hetdb {
namespace {

DatabasePtr SmallSsbDb() {
  SsbGeneratorOptions options;
  options.scale_factor = 0.1;  // 6,000 lineorder rows
  return GenerateSsbDatabase(options);
}

/// Workload-counter expectations below assume one co-processor (one bus, one
/// heap); pin device_count so the machine shape stays fixed even if the
/// multi-device default ever changes (tests/multi_device_test.cc owns the
/// N-device behavior).
SystemConfig SingleDeviceConfig() {
  SystemConfig config = TestConfig();
  config.device_count = 1;
  return config;
}

TEST(MicroWorkloadTest, SerialSelectionHasEightDistinctColumns) {
  std::vector<NamedQuery> queries = SerialSelectionQueries();
  ASSERT_EQ(queries.size(), 8u);
  DatabasePtr db = SmallSsbDb();
  std::set<std::string> names;
  for (const NamedQuery& query : queries) {
    names.insert(query.name);
    Result<PlanNodePtr> plan = query.builder(*db);
    ASSERT_TRUE(plan.ok());
    // Each query scans exactly one lineorder column.
    const auto& scan = static_cast<const ScanNode&>(*plan.value()->children()[0]);
    EXPECT_EQ(scan.base_columns().size(), 1u);
  }
  EXPECT_EQ(names.size(), 8u);
}

TEST(MicroWorkloadTest, ParallelSelectionHasFourOperators) {
  DatabasePtr db = SmallSsbDb();
  std::vector<NamedQuery> queries = ParallelSelectionQueries();
  ASSERT_EQ(queries.size(), 1u);
  Result<PlanNodePtr> plan = queries[0].builder(*db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(CountPlanNodes(plan.value()), 4u);
}

TEST(WorkloadDriverTest, RunsAllQueries) {
  DatabasePtr db = SmallSsbDb();
  EngineContext ctx(SingleDeviceConfig(), db);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  WorkloadRunOptions options;
  options.repetitions = 3;
  options.warmup_repetitions = 1;
  WorkloadRunResult result =
      RunWorkload(runner, SerialSelectionQueries(), options);
  EXPECT_EQ(result.queries_run, 24u);  // 8 queries x 3 repetitions
  EXPECT_EQ(result.failed_queries, 0u);
  EXPECT_EQ(result.latency_ms_by_query.size(), 8u);
  EXPECT_GT(result.wall_millis, 0.0);
  // CPU-only: nothing crossed the bus during measurement.
  EXPECT_EQ(result.h2d_bytes, 0u);
  EXPECT_EQ(result.gpu_operators, 0u);
}

TEST(WorkloadDriverTest, MultiUserDoesSameTotalWork) {
  DatabasePtr db = SmallSsbDb();
  EngineContext ctx(SingleDeviceConfig(), db);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  WorkloadRunOptions options;
  options.repetitions = 4;
  options.num_users = 4;
  options.warmup_repetitions = 0;
  WorkloadRunResult result =
      RunWorkload(runner, SerialSelectionQueries(), options);
  EXPECT_EQ(result.queries_run, 32u);
  EXPECT_EQ(result.failed_queries, 0u);
}

TEST(WorkloadDriverTest, AdmissionControlSerializesQueries) {
  DatabasePtr db = SmallSsbDb();
  EngineContext ctx(SingleDeviceConfig(), db);
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  WorkloadRunOptions options;
  options.repetitions = 2;
  options.num_users = 4;
  options.admission_limit = 1;
  options.warmup_repetitions = 0;
  WorkloadRunResult result =
      RunWorkload(runner, ParallelSelectionQueries(), options);
  EXPECT_EQ(result.queries_run, 2u);
  EXPECT_EQ(result.failed_queries, 0u);
}

TEST(WorkloadDriverTest, WarmupTrainsPlacementBeforeMeasurement) {
  DatabasePtr db = SmallSsbDb();
  SystemConfig config = SingleDeviceConfig();
  config.device_cache_bytes = 4ull << 20;  // room for the whole working set
  config.device_memory_bytes = 8ull << 20;
  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, Strategy::kDataDriven);
  WorkloadRunOptions options;
  options.repetitions = 2;
  WorkloadRunResult result =
      RunWorkload(runner, SerialSelectionQueries(), options);
  // After warm-up + placement, all eight columns are cached: the measured
  // phase runs on the device without host-to-device traffic.
  EXPECT_EQ(result.h2d_bytes, 0u);
  EXPECT_GT(result.gpu_operators, 0u);
  EXPECT_EQ(result.gpu_aborts, 0u);
}

TEST(WorkloadDriverTest, FusionFollowsTheContextAndTheBrownoutCap) {
  // Q2.1 fuses into one 3-join pipeline. RunWorkload takes fusion from the
  // context; brownout L1 caps the DoP only (DESIGN.md §13), so Q2.1 still
  // runs as one fused pipeline with no hash-join kernel.
  DatabasePtr db = SmallSsbDb();
  Result<NamedQuery> q21 = SsbQueryByName("Q2.1");
  ASSERT_TRUE(q21.ok());
  WorkloadRunOptions once;  // Q2.1 runs exactly once
  once.warmup_repetitions = 0;
  MetricRegistry& kernels = GlobalKernelMetrics();
  Counter& joins = kernels.GetCounter("kernel.hash_join.invocations");
  Counter& pipelines = kernels.GetCounter("kernel.fused_pipeline.invocations");
  struct Case {
    bool fusion, l1;
    int64_t joins, pipelines;
  };
  for (const Case& c : {Case{false, false, 3, 0}, Case{true, false, 0, 1},
                        Case{true, true, 0, 1}}) {
    SCOPED_TRACE(std::string(c.fusion ? "fusion on" : "fusion off") +
                 (c.l1 ? ", L1" : ", L0"));
    SystemConfig config = SingleDeviceConfig();
    config.fusion = c.fusion;
    EngineContext ctx(config, db);
    if (c.l1) ctx.brownout().ForceLevel(BrownoutLevel::kL1);
    StrategyRunner runner(&ctx, Strategy::kCpuOnly);
    const int64_t joins_before = joins.value();
    const int64_t pipelines_before = pipelines.value();
    EXPECT_EQ(RunWorkload(runner, {q21.value()}, once).failed_queries, 0u);
    EXPECT_EQ(joins.value() - joins_before, c.joins);
    EXPECT_EQ(pipelines.value() - pipelines_before, c.pipelines);
  }
}

/// 8 users run the parallel selection query 16 times each on a heap that
/// fits ~1.5 concurrent selections, with the cache holding both columns.
/// Returns the run and, in `heap_declines`, the operators declined.
WorkloadRunResult RunContendedSelections(const DatabasePtr& db,
                                         Strategy strategy, bool paper_mode,
                                         uint64_t* heap_declines = nullptr) {
  // This scenario needs the unfused selection chain: fusing it removes the
  // intermediate selection-vector footprint entirely (zero heap charge for
  // filter-only pipelines — see the fusion ablation in EXPERIMENTS.md), so
  // with fusion on there is no contention left to measure.
  SystemConfig config = SingleDeviceConfig();
  config.fusion = false;
  config.paper_mode = paper_mode;
  // Operators must genuinely overlap for contention to occur, so this test
  // runs with time simulation on (sub-millisecond modeled durations).
  config.simulate_time = true;
  // Cache fits the two filter columns; heap fits ~1.5 concurrent selections.
  const size_t column_bytes =
      db->GetColumnByQualifiedName("lineorder.lo_discount").value()->data_bytes();
  config.device_cache_bytes = 3 * column_bytes;
  config.device_memory_bytes = config.device_cache_bytes + 5 * column_bytes;

  WorkloadRunOptions options;
  options.repetitions = 16;
  options.num_users = 8;
  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, strategy);
  WorkloadRunResult result =
      RunWorkload(runner, ParallelSelectionQueries(), options);
  if (heap_declines != nullptr) {
    *heap_declines = ctx.telemetry().heap_declines();
  }
  return result;
}

/// The paper's core robustness claim, as a unit test: with a heap too small
/// for the concurrent operator footprint, GPU-only thrashes with aborts;
/// chopping (1 device worker) avoids them; and both produce correct results.
/// Aborts under contention are the paper's mechanism, so this runs in paper
/// mode.
TEST(RobustnessTest, ChoppingAvoidsHeapContentionAborts) {
  DatabasePtr db = SmallSsbDb();
  const WorkloadRunResult gpu_only =
      RunContendedSelections(db, Strategy::kGpuOnly, /*paper_mode=*/true);
  EXPECT_EQ(gpu_only.failed_queries, 0u);
  const WorkloadRunResult chopping = RunContendedSelections(
      db, Strategy::kDataDrivenChopping, /*paper_mode=*/true);
  EXPECT_EQ(chopping.failed_queries, 0u);
  EXPECT_GT(gpu_only.gpu_aborts, 0u);
  EXPECT_LT(chopping.gpu_aborts, gpu_only.gpu_aborts);
}

/// The same workload outside paper mode. A selection whose reservation the
/// heap cannot hold runs on the CPU before it starts, so GPU Only's aborts
/// shrink to the result buffers it still allocates after the kernel (two
/// first selections' reservations can fill the heap between them).
TEST(RobustnessTest, ReservationTurnsContentionAbortsIntoDeclines) {
  DatabasePtr db = SmallSsbDb();
  const WorkloadRunResult paper =
      RunContendedSelections(db, Strategy::kGpuOnly, /*paper_mode=*/true);
  uint64_t declines = 0;
  const WorkloadRunResult gpu_only = RunContendedSelections(
      db, Strategy::kGpuOnly, /*paper_mode=*/false, &declines);
  EXPECT_EQ(gpu_only.failed_queries, 0u);
  EXPECT_GT(declines, 0u);
  EXPECT_LT(gpu_only.gpu_aborts, paper.gpu_aborts);
  const WorkloadRunResult chopping = RunContendedSelections(
      db, Strategy::kDataDrivenChopping, /*paper_mode=*/false);
  EXPECT_EQ(chopping.failed_queries, 0u);
  EXPECT_EQ(chopping.gpu_aborts, 0u);
}

TEST(WorkloadResultTest, ToStringMentionsKeyFields) {
  WorkloadRunResult result;
  result.wall_millis = 12.5;
  result.gpu_aborts = 3;
  const std::string text = result.ToString();
  EXPECT_NE(text.find("wall=12.5"), std::string::npos);
  EXPECT_NE(text.find("aborts=3"), std::string::npos);
}

TEST(WorkloadResultTest, PerQueryBreakdownIsPopulatedAndPrinted) {
  DatabasePtr db = SmallSsbDb();
  EngineContext ctx(SingleDeviceConfig(), db);
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  WorkloadRunOptions options;
  options.repetitions = 2;
  options.warmup_repetitions = 1;
  WorkloadRunResult result =
      RunWorkload(runner, SerialSelectionQueries(), options);
  ASSERT_EQ(result.latency_stats_by_query.size(), 8u);
  double total_execute_ms = 0;
  for (const auto& [name, stats] : result.latency_stats_by_query) {
    EXPECT_EQ(stats.count, 2u) << name;
    EXPECT_GE(stats.execute_ms, 0.0) << name;
    EXPECT_GE(stats.queue_wait_ms, 0.0) << name;
    EXPECT_EQ(stats.device_retries, 0u) << name;
    EXPECT_EQ(stats.cpu_fallbacks, 0u) << name;
    total_execute_ms += stats.execute_ms;
  }
  // The attribution layer fed the breakdown: operators actually ran.
  EXPECT_GT(total_execute_ms, 0.0);
  const std::string text = result.PerQueryToString();
  EXPECT_NE(text.find("per-query breakdown"), std::string::npos);
  EXPECT_NE(text.find("queue_wait="), std::string::npos);
  EXPECT_NE(text.find("execute="), std::string::npos);
  EXPECT_NE(text.find("cpu_fallbacks="), std::string::npos);
}

}  // namespace
}  // namespace hetdb
