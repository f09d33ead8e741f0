// Per-query introspection tests: resource-attribution parity against the
// sim's global counters, EXPLAIN / EXPLAIN ANALYZE rendering, and the
// thrashing detector's reaction to a fig-2-style contention sweep.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "placement/strategy_runner.h"
#include "sql/explain.h"
#include "sql/planner.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "telemetry/detector.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace hetdb {
namespace {

DatabasePtr SsbDb() {
  static DatabasePtr db = [] {
    SsbGeneratorOptions options;
    options.scale_factor = 0.1;  // 6,000 lineorder rows
    return GenerateSsbDatabase(options);
  }();
  return db;
}

size_t LineorderColumnBytes(const DatabasePtr& db) {
  return db->GetColumnByQualifiedName("lineorder.lo_discount")
      .value()
      ->data_bytes();
}

// -----------------------------------------------------------------------------
// Attribution parity: per-query counters must mirror the sim's globals
// -----------------------------------------------------------------------------

// Runs the serial-selection workload one query at a time under `strategy`
// and asserts that (a) the summed per-query PCIe bytes equal the bus's
// global byte counters and (b) the max per-query heap high-water mark
// equals the device allocator's peak — i.e. attribution loses nothing and
// invents nothing.
void CheckParity(Strategy strategy) {
  SCOPED_TRACE(StrategyToString(strategy));
  DatabasePtr db = SsbDb();
  SystemConfig config;
  config.simulate_time = false;
  // Cache two of the eight selection columns: every pass misses, transfers,
  // and evicts, so there is real PCIe and heap traffic to attribute.
  config.device_cache_bytes = 2 * LineorderColumnBytes(db);
  config.device_memory_bytes = 512ull << 10;
  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, strategy);

  const std::vector<NamedQuery> queries = SerialSelectionQueries();
  int64_t sum_h2d = 0;
  int64_t sum_d2h = 0;
  int64_t max_heap_hw = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const NamedQuery& query : queries) {
      Result<PlanNodePtr> plan = query.builder(*db);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      QueryStatsPtr stats = MakeQueryStats(plan.value());
      stats->set_name(query.name);
      Result<TablePtr> result = runner.RunQuery(plan.value(), stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(stats->finished());
      EXPECT_TRUE(stats->ok());
      sum_h2d += stats->h2d_bytes();
      sum_d2h += stats->d2h_bytes();
      max_heap_hw = std::max(max_heap_hw, stats->heap_high_water());
    }
  }

  PcieBus& bus = ctx.simulator().bus();
  EXPECT_EQ(sum_h2d, static_cast<int64_t>(bus.transferred_bytes(
                         TransferDirection::kHostToDevice)));
  EXPECT_EQ(sum_d2h, static_cast<int64_t>(bus.transferred_bytes(
                         TransferDirection::kDeviceToHost)));
  EXPECT_EQ(max_heap_hw,
            static_cast<int64_t>(ctx.simulator().device_heap().peak_used()));
}

TEST(QueryStatsParityTest, GpuOnly) { CheckParity(Strategy::kGpuOnly); }
TEST(QueryStatsParityTest, RunTime) { CheckParity(Strategy::kRunTime); }
TEST(QueryStatsParityTest, Chopping) { CheckParity(Strategy::kChopping); }
TEST(QueryStatsParityTest, DataDrivenChopping) {
  CheckParity(Strategy::kDataDrivenChopping);
}

TEST(QueryStatsParityTest, GpuOnlyActuallyMovesData) {
  // The parity assertions are vacuous if nothing transfers; prove the
  // GPU-Only configuration above produces real traffic and heap use.
  DatabasePtr db = SsbDb();
  SystemConfig config;
  config.simulate_time = false;
  config.device_cache_bytes = 2 * LineorderColumnBytes(db);
  config.device_memory_bytes = 512ull << 10;
  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  const std::vector<NamedQuery> queries = SerialSelectionQueries();
  Result<PlanNodePtr> plan = queries[0].builder(*db);
  ASSERT_TRUE(plan.ok());
  QueryStatsPtr stats = MakeQueryStats(plan.value());
  ASSERT_TRUE(runner.RunQuery(plan.value(), stats).ok());
  EXPECT_GT(stats->h2d_bytes(), 0);
  EXPECT_GT(stats->heap_high_water(), 0);
  EXPECT_GT(stats->operators_run(), 0);
}

// -----------------------------------------------------------------------------
// EXPLAIN / EXPLAIN ANALYZE rendering
// -----------------------------------------------------------------------------

TEST(ExplainTest, PlanTreeRendersAllOperatorsIndented) {
  DatabasePtr db = SsbDb();
  Result<PlanNodePtr> plan = PlanSql(
      "SELECT d_year, sum(lo_revenue) AS revenue FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year",
      *db);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  const std::string tree = RenderPlanTree(plan.value());
  // One line per operator, children indented under parents.
  EXPECT_EQ(static_cast<size_t>(std::count(tree.begin(), tree.end(), '\n')),
            CountPlanNodes(plan.value()));
  EXPECT_NE(tree.find("sort"), std::string::npos);
  EXPECT_NE(tree.find("aggregate"), std::string::npos);
  EXPECT_NE(tree.find("join"), std::string::npos);
  EXPECT_NE(tree.find("\n  "), std::string::npos);

  const std::string json = RenderPlanJson(plan.value());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"op\":"), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
}

TEST(ExplainTest, AnalyzeShowsPerOperatorResourceAttribution) {
  DatabasePtr db = SsbDb();
  SystemConfig config;
  config.simulate_time = false;
  config.device_cache_bytes = 256ull << 10;
  config.device_memory_bytes = 1ull << 20;
  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);

  Result<NamedQuery> query = SsbQueryByName("Q1.1");
  ASSERT_TRUE(query.ok());
  Result<PlanNodePtr> plan = query.value().builder(*db);
  ASSERT_TRUE(plan.ok());
  QueryStatsPtr stats = MakeQueryStats(plan.value());
  stats->set_name("Q1.1");
  Result<TablePtr> result = runner.RunQuery(plan.value(), stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const std::string text = stats->ToText();
  // Acceptance: per-operator rows, kernel time, placement, PCIe bytes, and
  // heap high-water all visible in the annotated tree.
  EXPECT_NE(text.find("rows="), std::string::npos) << text;
  EXPECT_NE(text.find("kernel_"), std::string::npos) << text;
  EXPECT_NE(text.find("[GPU"), std::string::npos) << text;
  EXPECT_NE(text.find("pcie(h2d="), std::string::npos) << text;
  EXPECT_NE(text.find("heap_hw="), std::string::npos) << text;
  EXPECT_NE(text.find("-- query"), std::string::npos) << text;
  EXPECT_NE(text.find("(Q1.1): ok"), std::string::npos) << text;

  const std::string json = stats->ToJson();
  EXPECT_NE(json.find("\"name\":\"Q1.1\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes\":["), std::string::npos);
  EXPECT_NE(json.find("\"ran_on\":\"GPU\""), std::string::npos);
  EXPECT_NE(json.find("\"h2d_bytes\":"), std::string::npos);
}

/// A GPU Only selection over a cached column. On a heap smaller than the
/// select's intermediates it is declined to the CPU (outside paper mode);
/// on a roomy heap behind a half-open breaker with no probe slot it
/// short-circuits instead. Both leave the node requested on the GPU and run
/// on the CPU; EXPLAIN ANALYZE tells them apart.
TEST(ExplainTest, AnalyzeMarksHeapDeclinesApartFromShortCircuits) {
  DatabasePtr db = SsbDb();
  const std::vector<NamedQuery> queries = SerialSelectionQueries();
  auto run = [&](size_t heap_bytes, bool deny_probes) {
    SystemConfig config;
    config.simulate_time = false;
    config.device_cache_bytes = 2 * LineorderColumnBytes(db);
    config.device_memory_bytes = config.device_cache_bytes + heap_bytes;
    EngineContext ctx(config, db);
    StrategyRunner runner(&ctx, Strategy::kGpuOnly);
    Result<PlanNodePtr> plan = queries[0].builder(*db);
    EXPECT_TRUE(plan.ok());
    EXPECT_TRUE(runner.RunQuery(plan.value()).ok());  // caches the column
    if (deny_probes) {
      DeviceCircuitBreaker::Options options;
      options.min_samples = 1;
      options.cooldown_denials = 1;
      options.cooldown_micros = 0;
      options.half_open_probes = 0;
      ctx.breaker().Configure(options);
      ctx.breaker().RecordDeviceAbort();  // trips open
      ctx.breaker().AllowDevice();        // the denial half-opens it
    }
    QueryStatsPtr stats = MakeQueryStats(plan.value());
    EXPECT_TRUE(runner.RunQuery(plan.value(), stats).ok());
    return stats;
  };

  QueryStatsPtr declined =
      run(LineorderColumnBytes(db) / 2, /*deny_probes=*/false);
  const std::string text = declined->ToText();
  EXPECT_NE(text.find("[CPU, requested GPU, heap_decline]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("heap_declines=1"), std::string::npos) << text;
  const std::string json = declined->ToJson();
  EXPECT_NE(json.find("\"cpu_fallbacks\":0,\"heap_declines\":1,\"nodes\""),
            std::string::npos)
      << json;
  EXPECT_EQ(declined->heap_declines(), 1);
  EXPECT_EQ(declined->cpu_fallbacks(), 0);
  bool summarized = false;
  for (const auto& [key, value] : declined->SummaryFields()) {
    if (key == "heap_declines") summarized = value == "1";
  }
  EXPECT_TRUE(summarized);

  QueryStatsPtr short_circuited = run(1ull << 20, /*deny_probes=*/true);
  const std::string open_text = short_circuited->ToText();
  EXPECT_NE(open_text.find("[CPU, requested GPU]"), std::string::npos)
      << open_text;
  EXPECT_EQ(open_text.find("heap_decline]"), std::string::npos) << open_text;
  EXPECT_EQ(short_circuited->heap_declines(), 0);
}

/// GPU Only with device 0's breaker open: no device admits work, so the
/// chopping executor demotes every operator to the CPU when it places it.
/// EXPLAIN ANALYZE still shows that the placer asked for the GPU.
TEST(ExplainTest, AnalyzeMarksPlacementDemotionsAsRequestedGpu) {
  DatabasePtr db = SsbDb();
  SystemConfig config;
  config.simulate_time = false;
  EngineContext ctx(config, db);
  DeviceCircuitBreaker::Options options;
  options.min_samples = 1;
  options.cooldown_denials = 1 << 20;
  options.cooldown_micros = 0;  // stays open for the whole query
  ctx.breaker().Configure(options);
  ctx.breaker().RecordDeviceAbort();  // trips open
  ASSERT_EQ(ctx.breaker().state(), DeviceCircuitBreaker::State::kOpen);

  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  Result<PlanNodePtr> plan = SerialSelectionQueries()[0].builder(*db);
  ASSERT_TRUE(plan.ok());
  QueryStatsPtr stats = MakeQueryStats(plan.value());
  ASSERT_TRUE(runner.RunQuery(plan.value(), stats).ok());
  const std::string text = stats->ToText();
  EXPECT_NE(text.find("[CPU, requested GPU]"), std::string::npos) << text;
  EXPECT_EQ(text.find("[CPU]"), std::string::npos) << text;
  EXPECT_EQ(text.find("[GPU"), std::string::npos) << text;
  EXPECT_EQ(stats->heap_declines(), 0);
}

/// A CPU operator alone on the machine gets every core at once: EXPLAIN
/// ANALYZE reads no wait for a core, and a run at least as long as its
/// modeled kernel on every core.
TEST(ExplainTest, AnalyzeShowsNoCpuWaitOnAnIdleMachine) {
  DatabasePtr db = SsbDb();
  SystemConfig config;
  ASSERT_TRUE(config.simulate_time);
  ASSERT_EQ(config.time_scale, 1.0);
  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  Result<PlanNodePtr> plan = SerialSelectionQueries()[0].builder(*db);
  ASSERT_TRUE(plan.ok());
  QueryStatsPtr stats = MakeQueryStats(plan.value());
  ASSERT_TRUE(runner.RunQuery(plan.value(), stats).ok());

  int kernels = 0;
  for (const auto& node : stats->nodes()) {
    const int64_t kernel_micros = node->cpu_kernel_micros.load();
    if (kernel_micros == 0) continue;
    ++kernels;
    EXPECT_EQ(node->cpu_wait_micros.load(), 0) << node->label;
    EXPECT_GE(node->run_micros.load(), kernel_micros / config.cpu_workers)
        << node->label;
  }
  EXPECT_GT(kernels, 0);
  EXPECT_EQ(stats->cpu_wait_micros(), 0);
  const std::string text = stats->ToText();
  EXPECT_NE(text.find(" cpu_wait=0.00ms\n"), std::string::npos) << text;
  const std::string json = stats->ToJson();
  EXPECT_NE(json.find(",\"cpu_wait_us\":0,"), std::string::npos) << json;
}

TEST(ExplainTest, FailedQueryRendersErrorAndStatus) {
  QueryStats stats;
  stats.MarkSubmitted();
  stats.MarkFinished(false, "device lost");
  EXPECT_NE(stats.ToText().find("FAILED"), std::string::npos);
  EXPECT_NE(stats.ToText().find("device lost"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"status\":\"error\""), std::string::npos);
  // First finish wins; a later contradictory call must not flip the result.
  stats.MarkFinished(true);
  EXPECT_FALSE(stats.ok());
}

// -----------------------------------------------------------------------------
// Thrashing detector: fig-2-style contention sweep
// -----------------------------------------------------------------------------

TEST(ThrashingDetectorSweepTest, CacheContentionFlipsThrashState) {
  DatabasePtr db = SsbDb();
  const size_t column_bytes = LineorderColumnBytes(db);
  SystemConfig config;
  config.simulate_time = false;
  // Figure 2's setup: the cache holds three of the eight selection columns,
  // so the interleaved workload evicts on (almost) every access.
  config.device_cache_bytes = 3 * column_bytes;
  config.device_memory_bytes =
      config.device_cache_bytes + static_cast<size_t>(10 * 3.25 * column_bytes);
  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);

  ASSERT_EQ(ctx.detector().state(), ThrashingDetector::State::kCalm);
  const std::vector<NamedQuery> queries = SerialSelectionQueries();
  for (int pass = 0; pass < 3; ++pass) {
    for (const NamedQuery& query : queries) {
      Result<PlanNodePtr> plan = query.builder(*db);
      ASSERT_TRUE(plan.ok());
      ASSERT_TRUE(runner.RunQuery(plan.value()).ok());
    }
  }

  // The executors feed the detector after every query; sustained eviction
  // churn must have moved the state off calm and published the gauge.
  EXPECT_NE(ctx.detector().state(), ThrashingDetector::State::kCalm);
  EXPECT_GE(ctx.detector().transitions(), 1);
  EXPECT_GE(ctx.telemetry().registry().GetGauge("thrash.state").value(), 1);
  EXPECT_GE(ctx.detector().last_signals().eviction_churn, 0.5);
}

TEST(ThrashingDetectorSweepTest, RoomyCacheStaysCalm) {
  DatabasePtr db = SsbDb();
  SystemConfig config;
  config.simulate_time = false;
  // Control: everything fits — the same workload must not trip the detector.
  config.device_cache_bytes = 12 * LineorderColumnBytes(db);
  config.device_memory_bytes = config.device_cache_bytes + (1ull << 20);
  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);

  const std::vector<NamedQuery> queries = SerialSelectionQueries();
  for (int pass = 0; pass < 3; ++pass) {
    for (const NamedQuery& query : queries) {
      Result<PlanNodePtr> plan = query.builder(*db);
      ASSERT_TRUE(plan.ok());
      ASSERT_TRUE(runner.RunQuery(plan.value()).ok());
    }
  }
  EXPECT_EQ(ctx.detector().state(), ThrashingDetector::State::kCalm);
  EXPECT_EQ(ctx.telemetry().registry().GetGauge("thrash.state").value(), 0);
}

// -----------------------------------------------------------------------------
// Flight-recorder integration: every query leaves a summary record
// -----------------------------------------------------------------------------

TEST(FlightRecorderIntegrationTest, QueriesLeaveSummaryRecords) {
  DatabasePtr db = MakeTinyDb();
  EngineContext ctx(TestConfig(), db);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  Result<PlanNodePtr> plan = PlanSql("SELECT v FROM fact WHERE v > 90", *db);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(runner.RunQuery(plan.value()).ok());

  const std::vector<FlightRecord> records = ctx.flight_recorder().Snapshot();
  ASSERT_FALSE(records.empty());
  bool found_summary = false;
  for (const FlightRecord& record : records) {
    if (record.kind != FlightRecord::Kind::kQuerySummary) continue;
    found_summary = true;
    bool has_status = false;
    for (const auto& [key, value] : record.fields) {
      if (key == "status") {
        has_status = true;
        EXPECT_EQ(value, "ok");
      }
    }
    EXPECT_TRUE(has_status);
  }
  EXPECT_TRUE(found_summary);
}

}  // namespace
}  // namespace hetdb
