// Failure-injection and concurrency stress tests: the engine must produce
// bit-identical results under arbitrary device allocation failures and heavy
// multi-user load — the paper's fault-tolerance contract (Section 2.5.1).

#include <gtest/gtest.h>

#include "placement/strategy_runner.h"
#include "ssb/ssb_generator.h"
#include "tests/test_util.h"
#include "workload/workload.h"

namespace hetdb {
namespace {

DatabasePtr StressDb() {
  static DatabasePtr db = [] {
    SsbGeneratorOptions options;
    options.scale_factor = 0.1;
    return GenerateSsbDatabase(options);
  }();
  return db;
}

/// This suite stresses the *single-device* contention and fault paths the
/// paper studies; pin device_count so the machine shape stays fixed even if
/// the multi-device default ever changes (tests/multi_device_test.cc owns
/// the N-device behavior).
SystemConfig SingleDeviceConfig() {
  SystemConfig config = TestConfig();
  config.device_count = 1;
  return config;
}

/// Reference result computed once on the CPU.
TablePtr Reference(const std::string& query_name) {
  DatabasePtr db = StressDb();
  EngineContext ctx(SingleDeviceConfig(), db);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  Result<NamedQuery> query = SsbQueryByName(query_name);
  EXPECT_TRUE(query.ok());
  Result<PlanNodePtr> plan = query->builder(*db);
  EXPECT_TRUE(plan.ok());
  Result<TablePtr> result = runner.RunQuery(plan.value());
  EXPECT_TRUE(result.ok());
  return result.value();
}

/// Probability-of-failure sweep: every device allocation fails with
/// probability p; results must stay correct for every strategy.
class FailureRateTest : public ::testing::TestWithParam<int> {};

TEST_P(FailureRateTest, ResultsSurviveRandomAllocationFailures) {
  const double failure_rate = GetParam() / 100.0;
  DatabasePtr db = StressDb();
  TablePtr expected = Reference("Q2.1");

  for (Strategy strategy :
       {Strategy::kGpuOnly, Strategy::kRunTime, Strategy::kDataDrivenChopping}) {
    EngineContext ctx(SingleDeviceConfig(), db);
    StrategyRunner runner(&ctx, strategy);
    runner.RefreshDataPlacement();
    // Seeded per (rate, strategy) for reproducibility: the injector draws
    // all randomness from its own seeded Rng under its lock.
    FaultInjector& injector = ctx.simulator().fault_injector();
    injector.Reseed(GetParam() * 31 + static_cast<int>(strategy));
    injector.SetSchedule(
        FaultSite::kDeviceAlloc,
        FaultSchedule::WithProbability(FaultKind::kHeapExhausted,
                                       failure_rate));

    Result<NamedQuery> query = SsbQueryByName("Q2.1");
    ASSERT_TRUE(query.ok());
    for (int round = 0; round < 3; ++round) {
      Result<PlanNodePtr> plan = query->builder(*db);
      ASSERT_TRUE(plan.ok());
      Result<TablePtr> result = runner.RunQuery(plan.value());
      ASSERT_TRUE(result.ok()) << StrategyToString(strategy) << " p="
                               << failure_rate << ": "
                               << result.status().ToString();
      EXPECT_TRUE(TablesEqual(*expected, *result.value()))
          << StrategyToString(strategy) << " p=" << failure_rate;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FailureRates, FailureRateTest,
                         ::testing::Values(0, 10, 50, 100));

TEST(StressTest, ManyUsersManyStrategiesProduceNoFailures) {
  DatabasePtr db = StressDb();
  SystemConfig config = SingleDeviceConfig();
  config.device_memory_bytes = 256 << 10;  // deliberately starved device
  config.device_cache_bytes = 128 << 10;
  for (Strategy strategy :
       {Strategy::kGpuOnly, Strategy::kChopping, Strategy::kDataDrivenChopping}) {
    EngineContext ctx(config, db);
    StrategyRunner runner(&ctx, strategy);
    WorkloadRunOptions options;
    options.repetitions = 4;
    options.num_users = 12;
    options.warmup_repetitions = 0;
    const WorkloadRunResult result = RunWorkload(runner, SsbQueries(), options);
    EXPECT_EQ(result.failed_queries, 0u) << StrategyToString(strategy);
    EXPECT_EQ(result.queries_run, 52u) << StrategyToString(strategy);
  }
}

TEST(StressTest, ChoppingExecutorSurvivesRapidSubmitCycles) {
  DatabasePtr db = StressDb();
  // Repeated construction/destruction of chopping executors with in-flight
  // queries (shutdown correctness).
  for (int cycle = 0; cycle < 10; ++cycle) {
    EngineContext ctx(SingleDeviceConfig(), db);
    StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);
    Result<NamedQuery> query = SsbQueryByName("Q1.1");
    ASSERT_TRUE(query.ok());
    Result<PlanNodePtr> plan = query->builder(*db);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(runner.RunQuery(plan.value()).ok());
  }
}

TEST(StressTest, InjectedFailuresAreCountedAsAborts) {
  // This test counts one abort per plan operator, so run the plan as-is:
  // fusion would collapse the chain into a single schedulable node (its
  // abort accounting is covered by tests/fused_pipeline_test.cc).
  DatabasePtr db = StressDb();
  SystemConfig config = SingleDeviceConfig();
  config.fusion = false;
  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  // Keep the breaker out of the arithmetic: a tripped breaker would
  // short-circuit later operators to the CPU without counting an abort.
  DeviceCircuitBreaker::Options no_trip;
  no_trip.min_samples = 1 << 20;
  ctx.breaker().Configure(no_trip);
  ctx.simulator().fault_injector().SetSchedule(
      FaultSite::kDeviceAlloc, FaultSchedule::Always(FaultKind::kHeapExhausted));
  Result<NamedQuery> query = SsbQueryByName("Q1.1");
  ASSERT_TRUE(query.ok());
  Result<PlanNodePtr> plan = query->builder(*db);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(runner.RunQuery(plan.value()).ok());
  // Scans acquire their inputs through the data cache (no heap allocation),
  // so they cannot abort; every other device-placed operator aborted once.
  size_t scans = 0;
  VisitPlanPostOrder(plan.value(), [&](const PlanNodePtr& node) {
    if (node->op() == PlanOp::kScan) ++scans;
  });
  EXPECT_EQ(ctx.telemetry().gpu_operator_aborts(),
            CountPlanNodes(plan.value()) - scans);
  EXPECT_EQ(ctx.telemetry().gpu_operators(), scans);
}

}  // namespace
}  // namespace hetdb
