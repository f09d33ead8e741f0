// Chaos suite: SSB workloads under seeded, deterministic fault schedules.
//
// The contract under test (DESIGN.md §8): whatever the device does — heap
// exhaustion, transient kernel faults, dying mid-transfer, falling off the
// bus entirely — the engine either returns the bit-identical result of a
// fault-free CPU run or a clean Status. Never a wrong answer, never a
// stranded future, never a leaked device byte.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/chopping_executor.h"
#include "engine/pipeline_builder.h"
#include "fault/brownout.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_injector.h"
#include "fault/watchdog.h"
#include "placement/compile_time.h"
#include "placement/runtime.h"
#include "placement/strategy_runner.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "telemetry/query_stats.h"
#include "telemetry/telemetry.h"
#include "tests/test_util.h"

namespace hetdb {
namespace {

DatabasePtr ChaosDb() {
  static DatabasePtr db = [] {
    SsbGeneratorOptions options;
    options.scale_factor = 0.1;
    return GenerateSsbDatabase(options);
  }();
  return db;
}

/// Fault-free CPU reference result, computed once per query.
TablePtr Reference(const std::string& query_name) {
  DatabasePtr db = ChaosDb();
  EngineContext ctx(TestConfig(), db);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  Result<NamedQuery> query = SsbQueryByName(query_name);
  EXPECT_TRUE(query.ok());
  Result<PlanNodePtr> plan = query->builder(*db);
  EXPECT_TRUE(plan.ok());
  Result<TablePtr> result = runner.RunQuery(plan.value());
  EXPECT_TRUE(result.ok());
  return result.value();
}

PlanNodePtr ChaosPlan(const std::string& query_name) {
  Result<NamedQuery> query = SsbQueryByName(query_name);
  EXPECT_TRUE(query.ok());
  Result<PlanNodePtr> plan = query->builder(*ChaosDb());
  EXPECT_TRUE(plan.ok());
  return plan.value();
}

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour (determinism is what makes chaos replayable)
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameScheduleSameDecisions) {
  FaultInjector a(42), b(42);
  FaultSchedule schedule =
      FaultSchedule::WithProbability(FaultKind::kTransient, 0.37);
  a.SetSchedule(FaultSite::kKernel, schedule);
  b.SetSchedule(FaultSite::kKernel, schedule);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.Decide(FaultSite::kKernel, 100).kind,
              b.Decide(FaultSite::kKernel, 100).kind);
  }
  EXPECT_GT(a.total_faults(), 0u);
  EXPECT_EQ(a.total_faults(), b.total_faults());
}

TEST(FaultInjectorTest, BurstAndMaxFaultsBoundTheDamage) {
  FaultInjector injector(7);
  FaultSchedule schedule = FaultSchedule::Always(FaultKind::kTransient);
  schedule.burst_length = 3;
  schedule.max_faults = 4;
  injector.SetSchedule(FaultSite::kTransfer, schedule);
  int faults = 0;
  for (int i = 0; i < 100; ++i) {
    if (injector.Decide(FaultSite::kTransfer).fault()) ++faults;
  }
  EXPECT_EQ(faults, 4);  // capped by max_faults despite probability 1
  EXPECT_EQ(injector.faults_injected(FaultSite::kTransfer,
                                     FaultKind::kTransient),
            4u);
}

TEST(FaultInjectorTest, MinBytesSparesSmallEvents) {
  FaultInjector injector;
  FaultSchedule schedule = FaultSchedule::Always(FaultKind::kHeapExhausted);
  schedule.min_bytes = 1000;
  injector.SetSchedule(FaultSite::kDeviceAlloc, schedule);
  EXPECT_FALSE(injector.Decide(FaultSite::kDeviceAlloc, 999).fault());
  EXPECT_TRUE(injector.Decide(FaultSite::kDeviceAlloc, 1000).fault());
}

TEST(FaultInjectorTest, DecisionStatusCodesMatchFaultKinds) {
  FaultDecision decision;
  decision.kind = FaultKind::kHeapExhausted;
  EXPECT_TRUE(decision.ToStatus("x").IsResourceExhausted());
  decision.kind = FaultKind::kTransient;
  EXPECT_TRUE(decision.ToStatus("x").IsUnavailable());
  decision.kind = FaultKind::kDeviceLost;
  EXPECT_TRUE(decision.ToStatus("x").IsDeviceLost());
  for (FaultKind kind : {FaultKind::kHeapExhausted, FaultKind::kTransient,
                         FaultKind::kDeviceLost}) {
    decision.kind = kind;
    EXPECT_TRUE(decision.ToStatus("x").IsDeviceAbort());
  }
}

TEST(FaultInjectorTest, OfflineEpisodeDominatesEverySite) {
  FaultInjector injector;
  injector.ForceOffline(3);
  EXPECT_TRUE(injector.offline());
  EXPECT_EQ(injector.Decide(FaultSite::kDeviceAlloc).kind,
            FaultKind::kDeviceLost);
  EXPECT_EQ(injector.Decide(FaultSite::kKernel).kind, FaultKind::kDeviceLost);
  EXPECT_EQ(injector.Decide(FaultSite::kTransfer).kind,
            FaultKind::kDeviceLost);
  EXPECT_FALSE(injector.offline());  // episode drained
  EXPECT_EQ(injector.Decide(FaultSite::kDeviceAlloc).kind, FaultKind::kNone);
}

// ---------------------------------------------------------------------------
// Circuit-breaker state machine
// ---------------------------------------------------------------------------

DeviceCircuitBreaker::Options SmallBreaker() {
  DeviceCircuitBreaker::Options options;
  options.window = 8;
  options.min_samples = 4;
  options.trip_ratio = 0.5;
  options.cooldown_denials = 4;
  options.half_open_probes = 2;
  options.probes_to_close = 2;
  return options;
}

TEST(CircuitBreakerTest, AbortStormTripsThenProbesThenCloses) {
  DeviceCircuitBreaker breaker{SmallBreaker()};
  // Four aborts in a row: ratio 1.0 >= 0.5 with 4 >= min_samples.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(breaker.AllowDevice());
    breaker.RecordDeviceAbort();
  }
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  // Cooldown counted in denials, deterministic without wall clock.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(breaker.AllowDevice());
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kHalfOpen);
  // Two successful probes close it again.
  ASSERT_TRUE(breaker.AllowDevice());
  breaker.RecordDeviceSuccess();
  ASSERT_TRUE(breaker.AllowDevice());
  breaker.RecordDeviceSuccess();
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kClosed);
  // Closing cleared the window: one fresh abort must not re-trip.
  ASSERT_TRUE(breaker.AllowDevice());
  breaker.RecordDeviceAbort();
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  DeviceCircuitBreaker breaker{SmallBreaker()};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(breaker.AllowDevice());
    breaker.RecordDeviceAbort();
  }
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(breaker.AllowDevice());
  ASSERT_EQ(breaker.state(), DeviceCircuitBreaker::State::kHalfOpen);
  ASSERT_TRUE(breaker.AllowDevice());
  breaker.RecordDeviceAbort();
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
}

TEST(CircuitBreakerTest, DeviceLostTripsImmediately) {
  DeviceCircuitBreaker breaker{SmallBreaker()};
  ASSERT_TRUE(breaker.AllowDevice());
  breaker.RecordDeviceAbort(/*device_lost=*/true);
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.device_available());
}

TEST(CircuitBreakerTest, PlacerPeekAdvancesCooldown) {
  DeviceCircuitBreaker breaker{SmallBreaker()};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(breaker.AllowDevice());
    breaker.RecordDeviceAbort();
  }
  // A placer-only workload (device_available, never AllowDevice) must not
  // wedge the breaker open forever.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(breaker.device_available());
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kHalfOpen);
}

/// Half-open is a *bounded* probe window: under a stampede of concurrent
/// requests, exactly half_open_probes slots are admitted and everyone else
/// is denied without perturbing the state machine — the admitted probes'
/// outcomes alone decide whether the breaker closes.
TEST(CircuitBreakerTest, HalfOpenProbeContentionAdmitsBoundedProbes) {
  DeviceCircuitBreaker breaker{SmallBreaker()};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(breaker.AllowDevice());
    breaker.RecordDeviceAbort();
  }
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(breaker.AllowDevice());
  ASSERT_EQ(breaker.state(), DeviceCircuitBreaker::State::kHalfOpen);

  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&breaker, &admitted] {
      if (breaker.AllowDevice()) admitted.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(admitted.load(), SmallBreaker().half_open_probes);
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kHalfOpen);

  // The denied stampede consumed nothing: the two real probes still close
  // the breaker on success.
  breaker.RecordDeviceSuccess();
  breaker.RecordDeviceSuccess();
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------------
// Engine-level chaos: SSB under seeded fault schedules
// ---------------------------------------------------------------------------

const char* const kChaosQueries[] = {"Q1.1", "Q2.1", "Q3.1"};

/// Heap exhaustion + transient kernel faults + transfer latency spikes:
/// every fault class the engine recovers from transparently (retry or CPU
/// fallback), so every query must succeed with the reference result — across
/// compile-time, run-time, and chopping placement.
TEST(ChaosTest, MixedFaultsNeverCorruptResults) {
  DatabasePtr db = ChaosDb();
  for (Strategy strategy :
       {Strategy::kGpuOnly, Strategy::kRunTime, Strategy::kChopping,
        Strategy::kDataDrivenChopping}) {
    EngineContext ctx(TestConfig(), db);
    {
      StrategyRunner runner(&ctx, strategy);
      runner.RefreshDataPlacement();
      FaultInjector& injector = ctx.simulator().fault_injector();
      injector.Reseed(0xc4a05u + static_cast<uint64_t>(strategy));
      injector.SetSchedule(
          FaultSite::kDeviceAlloc,
          FaultSchedule::WithProbability(FaultKind::kHeapExhausted, 0.3));
      injector.SetSchedule(
          FaultSite::kKernel,
          FaultSchedule::WithProbability(FaultKind::kTransient, 0.2));
      injector.SetSchedule(
          FaultSite::kTransfer,
          FaultSchedule::WithProbability(FaultKind::kLatencySpike, 0.2));
      for (const char* name : kChaosQueries) {
        TablePtr expected = Reference(name);
        for (int round = 0; round < 3; ++round) {
          Result<TablePtr> result = runner.RunQuery(ChaosPlan(name));
          ASSERT_TRUE(result.ok())
              << StrategyToString(strategy) << " " << name << ": "
              << result.status().ToString();
          EXPECT_TRUE(TablesEqual(*expected, *result.value()))
              << StrategyToString(strategy) << " " << name;
        }
      }
      EXPECT_GT(injector.total_faults(), 0u) << StrategyToString(strategy);
    }
    // Runner destroyed: all queries drained. No leaked device bytes.
    EXPECT_EQ(ctx.simulator().device_heap().used(), 0u)
        << StrategyToString(strategy);
  }
}

/// Transient *transfer* faults can strike the one path with no processor
/// fallback: the device-to-host result copy-back. Queries must then either
/// succeed (retries absorbed the fault) with the correct result, or fail
/// with the clean transfer status — and never leak device memory.
TEST(ChaosTest, TransferFaultsSucceedOrFailCleanly) {
  DatabasePtr db = ChaosDb();
  TablePtr expected = Reference("Q2.1");
  for (Strategy strategy : {Strategy::kGpuOnly, Strategy::kChopping}) {
    EngineContext ctx(TestConfig(), db);
    {
      StrategyRunner runner(&ctx, strategy);
      FaultInjector& injector = ctx.simulator().fault_injector();
      injector.Reseed(0xbadbu + static_cast<uint64_t>(strategy));
      injector.SetSchedule(
          FaultSite::kTransfer,
          FaultSchedule::WithProbability(FaultKind::kTransient, 0.4));
      int succeeded = 0;
      for (int round = 0; round < 6; ++round) {
        Result<TablePtr> result = runner.RunQuery(ChaosPlan("Q2.1"));
        if (result.ok()) {
          ++succeeded;
          EXPECT_TRUE(TablesEqual(*expected, *result.value()))
              << StrategyToString(strategy);
        } else {
          EXPECT_TRUE(result.status().IsDeviceAbort())
              << StrategyToString(strategy) << ": "
              << result.status().ToString();
        }
      }
      EXPECT_GT(succeeded, 0) << StrategyToString(strategy);
      EXPECT_GT(ctx.simulator().bus().failed_transfers(), 0u);
    }
    EXPECT_EQ(ctx.simulator().device_heap().used(), 0u)
        << StrategyToString(strategy);
  }
}

/// A device that falls off the bus trips the breaker on the first DeviceLost
/// abort; the rest of the workload short-circuits to the CPU and completes
/// with correct results.
TEST(ChaosTest, DeviceLossFailsOverToCpu) {
  DatabasePtr db = ChaosDb();
  TablePtr expected = Reference("Q1.1");
  EngineContext ctx(TestConfig(), db);
  {
    StrategyRunner runner(&ctx, Strategy::kGpuOnly);
    ctx.simulator().fault_injector().SetSchedule(
        FaultSite::kDeviceAlloc, FaultSchedule::Always(FaultKind::kDeviceLost));
    for (int round = 0; round < 3; ++round) {
      Result<TablePtr> result = runner.RunQuery(ChaosPlan("Q1.1"));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(TablesEqual(*expected, *result.value()));
    }
    EXPECT_GE(ctx.breaker().trips(), 1u);
    // Denials may have advanced the breaker into half-open by now, but the
    // still-lost device re-trips every probe — it can never be closed.
    EXPECT_NE(ctx.breaker().state(), DeviceCircuitBreaker::State::kClosed);
    EXPECT_GT(
        ctx.telemetry().registry().GetCounter("breaker.short_circuits").value(),
        0);
  }
  EXPECT_EQ(ctx.simulator().device_heap().used(), 0u);
}

/// Whole-device-offline episode (every site returns DeviceLost until it
/// drains): the workload fails over to the CPU; once the episode ends and
/// the breaker is reset, device execution resumes.
TEST(ChaosTest, OfflineEpisodeIsSurvivedAndRecoveredFrom) {
  DatabasePtr db = ChaosDb();
  TablePtr expected = Reference("Q1.1");
  EngineContext ctx(TestConfig(), db);
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  ctx.simulator().fault_injector().ForceOffline(10000);

  Result<TablePtr> during = runner.RunQuery(ChaosPlan("Q1.1"));
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_TRUE(TablesEqual(*expected, *during.value()));
  EXPECT_GT(ctx.simulator().fault_injector().total_faults(), 0u);

  // Device comes back; operator recovery path confirmed by device operators
  // running again after the breaker resets.
  ctx.simulator().fault_injector().ClearAll();
  ctx.breaker().Reset();
  const uint64_t gpu_ops_before = ctx.telemetry().gpu_operators();
  Result<TablePtr> after = runner.RunQuery(ChaosPlan("Q1.1"));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(TablesEqual(*expected, *after.value()));
  EXPECT_GT(ctx.telemetry().gpu_operators(), gpu_ops_before);
}

/// After an abort storm trips the breaker, clearing the fault and continuing
/// to submit work recovers device execution through half-open probes — no
/// manual Reset needed.
TEST(ChaosTest, BreakerRecoversViaHalfOpenProbes) {
  DatabasePtr db = ChaosDb();
  TablePtr expected = Reference("Q1.1");
  EngineContext ctx(TestConfig(), db);
  ctx.breaker().Configure(SmallBreaker());
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  FaultInjector& injector = ctx.simulator().fault_injector();
  injector.SetSchedule(
      FaultSite::kDeviceAlloc,
      FaultSchedule::Always(FaultKind::kHeapExhausted));

  Result<TablePtr> stormy = runner.RunQuery(ChaosPlan("Q1.1"));
  ASSERT_TRUE(stormy.ok());
  EXPECT_TRUE(TablesEqual(*expected, *stormy.value()));
  EXPECT_GE(ctx.breaker().trips(), 1u);

  // Fault gone; keep submitting. Denials advance the cooldown, probes
  // succeed, the breaker closes.
  injector.ClearAll();
  for (int round = 0; round < 10 &&
                      ctx.breaker().state() != DeviceCircuitBreaker::State::kClosed;
       ++round) {
    Result<TablePtr> result = runner.RunQuery(ChaosPlan("Q1.1"));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(TablesEqual(*expected, *result.value()));
  }
  EXPECT_EQ(ctx.breaker().state(), DeviceCircuitBreaker::State::kClosed);
}

/// Test-name suffix for strategy-parameterized suites ("GPU Only" ->
/// "GPUOnly").
std::string StrategyParamName(const ::testing::TestParamInfo<Strategy>& info) {
  std::string name;
  for (const char c : std::string(StrategyToString(info.param))) {
    if (std::isalnum(static_cast<unsigned char>(c))) name += c;
  }
  return name;
}

/// A watchdog kill travels the executor's ordinary cancel path, so it must
/// leave the same clean state a client cancel does: the future settles (with
/// Cancelled, or the result if the query won the race), the executor
/// deregisters the query from the engine watchdog, and no device byte stays
/// allocated. Repeated kills must not accumulate state, and the engine keeps
/// serving correct results afterwards. Compile-time strategies run inline
/// but check the token before every operator, so they are killable too.
class WatchdogKillTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(WatchdogKillTest, LeavesNoStrandedState) {
  DatabasePtr db = ChaosDb();
  TablePtr expected = Reference("Q3.1");
  // Modeled time keeps the query in flight for milliseconds, so the kill
  // reliably lands mid-flight (with no-sleep TestConfig the query can beat
  // a sub-millisecond watchdog to the finish line).
  SystemConfig config = TestConfig();
  config.simulate_time = true;
  EngineContext ctx(config, db);
  {
    StrategyRunner runner(&ctx, GetParam());
    // A test-local watchdog with a microscopic runtime ceiling plays the
    // killer (the engine's own watchdog keeps production thresholds); both
    // fire through the query's CancelToken, so the unwind path is the same.
    StuckQueryWatchdog::Options options;
    options.scan_period_micros = 0;  // test drives CheckNow()
    options.stall_micros = 0;
    options.deadline_multiple = 0;
    options.max_runtime_micros = 1;
    StuckQueryWatchdog watchdog(options);
    int kills = 0;
    for (int cycle = 0; cycle < 3; ++cycle) {
      PlanNodePtr plan = ChaosPlan("Q3.1");
      QueryControls controls;
      controls.cancel = CancelToken::Create();
      controls.stats = MakeQueryStats(plan);
      const uint64_t query_id = 1000u + static_cast<uint64_t>(cycle);
      controls.stats->set_query_id(query_id);
      const CancelToken cancel = controls.cancel;
      watchdog.Register(query_id, controls.stats, cancel, {},
                        /*has_deadline=*/false);
      std::future<Result<TablePtr>> future =
          std::async(std::launch::async, [&runner, &plan, &controls] {
            return runner.RunQuery(plan, std::move(controls));
          });
      // Kill early and keep checking: the ceiling is 1us, so the first scan
      // after launch fires while the query is still mid-flight.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      while (future.wait_for(std::chrono::microseconds(50)) !=
             std::future_status::ready) {
        watchdog.CheckNow();
      }
      Result<TablePtr> result = future.get();
      watchdog.Deregister(query_id);
      if (result.ok()) {
        // The query beat the kill to the finish line; result must be right.
        EXPECT_TRUE(TablesEqual(*expected, *result.value())) << cycle;
      } else {
        EXPECT_TRUE(result.status().IsCancelled())
            << cycle << ": " << result.status().ToString();
        EXPECT_TRUE(watchdog.WasKilled(query_id)) << cycle;
        ++kills;
      }
      // The executor deregisters before settling the promise, so once the
      // future resolved the engine watchdog must be empty. (Device bytes of
      // straggler in-kernel tasks drain by executor teardown, asserted at
      // scope exit — the same contract as a client cancel.)
      EXPECT_EQ(ctx.watchdog().active(), 0u) << "cycle " << cycle;
    }
    EXPECT_GT(kills, 0) << "no cycle was ever killed; ceiling too lax?";
    // Recovery: with the killer idle, the same query runs to the correct
    // result — no lingering cancel or watchdog verdict affects fresh work.
    Result<TablePtr> clean = runner.RunQuery(ChaosPlan("Q3.1"));
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_TRUE(TablesEqual(*expected, *clean.value()));
  }
  EXPECT_EQ(ctx.simulator().device_heap().used(), 0u);
}

INSTANTIATE_TEST_SUITE_P(PooledAndInline, WatchdogKillTest,
                         ::testing::Values(Strategy::kChopping,
                                           Strategy::kGpuOnly,
                                           Strategy::kCpuOnly),
                         StrategyParamName);

/// A compile-time query checks its deadline before every operator, not only
/// before the first: once the deadline passes mid-query it fails with
/// Cancelled, leaves the engine watchdog, and frees its device heap.
class CompileTimeDeadlineTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(CompileTimeDeadlineTest, DeadlinePassingMidQueryCancels) {
  EngineContext ctx(TestConfig(), ChaosDb());
  StrategyRunner runner(&ctx, GetParam());
  const PlanNodePtr plan = runner.Optimize(ChaosPlan("Q3.1"));
  RuntimePlacer replay = MakeReplayPlacer(GetParam() == Strategy::kGpuOnly
                                              ? PlaceGpuOnly(plan)
                                              : PlaceCpuOnly(plan));
  // The deadline passes at a known operator boundary: the placement step of
  // the first leaf holds it until the deadline is behind it. That leaf has
  // passed its deadline check, so it runs; its parent's check fails. The
  // budget only has to cover the query's set-up.
  const PlanNode* held = nullptr;
  VisitPlanPostOrder(plan, [&held](const PlanNodePtr& node) {
    if (held == nullptr) held = node.get();
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  RuntimePlacer placer = [&](const PlanNode& node,
                             const std::vector<OperatorResult*>& inputs,
                             EngineContext& placer_ctx) {
    if (&node == held) {
      std::this_thread::sleep_until(deadline + std::chrono::milliseconds(1));
    }
    return replay(node, inputs, placer_ctx);
  };
  QueryControls controls;
  controls.cancel = CancelToken::Create();  // a live token: watched
  controls.stats = std::make_shared<QueryStats>();
  controls.deadline = deadline;
  const QueryStatsPtr stats = controls.stats;
  ChoppingExecutor executor(&ctx);
  Result<TablePtr> result =
      executor.ExecuteInline(plan, placer, std::move(controls));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_GT(stats->operators_run(), 0);
  EXPECT_LT(stats->operators_run(),
            static_cast<int64_t>(stats->nodes().size()));
  EXPECT_EQ(ctx.watchdog().active(), 0u);
  EXPECT_EQ(ctx.simulator().device_heap().used(), 0u);
}

INSTANTIATE_TEST_SUITE_P(CompileTime, CompileTimeDeadlineTest,
                         ::testing::Values(Strategy::kGpuOnly,
                                           Strategy::kCpuOnly),
                         StrategyParamName);

/// Brownout survival mode (L3) pins a compile-time query's device operators
/// to the CPU in the executor's placement step, counted as brownout pins
/// rather than breaker short-circuits.
TEST(ChaosTest, BrownoutL3PinsGpuOnlyQueriesToTheCpu) {
  TablePtr expected = Reference("Q3.1");
  EngineContext ctx(TestConfig(), ChaosDb());
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  ctx.brownout().ForceLevel(BrownoutLevel::kL3);
  Result<TablePtr> result = runner.RunQuery(ChaosPlan("Q3.1"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(TablesEqual(*expected, *result.value()));
  EXPECT_EQ(ctx.telemetry().gpu_operators(), 0u);
  MetricRegistry& registry = ctx.telemetry().registry();
  EXPECT_GT(registry.GetCounter("brownout.cpu_pins").value(), 0);
  EXPECT_EQ(registry.GetCounter("breaker.short_circuits").value(), 0);
}

/// Brownout L1 caps a compile-time query's kernel DoP at
/// `BrownoutController::kL1DopCap`, as it does on the chopping pools: the cap
/// is part of the shared operator step.
TEST(ChaosTest, BrownoutL1CapsGpuOnlyKernelDop) {
  // Four DoP tokens and 64-row morsels: uncapped kernels would use four
  // workers on any host.
  DopScope dop(/*threads=*/4, /*morsel_rows=*/64);
  TablePtr expected = Reference("Q3.1");
  EngineContext ctx(TestConfig(), ChaosDb());
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  ctx.brownout().ForceLevel(BrownoutLevel::kL1);
  const int cap = ctx.brownout().DopCap();
  ASSERT_GT(cap, 0);
  GlobalKernelMetrics().Reset();
  Result<TablePtr> result = runner.RunQuery(ChaosPlan("Q3.1"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(TablesEqual(*expected, *result.value()));
  uint64_t loops = 0;
  for (const auto& [name, histogram] :
       GlobalKernelMetrics().HistogramSnapshots()) {
    if (!name.ends_with(".dop")) continue;
    loops += histogram.count;
    EXPECT_LE(histogram.max, cap) << name;
  }
  EXPECT_GT(loops, 0u);
}

/// Tripping the breaker must automatically dump the flight recorder as
/// parseable JSONL: the post-mortem story (query summaries, the abort storm,
/// the closed->open transition, the dump reason) with no manual step.
TEST(ChaosTest, BreakerTripDumpsFlightRecorderJsonl) {
  DatabasePtr db = ChaosDb();
  EngineContext ctx(TestConfig(), db);
  ctx.breaker().Configure(SmallBreaker());
  const std::string dump_path =
      ::testing::TempDir() + "/hetdb_chaos_flight.jsonl";
  ctx.flight_recorder().SetAutoDumpPath(dump_path);

  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  ctx.simulator().fault_injector().SetSchedule(
      FaultSite::kDeviceAlloc,
      FaultSchedule::Always(FaultKind::kHeapExhausted));
  for (int round = 0; round < 2; ++round) {
    Result<TablePtr> result = runner.RunQuery(ChaosPlan("Q1.1"));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  ASSERT_GE(ctx.breaker().trips(), 1u);

  std::FILE* file = std::fopen(dump_path.c_str(), "r");
  ASSERT_NE(file, nullptr) << "breaker trip did not write " << dump_path;
  std::string content;
  char buffer[4096];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    content.append(buffer, read);
  }
  std::fclose(file);
  std::remove(dump_path.c_str());

  // Every line is one JSON object with the fixed header fields.
  ASSERT_FALSE(content.empty());
  ASSERT_EQ(content.back(), '\n');
  size_t lines = 0;
  size_t start = 0;
  while (start < content.size()) {
    const size_t end = content.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = content.substr(start, end - start);
    EXPECT_EQ(line.find("{\"seq\":"), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"kind\":\""), std::string::npos) << line;
    ++lines;
    start = end + 1;
  }
  EXPECT_GE(lines, 2u);
  // The dump carries the breaker transition and names its own trigger.
  EXPECT_NE(content.find("\"name\":\"breaker\""), std::string::npos)
      << content;
  EXPECT_NE(content.find("\"to\":\"open\""), std::string::npos) << content;
  EXPECT_NE(content.find("\"reason\":\"breaker_trip\""), std::string::npos)
      << content;
}

// ---------------------------------------------------------------------------
// Cancellation, deadlines, shutdown
// ---------------------------------------------------------------------------

TEST(ChaosTest, PreCancelledQueryFailsWithCancelled) {
  DatabasePtr db = ChaosDb();
  EngineContext ctx(TestConfig(), db);
  ChoppingExecutor executor(&ctx, 2, 2);
  QueryControls controls;
  controls.cancel = CancelToken::Create();
  controls.cancel.RequestCancel();
  auto future =
      executor.Submit(ChaosPlan("Q1.1"), MakeHypePlacer(), controls);
  Result<TablePtr> result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
}

TEST(ChaosTest, ExpiredDeadlineFailsWithCancelled) {
  DatabasePtr db = ChaosDb();
  EngineContext ctx(TestConfig(), db);
  ChoppingExecutor executor(&ctx, 2, 2);
  QueryControls controls;
  controls.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  Result<TablePtr> result =
      executor.ExecuteQuery(ChaosPlan("Q1.1"), MakeHypePlacer(), controls);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
}

TEST(ChaosTest, MidFlightCancelResolvesEveryFutureAndLeaksNothing) {
  DatabasePtr db = ChaosDb();
  TablePtr expected = Reference("Q1.1");
  EngineContext ctx(TestConfig(), db);
  {
    ChoppingExecutor executor(&ctx, 2, 2);
    std::vector<CancelToken> tokens;
    std::vector<std::future<Result<TablePtr>>> futures;
    for (int i = 0; i < 12; ++i) {
      QueryControls controls;
      controls.cancel = CancelToken::Create();
      tokens.push_back(controls.cancel);
      futures.push_back(
          executor.Submit(ChaosPlan("Q1.1"), MakeHypePlacer(), controls));
    }
    // Cancel every other query while they race through the pool.
    for (size_t i = 0; i < tokens.size(); i += 2) tokens[i].RequestCancel();
    for (size_t i = 0; i < futures.size(); ++i) {
      Result<TablePtr> result = futures[i].get();  // must never throw
      if (result.ok()) {
        EXPECT_TRUE(TablesEqual(*expected, *result.value()));
      } else {
        EXPECT_TRUE(result.status().IsCancelled())
            << result.status().ToString();
      }
    }
  }
  EXPECT_EQ(ctx.simulator().device_heap().used(), 0u);
}

/// The shutdown race: destroying the executor with queries in flight must
/// resolve every future (with the result or Cancelled — never
/// broken_promise) and release all device memory.
TEST(ChaosTest, DestructionWithInFlightQueriesStrandsNoFuture) {
  DatabasePtr db = ChaosDb();
  TablePtr expected = Reference("Q1.1");
  EngineContext ctx(TestConfig(), db);
  for (int cycle = 0; cycle < 20; ++cycle) {
    std::vector<std::future<Result<TablePtr>>> futures;
    {
      ChoppingExecutor executor(&ctx, 2, 2);
      for (int i = 0; i < 8; ++i) {
        futures.push_back(executor.Submit(ChaosPlan("Q1.1"),
                                          MakeDataDrivenPlacer()));
      }
      // Destructor fires with most queries still in flight.
    }
    for (auto& future : futures) {
      ASSERT_TRUE(future.valid());
      Result<TablePtr> result = future.get();  // throws if promise stranded
      if (result.ok()) {
        EXPECT_TRUE(TablesEqual(*expected, *result.value()));
      } else {
        EXPECT_TRUE(result.status().IsCancelled())
            << result.status().ToString();
      }
    }
    ASSERT_EQ(ctx.simulator().device_heap().used(), 0u) << "cycle " << cycle;
  }
}

/// Concurrent submitters plus immediate teardown: the destructor fires the
/// instant the last Submit returns, with nearly every query still in flight.
/// Every future must settle either way.
TEST(ChaosTest, ConcurrentSubmittersSurviveImmediateTeardown) {
  DatabasePtr db = ChaosDb();
  TablePtr expected = Reference("Q1.1");
  EngineContext ctx(TestConfig(), db);
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::vector<std::future<Result<TablePtr>>> futures;
    std::mutex futures_mutex;
    {
      ChoppingExecutor executor(&ctx, 2, 2);
      std::vector<std::thread> submitters;
      for (int t = 0; t < 3; ++t) {
        submitters.emplace_back([&] {
          for (int i = 0; i < 4; ++i) {
            auto future = executor.Submit(ChaosPlan("Q1.1"), MakeHypePlacer());
            std::lock_guard<std::mutex> lock(futures_mutex);
            futures.push_back(std::move(future));
          }
        });
      }
      for (std::thread& submitter : submitters) submitter.join();
      // Destructor races the in-flight queries, not the submitters.
    }
    for (auto& future : futures) {
      Result<TablePtr> result = future.get();
      if (result.ok()) {
        EXPECT_TRUE(TablesEqual(*expected, *result.value()));
      } else {
        EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
      }
    }
  }
  EXPECT_EQ(ctx.simulator().device_heap().used(), 0u);
}

// ---------------------------------------------------------------------------
// Fused pipelines under chaos (DESIGN.md §11)
// ---------------------------------------------------------------------------

/// Explicitly pre-fused plan for a query, asserting it really fused.
PlanNodePtr FusedChaosPlan(const std::string& query_name) {
  PlanNodePtr fused = FusePipelines(ChaosPlan(query_name));
  size_t fused_nodes = 0;
  VisitPlanPostOrder(fused, [&fused_nodes](const PlanNodePtr& node) {
    if (node->op() == PlanOp::kFusedPipeline) ++fused_nodes;
  });
  EXPECT_GE(fused_nodes, 1u) << query_name;
  return fused;
}

/// Fused pipelines run as single device tasks, so a fault mid-pipeline
/// classifies and retries/falls back like any operator: under mixed faults
/// the fused plan must still match the fault-free unfused reference.
TEST(ChaosTest, FusedPipelinesSurviveMixedFaultsWithParity) {
  DatabasePtr db = ChaosDb();
  for (Strategy strategy :
       {Strategy::kGpuOnly, Strategy::kDataDrivenChopping}) {
    EngineContext ctx(TestConfig(), db);
    {
      StrategyRunner runner(&ctx, strategy);
      runner.RefreshDataPlacement();
      FaultInjector& injector = ctx.simulator().fault_injector();
      injector.Reseed(0xf0f0u + static_cast<uint64_t>(strategy));
      injector.SetSchedule(
          FaultSite::kDeviceAlloc,
          FaultSchedule::WithProbability(FaultKind::kHeapExhausted, 0.3));
      injector.SetSchedule(
          FaultSite::kKernel,
          FaultSchedule::WithProbability(FaultKind::kTransient, 0.2));
      for (const char* name : kChaosQueries) {
        TablePtr expected = Reference(name);  // fault-free CPU reference
        for (int round = 0; round < 3; ++round) {
          Result<TablePtr> result = runner.RunQuery(FusedChaosPlan(name));
          ASSERT_TRUE(result.ok())
              << StrategyToString(strategy) << " " << name << ": "
              << result.status().ToString();
          EXPECT_TRUE(TablesEqual(*expected, *result.value()))
              << StrategyToString(strategy) << " " << name;
        }
      }
      EXPECT_GT(injector.total_faults(), 0u) << StrategyToString(strategy);
    }
    EXPECT_EQ(ctx.simulator().device_heap().used(), 0u)
        << StrategyToString(strategy);
  }
}

// ---------------------------------------------------------------------------
// Multi-device chaos: losing one of four co-processors (DESIGN.md §12)
// ---------------------------------------------------------------------------

SystemConfig FourDeviceConfig() {
  SystemConfig config = TestConfig();
  config.device_count = 4;
  return config;
}

/// Kill one of four devices while a concurrent sweep is in flight: every
/// query must still return the reference result — shards re-home to the
/// survivors, in-flight work on the dead device classifies as DeviceLost and
/// falls back, and no device byte stays stranded on the corpse.
TEST(MultiDeviceChaosTest, KillingOneOfFourMidSweepLosesNoQueries) {
  DatabasePtr db = ChaosDb();
  EngineContext ctx(FourDeviceConfig(), db);
  StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);
  // Warm phase trains access counts; the placement job then shards the hot
  // columns across all four devices, so there is device work to disrupt.
  for (const char* name : kChaosQueries) {
    ASSERT_TRUE(runner.RunQuery(ChaosPlan(name)).ok());
  }
  runner.RefreshDataPlacement();

  std::vector<TablePtr> expected;
  for (const char* name : kChaosQueries) expected.push_back(Reference(name));

  std::atomic<int> failed{0}, wrong{0};
  std::vector<std::thread> users;
  for (int u = 0; u < 4; ++u) {
    users.emplace_back([&, u] {
      for (int round = 0; round < 3; ++round) {
        const int q = (u + round) % 3;
        Result<TablePtr> result = runner.RunQuery(ChaosPlan(kChaosQueries[q]));
        if (!result.ok()) {
          ++failed;
        } else if (!TablesEqual(*expected[static_cast<size_t>(q)],
                                *result.value())) {
          ++wrong;
        }
      }
    });
  }
  // Device 2 falls off the bus mid-sweep: the injector refuses everything,
  // the sharding layer stops routing there, and its shard is re-sourced from
  // the host copies onto the survivors' own PCIe links.
  ctx.simulator().fault_injector(2).ForceOffline(1 << 20);
  ctx.sharding().MarkDeviceLost(2);
  ctx.sharding().RebalanceAway(2, /*source_reachable=*/false);
  for (std::thread& user : users) user.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ctx.simulator().device_heap(2).used(), 0u);
  EXPECT_EQ(ctx.cache(2).used_bytes(), 0u);
}

/// The breaker-trip path on a multi-device machine: an abort storm on one
/// device opens only that device's breaker; its shard migrates to survivors
/// over the D2D link (it is still on the bus); half-open probes close the
/// breaker again; and the restored device rejoins the placement pool.
TEST(MultiDeviceChaosTest, BreakerTripRebalancesThenHalfOpenRecoveryReadmits) {
  DatabasePtr db = ChaosDb();
  SystemConfig config = FourDeviceConfig();
  config.d2d_mbps = 1000.0;  // dedicated interconnect: migrate, don't reload
  EngineContext ctx(config, db);
  ctx.breaker(1).Configure(SmallBreaker());

  const std::string key = "lineorder.lo_quantity";
  ASSERT_TRUE(
      ctx.cache(1).Pin(db->GetColumnByQualifiedName(key).value(), key).ok());

  // Abort storm on device 1 only: its breaker opens, the others stay closed.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ctx.breaker(1).AllowDevice());
    ctx.breaker(1).RecordDeviceAbort();
  }
  ASSERT_EQ(ctx.breaker(1).state(), DeviceCircuitBreaker::State::kOpen);
  EXPECT_TRUE(ctx.breaker(0).device_available());
  EXPECT_TRUE(ctx.breaker(2).device_available());

  // The tripped device leaves the pool; its cached shard moves to the
  // survivors over the D2D path and the source cache empties.
  ctx.sharding().MarkDeviceLost(1);
  EXPECT_EQ(ctx.sharding().RebalanceAway(1, /*source_reachable=*/true), 1);
  EXPECT_GT(ctx.simulator().d2d_bytes(), 0u);
  EXPECT_EQ(ctx.cache(1).used_bytes(), 0u);
  const int new_home = ctx.sharding().AffinityDevice(key);
  ASSERT_GE(new_home, 0);
  ASSERT_NE(new_home, 1);
  EXPECT_TRUE(ctx.cache(new_home).IsCached(key));
  // Rebalancing converged: a second pass finds nothing left to move.
  EXPECT_EQ(ctx.sharding().RebalanceAway(1, /*source_reachable=*/true), 0);

  // Placement never offers device 1 while it is out, even with a resident
  // input pointing there.
  for (int i = 0; i < 8; ++i) {
    EXPECT_NE(ctx.sharding().PickDevice({}, {{1, 4096}}), 1);
  }

  // Recovery: open-state cooldown advances on placer peeks, two successful
  // probes close the breaker, and the device is re-admitted.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(ctx.breaker(1).device_available());
  ASSERT_EQ(ctx.breaker(1).state(), DeviceCircuitBreaker::State::kHalfOpen);
  ASSERT_TRUE(ctx.breaker(1).AllowDevice());
  ctx.breaker(1).RecordDeviceSuccess();
  ASSERT_TRUE(ctx.breaker(1).AllowDevice());
  ctx.breaker(1).RecordDeviceSuccess();
  ASSERT_EQ(ctx.breaker(1).state(), DeviceCircuitBreaker::State::kClosed);
  ctx.sharding().MarkDeviceRestored(1);

  // Re-admitted: resident-input affinity lands on device 1 again, and a
  // sweep over the recovered machine still returns correct results.
  EXPECT_EQ(ctx.sharding().PickDevice({}, {{1, 4096}, {1, 4096}}), 1);
  StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);
  for (const char* name : kChaosQueries) {
    TablePtr expected = Reference(name);
    Result<TablePtr> result = runner.RunQuery(ChaosPlan(name));
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_TRUE(TablesEqual(*expected, *result.value())) << name;
  }
}

/// Cancellation and deadlines apply to fused plans exactly as to unfused
/// ones: a fused pipeline is one schedulable unit, checked at the same
/// checkpoints, and never strands device memory.
TEST(ChaosTest, FusedPipelineRespectsCancellationAndDeadline) {
  DatabasePtr db = ChaosDb();
  EngineContext ctx(TestConfig(), db);
  {
    ChoppingExecutor executor(&ctx, 2, 2);
    {
      QueryControls controls;
      controls.cancel = CancelToken::Create();
      controls.cancel.RequestCancel();
      auto future =
          executor.Submit(FusedChaosPlan("Q2.1"), MakeHypePlacer(), controls);
      Result<TablePtr> result = future.get();
      ASSERT_FALSE(result.ok());
      EXPECT_TRUE(result.status().IsCancelled());
    }
    {
      QueryControls controls;
      controls.deadline =
          std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
      Result<TablePtr> result = executor.ExecuteQuery(
          FusedChaosPlan("Q2.1"), MakeHypePlacer(), controls);
      ASSERT_FALSE(result.ok());
      EXPECT_TRUE(result.status().IsCancelled());
    }
  }
  EXPECT_EQ(ctx.simulator().device_heap().used(), 0u);
}

}  // namespace
}  // namespace hetdb
