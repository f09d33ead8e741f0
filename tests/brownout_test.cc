// Graceful-degradation components in isolation (DESIGN.md §13): the
// brownout ladder's hysteresis and policy gates, the chaos-scenario DSL,
// the stuck-query watchdog, the breaker's wall-clock cooldown floor, and
// jittered retry backoff. Engine-level integration of the same machinery
// lives in chaos_test.cc and bench/fig26_availability.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/config.h"
#include "fault/brownout.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_injector.h"
#include "fault/scenario.h"
#include "fault/watchdog.h"
#include "sim/simulator.h"
#include "telemetry/metric_registry.h"
#include "telemetry/query_stats.h"
#include "tests/test_util.h"

namespace hetdb {
namespace {

// ---------------------------------------------------------------------------
// Brownout ladder
// ---------------------------------------------------------------------------

BrownoutController::Options FastBrownout() {
  BrownoutController::Options options;
  options.escalate_updates = 2;
  options.calm_updates = 2;
  options.hot_template_min_hits = 2;
  return options;
}

BrownoutSignals CalmSignals() { return BrownoutSignals{}; }

TEST(BrownoutTest, HysteresisNeedsAStreakBothWays) {
  BrownoutController brownout(FastBrownout(), /*device_count=*/1);
  EXPECT_EQ(brownout.level(), BrownoutLevel::kL0);
  EXPECT_EQ(brownout.DopCap(), 0);
  EXPECT_TRUE(brownout.AllowMultiJoinFusion());

  BrownoutSignals pressure;
  pressure.heap_pressure = 0.95;  // >= heap_l1, < heap_l2 -> target L1
  // One noisy window must not flip the system.
  EXPECT_EQ(brownout.Update(pressure), BrownoutLevel::kL0);
  EXPECT_EQ(brownout.Update(pressure), BrownoutLevel::kL1);
  EXPECT_EQ(brownout.DopCap(), FastBrownout().l1_dop_cap);
  EXPECT_FALSE(brownout.AllowMultiJoinFusion());
  EXPECT_TRUE(brownout.AllowCacheAdmission());  // that's an L2 restriction
  EXPECT_TRUE(brownout.DevicePlacementAllowed(0));

  // Recovery likewise requires sustained calm.
  EXPECT_EQ(brownout.Update(CalmSignals()), BrownoutLevel::kL1);
  EXPECT_EQ(brownout.Update(CalmSignals()), BrownoutLevel::kL0);
  EXPECT_EQ(brownout.DopCap(), 0);
  EXPECT_EQ(brownout.transitions(), 2u);
}

TEST(BrownoutTest, EscalatesOneLevelPerDecisionUpToSurvival) {
  BrownoutController::Options options = FastBrownout();
  options.escalate_updates = 1;
  MetricRegistry registry;
  BrownoutController brownout(options, /*device_count=*/2, &registry);

  BrownoutSignals dire;
  dire.all_breakers_open = true;  // target L3 from the start
  // One level at a time: each restriction gets a window to take effect.
  EXPECT_EQ(brownout.Update(dire), BrownoutLevel::kL1);
  EXPECT_EQ(brownout.Update(dire), BrownoutLevel::kL2);
  EXPECT_FALSE(brownout.AllowCacheAdmission());
  EXPECT_EQ(brownout.Update(dire), BrownoutLevel::kL3);
  EXPECT_EQ(brownout.Update(dire), BrownoutLevel::kL3);  // pinned at the top

  // L3 = CPU-only survival: nothing places on any device, hot or not.
  EXPECT_FALSE(brownout.DevicePlacementAllowed(0));
  EXPECT_FALSE(brownout.DevicePlacementAllowed(1));
  EXPECT_FALSE(brownout.AllowDeviceForTemplate(1234));
  EXPECT_EQ(registry.GetGauge("brownout.level").value(), 3);
  EXPECT_EQ(registry.GetCounter("brownout.transitions.L3").value(), 1);
}

TEST(BrownoutTest, L2AdmitsOnlyHotTemplates) {
  BrownoutController brownout(FastBrownout(), /*device_count=*/1);
  const uint64_t hot = 0xabcu, cold = 0xdefu;
  brownout.NoteQuery(hot);
  brownout.NoteQuery(hot);  // hot_template_min_hits = 2
  brownout.NoteQuery(cold);

  // L0/L1: every template may use the device.
  EXPECT_TRUE(brownout.AllowDeviceForTemplate(cold));
  brownout.ForceLevel(BrownoutLevel::kL2);
  EXPECT_TRUE(brownout.AllowDeviceForTemplate(hot));
  EXPECT_FALSE(brownout.AllowDeviceForTemplate(cold));
  EXPECT_FALSE(brownout.AllowDeviceForTemplate(0x999u));  // never seen
  brownout.ForceLevel(BrownoutLevel::kL3);
  EXPECT_FALSE(brownout.AllowDeviceForTemplate(hot));

  brownout.Reset();
  EXPECT_EQ(brownout.level(), BrownoutLevel::kL0);
  brownout.ForceLevel(BrownoutLevel::kL2);
  // Reset cleared the hotness map: everything is cold again.
  EXPECT_FALSE(brownout.AllowDeviceForTemplate(hot));
}

TEST(BrownoutTest, L2BenchesThrashingDeviceUnlessAllThrash) {
  BrownoutController::Options options = FastBrownout();
  options.escalate_updates = 1;
  BrownoutController brownout(options, /*device_count=*/2);

  BrownoutSignals signals;
  signals.worst_thrash_state = 2;  // target L2
  signals.device_thrashing = {true, false};
  EXPECT_EQ(brownout.Update(signals), BrownoutLevel::kL1);
  EXPECT_EQ(brownout.Update(signals), BrownoutLevel::kL2);
  EXPECT_FALSE(brownout.DevicePlacementAllowed(0));
  EXPECT_TRUE(brownout.DevicePlacementAllowed(1));

  // When every device thrashes, excluding all of them is pointless — the
  // L2 template gate carries the restriction instead.
  signals.device_thrashing = {true, true};
  brownout.Update(signals);
  EXPECT_TRUE(brownout.DevicePlacementAllowed(0));
  EXPECT_TRUE(brownout.DevicePlacementAllowed(1));
}

TEST(BrownoutTest, AdmissionProbeFeedsQueueAndShedSignals) {
  BrownoutController::Options options = FastBrownout();
  options.escalate_updates = 1;
  BrownoutController brownout(options, /*device_count=*/1);
  std::atomic<int> queued{0};
  brownout.SetAdmissionProbe([&queued] {
    BrownoutAdmissionProbe probe;
    probe.queued = queued.load();
    return probe;
  });
  // Shallow queue: calm.
  EXPECT_EQ(brownout.Update(CalmSignals()), BrownoutLevel::kL0);
  // Deep queue alone (>= queue_depth_l1) is an L1 signal.
  queued.store(options.queue_depth_l1);
  EXPECT_EQ(brownout.Update(CalmSignals()), BrownoutLevel::kL1);
  brownout.SetAdmissionProbe(nullptr);  // probe gone: signal disappears
  EXPECT_EQ(brownout.Update(CalmSignals()), BrownoutLevel::kL1);
  EXPECT_EQ(brownout.Update(CalmSignals()), BrownoutLevel::kL0);
}

// ---------------------------------------------------------------------------
// Chaos-scenario DSL and orchestrator
// ---------------------------------------------------------------------------

TEST(ScenarioTest, ParsesTimelineAndRoundTrips) {
  const std::string text =
      "# failure timeline\n"
      "\n"
      "at 1.0s for 2.0s device-loss device=1 name=dev1_down\n"
      "at 4.0s for 1.5s latency-storm p=0.5 factor=8 name=pcie_storm\n"
      "at 6.0s for 1.0s heap-squeeze p=0.7 min-bytes=65536\n";
  Result<ChaosScenario> scenario = ChaosScenario::Parse(text);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  ASSERT_EQ(scenario->episodes.size(), 3u);
  const ChaosEpisode& loss = scenario->episodes[0];
  EXPECT_DOUBLE_EQ(loss.start_s, 1.0);
  EXPECT_DOUBLE_EQ(loss.duration_s, 2.0);
  EXPECT_EQ(loss.kind, ChaosEpisodeKind::kDeviceLoss);
  EXPECT_EQ(loss.device, 1);
  EXPECT_EQ(loss.name, "dev1_down");
  const ChaosEpisode& storm = scenario->episodes[1];
  EXPECT_EQ(storm.kind, ChaosEpisodeKind::kLatencyStorm);
  EXPECT_DOUBLE_EQ(storm.probability, 0.5);
  EXPECT_DOUBLE_EQ(storm.latency_factor, 8.0);
  EXPECT_EQ(storm.device, -1);  // default: every device
  const ChaosEpisode& squeeze = scenario->episodes[2];
  EXPECT_EQ(squeeze.kind, ChaosEpisodeKind::kHeapSqueeze);
  EXPECT_EQ(squeeze.min_bytes, 65536u);

  // ToString -> Parse is the identity on the fields that matter.
  Result<ChaosScenario> reparsed = ChaosScenario::Parse(scenario->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->episodes.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reparsed->episodes[i].kind, scenario->episodes[i].kind) << i;
    EXPECT_DOUBLE_EQ(reparsed->episodes[i].start_s,
                     scenario->episodes[i].start_s)
        << i;
    EXPECT_DOUBLE_EQ(reparsed->episodes[i].duration_s,
                     scenario->episodes[i].duration_s)
        << i;
    EXPECT_EQ(reparsed->episodes[i].device, scenario->episodes[i].device) << i;
  }
}

TEST(ScenarioTest, RejectsMalformedLines) {
  EXPECT_FALSE(ChaosScenario::Parse("at 1.0s device-loss").ok());
  EXPECT_FALSE(ChaosScenario::Parse("at 1.0s for 2.0s meteor-strike").ok());
  EXPECT_FALSE(
      ChaosScenario::Parse("at 1.0s for 2.0s device-loss bogus=1").ok());
  EXPECT_FALSE(ChaosScenario::Parse("at x for 2.0s device-loss").ok());
  // Every value parses as one whole, in-range token.
  for (const char* line : {
           "at 1.0s for 2.0s device-loss device=abc",
           "at 1.0s for 2.0s device-loss device=-7",
           "at 1.0s for 2.0s heap-squeeze p=abc",
           "at 1.0s for 2.0s heap-squeeze p=0.5x",
           "at 1.0s for 2.0s heap-squeeze p=nan",
           "at 1.0s for 2.0s heap-squeeze min-bytes=-1",
           "at 1.0s for 2.0s heap-squeeze min-bytes=64k",
           "at 1.0s for 2.0s latency-storm factor=8x",
           "at 1.0s for 2.0s latency-storm factor=inf",
           "at infs for 2.0s device-loss",
           "at 1.0s for infs device-loss",
       }) {
    EXPECT_FALSE(ChaosScenario::Parse(line).ok()) << line;
  }
}

TEST(ScenarioTest, ManualSteppingAppliesComposesAndRestores) {
  Result<ChaosScenario> scenario = ChaosScenario::Parse(
      "at 0.0s for 1.0s device-loss device=0 name=down\n"
      "at 0.0s for 2.0s heap-squeeze device=0 p=1.0 min-bytes=100\n");
  ASSERT_TRUE(scenario.ok());
  FaultInjector injector(7);
  int lost = 0, restored = 0;
  ScenarioOrchestrator::Hooks hooks;
  hooks.on_device_lost = [&lost](int) { ++lost; };
  hooks.on_device_restored = [&restored](int) { ++restored; };
  ScenarioOrchestrator orchestrator(std::move(scenario).value(), {&injector},
                                    nullptr, nullptr, hooks);

  orchestrator.ApplyEpisode(0);
  orchestrator.ApplyEpisode(0);  // idempotent
  EXPECT_EQ(lost, 1);
  EXPECT_EQ(orchestrator.active_episodes(), 1);
  EXPECT_EQ(injector.Decide(FaultSite::kKernel).kind, FaultKind::kDeviceLost);

  // Overlap: squeeze joins the loss; ending the loss must not clobber it.
  orchestrator.ApplyEpisode(1);
  orchestrator.EndEpisode(0);
  EXPECT_EQ(restored, 1);
  EXPECT_EQ(orchestrator.active_episodes(), 1);
  EXPECT_EQ(injector.Decide(FaultSite::kKernel).kind, FaultKind::kNone);
  EXPECT_EQ(injector.Decide(FaultSite::kDeviceAlloc, 4096).kind,
            FaultKind::kHeapExhausted);
  EXPECT_EQ(injector.Decide(FaultSite::kDeviceAlloc, 50).kind,
            FaultKind::kNone);  // below min-bytes

  orchestrator.EndEpisode(1);
  EXPECT_EQ(orchestrator.active_episodes(), 0);
  EXPECT_EQ(injector.Decide(FaultSite::kDeviceAlloc, 4096).kind,
            FaultKind::kNone);
}

// ---------------------------------------------------------------------------
// Stuck-query watchdog
// ---------------------------------------------------------------------------

/// Watchdog options for deterministic tests: background scanner parked
/// (scan_period 0); the test drives CheckNow().
StuckQueryWatchdog::Options ManualWatchdog() {
  StuckQueryWatchdog::Options options;
  options.scan_period_micros = 0;
  return options;
}

TEST(WatchdogTest, StallKillsThroughTheQuerysOwnToken) {
  StuckQueryWatchdog::Options options = ManualWatchdog();
  options.stall_micros = 250'000;
  options.deadline_multiple = 0;
  MetricRegistry registry;
  StuckQueryWatchdog watchdog(options, &registry);

  QueryStatsPtr stats = std::make_shared<QueryStats>();
  CancelToken cancel = CancelToken::Create();
  watchdog.Register(/*query_id=*/7, stats, cancel, {}, /*has_deadline=*/false);
  EXPECT_EQ(watchdog.active(), 1u);

  // Steady progress defers the stall clock indefinitely.
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stats->OnRun(1000, nullptr);
    watchdog.CheckNow();
    ASSERT_FALSE(cancel.cancelled()) << "iteration " << i;
  }

  // Progress stops; once stall_micros elapse the watchdog fires.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  watchdog.CheckNow();
  EXPECT_TRUE(cancel.cancelled());
  EXPECT_EQ(watchdog.fires(), 1u);
  EXPECT_TRUE(watchdog.WasKilled(7));
  EXPECT_EQ(registry.GetCounter("watchdog.fires.stall").value(), 1);

  // A second scan must not double-fire, and the kill verdict survives
  // Deregister (the serving layer checks after the future settles).
  watchdog.CheckNow();
  EXPECT_EQ(watchdog.fires(), 1u);
  watchdog.Deregister(7);
  EXPECT_EQ(watchdog.active(), 0u);
  EXPECT_TRUE(watchdog.WasKilled(7));
}

TEST(WatchdogTest, DeadlineMultipleKillsEvenWithProgress) {
  StuckQueryWatchdog::Options options = ManualWatchdog();
  options.stall_micros = 0;  // isolate the deadline-multiple trigger
  options.deadline_multiple = 2.0;
  MetricRegistry registry;
  StuckQueryWatchdog watchdog(options, &registry);

  QueryStatsPtr stats = std::make_shared<QueryStats>();
  CancelToken cancel = CancelToken::Create();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
  watchdog.Register(9, stats, cancel, deadline, /*has_deadline=*/true);
  watchdog.CheckNow();
  EXPECT_FALSE(cancel.cancelled());  // still inside the budget

  // A query can be *making* progress and still be multiples past its
  // deadline — the executor's own deadline checkpoints have clearly
  // stopped firing, so the watchdog steps in.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  stats->OnRun(1000, nullptr);
  watchdog.CheckNow();
  EXPECT_TRUE(cancel.cancelled());
  EXPECT_TRUE(watchdog.WasKilled(9));
  EXPECT_EQ(registry.GetCounter("watchdog.fires.deadline_multiple").value(),
            1);
}

TEST(WatchdogTest, DisabledOrInertTokenNeverWatches) {
  StuckQueryWatchdog::Options disabled = ManualWatchdog();
  disabled.enabled = false;
  StuckQueryWatchdog off(disabled);
  off.Register(1, std::make_shared<QueryStats>(), CancelToken::Create(), {},
               false);
  EXPECT_EQ(off.active(), 0u);

  // A default-constructed token cannot be cancelled; watching it would be
  // a fire with no effect.
  StuckQueryWatchdog watchdog(ManualWatchdog());
  watchdog.Register(2, std::make_shared<QueryStats>(), CancelToken(), {},
                    false);
  EXPECT_EQ(watchdog.active(), 0u);
  EXPECT_FALSE(watchdog.WasKilled(2));
}

// ---------------------------------------------------------------------------
// Breaker wall-clock cooldown floor
// ---------------------------------------------------------------------------

DeviceCircuitBreaker::Options TrippyBreaker() {
  DeviceCircuitBreaker::Options options;
  options.window = 8;
  options.min_samples = 4;
  options.trip_ratio = 0.5;
  return options;
}

TEST(BreakerCooldownTest, WallClockFloorHalfOpensAnIdleBreaker) {
  DeviceCircuitBreaker::Options options = TrippyBreaker();
  options.cooldown_denials = 1'000'000;  // unreachable: only time can act
  options.cooldown_micros = 5'000;
  DeviceCircuitBreaker breaker(options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(breaker.AllowDevice());
    breaker.RecordDeviceAbort();
  }
  ASSERT_EQ(breaker.state(), DeviceCircuitBreaker::State::kOpen);
  // Inside the floor: still denied.
  EXPECT_FALSE(breaker.AllowDevice());
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kOpen);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // The floor elapsed with *no* traffic at all — the next peek half-opens
  // the breaker instead of wedging it open forever.
  EXPECT_TRUE(breaker.device_available());
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kHalfOpen);
  ASSERT_TRUE(breaker.AllowDevice());  // admitted as a probe
  breaker.RecordDeviceSuccess();
  ASSERT_TRUE(breaker.AllowDevice());
  breaker.RecordDeviceSuccess();
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kClosed);
}

TEST(BreakerCooldownTest, ZeroFloorKeepsPureDenialCountedCooldown) {
  DeviceCircuitBreaker::Options options = TrippyBreaker();
  options.cooldown_denials = 4;
  options.cooldown_micros = 0;  // floor disabled: deterministic test mode
  DeviceCircuitBreaker breaker(options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(breaker.AllowDevice());
    breaker.RecordDeviceAbort();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Time alone must not half-open it; only the counted denials do.
  EXPECT_FALSE(breaker.AllowDevice());
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kOpen);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(breaker.AllowDevice());
  EXPECT_EQ(breaker.state(), DeviceCircuitBreaker::State::kHalfOpen);
}

// ---------------------------------------------------------------------------
// Jittered retry backoff
// ---------------------------------------------------------------------------

TEST(RetryJitterTest, SeededJitterIsReproducibleAndBounded) {
  SystemConfig config = TestConfig();
  config.device_retry_backoff_micros = 50.0;
  Simulator a(config), b(config);
  for (int attempt = 0; attempt < 6; ++attempt) {
    const double ceiling = 50.0 * static_cast<double>(1 << attempt);
    const double va = a.RetryBackoffMicros(attempt);
    // Full jitter: uniform in [0, ceiling), same seed -> same draw.
    EXPECT_GE(va, 0.0);
    EXPECT_LT(va, ceiling);
    EXPECT_DOUBLE_EQ(va, b.RetryBackoffMicros(attempt)) << attempt;
  }

  // A different seed decorrelates the sequences (synchronized retry storms
  // are exactly what the jitter exists to break up).
  config.retry_jitter_seed = 0x0ddba11u;
  Simulator c(config);
  bool any_different = false;
  for (int attempt = 0; attempt < 6; ++attempt) {
    if (a.RetryBackoffMicros(attempt) != c.RetryBackoffMicros(attempt)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(RetryJitterTest, JitterOffYieldsDeterministicExponential) {
  SystemConfig config = TestConfig();
  config.device_retry_backoff_micros = 50.0;
  config.device_retry_jitter = false;
  Simulator sim(config);
  EXPECT_DOUBLE_EQ(sim.RetryBackoffMicros(0), 50.0);
  EXPECT_DOUBLE_EQ(sim.RetryBackoffMicros(1), 100.0);
  EXPECT_DOUBLE_EQ(sim.RetryBackoffMicros(3), 400.0);
  EXPECT_DOUBLE_EQ(sim.RetryBackoffMicros(3), 400.0);  // no hidden state
}

}  // namespace
}  // namespace hetdb
