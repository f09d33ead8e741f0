// Graceful-degradation components in isolation (DESIGN.md §13): the
// brownout ladder's hysteresis and policy gates, the stuck-query watchdog,
// the breaker's wall-clock cooldown floor, and jittered retry backoff.
// Engine-level integration of the same machinery lives in chaos_test.cc and
// bench/fig26_availability.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/config.h"
#include "common/rng.h"
#include "fault/brownout.h"
#include "fault/circuit_breaker.h"
#include "fault/watchdog.h"
#include "sim/simulator.h"
#include "telemetry/detector.h"
#include "telemetry/flight_recorder.h"
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

  BrownoutSignals pressure;
  pressure.heap_pressure = 0.95;  // >= kHeapL1, < kHeapL2 -> target L1
  // One noisy window must not flip the system.
  EXPECT_EQ(brownout.Update(pressure), BrownoutLevel::kL0);
  EXPECT_EQ(brownout.Update(pressure), BrownoutLevel::kL1);
  EXPECT_EQ(brownout.DopCap(), BrownoutController::kL1DopCap);
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
  // Deep queue alone (>= BrownoutController::kQueueDepthL1) is an L1
  // signal.
  queued.store(BrownoutController::kQueueDepthL1);
  EXPECT_EQ(brownout.Update(CalmSignals()), BrownoutLevel::kL1);
  brownout.SetAdmissionProbe(nullptr);  // probe gone: signal disappears
  EXPECT_EQ(brownout.Update(CalmSignals()), BrownoutLevel::kL1);
  EXPECT_EQ(brownout.Update(CalmSignals()), BrownoutLevel::kL0);
}

// ---------------------------------------------------------------------------
// Ladder characterization
// ---------------------------------------------------------------------------

/// "<component> <from>><to>" for every state transition in the recorder.
std::vector<std::string> Transitions(const FlightRecorder& recorder) {
  std::vector<std::string> out;
  for (const FlightRecord& record : recorder.Snapshot()) {
    if (record.kind != FlightRecord::Kind::kStateTransition) continue;
    out.push_back(record.name + " " + record.fields[0].second + ">" +
                  record.fields[1].second);
  }
  return out;
}

/// One thrashing detector, one brownout controller (with an admission probe)
/// and one breaker with default settings, fed 200 seeded windows the way
/// EngineContext::NoteQueryFinished feeds them. Regimes of eight windows
/// (calm .. storm) build streaks; a same-level ForceLevel every seventh
/// window must keep the brownout's streaks, and a forced level and a
/// detector Reset must clear them. The expected lists were recorded from the
/// controllers' own streak counters, before the shared Hysteresis, and pin
/// the damping rule that replaced them.
TEST(LadderCharacterizationTest, SeededWindowsReplayTheRecordedTransitions) {
  FlightRecorder recorder(4096);
  ThrashingDetector detector(ThrashingDetector::Options(), nullptr, &recorder);
  BrownoutController brownout(BrownoutController::Options(), 1, nullptr,
                              &recorder);
  DeviceCircuitBreaker::Options breaker_options;
  breaker_options.cooldown_micros = 0;  // denial-counted cooldown only
  DeviceCircuitBreaker breaker(breaker_options, nullptr, &recorder);
  BrownoutAdmissionProbe admission;
  brownout.SetAdmissionProbe([&admission] { return admission; });

  Rng rng(0x1add3e);
  ThrashingDetector::Sample sample;
  sample.heap_capacity_bytes = 1000;
  BrownoutSignals signals;
  int regime = 0;  // 0 calm, 1 pressure, 2 thrashing, 3 storm
  for (int window = 0; window < 200; ++window) {
    if (window % 8 == 0) regime = static_cast<int>(rng.Uniform(0, 3));
    const double abort_p = std::vector<double>{0.05, 0.2, 0.5, 0.9}[regime];
    for (int64_t call = rng.Uniform(2, 10); call > 0; --call) {
      if (!breaker.AllowDevice()) continue;
      if (rng.NextBool(abort_p)) {
        breaker.RecordDeviceAbort(regime == 3 && rng.NextBool(0.02));
      } else {
        breaker.RecordDeviceSuccess();
      }
    }

    const int64_t misses = rng.Uniform(0, 2 + 2 * regime);
    sample.cache_hits += rng.Uniform(0, 6);
    sample.cache_misses += misses;
    sample.cache_evictions += regime >= 2 ? misses : rng.Uniform(0, 1);
    const int64_t attempts = rng.Uniform(4, 16);
    sample.gpu_attempts += attempts;
    sample.gpu_aborts += rng.Uniform(0, attempts * regime / 4);
    sample.failed_allocations += regime == 3 && rng.NextBool(0.5) ? 1 : 0;
    sample.heap_used_bytes = rng.Uniform(500, 880 + 40 * regime);
    if (window == 160) detector.Reset();
    const ThrashingDetector::State thrash = detector.Update(sample);

    signals.worst_thrash_state = static_cast<int>(thrash);
    signals.device_thrashing = {thrash == ThrashingDetector::State::kThrashing};
    signals.any_breaker_open = !breaker.device_available();
    signals.all_breakers_open = signals.any_breaker_open;
    signals.any_breaker_half_open =
        breaker.state() == DeviceCircuitBreaker::State::kHalfOpen;
    signals.heap_pressure = static_cast<double>(sample.heap_used_bytes) /
                            static_cast<double>(sample.heap_capacity_bytes);
    signals.gpu_attempts = sample.gpu_attempts;
    signals.gpu_aborts = sample.gpu_aborts;
    admission.queued = static_cast<int>(rng.Uniform(0, 24 + 8 * regime));
    admission.offered += 10;
    admission.shed += static_cast<uint64_t>(rng.Uniform(0, regime));
    if (window % 7 == 3) brownout.ForceLevel(brownout.level());
    if (window == 100) brownout.ForceLevel(BrownoutLevel::kL2);
    brownout.Update(signals);
  }

  const std::vector<std::string> expected = {
      "thrash_detector calm>pressure", "brownout L0>L1",
      "thrash_detector pressure>thrashing", "brownout L1>L2",
      "thrash_detector thrashing>pressure", "thrash_detector pressure>calm",
      "brownout L2>L1", "thrash_detector calm>thrashing", "brownout L1>L2",
      "breaker closed>open", "brownout L2>L3", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>open", "thrash_detector thrashing>pressure",
      "breaker open>half_open", "breaker half_open>closed",
      "thrash_detector pressure>calm", "brownout L3>L2", "brownout L2>L1",
      "brownout L1>L0", "thrash_detector calm>thrashing", "brownout L0>L1",
      "breaker closed>open", "brownout L1>L2", "breaker open>half_open",
      "breaker half_open>open", "brownout L2>L3", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>open", "breaker open>half_open",
      "breaker half_open>closed", "thrash_detector thrashing>pressure",
      "brownout L3>L2", "thrash_detector pressure>calm", "brownout L2>L1",
      "thrash_detector calm>pressure", "thrash_detector pressure>thrashing",
      "breaker closed>open", "brownout L1>L2", "brownout L2>L3",
      "breaker open>half_open", "breaker half_open>open",
      "breaker open>half_open", "breaker half_open>closed",
      "thrash_detector thrashing>pressure", "brownout L3>L2", "brownout L2>L1",
      "thrash_detector pressure>thrashing", "brownout L1>L2",
      "thrash_detector thrashing>pressure", "brownout L2>L1",
      "thrash_detector pressure>calm", "thrash_detector calm>pressure",
      "thrash_detector pressure>calm", "brownout L1>L0", "brownout L0>L1",
      "thrash_detector calm>pressure", "thrash_detector pressure>calm",
      "brownout L1>L0", "brownout L0>L1", "brownout L1>L0",
      "thrash_detector calm>pressure", "breaker closed>open", "brownout L0>L1",
      "thrash_detector pressure>thrashing", "breaker open>half_open",
      "breaker half_open>open", "brownout L1>L2", "breaker open>half_open",
      "breaker half_open>open", "brownout L2>L3", "breaker open>half_open",
      "breaker half_open>closed", "brownout L3>L2", "brownout L2>L1",
      "brownout L1>L0", "brownout L0>L1",
  };
  EXPECT_EQ(Transitions(recorder), expected);
  EXPECT_EQ(breaker.trips(), 22u);
  EXPECT_EQ(breaker.denials(), 352u);
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

TEST(BreakerStateGaugeTest, ReadsZeroOneTwoForClosedHalfOpenOpen) {
  DeviceCircuitBreaker::Options options = TrippyBreaker();
  options.cooldown_denials = 1;
  options.cooldown_micros = 0;
  MetricRegistry registry;
  DeviceCircuitBreaker breaker(options, &registry);
  Gauge& gauge = registry.GetGauge("breaker.state");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(breaker.AllowDevice());
    breaker.RecordDeviceAbort();
  }
  ASSERT_EQ(breaker.state(), DeviceCircuitBreaker::State::kOpen);
  EXPECT_EQ(gauge.value(), 2);
  EXPECT_FALSE(breaker.AllowDevice());  // the one cooldown denial
  ASSERT_EQ(breaker.state(), DeviceCircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(gauge.value(), 1);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.AllowDevice());
    breaker.RecordDeviceSuccess();
  }
  ASSERT_EQ(breaker.state(), DeviceCircuitBreaker::State::kClosed);
  EXPECT_EQ(gauge.value(), 0);
}

// ---------------------------------------------------------------------------
// Jittered retry backoff
// ---------------------------------------------------------------------------

TEST(RetryJitterTest, SeededJitterIsReproducibleAndBounded) {
  const SystemConfig config = TestConfig();
  Simulator a(config), b(config);
  for (int attempt = 0; attempt < 6; ++attempt) {
    const double ceiling = Simulator::kRetryBackoffBaseMicros *
                           static_cast<double>(1 << attempt);
    const double va = a.RetryBackoffMicros(attempt);
    // Full jitter: uniform in [0, ceiling), same seed -> same draw.
    EXPECT_GE(va, 0.0);
    EXPECT_LT(va, ceiling);
    EXPECT_DOUBLE_EQ(va, b.RetryBackoffMicros(attempt)) << attempt;
  }

  // Sessions share one simulator's RNG, so successive draws at one attempt
  // differ: sessions burned by one fault burst do not retry in lockstep.
  const double first = a.RetryBackoffMicros(3);
  bool any_different = false;
  for (int draw = 0; draw < 5; ++draw) {
    if (a.RetryBackoffMicros(3) != first) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

}  // namespace
}  // namespace hetdb
