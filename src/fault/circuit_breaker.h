#ifndef HETDB_FAULT_CIRCUIT_BREAKER_H_
#define HETDB_FAULT_CIRCUIT_BREAKER_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/flight_recorder.h"
#include "telemetry/metric_registry.h"

namespace hetdb {

/// Abort-storm detector for the co-processor.
///
/// The paper shows that under heap contention a device operator's abort is
/// not an isolated event: once the heap is oversubscribed, *most* device
/// operators abort, each paying the wasted start-to-abort time of Figure 20
/// before restarting on the CPU. The breaker turns that pattern into a
/// cheap, global decision: when the recent device abort ratio crosses a
/// threshold, stop *sending* operators to the device at all (trip to
/// CPU-only), then probe cautiously (half-open) and restore full device
/// placement once probes succeed.
///
/// States:
///
///   kClosed   — normal operation; device attempts are admitted and their
///               outcomes recorded in a sliding window. When the window has
///               >= min_samples outcomes and the abort ratio reaches
///               trip_ratio, the breaker opens.
///   kOpen     — every AllowDevice() is denied (operators run CPU-only).
///               After cooldown_denials denials — or once cooldown_micros of
///               wall time have elapsed since the trip, whichever comes
///               first — the breaker half-opens. The denial count keeps the
///               state machine deterministic under the no-sleep unit test
///               configuration; the wall-clock floor keeps an *idle* device
///               from staying open forever when there is no traffic to count
///               (the first request after the floor elapses is admitted as a
///               probe).
///   kHalfOpen — up to half_open_probes concurrent device attempts are
///               admitted. probes_to_close successes close the breaker; any
///               abort re-opens it.
///
/// A DeviceLost abort trips the breaker immediately regardless of the
/// window — one "device fell off the bus" is enough.
///
/// Thread-safe; every transition is counted and mirrored into bound metrics
/// (`breaker.state` gauge, `breaker.trips` / `breaker.denials` /
/// `breaker.transitions` counters).
class DeviceCircuitBreaker {
 public:
  /// Ordered by severity, as the thrash states and brownout levels are; the
  /// `breaker.state` gauge reads these values.
  enum class State { kClosed = 0, kHalfOpen = 1, kOpen = 2 };

  struct Options {
    /// Sliding window of recent device-attempt outcomes.
    int window = 32;
    /// Outcomes needed in the window before the trip test applies.
    int min_samples = 12;
    /// Abort ratio in the window that trips the breaker.
    double trip_ratio = 0.6;
    /// Denied device requests in kOpen before probing (half-open).
    int cooldown_denials = 16;
    /// Wall-clock floor on the open-state cooldown: once this much time has
    /// passed since the trip, the next request half-opens the breaker even
    /// if fewer than cooldown_denials requests arrived meanwhile. 0 disables
    /// the floor (pure request-counted cooldown, for deterministic tests).
    uint64_t cooldown_micros = 250'000;
    /// Concurrent device probes admitted while half-open.
    int half_open_probes = 2;
    /// Probe successes needed to close again.
    int probes_to_close = 2;
  };

  DeviceCircuitBreaker();  // default options, no metrics
  /// `recorder` (optional) receives every state transition; a trip to kOpen
  /// additionally triggers an automatic flight-recorder dump so the ring's
  /// history around the abort storm is preserved. `metric_prefix` is
  /// prepended to every exported metric name — empty for device 0 (the
  /// legacy single-device names), "deviceN." for later devices.
  explicit DeviceCircuitBreaker(const Options& options,
                                MetricRegistry* registry = nullptr,
                                FlightRecorder* recorder = nullptr,
                                std::string metric_prefix = "");

  DeviceCircuitBreaker(const DeviceCircuitBreaker&) = delete;
  DeviceCircuitBreaker& operator=(const DeviceCircuitBreaker&) = delete;

  /// Replaces the options and resets to kClosed (tests reconfigure windows).
  void Configure(const Options& options);

  /// Gate consulted by ExecuteWithFallback before a device attempt. Denials
  /// while open advance the cooldown; admissions while half-open consume
  /// probe slots. Exactly one RecordDevice{Success,Abort} must follow every
  /// admitted attempt.
  bool AllowDevice();

  /// Non-consuming peek for run-time placers: false only while the breaker
  /// is open (placing on the device would be denied at execution anyway).
  /// Also advances the open-state cooldown so a placer-only workload cannot
  /// wedge the breaker open forever.
  bool device_available();

  void RecordDeviceSuccess();
  void RecordDeviceAbort(bool device_lost = false);

  State state() const;
  uint64_t trips() const;
  uint64_t denials() const;

  /// Back to kClosed with an empty window.
  void Reset();

 private:
  void TransitionLocked(State next);
  /// Pushes one closed-state outcome into the sliding window.
  void PushOutcomeLocked(bool abort);
  void DenyLocked();
  /// Half-opens an open breaker whose wall-clock cooldown floor has elapsed.
  void MaybeCooldownLocked();

  mutable std::mutex mutex_;
  Options options_;
  State state_ = State::kClosed;
  std::vector<bool> window_;  // ring buffer; true = abort
  int window_next_ = 0;
  int window_count_ = 0;
  int window_aborts_ = 0;
  int cooldown_denials_seen_ = 0;
  std::chrono::steady_clock::time_point opened_at_{};
  int probes_inflight_ = 0;
  int probe_successes_ = 0;
  uint64_t trips_ = 0;
  uint64_t denials_ = 0;
  MetricRegistry* registry_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  std::string metric_prefix_;
};

const char* BreakerStateToString(DeviceCircuitBreaker::State state);

}  // namespace hetdb

#endif  // HETDB_FAULT_CIRCUIT_BREAKER_H_
