#ifndef HETDB_TELEMETRY_DETECTOR_H_
#define HETDB_TELEMETRY_DETECTOR_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "common/hysteresis.h"

namespace hetdb {

class FlightRecorder;
class MetricRegistry;

/// Detects the paper's fig-2/fig-5 failure mode — device-heap contention and
/// cache thrashing collapsing co-processor throughput — *while it happens*,
/// from derived signals over counters the engine already maintains.
///
/// The engine feeds the detector one cumulative `Sample` per finished query
/// (see EngineContext::NoteQueryFinished); the detector windows consecutive
/// samples into deltas and computes three signals:
///
///   - heap pressure:    device-heap bytes in use / capacity, or any failed
///                       device allocations in the window
///   - eviction churn:   cache evictions per cache access in the window
///                       (a hot working set evicts ~nothing; thrashing
///                       re-loads and evicts on almost every access)
///   - abort ratio:      GPU operator aborts / GPU operator attempts
///
/// Signal counts above thresholds map to a state — kCalm (0 signals),
/// kPressure (1), kThrashing (>= 2 or abort storm) — damped by the ladder's
/// Hysteresis, rising straight to the observed state, so one noisy window
/// cannot flip the state back and forth.
/// State is published as the `thrash.state` gauge (its numeric value),
/// `thrash.transitions` counter, a trace instant event, and a flight-recorder
/// state transition, so EXPLAIN ANALYZE consumers, traces, and post-mortem
/// dumps all see the same classification.
class ThrashingDetector {
 public:
  enum class State { kCalm = 0, kPressure = 1, kThrashing = 2 };

  struct Options {
    /// Consecutive qualifying windows before escalating the state.
    int escalate_updates = 2;
    /// Consecutive calm windows before de-escalating.
    int calm_updates = 3;
  };

  /// Cumulative engine counters at one observation point. The detector
  /// differences consecutive samples itself; callers just read the current
  /// totals (cache stats, workload counters, allocator state).
  struct Sample {
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
    int64_t cache_evictions = 0;
    int64_t gpu_aborts = 0;        ///< cumulative GPU operator aborts
    int64_t gpu_attempts = 0;      ///< cumulative GPU operator attempts
    int64_t failed_allocations = 0;
    int64_t heap_used_bytes = 0;   ///< instantaneous
    int64_t heap_capacity_bytes = 0;
  };

  /// Derived per-window signals, exposed for tests and EXPLAIN output.
  struct Signals {
    double heap_pressure = 0;
    double eviction_churn = 0;
    double abort_ratio = 0;
    bool heap_signal = false;
    bool churn_signal = false;
    bool abort_signal = false;
  };

  /// `metric_prefix` is prepended to every exported metric name — empty
  /// for device 0 (the legacy single-device names), "deviceN." for later
  /// devices.
  ThrashingDetector(const Options& options, MetricRegistry* registry,
                    FlightRecorder* recorder, std::string metric_prefix = "");

  ThrashingDetector(const ThrashingDetector&) = delete;
  ThrashingDetector& operator=(const ThrashingDetector&) = delete;

  /// Ingests one observation window (deltas vs. the previous call) and
  /// returns the (possibly updated) state. Thread-safe.
  State Update(const Sample& sample);

  State state() const;
  /// Signals computed by the most recent Update().
  Signals last_signals() const;
  int64_t transitions() const;

  /// Forgets sample history and returns to kCalm (measurement-phase resets).
  void Reset();

  static const char* StateName(State state);

 private:
  State StateLocked() const { return static_cast<State>(damping_.level()); }
  /// Publishes the change from `prev` to the current state.
  void TransitionLocked(State prev);

  MetricRegistry* const registry_;
  FlightRecorder* const recorder_;
  const std::string metric_prefix_;

  mutable std::mutex mutex_;
  Hysteresis damping_;  ///< its level is the State
  Sample previous_{};
  bool has_previous_ = false;
  Signals last_signals_{};
  int64_t transitions_ = 0;
};

}  // namespace hetdb

#endif  // HETDB_TELEMETRY_DETECTOR_H_
