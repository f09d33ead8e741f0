#include "telemetry/detector.h"

#include <algorithm>
#include <utility>

#include "telemetry/flight_recorder.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace_recorder.h"

namespace hetdb {

namespace {

/// Device heap in use / capacity at or above which the heap signal fires.
constexpr double kHeapPressureThreshold = 0.9;
/// Cache evictions per access at or above which the churn signal fires.
constexpr double kEvictionChurnThreshold = 0.5;
/// GPU aborts per GPU attempt at or above which the abort signal fires.
constexpr double kAbortRatioThreshold = 0.25;
/// Cumulative cache accesses before the churn signal may fire: the first
/// loads of a working set always evict whatever was resident.
constexpr int64_t kMinCacheAccesses = 4;

}  // namespace

const char* ThrashingDetector::StateName(State state) {
  switch (state) {
    case State::kCalm:
      return "calm";
    case State::kPressure:
      return "pressure";
    case State::kThrashing:
      return "thrashing";
  }
  return "unknown";
}

ThrashingDetector::ThrashingDetector(const Options& options,
                                     MetricRegistry* registry,
                                     FlightRecorder* recorder,
                                     std::string metric_prefix)
    : registry_(registry),
      recorder_(recorder),
      metric_prefix_(std::move(metric_prefix)),
      damping_(options.escalate_updates, options.calm_updates,
               /*one_step_up=*/false) {
  if (registry_ != nullptr) {
    registry_->GetGauge(metric_prefix_ + "thrash.state").Set(0);
  }
}

ThrashingDetector::State ThrashingDetector::Update(const Sample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!has_previous_) {
    previous_ = sample;
    has_previous_ = true;
    return StateLocked();
  }

  const int64_t d_hits = sample.cache_hits - previous_.cache_hits;
  const int64_t d_misses = sample.cache_misses - previous_.cache_misses;
  const int64_t d_evictions =
      sample.cache_evictions - previous_.cache_evictions;
  const int64_t d_aborts = sample.gpu_aborts - previous_.gpu_aborts;
  const int64_t d_attempts = sample.gpu_attempts - previous_.gpu_attempts;
  const int64_t d_failed_allocs =
      sample.failed_allocations - previous_.failed_allocations;
  previous_ = sample;

  Signals signals;
  if (sample.heap_capacity_bytes > 0) {
    signals.heap_pressure = static_cast<double>(sample.heap_used_bytes) /
                            static_cast<double>(sample.heap_capacity_bytes);
  }
  const int64_t accesses = d_hits + d_misses;
  if (accesses > 0) {
    signals.eviction_churn =
        static_cast<double>(d_evictions) / static_cast<double>(accesses);
  }
  if (d_attempts > 0) {
    signals.abort_ratio =
        static_cast<double>(d_aborts) / static_cast<double>(d_attempts);
  }
  signals.heap_signal =
      signals.heap_pressure >= kHeapPressureThreshold || d_failed_allocs > 0;
  // Cold-start gate on *cumulative* accesses: per-window counts can be tiny
  // (the fig-2 workload touches one column per query), but churn across those
  // small windows is exactly the thrashing pattern to catch.
  const int64_t total_accesses = sample.cache_hits + sample.cache_misses;
  signals.churn_signal = accesses > 0 && total_accesses >= kMinCacheAccesses &&
                         signals.eviction_churn >= kEvictionChurnThreshold;
  signals.abort_signal =
      d_attempts > 0 && signals.abort_ratio >= kAbortRatioThreshold;
  last_signals_ = signals;

  const int firing = (signals.heap_signal ? 1 : 0) +
                     (signals.churn_signal ? 1 : 0) +
                     (signals.abort_signal ? 1 : 0);
  State observed = State::kCalm;
  if (firing >= 2 || signals.abort_signal) {
    observed = State::kThrashing;
  } else if (firing == 1) {
    observed = State::kPressure;
  }

  const State prev = StateLocked();
  if (damping_.Observe(static_cast<int>(observed))) TransitionLocked(prev);
  return StateLocked();
}

void ThrashingDetector::TransitionLocked(State prev) {
  const State next = StateLocked();
  ++transitions_;
  if (registry_ != nullptr) {
    registry_->GetGauge(metric_prefix_ + "thrash.state").Set(static_cast<int64_t>(next));
    registry_->GetCounter(metric_prefix_ + "thrash.transitions").Increment();
  }
  if (recorder_ != nullptr) {
    recorder_->RecordStateTransition(metric_prefix_ + "thrash_detector", StateName(prev),
                                     StateName(next));
  }
  if (TraceRecorder::enabled()) {
    RecordInstantEvent(metric_prefix_ + "thrash.state", "engine", 0,
                       {{"from", StateName(prev)}, {"to", StateName(next)}});
  }
}

ThrashingDetector::State ThrashingDetector::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return StateLocked();
}

ThrashingDetector::Signals ThrashingDetector::last_signals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_signals_;
}

int64_t ThrashingDetector::transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transitions_;
}

void ThrashingDetector::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  damping_.Reset();
  has_previous_ = false;
  previous_ = Sample{};
  last_signals_ = Signals{};
  if (registry_ != nullptr) {
    registry_->GetGauge(metric_prefix_ + "thrash.state").Set(0);
  }
}

}  // namespace hetdb
