#include "fault/circuit_breaker.h"

#include <utility>

namespace hetdb {

const char* BreakerStateToString(DeviceCircuitBreaker::State state) {
  switch (state) {
    case DeviceCircuitBreaker::State::kClosed:
      return "closed";
    case DeviceCircuitBreaker::State::kOpen:
      return "open";
    case DeviceCircuitBreaker::State::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

DeviceCircuitBreaker::DeviceCircuitBreaker()
    : DeviceCircuitBreaker(Options(), nullptr) {}

DeviceCircuitBreaker::DeviceCircuitBreaker(const Options& options,
                                           MetricRegistry* registry,
                                           FlightRecorder* recorder,
                                           std::string metric_prefix)
    : options_(options),
      registry_(registry),
      recorder_(recorder),
      metric_prefix_(std::move(metric_prefix)) {
  window_.assign(static_cast<size_t>(options_.window), false);
}

void DeviceCircuitBreaker::Configure(const Options& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = options;
  window_.assign(static_cast<size_t>(options_.window), false);
  window_next_ = window_count_ = window_aborts_ = 0;
  cooldown_denials_seen_ = probes_inflight_ = probe_successes_ = 0;
  state_ = State::kClosed;
  if (registry_ != nullptr) {
    registry_->GetGauge(metric_prefix_ + "breaker.state").Set(static_cast<int>(state_));
  }
}

void DeviceCircuitBreaker::TransitionLocked(State next) {
  if (state_ == next) return;
  if (next == State::kOpen) {
    ++trips_;
    cooldown_denials_seen_ = 0;
    opened_at_ = std::chrono::steady_clock::now();
  }
  if (next == State::kHalfOpen) {
    probes_inflight_ = 0;
    probe_successes_ = 0;
  }
  if (next == State::kClosed) {
    // Fresh window: the pre-trip abort history must not re-trip instantly.
    window_.assign(window_.size(), false);
    window_next_ = window_count_ = window_aborts_ = 0;
  }
  const State prev = state_;
  state_ = next;
  if (registry_ != nullptr) {
    registry_->GetGauge(metric_prefix_ + "breaker.state").Set(static_cast<int>(state_));
    registry_
        ->GetCounter(metric_prefix_ + "breaker.transitions." +
                     BreakerStateToString(state_))
        .Increment();
    if (next == State::kOpen) registry_->GetCounter(metric_prefix_ + "breaker.trips").Increment();
  }
  if (recorder_ != nullptr) {
    recorder_->RecordStateTransition(metric_prefix_ + "breaker", BreakerStateToString(prev),
                                     BreakerStateToString(next));
    // The trip is the post-mortem moment: freeze the recent history now,
    // while the queries that drove the abort storm are still in the ring.
    if (next == State::kOpen) recorder_->AutoDump(metric_prefix_ + "breaker_trip");
  }
}

void DeviceCircuitBreaker::PushOutcomeLocked(bool abort) {
  const auto slot = static_cast<size_t>(window_next_);
  const bool evicted = window_[slot];
  window_[slot] = abort;
  window_next_ = (window_next_ + 1) % static_cast<int>(window_.size());
  if (window_count_ < static_cast<int>(window_.size())) {
    ++window_count_;
  } else if (evicted) {
    --window_aborts_;
  }
  if (abort) ++window_aborts_;
}

void DeviceCircuitBreaker::DenyLocked() {
  ++denials_;
  if (registry_ != nullptr) registry_->GetCounter(metric_prefix_ + "breaker.denials").Increment();
  ++cooldown_denials_seen_;
  if (cooldown_denials_seen_ >= options_.cooldown_denials) {
    TransitionLocked(State::kHalfOpen);
  }
}

void DeviceCircuitBreaker::MaybeCooldownLocked() {
  if (state_ != State::kOpen || options_.cooldown_micros == 0) return;
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - opened_at_);
  if (static_cast<uint64_t>(elapsed.count()) >= options_.cooldown_micros) {
    // Unlike the denial-counted path, the wait already happened in wall
    // time, so the triggering request itself becomes the first probe.
    TransitionLocked(State::kHalfOpen);
  }
}

bool DeviceCircuitBreaker::AllowDevice() {
  std::lock_guard<std::mutex> lock(mutex_);
  MaybeCooldownLocked();
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      DenyLocked();
      // A denial that just half-opened the breaker still runs on the CPU;
      // the *next* request becomes the probe.
      return false;
    case State::kHalfOpen:
      if (probes_inflight_ < options_.half_open_probes) {
        ++probes_inflight_;
        return true;
      }
      ++denials_;
      if (registry_ != nullptr) {
        registry_->GetCounter(metric_prefix_ + "breaker.denials").Increment();
      }
      return false;
  }
  return true;
}

bool DeviceCircuitBreaker::device_available() {
  std::lock_guard<std::mutex> lock(mutex_);
  MaybeCooldownLocked();
  if (state_ != State::kOpen) return true;
  DenyLocked();
  return false;
}

void DeviceCircuitBreaker::RecordDeviceSuccess() {
  std::lock_guard<std::mutex> lock(mutex_);
  switch (state_) {
    case State::kClosed:
      PushOutcomeLocked(/*abort=*/false);
      return;
    case State::kHalfOpen:
      if (probes_inflight_ > 0) --probes_inflight_;
      ++probe_successes_;
      if (probe_successes_ >= options_.probes_to_close) {
        TransitionLocked(State::kClosed);
      }
      return;
    case State::kOpen:
      return;  // straggler admitted before the trip; ignore
  }
}

void DeviceCircuitBreaker::RecordDeviceAbort(bool device_lost) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (device_lost) {
    TransitionLocked(State::kOpen);
    return;
  }
  switch (state_) {
    case State::kClosed:
      PushOutcomeLocked(/*abort=*/true);
      if (window_count_ >= options_.min_samples &&
          static_cast<double>(window_aborts_) >=
              options_.trip_ratio * static_cast<double>(window_count_)) {
        TransitionLocked(State::kOpen);
      }
      return;
    case State::kHalfOpen:
      if (probes_inflight_ > 0) --probes_inflight_;
      TransitionLocked(State::kOpen);  // probe failed: back off again
      return;
    case State::kOpen:
      return;
  }
}

DeviceCircuitBreaker::State DeviceCircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

uint64_t DeviceCircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return trips_;
}

uint64_t DeviceCircuitBreaker::denials() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return denials_;
}

void DeviceCircuitBreaker::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  window_.assign(window_.size(), false);
  window_next_ = window_count_ = window_aborts_ = 0;
  cooldown_denials_seen_ = probes_inflight_ = probe_successes_ = 0;
  state_ = State::kClosed;
  if (registry_ != nullptr) {
    registry_->GetGauge(metric_prefix_ + "breaker.state").Set(static_cast<int>(state_));
  }
}

}  // namespace hetdb
