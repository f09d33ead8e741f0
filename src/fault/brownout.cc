#include "fault/brownout.h"

#include <algorithm>
#include <utility>

namespace hetdb {

namespace {

/// Heap pressure that calls for at least L1 / L2.
constexpr double kHeapL1 = 0.90;
constexpr double kHeapL2 = 0.98;
/// Windowed device abort ratio that calls for at least L1 / L2.
constexpr double kAbortRatioL1 = 0.25;
constexpr double kAbortRatioL2 = 0.50;
/// Device attempts a window needs before its abort ratio counts: a single
/// cold abort must not read as a 100% storm.
constexpr int64_t kMinWindowAttempts = 8;
/// Windowed shed fraction that calls for at least L1.
constexpr double kShedRateL1 = 0.10;
/// Templates the hotness map tracks; later ones count as cold.
constexpr size_t kMaxTemplates = 4096;

}  // namespace

const char* BrownoutLevelName(BrownoutLevel level) {
  switch (level) {
    case BrownoutLevel::kL0:
      return "L0";
    case BrownoutLevel::kL1:
      return "L1";
    case BrownoutLevel::kL2:
      return "L2";
    case BrownoutLevel::kL3:
      return "L3";
  }
  return "unknown";
}

BrownoutController::BrownoutController(const Options& options,
                                       int device_count,
                                       MetricRegistry* registry,
                                       FlightRecorder* recorder)
    : hot_template_min_hits_(options.hot_template_min_hits),
      device_count_(std::max(device_count, 1)),
      registry_(registry),
      recorder_(recorder),
      damping_(options.escalate_updates, options.calm_updates,
               /*one_step_up=*/true),
      last_thrashing_(static_cast<size_t>(std::max(device_count, 1)), false) {
  if (registry_ != nullptr) registry_->GetGauge("brownout.level").Set(0);
}

void BrownoutController::SetAdmissionProbe(
    std::function<BrownoutAdmissionProbe()> probe) {
  std::lock_guard<std::mutex> lock(mutex_);
  probe_ = std::move(probe);
}

int BrownoutController::TargetLevelLocked(
    const BrownoutSignals& signals, double abort_ratio,
    const BrownoutAdmissionProbe& admission, double shed_rate) const {
  // Survival: every device is denying work, or a device is both tripped and
  // thrashing — the machine's co-processor tier is effectively down.
  if (signals.all_breakers_open ||
      (signals.any_breaker_open && signals.worst_thrash_state >= 2)) {
    return 3;
  }
  // Serious: confirmed thrashing, a tripped breaker, or a heap that is
  // pinned at capacity — L1's relief valves were not enough.
  if (signals.worst_thrash_state >= 2 || signals.any_breaker_open ||
      signals.heap_pressure >= kHeapL2 || abort_ratio >= kAbortRatioL2) {
    return 2;
  }
  // Early pressure from any subsystem: shed load pre-emptively by capping
  // the DoP before queries start aborting.
  if (signals.worst_thrash_state >= 1 || signals.any_breaker_half_open ||
      signals.heap_pressure >= kHeapL1 || abort_ratio >= kAbortRatioL1 ||
      admission.queued >= kQueueDepthL1 || shed_rate >= kShedRateL1) {
    return 1;
  }
  return 0;
}

void BrownoutController::PublishDeviceMaskLocked(
    const BrownoutSignals* signals) {
  if (signals != nullptr) {
    last_thrashing_.assign(static_cast<size_t>(device_count_), false);
    for (size_t d = 0;
         d < signals->device_thrashing.size() &&
         d < static_cast<size_t>(device_count_);
         ++d) {
      last_thrashing_[d] = signals->device_thrashing[d];
    }
  }
  const int level = level_.load(std::memory_order_relaxed);
  uint64_t mask = 0;
  if (level < 3) {
    for (int d = 0; d < device_count_ && d < 64; ++d) {
      mask |= 1ull << d;
    }
    if (level >= 2) {
      // Exclude devices currently flagged thrashing — unless that excludes
      // everything, in which case restricting *which* device is pointless
      // and the L2 template gate / L3 step carries the load instead.
      uint64_t healthy = mask;
      for (int d = 0; d < device_count_ && d < 64; ++d) {
        if (last_thrashing_[static_cast<size_t>(d)]) healthy &= ~(1ull << d);
      }
      if (healthy != 0) mask = healthy;
    }
  }
  device_mask_.store(mask, std::memory_order_relaxed);
}

void BrownoutController::TransitionLocked(int prev) {
  const int next = damping_.level();
  level_.store(next, std::memory_order_relaxed);
  ++transitions_;
  const char* from = BrownoutLevelName(static_cast<BrownoutLevel>(prev));
  const char* to = BrownoutLevelName(static_cast<BrownoutLevel>(next));
  if (registry_ != nullptr) {
    registry_->GetGauge("brownout.level").Set(next);
    registry_->GetCounter(std::string("brownout.transitions.") + to)
        .Increment();
  }
  if (recorder_ != nullptr) {
    recorder_->RecordStateTransition("brownout", from, to);
    // Every level change is a post-mortem moment: freeze the signal history
    // that drove the decision (satellite: not only breaker trips dump).
    recorder_->AutoDump(std::string("brownout_") + from + "_" + to);
  }
}

BrownoutLevel BrownoutController::Update(const BrownoutSignals& signals) {
  // Pull the admission probe before taking our mutex: the probe reads the
  // admission controller's lock, and admission's hot path reads our atomics
  // — keeping the two mutexes un-nested removes the ordering question.
  BrownoutAdmissionProbe admission;
  {
    std::function<BrownoutAdmissionProbe()> probe;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      probe = probe_;
    }
    if (probe) admission = probe();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  double abort_ratio = 0.0;
  double shed_rate = 0.0;
  if (has_previous_) {
    const int64_t attempts = signals.gpu_attempts - prev_gpu_attempts_;
    const int64_t aborts = signals.gpu_aborts - prev_gpu_aborts_;
    if (attempts >= kMinWindowAttempts && aborts > 0) {
      abort_ratio =
          static_cast<double>(aborts) / static_cast<double>(attempts);
    }
    const uint64_t offered = admission.offered - prev_offered_;
    const uint64_t shed = admission.shed - prev_shed_;
    if (offered > 0) {
      shed_rate = static_cast<double>(shed) / static_cast<double>(offered);
    }
  }
  prev_gpu_attempts_ = signals.gpu_attempts;
  prev_gpu_aborts_ = signals.gpu_aborts;
  prev_offered_ = admission.offered;
  prev_shed_ = admission.shed;
  has_previous_ = true;

  // One level at a time: each restriction gets a window to take effect
  // before the next is added.
  const int prev = damping_.level();
  if (damping_.Observe(
          TargetLevelLocked(signals, abort_ratio, admission, shed_rate))) {
    TransitionLocked(prev);
  }
  PublishDeviceMaskLocked(&signals);
  return static_cast<BrownoutLevel>(level_.load(std::memory_order_relaxed));
}

int BrownoutController::DopCap() const {
  return level_.load(std::memory_order_relaxed) >= 1 ? kL1DopCap : 0;
}

bool BrownoutController::AllowCacheAdmission() const {
  return level_.load(std::memory_order_relaxed) < 2;
}

bool BrownoutController::DevicePlacementAllowed(int device) const {
  if (device < 0 || device >= 64) return false;
  return (device_mask_.load(std::memory_order_relaxed) &
          (1ull << device)) != 0;
}

void BrownoutController::NoteQuery(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(template_mutex_);
  auto it = template_hits_.find(fingerprint);
  if (it != template_hits_.end()) {
    ++it->second;
    return;
  }
  if (template_hits_.size() < kMaxTemplates) {
    template_hits_.emplace(fingerprint, 1);
  }
}

bool BrownoutController::AllowDeviceForTemplate(uint64_t fingerprint) const {
  const int level = level_.load(std::memory_order_relaxed);
  if (level < 2) return true;
  if (level >= 3) return false;
  std::lock_guard<std::mutex> lock(template_mutex_);
  auto it = template_hits_.find(fingerprint);
  return it != template_hits_.end() &&
         it->second >= hot_template_min_hits_;
}

void BrownoutController::NoteCpuPin() {
  if (registry_ != nullptr) {
    registry_->GetCounter("brownout.cpu_pins").Increment();
  }
}

uint64_t BrownoutController::transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transitions_;
}

void BrownoutController::ForceLevel(BrownoutLevel level) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int prev = damping_.level();
  if (damping_.Set(static_cast<int>(level))) TransitionLocked(prev);
  PublishDeviceMaskLocked(nullptr);
}

void BrownoutController::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  const int prev = damping_.level();
  damping_.Reset();
  if (prev != 0) TransitionLocked(prev);
  has_previous_ = false;
  last_thrashing_.assign(static_cast<size_t>(device_count_), false);
  PublishDeviceMaskLocked(nullptr);
  std::lock_guard<std::mutex> tlock(template_mutex_);
  template_hits_.clear();
}

}  // namespace hetdb
