#include "fault/fault_injector.h"

namespace hetdb {

const char* FaultSiteToString(FaultSite site) {
  switch (site) {
    case FaultSite::kDeviceAlloc:
      return "alloc";
    case FaultSite::kKernel:
      return "kernel";
    case FaultSite::kTransfer:
      return "transfer";
  }
  return "unknown";
}

const char* FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kHeapExhausted:
      return "heap_exhausted";
    case FaultKind::kTransient:
      return "transient";
    case FaultKind::kDeviceLost:
      return "device_lost";
    case FaultKind::kLatencySpike:
      return "latency_spike";
  }
  return "unknown";
}

Status FaultDecision::ToStatus(const std::string& context) const {
  switch (kind) {
    case FaultKind::kHeapExhausted:
      return Status::ResourceExhausted("injected heap fault: " + context);
    case FaultKind::kTransient:
      return Status::Unavailable("injected transient device fault: " + context);
    case FaultKind::kDeviceLost:
      return Status::DeviceLost("injected device-offline fault: " + context);
    case FaultKind::kNone:
    case FaultKind::kLatencySpike:
      return Status::OK();
  }
  return Status::OK();
}

void FaultInjector::Reseed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  rng_.Seed(seed);
}

void FaultInjector::SetSchedule(FaultSite site, const FaultSchedule& schedule) {
  std::lock_guard<std::mutex> lock(mutex_);
  schedules_[static_cast<int>(site)] = schedule;
  burst_remaining_[static_cast<int>(site)] = 0;
  faults_by_site_[static_cast<int>(site)] = 0;
  RefreshEnabled();
}

void FaultInjector::ForceOffline(int duration_events) {
  std::lock_guard<std::mutex> lock(mutex_);
  offline_remaining_ = duration_events;
  if (duration_events > 0 && recorder_ != nullptr) {
    // An offline episode is the chaos escalation worth a post-mortem: the
    // whole device disappears for `duration_events` consultations.
    recorder_->RecordFault(
        "device_offline",
        {{"origin", "forced"},
         {"duration_events", std::to_string(duration_events)}});
    recorder_->AutoDump("device_offline");
  }
  RefreshEnabled();
}

void FaultInjector::ClearAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (int site = 0; site < kNumFaultSites; ++site) {
    schedules_[site] = FaultSchedule();
    burst_remaining_[site] = 0;
    faults_by_site_[site] = 0;
  }
  offline_remaining_ = 0;
  RefreshEnabled();
}

void FaultInjector::RefreshEnabled() {
  bool armed = offline_remaining_ > 0;
  for (int site = 0; site < kNumFaultSites && !armed; ++site) {
    armed = schedules_[site].kind != FaultKind::kNone &&
            schedules_[site].probability > 0;
  }
  enabled_.store(armed, std::memory_order_relaxed);
}

void FaultInjector::CountFault(FaultSite site, FaultKind kind) {
  counts_[static_cast<int>(site)][static_cast<int>(kind)].fetch_add(
      1, std::memory_order_relaxed);
  total_faults_.fetch_add(1, std::memory_order_relaxed);
  if (registry_ != nullptr) {
    registry_
        ->GetCounter(std::string("fault.injected.") + FaultSiteToString(site) +
                     "." + FaultKindToString(kind))
        .Increment();
  }
}

FaultDecision FaultInjector::Decide(FaultSite site, size_t bytes) {
  if (!enabled()) return FaultDecision();
  std::lock_guard<std::mutex> lock(mutex_);

  // Offline episodes dominate every per-site schedule: a lost device fails
  // allocations, kernels, and transfers alike.
  if (offline_remaining_ > 0) {
    --offline_remaining_;
    if (offline_remaining_ == 0) RefreshEnabled();
    CountFault(site, FaultKind::kDeviceLost);
    return FaultDecision{FaultKind::kDeviceLost, 1.0};
  }

  const int index = static_cast<int>(site);
  const FaultSchedule& schedule = schedules_[index];
  if (schedule.kind == FaultKind::kNone) return FaultDecision();
  if (bytes < schedule.min_bytes) return FaultDecision();
  if (schedule.max_faults > 0 &&
      faults_by_site_[index] >= schedule.max_faults) {
    return FaultDecision();
  }

  bool fires = false;
  if (burst_remaining_[index] > 0) {
    --burst_remaining_[index];
    fires = true;
  } else if (rng_.NextBool(schedule.probability)) {
    burst_remaining_[index] = schedule.burst_length > 1
                                  ? schedule.burst_length - 1
                                  : 0;
    fires = true;
  }
  if (!fires) return FaultDecision();

  ++faults_by_site_[index];
  CountFault(site, schedule.kind);
  return FaultDecision{schedule.kind, schedule.latency_factor};
}

uint64_t FaultInjector::faults_injected(FaultSite site, FaultKind kind) const {
  return counts_[static_cast<int>(site)][static_cast<int>(kind)].load(
      std::memory_order_relaxed);
}

bool FaultInjector::offline() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return offline_remaining_ > 0;
}

void FaultInjector::BindMetrics(MetricRegistry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  registry_ = registry;
}

void FaultInjector::BindFlightRecorder(FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mutex_);
  recorder_ = recorder;
}

void FaultInjector::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (int site = 0; site < kNumFaultSites; ++site) {
    faults_by_site_[site] = 0;
    for (int kind = 0; kind < kNumKinds; ++kind) {
      counts_[site][kind].store(0, std::memory_order_relaxed);
    }
  }
  total_faults_.store(0, std::memory_order_relaxed);
}

}  // namespace hetdb
