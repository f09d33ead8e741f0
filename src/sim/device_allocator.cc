#include "sim/device_allocator.h"

#include "common/logging.h"

namespace hetdb {

void DeviceAllocation::Release() {
  if (allocator_ != nullptr && bytes_ > 0) {
    allocator_->Free(bytes_);
    if (stats_ != nullptr) stats_->OnHeapFreed(static_cast<int64_t>(bytes_));
  }
  allocator_ = nullptr;
  bytes_ = 0;
  stats_ = nullptr;
}

DeviceAllocation DeviceAllocation::Split(size_t bytes) {
  HETDB_CHECK(bytes <= bytes_);
  bytes_ -= bytes;
  return DeviceAllocation(allocator_, bytes, stats_);
}

Result<DeviceAllocation> DeviceAllocator::Allocate(
    size_t bytes, const std::string& tag, DeviceAllocation* reservation) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fault_injector_ != nullptr && fault_injector_->enabled()) {
    const FaultDecision decision =
        fault_injector_->Decide(FaultSite::kDeviceAlloc, bytes);
    if (decision.fault()) {
      failed_allocations_.fetch_add(1, std::memory_order_relaxed);
      return decision.ToStatus("allocation of " + std::to_string(bytes) +
                               " bytes for " + tag);
    }
  }
  if (reservation != nullptr && reservation->allocator_ == this &&
      reservation->bytes() >= bytes) {
    return reservation->Split(bytes);
  }
  const size_t current = used_.load(std::memory_order_relaxed);
  if (bytes > capacity_ || current > capacity_ - bytes) {
    failed_allocations_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "device heap exhausted: need " + std::to_string(bytes) + " bytes for " +
        tag + ", used " + std::to_string(current) + "/" +
        std::to_string(capacity_));
  }
  return TakeLocked(bytes);
}

DeviceAllocation DeviceAllocator::Reserve(size_t bytes) {
  if (bytes == 0) return DeviceAllocation(this, 0);
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t current = used_.load(std::memory_order_relaxed);
  if (bytes > capacity_ || current > capacity_ - bytes) return {};
  return TakeLocked(bytes);
}

DeviceAllocation DeviceAllocator::TakeLocked(size_t bytes) {
  // Free() runs without mutex_, so add atomically: a plain store of
  // current + bytes would overwrite a concurrent free. Frees only lower
  // used_, so the caller's capacity check stays conservative.
  const size_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (now > peak_used_.load(std::memory_order_relaxed)) {
    peak_used_.store(now, std::memory_order_relaxed);
  }
  // Attribute to the query whose scope this thread is executing under. The
  // observed global usage is exact here because we still hold mutex_.
  QueryStatsPtr stats = QueryStatsScope::current_stats_shared();
  if (stats != nullptr) {
    stats->OnHeapAllocated(static_cast<int64_t>(bytes),
                           static_cast<int64_t>(now),
                           QueryStatsScope::current_node(), device_id_);
  }
  return DeviceAllocation(this, bytes, std::move(stats));
}

void DeviceAllocator::Free(size_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

void DeviceAllocator::ResetStats() {
  failed_allocations_.store(0, std::memory_order_relaxed);
  peak_used_.store(used_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

}  // namespace hetdb
