#ifndef HETDB_SIM_DEVICE_ALLOCATOR_H_
#define HETDB_SIM_DEVICE_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"
#include "fault/fault_injector.h"
#include "telemetry/query_stats.h"

namespace hetdb {

class DeviceAllocator;

/// RAII handle for a device heap allocation. Releasing (or destroying) the
/// handle returns the bytes to the allocator. Move-only.
///
/// When the allocation was made inside a QueryStatsScope it carries a
/// shared_ptr to that query's stats, so the free side stays attributable
/// even for allocations the data cache keeps alive long after the query
/// finished.
class DeviceAllocation {
 public:
  DeviceAllocation() = default;
  DeviceAllocation(DeviceAllocator* allocator, size_t bytes,
                   QueryStatsPtr stats = nullptr)
      : allocator_(allocator), bytes_(bytes), stats_(std::move(stats)) {}
  ~DeviceAllocation() { Release(); }

  DeviceAllocation(const DeviceAllocation&) = delete;
  DeviceAllocation& operator=(const DeviceAllocation&) = delete;
  DeviceAllocation(DeviceAllocation&& other) noexcept { *this = std::move(other); }
  DeviceAllocation& operator=(DeviceAllocation&& other) noexcept {
    if (this != &other) {
      Release();
      allocator_ = other.allocator_;
      bytes_ = other.bytes_;
      stats_ = std::move(other.stats_);
      other.allocator_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }

  size_t bytes() const { return bytes_; }
  bool valid() const { return allocator_ != nullptr; }

  /// Returns the bytes to the allocator early.
  void Release();

 private:
  friend class DeviceAllocator;

  /// Moves `bytes` (at most bytes()) of this allocation into a new one on
  /// the same allocator and query; each returns its own bytes when
  /// released. No heap bytes change hands.
  DeviceAllocation Split(size_t bytes);

  DeviceAllocator* allocator_ = nullptr;
  size_t bytes_ = 0;
  QueryStatsPtr stats_;
};

/// Byte-exact accounting allocator for the co-processor's heap.
///
/// This models the scarce device memory that causes the paper's *heap
/// contention* effect: when concurrently running device operators together
/// request more than `capacity` bytes, `Allocate` fails with
/// ResourceExhausted, the operator aborts, and the engine restarts it on the
/// CPU (Section 2.2 / 2.5.1). That is how paper mode runs. Outside it, a
/// device attempt first `Reserve`s every byte it already knows it needs and
/// draws its phases from that reservation (`Allocate` with a reservation),
/// so only its result buffer still meets the free heap; a reservation that
/// does not fit is declined and the operator runs on the CPU instead. Both
/// are all-or-nothing and never wait: the paper argues a wait-and-admit
/// scheme would deadlock because operators allocate in several steps while
/// holding earlier allocations (and their inputs' device results).
class DeviceAllocator {
 public:
  /// `fault_injector` (optional) is consulted on every allocation at the
  /// kDeviceAlloc site; it is how tests and chaos runs drive heap-exhaustion
  /// and device-loss failures deterministically. `device_id` identifies the
  /// device this heap belongs to, carried into per-query attribution.
  explicit DeviceAllocator(size_t capacity,
                           FaultInjector* fault_injector = nullptr,
                           int device_id = 0)
      : capacity_(capacity),
        fault_injector_(fault_injector),
        device_id_(device_id) {}

  DeviceAllocator(const DeviceAllocator&) = delete;
  DeviceAllocator& operator=(const DeviceAllocator&) = delete;

  /// Attempts to allocate `bytes`. Fails immediately (no queuing) when the
  /// fault injector fires or the remaining capacity is insufficient. With a
  /// `reservation` of this heap that still holds `bytes`, they are split off
  /// it instead of taken from the free heap; the fault injector is consulted
  /// either way, so a fault schedule strikes the same allocations in and
  /// out of paper mode.
  Result<DeviceAllocation> Allocate(size_t bytes, const std::string& tag,
                                    DeviceAllocation* reservation = nullptr);

  /// Takes `bytes` if the free heap holds them now. Otherwise returns an
  /// invalid allocation (a *heap decline*): no failed allocation is counted
  /// and no fault is consulted. The check and the take happen under one
  /// lock, so two callers never both see room that only one of them gets.
  /// Reserve(0) returns a valid, empty reservation.
  DeviceAllocation Reserve(size_t bytes);

  size_t capacity() const { return capacity_; }
  int device_id() const { return device_id_; }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t available() const {
    const size_t u = used();
    return u >= capacity_ ? 0 : capacity_ - u;
  }

  /// Statistics for Figure 13 (operator aborts) style reporting.
  uint64_t failed_allocations() const {
    return failed_allocations_.load(std::memory_order_relaxed);
  }
  size_t peak_used() const { return peak_used_.load(std::memory_order_relaxed); }
  void ResetStats();

 private:
  friend class DeviceAllocation;
  /// Adds `bytes` to the used heap and attributes them to the current
  /// query. Caller holds mutex_ and has checked the capacity.
  DeviceAllocation TakeLocked(size_t bytes);
  void Free(size_t bytes);

  const size_t capacity_;
  FaultInjector* fault_injector_;
  const int device_id_ = 0;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_used_{0};
  std::atomic<uint64_t> failed_allocations_{0};
  std::mutex mutex_;  // guards allocate/peak update
};

}  // namespace hetdb

#endif  // HETDB_SIM_DEVICE_ALLOCATOR_H_
