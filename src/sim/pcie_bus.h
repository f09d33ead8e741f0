#ifndef HETDB_SIM_PCIE_BUS_H_
#define HETDB_SIM_PCIE_BUS_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/status.h"
#include "fault/fault_injector.h"
#include "sim/sim_clock.h"

namespace hetdb {

enum class TransferDirection { kHostToDevice = 0, kDeviceToHost = 1 };

/// Models the PCIe interconnect between host and co-processor.
///
/// Transfers in the same direction serialize on a per-direction lane lock
/// (PCIe is full duplex), each taking bytes/bandwidth of modeled time while
/// holding the lane — so concurrent queries genuinely queue on the bus, which
/// is the mechanism behind the cache-thrashing degradation (Figures 2 and 6).
/// Per-direction byte and time counters feed the Figure 15/19 metrics.
class PcieBus {
 public:
  /// `bandwidth_mbps` is the asynchronous (page-locked staging, CUDA-stream)
  /// bandwidth of Section 2.5.3 of the paper; every transfer is modeled as
  /// asynchronous. `fault_injector` (optional) is consulted per transfer at
  /// the kTransfer site: it can slow a transfer down (latency spike), fail
  /// it transiently (Unavailable), or report the device gone (DeviceLost).
  /// `device_id` identifies which device this link connects to the host;
  /// per-query transfer attribution carries it so QueryStats can keep a
  /// per-device breakdown.
  PcieBus(double bandwidth_mbps, SimClock* clock,
          FaultInjector* fault_injector = nullptr, int device_id = 0)
      : bandwidth_mbps_(bandwidth_mbps),
        clock_(clock),
        fault_injector_(fault_injector),
        device_id_(device_id) {}

  PcieBus(const PcieBus&) = delete;
  PcieBus& operator=(const PcieBus&) = delete;

  /// Moves `bytes` across the bus, blocking the calling thread for the
  /// modeled duration (queuing behind other transfers in the same direction).
  /// Returns non-OK only when the fault injector fails the transfer; a
  /// transiently failed transfer still charges half the modeled duration
  /// (the wasted partial copy) but counts no bytes as transferred.
  Status Transfer(size_t bytes, TransferDirection direction);

  /// Transfers failed by the fault injector (per reporting/tests).
  uint64_t failed_transfers() const {
    return failed_transfers_.load(std::memory_order_relaxed);
  }

  uint64_t transferred_bytes(TransferDirection direction) const {
    return bytes_[Index(direction)].load(std::memory_order_relaxed);
  }
  /// Total modeled microseconds spent transferring in `direction` (summed
  /// over threads; can exceed wall-clock when transfers overlap with compute).
  int64_t transfer_micros(TransferDirection direction) const {
    return micros_[Index(direction)].load(std::memory_order_relaxed);
  }
  uint64_t transfer_count(TransferDirection direction) const {
    return count_[Index(direction)].load(std::memory_order_relaxed);
  }

  void ResetStats();

  double bandwidth_mbps() const { return bandwidth_mbps_; }
  int device_id() const { return device_id_; }

 private:
  static int Index(TransferDirection direction) {
    return static_cast<int>(direction);
  }

  const double bandwidth_mbps_;
  SimClock* clock_;
  FaultInjector* fault_injector_;
  const int device_id_ = 0;
  std::mutex lane_mutex_[2];
  std::atomic<uint64_t> bytes_[2] = {};
  std::atomic<int64_t> micros_[2] = {};
  std::atomic<uint64_t> count_[2] = {};
  std::atomic<uint64_t> failed_transfers_{0};
};

}  // namespace hetdb

#endif  // HETDB_SIM_PCIE_BUS_H_
