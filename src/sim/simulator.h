#ifndef HETDB_SIM_SIMULATOR_H_
#define HETDB_SIM_SIMULATOR_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/status.h"
#include "fault/fault_injector.h"
#include "sim/cpu_scheduler.h"
#include "sim/device_allocator.h"
#include "sim/pcie_bus.h"
#include "sim/sim_clock.h"

namespace hetdb {

/// The two processor classes of the paper's heterogeneous machine.
enum class ProcessorKind { kCpu = 0, kGpu = 1 };

const char* ProcessorKindToString(ProcessorKind kind);

/// Operator cost classes, mapping to ThroughputTable entries.
enum class OpClass { kScan, kJoin, kAggregate, kSort, kProject, kMaterialize };

/// Simple counting semaphore (std::counting_semaphore needs a compile-time
/// ceiling; the admission limit is a runtime value).
class Semaphore {
 public:
  explicit Semaphore(int count) : count_(count) {}

  void Acquire() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return count_ > 0; });
    --count_;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++count_;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int count_;
};

/// Bundles the simulated machine: host CPU cores, N co-processors (each a
/// heap allocator + kernel serialization + PCIe link + fault injector), and
/// an optional NVLink-style device-to-device path.
///
/// One Simulator instance represents one machine; every engine, cache, and
/// workload run is constructed over a Simulator. Timing semantics:
///
///  * `ChargeCompute(kCpu, ...)` hands the kernel's modeled single-core work
///    to the CPU scheduler (`CpuScheduler`): the `cpu_workers` cores serve
///    the kernel with the least remaining work, so an idle machine gives one
///    kernel every core and a short kernel preempts a long one.
///  * `ChargeCompute(kGpu, ..., device)` serializes on that device's kernel
///    lock — kernels time-share *their* co-processor, while the *memory* of
///    concurrently running device operators stays allocated for their whole
///    lifetime. This combination is exactly what makes heap contention
///    (many operators holding heap while waiting) possible, as in the paper;
///    with N devices, kernels on different devices run concurrently, which
///    is the scale-out throughput mechanism (DESIGN.md §12).
///
/// The no-argument accessors (`device_heap()`, `bus()`, `fault_injector()`)
/// are device-0 conveniences kept for the single-device callers; every
/// multi-device-aware layer passes an explicit device index.
class Simulator {
 public:
  explicit Simulator(const SystemConfig& config);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  const SystemConfig& config() const { return config_; }
  SimClock& clock() { return clock_; }
  int device_count() const { return static_cast<int>(devices_.size()); }

  DeviceAllocator& device_heap(int device) { return *devices_[Check(device)]->heap; }
  PcieBus& bus(int device) { return *devices_[Check(device)]->bus; }
  /// A device's fault injector; consulted by its heap allocator, its bus,
  /// and kernel launches bound to it. Disarmed by default. Per-device so
  /// chaos tests can kill exactly one device of N.
  FaultInjector& fault_injector(int device) {
    return *devices_[Check(device)]->fault_injector;
  }

  // Single-device conveniences (device 0).
  DeviceAllocator& device_heap() { return device_heap(0); }
  PcieBus& bus() { return bus(0); }
  FaultInjector& fault_injector() { return fault_injector(0); }

  /// Models executing one operator kernel of class `op_class` over
  /// `input_bytes` of data on `processor` (device `device` when kGpu).
  /// Blocks for the modeled duration (plus any wait for a CPU core / the
  /// device's kernel lock). A CPU kernel's wait for a core is recorded on
  /// the current `QueryStatsScope`.
  void ChargeCompute(ProcessorKind processor, OpClass op_class,
                     size_t input_bytes, int device = 0);

  /// Moves `bytes` from device `from` to device `to`. With a dedicated D2D
  /// interconnect configured (`d2d_mbps > 0`) the copy serializes on that
  /// link and is counted in the d2d_* counters; otherwise it routes through
  /// the host, paying D2H on the source device's PCIe link followed by H2D
  /// on the destination's — each consulting that link's fault injector.
  Status TransferDeviceToDevice(size_t bytes, int from, int to);

  /// Backoff ceiling of the first retry; retry k's ceiling is 2^k times it.
  static constexpr double kRetryBackoffBaseMicros = 50.0;
  /// Seed of the per-Simulator retry-jitter RNG.
  static constexpr uint64_t kRetryJitterSeed = 0x5eed'ba0full;

  /// Modeled backoff before device/transfer retry `attempt` (0-based).
  /// Exponential ceiling `kRetryBackoffBaseMicros * 2^attempt`; each call
  /// draws uniformly in [0, ceiling) ("full jitter") from a per-Simulator
  /// RNG seeded by `kRetryJitterSeed`. Every session of one machine draws
  /// from that one RNG, so sessions burned by one shared fault burst
  /// desynchronize instead of retrying in lockstep, while any fixed call
  /// order still reproduces bit-identical backoffs under tests.
  double RetryBackoffMicros(int attempt);

  /// Modeled kernel duration without executing it (for cost estimation).
  double EstimateComputeMicros(ProcessorKind processor, OpClass op_class,
                               size_t input_bytes) const;

  /// Modeled one-way host<->device transfer duration for `bytes`.
  double EstimateTransferMicros(size_t bytes) const;

  // Dedicated D2D link counters (zero when d2d_mbps == 0: host-routed
  // traffic shows up on the PCIe per-device counters instead).
  uint64_t d2d_bytes() const {
    return d2d_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t d2d_transfer_count() const {
    return d2d_count_.load(std::memory_order_relaxed);
  }
  void ResetD2DStats() {
    d2d_bytes_.store(0, std::memory_order_relaxed);
    d2d_count_.store(0, std::memory_order_relaxed);
  }

 private:
  /// One simulated co-processor. Held by unique_ptr because the kernel
  /// mutex makes the unit immovable.
  struct Device {
    std::unique_ptr<FaultInjector> fault_injector;  // before heap/bus users
    std::unique_ptr<DeviceAllocator> heap;
    std::unique_ptr<PcieBus> bus;
    std::mutex kernel_mutex;
  };

  int Check(int device) const;
  double ThroughputMbps(ProcessorKind processor, OpClass op_class) const;

  SystemConfig config_;
  SimClock clock_;
  std::vector<std::unique_ptr<Device>> devices_;
  CpuScheduler cpu_;
  std::mutex retry_rng_mutex_;
  Rng retry_rng_;
  std::mutex d2d_lane_mutex_;
  std::atomic<uint64_t> d2d_bytes_{0};
  std::atomic<uint64_t> d2d_count_{0};
};

using SimulatorPtr = std::shared_ptr<Simulator>;

}  // namespace hetdb

#endif  // HETDB_SIM_SIMULATOR_H_
