#ifndef HETDB_FAULT_FAULT_INJECTOR_H_
#define HETDB_FAULT_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metric_registry.h"

namespace hetdb {

/// Instrumented points in the engine where device faults can strike.
///
///  * kDeviceAlloc — a device heap allocation (DeviceAllocator::Allocate);
///  * kKernel      — a device kernel launch (ExecuteOperator's device path);
///  * kTransfer    — a PCIe transfer in either direction (PcieBus::Transfer).
enum class FaultSite { kDeviceAlloc = 0, kKernel = 1, kTransfer = 2 };

inline constexpr int kNumFaultSites = 3;

const char* FaultSiteToString(FaultSite site);

/// What goes wrong when a fault fires.
///
///  * kHeapExhausted — the allocation fails with ResourceExhausted, exactly
///    like genuine heap contention (the paper's Figure 3/13 abort);
///  * kTransient     — a transient device fault (kernel hiccup, transfer CRC
///    error): the operation fails with Unavailable; a retry may succeed;
///  * kDeviceLost    — the device is gone: the operation fails with
///    DeviceLost; retrying on the device is pointless;
///  * kLatencySpike  — the operation succeeds but takes `latency_factor`
///    times its modeled duration (PCIe congestion, thermal throttling).
enum class FaultKind {
  kNone = 0,
  kHeapExhausted,
  kTransient,
  kDeviceLost,
  kLatencySpike,
};

const char* FaultKindToString(FaultKind kind);

/// Per-site fault schedule. A site with `kind == kNone` or
/// `probability == 0` never faults.
struct FaultSchedule {
  FaultKind kind = FaultKind::kNone;
  /// Per-event Bernoulli probability that a fault (or burst of faults)
  /// starts at this event.
  double probability = 0.0;
  /// Stop after this many injected faults; 0 means unlimited. Lets tests
  /// model a device that misbehaves for a while and then recovers.
  uint64_t max_faults = 0;
  /// Once triggered, this many *consecutive* events at the site fault
  /// (models correlated failures, e.g. a failing DIMM). Default 1: faults
  /// are independent.
  int burst_length = 1;
  /// Only events of at least this many bytes are eligible (0 = all). Lets
  /// tests target big allocations while letting bookkeeping ones through.
  size_t min_bytes = 0;
  /// Duration multiplier applied by kLatencySpike faults.
  double latency_factor = 8.0;

  static FaultSchedule Always(FaultKind kind) {
    FaultSchedule schedule;
    schedule.kind = kind;
    schedule.probability = 1.0;
    return schedule;
  }
  static FaultSchedule FirstN(FaultKind kind, uint64_t n) {
    FaultSchedule schedule = Always(kind);
    schedule.max_faults = n;
    return schedule;
  }
  static FaultSchedule WithProbability(FaultKind kind, double p) {
    FaultSchedule schedule;
    schedule.kind = kind;
    schedule.probability = p;
    return schedule;
  }
};

/// The injector's verdict for one event.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  double latency_factor = 1.0;

  /// True iff the operation must fail (latency spikes succeed, just slower).
  bool fault() const {
    return kind != FaultKind::kNone && kind != FaultKind::kLatencySpike;
  }

  /// The Status the faulted operation reports, `context` naming the victim.
  Status ToStatus(const std::string& context) const;
};

/// Deterministic, seed-driven fault injector for the simulated device.
///
/// One injector is owned by each Simulator and consulted by the device heap
/// allocator, the PCIe bus, and the operator executor's kernel launches.
/// All randomness comes from one seeded Rng consumed under a lock, so a
/// given (seed, schedule, execution order) triple replays the same fault
/// sequence — the chaos tests rely on this for reproducible shrinkage.
///
/// With no schedule armed, `enabled()` is a single relaxed atomic load and
/// every site hook returns immediately: a fault-free build pays no
/// measurable overhead (the acceptance bar for BENCH_kernels.json).
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0x7e7db0f417ull) : rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Re-seeds the Rng (schedules and counters are untouched).
  void Reseed(uint64_t seed);

  /// Installs (or replaces) the schedule for one site. A default-constructed
  /// schedule disarms the site.
  void SetSchedule(FaultSite site, const FaultSchedule& schedule);

  /// Forces the device offline for the next `duration_events` consultations:
  /// every site returns kDeviceLost until the episode drains. Deterministic,
  /// independent of the Rng; the only way a device goes offline.
  void ForceOffline(int duration_events);

  /// Disarms every site, offline episodes included.
  void ClearAll();

  /// Fast-path check: true iff any schedule is armed. Sites gate their
  /// Decide call on this so the disabled injector stays off the hot path.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Consults the schedules for one event of `bytes` at `site`.
  FaultDecision Decide(FaultSite site, size_t bytes = 0);

  /// Faults injected at `site` of `kind` so far.
  uint64_t faults_injected(FaultSite site, FaultKind kind) const;
  uint64_t total_faults() const {
    return total_faults_.load(std::memory_order_relaxed);
  }
  /// True while an offline episode is draining.
  bool offline() const;

  /// Mirrors fault counts into `registry` as
  /// `fault.injected.<site>.<kind>` counters (pass nullptr to detach).
  void BindMetrics(MetricRegistry* registry);

  /// Mirrors fault *escalations* — device-offline episode starts — into the
  /// flight recorder, each triggering an automatic dump (pass nullptr to
  /// detach).
  void BindFlightRecorder(FlightRecorder* recorder);

  void ResetStats();

 private:
  static constexpr int kNumKinds = 5;  // including kNone slot (unused)

  void RefreshEnabled();  // caller holds mutex_
  void CountFault(FaultSite site, FaultKind kind);  // caller holds mutex_

  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  Rng rng_;
  FaultSchedule schedules_[kNumFaultSites];
  uint64_t faults_by_site_[kNumFaultSites] = {};
  int burst_remaining_[kNumFaultSites] = {};
  int offline_remaining_ = 0;
  std::atomic<uint64_t> total_faults_{0};
  std::atomic<uint64_t> counts_[kNumFaultSites][kNumKinds] = {};
  MetricRegistry* registry_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
};

}  // namespace hetdb

#endif  // HETDB_FAULT_FAULT_INJECTOR_H_
