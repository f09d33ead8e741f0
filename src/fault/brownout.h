#ifndef HETDB_FAULT_BROWNOUT_H_
#define HETDB_FAULT_BROWNOUT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hysteresis.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metric_registry.h"

namespace hetdb {

/// System-wide degradation levels (DESIGN.md §13). Each level keeps every
/// lower level's restrictions and adds its own:
///
///   kL0 — normal operation; no restrictions.
///   kL1 — cap intra-operator DoP (ScopedDopCap). Fusion stays on:
///         unfused plans materialize intermediates that raise the heap
///         peak more than a fused pipeline's resident build tables do.
///   kL2 — device-cache admission restricted: misses still transfer but no
///         longer demand-insert, so the resident hot set stops churning; and
///         only *hot* query templates (seen >= hot_template_min_hits times)
///         may place on a device — cold/one-off queries run on the CPU,
///         keeping the device heap for the working set that earns it.
///   kL3 — CPU-only survival: nothing places on any device. The system is
///         slow but alive, and the devices quiesce so breakers can probe
///         into idle heaps.
enum class BrownoutLevel { kL0 = 0, kL1 = 1, kL2 = 2, kL3 = 3 };

const char* BrownoutLevelName(BrownoutLevel level);

/// One observation of the signals the controller samples, aggregated over
/// the whole machine by the caller (EngineContext::NoteQueryFinished — the
/// same cadence that feeds the per-device thrashing detectors). Counters are
/// *cumulative*; the controller windows them into deltas itself.
struct BrownoutSignals {
  /// Worst per-device ThrashingDetector state (0 calm / 1 pressure /
  /// 2 thrashing).
  int worst_thrash_state = 0;
  bool any_breaker_open = false;
  bool all_breakers_open = false;
  bool any_breaker_half_open = false;
  /// Max over devices of heap used/capacity.
  double heap_pressure = 0.0;
  /// Cumulative device-operator attempts / aborts (summed over devices).
  int64_t gpu_attempts = 0;
  int64_t gpu_aborts = 0;
  /// Per-device "this device is currently thrashing" flags, indexed by
  /// device; sized to the machine's device count.
  std::vector<bool> device_thrashing;
};

/// Admission-layer observation, pulled through a caller-installed probe so
/// this library stays below the server layer. Counters cumulative.
struct BrownoutAdmissionProbe {
  int queued = 0;
  int in_flight = 0;
  uint64_t offered = 0;
  uint64_t shed = 0;
};

/// Coordinated graceful-degradation controller (the "brownout" ladder).
///
/// Every defense the engine grew so far is a *local* reflex: the breaker
/// sees one device's aborts, the detector one device's heap, the admission
/// governor one queue. The brownout controller is the component that sees
/// all of them at once and trades throughput for survival deliberately,
/// stepping a small ladder of degradation levels (BrownoutLevel) damped by
/// the ladder's Hysteresis — one noisy window cannot flip the system into
/// survival mode, and recovery requires sustained calm.
///
/// Escalation moves one level per decision so each restriction gets a
/// window to take effect before the next is added (L1's DoP relief often
/// clears the pressure that would otherwise have tripped L2).
///
/// Concurrency: `Update()` (one caller cadence, cheap) takes the internal
/// mutex; every *policy read* — level(), DopCap(), AllowCacheAdmission(),
/// DevicePlacementAllowed() — is a relaxed atomic load, so hot paths
/// (admission under its own lock, per-morsel kernels, placement) never
/// contend on this object and no lock ordering exists between the
/// controller and its consumers.
class BrownoutController {
 public:
  struct Options {
    /// Consecutive qualifying updates before escalating / de-escalating.
    int escalate_updates = 2;
    int calm_updates = 4;
    /// Template hits required to count as "hot" for L2 device admission.
    uint64_t hot_template_min_hits = 3;
  };

  /// Intra-operator DoP ceiling applied at L1 and above.
  static constexpr int kL1DopCap = 2;
  /// Admission queue depth that calls for at least L1.
  static constexpr int kQueueDepthL1 = 32;

  BrownoutController(const Options& options, int device_count,
                     MetricRegistry* registry = nullptr,
                     FlightRecorder* recorder = nullptr);

  BrownoutController(const BrownoutController&) = delete;
  BrownoutController& operator=(const BrownoutController&) = delete;

  /// Ingests one signal window and possibly steps the ladder. Calls the
  /// admission probe (if installed) *before* taking the internal mutex.
  BrownoutLevel Update(const BrownoutSignals& signals);

  /// Installs/clears the admission-layer probe. The probe must not call
  /// back into this controller's Update (policy reads are fine).
  void SetAdmissionProbe(std::function<BrownoutAdmissionProbe()> probe);

  // --- Policy reads (lock-free; safe from any hot path) ---------------------
  BrownoutLevel level() const {
    return static_cast<BrownoutLevel>(level_.load(std::memory_order_relaxed));
  }
  int level_int() const { return level_.load(std::memory_order_relaxed); }

  /// DoP ceiling for query execution, 0 = uncapped (L0).
  int DopCap() const;
  /// False at L2+: cache misses stop demand-inserting.
  bool AllowCacheAdmission() const;
  /// Whether operators may be *placed* on `device` at all (false for every
  /// device at L3; at L2 devices currently flagged thrashing are excluded
  /// unless that would leave no device).
  bool DevicePlacementAllowed(int device) const;

  // --- Template hotness (L2 gate) -------------------------------------------
  /// Notes one submission of the template `fingerprint` (a stable hash of
  /// the plan shape; opaque to this class). Cheap, small-mutex.
  void NoteQuery(uint64_t fingerprint);
  /// Whether a query of this template may use a device under the current
  /// level: always at L0/L1, only hot templates at L2, never at L3.
  bool AllowDeviceForTemplate(uint64_t fingerprint) const;

  /// Counts a query pinned to the CPU by the brownout policy (metric).
  void NoteCpuPin();

  // --- Introspection ---------------------------------------------------------
  uint64_t transitions() const;
  /// Forces a level (tests / operator override); records the transition.
  void ForceLevel(BrownoutLevel level);
  void Reset();

 private:
  /// The level the current window's signals call for, ignoring hysteresis.
  int TargetLevelLocked(const BrownoutSignals& signals, double abort_ratio,
                        const BrownoutAdmissionProbe& admission,
                        double shed_rate) const;
  /// Publishes the change from level `prev` to the damping's level.
  void TransitionLocked(int prev);
  void PublishDeviceMaskLocked(const BrownoutSignals* signals);

  const uint64_t hot_template_min_hits_;
  const int device_count_;
  MetricRegistry* const registry_;
  FlightRecorder* const recorder_;

  /// Mirrors damping_'s level for the lock-free policy reads.
  std::atomic<int> level_{0};
  /// Bit d set = placement on device d allowed. Recomputed every Update.
  std::atomic<uint64_t> device_mask_{~0ull};

  mutable std::mutex mutex_;  // guards everything below
  std::function<BrownoutAdmissionProbe()> probe_;
  Hysteresis damping_;
  uint64_t transitions_ = 0;
  // Previous cumulative counters for windowing.
  int64_t prev_gpu_attempts_ = 0;
  int64_t prev_gpu_aborts_ = 0;
  uint64_t prev_offered_ = 0;
  uint64_t prev_shed_ = 0;
  bool has_previous_ = false;
  std::vector<bool> last_thrashing_;

  mutable std::mutex template_mutex_;
  std::unordered_map<uint64_t, uint64_t> template_hits_;
};

}  // namespace hetdb

#endif  // HETDB_FAULT_BROWNOUT_H_
