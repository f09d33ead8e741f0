#ifndef HETDB_PLACEMENT_SHARDING_H_
#define HETDB_PLACEMENT_SHARDING_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cache/data_cache.h"
#include "fault/circuit_breaker.h"
#include "sim/simulator.h"

namespace hetdb {

class PlanNode;

/// Device-aware sharding layer for the N-co-processor machine (DESIGN.md
/// §12, the Theseus-style scale-out direction).
///
/// Three responsibilities:
///
///  * **Column affinity** — `AffinityDevice(key)` hashes a base column's
///    cache key over the currently live devices, giving every column one
///    stable home device. Scans of a column are routed there, so each
///    device's data cache holds a disjoint shard of the working set (N
///    caches behave like one N-times-larger cache instead of N copies of
///    the same hot set).
///  * **Operator placement** — `PickDevice` chooses the device for an
///    operator about to run on a co-processor: follow resident inputs if
///    any (avoid cross-device migrations), else the affinity of the base
///    columns it reads, else the device with the most free heap — which
///    spreads join builds and fused-pipeline heaps across devices instead
///    of piling them onto device 0.
///  * **Loss rebalancing** — when a breaker trips a device (or chaos kills
///    it), `MarkDeviceLost` removes it from the live set; every affinity
///    re-hashes onto the survivors. `RebalanceAway` moves the dead device's
///    cached shard to its new homes: over the D2D link when the device is
///    still reachable (breaker trip, device on the bus), or re-sourced from
///    host over the survivors' PCIe links when it is truly gone — charging
///    the right bus either way.
///
/// Thread-safe. With one device every decision degenerates to device 0 and
/// the policy is invisible — the single-GPU paper setup is unchanged.
class DeviceShardingPolicy {
 public:
  DeviceShardingPolicy(Simulator* simulator, std::vector<DataCache*> caches,
                       std::vector<DeviceCircuitBreaker*> breakers);

  DeviceShardingPolicy(const DeviceShardingPolicy&) = delete;
  DeviceShardingPolicy& operator=(const DeviceShardingPolicy&) = delete;

  int device_count() const { return static_cast<int>(caches_.size()); }

  bool IsLive(int device) const;
  std::vector<int> LiveDevices() const;

  /// Stable home device for a column/partition key, hashed over the live
  /// set. Returns -1 when no device is live.
  int AffinityDevice(const std::string& key) const;

  /// Device for an operator about to run on a co-processor, or -1 when no
  /// device is usable (caller falls back to the CPU). Candidates are live
  /// devices whose breaker is not open. `resident_inputs` holds one
  /// (device, bytes) pair per device-resident input; residency is scored by
  /// *bytes*, so an operator follows its largest input and only the smaller
  /// side of a cross-device join ever migrates — at the paper's 100 MB/s
  /// PCIe, moving the fact side instead would erase the scale-out win.
  /// `input_keys` holds the cache keys of base columns the operator scans
  /// (empty for non-scans). `preferred_device` is the query's home device
  /// (see `QueryHomeDevice`): it wins over cached-column pull but loses to
  /// large resident inputs, so a whole query converges onto one device
  /// instead of shipping intermediates between the homes of the columns it
  /// reads.
  int PickDevice(const std::vector<std::string>& input_keys,
                 const std::vector<std::pair<int, size_t>>& resident_inputs,
                 int preferred_device = -1) const;

  /// The query's home device: a hash of the plan's base-column footprint
  /// (every column any of its scans reads) over the live devices. Placing
  /// every operator of the query there means intermediates never cross a
  /// bus, and the columns it reads demand-cache on the home so repeat
  /// queries pay nothing. The footprint fingerprints the query *template*,
  /// so a multi-user template mix spreads near-uniformly across devices —
  /// where any single-column anchor would pile whole flights onto one.
  /// Returns -1 for plans without base scans or with no live device.
  int QueryHomeDevice(const PlanNode& root) const;

  /// Installs a policy gate consulted per candidate in PickDevice (null
  /// clears): a device for which the gate returns false is skipped even when
  /// live with a closed breaker. The brownout controller uses this to exclude
  /// thrashing devices at L2 and every device at L3 — unlike MarkDeviceLost,
  /// the gate is advisory placement pressure, not a liveness change, so
  /// affinities do NOT re-hash and nothing rebalances. The gate must be
  /// cheap and lock-free.
  void SetDeviceGate(std::function<bool(int)> gate);

  /// Removes `device` from the live set (affinities re-hash to survivors).
  void MarkDeviceLost(int device);
  /// Re-admits `device` after breaker recovery; new placements can use it
  /// again immediately, and affinities re-hash to include it.
  void MarkDeviceRestored(int device);

  /// Migrates the dead device's cached columns to their new affinity homes
  /// and drops them from the dead cache. `source_reachable` selects the
  /// path: true charges a device-to-device move per column (D2D link, or
  /// D2H+H2D through the host without one); false means the device's memory
  /// is gone, so survivors re-load from host over their own PCIe links.
  /// Returns the number of columns that found a new home.
  int RebalanceAway(int device, bool source_reachable);

 private:
  Simulator* simulator_;
  std::vector<DataCache*> caches_;
  std::vector<DeviceCircuitBreaker*> breakers_;

  mutable std::mutex mutex_;       // guards live_ and device_gate_
  std::vector<bool> live_;
  std::function<bool(int)> device_gate_;
  /// Round-robin tie-breaker so input-free operators (e.g. joins of two
  /// host-resident tables) spread instead of all landing on device 0.
  mutable std::atomic<uint64_t> spread_clock_{0};
};

}  // namespace hetdb

#endif  // HETDB_PLACEMENT_SHARDING_H_
