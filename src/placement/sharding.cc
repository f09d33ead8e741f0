#include "placement/sharding.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "operators/plan_node.h"

namespace hetdb {

DeviceShardingPolicy::DeviceShardingPolicy(
    Simulator* simulator, std::vector<DataCache*> caches,
    std::vector<DeviceCircuitBreaker*> breakers)
    : simulator_(simulator),
      caches_(std::move(caches)),
      breakers_(std::move(breakers)) {
  HETDB_CHECK(simulator_ != nullptr);
  HETDB_CHECK(!caches_.empty());
  HETDB_CHECK(caches_.size() == breakers_.size());
  live_.assign(caches_.size(), true);
}

bool DeviceShardingPolicy::IsLive(int device) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return device >= 0 && device < static_cast<int>(live_.size()) &&
         live_[static_cast<size_t>(device)];
}

std::vector<int> DeviceShardingPolicy::LiveDevices() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> out;
  for (int d = 0; d < static_cast<int>(live_.size()); ++d) {
    if (live_[static_cast<size_t>(d)]) out.push_back(d);
  }
  return out;
}

int DeviceShardingPolicy::AffinityDevice(const std::string& key) const {
  const std::vector<int> live = LiveDevices();
  if (live.empty()) return -1;
  const size_t hash = std::hash<std::string>{}(key);
  return live[hash % live.size()];
}

int DeviceShardingPolicy::QueryHomeDevice(const PlanNode& root) const {
  // The query's base-column footprint — every base column any of its scans
  // reads — fingerprints the query *template*: two SSB flights (and even
  // two queries within a flight) differ in at least one filter or carry
  // column. Hashing the footprint therefore spreads the 13 SSB templates
  // near-uniformly over the devices, where hashing any single anchor
  // column would pile entire flights onto one device (flights 3 and 4 all
  // scan lo_custkey first). Fused-pipeline nodes keep their source scan as
  // children()[0], so a plain child walk sees every scan of the plan.
  size_t fingerprint = 0;
  bool any = false;
  const std::function<void(const PlanNode&)> walk = [&](const PlanNode& node) {
    if (node.op() == PlanOp::kScan) {
      const auto& scan = static_cast<const ScanNode&>(node);
      for (const auto& [key, column] : scan.base_columns()) {
        any = true;
        // Deterministic order-sensitive mix (walk order is plan order).
        fingerprint =
            fingerprint * 1099511628211ull + std::hash<std::string>{}(key);
      }
    }
    for (const PlanNodePtr& child : node.children()) walk(*child);
  };
  walk(root);
  if (!any) return -1;
  const std::vector<int> live = LiveDevices();
  if (live.empty()) return -1;
  return live[fingerprint % live.size()];
}

int DeviceShardingPolicy::PickDevice(
    const std::vector<std::string>& input_keys,
    const std::vector<std::pair<int, size_t>>& resident_inputs,
    int preferred_device) const {
  // Candidates: live devices whose breaker admits work right now. The
  // breaker peek also advances open-state cooldown, which is what lets a
  // tripped device eventually half-open under a placement-only load. The
  // brownout gate (when installed) prunes devices policy has benched.
  std::function<bool(int)> gate;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    gate = device_gate_;
  }
  std::vector<int> candidates;
  for (const int d : LiveDevices()) {
    if (gate && !gate(d)) continue;
    if (breakers_[static_cast<size_t>(d)]->device_available()) {
      candidates.push_back(d);
    }
  }
  if (candidates.empty()) return -1;
  if (candidates.size() == 1) return candidates[0];

  // Score: resident input *bytes* dominate — a foreign input costs a
  // migration proportional to its size, so a join runs where its big side
  // lives and only the small side crosses devices. Cached base columns add
  // a constant (a cold scan costs an H2D load).
  int best = -1;
  int64_t best_score = -1;
  size_t best_free = 0;
  for (const int d : candidates) {
    int64_t score = 0;
    for (const auto& [input_device, bytes] : resident_inputs) {
      if (input_device == d) {
        score += 2 + static_cast<int64_t>(bytes / 1024);
      }
    }
    for (const std::string& key : input_keys) {
      if (caches_[static_cast<size_t>(d)]->IsCached(key)) score += 2;
    }
    // The query-home bonus outranks cached-column pull (a small column
    // re-loads once and demand-caches on the home) but yields to resident
    // inputs ≥64 KiB (migrating those is what the bonus exists to avoid).
    if (d == preferred_device) score += 64;
    const size_t free = simulator_->device_heap(d).available();
    if (score > best_score || (score == best_score && free > best_free)) {
      best = d;
      best_score = score;
      best_free = free;
    }
  }
  if (best_score > 0) return best;

  // Nothing resident anywhere. Scans go to their first column's affinity
  // home (builds the sharded working set); everything else round-robins so
  // join builds and fused-pipeline heaps spread across the devices.
  if (!input_keys.empty()) {
    const size_t hash = std::hash<std::string>{}(input_keys.front());
    return candidates[hash % candidates.size()];
  }
  const uint64_t tick =
      spread_clock_.fetch_add(1, std::memory_order_relaxed);
  return candidates[tick % candidates.size()];
}

void DeviceShardingPolicy::SetDeviceGate(std::function<bool(int)> gate) {
  std::lock_guard<std::mutex> lock(mutex_);
  device_gate_ = std::move(gate);
}

void DeviceShardingPolicy::MarkDeviceLost(int device) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (device >= 0 && device < static_cast<int>(live_.size())) {
    live_[static_cast<size_t>(device)] = false;
  }
}

void DeviceShardingPolicy::MarkDeviceRestored(int device) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (device >= 0 && device < static_cast<int>(live_.size())) {
    live_[static_cast<size_t>(device)] = true;
  }
}

int DeviceShardingPolicy::RebalanceAway(int device, bool source_reachable) {
  if (device < 0 || device >= device_count()) return 0;
  DataCache& source = *caches_[static_cast<size_t>(device)];
  const auto resident = source.ResidentColumns();
  int moved = 0;
  for (const auto& [key, column] : resident) {
    const int target = AffinityDevice(key);
    if (target < 0 || target == device) continue;
    DataCache& destination = *caches_[static_cast<size_t>(target)];
    if (destination.IsCached(key)) {
      ++moved;  // survivor already holds its shard of the key
      continue;
    }
    const size_t bytes = destination.EntryBytes(*column);
    if (source_reachable) {
      // Breaker trip with the device still on the bus: move the cached
      // bytes directly, charging the D2D path (dedicated link, or
      // D2H + H2D through the host without one).
      if (!simulator_->TransferDeviceToDevice(bytes, device, target).ok()) {
        continue;
      }
      if (destination.AdmitMigrated(column, key).ok()) ++moved;
    } else {
      // Device memory is gone: the survivor re-loads from the host copy
      // over its own PCIe link.
      if (destination.Pin(column, key).ok()) ++moved;
    }
  }
  // Either way the source's entries are no longer usable for placement.
  source.Clear();
  return moved;
}

}  // namespace hetdb
