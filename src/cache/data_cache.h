#ifndef HETDB_CACHE_DATA_CACHE_H_
#define HETDB_CACHE_DATA_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sim/simulator.h"
#include "storage/column.h"

namespace hetdb {

/// Cache eviction / placement strategies compared in Appendix E.
enum class EvictionPolicy { kLru, kLfu };

const char* EvictionPolicyToString(EvictionPolicy policy);

/// Statistics exposed by the cache (reset per workload run).
struct DataCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t placement_job_runs = 0;
  /// Loads abandoned because the PCIe transfer faulted (entry rolled back).
  uint64_t load_failures = 0;
};

/// The co-processor's column data cache and data placement manager.
///
/// Device memory set aside as *data cache* (Section 2.1) holds copies of
/// frequently used base-table columns so device operators can read them
/// without a PCIe transfer. Two usage modes coexist:
///
///  * **Operator-driven** (the state of the art the paper improves on):
///    operators call `RequireOnDevice`; on a miss the column is transferred
///    and demand-inserted, evicting per LRU/LFU. When the working set
///    exceeds the cache this thrashes (Figure 2).
///  * **Data-driven** (Section 3): only the background placement job
///    (`RunPlacementJob`, the paper's Algorithm 1) changes cache content,
///    pinning the most frequently accessed columns; the query processor
///    merely checks `IsCached` and places operators accordingly.
///
/// Leases implement the paper's reference counters: a column cannot be
/// dropped while an operator reads it; evictions of leased entries are
/// deferred to the last release. Concurrent loads of the same column block
/// on a per-entry latch rather than a global lock ("fine-grained latching").
class DataCache {
 public:
  /// `device_id` selects which device this cache (and its transfers) belong
  /// to; all loads go over that device's PCIe link.
  DataCache(size_t capacity_bytes, EvictionPolicy policy, Simulator* simulator,
            bool compress_entries = false, int device_id = 0);
  ~DataCache();

  DataCache(const DataCache&) = delete;
  DataCache& operator=(const DataCache&) = delete;

  /// RAII read-lease on a cached column; releases the reference count on
  /// destruction. Move-only.
  class Lease {
   public:
    Lease() = default;
    Lease(DataCache* cache, std::string key) : cache_(cache), key_(std::move(key)) {}
    ~Lease() { Release(); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        cache_ = other.cache_;
        key_ = std::move(other.key_);
        other.cache_ = nullptr;
      }
      return *this;
    }
    bool valid() const { return cache_ != nullptr; }
    void Release();

   private:
    DataCache* cache_ = nullptr;
    std::string key_;
  };

  /// Outcome of RequireOnDevice.
  struct Access {
    bool hit = false;       ///< column was already device-resident
    bool resident = false;  ///< column is device-resident after the call
    Lease lease;            ///< valid iff resident
    /// Valid iff the access succeeded transiently: the device heap buffer
    /// (`EntryBytes` of the column) the column was transferred into. The
    /// caller holds it for the operator's lifetime.
    DeviceAllocation heap_buffer;
    /// Non-OK when the column could not be brought to the device: the heap
    /// had no room for a transient column (ResourceExhausted, no byte
    /// moved) or the load transfer faulted. The column is then neither
    /// cached nor held, and the caller must abort the operator with this
    /// status (classification decides between device retry and CPU).
    Status status;
  };

  /// True iff `key` is cached and ready (data-driven placement test).
  bool IsCached(const std::string& key) const;

  /// Takes a lease if cached; records the access for LRU/LFU bookkeeping.
  std::optional<Lease> TryGet(const std::string& key);

  /// Operator-driven access: returns a lease on a hit; on a miss transfers
  /// the column over the bus and demand-inserts it (evicting as needed). If
  /// the column cannot fit even after evicting every unleased, unpinned
  /// entry, it is *transient* (`resident == false`) — the cache-thrashing
  /// path: a buffer is allocated from this device's heap *before* the
  /// transfer and handed back in `heap_buffer`, which the caller holds for
  /// the operator's lifetime. The buffer is split off `reservation` when it
  /// holds the bytes (DeviceAllocator::Allocate). When the heap has no room
  /// the access fails with ResourceExhausted before any byte crosses the
  /// bus; when the transfer faults the buffer is released again.
  Access RequireOnDevice(const ColumnPtr& column, const std::string& key,
                         DeviceAllocation* reservation = nullptr);

  /// Bytes that RequireOnDevice calls for `columns`, made now and in this
  /// order, would load into transient heap buffers: the columns that are
  /// neither cached nor admitted under the cache's admission rule. A column
  /// the cache would admit costs nothing. Concurrent accesses can change
  /// the answer before the calls are made.
  size_t TransientBytes(
      const std::vector<std::pair<std::string, ColumnPtr>>& columns) const;

  /// The paper's Algorithm 1: given all candidate columns, selects the most
  /// frequently accessed prefix that fits the budget, evicts cached columns
  /// that fell out of the set, and transfers newly selected ones. Entries
  /// cached by the job are pinned against demand eviction. The candidates
  /// named in `first` (the columns of the fused pipelines a data-driven
  /// runner completes, placement/pipeline_cache.h) take the budget before
  /// Algorithm 1's order fills the rest; with `first` empty the job is
  /// Algorithm 1.
  void RunPlacementJob(
      const std::vector<std::pair<std::string, ColumnPtr>>& columns,
      const std::vector<std::string>& first = {});

  /// Pins/unpins an entry manually (e.g. warm-up in benchmarks).
  Status Pin(const ColumnPtr& column, const std::string& key);

  /// Inserts `column` as a ready, pinned entry *without* a bus transfer —
  /// for cross-device rebalancing, where the bytes already arrived over the
  /// D2D path and charging this device's PCIe link again would double-count.
  Status AdmitMigrated(const ColumnPtr& column, const std::string& key);

  /// Drops every droppable entry (leased entries are marked for eviction).
  void Clear();

  /// Installs a demand-admission gate (null clears). While the gate returns
  /// false, RequireOnDevice misses no longer demand-insert the column but
  /// take the transient path (a heap buffer, then the transfer into it):
  /// the resident hot set stops churning under pressure. The brownout
  /// controller's L2 level is the intended caller; the gate must be cheap
  /// and lock-free (it is invoked under the cache mutex).
  void SetAdmissionGate(std::function<bool()> gate);

  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t used_bytes() const;
  DataCacheStats stats() const;
  void ResetStats();
  EvictionPolicy policy() const { return policy_; }

  /// Keys currently cached and ready (diagnostics, tests).
  std::vector<std::string> CachedKeys() const;

  /// Cached-and-ready columns with their source ColumnPtr (rebalancing:
  /// a tripped device's resident set is re-pinned on survivors).
  std::vector<std::pair<std::string, ColumnPtr>> ResidentColumns() const;

  int device_id() const { return device_id_; }

  /// Bytes one cache entry for `column` occupies (compressed when entry
  /// compression is on).
  size_t EntryBytes(const Column& column) const {
    return compress_entries_ ? column.compressed_bytes() : column.data_bytes();
  }
  bool compress_entries() const { return compress_entries_; }

 private:
  struct Entry {
    ColumnPtr column;
    size_t bytes = 0;
    bool ready = false;          // false while the initial transfer runs
    bool pinned = false;         // owned by the placement job
    bool pending_evict = false;  // drop when ref_count reaches zero
    int ref_count = 0;
    uint64_t last_access = 0;    // LRU clock
    uint64_t access_count = 0;   // LFU counter (demand mode)
  };

  void ReleaseLease(const std::string& key);
  /// Rolls back a reserved-but-unloaded entry after its transfer faulted and
  /// wakes waiters (who re-find the key and treat the vanished entry as a
  /// miss). Takes mutex_.
  void AbandonLoad(const std::string& key);
  /// Whether a miss on a key with no entry may be demand-inserted now (the
  /// brownout gate). Caller holds mutex_.
  bool AdmissionOpen() const { return !admission_gate_ || admission_gate_(); }
  /// An entry demand eviction may drop: ready, unpinned, unleased.
  static bool Droppable(const Entry& entry) {
    return entry.ready && !entry.pinned && entry.ref_count == 0 &&
           !entry.pending_evict;
  }
  /// Evicts unleased, unpinned, ready entries per policy until `bytes` fit.
  /// Returns true on success. Caller holds mutex_.
  bool EvictUntilFits(size_t bytes);
  /// Removes `it` from the map, adjusting used bytes. Caller holds mutex_.
  void RemoveEntry(std::unordered_map<std::string, Entry>::iterator it);
  /// Picks the eviction victim per policy among droppable entries.
  std::unordered_map<std::string, Entry>::iterator PickVictim();

  const size_t capacity_bytes_;
  const EvictionPolicy policy_;
  Simulator* simulator_;
  const bool compress_entries_;
  const int device_id_;

  mutable std::mutex mutex_;
  std::function<bool()> admission_gate_;
  std::condition_variable load_cv_;  // per-entry "ready" latch
  std::unordered_map<std::string, Entry> entries_;
  size_t used_bytes_ = 0;
  uint64_t access_clock_ = 0;
  DataCacheStats stats_;
};

}  // namespace hetdb

#endif  // HETDB_CACHE_DATA_CACHE_H_
