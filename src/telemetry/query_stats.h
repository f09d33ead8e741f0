#ifndef HETDB_TELEMETRY_QUERY_STATS_H_
#define HETDB_TELEMETRY_QUERY_STATS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hetdb {

class QueryStats;
using QueryStatsPtr = std::shared_ptr<QueryStats>;

/// Per-plan-node slice of one query's resource consumption.
///
/// Identity fields (`index`, `parent`, `label`, `op`) are fixed at
/// registration, before execution starts; everything else is a relaxed
/// atomic so chopping workers can attribute concurrently without a latch.
/// Processors are stored as ints (0 = CPU, 1 = GPU, -1 = never ran) so this
/// header stays free of engine/sim dependencies — it is included from the
/// PCIe bus and the device allocator, which sit *below* the operator layer.
struct NodeStats {
  int index = 0;    ///< position in QueryStats::nodes() (pre-order)
  int parent = -1;  ///< parent's index; -1 for the root
  std::string label;
  std::string op;  ///< operator kind ("scan", "join", ...)

  std::atomic<int64_t> rows_in{-1};   ///< -1 until the operator ran
  std::atomic<int64_t> rows_out{-1};
  std::atomic<int64_t> cpu_kernel_micros{0};  ///< modeled kernel time
  std::atomic<int64_t> gpu_kernel_micros{0};
  std::atomic<int64_t> h2d_bytes{0};
  std::atomic<int64_t> d2h_bytes{0};
  std::atomic<int64_t> transfers{0};
  std::atomic<int64_t> cache_hits{0};
  std::atomic<int64_t> cache_misses{0};
  std::atomic<int64_t> device_alloc_bytes{0};  ///< total bytes allocated
  /// Peak *global* device-heap usage observed at this operator's allocation
  /// points (a per-operator view of the heap pressure it ran under).
  std::atomic<int64_t> heap_high_water{0};
  std::atomic<int64_t> queue_wait_micros{0};  ///< ready -> picked up
  std::atomic<int64_t> run_micros{0};         ///< wall time executing
  /// Wall time, within `run_micros`, that its CPU kernels spent in the CPU
  /// scheduler holding no core.
  std::atomic<int64_t> cpu_wait_micros{0};
  std::atomic<int64_t> attempts{0};        ///< executions incl. retries (chops)
  std::atomic<int64_t> device_retries{0};  ///< transient-fault device retries
  std::atomic<int64_t> cpu_fallbacks{0};   ///< device abort -> CPU restart
  /// Device placement run on the CPU because the heap could not hold the
  /// attempt's reservation (never started, so not an abort).
  std::atomic<int64_t> heap_declines{0};
  std::atomic<int> requested{-1};  ///< processor the placer chose
  std::atomic<int> ran_on{-1};     ///< processor that finally ran it
  /// Device the operator finally ran on (-1 for CPU / never ran). Stored as
  /// an int for the same layering reason as `ran_on`.
  std::atomic<int> device{-1};
};

/// Resource attribution for one query execution: per-plan-node NodeStats
/// plus query-level aggregates for the costs that are attributed below the
/// operator layer (PCIe bytes, device-heap high-water mark).
///
/// Lifecycle: nodes are registered single-threaded before execution (one per
/// plan operator, pre-order, keyed by the plan node's address); during
/// execution any number of threads record through the atomic counters; after
/// execution the object is read-only. QueryStats is always held by
/// shared_ptr: device allocations attributed to a query (including ones the
/// data cache keeps alive past query end) capture the shared_ptr, so the
/// free-side hook never observes a dangling object.
///
/// Per-query PCIe bytes and heap usage mirror the sim's global counters
/// exactly: transfer bytes are attributed only when the bus counts them
/// (successful transfers), and heap_high_water records the *global* heap
/// usage at the query's allocation points, captured under the allocator's
/// own mutex. Since the allocator's peak can only move at an allocation,
/// for serially executed queries summed per-query bytes equal the bus
/// totals and the max per-query high-water mark equals the allocator's peak
/// (asserted by the parity tests).
class QueryStats {
 public:
  /// Upper bound on per-device counter slots. Device indices at or above
  /// this clamp into the last slot (never expected in practice; the
  /// simulator models single-digit device counts).
  static constexpr int kMaxDevices = 16;

  QueryStats() = default;
  QueryStats(const QueryStats&) = delete;
  QueryStats& operator=(const QueryStats&) = delete;

  // --- Registration (before execution, single-threaded) --------------------
  /// Registers one plan node. `key` is the node's address (any stable
  /// pointer); `parent_key` must have been registered first (nullptr for the
  /// root). Returns the stats slot for attribution.
  NodeStats* AddNode(const void* key, const void* parent_key, std::string op,
                     std::string label);
  /// The slot registered for `key`, or nullptr.
  NodeStats* Find(const void* key) const;
  const std::vector<std::unique_ptr<NodeStats>>& nodes() const {
    return nodes_;
  }

  void set_query_id(uint64_t id) { query_id_ = id; }
  uint64_t query_id() const { return query_id_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  /// Stamps the submission time (queue-wait and wall-time baseline).
  /// Idempotent (first call wins), so a session layer can stamp a query at
  /// admission-queue entry and the executor's own MarkSubmitted keeps that
  /// earlier baseline — wall time then covers the full client-visible span.
  void MarkSubmitted();
  bool submitted() const {
    return submitted_ != std::chrono::steady_clock::time_point{};
  }
  /// Stamps completion; idempotent (first call wins).
  void MarkFinished(bool ok, const std::string& error = "");
  /// Marks the query rejected at admission (load shedding): finished,
  /// not-ok, with the distinguished `shed` outcome. A shed query never
  /// started, so it must hold no device resources. Idempotent.
  void MarkShed(const std::string& reason);
  bool finished() const { return finished_.load(std::memory_order_acquire); }
  bool ok() const { return ok_.load(std::memory_order_relaxed); }
  bool shed() const { return shed_.load(std::memory_order_relaxed); }
  const std::string& error() const { return error_; }
  /// Submission -> completion wall time (so far, if not finished).
  int64_t wall_micros() const;

  // --- Attribution entry points (thread-safe) ------------------------------
  /// One successful bus transfer. `direction` uses the bus's lane index
  /// (0 = host-to-device, 1 = device-to-host). `node` may be null (e.g. the
  /// final result copy-back, attributed to the query only). `device` is the
  /// PCIe link's device id, feeding the per-device breakdown.
  void OnTransfer(int direction, int64_t bytes, int64_t micros,
                  NodeStats* node, int device = 0);
  /// One successful device-heap allocation of `bytes`, with that allocator's
  /// *device-global* used bytes right after it. Called under the allocator's
  /// mutex, so the observed high-water mark is exact with respect to that
  /// allocator's peak.
  void OnHeapAllocated(int64_t bytes, int64_t global_used_after,
                       NodeStats* node, int device = 0);
  /// One transfer over the dedicated device-to-device interconnect (only
  /// when the machine has one; host-routed D2D shows up as a D2H + H2D pair
  /// on the per-device counters instead).
  void OnD2DTransfer(int64_t bytes, int64_t micros);
  void OnHeapFreed(int64_t bytes);
  void OnCacheAccess(bool hit, NodeStats* node);
  void OnQueueWait(int64_t micros, NodeStats* node);
  void OnRun(int64_t micros, NodeStats* node);
  /// Wall time a CPU kernel waited in the CPU scheduler holding no core.
  void OnCpuWait(int64_t micros, NodeStats* node);

  // --- Query-level aggregates ----------------------------------------------
  int64_t h2d_bytes() const {
    return h2d_bytes_.load(std::memory_order_relaxed);
  }
  int64_t d2h_bytes() const {
    return d2h_bytes_.load(std::memory_order_relaxed);
  }
  int64_t transfer_micros() const {
    return transfer_micros_.load(std::memory_order_relaxed);
  }
  int64_t transfers() const {
    return transfers_.load(std::memory_order_relaxed);
  }
  /// Device-heap bytes this query allocated and has not yet freed (bytes
  /// still held at the end are cache-resident columns it loaded).
  int64_t heap_bytes_held() const {
    return heap_current_.load(std::memory_order_relaxed);
  }
  /// Peak global device-heap usage observed at this query's allocations.
  int64_t heap_high_water() const {
    return heap_high_water_.load(std::memory_order_relaxed);
  }
  int64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  int64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }
  int64_t queue_wait_micros() const {
    return queue_wait_micros_.load(std::memory_order_relaxed);
  }
  int64_t run_micros() const {
    return run_micros_.load(std::memory_order_relaxed);
  }
  int64_t cpu_wait_micros() const {
    return cpu_wait_micros_.load(std::memory_order_relaxed);
  }

  // --- Per-device breakdowns (device index clamped to kMaxDevices) ---------
  int64_t h2d_bytes(int device) const {
    return h2d_bytes_by_device_[Clamp(device)].load(std::memory_order_relaxed);
  }
  int64_t d2h_bytes(int device) const {
    return d2h_bytes_by_device_[Clamp(device)].load(std::memory_order_relaxed);
  }
  /// Total device-heap bytes this query allocated on `device` (freed or not).
  int64_t device_alloc_bytes(int device) const {
    return alloc_bytes_by_device_[Clamp(device)].load(
        std::memory_order_relaxed);
  }
  /// Peak device-global heap usage observed at this query's allocations on
  /// `device` (the per-device slice of heap_high_water()).
  int64_t device_heap_high_water(int device) const {
    return heap_hw_by_device_[Clamp(device)].load(std::memory_order_relaxed);
  }
  int64_t d2d_bytes() const {
    return d2d_bytes_.load(std::memory_order_relaxed);
  }

  // Summed over nodes (recorded by the operator executor per node).
  int64_t device_retries() const;
  int64_t cpu_fallbacks() const;
  int64_t heap_declines() const;
  int64_t operators_run() const;

  // --- Rendering -----------------------------------------------------------
  /// EXPLAIN ANALYZE text tree: one line per operator (indented by depth)
  /// with rows, kernel time per backend, placement, PCIe bytes, cache
  /// hits/misses, heap high-water, retries/fallbacks/heap declines, and
  /// queue-wait vs run time and the run's wait for a CPU core, followed by a
  /// query-level summary line.
  std::string ToText() const;
  /// Deterministic JSON for tooling: fixed field order, nodes in
  /// registration (pre-order) order.
  std::string ToJson() const;
  /// Flat key/value summary (deterministic order) for flight-recorder
  /// query-summary records.
  std::vector<std::pair<std::string, std::string>> SummaryFields() const;

 private:
  static int Clamp(int device) {
    if (device < 0) return 0;
    return device < kMaxDevices ? device : kMaxDevices - 1;
  }

  std::vector<std::unique_ptr<NodeStats>> nodes_;
  std::unordered_map<const void*, NodeStats*> index_;
  uint64_t query_id_ = 0;
  std::string name_;
  std::string error_;

  std::chrono::steady_clock::time_point submitted_{};
  std::atomic<int64_t> finish_micros_{-1};  ///< vs submitted_; -1 = running
  std::atomic<bool> finished_{false};
  std::atomic<bool> ok_{false};
  std::atomic<bool> shed_{false};

  std::atomic<int64_t> h2d_bytes_{0};
  std::atomic<int64_t> d2h_bytes_{0};
  std::atomic<int64_t> transfer_micros_{0};
  std::atomic<int64_t> transfers_{0};
  std::atomic<int64_t> heap_current_{0};
  std::atomic<int64_t> heap_high_water_{0};
  std::atomic<int64_t> cache_hits_{0};
  std::atomic<int64_t> cache_misses_{0};
  std::atomic<int64_t> queue_wait_micros_{0};
  std::atomic<int64_t> run_micros_{0};
  std::atomic<int64_t> cpu_wait_micros_{0};
  std::atomic<int64_t> d2d_bytes_{0};
  std::atomic<int64_t> h2d_bytes_by_device_[kMaxDevices] = {};
  std::atomic<int64_t> d2h_bytes_by_device_[kMaxDevices] = {};
  std::atomic<int64_t> alloc_bytes_by_device_[kMaxDevices] = {};
  std::atomic<int64_t> heap_hw_by_device_[kMaxDevices] = {};
};

/// RAII thread-local attribution scope. While alive, everything the current
/// thread does — PCIe transfers, device-heap allocations — is attributed to
/// `stats` (and, when non-null, to `node`). Nests: an inner scope shadows
/// the outer one and restores it on destruction. The executors open one
/// scope per operator execution; layers below (bus, allocator, cache loads
/// running on the calling thread) pick the target up via `current_stats()`
/// without any signature changes. The scope carries the shared_ptr so the
/// allocator can hand ownership to allocations that outlive the query.
class QueryStatsScope {
 public:
  QueryStatsScope(QueryStatsPtr stats, NodeStats* node);
  ~QueryStatsScope();

  QueryStatsScope(const QueryStatsScope&) = delete;
  QueryStatsScope& operator=(const QueryStatsScope&) = delete;

  static QueryStats* current_stats();
  static NodeStats* current_node();
  /// Owning handle on the current stats (null when no scope is open).
  static QueryStatsPtr current_stats_shared();

 private:
  QueryStatsPtr prev_stats_;
  NodeStats* prev_node_;
};

}  // namespace hetdb

#endif  // HETDB_TELEMETRY_QUERY_STATS_H_
