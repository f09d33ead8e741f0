#ifndef HETDB_ENGINE_OPERATOR_EXECUTOR_H_
#define HETDB_ENGINE_OPERATOR_EXECUTOR_H_

#include <functional>
#include <vector>

#include "cache/data_cache.h"
#include "engine/engine_context.h"
#include "operators/plan_node.h"
#include "sim/device_allocator.h"
#include "sim/simulator.h"

namespace hetdb {

/// Materialized output of one executed operator, together with the resources
/// that keep it device-resident (cache leases for base columns, heap
/// allocations for transient inputs and intermediate results).
///
/// The executor keeps a child's OperatorResult alive until its parent has
/// consumed it, then drops it — releasing device memory and cache pins.
struct OperatorResult {
  TablePtr table;
  /// Where the data lives. kGpu means the authoritative copy is on the
  /// device (a CPU consumer must pay a device-to-host transfer) — except for
  /// base data, which always also exists in host memory.
  ProcessorKind location = ProcessorKind::kCpu;
  /// True for scan outputs: base columns always have a host copy, so a CPU
  /// consumer never pays a transfer even if the scan ran on the device.
  bool base_data = false;
  /// Device holding the bytes when `location == kGpu` (leases/allocations
  /// below belong to it). Meaningless for host-resident results.
  int device = 0;

  std::vector<DataCache::Lease> cache_leases;
  std::vector<DeviceAllocation> device_allocations;

  size_t table_bytes() const { return table == nullptr ? 0 : table->data_bytes(); }

  /// Drops device residency (allocations + leases), keeping the host table.
  void ReleaseDeviceResources() {
    device_allocations.clear();
    cache_leases.clear();
  }
};

/// Executes `node` on `processor` over the children's results.
///
/// CPU path: if a child result lives on the device (and is not base data),
/// pays the device-to-host transfer; then runs the kernel and charges CPU
/// time through the simulator.
///
/// Device path (in order, mirroring Section 4.1 — "operators typically start
/// with the allocation of memory for their input data and data structures"):
///   1. acquire inputs — for a scan's base columns a cache lease, or a heap
///      buffer the cache allocates before the column's transfer; heap
///      allocation + host-to-device transfer for host-resident inputs;
///   2. allocate intermediate data structures from the device heap;
///   3. run the kernel, charging device time;
///   4. allocate the result buffer (actual result size).
/// Phases 1 and 2 draw their buffers from `reservation` when it holds them
/// (ExecuteWithFallback reserves them outside paper mode) and otherwise
/// allocate from the heap as they go; phase 4 always allocates from the
/// heap. Any failing allocation aborts the operator with ResourceExhausted;
/// the elapsed time up to the abort is recorded as *wasted time* and all
/// partial allocations are rolled back. The caller decides how to recover
/// (the engine's fallback restarts the operator on the CPU, Section 2.5.1).
/// `device` selects which co-processor a kGpu execution binds to (heap,
/// cache, PCIe link, kernel lock, fault injector). Device-resident inputs
/// living on *another* device are migrated over the D2D path (dedicated
/// link or host-staged); host/base inputs pay H2D on `device`'s own link.
Result<OperatorResult> ExecuteOperator(const PlanNode& node,
                                       const std::vector<OperatorResult*>& inputs,
                                       ProcessorKind processor,
                                       EngineContext& ctx, int device = 0,
                                       DeviceAllocation* reservation = nullptr);

/// Device retries granted to an operator whose device attempt failed with a
/// *transient* fault (Unavailable) before it falls back to the CPU.
/// Persistent faults (ResourceExhausted, DeviceLost) never retry on the
/// device: heap contention does not resolve by retrying (Section 2.5.1) and
/// a lost device will not come back for this operator.
inline constexpr int kDeviceRetryLimit = 2;
/// Retries granted to a result copy-back transfer that failed transiently.
/// A D2H copy has no CPU fallback (the authoritative bytes are on the
/// device), so the only recovery is retrying the wire.
inline constexpr int kTransferRetryLimit = 2;

/// ExecuteOperator with the engine's full fault handling:
///
///  * outside paper mode (`SystemConfig::paper_mode`) the attempt first
///    reserves, in one allocation, every byte of phases 1 and 2: the scan
///    columns `device`'s cache will not hold (asked of the cache under its
///    admission rule), the inputs not yet on `device`, and the
///    intermediates. When the free heap cannot hold that the operator runs
///    on the CPU without starting — a *heap decline*: no byte moves, and it
///    is neither an abort nor a breaker outcome. It does not wait for heap
///    (the operator may hold its inputs' device results: Section 2.5.1's
///    deadlock). The bytes the attempt does not draw are freed when it ends;
///  * the device circuit breaker is consulted next — while it is open the
///    operator short-circuits to the CPU without touching the device;
///  * a *transient* device fault (Unavailable) retries on the device up to
///    kDeviceRetryLimit times, charging exponential modeled backoff between
///    attempts; each retry reserves afresh, and one the heap cannot hold
///    falls back to the CPU;
///  * a *persistent* abort (ResourceExhausted — the paper's heap-contention
///    abort, Section 2.5.1 — or DeviceLost) restarts the operator on the CPU
///    immediately; already-computed child results are preserved;
///  * any non-device-abort error propagates unchanged.
///
/// Every admitted device attempt reports its outcome to the breaker.
/// Returns the result together with the processor that finally ran it.
struct ExecutedOperator {
  OperatorResult result;
  ProcessorKind ran_on = ProcessorKind::kCpu;
  bool aborted = false;  ///< true if the device attempt failed and fell back
};
Result<ExecutedOperator> ExecuteWithFallback(
    const PlanNode& node, const std::vector<OperatorResult*>& inputs,
    ProcessorKind processor, EngineContext& ctx, int device = 0);

/// Runs one bus transfer, retrying transient faults (Unavailable) up to
/// kTransferRetryLimit times with exponential modeled backoff. For
/// device-to-host result copy-backs, whose only recovery is the wire itself.
/// Persistent faults return the clean non-OK status.
Status TransferWithRetry(size_t bytes, TransferDirection direction,
                         EngineContext& ctx, int device = 0);

}  // namespace hetdb

#endif  // HETDB_ENGINE_OPERATOR_EXECUTOR_H_
