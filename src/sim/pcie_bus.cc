#include "sim/pcie_bus.h"

#include "telemetry/query_stats.h"
#include "telemetry/trace_recorder.h"

namespace hetdb {

Status PcieBus::Transfer(size_t bytes, TransferDirection direction) {
  if (bytes == 0) return Status::OK();
  // bytes / (MB/s) == microseconds, since 1 MB/s == 1 byte/us.
  double micros = static_cast<double>(bytes) / bandwidth_mbps_;
  const int lane = Index(direction);

  FaultDecision fault;
  if (fault_injector_ != nullptr && fault_injector_->enabled()) {
    fault = fault_injector_->Decide(FaultSite::kTransfer, bytes);
    if (fault.kind == FaultKind::kDeviceLost) {
      // The device fell off the bus: the transfer never starts.
      failed_transfers_.fetch_add(1, std::memory_order_relaxed);
      return fault.ToStatus("PCIe transfer of " + std::to_string(bytes) +
                            " bytes");
    }
    if (fault.kind == FaultKind::kLatencySpike) {
      micros *= fault.latency_factor;
    }
  }

  // Transfer span: total duration covers lane queuing + the modeled copy;
  // the queue_wait_us arg separates the two (Figures 6/15/19 diagnose
  // exactly this split).
  TraceSpan span;
  int64_t wait_start_micros = 0;
  if (TraceRecorder::enabled()) {
    span.Begin(direction == TransferDirection::kHostToDevice ? "H2D transfer"
                                                             : "D2H transfer",
               "transfer");
    wait_start_micros = TraceRecorder::Global().NowMicros();
  }
  {
    std::lock_guard<std::mutex> lock(lane_mutex_[lane]);
    if (span.active()) {
      span.AddArg("queue_wait_us",
                  TraceRecorder::Global().NowMicros() - wait_start_micros);
    }
    if (fault.kind == FaultKind::kTransient) {
      // The copy dies partway: half the modeled duration is wasted on the
      // lane, nothing arrives.
      clock_->Charge(micros / 2);
    } else {
      clock_->Charge(micros);
    }
  }
  if (fault.kind == FaultKind::kTransient) {
    if (span.active()) {
      span.AddArg("bytes", static_cast<int64_t>(bytes));
      span.AddArg("error", "injected transient transfer fault");
    }
    failed_transfers_.fetch_add(1, std::memory_order_relaxed);
    return fault.ToStatus("PCIe transfer of " + std::to_string(bytes) +
                          " bytes");
  }
  if (span.active()) {
    span.AddArg("bytes", static_cast<int64_t>(bytes));
    span.AddArg("modeled_us", static_cast<int64_t>(micros));
    if (fault.kind == FaultKind::kLatencySpike) {
      span.AddArg("latency_spike",
                  static_cast<int64_t>(fault.latency_factor));
    }
  }
  bytes_[lane].fetch_add(bytes, std::memory_order_relaxed);
  micros_[lane].fetch_add(static_cast<int64_t>(micros),
                          std::memory_order_relaxed);
  count_[lane].fetch_add(1, std::memory_order_relaxed);
  // Per-query attribution mirrors the global counters above exactly: only
  // successful transfers are charged, on the same thread and lane index.
  if (QueryStats* stats = QueryStatsScope::current_stats()) {
    stats->OnTransfer(lane, static_cast<int64_t>(bytes),
                      static_cast<int64_t>(micros),
                      QueryStatsScope::current_node(), device_id_);
  }
  return Status::OK();
}

void PcieBus::ResetStats() {
  for (int lane = 0; lane < 2; ++lane) {
    bytes_[lane].store(0, std::memory_order_relaxed);
    micros_[lane].store(0, std::memory_order_relaxed);
    count_[lane].store(0, std::memory_order_relaxed);
  }
  failed_transfers_.store(0, std::memory_order_relaxed);
}

}  // namespace hetdb
