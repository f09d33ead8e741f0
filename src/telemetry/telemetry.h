#ifndef HETDB_TELEMETRY_TELEMETRY_H_
#define HETDB_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <string>

#include "telemetry/metric_registry.h"
#include "telemetry/trace_recorder.h"

namespace hetdb {

/// Per-EngineContext telemetry bundle: a MetricRegistry for counters,
/// gauges, and histograms, plus typed recorders for the engine's core
/// workload counters (the former `WorkloadMetrics`, now backed by named
/// registry counters so they appear in metrics exports alongside everything
/// else).
///
/// Tracing is process-global (`TraceRecorder::Global()`) — see
/// trace_recorder.h for why — so `Telemetry` only exposes it for
/// convenience; metrics are per-context and reset per workload run. These
/// back the paper's evaluation:
///
///  * `engine.gpu_operator_aborts` — Figure 13 (aborted device operators);
///  * `engine.wasted_micros` — Figure 20: operator start to abort, summed
///    over aborted device operators;
///  * `engine.heap_declines` — device operators run on the CPU before they
///    started because the heap could not hold their reservation (never in
///    paper mode; not an abort);
///  * `workload.latency_us.<query>` histograms — Figures 17, 21, 25 (tails);
///  * transfer time/bytes are read from the PcieBus (Figures 6, 15, 19).
class Telemetry {
 public:
  Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricRegistry& registry() { return registry_; }
  const MetricRegistry& registry() const { return registry_; }
  static TraceRecorder& recorder() { return TraceRecorder::Global(); }

  /// Engine-global monotonically increasing query number, used to stamp
  /// trace spans of one query's operators with a shared id.
  static uint64_t NextQueryId();

  // --- Workload counter API (drop-in for the former WorkloadMetrics) -------
  /// `device` keys the per-device breakdown counters; the aggregate
  /// counters above always advance too, so single-device readers see
  /// unchanged totals.
  void RecordGpuAbort(int64_t wasted_micros, int device = 0) {
    gpu_operator_aborts_->Increment();
    wasted_micros_->Increment(wasted_micros);
    DeviceCounter("engine.gpu_operator_aborts", device).Increment();
  }
  void RecordHeapDecline(int device = 0) {
    heap_declines_->Increment();
    DeviceCounter("engine.heap_declines", device).Increment();
  }
  void RecordOperator(bool on_gpu, int device = 0) {
    (on_gpu ? gpu_operators_ : cpu_operators_)->Increment();
    if (on_gpu) DeviceCounter("engine.gpu_operators", device).Increment();
  }
  void RecordQueryDone() { queries_completed_->Increment(); }

  uint64_t gpu_operator_aborts() const {
    return static_cast<uint64_t>(gpu_operator_aborts_->value());
  }
  int64_t wasted_micros() const { return wasted_micros_->value(); }
  uint64_t heap_declines() const {
    return static_cast<uint64_t>(heap_declines_->value());
  }
  uint64_t cpu_operators() const {
    return static_cast<uint64_t>(cpu_operators_->value());
  }
  uint64_t gpu_operators() const {
    return static_cast<uint64_t>(gpu_operators_->value());
  }
  uint64_t queries_completed() const {
    return static_cast<uint64_t>(queries_completed_->value());
  }

  // Per-device breakdowns (device 0 of a single-device machine matches the
  // aggregates above).
  uint64_t gpu_operators(int device) {
    return static_cast<uint64_t>(
        DeviceCounter("engine.gpu_operators", device).value());
  }
  uint64_t gpu_operator_aborts(int device) {
    return static_cast<uint64_t>(
        DeviceCounter("engine.gpu_operator_aborts", device).value());
  }
  uint64_t heap_declines(int device) {
    return static_cast<uint64_t>(
        DeviceCounter("engine.heap_declines", device).value());
  }

  /// Zeroes every metric in the registry (per-run reset).
  void Reset() { registry_.Reset(); }

 private:
  Counter& DeviceCounter(const char* base, int device) {
    return registry_.GetCounter(std::string(base) + ".device" +
                                std::to_string(device));
  }

  MetricRegistry registry_;
  // Cached so the hot recording paths skip the registry map lookup.
  Counter* gpu_operator_aborts_;
  Counter* wasted_micros_;
  Counter* heap_declines_;
  Counter* cpu_operators_;
  Counter* gpu_operators_;
  Counter* queries_completed_;
};

/// Process-global registry for the compute kernels' own metrics
/// (`kernel.<name>.latency_us` histograms, `kernel.<name>.morsels` /
/// `.invocations` counters, `kernel.<name>.dop` histograms). The kernels are
/// context-free — every executor and placement strategy shares them — so,
/// like the trace recorder, their instrumentation cannot live on a
/// per-EngineContext registry. Never destroyed (kernels may run during
/// static teardown of benchmarks).
MetricRegistry& GlobalKernelMetrics();

}  // namespace hetdb

#endif  // HETDB_TELEMETRY_TELEMETRY_H_
