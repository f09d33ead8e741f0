#include "telemetry/telemetry.h"

#include <atomic>

namespace hetdb {

Telemetry::Telemetry()
    : gpu_operator_aborts_(&registry_.GetCounter("engine.gpu_operator_aborts")),
      wasted_micros_(&registry_.GetCounter("engine.wasted_micros")),
      heap_declines_(&registry_.GetCounter("engine.heap_declines")),
      cpu_operators_(&registry_.GetCounter("engine.cpu_operators")),
      gpu_operators_(&registry_.GetCounter("engine.gpu_operators")),
      queries_completed_(&registry_.GetCounter("engine.queries_completed")) {}

uint64_t Telemetry::NextQueryId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

MetricRegistry& GlobalKernelMetrics() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

}  // namespace hetdb
