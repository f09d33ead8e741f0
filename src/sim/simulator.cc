#include "sim/simulator.h"

#include "common/logging.h"
#include "telemetry/query_stats.h"

namespace hetdb {

const char* ProcessorKindToString(ProcessorKind kind) {
  switch (kind) {
    case ProcessorKind::kCpu:
      return "CPU";
    case ProcessorKind::kGpu:
      return "GPU";
  }
  return "unknown";
}

Simulator::Simulator(const SystemConfig& config)
    : config_(config),
      clock_(config.simulate_time, config.time_scale),
      cpu_(config.cpu_workers, config.time_scale),
      retry_rng_(kRetryJitterSeed) {
  HETDB_CHECK(config.cpu_workers > 0);
  HETDB_CHECK(config.pcie_mbps > 0);
  HETDB_CHECK(config.device_count > 0);
  devices_.reserve(static_cast<size_t>(config.device_count));
  for (int d = 0; d < config.device_count; ++d) {
    auto device = std::make_unique<Device>();
    device->fault_injector = std::make_unique<FaultInjector>();
    device->heap = std::make_unique<DeviceAllocator>(
        config.device_heap_bytes(), device->fault_injector.get(), d);
    device->bus = std::make_unique<PcieBus>(
        config.pcie_mbps, &clock_, device->fault_injector.get(), d);
    devices_.push_back(std::move(device));
  }
}

double Simulator::RetryBackoffMicros(int attempt) {
  const double ceiling =
      kRetryBackoffBaseMicros * static_cast<double>(1ull << attempt);
  std::lock_guard<std::mutex> lock(retry_rng_mutex_);
  return retry_rng_.NextDouble() * ceiling;
}

int Simulator::Check(int device) const {
  HETDB_CHECK(device >= 0 && device < static_cast<int>(devices_.size()));
  return device;
}

double Simulator::ThroughputMbps(ProcessorKind processor,
                                 OpClass op_class) const {
  const ThroughputTable& table = processor == ProcessorKind::kCpu
                                     ? config_.cpu_throughput
                                     : config_.gpu_throughput;
  switch (op_class) {
    case OpClass::kScan:
      return table.scan_mbps;
    case OpClass::kJoin:
      return table.join_mbps;
    case OpClass::kAggregate:
      return table.aggregate_mbps;
    case OpClass::kSort:
      return table.sort_mbps;
    case OpClass::kProject:
      return table.project_mbps;
    case OpClass::kMaterialize:
      return table.materialize_mbps;
  }
  return table.scan_mbps;
}

double Simulator::EstimateComputeMicros(ProcessorKind processor,
                                        OpClass op_class,
                                        size_t input_bytes) const {
  // bytes / (MB/s) == microseconds.
  return static_cast<double>(input_bytes) / ThroughputMbps(processor, op_class);
}

double Simulator::EstimateTransferMicros(size_t bytes) const {
  return static_cast<double>(bytes) / config_.pcie_mbps;
}

void Simulator::ChargeCompute(ProcessorKind processor, OpClass op_class,
                              size_t input_bytes, int device) {
  const double micros = EstimateComputeMicros(processor, op_class, input_bytes);
  if (processor == ProcessorKind::kGpu) {
    std::lock_guard<std::mutex> lock(devices_[Check(device)]->kernel_mutex);
    clock_.Charge(micros);
    return;
  }
  // The clock counts the kernel's time on every core; the scheduler realizes
  // it shortest-first on the shared cores.
  clock_.Count(micros / config_.cpu_workers);
  if (!clock_.simulate()) return;
  const double waited = cpu_.Run(micros);
  if (QueryStats* stats = QueryStatsScope::current_stats()) {
    stats->OnCpuWait(static_cast<int64_t>(waited),
                     QueryStatsScope::current_node());
  }
}

Status Simulator::TransferDeviceToDevice(size_t bytes, int from, int to) {
  Check(from);
  Check(to);
  if (bytes == 0 || from == to) return Status::OK();
  if (config_.d2d_mbps > 0) {
    const double micros = static_cast<double>(bytes) / config_.d2d_mbps;
    {
      std::lock_guard<std::mutex> lock(d2d_lane_mutex_);
      clock_.Charge(micros);
    }
    d2d_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    d2d_count_.fetch_add(1, std::memory_order_relaxed);
    if (QueryStats* stats = QueryStatsScope::current_stats()) {
      stats->OnD2DTransfer(static_cast<int64_t>(bytes),
                           static_cast<int64_t>(micros));
    }
    return Status::OK();
  }
  // No dedicated interconnect: stage through host memory. Both hops consult
  // their own link's fault injector, so a dying source or destination device
  // fails the migration with the right status.
  Status down = bus(from).Transfer(bytes, TransferDirection::kDeviceToHost);
  if (!down.ok()) return down;
  return bus(to).Transfer(bytes, TransferDirection::kHostToDevice);
}

}  // namespace hetdb
