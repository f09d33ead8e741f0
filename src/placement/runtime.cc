#include "placement/runtime.h"

#include <limits>

namespace hetdb {

namespace {

std::vector<TablePtr> InputTables(const std::vector<OperatorResult*>& inputs) {
  std::vector<TablePtr> tables;
  tables.reserve(inputs.size());
  for (const OperatorResult* input : inputs) tables.push_back(input->table);
  return tables;
}

/// Phase 1 of a device attempt: the input bytes it must bring to the device.
size_t MissingInputBytes(const PlanNode& node,
                         const std::vector<OperatorResult*>& inputs,
                         EngineContext& ctx) {
  if (node.op() == PlanOp::kScan) {
    return UncachedScanBytes(static_cast<const ScanNode&>(node), ctx);
  }
  size_t missing = 0;
  for (const OperatorResult* input : inputs) {
    if (input->location != ProcessorKind::kGpu) missing += input->table_bytes();
  }
  return missing;
}

/// Outside paper mode, whether a non-scan `node` whose host-resident inputs
/// are all intermediates finishes sooner on the device, shipping them over
/// PCIe, than on an idle CPU, copying back its device-held intermediates.
/// Analytical estimates only: no queue load and no learned model enter.
bool ShippingIntermediatesPays(const PlanNode& node,
                               const std::vector<OperatorResult*>& inputs,
                               EngineContext& ctx) {
  if (ctx.config().paper_mode || node.op() == PlanOp::kScan) return false;
  size_t to_device = 0;
  size_t to_host = 0;
  for (const OperatorResult* input : inputs) {
    const bool on_device = input->location == ProcessorKind::kGpu;
    if (input->base_data) {
      // Base columns cross PCIe only through the placement job.
      if (!on_device) return false;
    } else {
      (on_device ? to_host : to_device) += input->table_bytes();
    }
  }
  const Simulator& sim = ctx.simulator();
  const size_t bytes = node.InputBytes(InputTables(inputs));
  const double device =
      sim.EstimateComputeMicros(ProcessorKind::kGpu, node.op_class(), bytes) +
      sim.EstimateTransferMicros(to_device);
  const double cpu =
      sim.EstimateComputeMicros(ProcessorKind::kCpu, node.op_class(), bytes) /
          ctx.config().cpu_workers +
      sim.EstimateTransferMicros(to_host);
  return device < cpu;
}

}  // namespace

size_t UncachedScanBytes(const ScanNode& scan, EngineContext& ctx) {
  size_t missing = 0;
  for (const auto& [key, column] : scan.base_columns()) {
    if (!ctx.IsCachedOnAnyDevice(key)) {
      missing += ctx.cache().EntryBytes(*column);
    }
  }
  return missing;
}

size_t DeviceFootprint(const PlanNode& node,
                       const std::vector<OperatorResult*>& inputs,
                       EngineContext& ctx) {
  const std::vector<TablePtr> tables = InputTables(inputs);
  const size_t before_result = MissingInputBytes(node, inputs, ctx) +
                               node.IntermediateDeviceBytes(tables);
  const size_t result = node.ResultDeviceBytesBound(tables);
  return result > std::numeric_limits<size_t>::max() - before_result
             ? std::numeric_limits<size_t>::max()
             : before_result + result;
}

RuntimePlacer MakeHypePlacer() {
  return [](const PlanNode& node, const std::vector<OperatorResult*>& inputs,
            EngineContext& ctx) -> ProcessorKind {
    if (!ctx.AnyDeviceAvailable()) {
      // Every breaker open (abort storm) or every device lost: device
      // placement would be denied at execution time anyway, so place on the
      // CPU outright.
      return ProcessorKind::kCpu;
    }
    if (DeviceFootprint(node, inputs, ctx) >
        ctx.simulator().device_heap().capacity()) {
      return ProcessorKind::kCpu;  // cannot possibly fit: don't even try
    }
    // Base data always has a host copy; only device-produced intermediates
    // would need a copy-back under CPU placement.
    size_t device_resident = 0;
    for (const OperatorResult* input : inputs) {
      if (input->location == ProcessorKind::kGpu && !input->base_data) {
        device_resident += input->table_bytes();
      }
    }
    return ctx.scheduler().ChooseProcessor(
        node.op_class(), node.InputBytes(InputTables(inputs)),
        MissingInputBytes(node, inputs, ctx), device_resident);
  };
}

RuntimePlacer MakeDataDrivenPlacer() {
  return [](const PlanNode& node, const std::vector<OperatorResult*>& inputs,
            EngineContext& ctx) -> ProcessorKind {
    if (!ctx.AnyDeviceAvailable()) return ProcessorKind::kCpu;
    if (MissingInputBytes(node, inputs, ctx) > 0 &&
        !ShippingIntermediatesPays(node, inputs, ctx)) {
      return ProcessorKind::kCpu;
    }
    if (DeviceFootprint(node, inputs, ctx) >
        ctx.simulator().device_heap().capacity()) {
      return ProcessorKind::kCpu;
    }
    return ProcessorKind::kGpu;
  };
}

}  // namespace hetdb
