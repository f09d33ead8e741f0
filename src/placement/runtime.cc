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
    if (MissingInputBytes(node, inputs, ctx) > 0) return ProcessorKind::kCpu;
    if (DeviceFootprint(node, inputs, ctx) >
        ctx.simulator().device_heap().capacity()) {
      return ProcessorKind::kCpu;
    }
    return ProcessorKind::kGpu;
  };
}

}  // namespace hetdb
