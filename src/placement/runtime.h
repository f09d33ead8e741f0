#ifndef HETDB_PLACEMENT_RUNTIME_H_
#define HETDB_PLACEMENT_RUNTIME_H_

#include <vector>

#include "engine/chopping_executor.h"

namespace hetdb {

/// Bytes the data cache must move to bring `scan`'s columns that no device
/// caches onto a device: their cache entries (`DataCache::EntryBytes`),
/// bit-packed under `compress_device_cache`.
size_t UncachedScanBytes(const ScanNode& scan, EngineContext& ctx);

/// Upper bound on the device-heap bytes a device attempt of `node` over
/// `inputs` allocates, given the data cache's contents now: the sum of the
/// attempt's allocation phases (ExecuteOperator in
/// engine/operator_executor.h).
///  1. Inputs. A scan costs its columns that no device caches (a cached
///     column is a cache lease, an uncached one may need a transient heap
///     buffer); any other operator costs its inputs that are not
///     device-resident.
///  2. Intermediates: `PlanNode::IntermediateDeviceBytes`.
///  4. Result: `PlanNode::ResultDeviceBytesBound`. An aggregate, standalone
///     or ending a fused pipeline, costs its groups, not its input.
/// Reads no probe-side column data. SIZE_MAX means no bound.
size_t DeviceFootprint(const PlanNode& node,
                       const std::vector<OperatorResult*>& inputs,
                       EngineContext& ctx);

/// Operator-driven run-time placement (Sections 4 and 5.2): HyPE picks the
/// processor with the lower estimated completion time, accounting for
/// queue load and the bytes that would have to cross the bus. An operator
/// whose DeviceFootprint exceeds the device heap cannot fit, so it goes
/// straight to the CPU.
RuntimePlacer MakeHypePlacer();

/// Data-driven run-time placement (Section 5.4): scans go to the device iff
/// all their input columns are cached there; other operators go to the
/// device iff every input is device-resident. Two departures from that rule:
///  * the heap veto shared with MakeHypePlacer: an operator whose
///    DeviceFootprint exceeds the device heap cannot fit, so it goes to the
///    CPU;
///  * outside paper mode, a non-scan operator whose host-resident inputs are
///    all intermediates goes to the device when its modeled device time plus
///    their host-to-device transfer is below its modeled time on every CPU
///    slot plus the copy-back of its device-held intermediates. A
///    host-resident base-data input still keeps it on the CPU. With PCIe
///    slower than the CPU slots together, a single-input operator never
///    passes this test.
/// After an abort the restarted operator's output is host-resident, so
/// successors fall back to the CPU automatically.
RuntimePlacer MakeDataDrivenPlacer();

}  // namespace hetdb

#endif  // HETDB_PLACEMENT_RUNTIME_H_
