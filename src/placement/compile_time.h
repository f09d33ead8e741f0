#ifndef HETDB_PLACEMENT_COMPILE_TIME_H_
#define HETDB_PLACEMENT_COMPILE_TIME_H_

#include <unordered_map>

#include "engine/chopping_executor.h"
#include "engine/engine_context.h"
#include "operators/plan_node.h"

namespace hetdb {

/// Compile-time operator placement: one processor per plan node, fixed
/// before execution starts.
using PlacementMap = std::unordered_map<const PlanNode*, ProcessorKind>;

/// A placer that replays `placement`; nodes missing from it run on the CPU.
/// An operator that aborts on the device restarts on the CPU, but its
/// successors keep their compile-time processor — the ping-pong transfers
/// the paper illustrates in Figure 8.
RuntimePlacer MakeReplayPlacer(PlacementMap placement);

/// All operators on the CPU.
PlacementMap PlaceCpuOnly(const PlanNodePtr& root);

/// "GPU Preferred": all operators compile-time-placed on the device. The
/// engine's fault handling moves aborting operators back to the CPU, but the
/// successors keep their device placement — the Figure 8 pathology.
PlacementMap PlaceGpuOnly(const PlanNodePtr& root);

/// Compile-time data-driven placement (Section 3.3): a scan goes to the
/// device iff *all* its input columns are currently cached there; any other
/// operator goes to the device iff all of its children did. Operators chain
/// on the device from the leaves until an input is missing, after which the
/// rest of the query runs on the CPU.
PlacementMap PlaceDataDriven(const PlanNodePtr& root, EngineContext& ctx);

/// CoGaDB's default Critical Path optimizer (Appendix D): iterative
/// refinement over "leaf chains". Starting from a pure CPU plan, each round
/// tentatively moves one more leaf (and its unary chain up to the first
/// binary ancestor) to the device, estimates the response time of the
/// resulting hybrid plan with the (learned) cost models, and keeps the best
/// plan; it stops when no single additional leaf improves the estimate or
/// after `max_iterations` rounds.
PlacementMap PlaceCriticalPath(const PlanNodePtr& root, EngineContext& ctx,
                               int max_iterations = 32);

/// Estimated response time (microseconds) of a placed plan, using the cost
/// model and static cardinality guesses. Exposed for tests and diagnostics.
double EstimatePlanResponseMicros(const PlanNodePtr& root,
                                  const PlacementMap& placement,
                                  EngineContext& ctx);

}  // namespace hetdb

#endif  // HETDB_PLACEMENT_COMPILE_TIME_H_
