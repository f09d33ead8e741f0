#include "placement/compile_time.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/logging.h"
#include "placement/runtime.h"

namespace hetdb {

namespace {

/// Static cardinality guesses for compile-time cost estimation. Being rough
/// is deliberate: the paper lists the dependence on cardinality estimates as
/// a core weakness of compile-time placement (Section 4, drawback 2).
constexpr double kSelectSelectivity = 0.1;
constexpr double kAggregateReduction = 0.05;

/// Estimated output bytes per node, bottom-up.
double EstimateOutputBytes(const PlanNode& node,
                           const std::vector<double>& child_bytes) {
  switch (node.op()) {
    case PlanOp::kScan:
      return static_cast<double>(node.InputBytes({}));
    case PlanOp::kSelect:
      return child_bytes[0] * kSelectSelectivity;
    case PlanOp::kJoin:
      // PK-FK join: output cardinality ~ probe side.
      return child_bytes[1];
    case PlanOp::kAggregate:
      return child_bytes[0] * kAggregateReduction;
    case PlanOp::kSort:
    case PlanOp::kProject:
      return child_bytes[0];
    case PlanOp::kLimit:
      return std::min(child_bytes[0], 4096.0);
    case PlanOp::kFusedPipeline:
      // Source (child 0) flows through the fused chain's selections and
      // probes; build sides only feed hash tables.
      return child_bytes.empty() ? 0 : child_bytes[0] * kSelectSelectivity;
  }
  return child_bytes.empty() ? 0 : child_bytes[0];
}

struct PlanCostEstimator {
  EngineContext& ctx;
  const PlacementMap& placement;

  ProcessorKind PlacementOf(const PlanNode* node) const {
    auto it = placement.find(node);
    return it != placement.end() ? it->second : ProcessorKind::kCpu;
  }

  /// Returns {completion_micros, estimated_output_bytes}.
  std::pair<double, double> Estimate(const PlanNodePtr& node) const {
    std::vector<double> child_bytes;
    double children_completion = 0;
    double transfer_micros = 0;
    const ProcessorKind here = PlacementOf(node.get());
    for (const PlanNodePtr& child : node->children()) {
      auto [child_completion, bytes] = Estimate(child);
      // Children run in parallel: completion is the max.
      children_completion = std::max(children_completion, child_completion);
      child_bytes.push_back(bytes);
      if (PlacementOf(child.get()) != here && child->op() != PlanOp::kScan) {
        transfer_micros += ctx.simulator().EstimateTransferMicros(
            static_cast<size_t>(bytes));
      }
    }
    double input_bytes = 0;
    for (double b : child_bytes) input_bytes += b;
    if (node->op() == PlanOp::kScan) {
      input_bytes = static_cast<double>(node->InputBytes({}));
      if (here == ProcessorKind::kGpu) {
        // Uncached base columns must cross the bus.
        transfer_micros += ctx.simulator().EstimateTransferMicros(
            UncachedScanBytes(static_cast<const ScanNode&>(*node), ctx));
      }
    }
    const double kernel_micros =
        node->op() == PlanOp::kScan
            ? 0
            : ctx.cost_model().EstimateMicros(
                  here, node->op_class(), static_cast<size_t>(input_bytes));
    const double completion =
        children_completion + transfer_micros + kernel_micros;
    return {completion, EstimateOutputBytes(*node, child_bytes)};
  }
};

void AssignAll(const PlanNodePtr& root, ProcessorKind kind,
               PlacementMap* placement) {
  VisitPlanPostOrder(root, [&](const PlanNodePtr& node) {
    (*placement)[node.get()] = kind;
  });
}

/// Derives a full placement from the set of device leaves: a leaf is on the
/// device iff selected; any other operator is on the device iff all its
/// children are (the "chain" rule of Appendix D / Section 3.3).
PlacementMap DerivePlacementFromLeaves(
    const PlanNodePtr& root,
    const std::unordered_set<const PlanNode*>& gpu_leaves) {
  PlacementMap placement;
  VisitPlanPostOrder(root, [&](const PlanNodePtr& node) {
    if (node->children().empty()) {
      placement[node.get()] = gpu_leaves.count(node.get()) > 0
                                  ? ProcessorKind::kGpu
                                  : ProcessorKind::kCpu;
      return;
    }
    bool all_gpu = true;
    for (const PlanNodePtr& child : node->children()) {
      if (placement[child.get()] != ProcessorKind::kGpu) all_gpu = false;
    }
    placement[node.get()] =
        all_gpu ? ProcessorKind::kGpu : ProcessorKind::kCpu;
  });
  return placement;
}

std::vector<const PlanNode*> CollectLeaves(const PlanNodePtr& root) {
  std::vector<const PlanNode*> leaves;
  VisitPlanPostOrder(root, [&](const PlanNodePtr& node) {
    if (node->children().empty()) leaves.push_back(node.get());
  });
  return leaves;
}

}  // namespace

RuntimePlacer MakeReplayPlacer(PlacementMap placement) {
  return [placement = std::move(placement)](
             const PlanNode& node, const std::vector<OperatorResult*>&,
             EngineContext&) {
    auto it = placement.find(&node);
    return it != placement.end() ? it->second : ProcessorKind::kCpu;
  };
}

PlacementMap PlaceCpuOnly(const PlanNodePtr& root) {
  PlacementMap placement;
  AssignAll(root, ProcessorKind::kCpu, &placement);
  return placement;
}

PlacementMap PlaceGpuOnly(const PlanNodePtr& root) {
  PlacementMap placement;
  AssignAll(root, ProcessorKind::kGpu, &placement);
  return placement;
}

PlacementMap PlaceDataDriven(const PlanNodePtr& root, EngineContext& ctx) {
  PlacementMap placement;
  VisitPlanPostOrder(root, [&](const PlanNodePtr& node) {
    if (node->op() == PlanOp::kScan) {
      const auto& scan = static_cast<const ScanNode&>(*node);
      bool all_cached = true;
      for (const auto& [key, column] : scan.base_columns()) {
        if (!ctx.IsCachedOnAnyDevice(key)) all_cached = false;
      }
      placement[node.get()] =
          all_cached ? ProcessorKind::kGpu : ProcessorKind::kCpu;
      return;
    }
    bool all_gpu = true;
    for (const PlanNodePtr& child : node->children()) {
      if (placement[child.get()] != ProcessorKind::kGpu) all_gpu = false;
    }
    placement[node.get()] =
        all_gpu ? ProcessorKind::kGpu : ProcessorKind::kCpu;
  });
  return placement;
}

double EstimatePlanResponseMicros(const PlanNodePtr& root,
                                  const PlacementMap& placement,
                                  EngineContext& ctx) {
  PlanCostEstimator estimator{ctx, placement};
  return estimator.Estimate(root).first;
}

PlacementMap PlaceCriticalPath(const PlanNodePtr& root, EngineContext& ctx,
                               int max_iterations) {
  const std::vector<const PlanNode*> leaves = CollectLeaves(root);
  std::unordered_set<const PlanNode*> gpu_leaves;

  PlacementMap best_placement = DerivePlacementFromLeaves(root, gpu_leaves);
  double best_cost = EstimatePlanResponseMicros(root, best_placement, ctx);

  for (int iteration = 0; iteration < max_iterations; ++iteration) {
    const PlanNode* best_leaf = nullptr;
    PlacementMap best_candidate;
    double best_candidate_cost = std::numeric_limits<double>::infinity();

    for (const PlanNode* leaf : leaves) {
      if (gpu_leaves.count(leaf) > 0) continue;
      std::unordered_set<const PlanNode*> candidate_leaves = gpu_leaves;
      candidate_leaves.insert(leaf);
      PlacementMap candidate = DerivePlacementFromLeaves(root, candidate_leaves);
      const double cost = EstimatePlanResponseMicros(root, candidate, ctx);
      if (cost < best_candidate_cost) {
        best_candidate_cost = cost;
        best_candidate = std::move(candidate);
        best_leaf = leaf;
      }
    }
    if (best_leaf == nullptr || best_candidate_cost >= best_cost) {
      break;  // no single additional leaf improves the plan
    }
    gpu_leaves.insert(best_leaf);
    best_placement = std::move(best_candidate);
    best_cost = best_candidate_cost;
  }
  return best_placement;
}

}  // namespace hetdb
