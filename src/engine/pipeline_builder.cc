#include "engine/pipeline_builder.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "operators/fused_pipeline.h"
#include "telemetry/query_stats.h"

namespace hetdb {

namespace {

/// A candidate chain collected from one node, bottom-up: members[0]
/// consumes the source, and builds[j] feeds the j-th join member.
struct ChainInfo {
  std::vector<PlanNodePtr> members;
  std::vector<PlanNodePtr> builds;
  PlanNodePtr source;
};

/// Walks down from `node` collecting fusable members. Select/Project
/// continue through their child, Join through its probe child; Aggregate is
/// accepted only as the topmost member (it is a full pipeline breaker
/// anywhere else). Returns true when the chain has >= 2 members and bottoms
/// out in a Scan.
bool CollectChain(const PlanNodePtr& node, ChainInfo* out) {
  PlanNodePtr cur = node;
  bool first = true;
  bool done = false;
  while (!done) {
    switch (cur->op()) {
      case PlanOp::kAggregate:
        if (!first) {
          done = true;
          break;
        }
        out->members.push_back(cur);
        cur = cur->children()[0];
        break;
      case PlanOp::kSelect:
      case PlanOp::kProject:
        out->members.push_back(cur);
        cur = cur->children()[0];
        break;
      case PlanOp::kJoin:
        out->members.push_back(cur);
        out->builds.push_back(cur->children()[0]);
        cur = cur->children()[1];
        break;
      default:
        done = true;
        break;
    }
    first = false;
  }
  std::reverse(out->members.begin(), out->members.end());
  std::reverse(out->builds.begin(), out->builds.end());
  out->source = cur;
  return out->members.size() >= 2 && cur->op() == PlanOp::kScan;
}

/// Rebuilds `node` with `children` (same type, same parameters). Only
/// called when at least one child actually changed.
PlanNodePtr CloneWithChildren(const PlanNodePtr& node,
                              std::vector<PlanNodePtr> children) {
  switch (node->op()) {
    case PlanOp::kSelect: {
      const auto& select = static_cast<const SelectNode&>(*node);
      return std::make_shared<SelectNode>(std::move(children[0]),
                                          select.filter());
    }
    case PlanOp::kJoin: {
      const auto& join = static_cast<const JoinNode&>(*node);
      return std::make_shared<JoinNode>(
          std::move(children[0]), std::move(children[1]), join.build_key(),
          join.probe_key(), join.output_spec());
    }
    case PlanOp::kAggregate: {
      const auto& agg = static_cast<const AggregateNode&>(*node);
      return std::make_shared<AggregateNode>(std::move(children[0]),
                                             agg.group_by(), agg.aggregates());
    }
    case PlanOp::kSort: {
      const auto& sort = static_cast<const SortNode&>(*node);
      return std::make_shared<SortNode>(std::move(children[0]), sort.keys());
    }
    case PlanOp::kProject: {
      const auto& project = static_cast<const ProjectNode&>(*node);
      return std::make_shared<ProjectNode>(std::move(children[0]),
                                           project.keep_columns(),
                                           project.expressions());
    }
    case PlanOp::kLimit: {
      const auto& limit = static_cast<const LimitNode&>(*node);
      return std::make_shared<LimitNode>(std::move(children[0]),
                                         limit.limit());
    }
    case PlanOp::kFusedPipeline: {
      const auto& fused = static_cast<const FusedPipelineNode&>(*node);
      return std::make_shared<FusedPipelineNode>(std::move(children),
                                                 fused.members());
    }
    case PlanOp::kScan:
      break;  // leaf: never cloned
  }
  HETDB_LOG(Fatal) << "CloneWithChildren: unexpected op";
  return node;
}

}  // namespace

PlanNodePtr FusePipelines(const PlanNodePtr& node) {
  if (node == nullptr) return node;

  ChainInfo chain;
  if (CollectChain(node, &chain) &&
      FusedPipelineNode::Binds(chain.members,
                               static_cast<const ScanNode&>(*chain.source))) {
    // The fused node's children are the source scan plus one (recursively
    // rewritten) build subtree per join, in bottom-up member order.
    std::vector<PlanNodePtr> children{chain.source};
    for (const PlanNodePtr& build : chain.builds) {
      children.push_back(FusePipelines(build));
    }
    return std::make_shared<FusedPipelineNode>(std::move(children),
                                               std::move(chain.members));
  }

  std::vector<PlanNodePtr> children;
  children.reserve(node->children().size());
  bool changed = false;
  for (const PlanNodePtr& child : node->children()) {
    PlanNodePtr rewritten = FusePipelines(child);
    changed = changed || rewritten != child;
    children.push_back(std::move(rewritten));
  }
  if (!changed) return node;
  return CloneWithChildren(node, std::move(children));
}

PlanNodePtr OptimizePlan(const PlanNodePtr& root, const QueryStats* stats) {
  PlanNodePtr fused = FusePipelines(root);
  const bool stats_compatible = stats == nullptr || stats->nodes().empty() ||
                                stats->Find(fused.get()) != nullptr;
  return stats_compatible ? fused : root;
}

}  // namespace hetdb
