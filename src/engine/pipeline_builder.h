#ifndef HETDB_ENGINE_PIPELINE_BUILDER_H_
#define HETDB_ENGINE_PIPELINE_BUILDER_H_

#include "operators/plan_node.h"

namespace hetdb {

/// Plan-rewrite pass: greedily groups maximal fusable operator chains into
/// `FusedPipeline` nodes (DESIGN.md §11).
///
/// A chain grows downward from a candidate top node through Select and
/// Project members (via their only child) and Join members (via the probe
/// child; the build child becomes a separate input of the fused node). An
/// Aggregate may appear only as the chain's top member. The chain must
/// bottom out in a Scan and contain at least two members, and the fused
/// node's own binder must accept it (`FusedPipelineNode::Binds`, against
/// the scan's real columns, build sides unknown): a filter on a non-source
/// column or one `CompileCnf` rejects, a probe key that is computed or not
/// an integer, and so on, leave the chain unfused, so it fuses lower down
/// instead. One binder decides, so a fused chain can fail to bind at run
/// time only on a build side, and then replays its members.
///
/// The rewrite is structural only: it never changes results. Unchanged
/// subtrees are returned as the same node objects, so running the pass on an
/// already-fused plan is the identity (FusedPipeline nodes break chains).
PlanNodePtr FusePipelines(const PlanNodePtr& root);

class QueryStats;

/// FusePipelines, unless `stats` was already registered against a
/// *different* plan: then the rewrite is declined and `root` is returned
/// unchanged — adopting it would orphan the caller's per-node attribution.
/// Whether to fuse at all is the engine context's decision: the engine
/// calls this only from StrategyRunner::Optimize.
PlanNodePtr OptimizePlan(const PlanNodePtr& root,
                         const QueryStats* stats = nullptr);

}  // namespace hetdb

#endif  // HETDB_ENGINE_PIPELINE_BUILDER_H_
