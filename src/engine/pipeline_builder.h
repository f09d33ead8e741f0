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
/// bottom out in a Scan and contain at least two members; a static
/// name-binding check (mirroring the runtime binder's rules) rejects chains
/// the fused evaluator would decline — e.g. filters on non-source columns
/// or probe keys on computed columns — so those fuse lower down instead.
///
/// The rewrite is structural only: it never changes results. Unchanged
/// subtrees are returned as the same node objects, so running the pass on an
/// already-fused plan is the identity (FusedPipeline nodes break chains).
///
/// `max_fused_joins` bounds the join members one fused pipeline may absorb
/// (-1 = unlimited). A chain over the bound is declined whole; the recursion
/// then fuses the shorter chains below it, so the plan degrades to several
/// smaller pipelines instead of one deep one. The brownout controller's L1
/// level uses `1` to disable *multi*-join fusion: deep fused pipelines hold
/// every build table on-device at once, exactly the footprint to shed first
/// under heap pressure.
PlanNodePtr FusePipelines(const PlanNodePtr& root, int max_fused_joins = -1);

class QueryStats;

/// FusePipelines, unless `stats` was already registered against a
/// *different* plan: then the rewrite is declined and `root` is returned
/// unchanged — adopting it would orphan the caller's per-node attribution.
/// `max_fused_joins` passes through to FusePipelines. Whether to fuse at
/// all, and the brownout cap, are the engine context's decision: the
/// engine calls this only from StrategyRunner::Optimize.
PlanNodePtr OptimizePlan(const PlanNodePtr& root,
                         const QueryStats* stats = nullptr,
                         int max_fused_joins = -1);

}  // namespace hetdb

#endif  // HETDB_ENGINE_PIPELINE_BUILDER_H_
