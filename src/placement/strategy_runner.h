#ifndef HETDB_PLACEMENT_STRATEGY_RUNNER_H_
#define HETDB_PLACEMENT_STRATEGY_RUNNER_H_

#include <memory>

#include "engine/chopping_executor.h"
#include "engine/engine_context.h"
#include "placement/pipeline_cache.h"
#include "placement/strategy.h"

namespace hetdb {

/// Executes queries under one named placement strategy.
///
/// Thread-safe: user-session threads share one runner, which is essential
/// for the chopping strategies — their single worker-thread pool *is* the
/// concurrency bound across all concurrent queries. Compile-time strategies
/// start no pool: each query runs inline on its caller's thread.
class StrategyRunner {
 public:
  StrategyRunner(EngineContext* ctx, Strategy strategy);

  StrategyRunner(const StrategyRunner&) = delete;
  StrategyRunner& operator=(const StrategyRunner&) = delete;

  /// Runs one query to completion and returns the host-resident result.
  Result<TablePtr> RunQuery(const PlanNodePtr& root);

  /// Same, attributing resources to `stats` (EXPLAIN ANALYZE, per-query
  /// workload breakdowns). Pass an empty QueryStats and the executor
  /// registers the plan it runs (after Optimize). Stats already registered
  /// against `root` make Optimize decline the fusion rewrite.
  Result<TablePtr> RunQuery(const PlanNodePtr& root, QueryStatsPtr stats);

  /// Full-control variant (server/session path): cancel token, deadline, and
  /// stats all flow through. Every strategy honours cancel and deadline
  /// before each operator runs, and a live cancel token puts the query under
  /// the engine watchdog.
  Result<TablePtr> RunQuery(const PlanNodePtr& root, QueryControls controls);

  /// The plan RunQuery executes for `root`: FusePipelines if the context's
  /// `fusion` is on (DESIGN.md §11). Returns `root` when `stats` holds nodes
  /// of another plan. Idempotent, so Server::Submit and EXPLAIN may call it
  /// first.
  PlanNodePtr Optimize(const PlanNodePtr& root,
                       const QueryStats* stats = nullptr) const;

  Strategy strategy() const { return strategy_; }
  EngineContext& ctx() { return *ctx_; }

  /// Runs the data placement job over all base columns of the context's
  /// database. Call after warm-up (or periodically) for the data-driven
  /// strategies; a no-op for operator-driven ones is harmless. Those run
  /// Algorithm 1. A runner that places by pipeline first caches the fused
  /// pipelines that ChoosePipelines completes from the context's recorded
  /// demands, and returns that choice; Algorithm 1 fills the rest.
  PipelineChoice RefreshDataPlacement();

 private:
  /// Data-Driven or Data-Driven Chopping outside paper mode: the data-driven
  /// rule sends a fused pipeline with an uncached column wholly to the CPU,
  /// so only these runners record pipelines and cache them whole. Elsewhere
  /// an uncached column costs one transfer, which Algorithm 1's frequency
  /// order already weighs; paper mode keeps Algorithm 1.
  bool PlacesByPipeline() const;

  /// Worker-pool size used to emulate *unbounded* device concurrency for the
  /// plain run-time strategy (Section 4 has no concurrency limiting).
  static constexpr int kUnboundedWorkers = 64;

  EngineContext* ctx_;
  Strategy strategy_;
  std::unique_ptr<ChoppingExecutor> executor_;
  /// Run-time placer of the pooled strategies; empty for compile-time ones,
  /// whose placement is computed per query and replayed inline.
  RuntimePlacer placer_;
};

}  // namespace hetdb

#endif  // HETDB_PLACEMENT_STRATEGY_RUNNER_H_
