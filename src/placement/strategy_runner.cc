#include "placement/strategy_runner.h"

#include "common/logging.h"
#include "engine/pipeline_builder.h"
#include "placement/compile_time.h"
#include "placement/runtime.h"

namespace hetdb {

const char* StrategyToString(Strategy strategy) {
  switch (strategy) {
    case Strategy::kCpuOnly:
      return "CPU Only";
    case Strategy::kGpuOnly:
      return "GPU Only";
    case Strategy::kCriticalPath:
      return "Critical Path";
    case Strategy::kDataDriven:
      return "Data-Driven";
    case Strategy::kRunTime:
      return "Run-Time";
    case Strategy::kChopping:
      return "Chopping";
    case Strategy::kDataDrivenChopping:
      return "Data-Driven Chopping";
  }
  return "unknown";
}

StrategyRunner::StrategyRunner(EngineContext* ctx, Strategy strategy)
    : ctx_(ctx), strategy_(strategy) {
  HETDB_CHECK(ctx_ != nullptr);
  switch (strategy_) {
    case Strategy::kRunTime:
      // Run-time placement without concurrency limiting: a pool large enough
      // to never be the bottleneck.
      executor_ = std::make_unique<ChoppingExecutor>(ctx_, kUnboundedWorkers,
                                                     kUnboundedWorkers);
      placer_ = MakeHypePlacer();
      break;
    case Strategy::kChopping:
      executor_ = std::make_unique<ChoppingExecutor>(
          ctx_, ctx_->config().cpu_workers, ctx_->config().gpu_workers);
      placer_ = MakeHypePlacer();
      break;
    case Strategy::kDataDrivenChopping:
      executor_ = std::make_unique<ChoppingExecutor>(
          ctx_, ctx_->config().cpu_workers, ctx_->config().gpu_workers);
      placer_ = MakeDataDrivenPlacer();
      break;
    default:
      // Compile-time strategies run inline on the caller's thread.
      executor_ = std::make_unique<ChoppingExecutor>(ctx_);
      break;
  }
}

Result<TablePtr> StrategyRunner::RunQuery(const PlanNodePtr& root) {
  return RunQuery(root, nullptr);
}

Result<TablePtr> StrategyRunner::RunQuery(const PlanNodePtr& root,
                                          QueryStatsPtr stats) {
  QueryControls controls;
  controls.stats = std::move(stats);
  return RunQuery(root, std::move(controls));
}

PlanNodePtr StrategyRunner::Optimize(const PlanNodePtr& root,
                                     const QueryStats* stats) const {
  if (!ctx_->config().fusion) return root;
  return OptimizePlan(root, stats);
}

Result<TablePtr> StrategyRunner::RunQuery(const PlanNodePtr& root,
                                          QueryControls controls) {
  PlanNodePtr plan = Optimize(root, controls.stats.get());
  if (PlacesByPipeline()) RecordPipelineDemands(plan, *ctx_);
  PlacementMap placement;
  switch (strategy_) {
    case Strategy::kCpuOnly:
      placement = PlaceCpuOnly(plan);
      break;
    case Strategy::kGpuOnly:
      placement = PlaceGpuOnly(plan);
      break;
    case Strategy::kCriticalPath:
      placement = PlaceCriticalPath(plan, *ctx_);
      break;
    case Strategy::kDataDriven:
      placement = PlaceDataDriven(plan, *ctx_);
      break;
    default:
      return executor_->ExecuteQuery(plan, placer_, std::move(controls));
  }
  return executor_->ExecuteInline(plan, MakeReplayPlacer(std::move(placement)),
                                  std::move(controls));
}

bool StrategyRunner::PlacesByPipeline() const {
  return (strategy_ == Strategy::kDataDriven ||
          strategy_ == Strategy::kDataDrivenChopping) &&
         !ctx_->config().paper_mode;
}

PipelineChoice StrategyRunner::RefreshDataPlacement() {
  // Shard the candidate set by column affinity: each device's placement job
  // (Algorithm 1) sees only the columns the sharding policy homes on it, so
  // the N caches hold disjoint working sets instead of N hot-set copies.
  const bool by_pipeline = PlacesByPipeline();
  const auto devices = static_cast<size_t>(ctx_->device_count());
  std::vector<std::vector<std::pair<std::string, ColumnPtr>>> shards(devices);
  std::map<std::string, CacheColumn> homes;
  for (const TablePtr& table : ctx_->database()->tables()) {
    for (const ColumnPtr& column : table->columns()) {
      std::string key = table->QualifiedName(column->name());
      const int home = ctx_->sharding().AffinityDevice(key);
      if (home < 0) continue;  // no live device: nothing to place
      if (by_pipeline) {
        homes[key] = {ctx_->cache(home).EntryBytes(*column), home};
      }
      shards[static_cast<size_t>(home)].emplace_back(std::move(key), column);
    }
  }
  // The chosen pipelines' columns go first on their home device.
  PipelineChoice choice;
  std::vector<std::vector<std::string>> first(devices);
  if (by_pipeline) {
    std::vector<size_t> budgets;
    for (size_t d = 0; d < devices; ++d) {
      budgets.push_back(ctx_->cache(static_cast<int>(d)).capacity_bytes());
    }
    choice = ChoosePipelines(ctx_->PipelineDemands(), homes, budgets);
    for (const std::string& key : choice.keys) {
      first[static_cast<size_t>(homes.at(key).device)].push_back(key);
    }
  }
  for (int d = 0; d < ctx_->device_count(); ++d) {
    if (!ctx_->sharding().IsLive(d)) continue;
    ctx_->cache(d).RunPlacementJob(shards[static_cast<size_t>(d)],
                                   first[static_cast<size_t>(d)]);
  }
  return choice;
}

}  // namespace hetdb
