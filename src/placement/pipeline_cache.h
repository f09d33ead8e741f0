#ifndef HETDB_PLACEMENT_PIPELINE_CACHE_H_
#define HETDB_PLACEMENT_PIPELINE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine_context.h"
#include "operators/plan_node.h"

namespace hetdb {

/// Records on `ctx` one run of each fused pipeline of `plan`: the sorted
/// base-column keys its source scan and build sides read, and its value, the
/// modeled CPU time minus the modeled device time of the pipeline's op class
/// over those columns' bytes. A plan without a fused pipeline counts as one
/// unit, valued by its root's op class.
void RecordPipelineDemands(const PlanNodePtr& plan, EngineContext& ctx);

/// A column the placement job may cache: its cache-entry bytes
/// (`DataCache::EntryBytes`) and its home device (column affinity).
struct CacheColumn {
  size_t bytes = 0;
  int device = 0;
};

/// The pipelines a placement job completes and the columns they take.
struct PipelineChoice {
  std::vector<PipelineDemand> completed;  ///< in demand order
  std::vector<std::string> keys;          ///< columns to cache, sorted
  double value_micros = 0;  ///< summed runs × per-run value of `completed`
};

/// Greedy by value per cache byte: repeatedly completes the pipeline whose
/// runs × per-run value is largest per byte of its columns not yet chosen,
/// charging each column to its home device's budget (`budgets[device]`),
/// until no pipeline with a positive value fits. Ties go to the earlier
/// demand. A pipeline reading a column missing from `columns` never
/// completes.
PipelineChoice ChoosePipelines(
    const std::vector<PipelineDemand>& demands,
    const std::map<std::string, CacheColumn>& columns,
    const std::vector<size_t>& budgets);

}  // namespace hetdb

#endif  // HETDB_PLACEMENT_PIPELINE_CACHE_H_
