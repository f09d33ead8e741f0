#include "placement/pipeline_cache.h"

#include <algorithm>
#include <limits>
#include <set>

namespace hetdb {

namespace {

/// Records one run of `unit`, which reads every base column its subtree
/// scans.
void RecordUnit(const PlanNodePtr& unit, EngineContext& ctx) {
  std::map<std::string, size_t> column_bytes;  // sorted, unique
  VisitPlanPostOrder(unit, [&](const PlanNodePtr& node) {
    if (node->op() != PlanOp::kScan) return;
    for (const auto& [key, column] :
         static_cast<const ScanNode&>(*node).base_columns()) {
      column_bytes.emplace(key, column->data_bytes());
    }
  });
  std::vector<std::string> keys;
  size_t bytes = 0;
  for (const auto& [key, key_bytes] : column_bytes) {
    keys.push_back(key);
    bytes += key_bytes;
  }
  const Simulator& sim = ctx.simulator();
  ctx.RecordPipelineRun(
      std::move(keys),
      sim.EstimateComputeMicros(ProcessorKind::kCpu, unit->op_class(), bytes) -
          sim.EstimateComputeMicros(ProcessorKind::kGpu, unit->op_class(),
                                    bytes));
}

double TotalValue(const PipelineDemand& demand) {
  return static_cast<double>(demand.runs) * demand.run_value_micros;
}

}  // namespace

void RecordPipelineDemands(const PlanNodePtr& plan, EngineContext& ctx) {
  bool fused = false;
  VisitPlanPostOrder(plan, [&](const PlanNodePtr& node) {
    if (node->op() != PlanOp::kFusedPipeline) return;
    fused = true;
    RecordUnit(node, ctx);
  });
  if (!fused) RecordUnit(plan, ctx);
}

PipelineChoice ChoosePipelines(
    const std::vector<PipelineDemand>& demands,
    const std::map<std::string, CacheColumn>& columns,
    const std::vector<size_t>& budgets) {
  std::set<std::string> chosen;
  std::vector<size_t> used(budgets.size(), 0);
  std::vector<bool> taken(demands.size(), false);

  // Bytes per device that completing `p` adds; false if a column has no
  // home or a device would overflow its budget.
  std::vector<size_t> charge(budgets.size());
  auto fits = [&](size_t p) {
    std::fill(charge.begin(), charge.end(), 0);
    for (const std::string& key : demands[p].keys) {
      if (chosen.count(key) > 0) continue;
      const auto it = columns.find(key);
      if (it == columns.end()) return false;
      const auto device = static_cast<size_t>(it->second.device);
      if (device >= budgets.size()) return false;
      charge[device] += it->second.bytes;
      if (used[device] + charge[device] > budgets[device]) return false;
    }
    return true;
  };

  for (;;) {
    size_t pick = SIZE_MAX;
    double best_ratio = 0;
    std::vector<size_t> pick_charge;
    for (size_t p = 0; p < demands.size(); ++p) {
      if (taken[p] || !(TotalValue(demands[p]) > 0) || !fits(p)) continue;
      size_t bytes = 0;
      for (const size_t device_bytes : charge) bytes += device_bytes;
      const double ratio =
          bytes == 0 ? std::numeric_limits<double>::infinity()
                     : TotalValue(demands[p]) / static_cast<double>(bytes);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        pick = p;
        pick_charge = charge;
      }
    }
    if (pick == SIZE_MAX) break;
    for (size_t d = 0; d < budgets.size(); ++d) used[d] += pick_charge[d];
    chosen.insert(demands[pick].keys.begin(), demands[pick].keys.end());
    taken[pick] = true;
  }

  PipelineChoice choice;
  for (size_t p = 0; p < demands.size(); ++p) {
    if (!taken[p]) continue;
    choice.completed.push_back(demands[p]);
    choice.value_micros += TotalValue(demands[p]);
  }
  choice.keys.assign(chosen.begin(), chosen.end());
  return choice;
}

}  // namespace hetdb
