// Placement explorer: warms every SSB template under Data-Driven Chopping on
// the paper machine (a 40 MiB device with a 24 MiB data cache), runs the data
// placement job, and prints what it cached, the fused pipelines it completed
// and each template's EXPLAIN ANALYZE. Then it shows one query's plan placed
// by the compile-time rules, for a cold and a warm device cache.
//
//   ./build/examples/placement_explorer [--sf 1] [--query Q2.1]
//
// `--sf 20` is perfbench's ssb_spill machine.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

#include "placement/compile_time.h"
#include "placement/strategy_runner.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"

using namespace hetdb;

namespace {

void PrintPlacedPlan(const PlanNodePtr& node, const PlacementMap& placement,
                     int depth) {
  auto it = placement.find(node.get());
  const char* where =
      it == placement.end()
          ? "?"
          : ProcessorKindToString(it->second);
  std::printf("  %*s[%s] %s\n", depth * 2, "", where, node->label().c_str());
  for (const PlanNodePtr& child : node->children()) {
    PrintPlacedPlan(child, placement, depth + 1);
  }
}

/// Prints `message` and the usage line; returns the exit code 2.
int Usage(const std::string& message) {
  std::fprintf(stderr,
               "error: %s\nusage: placement_explorer [--sf 1] "
               "[--query Q2.1]\n",
               message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string query_name = "Q2.1";
  double scale_factor = 1.0;
  for (int i = 1; i < argc; ++i) {
    // Each flag takes a value, after '=' or as the next argument.
    std::string flag = argv[i];
    std::string value;
    if (const size_t equals = flag.find('='); equals != std::string::npos) {
      value = flag.substr(equals + 1);
      flag.resize(equals);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    if (flag == "--query") {
      query_name = value;
    } else if (flag == "--sf") {
      const char* end = value.data() + value.size();
      const auto [ptr, error] =
          std::from_chars(value.data(), end, scale_factor);
      if (error != std::errc() || ptr != end || !std::isfinite(scale_factor) ||
          !(scale_factor > 0)) {
        return Usage("--sf '" + value + "' is not a positive number");
      }
    } else {
      return Usage("bad argument " + flag + " '" + value + "'");
    }
  }
  Result<NamedQuery> query = SsbQueryByName(query_name);
  if (!query.ok()) return Usage(query.status().ToString());

  SsbGeneratorOptions gen;
  gen.scale_factor = scale_factor;
  DatabasePtr db = GenerateSsbDatabase(gen);

  SystemConfig config;
  config.simulate_time = false;  // interactive exploration, no sleeps
  config.device_memory_bytes = 40ull << 20;
  config.device_cache_bytes = 24ull << 20;
  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);

  Result<PlanNodePtr> plan = query->builder(*db);
  if (!plan.ok()) return 1;
  std::printf("SSB at SF %g; %s: %zu operators\n\n", scale_factor,
              query_name.c_str(), CountPlanNodes(plan.value()));
  std::printf("--- cold device cache ---\n");
  std::printf("Data-Driven (everything stays on the CPU):\n");
  PrintPlacedPlan(plan.value(), PlaceDataDriven(plan.value(), ctx), 1);

  // Warm up: every template once (access statistics, pipeline demands and
  // the cost models), then the placement job fills the cache.
  for (const NamedQuery& warm : SsbQueries()) {
    HETDB_CHECK_OK(runner.RunQuery(warm.builder(*db).value()).status());
  }
  const PipelineChoice choice = runner.RefreshDataPlacement();

  std::printf("\n--- after the data placement job (cache %.2f/%.2f MiB) ---\n",
              ctx.cache().used_bytes() / 1048576.0,
              ctx.cache().capacity_bytes() / 1048576.0);
  for (const auto& [key, column] : ctx.cache().ResidentColumns()) {
    std::printf("  cached: %-28s %10zu bytes\n", key.c_str(),
                ctx.cache().EntryBytes(*column));
  }
  std::printf("\nPipelines the job completed (value %.1f modeled ms):\n",
              choice.value_micros / 1000.0);
  for (const PipelineDemand& demand : choice.completed) {
    std::printf("  %llu run(s) x %.1f ms:",
                static_cast<unsigned long long>(demand.runs),
                demand.run_value_micros / 1000.0);
    for (const std::string& key : demand.keys) std::printf(" %s", key.c_str());
    std::printf("\n");
  }

  std::printf("\n--- EXPLAIN ANALYZE under Data-Driven Chopping ---\n");
  for (const NamedQuery& each : SsbQueries()) {
    const PlanNodePtr optimized = runner.Optimize(each.builder(*db).value());
    const QueryStatsPtr stats = MakeQueryStats(optimized);
    HETDB_CHECK_OK(runner.RunQuery(optimized, stats).status());
    std::printf("\n%s\n%s", each.name.c_str(), stats->ToText().c_str());
  }

  std::printf("\n--- compile-time placement of %s, warm cache ---\n",
              query_name.c_str());
  std::printf("Data-Driven (chains from cached leaves):\n");
  PrintPlacedPlan(plan.value(), PlaceDataDriven(plan.value(), ctx), 1);
  std::printf("\nCritical Path (cost-based):\n");
  PrintPlacedPlan(plan.value(), PlaceCriticalPath(plan.value(), ctx), 1);
  std::printf("\nGPU Preferred:\n");
  PrintPlacedPlan(plan.value(), PlaceGpuOnly(plan.value()), 1);
  return 0;
}
