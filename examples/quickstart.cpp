// Quickstart: generate a small Star Schema Benchmark database, run one query
// under every placement strategy, and print the timings and transfer stats.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "common/stopwatch.h"
#include "placement/strategy_runner.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"

int main() {
  using namespace hetdb;

  // 1) Generate a deterministic SSB database (scale factor 2 here: 120k
  //    lineorder rows; see DESIGN.md for the scale mapping).
  SsbGeneratorOptions gen;
  gen.scale_factor = 2.0;
  DatabasePtr db = GenerateSsbDatabase(gen);
  std::printf("SSB database: %zu bytes across %zu tables\n", db->TotalBytes(),
              db->tables().size());

  // 2) Configure the simulated machine: a 4 MB co-processor, half of it
  //    used as data cache.
  SystemConfig config;
  config.device_memory_bytes = 4ull << 20;
  config.device_cache_bytes = 2ull << 20;
  config.time_scale = 0.25;  // speed up the demo without changing ratios

  // 3) Run SSB Q3.3 under every strategy.
  Result<NamedQuery> query = SsbQueryByName("Q3.3");
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%-22s %10s %12s %10s %8s\n", "strategy", "time[ms]",
              "h2d[ms]", "d2h[ms]", "aborts");
  for (Strategy strategy : kAllStrategies) {
    EngineContext ctx(config, db);
    StrategyRunner runner(&ctx, strategy);

    // Warm up (loads caches, trains cost models), then refresh the data
    // placement and measure.
    Result<PlanNodePtr> warm = query->builder(*db);
    if (!warm.ok()) return 1;
    (void)runner.RunQuery(warm.value());
    runner.RefreshDataPlacement();
    ctx.ResetRunStats();

    Result<PlanNodePtr> plan = query->builder(*db);
    if (!plan.ok()) return 1;
    Stopwatch watch;
    Result<TablePtr> result = runner.RunQuery(plan.value());
    const double ms = watch.ElapsedMillis();
    if (!result.ok()) {
      std::printf("%-22s failed: %s\n", StrategyToString(strategy),
                  result.status().ToString().c_str());
      continue;
    }
    PcieBus& bus = ctx.simulator().bus();
    std::printf("%-22s %10.2f %12.2f %10.2f %8llu   (%zu result rows)\n",
                StrategyToString(strategy), ms,
                bus.transfer_micros(TransferDirection::kHostToDevice) / 1000.0,
                bus.transfer_micros(TransferDirection::kDeviceToHost) / 1000.0,
                static_cast<unsigned long long>(
                    ctx.telemetry().gpu_operator_aborts()),
                result.value()->num_rows());
  }
  return 0;
}
