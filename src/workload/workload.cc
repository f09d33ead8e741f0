#include "workload/workload.h"

#include <atomic>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "telemetry/histogram.h"
#include "workload/user_sim.h"

namespace hetdb {

std::string WorkloadRunResult::ToString() const {
  std::ostringstream os;
  os << "wall=" << wall_millis << "ms h2d=" << h2d_transfer_millis
     << "ms d2h=" << d2h_transfer_millis << "ms aborts=" << gpu_aborts
     << " wasted=" << wasted_millis << "ms gpu_ops=" << gpu_operators
     << " cpu_ops=" << cpu_operators << " queries=" << queries_run;
  if (failed_queries > 0) os << " FAILED=" << failed_queries;
  for (const auto& [name, stats] : latency_stats_by_query) {
    os << "\n  " << name << ": n=" << stats.count << " mean=" << stats.mean_ms
       << "ms p50=" << stats.p50_ms << "ms p95=" << stats.p95_ms
       << "ms p99=" << stats.p99_ms << "ms max=" << stats.max_ms << "ms";
  }
  return os.str();
}

std::string WorkloadRunResult::PerQueryToString() const {
  std::ostringstream os;
  os << "per-query breakdown (mean per execution):";
  for (const auto& [name, stats] : latency_stats_by_query) {
    os << "\n  " << name << ": n=" << stats.count
       << " latency=" << stats.mean_ms << "ms queue_wait="
       << stats.queue_wait_ms << "ms execute=" << stats.execute_ms
       << "ms retries=" << stats.device_retries
       << " cpu_fallbacks=" << stats.cpu_fallbacks;
  }
  return os.str();
}

WorkloadRunResult RunWorkload(StrategyRunner& runner,
                              const std::vector<NamedQuery>& queries,
                              const WorkloadRunOptions& options) {
  EngineContext& ctx = runner.ctx();
  const Database& db = *ctx.database();

  // --- Warm-up phase ---------------------------------------------------------
  for (int rep = 0; rep < options.warmup_repetitions; ++rep) {
    for (const NamedQuery& query : queries) {
      Result<PlanNodePtr> plan = query.builder(db);
      HETDB_CHECK(plan.ok());
      Result<TablePtr> result = runner.RunQuery(plan.value());
      if (!result.ok()) {
        HETDB_LOG(Warning) << "warm-up query " << query.name
                           << " failed: " << result.status().ToString();
      }
    }
  }
  if (options.refresh_data_placement) {
    runner.RefreshDataPlacement();
  }
  ctx.ResetRunStats();

  // --- Measurement phase -----------------------------------------------------
  // Fixed total work: queries x repetitions, handed out through a shared
  // index so user threads stay busy until the workload is drained.
  std::vector<const NamedQuery*> tasks;
  for (int rep = 0; rep < options.repetitions; ++rep) {
    for (const NamedQuery& query : queries) tasks.push_back(&query);
  }
  std::atomic<size_t> next_task{0};
  Semaphore admission(options.admission_limit > 0 ? options.admission_limit
                                                  : 1 << 20);

  // Per-query-name latency histograms, shared by all session threads
  // (recording is lock-free). Looked up once here so the session loop never
  // touches the registry mutex.
  std::map<std::string, Histogram*> latency_histograms;
  for (const NamedQuery& query : queries) {
    latency_histograms[query.name] = &ctx.telemetry().registry().GetHistogram(
        "workload.latency_us." + query.name);
  }

  // Per-query-name resource accumulators, fed by the attribution layer
  // (QueryStats). Populated before the threads start, updated lock-free.
  struct ResourceAccum {
    std::atomic<int64_t> queue_wait_micros{0};
    std::atomic<int64_t> run_micros{0};
    std::atomic<int64_t> device_retries{0};
    std::atomic<int64_t> cpu_fallbacks{0};
  };
  std::map<std::string, ResourceAccum> resource_accums;
  for (const NamedQuery& query : queries) resource_accums[query.name];

  const int num_users = std::max(1, options.num_users);
  std::vector<uint64_t> session_failed(num_users, 0);

  UserLoopOptions loop_options;
  loop_options.num_users = num_users;
  loop_options.think_time_ms = options.think_time_ms;
  loop_options.seed = options.seed;

  Stopwatch workload_watch;
  RunUserLoops(loop_options, [&](int user, Rng& /*rng*/) {
    const size_t index = next_task.fetch_add(1, std::memory_order_relaxed);
    if (index >= tasks.size()) return false;
    const NamedQuery& query = *tasks[index];
    Result<PlanNodePtr> plan = query.builder(db);
    if (!plan.ok()) {
      ++session_failed[user];
      return true;
    }
    admission.Acquire();
    // Empty stats: the executor registers the plan the runner optimizes.
    auto stats = std::make_shared<QueryStats>();
    stats->set_name(query.name);
    Stopwatch latency;
    Result<TablePtr> result = runner.RunQuery(plan.value(), stats);
    const int64_t micros = latency.ElapsedMicros();
    admission.Release();
    if (!result.ok()) {
      ++session_failed[user];
      return true;
    }
    latency_histograms.at(query.name)->Record(micros);
    ResourceAccum& accum = resource_accums.at(query.name);
    accum.queue_wait_micros.fetch_add(stats->queue_wait_micros(),
                                      std::memory_order_relaxed);
    accum.run_micros.fetch_add(stats->run_micros(),
                               std::memory_order_relaxed);
    accum.device_retries.fetch_add(stats->device_retries(),
                                   std::memory_order_relaxed);
    accum.cpu_fallbacks.fetch_add(stats->cpu_fallbacks(),
                                  std::memory_order_relaxed);
    return true;
  });

  // --- Collect metrics ---------------------------------------------------------
  WorkloadRunResult result;
  result.wall_millis = workload_watch.ElapsedMillis();
  // Bus counters record modeled (unscaled) durations; scale them to the same
  // wall-clock units as wall_millis. Summed over every device's PCIe link.
  const double scale =
      ctx.config().simulate_time ? ctx.config().time_scale : 1.0;
  for (int d = 0; d < ctx.device_count(); ++d) {
    PcieBus& bus = ctx.simulator().bus(d);
    result.h2d_transfer_millis +=
        bus.transfer_micros(TransferDirection::kHostToDevice) * scale / 1000.0;
    result.d2h_transfer_millis +=
        bus.transfer_micros(TransferDirection::kDeviceToHost) * scale / 1000.0;
    result.h2d_bytes += bus.transferred_bytes(TransferDirection::kHostToDevice);
    result.d2h_bytes += bus.transferred_bytes(TransferDirection::kDeviceToHost);
  }
  result.gpu_aborts = ctx.telemetry().gpu_operator_aborts();
  result.wasted_millis = ctx.telemetry().wasted_micros() / 1000.0;
  result.cpu_operators = ctx.telemetry().cpu_operators();
  result.gpu_operators = ctx.telemetry().gpu_operators();
  result.queries_run = ctx.telemetry().queries_completed();

  for (const uint64_t failed : session_failed) {
    result.failed_queries += failed;
  }
  for (const auto& [name, histogram] : latency_histograms) {
    const HistogramSnapshot snapshot = histogram->Snapshot();
    if (snapshot.count == 0) continue;
    QueryLatencyStats stats;
    stats.count = snapshot.count;
    stats.mean_ms = snapshot.mean / 1000.0;
    stats.p50_ms = static_cast<double>(snapshot.p50) / 1000.0;
    stats.p95_ms = static_cast<double>(snapshot.p95) / 1000.0;
    stats.p99_ms = static_cast<double>(snapshot.p99) / 1000.0;
    stats.max_ms = static_cast<double>(snapshot.max) / 1000.0;
    const ResourceAccum& accum = resource_accums.at(name);
    const double n = static_cast<double>(snapshot.count);
    stats.queue_wait_ms =
        static_cast<double>(accum.queue_wait_micros.load()) / n / 1000.0;
    stats.execute_ms =
        static_cast<double>(accum.run_micros.load()) / n / 1000.0;
    stats.device_retries =
        static_cast<uint64_t>(accum.device_retries.load());
    stats.cpu_fallbacks = static_cast<uint64_t>(accum.cpu_fallbacks.load());
    result.latency_stats_by_query[name] = stats;
    result.latency_ms_by_query[name] = stats.mean_ms;
  }
  return result;
}

std::vector<NamedQuery> SerialSelectionQueries() {
  // Appendix B.1 (Listing 1): eight selections, each filtering a different
  // lineorder measure column, executed interleaved so an LRU cache one
  // column short always evicts the column the next query needs.
  auto lt1 = [](const char* c) { return Predicate::Lt(c, int64_t{1}); };
  auto gt10 = [](const char* c) { return Predicate::Gt(c, int64_t{10}); };
  auto gt0 = [](const char* c) { return Predicate::Gt(c, int64_t{0}); };
  auto lt100 = [](const char* c) { return Predicate::Lt(c, int64_t{100}); };
  auto lt1000 = [](const char* c) { return Predicate::Lt(c, int64_t{1000}); };

  const std::vector<std::pair<const char*, Predicate>> specs = {
      {"lo_quantity", lt1("lo_quantity")},
      {"lo_discount", gt10("lo_discount")},
      {"lo_shippriority", gt0("lo_shippriority")},
      {"lo_extendedprice", lt100("lo_extendedprice")},
      {"lo_ordtotalprice", lt100("lo_ordtotalprice")},
      {"lo_revenue", lt1000("lo_revenue")},
      {"lo_supplycost", lt1000("lo_supplycost")},
      {"lo_tax", gt10("lo_tax")},
  };

  std::vector<NamedQuery> queries;
  for (const auto& [column, predicate] : specs) {
    const std::string name = std::string("sel(") + column + ")";
    const std::string col = column;
    const Predicate pred = predicate;
    queries.push_back(NamedQuery{
        name, [col, pred](const Database& db) -> Result<PlanNodePtr> {
          HETDB_ASSIGN_OR_RETURN(TablePtr lineorder, db.GetTable("lineorder"));
          PlanNodePtr scan = std::make_shared<ScanNode>(
              lineorder, std::vector<std::string>{col});
          return PlanNodePtr(std::make_shared<SelectNode>(
              std::move(scan), ConjunctiveFilter::And({pred})));
        }});
  }
  return queries;
}

std::vector<NamedQuery> ParallelSelectionQueries() {
  // Appendix B.2 (Listing 2): derived from SSB Q1.1; four consecutive
  // operators (scan, two selections, count) over two cache-resident columns.
  NamedQuery query{
      "psel", [](const Database& db) -> Result<PlanNodePtr> {
        HETDB_ASSIGN_OR_RETURN(TablePtr lineorder, db.GetTable("lineorder"));
        PlanNodePtr scan = std::make_shared<ScanNode>(
            lineorder, std::vector<std::string>{"lo_discount", "lo_quantity"});
        PlanNodePtr s1 = std::make_shared<SelectNode>(
            std::move(scan),
            ConjunctiveFilter::And(
                {Predicate::Between("lo_discount", int64_t{4}, int64_t{6})}));
        PlanNodePtr s2 = std::make_shared<SelectNode>(
            std::move(s1),
            ConjunctiveFilter::And(
                {Predicate::Between("lo_quantity", int64_t{26}, int64_t{35})}));
        return PlanNodePtr(std::make_shared<AggregateNode>(
            std::move(s2), std::vector<std::string>{},
            std::vector<AggregateSpec>{
                AggregateSpec{AggregateFn::kCount, "", "matches"}}));
      }};
  return {query};
}

}  // namespace hetdb
