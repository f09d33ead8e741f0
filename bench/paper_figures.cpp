// paper_figures: regenerates the paper's evaluation figures and the repo's
// ablations, one figure per process.
//
//   ./build/bench/paper_figures                      # list the figure names
//   ./build/bench/paper_figures --figure fig02_cache_thrashing --quick
//   ./build/bench/paper_figures --figure fig17_query_times_sf30 --json f.json
//
// A figure prints its tables as fixed-width text; --json FILE also writes
// them as one artifact: figure name, parsed flags, nproc, build type, and
// each table's title, columns and rows. The shared flags are documented in
// bench_util.h; fig18_scaleout adds --devices and fig26_availability adds
// --phase, --sessions and --deadline-ms. Most figures are one call into a
// sweep family: the B.1 buffer sweep, the B.2 contention sweep, the
// scale-factor sweep, the user sweep and the per-query table.

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "fault/fault_injector.h"
#include "server/traffic.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

using namespace hetdb;
using namespace hetdb::bench;

namespace {

/// What a figure works with: the parsed flags, the report its tables go
/// to, and the --per-query blocks printed after those tables.
struct Figure {
  const BenchArgs& args;
  Report report;
  std::vector<std::string> per_query;
};

// --- Shared measurement ------------------------------------------------------

enum class Dataset { kSsb, kTpch };

DatabasePtr Generate(const BenchArgs& args, Dataset dataset, double sf) {
  if (dataset == Dataset::kSsb) {
    SsbGeneratorOptions gen;
    args.ApplySeed(gen);
    gen.scale_factor = sf;
    return GenerateSsbDatabase(gen);
  }
  TpchGeneratorOptions gen;
  args.ApplySeed(gen);
  gen.scale_factor = sf;
  return GenerateTpchDatabase(gen);
}

std::vector<NamedQuery> Queries(Dataset dataset) {
  return dataset == Dataset::kSsb ? SsbQueries() : TpchQueries();
}

std::vector<std::string> Names(const std::vector<NamedQuery>& queries) {
  std::vector<std::string> names;
  for (const NamedQuery& query : queries) names.push_back(query.name);
  return names;
}

/// Most figures run at SF 10, SF 5 with --quick.
double DefaultSf(const BenchArgs& args) { return args.quick ? 5 : 10; }

std::string Sf(double sf) {
  return "SF " + std::to_string(static_cast<int>(sf));
}

/// The six placement strategies of Section 6.2.
const std::vector<Strategy> kSection62Strategies = {
    Strategy::kCpuOnly,      Strategy::kGpuOnly,
    Strategy::kCriticalPath, Strategy::kDataDriven,
    Strategy::kChopping,     Strategy::kDataDrivenChopping};

/// One workload run and its engine context's cache statistics.
struct Point {
  WorkloadRunResult run;
  DataCacheStats cache;
};

/// Runs one (strategy, workload) point against a fresh engine context, with
/// the command line's session knobs.
Point RunPoint(Figure& fig, const SystemConfig& config, const DatabasePtr& db,
               Strategy strategy, const std::vector<NamedQuery>& queries,
               WorkloadRunOptions options,
               EvictionPolicy policy = EvictionPolicy::kLfu) {
  fig.args.ApplySessionKnobs(options);
  EngineContext ctx(config, db, policy);
  StrategyRunner runner(&ctx, strategy);
  Point point{RunWorkload(runner, queries, options), ctx.cache().stats()};
  if (fig.args.per_query) {
    fig.per_query.push_back(
        "# users=" + std::to_string(options.num_users) +
        " strategy=" + StrategyToString(strategy) +
        (options.admission_limit > 0
             ? " admission=" + std::to_string(options.admission_limit)
             : "") +
        "\n" + point.run.PerQueryToString());
  }
  return point;
}

/// What a sweep column reads off a run.
enum class Metric {
  kWallMillis,
  kH2dMillis,
  kAborts,
  kWastedMillis,
  kCacheHitPercent
};

Cell Read(const Point& point, Metric metric) {
  switch (metric) {
    case Metric::kWallMillis:
      return point.run.wall_millis;
    case Metric::kH2dMillis:
      return point.run.h2d_transfer_millis;
    case Metric::kAborts:
      return point.run.gpu_aborts;
    case Metric::kWastedMillis:
      return point.run.wasted_millis;
    case Metric::kCacheHitPercent: {
      const uint64_t lookups = point.cache.hits + point.cache.misses;
      return lookups == 0 ? 0.0 : 100.0 * point.cache.hits / lookups;
    }
  }
  return 0.0;
}

/// Column-name suffix after a strategy's name ("GPU Only_h2d[ms]").
const char* Suffix(Metric metric) {
  switch (metric) {
    case Metric::kWallMillis:
      return "[ms]";
    case Metric::kH2dMillis:
      return "_h2d[ms]";
    case Metric::kAborts:
      return "_aborts";
    case Metric::kWastedMillis:
      return "_wasted[ms]";
    case Metric::kCacheHitPercent:
      return "_hit%";
  }
  return "";
}

/// One column group of a sweep: a strategy, the device cache's eviction
/// policy, whether the Algorithm-1 placement job runs after warm-up (false:
/// the cache fills on demand), and whether cache entries are bit-packed.
struct Series {
  Strategy strategy;
  EvictionPolicy policy = EvictionPolicy::kLfu;
  bool refresh_placement = true;
  bool compress_cache = false;
};

/// A sweep column: its name and the metric read off one series' run.
struct Column {
  std::string name;
  size_t series;
  Metric metric;
};

/// One sweep row's first cell, machine, data and run options.
struct Row {
  Cell x;
  SystemConfig config;
  DatabasePtr db;
  WorkloadRunOptions options;
};

/// The loop every sweep family shares: for each x, runs every series once
/// on setup(x) and prints a row of the columns.
template <typename X, typename Setup>
void Sweep(Figure& fig, const std::string& x_name, const std::vector<X>& xs,
           const std::vector<NamedQuery>& queries,
           const std::vector<Series>& series,
           const std::vector<Column>& columns, Setup setup) {
  std::vector<std::string> header = {x_name};
  for (const Column& column : columns) header.push_back(column.name);
  fig.report.Header(std::move(header));
  for (const X& x : xs) {
    const Row row = setup(x);
    std::vector<Point> points;
    for (const Series& s : series) {
      SystemConfig config = row.config;
      config.compress_device_cache = s.compress_cache;
      WorkloadRunOptions options = row.options;
      options.refresh_data_placement = s.refresh_placement;
      points.push_back(RunPoint(fig, config, row.db, s.strategy, queries,
                                options, s.policy));
    }
    std::vector<Cell> cells = {row.x};
    for (const Column& column : columns) {
      cells.push_back(Read(points[column.series], column.metric));
    }
    fig.report.Row(std::move(cells));
  }
}

/// The common layout: one series per strategy, one column per (strategy,
/// metric) named "<strategy><suffix>".
std::pair<std::vector<Series>, std::vector<Column>> ByStrategy(
    const std::vector<Strategy>& strategies,
    const std::vector<Metric>& metrics) {
  std::pair<std::vector<Series>, std::vector<Column>> layout;
  for (Strategy strategy : strategies) {
    for (Metric metric : metrics) {
      layout.second.push_back(
          {StrategyToString(strategy) + std::string(Suffix(metric)),
           layout.first.size(), metric});
    }
    layout.first.push_back({strategy});
  }
  return layout;
}

std::vector<int> Steps(int last) {
  std::vector<int> steps(last + 1);
  std::iota(steps.begin(), steps.end(), 0);
  return steps;
}

// --- User sweep (Figures 18, 19, 20; the B.2 sweep below) --------------------

/// Rows are user counts; every strategy runs `queries` at each count and
/// contributes one column per metric.
void UserSweep(Figure& fig, const SystemConfig& config, const DatabasePtr& db,
               const std::vector<NamedQuery>& queries,
               const std::vector<int>& users,
               const WorkloadRunOptions& options,
               const std::vector<Strategy>& strategies,
               const std::vector<Metric>& metrics) {
  const auto [series, columns] = ByStrategy(strategies, metrics);
  Sweep(fig, "users", users, queries, series, columns, [&](int user_count) {
    Row row{static_cast<uint64_t>(user_count), config, db, options};
    row.options.num_users = user_count;
    return row;
  });
}

/// Figure 18's sweep: each Section 6.2 strategy's workload time on
/// `dataset` as parallel users grow, total work fixed at `reps` passes.
void WorkloadTimeVsUsers(Figure& fig, Dataset dataset, double sf, int reps) {
  const DatabasePtr db = Generate(fig.args, dataset, sf);
  WorkloadRunOptions options;
  options.repetitions = reps;
  UserSweep(fig, PaperConfig(fig.args), db, Queries(dataset),
            fig.args.quick ? std::vector<int>{1, 8}
                           : std::vector<int>{1, 4, 8, 16, 20},
            options, kSection62Strategies, {Metric::kWallMillis});
}

// --- B.1 buffer sweep (Figures 2, 5, 6) --------------------------------------

/// Appendix B.1: the serial selection workload (eight interleaved
/// single-column selections over lineorder) and its working set, the bytes
/// of the eight selection columns.
struct SerialSelection {
  DatabasePtr db;
  size_t working_set = 0;
  int repetitions = 0;
};

SerialSelection MakeSerialSelection(const BenchArgs& args) {
  SerialSelection b1;
  b1.db = Generate(args, Dataset::kSsb, DefaultSf(args));
  for (const char* column : kSsbSelectionColumns) {
    b1.working_set +=
        b1.db->GetColumnByQualifiedName(std::string("lineorder.") + column)
            .value()
            ->data_bytes();
  }
  b1.repetitions = args.quick ? 4 : (args.full ? 25 : 8);
  return b1;
}

/// Rows sweep the device data cache from 0 to 9/8 of the working set, with
/// a 16 MiB heap on top.
void BufferSweep(Figure& fig, const SerialSelection& b1,
                 const std::vector<Series>& series,
                 const std::vector<Column>& columns) {
  WorkloadRunOptions options;
  options.repetitions = b1.repetitions;
  Sweep(fig, "buffer[MiB]", Steps(9), SerialSelectionQueries(), series,
        columns, [&](int step) {
          SystemConfig config = PaperConfig(fig.args);
          config.device_cache_bytes = b1.working_set * step / 8;
          config.device_memory_bytes =
              config.device_cache_bytes + (16ull << 20);
          return Row{static_cast<double>(config.device_cache_bytes) / (1 << 20),
                     config, b1.db, options};
        });
}

// --- B.2 contention sweep (Figures 3, 7, 9, 12, 13, pool size) ---------------

/// Appendix B.2's fixed total work, in queries (one query per pass).
int B2Queries(const BenchArgs& args) {
  return args.quick ? 24 : (args.full ? 100 : 48);
}

/// Machine for the Appendix B.2 parallel selection workload: the cache holds
/// the two filter columns (no thrashing), and the heap fits roughly seven
/// concurrent selection operators.
SystemConfig ContentionConfig(const DatabasePtr& db, const BenchArgs& args) {
  const size_t column_bytes =
      db->GetColumnByQualifiedName("lineorder.lo_discount")
          .value()
          ->data_bytes();
  SystemConfig config = PaperConfig(args);
  config.device_cache_bytes = 3 * column_bytes;
  // The paper's contention threshold: the heap fits n = M / (3.25 |C|) ~ 7
  // concurrent selection operators (Section 3.4). Our selection's peak
  // per-query footprint (1.25x intermediates over both filter columns plus
  // the materialized output) matches 3.25x one column closely.
  config.device_memory_bytes =
      config.device_cache_bytes +
      static_cast<size_t>(7 * 3.25 * column_bytes);
  return config;
}

/// Runs B.2 for every strategy as parallel users grow past the threshold.
void ContentionSweep(Figure& fig, const std::vector<Strategy>& strategies,
                     Metric metric) {
  const BenchArgs& args = fig.args;
  const DatabasePtr db = Generate(args, Dataset::kSsb, DefaultSf(args));
  WorkloadRunOptions options;
  options.repetitions = B2Queries(args);
  const std::vector<int> users =
      args.quick  ? std::vector<int>{1, 4, 8, 16}
      : args.full ? std::vector<int>{1, 2, 4, 6, 8, 10, 12, 16, 20}
                  : std::vector<int>{1, 2, 4, 8, 12, 16, 20};
  UserSweep(fig, ContentionConfig(db, args), db,
            ParallelSelectionQueries(), users, options, strategies, {metric});
}

// --- Scale-factor sweep (Figures 14, 15, compression ablation) ---------------

/// Rows are scale factors; each row generates `dataset` at that scale and
/// runs every series once after one warm-up pass.
void ScaleSweep(Figure& fig, Dataset dataset, const std::vector<double>& sfs,
                const std::vector<Series>& series,
                const std::vector<Column>& columns) {
  Sweep(fig, "sf", sfs, Queries(dataset), series, columns, [&](double sf) {
    return Row{static_cast<uint64_t>(sf), PaperConfig(fig.args),
               Generate(fig.args, dataset, sf), WorkloadRunOptions{}};
  });
}

/// Figure 14's sweep: each Section 6.2 strategy's workload time.
void WorkloadTimeVsScale(Figure& fig, Dataset dataset) {
  const auto [series, columns] =
      ByStrategy(kSection62Strategies, {Metric::kWallMillis});
  ScaleSweep(fig, dataset,
             fig.args.quick  ? std::vector<double>{2, 5}
             : fig.args.full ? std::vector<double>{5, 10, 15, 20, 25, 30}
                             : std::vector<double>{5, 10, 20, 30},
             series, columns);
}

// --- Per-query table (Figures 17, 21, 22, 23, 25) ----------------------------

/// One column group of a per-query table: a labelled run of the workload.
struct QueryRun {
  std::string label;
  Strategy strategy;
  int users = 1;
  int admission_limit = 0;
};

/// Rows are the queries named in `rows`; each run contributes its mean
/// latency per query ("<label>[ms]", -1 if the run has none) and, with
/// `p95`, its 95th percentile. `speedup` adds the first run's mean over the
/// second's.
void QueryTable(Figure& fig, const DatabasePtr& db,
                const std::vector<NamedQuery>& workload,
                const std::vector<std::string>& rows,
                const WorkloadRunOptions& options,
                const std::vector<QueryRun>& runs, bool p95,
                bool speedup = false) {
  std::vector<WorkloadRunResult> results;
  std::vector<std::string> header = {"query"};
  for (const QueryRun& run : runs) {
    WorkloadRunOptions run_options = options;
    run_options.num_users = run.users;
    run_options.admission_limit = run.admission_limit;
    results.push_back(RunPoint(fig, PaperConfig(fig.args), db,
                               run.strategy, workload, run_options)
                          .run);
    header.push_back(run.label + "[ms]");
    if (p95) header.push_back(run.label + "_p95[ms]");
  }
  if (speedup) header.push_back("speedup");
  fig.report.Header(std::move(header));
  for (const std::string& name : rows) {
    std::vector<Cell> cells = {name};
    std::vector<double> means;
    for (const WorkloadRunResult& result : results) {
      auto it = result.latency_stats_by_query.find(name);
      const bool found = it != result.latency_stats_by_query.end();
      means.push_back(found ? it->second.mean_ms : -1.0);
      cells.push_back(means.back());
      if (p95) cells.push_back(found ? it->second.p95_ms : -1.0);
    }
    if (speedup) {
      cells.push_back(means[0] > 0 && means[1] > 0 ? means[0] / means[1]
                                                   : 0.0);
    }
    fig.report.Row(std::move(cells));
  }
}

/// Figures 22/23: CPU backend vs hot device backend, per query.
void BackendTimes(Figure& fig, Dataset dataset, const std::string& figure) {
  const double sf = DefaultSf(fig.args);
  fig.report.Banner(figure,
                    std::string(dataset == Dataset::kSsb ? "SSB" : "TPC-H") +
                        " per-query times, CPU backend vs hot device backend "
                        "(" + Sf(sf) + ", single user)");
  WorkloadRunOptions options;
  options.repetitions = fig.args.quick ? 1 : 3;
  QueryTable(fig, Generate(fig.args, dataset, sf), Queries(dataset),
             Names(Queries(dataset)), options,
             {{"cpu_backend", Strategy::kCpuOnly},
              {"gpu_backend", Strategy::kGpuOnly}},
             /*p95=*/false, /*speedup=*/true);
}

// --- Figures -----------------------------------------------------------------

double MeasureQueryMillis(StrategyRunner& runner, const NamedQuery& query,
                          const Database& db) {
  Result<PlanNodePtr> plan = query.builder(db);
  HETDB_CHECK(plan.ok());
  Stopwatch watch;
  Result<TablePtr> result = runner.RunQuery(plan.value());
  HETDB_CHECK(result.ok());
  return watch.ElapsedMillis();
}

// Figure 1: impact of execution strategy on SSB Q3.3 (scale factor 20).
// CPU-only vs. device with cold cache (all inputs cross the bus) vs. device
// with hot cache. The paper reports the hot device ~2.5x faster than the CPU
// and the cold device ~3x slower.
void Fig01Motivation(Figure& fig) {
  const double sf = fig.args.quick ? 10 : 20;
  fig.report.Banner("Figure 1", "SSB Q3.3 at " + Sf(sf) +
                                    ": CPU vs GPU (cold cache) vs GPU (hot "
                                    "cache)");
  const DatabasePtr db = Generate(fig.args, Dataset::kSsb, sf);
  const SystemConfig config = PaperConfig(fig.args);
  const NamedQuery query = SsbQueryByName("Q3.3").value();

  fig.report.Header({"execution", "time[ms]", "h2d[ms]"});
  {
    EngineContext ctx(config, db);
    StrategyRunner runner(&ctx, Strategy::kCpuOnly);
    fig.report.Row({"CPU", MeasureQueryMillis(runner, query, *db), 0.0});
  }
  for (const bool hot : {false, true}) {
    // Cold cache: a fresh context's first device execution pays every
    // transfer. Hot cache: one warm-up execution loads the cache first.
    EngineContext ctx(config, db);
    StrategyRunner runner(&ctx, Strategy::kGpuOnly);
    if (hot) {
      MeasureQueryMillis(runner, query, *db);
      ctx.ResetRunStats();
    }
    const double millis = MeasureQueryMillis(runner, query, *db);
    fig.report.Row({hot ? "GPU (hot cache)" : "GPU (cold cache)", millis,
                    ctx.simulator().bus().transfer_micros(
                        TransferDirection::kHostToDevice) *
                        config.time_scale / 1000.0});
  }
}

// Figure 2: cache thrashing. The Appendix B.1 serial selection workload
// (eight interleaved single-column selections over lineorder, SF 10) under
// operator-driven placement, with the device data-cache size swept from 0 to
// beyond the 8-column working set. When the cache is one column short, LRU
// evicts exactly the column the next query needs: every access misses and
// execution time degrades by an order of magnitude (the paper measures 24x).
void Fig02CacheThrashing(Figure& fig) {
  const SerialSelection b1 = MakeSerialSelection(fig.args);
  fig.report.Banner(
      "Figure 2",
      "Serial selection workload (B.1), operator-driven placement (GPU "
      "Only, LRU demand cache), working set " +
          Mib(b1.working_set) + ", " + std::to_string(b1.repetitions) +
          " repetitions of 8 interleaved selections");
  BufferSweep(fig, b1,
              {{Strategy::kGpuOnly, EvictionPolicy::kLru, false}},
              {{"time[ms]", 0, Metric::kWallMillis},
               {"h2d[ms]", 0, Metric::kH2dMillis},
               {"cache_hit%", 0, Metric::kCacheHitPercent}});
}

// Figure 3: heap contention. The Appendix B.2 parallel selection workload
// (fixed total work, increasing parallel users) on a device whose heap fits
// ~7 concurrent selection operators. Under GPU-Only execution the workload
// slows down sharply past the threshold (the paper measures up to 6x) while
// the ideal system (CPU Only here, with constant total work) stays flat.
void Fig03HeapContention(Figure& fig) {
  fig.report.Banner("Figure 3",
                    "Parallel selection workload (B.2), " +
                        std::to_string(B2Queries(fig.args)) +
                        " queries total, GPU-Only placement; contention "
                        "threshold ~7 users");
  ContentionSweep(fig, {Strategy::kGpuOnly, Strategy::kCpuOnly},
                  Metric::kWallMillis);
}

// Figure 5: data-driven operator placement removes the cache-thrashing
// degradation of Figure 2. Same B.1 selection workload and buffer sweep, now
// comparing operator-driven placement (GPU Only), Data-Driven placement, and
// the CPU-only baseline. Data-Driven approaches the hot-cache optimum as the
// buffer grows and never exceeds the CPU-only time.
void Fig05DataDrivenThrashing(Figure& fig) {
  const SerialSelection b1 = MakeSerialSelection(fig.args);
  fig.report.Banner("Figure 5",
                    "Serial selection workload (B.1) with data-driven "
                    "placement; working set " +
                        Mib(b1.working_set));
  BufferSweep(fig, b1,
              {{Strategy::kCpuOnly, EvictionPolicy::kLfu, false},
               {Strategy::kGpuOnly, EvictionPolicy::kLru, false},
               {Strategy::kDataDriven}},
              {{"cpu_only[ms]", 0, Metric::kWallMillis},
               {"gpu_only[ms]", 1, Metric::kWallMillis},
               {"data_driven[ms]", 2, Metric::kWallMillis}});
}

// Figure 6: time spent on host-to-device transfers in the B.1 selection
// workload. Operator-driven placement thrashes (transfer time explodes when
// the working set misses the cache); Data-Driven placement transfers only
// what the placement job loads.
void Fig06TransferTime(Figure& fig) {
  const SerialSelection b1 = MakeSerialSelection(fig.args);
  fig.report.Banner(
      "Figure 6", "Host-to-device transfer time in the B.1 selection workload");
  BufferSweep(fig, b1,
              {{Strategy::kGpuOnly, EvictionPolicy::kLru, false},
               {Strategy::kDataDriven}},
              {{"gpu_only_h2d[ms]", 0, Metric::kH2dMillis},
               {"data_driven_h2d[ms]", 1, Metric::kH2dMillis}});
}

// Figure 7: Data-Driven placement alone does NOT solve heap contention —
// with the filter columns cached, data-driven placement happily sends every
// user's operators to the device, and their accumulated heap footprint still
// exceeds capacity.
void Fig07DataDrivenContention(Figure& fig) {
  fig.report.Banner("Figure 7",
                    "Parallel selection workload (B.2) under compile-time "
                    "Data-Driven placement: same degradation as "
                    "operator-driven placement");
  ContentionSweep(fig, {Strategy::kDataDriven, Strategy::kGpuOnly},
                  Metric::kWallMillis);
}

// Figure 9: run-time operator placement reduces the contention penalty by up
// to 2x (aborted operators' successors stay on the CPU instead of paying
// transfers back to the device), but without a concurrency limit it is still
// well above the optimum.
void Fig09RuntimePlacement(Figure& fig) {
  fig.report.Banner("Figure 9",
                    "Parallel selection workload (B.2): run-time placement "
                    "without concurrency limiting vs compile-time GPU-Only");
  ContentionSweep(fig,
                  {Strategy::kRunTime, Strategy::kGpuOnly, Strategy::kCpuOnly},
                  Metric::kWallMillis);
}

// Figure 12: query chopping achieves near-optimal performance under
// parallelism — the device worker pool bounds concurrently running device
// operators, so heap contention (and its abort/transfer overhead) almost
// disappears.
void Fig12Chopping(Figure& fig) {
  fig.report.Banner("Figure 12",
                    "Parallel selection workload (B.2): chopping variants vs "
                    "the contention-prone strategies");
  ContentionSweep(fig,
                  {Strategy::kChopping, Strategy::kDataDrivenChopping,
                   Strategy::kGpuOnly, Strategy::kCpuOnly},
                  Metric::kWallMillis);
}

// Figure 13: number of aborted device operators in the B.2 parallel
// selection workload. Compile-time operator-driven placement aborts most;
// run-time placement reduces aborts by relieving the heap after each abort;
// chopping's concurrency bound nearly eliminates them.
void Fig13Aborts(Figure& fig) {
  fig.report.Banner("Figure 13",
                    "Aborted device operators in the B.2 workload, by "
                    "strategy");
  ContentionSweep(fig,
                  {Strategy::kGpuOnly, Strategy::kRunTime, Strategy::kChopping,
                   Strategy::kDataDrivenChopping},
                  Metric::kAborts);
}

// Figure 14(a): average SSB workload execution time (all 13 queries) as the
// database scale factor grows, for the six placement strategies of Section
// 6.2. Expected shape: GPU-Only falls behind once the working set exceeds
// the device cache (~SF 15 at the 24 MiB cache); Data-Driven Chopping is
// never worse than CPU-Only and fastest overall.
void Fig14ScaleSsb(Figure& fig) {
  fig.report.Banner("Figure 14(a)",
                    "SSB workload (Q1.1-Q4.3) execution time vs scale factor; "
                    "device cache 24 MiB, heap 16 MiB");
  WorkloadTimeVsScale(fig, Dataset::kSsb);
}

// Figure 14(b): average TPC-H workload execution time (Q2-Q7) vs scale
// factor, for the six placement strategies of Section 6.2.
void Fig14ScaleTpch(Figure& fig) {
  fig.report.Banner("Figure 14(b)",
                    "TPC-H workload (Q2-Q7) execution time vs scale factor; "
                    "device cache 24 MiB, heap 16 MiB");
  WorkloadTimeVsScale(fig, Dataset::kTpch);
}

// Figure 15(a)/(b): host-to-device data transfer time of the SSB and TPC-H
// workloads vs scale factor. GPU-Only transfer time explodes once the
// working set exceeds the device cache; Data-Driven (alone and combined with
// chopping) saves the most IO.
void Fig15TransferScale(Figure& fig) {
  const auto [series, columns] = ByStrategy(
      {Strategy::kGpuOnly, Strategy::kChopping, Strategy::kDataDriven,
       Strategy::kDataDrivenChopping},
      {Metric::kH2dMillis});
  for (const Dataset dataset : {Dataset::kSsb, Dataset::kTpch}) {
    const bool ssb = dataset == Dataset::kSsb;
    fig.report.Banner(ssb ? "Figure 15(a)" : "Figure 15(b)",
                      std::string(ssb ? "SSB" : "TPC-H") +
                          " host-to-device transfer time vs scale factor");
    ScaleSweep(fig, dataset,
               fig.args.quick ? std::vector<double>{2, 5}
                              : std::vector<double>{5, 15, 30},
               series, columns);
  }
}

/// Bytes of all base columns referenced by the workload's scans.
size_t WorkloadFootprint(const DatabasePtr& db,
                         const std::vector<NamedQuery>& queries) {
  std::set<std::string> referenced;
  size_t bytes = 0;
  for (const NamedQuery& query : queries) {
    Result<PlanNodePtr> plan = query.builder(*db);
    HETDB_CHECK(plan.ok());
    VisitPlanPostOrder(plan.value(), [&](const PlanNodePtr& node) {
      if (node->op() != PlanOp::kScan) return;
      const auto& scan = static_cast<const ScanNode&>(*node);
      for (const auto& [key, column] : scan.base_columns()) {
        if (referenced.insert(key).second) bytes += column->data_bytes();
      }
    });
  }
  return bytes;
}

/// Per-query device-heap high-water mark under GPU-Only, fusion off vs on.
/// The base-column footprint of Figure 16 is fusion-independent; the
/// *transient* footprint is where fusion bites — a fused pipeline charges
/// only its join build tables, not per-member intermediates (DESIGN.md §11).
void FusionAblation(Figure& fig) {
  const double sf = fig.args.quick ? 1 : 5;
  const DatabasePtr db = Generate(fig.args, Dataset::kSsb, sf);
  fig.report.Header({"query", "unfused[KiB]", "fused[KiB]", "ratio"},
                    "Fusion ablation: per-query device-heap high-water "
                    "(GPU-Only, " + Sf(sf) + ")");
  for (const NamedQuery& query : SsbQueries()) {
    int64_t high_water[2] = {0, 0};
    for (int pass = 0; pass < 2; ++pass) {
      SystemConfig config = PaperConfig(fig.args);
      config.fusion = pass == 1;
      EngineContext ctx(config, db);
      StrategyRunner runner(&ctx, Strategy::kGpuOnly);
      runner.RefreshDataPlacement();
      Result<PlanNodePtr> plan = query.builder(*db);
      HETDB_CHECK(plan.ok());
      auto stats = std::make_shared<QueryStats>();
      Result<TablePtr> result = runner.RunQuery(plan.value(), stats);
      HETDB_CHECK(result.ok());
      high_water[pass] = stats->heap_high_water();
    }
    fig.report.Row({query.name, static_cast<double>(high_water[0]) / 1024.0,
                    static_cast<double>(high_water[1]) / 1024.0,
                    high_water[1] > 0 ? static_cast<double>(high_water[0]) /
                                            static_cast<double>(high_water[1])
                                      : 0.0});
  }
}

// Figure 16: memory footprint of the SSB and TPC-H workloads vs scale
// factor, against the device data-cache capacity. The paper's point: from
// SF 15 the working set significantly exceeds the cache, which is where the
// cache-thrashing effect starts in Figure 14. Computed from real generated
// data (bytes of every base column the workload's queries reference).
void Fig16Footprint(Figure& fig) {
  fig.report.Banner("Figure 16",
                    "Workload memory footprint vs scale factor (device "
                    "cache: 24 MiB)");
  FusionAblation(fig);
  fig.report.Header({"sf", "ssb[MiB]", "tpch[MiB]", "cache[MiB]"});
  for (double sf : fig.args.quick
                       ? std::vector<double>{5, 10}
                       : std::vector<double>{5, 10, 15, 20, 25, 30}) {
    auto mib = [](size_t bytes) {
      return static_cast<double>(bytes) / (1 << 20);
    };
    fig.report.Row(
        {static_cast<uint64_t>(sf),
         mib(WorkloadFootprint(Generate(fig.args, Dataset::kSsb, sf),
                               SsbQueries())),
         mib(WorkloadFootprint(Generate(fig.args, Dataset::kTpch, sf),
                               TpchQueries())),
         mib(PaperConfig(fig.args).device_cache_bytes)});
  }
}

// Figure 17: per-query execution times of selected SSB queries for a single
// user at scale factor 30 (working set well beyond the device cache).
// Expected shape: GPU-Only slows every query down; Critical Path matches
// CPU-Only; Data-Driven Chopping helps most on the high-selectivity queries
// (Q2.3, Q3.4, Q4.3 — small intermediate results, cheap switch-back).
// Gate: scripts/check_bench.py --fig17 (GPU Only must take at least 1.2x CPU
// Only's time on every query).
void Fig17QueryTimesSf30(Figure& fig) {
  const double sf = fig.args.quick ? 10 : 30;
  fig.report.Banner("Figure 17",
                    "Selected SSB query times, single user, " + Sf(sf));
  const std::vector<std::string> names = {"Q1.1", "Q2.1", "Q2.3", "Q3.1",
                                          "Q3.4", "Q4.1", "Q4.3"};
  std::vector<NamedQuery> queries;
  for (const std::string& name : names) {
    queries.push_back(SsbQueryByName(name).value());
  }
  std::vector<QueryRun> runs;
  for (Strategy strategy :
       {Strategy::kCpuOnly, Strategy::kGpuOnly, Strategy::kCriticalPath,
        Strategy::kDataDrivenChopping}) {
    runs.push_back({StrategyToString(strategy), strategy});
  }
  QueryTable(fig, Generate(fig.args, Dataset::kSsb, sf), queries, names,
             WorkloadRunOptions{}, runs, /*p95=*/false);
}

// Scale-out companion to Figure 18(a): the 16-user SSB workload (fixed total
// work) on a simulated machine with 1, 2, 4, and 8 co-processors. Each
// device brings its own heap, data cache, PCIe link, and kernel engine; the
// sharding policy spreads column homes and operator placements across them,
// so GPU-Only — which collapses under heap contention on one device —
// scales out instead of thrashing. --devices 1,4 sets the device counts.
// Gate: scripts/check_bench.py --scaleout.
void Fig18Scaleout(Figure& fig) {
  const BenchArgs& args = fig.args;
  std::vector<int> devices =
      args.quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  if (args.Has("--devices")) {
    const std::string list = args.Text("--devices", "");
    devices.clear();
    for (size_t start = 0; start <= list.size();) {
      const size_t comma = std::min(list.find(',', start), list.size());
      const std::optional<int> count =
          ParsePositive<int>(std::string_view(list).substr(start, comma - start));
      if (!count) {
        args.Fail("--devices '" + list +
                  "' is not a comma-separated list of positive integers");
      }
      devices.push_back(*count);
      start = comma + 1;
    }
  }
  const double sf = DefaultSf(args);
  fig.report.Banner("Figure 18 scale-out",
                    "16-user SSB GPU-Only workload time vs device count (" +
                        Sf(sf) + ")");
  const DatabasePtr db = Generate(args, Dataset::kSsb, sf);
  fig.report.Header({"devices", "gpu_only[ms]", "speedup", "aborts", "failed",
                     "gpu_ops", "h2d[MiB]"});
  double base_millis = 0;
  for (const int device_count : devices) {
    SystemConfig config = PaperConfig(args);
    config.device_count = device_count;
    WorkloadRunOptions options;
    options.repetitions = args.quick ? 2 : 4;
    options.num_users = 16;
    // Warm-up leaves each query home's demand-cached working set in place —
    // that *is* the sharded steady state under query-home placement. The
    // placement-job refresh would re-shard to pure hash affinity and make
    // the first measured repetition re-pay every cross-home load.
    options.refresh_data_placement = false;
    const WorkloadRunResult result =
        RunPoint(fig, config, db, Strategy::kGpuOnly, SsbQueries(), options)
            .run;
    if (base_millis == 0) base_millis = result.wall_millis;
    fig.report.Row(
        {static_cast<uint64_t>(device_count), result.wall_millis,
         result.wall_millis > 0 ? base_millis / result.wall_millis : 0.0,
         result.gpu_aborts, result.failed_queries, result.gpu_operators,
         static_cast<double>(result.h2d_bytes) / (1 << 20)});
  }
}

// Figure 18(a): SSB workload execution time (SF 10, fixed total work) with a
// growing number of parallel users. GPU-Only degrades under heap contention;
// the dynamic fault reaction and concurrency bound of (Data-Driven) Chopping
// keep performance stable.
void Fig18UsersSsb(Figure& fig) {
  const double sf = DefaultSf(fig.args);
  const int reps = fig.args.quick ? 1 : 2;
  fig.report.Banner("Figure 18(a)",
                    "SSB workload time vs parallel users (" + Sf(sf) + ", " +
                        std::to_string(reps * 13) + " queries total)");
  WorkloadTimeVsUsers(fig, Dataset::kSsb, sf, reps);
}

// Figure 18(b): TPC-H workload execution time (SF 10, fixed total work) with
// a growing number of parallel users.
void Fig18UsersTpch(Figure& fig) {
  const double sf = DefaultSf(fig.args);
  fig.report.Banner("Figure 18(b)",
                    "TPC-H workload time vs parallel users (" + Sf(sf) + ")");
  WorkloadTimeVsUsers(fig, Dataset::kTpch, sf, fig.args.quick ? 1 : 2);
}

// Figure 19: host-to-device transfer time of the SSB and TPC-H workloads vs
// parallel users (SF 10). Chopping reduces IO significantly with increasing
// parallelism; the paper reports up to 48x (SSB) / 16x (TPC-H) savings for
// Data-Driven Chopping over GPU-Only.
void Fig19TransferUsers(Figure& fig) {
  const double sf = DefaultSf(fig.args);
  WorkloadRunOptions options;
  options.repetitions = fig.args.quick ? 1 : 2;
  for (const Dataset dataset : {Dataset::kSsb, Dataset::kTpch}) {
    const bool ssb = dataset == Dataset::kSsb;
    fig.report.Banner(ssb ? "Figure 19(a)" : "Figure 19(b)",
                      std::string(ssb ? "SSB" : "TPC-H") +
                          " host-to-device transfer time vs users (" + Sf(sf) +
                          ")");
    UserSweep(fig, PaperConfig(fig.args),
              Generate(fig.args, dataset, sf), Queries(dataset),
              fig.args.quick ? std::vector<int>{1, 8}
                             : std::vector<int>{1, 8, 16, 20},
              options,
              {Strategy::kGpuOnly, Strategy::kChopping,
               Strategy::kDataDrivenChopping},
              {Metric::kH2dMillis});
  }
}

// Figure 20: total *wasted time* (time from operator start to abort, summed
// over all aborted device operators) of the SSB workload vs parallel users.
// Chopping cuts wasted time by orders of magnitude (the paper reports up to
// 74x) because its concurrency bound prevents most aborts in the first
// place.
void Fig20WastedTime(Figure& fig) {
  const double sf = DefaultSf(fig.args);
  fig.report.Banner("Figure 20",
                    "Wasted time of aborted device operators, SSB workload vs "
                    "users (" + Sf(sf) + ")");
  WorkloadRunOptions options;
  options.repetitions = fig.args.quick ? 1 : 2;
  UserSweep(fig, PaperConfig(fig.args),
            Generate(fig.args, Dataset::kSsb, sf), SsbQueries(),
            fig.args.quick ? std::vector<int>{1, 8}
                           : std::vector<int>{1, 8, 16, 20},
            options,
            {Strategy::kGpuOnly, Strategy::kRunTime, Strategy::kChopping,
             Strategy::kDataDrivenChopping},
            {Metric::kWastedMillis, Metric::kAborts});
}

// Figure 21: per-query latency of selected SSB queries with 20 parallel
// users (SF 10), including the GPU-Only + single-query admission-control
// baseline (Wang et al. style). Chopping matches or beats admission control
// on most queries; Data-Driven Chopping accelerates the high-selectivity
// queries most. Mean and p95 per strategy: the paper's point is precisely
// that the robust strategies tame the *tail*, not just the average.
void Fig21Latencies20Users(Figure& fig) {
  const double sf = DefaultSf(fig.args);
  const int users = fig.args.quick ? 8 : 20;
  fig.report.Banner("Figure 21",
                    "Per-query latency, " + std::to_string(users) +
                        " users, " + Sf(sf) +
                        "; 'Admission' = GPU Only with one query admitted at "
                        "a time");
  WorkloadRunOptions options;
  // Enough samples per query template that the p95 column reflects an
  // actual tail instead of collapsing onto the mean.
  options.repetitions = fig.args.quick ? 2 : 5;
  QueryTable(fig, Generate(fig.args, Dataset::kSsb, sf), SsbQueries(),
             {"Q1.1", "Q1.3", "Q2.1", "Q2.3", "Q3.1", "Q3.4", "Q4.1", "Q4.3"},
             options,
             {{"GPU Only", Strategy::kGpuOnly, users},
              {"Admission", Strategy::kGpuOnly, users, 1},
              {"Chopping", Strategy::kChopping, users},
              {"DD Chopping", Strategy::kDataDrivenChopping, users}},
             /*p95=*/true);
}

// Figure 22 (Appendix A): per-query TPC-H execution time of the CPU backend
// vs the device backend, single user, SF 10, hot cache. The paper uses this
// to establish that both backends are competitive with MonetDB/Ocelot; since
// a from-scratch Ocelot build is out of scope, this reproduces the figure's
// message — the hot device backend accelerates every query (see DESIGN.md
// substitution table).
void Fig22TpchBackends(Figure& fig) {
  BackendTimes(fig, Dataset::kTpch, "Figure 22");
}

// Figure 23 (Appendix A): per-query SSB execution time of the CPU backend vs
// the hot device backend, single user, SF 10 (Ocelot substitution — see
// DESIGN.md).
void Fig23SsbBackends(Figure& fig) {
  BackendTimes(fig, Dataset::kSsb, "Figure 23");
}

// Figure 24 (Appendix E): LRU vs LFU data placement under the Data-Driven
// strategy for an interleaved SSB workload, with the device cache swept from
// 0% to ~110% of the working set. The paper's finding: the placement policy
// itself barely matters — the gain comes from the data-driven strategy;
// execution time improves monotonically until the working set fits, with no
// slowdown when nothing fits.
void Fig24LruLfu(Figure& fig) {
  const DatabasePtr db =
      Generate(fig.args, Dataset::kSsb, fig.args.quick ? 2 : 10);
  fig.report.Banner("Figure 24",
                    "Interleaved SSB workload under Data-Driven placement, "
                    "LRU vs LFU background policy, cache swept 0..110% of "
                    "device memory");
  WorkloadRunOptions options;
  options.repetitions = fig.args.quick ? 1 : 2;
  Sweep(fig, "cache[MiB]", Steps(8), SsbQueries(),
        {{Strategy::kDataDriven, EvictionPolicy::kLru},
         {Strategy::kDataDriven, EvictionPolicy::kLfu}},
        {{"lru[ms]", 0, Metric::kWallMillis},
         {"lfu[ms]", 1, Metric::kWallMillis}},
        [&](int step) {
          SystemConfig config = PaperConfig(fig.args);
          config.device_cache_bytes =
              static_cast<size_t>(config.device_memory_bytes) * step / 7;
          if (config.device_cache_bytes >= config.device_memory_bytes) {
            // Keep a minimal heap so device operators can still run.
            config.device_memory_bytes =
                config.device_cache_bytes + (8ull << 20);
          }
          return Row{static_cast<double>(config.device_cache_bytes) / (1 << 20),
                     config, db, options};
        });
}

// Figure 25 (Appendix): per-query latencies of all 13 SSB queries as the
// number of parallel users grows (SF 10), under Data-Driven Chopping. Short
// queries slow down moderately under the concurrency bound; long queries
// stay stable — the latency/robustness trade-off discussed in Section 6.2.2.
void Fig25LatencyMatrix(Figure& fig) {
  const double sf = DefaultSf(fig.args);
  fig.report.Banner("Figure 25",
                    "Latency of every SSB query vs parallel users (" + Sf(sf) +
                        ", Data-Driven Chopping)");
  WorkloadRunOptions options;
  options.repetitions = fig.args.quick ? 1 : 2;
  std::vector<QueryRun> runs;
  for (int users : fig.args.quick ? std::vector<int>{1, 8}
                                  : std::vector<int>{1, 5, 10, 20}) {
    runs.push_back({std::to_string(users) + "_users",
                    Strategy::kDataDrivenChopping, users});
  }
  QueryTable(fig, Generate(fig.args, Dataset::kSsb, sf), SsbQueries(),
             Names(SsbQueries()), options, runs, /*p95=*/false);
}

// Availability under chaos (fig26): closed-loop SSB users (16; --sessions)
// drive the serving front-end while the figure walks the machine through
// device loss, a PCIe/kernel latency storm, and a device-heap squeeze, then
// lets it recover. Each chaos phase arms the devices' own fault injectors
// (DESIGN.md §8) and clears them when it ends.
//
// The point under test is *coordinated graceful degradation*: the brownout
// controller steps its ladder (L0..L3) on the same signals the local
// defenses use, the stuck-query watchdog kills anything wedged, the serving
// layer hedges engine-side deaths onto the CPU-only path, and the system
// returns to L0 with its pre-episode tail latency once the chaos ends.
// Reported per phase (--phase seconds each): goodput, not-served count,
// p99, brownout level, the faults injected and the live devices while the
// phase's faults were armed; plus a recovery summary (time back to L0 with
// a baseline-comparable p99, stranded queries, leaked device heap).
// Gate: scripts/check_bench.py --availability.
void Fig26Availability(Figure& fig) {
  const BenchArgs& args = fig.args;
  const double phase_s = args.quick ? std::min(args.Number("--phase", 4.0), 2.0)
                                    : args.Number("--phase", 4.0);
  const double recovery_window_s = args.quick ? 1.0 : 1.5;
  const int max_recovery_windows = args.quick ? 8 : 10;
  // p99 <= factor * baseline counts as recovered (plus brownout back at L0).
  const double recovery_p99_factor = 3.0;
  const int sessions = static_cast<int>(args.Count("--sessions", 16));

  fig.report.Banner("fig26_availability",
                    "availability under scripted chaos: " +
                        std::to_string(sessions) +
                        " closed-loop SSB users, 2 devices, timeline "
                        "device-loss -> latency-storm -> heap-squeeze -> "
                        "recovery");
  const DatabasePtr db =
      Generate(args, Dataset::kSsb, args.quick ? 0.2 : 0.5);
  const std::vector<NamedQuery> queries = SsbQueries();

  SystemConfig config = PaperConfig(args);
  config.device_count = 2;
  EngineContext ctx(config, db);
  ServerOptions server_options;
  server_options.admission.max_concurrency = 16;
  server_options.admission.initial_concurrency = 8;
  Server server(&ctx, server_options);

  // Warm cost models + data placement so the baseline phase measures a
  // trained engine (same protocol as the other serving benches).
  {
    SessionPtr warm = server.OpenSession("warmup");
    for (const NamedQuery& query : queries) {
      warm->Execute(query.builder(*db).value());
    }
    server.runner().RefreshDataPlacement();
    ctx.ResetRunStats();
  }

  TenantTraffic tenant;
  tenant.name = "users";
  tenant.mix = queries;
  tenant.deadline_ms = args.Number("--deadline-ms", 1000.0);
  tenant.sessions = sessions;
  tenant.think_time_ms = args.Has("--think-time") ? args.think_time_ms : 50.0;
  TrafficOptions traffic;
  traffic.mode = TrafficOptions::Mode::kClosedLoop;
  traffic.seed = args.seed != 0 ? args.seed : 42;

  struct Phase {
    double p99_ms = 0;
    int brownout_level = 0;
    uint64_t completed = 0;
  };
  Simulator& sim = ctx.simulator();
  auto total_faults = [&] {
    uint64_t faults = 0;
    for (int d = 0; d < ctx.device_count(); ++d) {
      faults += sim.fault_injector(d).total_faults();
    }
    return faults;
  };
  // Runs one phase with whatever faults are armed, then disarms them.
  auto run_phase = [&](const std::string& name, double duration_s) {
    traffic.duration_s = duration_s;
    const uint64_t faults_before = total_faults();
    const TrafficResult result = RunTraffic(server, {tenant}, traffic);
    const uint64_t faults = total_faults() - faults_before;
    const uint64_t live_devices = ctx.sharding().LiveDevices().size();
    for (int d = 0; d < ctx.device_count(); ++d) {
      sim.fault_injector(d).ClearAll();
    }
    Phase phase{0, ctx.brownout().level_int(), result.completed};
    for (const TenantTrafficResult& tr : result.tenants) {
      phase.p99_ms = std::max(phase.p99_ms, tr.p99_ms);
    }
    fig.report.Row({name, result.offered, result.goodput_qps, phase.p99_ms,
                    result.shed + result.missed + result.failed,
                    "L" + std::to_string(phase.brownout_level),
                    server.hedge_attempts(), ctx.watchdog().fires(), faults,
                    live_devices});
    return phase;
  };

  fig.report.Header({"phase", "offered", "goodput[qps]", "p99[ms]",
                     "not_served", "brownout", "hedges", "wd_fires", "faults",
                     "live_devices"});
  const Phase baseline = run_phase("baseline", phase_s);

  // Device 1 falls off the bus; placement routes around it, as an
  // operator's device-loss runbook would.
  constexpr int kLostDevice = 1;
  sim.fault_injector(kLostDevice).ForceOffline(1 << 30);  // until ClearAll
  ctx.sharding().MarkDeviceLost(kLostDevice);
  ctx.sharding().RebalanceAway(kLostDevice, /*source_reachable=*/false);
  run_phase("device_loss", phase_s);
  ctx.sharding().MarkDeviceRestored(kLostDevice);

  FaultSchedule storm =
      FaultSchedule::WithProbability(FaultKind::kLatencySpike, 0.5);
  storm.latency_factor = 8;
  for (int d = 0; d < ctx.device_count(); ++d) {
    sim.fault_injector(d).SetSchedule(FaultSite::kTransfer, storm);
    sim.fault_injector(d).SetSchedule(FaultSite::kKernel, storm);
  }
  run_phase("latency_storm", phase_s);

  for (int d = 0; d < ctx.device_count(); ++d) {
    sim.fault_injector(d).SetSchedule(
        FaultSite::kDeviceAlloc,
        FaultSchedule::WithProbability(FaultKind::kHeapExhausted, 0.6));
  }
  run_phase("heap_squeeze", phase_s);

  // Recovery: probe in short windows until the ladder is back at L0 and the
  // p99 is comparable to the pre-episode baseline, or the window budget
  // runs out. The placement job re-shards the restored device first, as the
  // restore runbook would.
  server.runner().RefreshDataPlacement();
  bool recovered = false;
  double recovery_time_s = 0;
  for (int window = 0; window < max_recovery_windows && !recovered;
       ++window) {
    const Phase probe = run_phase("recovery_" + std::to_string(window + 1),
                                  recovery_window_s);
    recovery_time_s += recovery_window_s;
    const bool p99_ok = baseline.p99_ms <= 0 ||
                        probe.p99_ms <= recovery_p99_factor * baseline.p99_ms;
    recovered =
        probe.brownout_level == 0 && p99_ok && probe.completed > 0;
  }

  // Stranded-work audit: every future the closed loop issued has resolved
  // by construction; beyond that, nothing may still be under watch and the
  // device heaps must be fully released.
  size_t heap_used = 0;
  for (int d = 0; d < ctx.device_count(); ++d) {
    heap_used += ctx.simulator().device_heap(d).used();
  }
  fig.report.Summary(
      {{"recovered", std::string(recovered ? "yes" : "no")},
       {"recovery_time_s", recovery_time_s},
       {"stranded", static_cast<uint64_t>(ctx.watchdog().active())},
       {"heap_used", static_cast<uint64_t>(heap_used)},
       {"final_level", "L" + std::to_string(ctx.brownout().level_int())},
       {"brownout_transitions", ctx.brownout().transitions()}});
}

void ScaleGpu(SystemConfig* config, double factor) {
  ThroughputTable& t = config->gpu_throughput;
  t.scan_mbps *= factor;
  t.join_mbps *= factor;
  t.aggregate_mbps *= factor;
  t.sort_mbps *= factor;
  t.project_mbps *= factor;
  t.materialize_mbps *= factor;
}

// Ablation: sensitivity of the headline result to the simulator's
// calibration constants (DESIGN.md §2). Sweeps the device/CPU speed ratio
// and the PCIe bandwidth at one Figure-14 point (SSB, SF 10, single user)
// and reports CPU-Only vs GPU-Only vs Data-Driven Chopping. The qualitative
// ordering (DD-Chopping never worse than CPU-Only) must hold across the
// sweep — showing the reproduction does not hinge on one magic constant.
void AblCalibration(Figure& fig) {
  const double sf = fig.args.quick ? 2 : 10;
  const DatabasePtr db = Generate(fig.args, Dataset::kSsb, sf);
  fig.report.Banner("Ablation: calibration sensitivity",
                    "SSB " + Sf(sf) +
                        ", single user; 'robust' = DD-Chopping <= 1.1x "
                        "CPU-Only");
  fig.report.Header({"variant", "cpu_only[ms]", "gpu_only[ms]",
                     "dd_chopping[ms]", "robust"});
  const std::vector<std::pair<std::string, std::function<void(SystemConfig&)>>>
      variants = {
          {"baseline", [](SystemConfig&) {}},
          // Device only ~1.25x the quad-core CPU.
          {"gpu_x0.5", [](SystemConfig& c) { ScaleGpu(&c, 0.5); }},
          // Device 5x the CPU.
          {"gpu_x2", [](SystemConfig& c) { ScaleGpu(&c, 2.0); }},
          // Half the bus bandwidth.
          {"pcie_x0.5", [](SystemConfig& c) { c.pcie_mbps = 50; }},
          // NVLink-class interconnect.
          {"pcie_x4", [](SystemConfig& c) { c.pcie_mbps = 400; }},
          // Starved cache.
          {"cache_6MiB",
           [](SystemConfig& c) { c.device_cache_bytes = 6ull << 20; }},
      };
  for (const auto& [label, adjust] : variants) {
    SystemConfig config = PaperConfig(fig.args);
    adjust(config);
    auto millis = [&](Strategy strategy) {
      return RunPoint(fig, config, db, strategy, SsbQueries(), {})
          .run.wall_millis;
    };
    const double cpu = millis(Strategy::kCpuOnly);
    const double gpu = millis(Strategy::kGpuOnly);
    const double ddc = millis(Strategy::kDataDrivenChopping);
    fig.report.Row({label, cpu, gpu, ddc,
                    std::string(ddc <= cpu * 1.1 ? "yes" : "NO")});
  }
}

// Ablation: database compression on the device cache (Section 6.3). The
// paper argues compression "shifts the point where performance breaks down
// to a larger scale factor ... [but] neither solves the cache thrashing nor
// the heap contention problem". Reproduced by sweeping the SSB scale factor
// with and without bit-packed cache entries under GPU-Only placement: the
// thrashing knee moves right, but past it the degradation is the same.
void AblCompression(Figure& fig) {
  fig.report.Banner("Ablation: device-cache compression",
                    "SSB workload under GPU-Only placement, plain vs "
                    "bit-packed cache entries (24 MiB cache)");
  ScaleSweep(fig, Dataset::kSsb,
             fig.args.quick ? std::vector<double>{2, 5}
                            : std::vector<double>{5, 10, 20, 30, 40},
             {{Strategy::kGpuOnly},
              {Strategy::kGpuOnly, EvictionPolicy::kLfu, true, true}},
             {{"plain[ms]", 0, Metric::kWallMillis},
              {"compressed[ms]", 1, Metric::kWallMillis},
              {"plain_h2d[ms]", 0, Metric::kH2dMillis},
              {"compressed_h2d[ms]", 1, Metric::kH2dMillis}});
}

// Ablation: device worker-pool size for query chopping. The pool size is
// chopping's single knob — the upper bound on concurrently running device
// operators (Section 5.2). Too small leaves latency on the table when the
// heap has room; too large re-creates heap contention. Run on the B.2
// parallel selection workload with 16 users.
void AblPoolSize(Figure& fig) {
  const DatabasePtr db =
      Generate(fig.args, Dataset::kSsb, DefaultSf(fig.args));
  fig.report.Banner("Ablation: chopping pool size",
                    "B.2 workload, 16 users; device heap fits ~7 concurrent "
                    "selections");
  WorkloadRunOptions options;
  options.repetitions = B2Queries(fig.args);
  options.num_users = 16;
  Sweep(fig, "gpu_workers", std::vector<int>{1, 2, 4, 8, 16, 32},
        ParallelSelectionQueries(), {{Strategy::kDataDrivenChopping}},
        {{"time[ms]", 0, Metric::kWallMillis},
         {"aborts", 0, Metric::kAborts},
         {"wasted[ms]", 0, Metric::kWastedMillis}},
        [&](int gpu_workers) {
          Row row{static_cast<uint64_t>(gpu_workers),
                  ContentionConfig(db, fig.args), db, options};
          row.config.gpu_workers = gpu_workers;
          return row;
        });
}

/// Every figure: its name (the former per-figure executable's name), its
/// function, and the flags it adds to the shared ones.
struct FigureEntry {
  const char* name;
  void (*run)(Figure&);
  std::vector<FlagSpec> flags;
};

const std::vector<FigureEntry>& Figures() {
  using Kind = FlagSpec::Kind;
  static const std::vector<FigureEntry> figures = {
      {"fig01_motivation", Fig01Motivation, {}},
      {"fig02_cache_thrashing", Fig02CacheThrashing, {}},
      {"fig03_heap_contention", Fig03HeapContention, {}},
      {"fig05_data_driven_thrashing", Fig05DataDrivenThrashing, {}},
      {"fig06_transfer_time", Fig06TransferTime, {}},
      {"fig07_data_driven_contention", Fig07DataDrivenContention, {}},
      {"fig09_runtime_placement", Fig09RuntimePlacement, {}},
      {"fig12_chopping", Fig12Chopping, {}},
      {"fig13_aborts", Fig13Aborts, {}},
      {"fig14_scale_ssb", Fig14ScaleSsb, {}},
      {"fig14_scale_tpch", Fig14ScaleTpch, {}},
      {"fig15_transfer_scale", Fig15TransferScale, {}},
      {"fig16_footprint", Fig16Footprint, {}},
      {"fig17_query_times_sf30", Fig17QueryTimesSf30, {}},
      {"fig18_scaleout", Fig18Scaleout, {{"--devices", Kind::kText, "LIST"}}},
      {"fig18_users_ssb", Fig18UsersSsb, {}},
      {"fig18_users_tpch", Fig18UsersTpch, {}},
      {"fig19_transfer_users", Fig19TransferUsers, {}},
      {"fig20_wasted_time", Fig20WastedTime, {}},
      {"fig21_latencies_20users", Fig21Latencies20Users, {}},
      {"fig22_tpch_backends", Fig22TpchBackends, {}},
      {"fig23_ssb_backends", Fig23SsbBackends, {}},
      {"fig24_lru_lfu", Fig24LruLfu, {}},
      {"fig25_latency_matrix", Fig25LatencyMatrix, {}},
      {"fig26_availability",
       Fig26Availability,
       {{"--phase", Kind::kNumber, "S"},
        {"--sessions", Kind::kCount, "N", std::numeric_limits<int>::max()},
        {"--deadline-ms", Kind::kNumber, "MS"}}},
      {"abl_calibration", AblCalibration, {}},
      {"abl_compression", AblCompression, {}},
      {"abl_pool_size", AblPoolSize, {}},
  };
  return figures;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    for (const FigureEntry& entry : Figures()) std::printf("%s\n", entry.name);
    return 0;
  }
  // The figure decides which flags beyond the shared ones are valid.
  std::string name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--figure" && i + 1 < argc) name = argv[i + 1];
    if (arg.rfind("--figure=", 0) == 0) name = arg.substr(9);
  }
  const FigureEntry* entry = nullptr;
  for (const FigureEntry& candidate : Figures()) {
    if (name == candidate.name) entry = &candidate;
  }
  if (entry == nullptr) {
    std::fprintf(stderr,
                 "error: %s\nusage: %s --figure NAME [flags] (without "
                 "arguments it lists the NAMEs)\n",
                 name.empty() ? "--figure NAME is required"
                              : ("unknown figure '" + name + "'").c_str(),
                 argv[0]);
    return 2;
  }
  std::vector<FlagSpec> flags = entry->flags;
  flags.push_back({"--figure", FlagSpec::Kind::kText, "NAME"});
  const BenchArgs args = BenchArgs::Parse(argc, argv, flags);

  Figure fig{args, Report(), {}};
  entry->run(fig);
  for (const std::string& block : fig.per_query) {
    std::printf("%s\n", block.c_str());
  }
  const bool written =
      args.json_out.empty() ||
      WriteFile(args.json_out,
                fig.report.Json(entry->name, args, HETDB_BUILD_TYPE));
  return written ? 0 : 1;
}
