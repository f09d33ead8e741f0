// ssb_bench: runs one SSB workload on the simulated paper machine and
// prints its end-to-end metrics (or, traced, its per-layer metrics) as one
// JSON object on the last line of standard output.
//
//   ssb_bench --workload ssb_spill --seed 3 --seconds 25 --trace 0
//             [--trace-out spans.json]
//
// The benchmark calls only public entry points of the engine and reads only
// counters the layers already keep; every span is recorded here, around the
// call into a layer. perfbench/README.md lists the workloads and metrics.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/engine_context.h"
#include "engine/pipeline_builder.h"
#include "placement/strategy_runner.h"
#include "server/server.h"
#include "sql/planner.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "telemetry/query_stats.h"
#include "spans.h"
#include "telemetry/telemetry.h"

namespace hetdb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kMiB = size_t{1} << 20;
constexpr double kMB = 1e6;
constexpr int kTemplates = 13;
/// Set-ups per run. setup_s is their median; the last one is measured.
constexpr int kSetups = 3;
/// 13 x 8 = 104 measured queries leave 10 samples beyond the pooled p90.
constexpr int kMinRounds = 8;

/// The 13 SSB queries as SQL text, in SsbQueries() order. Each selects the
/// hand-built plan's output columns in the same order, so the two plans'
/// results digest identically (checked at set-up).
constexpr const char* kSsbSql[kTemplates] = {
    // Q1.1
    "SELECT sum(lo_extendedprice * lo_discount) AS revenue "
    "FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_year = 1993 "
    "AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25",
    // Q1.2
    "SELECT sum(lo_extendedprice * lo_discount) AS revenue "
    "FROM lineorder, date WHERE lo_orderdate = d_datekey "
    "AND d_yearmonthnum = 199401 AND lo_discount BETWEEN 4 AND 6 "
    "AND lo_quantity BETWEEN 26 AND 35",
    // Q1.3
    "SELECT sum(lo_extendedprice * lo_discount) AS revenue "
    "FROM lineorder, date WHERE lo_orderdate = d_datekey "
    "AND d_weeknuminyear = 6 AND d_year = 1994 "
    "AND lo_discount BETWEEN 5 AND 7 AND lo_quantity BETWEEN 26 AND 35",
    // Q2.1
    "SELECT d_year, p_brand1, sum(lo_revenue) AS revenue "
    "FROM lineorder, date, part, supplier WHERE lo_orderdate = d_datekey "
    "AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey "
    "AND p_category = 'MFGR#12' AND s_region = 'AMERICA' "
    "GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1",
    // Q2.2
    "SELECT d_year, p_brand1, sum(lo_revenue) AS revenue "
    "FROM lineorder, date, part, supplier WHERE lo_orderdate = d_datekey "
    "AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey "
    "AND p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228' AND s_region = 'ASIA' "
    "GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1",
    // Q2.3
    "SELECT d_year, p_brand1, sum(lo_revenue) AS revenue "
    "FROM lineorder, date, part, supplier WHERE lo_orderdate = d_datekey "
    "AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey "
    "AND p_brand1 = 'MFGR#2239' AND s_region = 'EUROPE' "
    "GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1",
    // Q3.1
    "SELECT c_nation, s_nation, d_year, sum(lo_revenue) AS revenue "
    "FROM customer, lineorder, supplier, date WHERE lo_custkey = c_custkey "
    "AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey "
    "AND c_region = 'ASIA' AND s_region = 'ASIA' "
    "AND d_year BETWEEN 1992 AND 1997 GROUP BY c_nation, s_nation, d_year "
    "ORDER BY d_year ASC, revenue DESC",
    // Q3.2
    "SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue "
    "FROM customer, lineorder, supplier, date WHERE lo_custkey = c_custkey "
    "AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey "
    "AND c_nation = 'UNITED STATES' AND s_nation = 'UNITED STATES' "
    "AND d_year BETWEEN 1992 AND 1997 GROUP BY c_city, s_city, d_year "
    "ORDER BY d_year ASC, revenue DESC",
    // Q3.3
    "SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue "
    "FROM customer, lineorder, supplier, date WHERE lo_custkey = c_custkey "
    "AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey "
    "AND c_city IN ('UNITED KI1', 'UNITED KI5') "
    "AND s_city IN ('UNITED KI1', 'UNITED KI5') "
    "AND d_year BETWEEN 1992 AND 1997 GROUP BY c_city, s_city, d_year "
    "ORDER BY d_year ASC, revenue DESC",
    // Q3.4
    "SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue "
    "FROM customer, lineorder, supplier, date WHERE lo_custkey = c_custkey "
    "AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey "
    "AND c_city IN ('UNITED KI1', 'UNITED KI5') "
    "AND s_city IN ('UNITED KI1', 'UNITED KI5') AND d_yearmonth = 'Dec1997' "
    "GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC",
    // Q4.1
    "SELECT d_year, c_nation, sum(lo_revenue - lo_supplycost) AS profit "
    "FROM date, customer, supplier, part, lineorder "
    "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
    "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "
    "AND c_region = 'AMERICA' AND s_region = 'AMERICA' "
    "AND p_mfgr IN ('MFGR#1', 'MFGR#2') "
    "GROUP BY d_year, c_nation ORDER BY d_year, c_nation",
    // Q4.2
    "SELECT d_year, s_nation, p_category, "
    "sum(lo_revenue - lo_supplycost) AS profit "
    "FROM date, customer, supplier, part, lineorder "
    "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
    "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "
    "AND c_region = 'AMERICA' AND s_region = 'AMERICA' "
    "AND d_year IN (1997, 1998) AND p_mfgr IN ('MFGR#1', 'MFGR#2') "
    "GROUP BY d_year, s_nation, p_category "
    "ORDER BY d_year, s_nation, p_category",
    // Q4.3
    "SELECT d_year, s_city, p_brand1, "
    "sum(lo_revenue - lo_supplycost) AS profit "
    "FROM date, customer, supplier, part, lineorder "
    "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
    "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "
    "AND c_region = 'AMERICA' AND s_nation = 'UNITED STATES' "
    "AND d_year IN (1997, 1998) AND p_category = 'MFGR#14' "
    "GROUP BY d_year, s_city, p_brand1 ORDER BY d_year, s_city, p_brand1",
};

/// One benchmark workload: a data size, a placement strategy, an entry point
/// and a machine. The time scale multiplies every modeled duration; it is
/// set per workload so that modeled time dominates each critical path.
struct Workload {
  const char* name;
  double scale_factor;
  Strategy strategy;
  /// SQL text through in-process Server sessions, one tenant per client;
  /// otherwise the hand-built SsbQueries() plans through one StrategyRunner.
  bool sql_server;
  int clients;
  double time_scale;
  size_t device_memory_bytes;
  size_t device_cache_bytes;
  /// Nominal rate that sizes the measured query list from --seconds. A
  /// constant, so both sides of a comparison run the same list.
  double nominal_qps;
};

// The paper's machine at 1/100 data scale (bench/bench_util.h PaperConfig):
// a 40 MiB device split into a 24 MiB data cache and a 16 MiB heap.
// PaperConfig() runs modeled time x10. The hand-built workloads run it x2:
// at x1 their host work (25-30 ms of CPU per query, with a degree of
// parallelism that varies with the host) set a third of each query's time.
constexpr Workload kWorkloads[] = {
    {"ssb_resident", 5, Strategy::kDataDrivenChopping, true, 2, 10.0,
     40 * kMiB, 24 * kMiB, 22.0},
    {"ssb_spill", 20, Strategy::kDataDrivenChopping, false, 2, 2.0, 40 * kMiB,
     24 * kMiB, 11.5},
    // GPU Only with the heap cut to 8 MiB: operators abort and restart on
    // the CPU.
    {"ssb_thrash_gpu", 20, Strategy::kGpuOnly, false, 1, 2.0, 32 * kMiB,
     24 * kMiB, 7.5},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// --- Result check --------------------------------------------------------

/// Row count, column count and an order-independent checksum over every
/// value of a result table. Rows hash their values in column order; the
/// checksum sums the row hashes, so plans that emit tied rows in another
/// order still match.
struct Digest {
  size_t rows = 0;
  size_t columns = 0;
  uint64_t checksum = 0;
  bool operator==(const Digest&) const = default;
};

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashString(std::string_view text) {  // FNV-1a
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

Digest DigestOf(const Table& table) {
  Digest digest{table.num_rows(), table.num_columns(), 0};
  std::vector<uint64_t> row_hash(table.num_rows(), 0);
  for (const ColumnPtr& column : table.columns()) {
    for (size_t row = 0; row < row_hash.size(); ++row) {
      uint64_t value = 0;
      // Integer widths are normalized: a SQL plan may widen a column the
      // hand-built plan keeps at 32 bits.
      switch (column->type()) {
        case DataType::kInt32:
          value = static_cast<uint64_t>(static_cast<int64_t>(
              ColumnCast<Int32Column>(*column).value(row)));
          break;
        case DataType::kInt64:
          value = static_cast<uint64_t>(
              ColumnCast<Int64Column>(*column).value(row));
          break;
        case DataType::kDouble:
          value = std::bit_cast<uint64_t>(
              ColumnCast<DoubleColumn>(*column).value(row));
          break;
        case DataType::kString:
          value = HashString(ColumnCast<StringColumn>(*column).value(row));
          break;
      }
      row_hash[row] = Mix(row_hash[row] ^ value);
    }
  }
  for (uint64_t hash : row_hash) digest.checksum += Mix(hash);
  return digest;
}

// --- Host measurements ---------------------------------------------------

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in KiB.
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMB;
}

/// Machine-wide jiffies from the first line of /proc/stat.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuJiffies ReadCpuJiffies() {
  CpuJiffies jiffies;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return jiffies;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) return CpuJiffies{};
    jiffies.total += value;
    if (field == 7) jiffies.steal = value;
  }
  return jiffies;
}

// --- Statistics over raw samples -----------------------------------------

/// Nearest-rank percentile of raw samples: the smallest sample with at least
/// `p` of all samples at or below it.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::max<size_t>(rank, 1) - 1];
}

double Mean(const std::vector<double>& samples) {
  double sum = 0;
  for (double sample : samples) sum += sample;
  return samples.empty() ? 0 : sum / static_cast<double>(samples.size());
}

double Ratio(double numerator, double denominator, double if_empty) {
  return denominator > 0 ? numerator / denominator : if_empty;
}

// --- The benchmark ------------------------------------------------------

/// One set-up engine: its data, context and the entry point queries use.
/// Members are declared in dependency order, so they are destroyed users
/// first.
struct Instance {
  DatabasePtr db;
  std::unique_ptr<EngineContext> ctx;
  std::unique_ptr<StrategyRunner> runner;  // hand-built plans
  std::unique_ptr<Server> server;          // SQL sessions
  std::vector<SessionPtr> sessions;

  StrategyRunner& strategy_runner() {
    return server != nullptr ? server->runner() : *runner;
  }
};

/// One measured query.
struct Sample {
  int tmpl = 0;
  bool ok = false;        ///< the engine returned a result
  bool matched = false;   ///< ... equal to the reference
  double latency_ms = 0;  ///< plan through execute, wall clock
  double end_s = 0;       ///< completion, since the measured phase began
  double queue_wait_ms = 0;
  double run_ms = 0;
  double gpu_kernel_model_ms = 0;  ///< modeled device kernel time, unscaled
};

constexpr int kKernelCount = 4;
constexpr const char* kKernels[kKernelCount] = {"filter", "hash_join",
                                                "aggregate", "fused_pipeline"};

/// Latencies grouped by template, in SsbQueries() order.
std::vector<std::vector<double>> LatenciesByTemplate(
    const std::vector<Sample>& samples) {
  std::vector<std::vector<double>> by_template(kTemplates);
  for (const Sample& sample : samples) {
    by_template[static_cast<size_t>(sample.tmpl)].push_back(sample.latency_ms);
  }
  return by_template;
}

/// Cumulative counters the layers keep that ResetRunStats() leaves alone;
/// the measured phase reports their differences.
struct Counters {
  int64_t charged_micros = 0;
  int64_t kernel_latency_us[kKernelCount] = {};
  int64_t dop_sum = 0;
  int64_t dop_count = 0;
  uint64_t breaker_trips = 0;
  uint64_t brownout_transitions = 0;
  uint64_t watchdog_fires = 0;
  uint64_t hedges = 0;
  uint64_t offered = 0;
  uint64_t shed = 0;
};

Counters ReadCounters(Instance& instance) {
  Counters counters;
  EngineContext& ctx = *instance.ctx;
  counters.charged_micros = ctx.simulator().clock().total_charged_micros();
  MetricRegistry& kernels = GlobalKernelMetrics();
  for (int k = 0; k < kKernelCount; ++k) {
    const std::string prefix = std::string("kernel.") + kKernels[k];
    counters.kernel_latency_us[k] =
        kernels.GetHistogram(prefix + ".latency_us").Snapshot().sum;
    const HistogramSnapshot dop =
        kernels.GetHistogram(prefix + ".dop").Snapshot();
    counters.dop_sum += dop.sum;
    counters.dop_count += static_cast<int64_t>(dop.count);
  }
  counters.breaker_trips = ctx.breaker().trips();
  counters.brownout_transitions = ctx.brownout().transitions();
  counters.watchdog_fires = ctx.watchdog().fires();
  if (instance.server != nullptr) {
    counters.hedges = instance.server->hedge_attempts();
    counters.offered = instance.server->admission().offered();
    counters.shed = instance.server->admission().shed_total();
  }
  return counters;
}

/// What the measured phase leaves behind.
struct Measurement {
  std::vector<Sample> samples;
  uint64_t first_query = 0;  ///< id of the first measured query
  double makespan_s = 0;
  double cpu_seconds = 0;  ///< process user + sys
  double steal_share = 0;  ///< machine-wide steal time / all CPU time
  Counters before;
  Counters after;
};

/// A reported metric: value, unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("# %-34s %14.4f %-9s n=%zu\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.samples);
  }
}

std::string FormatResult(bool correct, size_t attempted, size_t failed,
                         const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
         << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  return json.str();
}

class Bench {
 public:
  Bench(const Workload& workload, const Args& args)
      : workload_(workload), args_(args), spans_(args.trace) {}

  /// Sets up, computes the reference, measures, and prints the report.
  /// Returns the process exit code.
  int Run();

 private:
  SystemConfig MachineConfig() const {
    SystemConfig config;
    config.device_memory_bytes = workload_.device_memory_bytes;
    config.device_cache_bytes = workload_.device_cache_bytes;
    config.simulate_time = true;
    config.time_scale = workload_.time_scale;
    return config;
  }
  std::unique_ptr<Instance> Setup(double* seconds);
  bool ComputeReference(const DatabasePtr& db);
  Sample RunOne(Instance& instance, int client, int tmpl);
  std::vector<int> MeasuredOrder() const;
  Measurement Measure(Instance& instance);
  std::vector<Metric> EndToEndMetrics(const Measurement& measurement,
                                      const std::vector<double>& setup_seconds);
  std::vector<Metric> LayerMetrics(Instance& instance,
                                   const Measurement& measurement);
  void PrintProvenance(const Measurement& measurement) const;
  void PrintLatencyTable(const Measurement& measurement) const;
  void PrintSpanReport(uint64_t first_measured_query) const;

  const Workload& workload_;
  const Args& args_;
  SpanRecorder spans_;
  const std::vector<NamedQuery> queries_ = SsbQueries();
  std::vector<Digest> reference_;
  std::atomic<uint64_t> last_query_id_{0};
};

std::unique_ptr<Instance> Bench::Setup(double* seconds) {
  const Clock::time_point start = Clock::now();
  SpanRecorder::Scope setup(spans_, "perfbench.setup", 0);
  auto instance = std::make_unique<Instance>();
  {
    SpanRecorder::Scope span(spans_, "ssb.generate", 0);
    SsbGeneratorOptions generator;  // fixed data seed for every run
    generator.scale_factor = workload_.scale_factor;
    instance->db = GenerateSsbDatabase(generator);
  }
  {
    SpanRecorder::Scope span(spans_, "engine.construct", 0);
    instance->ctx =
        std::make_unique<EngineContext>(MachineConfig(), instance->db);
    if (workload_.sql_server) {
      ServerOptions options;
      options.strategy = workload_.strategy;
      instance->server =
          std::make_unique<Server>(instance->ctx.get(), options);
      for (int client = 0; client < workload_.clients; ++client) {
        const std::string tenant = "tenant" + std::to_string(client);
        instance->server->RegisterTenant(TenantSpec{tenant});
        instance->sessions.push_back(instance->server->OpenSession(tenant));
      }
    } else {
      instance->runner = std::make_unique<StrategyRunner>(
          instance->ctx.get(), workload_.strategy);
    }
  }
  {
    SpanRecorder::Scope span(spans_, "perfbench.warmup", 0);
    for (int tmpl = 0; tmpl < kTemplates; ++tmpl) {
      if (!RunOne(*instance, 0, tmpl).ok) return nullptr;
    }
  }
  {
    SpanRecorder::Scope span(spans_, "cache.placement_job", 0);
    instance->strategy_runner().RefreshDataPlacement();
  }
  *seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return instance;
}

bool Bench::ComputeReference(const DatabasePtr& db) {
  SpanRecorder::Scope span(spans_, "perfbench.reference", 0);
  SystemConfig config;
  config.simulate_time = false;
  EngineContext ctx(config, db);
  StrategyRunner cpu(&ctx, Strategy::kCpuOnly);
  auto run = [&cpu](const Result<PlanNodePtr>& plan) {
    return plan.ok() ? cpu.RunQuery(plan.value())
                     : Result<TablePtr>(plan.status());
  };
  reference_.clear();
  for (int tmpl = 0; tmpl < kTemplates; ++tmpl) {
    const Result<TablePtr> result = run(queries_[tmpl].builder(*db));
    if (!result.ok()) {
      std::fprintf(stderr, "reference %s failed: %s\n",
                   queries_[tmpl].name.c_str(),
                   result.status().ToString().c_str());
      return false;
    }
    reference_.push_back(DigestOf(*result.value()));
  }
  if (!workload_.sql_server) return true;
  // The SQL text must return what the hand-built plan returns.
  for (int tmpl = 0; tmpl < kTemplates; ++tmpl) {
    const Result<TablePtr> result = run(PlanSql(kSsbSql[tmpl], *db));
    if (!result.ok()) {
      std::fprintf(stderr, "SQL %s failed: %s\n", queries_[tmpl].name.c_str(),
                   result.status().ToString().c_str());
      return false;
    }
    if (!(DigestOf(*result.value()) == reference_[tmpl])) {
      std::fprintf(stderr, "SQL %s does not match the hand-built plan\n",
                   queries_[tmpl].name.c_str());
      return false;
    }
  }
  return true;
}

Sample Bench::RunOne(Instance& instance, int client, int tmpl) {
  const uint64_t query = ++last_query_id_;
  const Database& db = *instance.db;
  const std::string& name = queries_[tmpl].name;
  Sample sample;
  sample.tmpl = tmpl;
  const Clock::time_point start = Clock::now();
  SpanRecorder::Scope root(spans_, "perfbench.query", query);
  Result<PlanNodePtr> plan = Status::Internal("not planned");
  if (workload_.sql_server) {
    SpanRecorder::Scope span(spans_, "sql.plan", query);
    plan = PlanSql(kSsbSql[tmpl], db);
  } else {
    SpanRecorder::Scope span(spans_, "ssb.plan", query);
    plan = queries_[tmpl].builder(db);
  }
  Result<TablePtr> result = plan.status();
  QueryStatsPtr stats;
  if (plan.ok()) {
    PlanNodePtr optimized;
    {
      SpanRecorder::Scope span(spans_, "engine.optimize", query);
      optimized = OptimizePlan(plan.value());
    }
    if (workload_.sql_server) {
      // PlanSql + Session::Execute is Session::ExecuteSql split in two, so
      // planning is timed on its own. The server registers the plan's nodes
      // into the stats it is handed.
      stats = std::make_shared<QueryStats>();
      SubmitOptions options;
      options.stats = stats;
      options.name = name;
      SpanRecorder::Scope span(spans_, "server.execute", query);
      result = instance.sessions[static_cast<size_t>(client)]->Execute(
          optimized, std::move(options));
    } else {
      {
        SpanRecorder::Scope span(spans_, "telemetry.make_stats", query);
        stats = MakeQueryStats(optimized);
      }
      stats->set_name(name);
      SpanRecorder::Scope span(spans_, "placement.run_query", query);
      result = instance.runner->RunQuery(optimized, stats);
    }
  }
  sample.latency_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  SpanRecorder::Scope span(spans_, "perfbench.check", query);
  sample.ok = result.ok();
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                 result.status().ToString().c_str());
  } else if (static_cast<size_t>(tmpl) < reference_.size()) {
    sample.matched = DigestOf(*result.value()) == reference_[tmpl];
    if (!sample.matched) {
      std::fprintf(stderr, "%s returned a wrong result\n", name.c_str());
    }
  }
  if (stats != nullptr) {
    sample.queue_wait_ms =
        static_cast<double>(stats->queue_wait_micros()) / 1e3;
    sample.run_ms = static_cast<double>(stats->run_micros()) / 1e3;
    int64_t gpu_micros = 0;
    for (const auto& node : stats->nodes()) {
      gpu_micros += node->gpu_kernel_micros;
    }
    sample.gpu_kernel_model_ms = static_cast<double>(gpu_micros) / 1e3;
  }
  return sample;
}

/// The measured list: every template the same number of times, in an order
/// drawn from --seed. The list is N rounds, each a seeded permutation of
/// the 13 templates, so the mix stays even over the run and the heavy
/// templates do not bunch up by chance. The seed changes nothing else.
std::vector<int> Bench::MeasuredOrder() const {
  const int rounds = std::max(
      kMinRounds,
      static_cast<int>(std::lround(args_.seconds * workload_.nominal_qps /
                                   kTemplates)));
  Rng rng(args_.seed);
  std::vector<int> order;
  for (int round = 0; round < rounds; ++round) {
    int templates[kTemplates];
    for (int tmpl = 0; tmpl < kTemplates; ++tmpl) templates[tmpl] = tmpl;
    for (int i = kTemplates - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(templates[i], templates[rng.Uniform(0, i)]);
    }
    order.insert(order.end(), templates, templates + kTemplates);
  }
  return order;
}

/// Runs the measured list as a closed loop: each client thread takes the
/// next query once its previous one returned.
Measurement Bench::Measure(Instance& instance) {
  const std::vector<int> order = MeasuredOrder();
  Measurement measurement;
  measurement.samples.resize(order.size());
  measurement.first_query = last_query_id_ + 1;
  instance.ctx->ResetRunStats();
  measurement.before = ReadCounters(instance);
  const CpuJiffies jiffies_before = ReadCpuJiffies();
  const double cpu_before = CpuSeconds();
  const Clock::time_point start = Clock::now();
  std::atomic<size_t> next{0};
  std::vector<std::thread> clients;
  for (int client = 0; client < workload_.clients; ++client) {
    clients.emplace_back([&, client] {
      for (size_t i = next++; i < order.size(); i = next++) {
        Sample& sample = measurement.samples[i];
        sample = RunOne(instance, client, order[i]);
        sample.end_s =
            std::chrono::duration<double>(Clock::now() - start).count();
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  measurement.cpu_seconds = CpuSeconds() - cpu_before;
  const CpuJiffies jiffies_after = ReadCpuJiffies();
  measurement.after = ReadCounters(instance);
  for (const Sample& sample : measurement.samples) {
    measurement.makespan_s = std::max(measurement.makespan_s, sample.end_s);
  }
  measurement.steal_share = Ratio(
      static_cast<double>(jiffies_after.steal - jiffies_before.steal),
      static_cast<double>(jiffies_after.total - jiffies_before.total), 0.0);
  return measurement;
}

/// The seven end-to-end metrics, peak_rss_mb still 0: it is read at exit.
std::vector<Metric> Bench::EndToEndMetrics(
    const Measurement& measurement, const std::vector<double>& setup_seconds) {
  const std::vector<Sample>& samples = measurement.samples;
  const size_t n = samples.size();
  size_t completed = 0, matched = 0;
  std::vector<double> latencies;
  for (const Sample& sample : samples) {
    completed += sample.ok ? 1 : 0;
    matched += sample.matched ? 1 : 0;
    latencies.push_back(sample.latency_ms);
  }
  // Latency per operation type: the geometric mean of the per-template
  // medians. The pooled median of the mix falls between template modes.
  double log_sum = 0;
  for (const std::vector<double>& template_latencies :
       LatenciesByTemplate(samples)) {
    log_sum += std::log(Percentile(template_latencies, 0.5));
  }
  const double p90 = Percentile(latencies, 0.9);
  const auto beyond_p90 = std::count_if(latencies.begin(), latencies.end(),
                                        [p90](double v) { return v > p90; });
  if (beyond_p90 < 10) {
    std::fprintf(stderr, "only %td samples beyond p90; need 10\n", beyond_p90);
  }
  return {
      {"setup_s", Percentile(setup_seconds, 0.5), "s", setup_seconds.size()},
      {"throughput_qps",
       static_cast<double>(completed) / measurement.makespan_s, "1/s", n},
      {"latency_p50_ms", std::exp(log_sum / kTemplates), "ms",
       n / kTemplates},
      {"latency_p90_ms", p90, "ms", n},
      {"cpu_ms_per_query",
       measurement.cpu_seconds * 1e3 / static_cast<double>(n), "ms", n},
      {"peak_rss_mb", 0, "MB", 1},
      {"success_rate", static_cast<double>(matched) / static_cast<double>(n),
       "ratio", n},
  };
}

std::vector<Metric> Bench::LayerMetrics(Instance& instance,
                                         const Measurement& measurement) {
  EngineContext& ctx = *instance.ctx;
  const std::vector<Sample>& samples = measurement.samples;
  const Counters& before = measurement.before;
  const Counters& after = measurement.after;
  const size_t n = samples.size();
  const double queries = static_cast<double>(n);
  std::vector<Metric> metrics;
  auto add = [&metrics](std::string name, double value, std::string unit,
                        size_t count) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), count});
  };
  auto delta = [](auto after_value, auto before_value) {
    return static_cast<double>(after_value - before_value);
  };

  // Spans: set-up phases (median over the set-ups) and per-query steps
  // (mean self time over the measured queries).
  const auto setup =
      spans_.Totals([](const Span& span) { return span.query == 0; });
  const uint64_t first = measurement.first_query;
  const auto steps = spans_.Totals(
      [first](const Span& span) { return span.query >= first; });
  auto add_setup_phase = [&](const char* metric, const char* span) {
    const auto it = setup.find(span);
    std::vector<double> seconds;
    if (it != setup.end()) {
      for (int64_t ns : it->second.self_samples_ns) {
        seconds.push_back(static_cast<double>(ns) / 1e9);
      }
    }
    add(metric, Percentile(seconds, 0.5), "s", seconds.size());
  };
  auto add_step = [&](const char* metric, const char* span, double ns_per_unit,
                      const char* unit) {
    const auto it = steps.find(span);
    const int64_t count = it == steps.end() ? 0 : it->second.count;
    add(metric,
        count == 0 ? 0.0
                   : static_cast<double>(it->second.self_ns) / ns_per_unit /
                         static_cast<double>(count),
        unit, static_cast<size_t>(count));
  };

  add_setup_phase("ssb.generate_s", "ssb.generate");
  add_setup_phase("cache.placement_job_s", "cache.placement_job");

  // Counters ResetRunStats() zeroed before the measured phase.
  const DataCacheStats cache = ctx.cache().stats();
  const double accesses = static_cast<double>(cache.hits + cache.misses);
  add("cache.hit_ratio", Ratio(static_cast<double>(cache.hits), accesses, 1.0),
      "ratio", cache.hits + cache.misses);
  add("cache.misses_per_query", static_cast<double>(cache.misses) / queries,
      "count", n);
  add("cache.evictions_per_query",
      static_cast<double>(cache.evictions) / queries, "count", n);

  add("sim.modeled_ms_per_query",
      delta(after.charged_micros, before.charged_micros) / 1e3 / queries,
      "model_ms", n);
  double gpu_kernel_model_ms = 0;
  for (const Sample& sample : samples) {
    gpu_kernel_model_ms += sample.gpu_kernel_model_ms;
  }
  add("sim.device_busy_ratio",
      gpu_kernel_model_ms * workload_.time_scale / 1e3 /
          measurement.makespan_s,
      "ratio", n);
  PcieBus& bus = ctx.simulator().bus();
  constexpr auto kH2d = TransferDirection::kHostToDevice;
  constexpr auto kD2h = TransferDirection::kDeviceToHost;
  add("sim.h2d_mb_per_query",
      static_cast<double>(bus.transferred_bytes(kH2d)) / kMB / queries, "MB",
      n);
  add("sim.d2h_mb_per_query",
      static_cast<double>(bus.transferred_bytes(kD2h)) / kMB / queries, "MB",
      n);
  add("sim.pcie_ms_per_query",
      static_cast<double>(bus.transfer_micros(kH2d) +
                          bus.transfer_micros(kD2h)) /
          1e3 / queries,
      "model_ms", n);
  DeviceAllocator& heap = ctx.simulator().device_heap();
  add("sim.heap_failed_allocs_per_query",
      static_cast<double>(heap.failed_allocations()) / queries, "count", n);
  add("sim.heap_peak_mb", static_cast<double>(heap.peak_used()) / kMB, "MB",
      n);

  Telemetry& telemetry = ctx.telemetry();
  const double gpu_ops = static_cast<double>(telemetry.gpu_operators());
  const double cpu_ops = static_cast<double>(telemetry.cpu_operators());
  const double aborts = static_cast<double>(telemetry.gpu_operator_aborts());
  add("placement.device_operator_share",
      Ratio(gpu_ops, gpu_ops + cpu_ops, 0.0), "ratio",
      static_cast<size_t>(gpu_ops + cpu_ops));

  std::vector<double> queue_wait, run;
  for (const Sample& sample : samples) {
    queue_wait.push_back(sample.queue_wait_ms);
    run.push_back(sample.run_ms);
  }
  add("engine.queue_wait_ms_per_query", Mean(queue_wait), "ms", n);
  add("engine.queue_wait_max_ms", Percentile(queue_wait, 1.0), "ms", n);
  add("engine.run_ms_per_query", Mean(run), "ms", n);
  add_step("engine.optimize_us", "engine.optimize", 1e3, "us");
  add("engine.aborts_per_query", aborts / queries, "count", n);
  add("engine.wasted_ms_per_query",
      static_cast<double>(telemetry.wasted_micros()) / 1e3 / queries, "ms", n);
  add("engine.device_success_ratio", Ratio(gpu_ops, gpu_ops + aborts, 1.0),
      "ratio", static_cast<size_t>(gpu_ops + aborts));

  double kernel_ms[kKernelCount];
  double kernel_total_ms = 0;
  for (int k = 0; k < kKernelCount; ++k) {
    kernel_ms[k] = delta(after.kernel_latency_us[k],
                         before.kernel_latency_us[k]) /
                   1e3 / queries;
    kernel_total_ms += kernel_ms[k];
  }
  add("operators.kernel_ms_per_query", kernel_total_ms, "ms", n);
  for (int k = 0; k < kKernelCount; ++k) {
    add(std::string("operators.") + kKernels[k] + "_ms", kernel_ms[k], "ms",
        n);
  }
  const double loops = delta(after.dop_count, before.dop_count);
  add("operators.mean_dop",
      Ratio(delta(after.dop_sum, before.dop_sum), loops, 0.0), "workers",
      static_cast<size_t>(loops));

  add_step("telemetry.make_stats_us", "telemetry.make_stats", 1e3, "us");
  add_step("sql.plan_us", "sql.plan", 1e3, "us");
  add_step("server.execute_ms", "server.execute", 1e6, "ms");
  add("server.shed_ratio",
      Ratio(delta(after.shed, before.shed),
            delta(after.offered, before.offered), 0.0),
      "ratio", after.offered - before.offered);
  add("server.hedges", delta(after.hedges, before.hedges), "count", n);
  add("fault.breaker_trips", delta(after.breaker_trips, before.breaker_trips),
      "count", n);
  add("fault.brownout_transitions",
      delta(after.brownout_transitions, before.brownout_transitions), "count",
      n);
  add("fault.watchdog_fires",
      delta(after.watchdog_fires, before.watchdog_fires), "count", n);
  return metrics;
}

void Bench::PrintProvenance(const Measurement& measurement) const {
  std::printf(
      "provenance {\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"nproc\":%ld,\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"scale_factor\":%g,\"time_scale\":%g,\"strategy\":\"%s\","
      "\"sessions\":%d,\"measured_queries\":%zu,\"makespan_s\":%.3f,"
      "\"setups\":%d,\"trace\":%d,\"steal_share\":%.4f}\n",
      workload_.name, args_.seed, sysconf(_SC_NPROCESSORS_ONLN),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, workload_.scale_factor,
      workload_.time_scale, StrategyToString(workload_.strategy),
      workload_.clients, measurement.samples.size(), measurement.makespan_s,
      kSetups, args_.trace ? 1 : 0, measurement.steal_share);
}

void Bench::PrintLatencyTable(const Measurement& measurement) const {
  const std::vector<std::vector<double>> by_template =
      LatenciesByTemplate(measurement.samples);
  std::printf("# %-6s %6s %12s %12s %12s\n", "query", "n", "p50_ms", "p90_ms",
              "max_ms");
  for (int tmpl = 0; tmpl < kTemplates; ++tmpl) {
    const std::vector<double>& latencies =
        by_template[static_cast<size_t>(tmpl)];
    std::printf("# %-6s %6zu %12.3f %12.3f %12.3f\n",
                queries_[tmpl].name.c_str(), latencies.size(),
                Percentile(latencies, 0.5), Percentile(latencies, 0.9),
                Percentile(latencies, 1.0));
  }
}

void Bench::PrintSpanReport(uint64_t first_measured_query) const {
  auto print = [](const char* title,
                  const std::map<std::string, SpanTotals>& totals) {
    std::printf("# %s\n# %-24s %8s %12s %12s %14s\n", title, "span", "count",
                "total_ms", "self_ms", "self_us_mean");
    for (const auto& [name, entry] : totals) {
      std::printf("# %-24s %8" PRId64 " %12.3f %12.3f %14.3f\n", name.c_str(),
                  entry.count, static_cast<double>(entry.total_ns) / 1e6,
                  static_cast<double>(entry.self_ns) / 1e6,
                  static_cast<double>(entry.self_ns) / 1e3 /
                      static_cast<double>(entry.count));
    }
  };
  print("set-up spans (all set-ups, warm-up queries included)",
        spans_.Totals([first_measured_query](const Span& span) {
          return span.query < first_measured_query;
        }));
  print("measured query spans",
        spans_.Totals([first_measured_query](const Span& span) {
          return span.query >= first_measured_query;
        }));
}

int Bench::Run() {
  // Set-up, several times; the reference comes from the first set-up's data
  // and is not part of any set-up time.
  std::vector<double> setup_seconds;
  std::unique_ptr<Instance> instance;
  bool reference_ok = false;
  for (int round = 0; round < kSetups; ++round) {
    // One engine's data in memory at a time, and its freed pages handed
    // back, so peak_rss_mb sees one set-up rather than heap left over from
    // the earlier ones.
    instance.reset();
    malloc_trim(0);
    double seconds = 0;
    instance = Setup(&seconds);
    if (instance == nullptr) {
      std::fprintf(stderr, "set-up failed: a warm-up query failed\n");
      return 1;
    }
    setup_seconds.push_back(seconds);
    if (round == 0) reference_ok = ComputeReference(instance->db);
  }

  const Measurement measurement = Measure(*instance);
  std::vector<Metric> metrics = EndToEndMetrics(measurement, setup_seconds);
  std::vector<Metric> layer;
  if (args_.trace) layer = LayerMetrics(*instance, measurement);
  instance.reset();
  metrics[5].value = PeakRssMb();  // at exit: every set-up and query seen

  PrintProvenance(measurement);
  PrintLatencyTable(measurement);
  PrintMetrics(metrics);
  if (args_.trace) {
    PrintMetrics(layer);
    PrintSpanReport(measurement.first_query);
    if (!args_.trace_out.empty() &&
        !spans_.WriteChromeTrace(args_.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", args_.trace_out.c_str());
    }
  }
  const size_t attempted = measurement.samples.size();
  const size_t failed = static_cast<size_t>(std::count_if(
      measurement.samples.begin(), measurement.samples.end(),
      [](const Sample& sample) { return !sample.matched; }));
  std::printf("%s\n", FormatResult(reference_ok && failed == 0, attempted,
                                   failed, args_.trace ? layer : metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace hetdb::perfbench

int main(int argc, char** argv) {
  using namespace hetdb::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ssb_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  for (const Workload& workload : kWorkloads) {
    if (args.workload == workload.name) return Bench(workload, args).Run();
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
