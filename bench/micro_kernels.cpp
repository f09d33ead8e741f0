// Google-benchmark microbenchmarks for the compute kernels and substrate
// primitives (real host performance, no simulation). These are not paper
// figures; they characterize the building blocks the simulator wraps.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cache/data_cache.h"
#include "common/config.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "engine/pipeline_builder.h"
#include "operators/kernels.h"
#include "operators/plan_node.h"
#include "sim/simulator.h"
#include "ssb/ssb_generator.h"
#include "telemetry/exporters.h"
#include "telemetry/trace_recorder.h"

namespace hetdb {
namespace {

DatabasePtr BenchDb() {
  static DatabasePtr db = [] {
    SsbGeneratorOptions options;
    options.scale_factor = 2.0;  // 120k lineorder rows
    return GenerateSsbDatabase(options);
  }();
  return db;
}

SystemConfig NoSimConfig() {
  SystemConfig config;
  config.simulate_time = false;
  return config;
}

/// Sets the DopBudget capacity, and so the kernels' worker count, for one
/// benchmark run and restores it afterwards.
class DopGuard {
 public:
  explicit DopGuard(int threads)
      : saved_capacity_(DopBudget::Global().capacity()) {
    DopBudget::Global().SetCapacity(threads);
  }
  ~DopGuard() { DopBudget::Global().SetCapacity(saved_capacity_); }

 private:
  int saved_capacity_;
};

// The Scalar/Parallel pairs below measure the same operation with the
// reference kernel at DoP 1 and with the morsel-parallel kernel;
// scripts/bench_kernels.sh records both and reports the speedup
// Parallel/threads:8 achieves over Scalar (BENCH_kernels.json).

void RunFilterBench(benchmark::State& state,
                    decltype(&EvaluateFilter) kernel) {
  DatabasePtr db = BenchDb();
  TablePtr lineorder = db->GetTable("lineorder").value();
  const ConjunctiveFilter filter = ConjunctiveFilter::And(
      {Predicate::Between("lo_discount", int64_t{4}, int64_t{6}),
       Predicate::Between("lo_quantity", int64_t{26}, int64_t{35})});
  for (auto _ : state) {
    auto rows = kernel(*lineorder, filter);
    benchmark::DoNotOptimize(rows);
  }
  state.SetBytesProcessed(state.iterations() * 2 * 4 *
                          static_cast<int64_t>(lineorder->num_rows()));
}

void BM_FilterScalar(benchmark::State& state) {
  DopGuard guard(1);
  RunFilterBench(state, EvaluateFilterReference);
}
BENCHMARK(BM_FilterScalar);

void BM_FilterParallel(benchmark::State& state) {
  DopGuard guard(static_cast<int>(state.range(0)));
  RunFilterBench(state, EvaluateFilter);
}
BENCHMARK(BM_FilterParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// A dimension joined to lineorder: the build table, its key, the build
/// column the join outputs, and the probe key.
struct DimJoin {
  const char* table;
  const char* key;
  const char* column;
  const char* probe_key;
};

/// s_suppkey is dense (keys 1..rows), so this join takes the direct-address
/// join table.
constexpr DimJoin kSupplierJoin{"supplier", "s_suppkey", "s_nation",
                                "lo_suppkey"};

/// d_datekey (yyyymmdd, 19920101..19981231) spans 61,130 over 2,557 rows,
/// above the direct-address table's max(8192, 8 x rows) limit, so this join
/// takes the radix-partitioned build, as the SSB plans' date joins do.
constexpr DimJoin kDateJoin{"date", "d_datekey", "d_year", "lo_orderdate"};

void RunHashJoinBench(benchmark::State& state, decltype(&HashJoin) kernel,
                      const DimJoin& dim = kSupplierJoin) {
  DatabasePtr db = BenchDb();
  TablePtr lineorder = db->GetTable("lineorder").value();
  TablePtr build = db->GetTable(dim.table).value();
  JoinOutputSpec spec;
  spec.build_columns = {dim.column};
  spec.probe_columns = {"lo_revenue"};
  for (auto _ : state) {
    auto joined =
        kernel(*build, dim.key, *lineorder, dim.probe_key, spec, "j");
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lineorder->num_rows()));
}

void BM_HashJoinScalar(benchmark::State& state) {
  DopGuard guard(1);
  RunHashJoinBench(state, HashJoinReference);
}
BENCHMARK(BM_HashJoinScalar);

void BM_HashJoinParallel(benchmark::State& state) {
  DopGuard guard(static_cast<int>(state.range(0)));
  RunHashJoinBench(state, HashJoin);
}
BENCHMARK(BM_HashJoinParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The BM_Date* variants join on the sparse d_datekey. Their names stay
// outside the CI kernel gate's --benchmark_filter.
void BM_DateJoinParallel(benchmark::State& state) {
  DopGuard guard(static_cast<int>(state.range(0)));
  RunHashJoinBench(state, HashJoin, kDateJoin);
}
BENCHMARK(BM_DateJoinParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void RunAggregateBench(benchmark::State& state,
                       decltype(&Aggregate) kernel) {
  DatabasePtr db = BenchDb();
  TablePtr lineorder = db->GetTable("lineorder").value();
  for (auto _ : state) {
    auto result = kernel(*lineorder, {"lo_discount"},
                         {{AggregateFn::kSum, "lo_revenue", "rev"}}, "a");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lineorder->num_rows()));
}

void BM_AggregateScalar(benchmark::State& state) {
  DopGuard guard(1);
  RunAggregateBench(state, AggregateReference);
}
BENCHMARK(BM_AggregateScalar);

void BM_AggregateParallel(benchmark::State& state) {
  DopGuard guard(static_cast<int>(state.range(0)));
  RunAggregateBench(state, Aggregate);
}
BENCHMARK(BM_AggregateParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- Operator fusion ---------------------------------------------------------
// BM_PipelineUnfused / BM_PipelineFused run the same filter -> join-probe ->
// aggregate chain operator-at-a-time (full intermediate materialization
// after every member) and as one fused pipeline (selection vectors + match
// tuples, zero intermediates). scripts/check_bench.py gates on the
// unfused/fused ratio. A mildly selective filter (~50%) keeps the
// intermediates large, which is the workload fusion is for.

PlanNodePtr PipelinePlan(const DatabasePtr& db, const DimJoin& dim) {
  PlanNodePtr scan = std::make_shared<ScanNode>(
      db->GetTable("lineorder").value(),
      std::vector<std::string>{dim.probe_key, "lo_quantity", "lo_revenue"});
  PlanNodePtr select = std::make_shared<SelectNode>(
      std::move(scan), ConjunctiveFilter::And({Predicate::Between(
                           "lo_quantity", int64_t{14}, int64_t{37})}));
  PlanNodePtr build = std::make_shared<ScanNode>(
      db->GetTable(dim.table).value(),
      std::vector<std::string>{dim.key, dim.column});
  JoinOutputSpec spec;
  spec.build_columns = {dim.column};
  spec.probe_columns = {"lo_revenue"};
  PlanNodePtr join = std::make_shared<JoinNode>(
      std::move(build), std::move(select), dim.key, dim.probe_key, spec);
  return std::make_shared<AggregateNode>(
      std::move(join), std::vector<std::string>{dim.column},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "lo_revenue", "rev"}});
}

/// Operator-at-a-time execution of a plan tree: exactly what the query
/// executor does per node, minus placement/telemetry (kernel time only).
TablePtr ExecutePlanTree(const PlanNodePtr& node) {
  std::vector<TablePtr> inputs;
  inputs.reserve(node->children().size());
  for (const PlanNodePtr& child : node->children()) {
    inputs.push_back(ExecutePlanTree(child));
  }
  auto result = node->ComputeResult(inputs);
  HETDB_CHECK(result.ok());
  return result.value();
}

void RunPipelineBench(benchmark::State& state, bool fusion,
                      const DimJoin& dim = kSupplierJoin) {
  DatabasePtr db = BenchDb();
  PlanNodePtr plan = PipelinePlan(db, dim);
  if (fusion) plan = FusePipelines(plan);
  const size_t rows = db->GetTable("lineorder").value()->num_rows();
  for (auto _ : state) {
    TablePtr result = ExecutePlanTree(plan);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}

void BM_PipelineUnfused(benchmark::State& state) {
  DopGuard guard(static_cast<int>(state.range(0)));
  RunPipelineBench(state, /*fusion=*/false);
}
BENCHMARK(BM_PipelineUnfused)->Arg(1)->Arg(8);

void BM_PipelineFused(benchmark::State& state) {
  DopGuard guard(static_cast<int>(state.range(0)));
  RunPipelineBench(state, /*fusion=*/true);
}
BENCHMARK(BM_PipelineFused)->Arg(1)->Arg(8);

void BM_DatePipelineUnfused(benchmark::State& state) {
  DopGuard guard(static_cast<int>(state.range(0)));
  RunPipelineBench(state, /*fusion=*/false, kDateJoin);
}
BENCHMARK(BM_DatePipelineUnfused)->Arg(1)->Arg(8);

void BM_DatePipelineFused(benchmark::State& state) {
  DopGuard guard(static_cast<int>(state.range(0)));
  RunPipelineBench(state, /*fusion=*/true, kDateJoin);
}
BENCHMARK(BM_DatePipelineFused)->Arg(1)->Arg(8);

void BM_Sort(benchmark::State& state) {
  DatabasePtr db = BenchDb();
  TablePtr customer = db->GetTable("customer").value();
  for (auto _ : state) {
    auto result = Sort(*customer, {{"c_city", true}, {"c_custkey", false}},
                       "s");
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(customer->num_rows()));
}
BENCHMARK(BM_Sort);

void BM_DeviceAllocator(benchmark::State& state) {
  DeviceAllocator allocator(1ull << 30);
  for (auto _ : state) {
    auto a = allocator.Allocate(4096, "x");
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_DeviceAllocator);

void BM_CacheHit(benchmark::State& state) {
  Simulator sim(NoSimConfig());
  DataCache cache(1ull << 20, EvictionPolicy::kLfu, &sim);
  auto column = std::make_shared<Int32Column>(
      "c", std::vector<int32_t>(1024, 1));
  { auto warm = cache.RequireOnDevice(column, "t.c"); }
  for (auto _ : state) {
    auto access = cache.RequireOnDevice(column, "t.c");
    benchmark::DoNotOptimize(access);
  }
}
BENCHMARK(BM_CacheHit);

// --- Telemetry overhead ------------------------------------------------------
// The acceptance bar for the telemetry subsystem: a *disabled* instrumented
// site is one relaxed atomic load — nanoseconds, i.e. <2% on any kernel.

void BM_TraceSiteDisabled(benchmark::State& state) {
  TraceRecorder::Global().SetEnabled(false);
  for (auto _ : state) {
    TraceSpan span;
    if (TraceRecorder::enabled()) {
      span.Begin("bench span", "bench");
    }
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSiteDisabled);

void BM_TraceSiteEnabled(benchmark::State& state) {
  TraceRecorder::Global().SetEnabled(true);
  for (auto _ : state) {
    TraceSpan span;
    if (TraceRecorder::enabled()) {
      span.Begin("bench span", "bench");
    }
    benchmark::DoNotOptimize(&span);
  }
  TraceRecorder::Global().SetEnabled(false);
  TraceRecorder::Global().Clear();
}
BENCHMARK(BM_TraceSiteEnabled);

}  // namespace
}  // namespace hetdb

// Custom main instead of BENCHMARK_MAIN(): peel off --trace-out=FILE (the
// flag every bench binary supports) before google-benchmark rejects it as
// unrecognized.
int main(int argc, char** argv) {
  std::vector<char*> kept;
  std::string trace_out;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else {
      kept.push_back(argv[i]);
    }
  }
  if (!trace_out.empty()) {
    static std::string path = trace_out;
    hetdb::TraceRecorder::Global().SetEnabled(true);
    std::atexit([] {
      const auto events = hetdb::TraceRecorder::Global().Snapshot();
      (void)hetdb::WriteChromeTrace(path, events);
      std::fprintf(stderr, "# wrote %zu trace events to %s\n", events.size(),
                   path.c_str());
    });
  }
  int kept_argc = static_cast<int>(kept.size());
  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
