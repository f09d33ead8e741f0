#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <thread>

#include "engine/pipeline_builder.h"
#include "operators/fused_pipeline.h"
#include "placement/compile_time.h"
#include "placement/pipeline_cache.h"
#include "placement/runtime.h"
#include "placement/strategy_runner.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "tests/test_util.h"

namespace hetdb {
namespace {

class PlacementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTinyDb();
    ctx_ = std::make_unique<EngineContext>(TestConfig(), db_);
  }

  PlanNodePtr SimplePlan() {
    PlanNodePtr scan = std::make_shared<ScanNode>(
        db_->GetTable("fact").value(), std::vector<std::string>{"fk", "v"});
    PlanNodePtr select = std::make_shared<SelectNode>(
        std::move(scan),
        ConjunctiveFilter::And({Predicate::Lt("v", int64_t{50})}));
    PlanNodePtr dim_scan = std::make_shared<ScanNode>(
        db_->GetTable("dim").value(), std::vector<std::string>{"key", "name"});
    JoinOutputSpec spec;
    spec.build_columns = {"name"};
    spec.probe_columns = {"v"};
    return std::make_shared<JoinNode>(std::move(dim_scan), std::move(select),
                                      "key", "fk", spec);
  }

  /// SimplePlan, under a sum and count by dim name when `aggregate`. Fused,
  /// either is one pipeline over the fact scan with the dim scan as its
  /// build side.
  PlanNodePtr StarPlan(bool aggregate) {
    PlanNodePtr plan = SimplePlan();
    if (!aggregate) return plan;
    return std::make_shared<AggregateNode>(
        std::move(plan), std::vector<std::string>{"name"},
        std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "total"},
                                   {AggregateFn::kCount, "", "n"}});
  }

  void PinAllColumns(EngineContext& ctx) {
    for (const TablePtr& table : db_->tables()) {
      for (const ColumnPtr& column : table->columns()) {
        ASSERT_TRUE(
            ctx.cache().Pin(column, table->QualifiedName(column->name())).ok());
      }
    }
  }

  TablePtr Fact() { return db_->GetTable("fact").value(); }  // 8000 bytes
  TablePtr Dim() { return db_->GetTable("dim").value(); }    // 100 bytes

  /// DeviceFootprint of `node` over child results holding `tables`, all on
  /// `where`.
  size_t Footprint(const PlanNode& node, const std::vector<TablePtr>& tables,
                   ProcessorKind where, EngineContext& ctx) {
    std::vector<OperatorResult> results(tables.size());
    std::vector<OperatorResult*> inputs;
    for (size_t i = 0; i < tables.size(); ++i) {
      results[i].table = tables[i];
      results[i].location = where;
      inputs.push_back(&results[i]);
    }
    return DeviceFootprint(node, inputs, ctx);
  }
  size_t OnDevice(const PlanNode& node, const std::vector<TablePtr>& tables) {
    return Footprint(node, tables, ProcessorKind::kGpu, *ctx_);
  }

  DatabasePtr db_;
  std::unique_ptr<EngineContext> ctx_;
};

TEST_F(PlacementTest, CpuOnlyAndGpuOnlyCoverAllNodes) {
  PlanNodePtr plan = SimplePlan();
  const size_t nodes = CountPlanNodes(plan);
  PlacementMap cpu = PlaceCpuOnly(plan);
  PlacementMap gpu = PlaceGpuOnly(plan);
  EXPECT_EQ(cpu.size(), nodes);
  EXPECT_EQ(gpu.size(), nodes);
  for (const auto& [node, kind] : cpu) EXPECT_EQ(kind, ProcessorKind::kCpu);
  for (const auto& [node, kind] : gpu) EXPECT_EQ(kind, ProcessorKind::kGpu);
}

TEST_F(PlacementTest, DataDrivenFollowsCacheContents) {
  PlanNodePtr plan = SimplePlan();
  // Nothing cached: everything on the CPU.
  PlacementMap cold = PlaceDataDriven(plan, *ctx_);
  for (const auto& [node, kind] : cold) EXPECT_EQ(kind, ProcessorKind::kCpu);

  // Cache all base columns: the whole chain moves to the device.
  for (const TablePtr& table : db_->tables()) {
    for (const ColumnPtr& column : table->columns()) {
      ASSERT_TRUE(
          ctx_->cache().Pin(column, table->QualifiedName(column->name())).ok());
    }
  }
  PlacementMap hot = PlaceDataDriven(plan, *ctx_);
  for (const auto& [node, kind] : hot) EXPECT_EQ(kind, ProcessorKind::kGpu);
}

TEST_F(PlacementTest, DataDrivenStopsChainAtUncachedInput) {
  PlanNodePtr plan = SimplePlan();
  // Cache only the dim table: the dim scan runs on the device, but the join
  // (whose fact-side child is on the CPU) and everything above stay on CPU.
  TablePtr dim = db_->GetTable("dim").value();
  for (const ColumnPtr& column : dim->columns()) {
    ASSERT_TRUE(
        ctx_->cache().Pin(column, dim->QualifiedName(column->name())).ok());
  }
  PlacementMap placement = PlaceDataDriven(plan, *ctx_);
  const PlanNode* join = plan.get();
  const PlanNode* dim_scan = plan->children()[0].get();
  const PlanNode* select = plan->children()[1].get();
  EXPECT_EQ(placement[dim_scan], ProcessorKind::kGpu);
  EXPECT_EQ(placement[select], ProcessorKind::kCpu);
  EXPECT_EQ(placement[join], ProcessorKind::kCpu);
}

TEST_F(PlacementTest, CriticalPathUsesDeviceWhenCheaper) {
  // Warm the cache so device execution needs no transfers; the estimator
  // should then move at least the leaves to the device.
  for (const TablePtr& table : db_->tables()) {
    for (const ColumnPtr& column : table->columns()) {
      ASSERT_TRUE(
          ctx_->cache().Pin(column, table->QualifiedName(column->name())).ok());
    }
  }
  PlanNodePtr plan = SimplePlan();
  PlacementMap placement = PlaceCriticalPath(plan, *ctx_);
  int gpu_nodes = 0;
  for (const auto& [node, kind] : placement) {
    if (kind == ProcessorKind::kGpu) ++gpu_nodes;
  }
  EXPECT_GT(gpu_nodes, 0);
}

TEST_F(PlacementTest, CriticalPathChainRule) {
  PlanNodePtr plan = SimplePlan();
  PlacementMap placement = PlaceCriticalPath(plan, *ctx_);
  // Invariant: a non-leaf node is on the device only if all children are.
  VisitPlanPostOrder(plan, [&](const PlanNodePtr& node) {
    if (node->children().empty()) return;
    if (placement[node.get()] == ProcessorKind::kGpu) {
      for (const PlanNodePtr& child : node->children()) {
        EXPECT_EQ(placement[child.get()], ProcessorKind::kGpu);
      }
    }
  });
}

TEST_F(PlacementTest, EstimatorPrefersCheaperPlans) {
  PlanNodePtr plan = SimplePlan();
  const double cpu_cost =
      EstimatePlanResponseMicros(plan, PlaceCpuOnly(plan), *ctx_);
  EXPECT_GT(cpu_cost, 0);
  // Critical path never produces a plan estimated worse than pure CPU.
  PlacementMap best = PlaceCriticalPath(plan, *ctx_);
  EXPECT_LE(EstimatePlanResponseMicros(plan, best, *ctx_), cpu_cost);
}

TEST_F(PlacementTest, HypePlacerRespectsHeapCapacity) {
  SystemConfig config = TestConfig();
  config.device_memory_bytes = 3 << 10;  // 3 KB device
  config.device_cache_bytes = 1 << 10;
  EngineContext tiny_ctx(config, db_);
  PlanNodePtr scan = std::make_shared<ScanNode>(
      db_->GetTable("fact").value(), std::vector<std::string>{"fk", "v"});
  RuntimePlacer placer = MakeHypePlacer();
  // 8 KB of input can never fit the 2 KB heap: CPU, no matter the costs.
  EXPECT_EQ(placer(*scan, {}, tiny_ctx), ProcessorKind::kCpu);
}

/// A device scan of cached columns takes cache leases and allocates no heap,
/// so a heap smaller than the scan's columns does not keep it off the device.
TEST_F(PlacementTest, BothPlacersRunFullyCachedScanOnDeviceOverSmallHeap) {
  SystemConfig config = TestConfig();
  config.device_cache_bytes = 64 << 10;
  config.device_memory_bytes = config.device_cache_bytes + (1 << 10);
  EngineContext small_heap(config, db_);
  PinAllColumns(small_heap);
  PlanNodePtr scan = std::make_shared<ScanNode>(
      Fact(), std::vector<std::string>{"fk", "v"});
  ASSERT_GT(scan->InputBytes({}),
            small_heap.simulator().device_heap().capacity());
  EXPECT_EQ(DeviceFootprint(*scan, {}, small_heap), 0u);
  EXPECT_EQ(MakeHypePlacer()(*scan, {}, small_heap), ProcessorKind::kGpu);
  EXPECT_EQ(MakeDataDrivenPlacer()(*scan, {}, small_heap), ProcessorKind::kGpu);
}

/// A fused pipeline streams its source: it costs its build tables and its
/// result bound (an aggregate's groups), however large the source is.
TEST_F(PlacementTest, AggregatePipelineFitsOnDeviceByItsBuildsAndGroups) {
  PlanNodePtr fused = FusePipelines(StarPlan(/*aggregate=*/true));
  ASSERT_EQ(fused->op(), PlanOp::kFusedPipeline);
  for (const size_t heap : {size_t{4} << 10, size_t{150}}) {
    SystemConfig config = TestConfig();
    config.device_memory_bytes = config.device_cache_bytes + heap;
    EngineContext ctx(config, db_);
    ASSERT_GT(Fact()->data_bytes(), heap);
    std::vector<OperatorResult> results(2);
    results[0].table = Fact();
    results[1].table = Dim();
    for (OperatorResult& result : results) {
      result.location = ProcessorKind::kGpu;
      result.base_data = true;
    }
    const std::vector<OperatorResult*> inputs = {&results[0], &results[1]};
    // 4 KiB holds the 200-byte build table and the ten groups; 150 bytes
    // cannot hold the build table alone.
    const ProcessorKind expected =
        heap > 1000 ? ProcessorKind::kGpu : ProcessorKind::kCpu;
    EXPECT_EQ(MakeDataDrivenPlacer()(*fused, inputs, ctx), expected) << heap;
    EXPECT_EQ(MakeHypePlacer()(*fused, inputs, ctx), expected) << heap;
  }
}

// One DeviceFootprint case per node kind over the tiny database: fact(fk,
// v) is 1000 rows of two int32 columns (8000 bytes, fk = 1..10 with 100
// rows each, v = 0..96); dim(key, name) is 10 rows, 40 bytes of keys plus 40
// bytes of name codes and a 20-byte dictionary.

TEST_F(PlacementTest, FootprintOfScanIsItsUncachedColumns) {
  PlanNodePtr scan = std::make_shared<ScanNode>(
      Fact(), std::vector<std::string>{"fk", "v"});
  EXPECT_EQ(DeviceFootprint(*scan, {}, *ctx_), 8000u);
  ASSERT_TRUE(ctx_->cache().Pin(Fact()->GetColumn("v").value(), "fact.v").ok());
  EXPECT_EQ(DeviceFootprint(*scan, {}, *ctx_), 4000u);
  ASSERT_TRUE(
      ctx_->cache().Pin(Fact()->GetColumn("fk").value(), "fact.fk").ok());
  EXPECT_EQ(DeviceFootprint(*scan, {}, *ctx_), 0u);
}

TEST_F(PlacementTest, FootprintOfSelectIsThreeAndAQuarterInputs) {
  SelectNode select(nullptr,
                    ConjunctiveFilter::And({Predicate::Lt("v", int64_t{50})}));
  // Input 8000 + flags and prefix sums 10000 + at most every row 8000.
  EXPECT_EQ(Footprint(select, {Fact()}, ProcessorKind::kCpu, *ctx_), 26000u);
  EXPECT_EQ(OnDevice(select, {Fact()}), 18000u);
}

TEST_F(PlacementTest, FootprintOfJoinBoundsMatchesByBuildKeyMultiplicity) {
  JoinOutputSpec spec;
  spec.build_columns = {"name"};
  spec.probe_columns = {"v"};
  JoinNode unique_keys(nullptr, nullptr, "key", "fk", spec);
  // Hash table 2 x 100; 1000 matches of name (4000 + 20) and v (4000).
  EXPECT_EQ(OnDevice(unique_keys, {Dim(), Fact()}), 200u + 8020u);
  // Build on fact.fk: each dim row matches 100 fact rows.
  JoinOutputSpec swapped;
  swapped.build_columns = {"v"};
  swapped.probe_columns = {"name"};
  JoinNode repeated_keys(nullptr, nullptr, "fk", "key", swapped);
  EXPECT_EQ(OnDevice(repeated_keys, {Fact(), Dim()}), 16000u + 8020u);
}

TEST_F(PlacementTest, FootprintOfAggregateIsItsGroups) {
  const std::vector<AggregateSpec> aggregates = {
      {AggregateFn::kSum, "v", "total"}, {AggregateFn::kCount, "", "n"}};
  // Group table 4000; 10 fk groups x (4 + 2 x 8) bytes.
  EXPECT_EQ(OnDevice(AggregateNode(nullptr, {"fk"}, aggregates), {Fact()}),
            4000u + 200u);
  // 97 values of v; no group-by column is one group of two aggregates.
  EXPECT_EQ(OnDevice(AggregateNode(nullptr, {"v"}, aggregates), {Fact()}),
            4000u + 97u * 20u);
  EXPECT_EQ(OnDevice(AggregateNode(nullptr, {}, aggregates), {Fact()}),
            4000u + 16u);
}

TEST_F(PlacementTest, FootprintOfSortProjectAndLimit) {
  // Index array and double buffer 8000, every row 8000.
  EXPECT_EQ(OnDevice(SortNode(nullptr, {{"v", true}}), {Fact()}), 16000u);
  // The kept fk column (4000) and one 8-byte computed column per row.
  const ArithmeticExpr doubled =
      ArithmeticExpr::ConstantOp("v2", ArithmeticExpr::Op::kMul, "v", 2);
  EXPECT_EQ(OnDevice(ProjectNode(nullptr, {"fk"}, {doubled}), {Fact()}),
            12000u);
  EXPECT_EQ(OnDevice(LimitNode(nullptr, 10), {Fact()}), 80u);
  EXPECT_EQ(OnDevice(LimitNode(nullptr, 5000), {Fact()}), 8000u);
}

TEST_F(PlacementTest, FootprintOfFusedPipelineIgnoresItsSource) {
  PlanNodePtr with_aggregate = FusePipelines(StarPlan(/*aggregate=*/true));
  PlanNodePtr without = FusePipelines(StarPlan(/*aggregate=*/false));
  ASSERT_EQ(with_aggregate->op(), PlanOp::kFusedPipeline);
  ASSERT_EQ(without->op(), PlanOp::kFusedPipeline);
  // Build table 2 x 100; ten name groups x (4 + 2 x 8) + the dictionary.
  EXPECT_EQ(OnDevice(*with_aggregate, {Fact(), Dim()}), 200u + 220u);
  // Build table 200; up to 1000 matches of name (4020) and v (4000).
  EXPECT_EQ(OnDevice(*without, {Fact(), Dim()}), 200u + 8020u);
  // A host-resident source is transferred in: phase 1 charges it.
  EXPECT_EQ(Footprint(*with_aggregate, {Fact(), Dim()}, ProcessorKind::kCpu,
                      *ctx_),
            8100u + 420u);
}

TEST_F(PlacementTest, CriticalPathChargesAnUncachedScanItsCacheEntries) {
  // Bit-packed cache entries are what crosses the bus, so the estimator
  // charges those bytes, as the run-time placers do.
  SystemConfig config = TestConfig();
  config.compress_device_cache = true;
  EngineContext ctx(config, db_);
  PlanNodePtr scan = std::make_shared<ScanNode>(
      Fact(), std::vector<std::string>{"fk", "v"});
  size_t entry_bytes = 0;
  for (const ColumnPtr& column : Fact()->columns()) {
    entry_bytes += ctx.cache().EntryBytes(*column);
  }
  ASSERT_LT(entry_bytes, Fact()->data_bytes());
  EXPECT_DOUBLE_EQ(
      EstimatePlanResponseMicros(scan, {{scan.get(), ProcessorKind::kGpu}},
                                 ctx),
      ctx.simulator().EstimateTransferMicros(entry_bytes));
}

TEST_F(PlacementTest, StrategyRunnerExecutesAllStrategies) {
  TablePtr expected;
  for (Strategy strategy : kAllStrategies) {
    EngineContext ctx(TestConfig(), db_);
    StrategyRunner runner(&ctx, strategy);
    runner.RefreshDataPlacement();
    auto result = runner.RunQuery(SimplePlan());
    ASSERT_TRUE(result.ok()) << StrategyToString(strategy);
    if (expected == nullptr) {
      expected = result.value();
    } else {
      EXPECT_TRUE(TablesEqual(*expected, *result.value()))
          << StrategyToString(strategy);
    }
  }
}

TEST_F(PlacementTest, StrategyMetadataIsConsistent) {
  for (Strategy strategy : kAllStrategies) {
    EXPECT_STRNE(StrategyToString(strategy), "unknown");
  }
}

TEST_F(PlacementTest, RefreshDataPlacementFillsCache) {
  StrategyRunner runner(ctx_.get(), Strategy::kDataDriven);
  // Simulate workload access: bump fact columns.
  TablePtr fact = db_->GetTable("fact").value();
  for (const ColumnPtr& column : fact->columns()) {
    for (int i = 0; i < 5; ++i) column->RecordAccess();
  }
  runner.RefreshDataPlacement();
  EXPECT_TRUE(ctx_->cache().IsCached("fact.fk"));
  EXPECT_TRUE(ctx_->cache().IsCached("fact.v"));
}

TEST_F(PlacementTest, ConcurrentQueriesRecordEveryPipelineRun) {
  StrategyRunner runner(ctx_.get(), Strategy::kDataDrivenChopping);
  constexpr int kThreads = 8;
  constexpr int kRunsPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRunsPerThread; ++r) {
        EXPECT_TRUE(runner.RunQuery(SimplePlan()).ok());
      }
    });
  }
  // The job reads the demand table while the queries write it.
  for (int i = 0; i < 5; ++i) runner.RefreshDataPlacement();
  for (std::thread& thread : threads) thread.join();

  const std::vector<PipelineDemand> demands = ctx_->PipelineDemands();
  ASSERT_EQ(demands.size(), 1u);  // the fused select -> join over fact
  EXPECT_EQ(demands[0].keys, (std::vector<std::string>{
                                 "dim.key", "dim.name", "fact.fk", "fact.v"}));
  EXPECT_EQ(demands[0].runs, uint64_t{kThreads * kRunsPerThread});
  EXPECT_GT(demands[0].run_value_micros, 0);
}

TEST_F(PlacementTest, OnlyDataDrivenRunnersRecordPipelines) {
  for (Strategy strategy : kAllStrategies) {
    EngineContext ctx(TestConfig(), db_);
    StrategyRunner runner(&ctx, strategy);
    ASSERT_TRUE(runner.RunQuery(SimplePlan()).ok());
    const bool data_driven = strategy == Strategy::kDataDriven ||
                             strategy == Strategy::kDataDrivenChopping;
    EXPECT_EQ(ctx.PipelineDemands().empty(), !data_driven)
        << StrategyToString(strategy);
  }
}

TEST_F(PlacementTest, PaperModeRecordsNoPipeline) {
  SystemConfig config = TestConfig();
  config.paper_mode = true;
  EngineContext ctx(config, db_);
  StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);
  ASSERT_TRUE(runner.RunQuery(SimplePlan()).ok());
  EXPECT_TRUE(ctx.PipelineDemands().empty());
  EXPECT_TRUE(runner.RefreshDataPlacement().completed.empty());
}

// --- The placement job's pipeline objective on ssb_spill's machine -------

/// ssb_spill's data cache: 24 MiB of a 40 MiB device.
constexpr size_t kSpillCacheBytes = 24ull << 20;

/// Qualified cache key of an SSB column from its prefix ("lo_revenue" ->
/// "lineorder.lo_revenue").
std::string SsbKey(const std::string& column) {
  static const std::map<std::string, std::string> kTables = {
      {"lo", "lineorder"}, {"p", "part"},   {"s", "supplier"},
      {"c", "customer"},   {"d", "date"}};
  return kTables.at(column.substr(0, column.find('_'))) + "." + column;
}

/// The base columns each SSB template's fused pipeline reads.
std::map<std::string, std::vector<std::string>> SsbPipelines() {
  const std::pair<const char*, const char*> kPipelines[] = {
      {"Q1.1", "d_datekey d_year lo_discount lo_extendedprice lo_orderdate "
               "lo_quantity"},
      {"Q1.2", "d_datekey d_yearmonthnum lo_discount lo_extendedprice "
               "lo_orderdate lo_quantity"},
      {"Q1.3", "d_datekey d_weeknuminyear d_year lo_discount "
               "lo_extendedprice lo_orderdate lo_quantity"},
      {"Q2.1", "d_datekey d_year lo_orderdate lo_partkey lo_revenue "
               "lo_suppkey p_brand1 p_category p_partkey s_region s_suppkey"},
      {"Q2.2", "d_datekey d_year lo_orderdate lo_partkey lo_revenue "
               "lo_suppkey p_brand1 p_partkey s_region s_suppkey"},
      {"Q2.3", "d_datekey d_year lo_orderdate lo_partkey lo_revenue "
               "lo_suppkey p_brand1 p_partkey s_region s_suppkey"},
      {"Q3.1", "c_custkey c_nation c_region d_datekey d_year lo_custkey "
               "lo_orderdate lo_revenue lo_suppkey s_nation s_region "
               "s_suppkey"},
      {"Q3.2", "c_city c_custkey c_nation d_datekey d_year lo_custkey "
               "lo_orderdate lo_revenue lo_suppkey s_city s_nation s_suppkey"},
      {"Q3.3", "c_city c_custkey d_datekey d_year lo_custkey lo_orderdate "
               "lo_revenue lo_suppkey s_city s_suppkey"},
      {"Q3.4", "c_city c_custkey d_datekey d_year d_yearmonth lo_custkey "
               "lo_orderdate lo_revenue lo_suppkey s_city s_suppkey"},
      {"Q4.1", "c_custkey c_nation c_region d_datekey d_year lo_custkey "
               "lo_orderdate lo_partkey lo_revenue lo_suppkey lo_supplycost "
               "p_mfgr p_partkey s_region s_suppkey"},
      {"Q4.2", "c_custkey c_region d_datekey d_year lo_custkey lo_orderdate "
               "lo_partkey lo_revenue lo_suppkey lo_supplycost p_category "
               "p_mfgr p_partkey s_nation s_region s_suppkey"},
      {"Q4.3", "c_custkey c_region d_datekey d_year lo_custkey lo_orderdate "
               "lo_partkey lo_revenue lo_suppkey lo_supplycost p_brand1 "
               "p_category p_partkey s_city s_nation s_suppkey"},
  };
  std::map<std::string, std::vector<std::string>> pipelines;
  for (const auto& [name, columns] : kPipelines) {
    std::istringstream words(columns);
    std::vector<std::string>& keys = pipelines[name];
    for (std::string column; words >> column;) keys.push_back(SsbKey(column));
    std::sort(keys.begin(), keys.end());
  }
  return pipelines;
}

/// The templates whose pipeline reads only `cached` keys.
std::vector<std::string> CompletedTemplates(
    const std::vector<std::string>& cached) {
  std::vector<std::string> sorted = cached;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::string> names;
  for (const auto& [name, keys] : SsbPipelines()) {
    if (std::includes(sorted.begin(), sorted.end(), keys.begin(),
                      keys.end())) {
      names.push_back(name);
    }
  }
  return names;
}

/// ssb_spill's columns at SF 20 (bytes to the nearest 4 below), in database
/// order, each read once by every template whose pipeline reads it, and the
/// pipelines as EngineContext::RecordPipelineRun keeps them: one demand per
/// key set, so Q2.2 and Q2.3, which read the same columns, are one demand of
/// two runs. A run is worth its bytes: the modeled value of a join is
/// linear in the bytes it reads, and every SSB pipeline is a join.
class SpillFixture {
 public:
  SpillFixture() {
    const std::pair<const char*, size_t> kColumns[] = {
        {"lo_custkey", 4800000},     {"lo_partkey", 4800000},
        {"lo_suppkey", 4800000},     {"lo_orderdate", 4800000},
        {"lo_quantity", 4800000},    {"lo_extendedprice", 4800000},
        {"lo_discount", 4800000},    {"lo_revenue", 4800000},
        {"lo_supplycost", 4800000},  {"p_partkey", 40000},
        {"p_mfgr", 40030},           {"p_category", 40175},
        {"p_brand1", 48775},         {"s_suppkey", 80000},
        {"s_city", 82500},           {"s_nation", 80177},
        {"s_region", 80034},         {"c_custkey", 240000},
        {"c_city", 242500},          {"c_nation", 240177},
        {"c_region", 240034},        {"d_datekey", 10228},
        {"d_year", 10228},           {"d_yearmonthnum", 10228},
        {"d_weeknuminyear", 10228},  {"d_yearmonth", 10816},
    };
    for (const auto& [name, bytes] : kColumns) {
      ColumnPtr column = std::make_shared<Int32Column>(
          name, std::vector<int32_t>(bytes / sizeof(int32_t), 1));
      candidates_.emplace_back(SsbKey(name), column);
      homes_[SsbKey(name)] = {column->data_bytes(), 0};
    }
    std::map<std::vector<std::string>, PipelineDemand> by_keys;
    for (const auto& [name, keys] : SsbPipelines()) {
      PipelineDemand& demand = by_keys[keys];
      if (demand.runs++ == 0) {
        demand.keys = keys;
        for (const std::string& key : keys) {
          demand.run_value_micros +=
              static_cast<double>(homes_.at(key).bytes);
        }
      }
      for (const std::string& key : keys) Column(key)->RecordAccess();
    }
    for (auto& [keys, demand] : by_keys) demands_.push_back(std::move(demand));
  }

  const ColumnPtr& Column(const std::string& key) const {
    return std::find_if(candidates_.begin(), candidates_.end(),
                        [&](const auto& kv) { return kv.first == key; })
        ->second;
  }

  std::vector<std::pair<std::string, ColumnPtr>> candidates_;
  std::map<std::string, CacheColumn> homes_;
  std::vector<PipelineDemand> demands_;
};

TEST(PipelineCacheTest, GreedyCompletesFiveSsbSpillPipelines) {
  SpillFixture spill;
  SystemConfig config;
  config.simulate_time = false;
  Simulator simulator(config);

  // Algorithm 1 caches the five most read lineorder columns, and the
  // dimension columns it can then afford complete only Q2.x.
  DataCache cache(kSpillCacheBytes, EvictionPolicy::kLfu, &simulator);
  cache.RunPlacementJob(spill.candidates_);
  EXPECT_EQ(CompletedTemplates(cache.CachedKeys()),
            (std::vector<std::string>{"Q2.1", "Q2.2", "Q2.3"}));

  // Q2.2/Q2.3 ran twice, so their value per byte leads; Q2.1 then costs
  // only p_category. With lo_custkey and a few customer, supplier and date
  // columns Q3.3 and Q3.4 complete too, and Q3.2 no longer fits.
  const PipelineChoice best =
      ChoosePipelines(spill.demands_, spill.homes_, {kSpillCacheBytes});
  const std::vector<std::string> five = {"Q2.1", "Q2.2", "Q2.3", "Q3.3",
                                         "Q3.4"};
  EXPECT_EQ(CompletedTemplates(best.keys), five);
  EXPECT_EQ(best.completed.size(), 4u);  // Q2.2 and Q2.3 are one demand
  size_t chosen_bytes = 0;
  for (const std::string& key : best.keys) {
    chosen_bytes += spill.homes_.at(key).bytes;
  }
  EXPECT_LE(chosen_bytes, kSpillCacheBytes);

  // The job caches the choice first, so all five stay complete after
  // Algorithm 1 fills the rest of the budget.
  cache.RunPlacementJob(spill.candidates_, best.keys);
  EXPECT_EQ(CompletedTemplates(cache.CachedKeys()), five);
  EXPECT_LE(cache.used_bytes(), kSpillCacheBytes);
}

TEST(PipelineCacheTest, EachDeviceKeepsItsChosenBytesWithinItsCache) {
  // Two devices of ssb_spill's size: lineorder homes on device 0, every
  // dimension column on device 1. Device 0 holds five lineorder columns,
  // so Q2.x and Q3.x complete; summed budgets would admit Q1.x and Q4.x.
  SpillFixture spill;
  for (auto& [key, column] : spill.homes_) {
    column.device = key.rfind("lineorder.", 0) == 0 ? 0 : 1;
  }
  const std::vector<size_t> budgets = {kSpillCacheBytes, kSpillCacheBytes};
  const PipelineChoice best =
      ChoosePipelines(spill.demands_, spill.homes_, budgets);
  EXPECT_EQ(CompletedTemplates(best.keys),
            (std::vector<std::string>{"Q2.1", "Q2.2", "Q2.3", "Q3.1", "Q3.2",
                                      "Q3.3", "Q3.4"}));

  SystemConfig config;
  config.simulate_time = false;
  Simulator simulator(config);
  std::vector<std::unique_ptr<DataCache>> caches;
  for (int d = 0; d < 2; ++d) {
    caches.push_back(std::make_unique<DataCache>(
        budgets[static_cast<size_t>(d)], EvictionPolicy::kLfu, &simulator));
    std::vector<std::pair<std::string, ColumnPtr>> shard;
    std::vector<std::string> first;
    size_t chosen_bytes = 0;
    for (const auto& [key, column] : spill.candidates_) {
      if (spill.homes_.at(key).device != d) continue;
      shard.emplace_back(key, column);
      if (std::binary_search(best.keys.begin(), best.keys.end(), key)) {
        first.push_back(key);
        chosen_bytes += spill.homes_.at(key).bytes;
      }
    }
    EXPECT_LE(chosen_bytes, budgets[static_cast<size_t>(d)]) << d;
    caches.back()->RunPlacementJob(shard, first);
    for (const std::string& key : first) {
      EXPECT_TRUE(caches.back()->IsCached(key)) << key;
    }
    EXPECT_LE(caches.back()->used_bytes(), budgets[static_cast<size_t>(d)]);
  }
}

/// ssb_spill's machine with modeled time off: SSB at SF 20, a 40 MiB device
/// and a 24 MiB data cache.
class SsbSpillMachineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SsbGeneratorOptions options;
    options.scale_factor = 20;
    db_ = GenerateSsbDatabase(options);
  }

  SystemConfig SpillConfig() const {
    SystemConfig config;
    config.simulate_time = false;
    config.device_memory_bytes = 40ull << 20;
    config.device_cache_bytes = kSpillCacheBytes;
    return config;
  }

  /// Runs every SSB template once, then the placement job.
  PipelineChoice WarmUpAndPlace(StrategyRunner& runner) {
    for (const NamedQuery& query : SsbQueries()) {
      EXPECT_TRUE(runner.RunQuery(query.builder(*db_).value()).ok())
          << query.name;
    }
    return runner.RefreshDataPlacement();
  }

  /// What Algorithm 1 caches there after that warm-up.
  static std::vector<std::string> AlgorithmOneKeys() {
    std::vector<std::string> keys;
    for (const char* column :
         {"c_custkey", "c_region", "d_datekey", "d_weeknuminyear", "d_year",
          "d_yearmonth", "d_yearmonthnum", "lo_custkey", "lo_orderdate",
          "lo_partkey", "lo_revenue", "lo_suppkey", "p_brand1", "p_category",
          "p_mfgr", "p_partkey", "s_city", "s_nation", "s_region",
          "s_suppkey"}) {
      keys.push_back(SsbKey(column));
    }
    return keys;
  }

  DatabasePtr db_;
};

TEST_F(SsbSpillMachineTest, DataDrivenJobCachesCityInsteadOfRegion) {
  EngineContext ctx(SpillConfig(), db_);
  StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);
  const PipelineChoice choice = WarmUpAndPlace(runner);

  // The warm-up recorded the pipelines the selection fixture assumes.
  std::vector<std::vector<std::string>> recorded, expected;
  for (const PipelineDemand& demand : ctx.PipelineDemands()) {
    recorded.push_back(demand.keys);
  }
  for (const auto& [name, keys] : SsbPipelines()) expected.push_back(keys);
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());  // Q2.2 and Q2.3 read the same columns
  EXPECT_EQ(recorded, expected);

  std::vector<std::string> keys = AlgorithmOneKeys();
  std::replace(keys.begin(), keys.end(), std::string("customer.c_region"),
               std::string("customer.c_city"));
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(ctx.cache().CachedKeys(), keys);
  const std::vector<std::string> on_device = {"Q2.1", "Q2.2", "Q2.3", "Q3.3",
                                              "Q3.4"};
  EXPECT_EQ(CompletedTemplates(choice.keys), on_device);

  EngineContext cpu_ctx(SpillConfig(), db_);
  StrategyRunner cpu(&cpu_ctx, Strategy::kCpuOnly);
  for (const NamedQuery& query : SsbQueries()) {
    const PlanNodePtr plan = runner.Optimize(query.builder(*db_).value());
    const QueryStatsPtr stats = MakeQueryStats(plan);
    Result<TablePtr> result = runner.RunQuery(plan, stats);
    Result<TablePtr> reference = cpu.RunQuery(query.builder(*db_).value());
    ASSERT_TRUE(result.ok() && reference.ok()) << query.name;
    EXPECT_TRUE(TablesEqual(*reference.value(), *result.value()))
        << query.name;
    int fused_on_device = 0;
    for (const auto& node : stats->nodes()) {
      if (node->op == PlanOpToString(PlanOp::kFusedPipeline) &&
          node->ran_on.load() == 1) {
        ++fused_on_device;
      }
    }
    const bool expect_device =
        std::count(on_device.begin(), on_device.end(), query.name) > 0;
    EXPECT_EQ(fused_on_device, expect_device ? 1 : 0) << query.name;
  }
}

TEST_F(SsbSpillMachineTest, OperatorDrivenAndPaperModeJobsRunAlgorithmOne) {
  {
    EngineContext ctx(SpillConfig(), db_);
    StrategyRunner runner(&ctx, Strategy::kGpuOnly);
    EXPECT_TRUE(WarmUpAndPlace(runner).completed.empty());
    EXPECT_EQ(ctx.cache().CachedKeys(), AlgorithmOneKeys());
  }
  SetUp();  // fresh access counters
  SystemConfig paper = SpillConfig();
  paper.paper_mode = true;
  EngineContext ctx(paper, db_);
  StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);
  EXPECT_TRUE(WarmUpAndPlace(runner).completed.empty());
  EXPECT_EQ(ctx.cache().CachedKeys(), AlgorithmOneKeys());
}

}  // namespace
}  // namespace hetdb
