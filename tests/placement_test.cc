#include <gtest/gtest.h>

#include "engine/pipeline_builder.h"
#include "operators/fused_pipeline.h"
#include "placement/compile_time.h"
#include "placement/runtime.h"
#include "placement/strategy_runner.h"
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

}  // namespace
}  // namespace hetdb
