#include <gtest/gtest.h>

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
