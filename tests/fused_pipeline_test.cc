// Tests for operator fusion (DESIGN.md §11): the FusePipelines plan rewrite
// and the FusedPipeline kernel. The core invariant mirrors the parallel
// kernel suite — fusion substitutes *execution shape*, never results: every
// fused plan must produce byte-identical output to the unfused plan, across
// strategies, worker counts, and adversarial inputs. Also checks the fusion
// win itself: strictly lower simulated device-heap high-water for a fused
// SSB query.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "engine/pipeline_builder.h"
#include "operators/fused_pipeline.h"
#include "placement/strategy_runner.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "tests/test_util.h"

namespace hetdb {
namespace {

/// TestConfig() with pipeline fusion set.
SystemConfig FusionConfig(bool fusion) {
  SystemConfig config = TestConfig();
  config.fusion = fusion;
  return config;
}

// ---------------------------------------------------------------------------
// Plan helpers
// ---------------------------------------------------------------------------

size_t CountFusedNodes(const PlanNodePtr& root) {
  size_t count = 0;
  VisitPlanPostOrder(root, [&count](const PlanNodePtr& node) {
    if (node->op() == PlanOp::kFusedPipeline) ++count;
  });
  return count;
}

/// Runs `plan` under the given strategy twice — in a fusion-off context,
/// then in a fusion-on one — and asserts byte-identical results. Returns
/// the fused result.
TablePtr ExpectFusionParity(const DatabasePtr& db, const PlanNodePtr& plan,
                            Strategy strategy, int threads,
                            size_t morsel_rows = 256) {
  DopScope scope(threads, morsel_rows);
  TablePtr results[2];
  for (const bool fusion : {false, true}) {
    EngineContext ctx(FusionConfig(fusion), db);
    StrategyRunner runner(&ctx, strategy);
    Result<TablePtr> result = runner.RunQuery(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return nullptr;
    results[fusion] = result.value();
  }
  ExpectBitIdenticalTables(results[false], results[true]);
  return results[true];
}

/// The status of running `plan` under CPU Only in a context with `fusion`.
Status CpuOnlyStatus(const DatabasePtr& db, const PlanNodePtr& plan,
                     bool fusion) {
  DopScope scope(2, 256);
  EngineContext ctx(FusionConfig(fusion), db);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  return runner.RunQuery(plan).status();
}

class FusedPipelineTest : public ::testing::Test {
 protected:
  /// MakeTinyDb() plus a string column `tag` ("t0".."t2") on the fact table.
  void SetUp() override {
    db_ = MakeTinyDb();
    TablePtr fact = db_->GetTable("fact").value();
    auto tag = StringColumn::FromDictionary("tag", {"t0", "t1", "t2"});
    for (size_t i = 0; i < fact->num_rows(); ++i) {
      tag->AppendCode(static_cast<int32_t>(i % 3));
    }
    ASSERT_TRUE(fact->AddColumn(std::move(tag)).ok());
  }

  PlanNodePtr ScanFact(std::vector<std::string> columns = {"fk", "v"}) {
    return std::make_shared<ScanNode>(db_->GetTable("fact").value(),
                                      std::move(columns));
  }

  PlanNodePtr ScanDim() {
    return std::make_shared<ScanNode>(db_->GetTable("dim").value(),
                                      std::vector<std::string>{"key", "name"});
  }

  /// select(lo < v < hi) -> join dim -> sum(v), count(*) by name.
  PlanNodePtr StarPlan(int64_t lo = 10, int64_t hi = 60) {
    PlanNodePtr select = std::make_shared<SelectNode>(
        ScanFact(), ConjunctiveFilter::And({Predicate::Gt("v", lo),
                                            Predicate::Lt("v", hi)}));
    JoinOutputSpec spec;
    spec.build_columns = {"name"};
    spec.probe_columns = {"v"};
    PlanNodePtr join = std::make_shared<JoinNode>(
        ScanDim(), std::move(select), "key", "fk", spec);
    return std::make_shared<AggregateNode>(
        std::move(join), std::vector<std::string>{"name"},
        std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "total"},
                                   {AggregateFn::kCount, "", "n"}});
  }

  DatabasePtr db_;
};

// ---------------------------------------------------------------------------
// Rewrite structure
// ---------------------------------------------------------------------------

TEST_F(FusedPipelineTest, RewriteFusesFilterProbeAggregateChain) {
  PlanNodePtr plan = StarPlan();
  PlanNodePtr fused = FusePipelines(plan);
  ASSERT_EQ(fused->op(), PlanOp::kFusedPipeline);
  const auto& node = static_cast<const FusedPipelineNode&>(*fused);
  ASSERT_EQ(node.members().size(), 3u);  // select, join, aggregate bottom-up
  EXPECT_EQ(node.members()[0]->op(), PlanOp::kSelect);
  EXPECT_EQ(node.members()[1]->op(), PlanOp::kJoin);
  EXPECT_EQ(node.members()[2]->op(), PlanOp::kAggregate);
  EXPECT_EQ(node.num_joins(), 1u);
  // Children: fact scan (source) + dim scan (build).
  ASSERT_EQ(fused->children().size(), 2u);
  EXPECT_EQ(fused->children()[0]->op(), PlanOp::kScan);
  EXPECT_EQ(fused->children()[1]->op(), PlanOp::kScan);
}

TEST_F(FusedPipelineTest, RewriteIsIdempotent) {
  PlanNodePtr once = FusePipelines(StarPlan());
  PlanNodePtr twice = FusePipelines(once);
  EXPECT_EQ(once, twice);  // same node, not a re-wrapped copy
}

TEST_F(FusedPipelineTest, SortBreaksThePipeline) {
  PlanNodePtr sorted = std::make_shared<SortNode>(
      StarPlan(), std::vector<SortKey>{{"name", true}});
  PlanNodePtr fused = FusePipelines(sorted);
  ASSERT_EQ(fused->op(), PlanOp::kSort);
  EXPECT_EQ(fused->children()[0]->op(), PlanOp::kFusedPipeline);
  EXPECT_EQ(CountFusedNodes(fused), 1u);
}

TEST_F(FusedPipelineTest, SingleOperatorChainsAreNotFused) {
  // select -> scan alone is left as-is (fusing one member buys nothing).
  PlanNodePtr select = std::make_shared<SelectNode>(
      ScanFact(), ConjunctiveFilter::And({Predicate::Lt("v", int64_t{50})}));
  EXPECT_EQ(CountFusedNodes(FusePipelines(select)), 0u);
}

TEST_F(FusedPipelineTest, MidChainAggregateBreaksThePipeline) {
  // aggregate below a select is a pipeline breaker: the select chain above
  // it must not swallow the aggregate.
  PlanNodePtr agg = std::make_shared<AggregateNode>(
      std::make_shared<SelectNode>(
          ScanFact(),
          ConjunctiveFilter::And({Predicate::Lt("v", int64_t{90})})),
      std::vector<std::string>{"fk"},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "total"}});
  PlanNodePtr select_above = std::make_shared<SelectNode>(
      agg, ConjunctiveFilter::And({Predicate::Gt("total", int64_t{0})}));
  PlanNodePtr fused = FusePipelines(select_above);
  // The top select alone is not a chain; the bottom select+aggregate is.
  ASSERT_EQ(fused->op(), PlanOp::kSelect);
  EXPECT_EQ(fused->children()[0]->op(), PlanOp::kFusedPipeline);
}

TEST_F(FusedPipelineTest, BuildSidesAreRewrittenRecursively) {
  // A fusable select chain on the *build* side must fuse independently.
  PlanNodePtr build = std::make_shared<SelectNode>(
      std::make_shared<SelectNode>(
          ScanDim(),
          ConjunctiveFilter::And({Predicate::Gt("key", int64_t{2})})),
      ConjunctiveFilter::And({Predicate::Lt("key", int64_t{9})}));
  JoinOutputSpec spec;
  spec.build_columns = {"name"};
  spec.probe_columns = {"v"};
  PlanNodePtr join = std::make_shared<JoinNode>(
      build, ScanFact(), "key", "fk", spec);
  PlanNodePtr fused = FusePipelines(join);
  // join->scan(probe) is itself a 1-member "chain" — too short; but the join
  // with its probe scan forms a 1-join chain of size 1... the join alone
  // does not fuse (size < 2), so the root stays a join with a fused build.
  ASSERT_EQ(fused->op(), PlanOp::kJoin);
  EXPECT_EQ(fused->children()[0]->op(), PlanOp::kFusedPipeline);
}

// ---------------------------------------------------------------------------
// Parity: fused vs unfused, across strategies / DoP
// ---------------------------------------------------------------------------

TEST_F(FusedPipelineTest, StarQueryParityAcrossDop) {
  for (int threads : ThreadCounts()) {
    ExpectFusionParity(db_, StarPlan(), Strategy::kCpuOnly, threads);
    ExpectFusionParity(db_, StarPlan(), Strategy::kDataDrivenChopping,
                       threads);
  }
}

TEST_F(FusedPipelineTest, FilterOnlyChainParity) {
  // select -> select -> scan, no join, no aggregate: materializing terminal.
  PlanNodePtr plan = std::make_shared<SelectNode>(
      std::make_shared<SelectNode>(
          ScanFact(),
          ConjunctiveFilter::And({Predicate::Gt("v", int64_t{20})})),
      ConjunctiveFilter::And({Predicate::Lt("v", int64_t{70})}));
  ASSERT_EQ(CountFusedNodes(FusePipelines(plan)), 1u);
  TablePtr fused = ExpectFusionParity(db_, plan, Strategy::kCpuOnly, 2);
  ASSERT_NE(fused, nullptr);
  EXPECT_GT(fused->num_rows(), 0u);
}

TEST_F(FusedPipelineTest, AllPassAndAllFailPredicates) {
  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {-1, 1000},  // all pass
           {500, 400},  // all fail -> empty pipeline output
       }) {
    PlanNodePtr plan = StarPlan(lo, hi);
    for (int threads : {1, 7}) {
      TablePtr fused =
          ExpectFusionParity(db_, plan, Strategy::kCpuOnly, threads);
      ASSERT_NE(fused, nullptr);
      if (lo > hi) {
        EXPECT_EQ(fused->num_rows(), 0u);
      }
    }
  }
}

TEST_F(FusedPipelineTest, EmptySourceTable) {
  auto db = std::make_shared<Database>();
  auto fact = std::make_shared<Table>("fact");
  ASSERT_TRUE(fact->AddColumn(std::make_shared<Int32Column>(
                                  "fk", std::vector<int32_t>{}))
                  .ok());
  ASSERT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("v", std::vector<int32_t>{}))
          .ok());
  ASSERT_TRUE(db->AddTable(fact).ok());
  auto dim = std::make_shared<Table>("dim");
  ASSERT_TRUE(dim->AddColumn(std::make_shared<Int32Column>(
                                 "key", std::vector<int32_t>{1, 2}))
                  .ok());
  auto name = StringColumn::FromDictionary("name", {"a", "b"});
  name->AppendCode(0);
  name->AppendCode(1);
  ASSERT_TRUE(dim->AddColumn(std::move(name)).ok());
  ASSERT_TRUE(db->AddTable(dim).ok());

  PlanNodePtr select = std::make_shared<SelectNode>(
      std::make_shared<ScanNode>(db->GetTable("fact").value(),
                                 std::vector<std::string>{"fk", "v"}),
      ConjunctiveFilter::And({Predicate::Lt("v", int64_t{50})}));
  JoinOutputSpec spec;
  spec.build_columns = {"name"};
  spec.probe_columns = {"v"};
  PlanNodePtr join = std::make_shared<JoinNode>(
      std::make_shared<ScanNode>(db->GetTable("dim").value(),
                                 std::vector<std::string>{"key", "name"}),
      std::move(select), "key", "fk", spec);
  TablePtr fused = ExpectFusionParity(db, join, Strategy::kCpuOnly, 2);
  ASSERT_NE(fused, nullptr);
  EXPECT_EQ(fused->num_rows(), 0u);
}

TEST_F(FusedPipelineTest, ZeroRowGlobalAggregateReturnsOneRow) {
  // Every predicate fails, so the global aggregates see zero rows: with and
  // without a join, each returns one row of zeros, fused and unfused.
  auto none_pass = [this] {
    return std::make_shared<SelectNode>(
        ScanFact(), ConjunctiveFilter::And({Predicate::Gt("v", int64_t{500}),
                                            Predicate::Lt("v", int64_t{400})}));
  };
  const std::vector<AggregateSpec> aggregates = {
      {AggregateFn::kSum, "v", "sum_v"}, {AggregateFn::kMin, "v", "min_v"},
      {AggregateFn::kMax, "v", "max_v"}, {AggregateFn::kAvg, "v", "avg_v"},
      {AggregateFn::kCount, "", "n"}};
  JoinOutputSpec spec;
  spec.probe_columns = {"v"};
  const PlanNodePtr plans[] = {
      std::make_shared<AggregateNode>(none_pass(), std::vector<std::string>{},
                                      aggregates),
      std::make_shared<AggregateNode>(
          std::make_shared<JoinNode>(ScanDim(), none_pass(), "key", "fk",
                                     spec),
          std::vector<std::string>{}, aggregates)};
  for (const PlanNodePtr& plan : plans) {
    ASSERT_EQ(CountFusedNodes(FusePipelines(plan)), 1u);
    for (int threads : ThreadCounts()) {
      TablePtr fused =
          ExpectFusionParity(db_, plan, Strategy::kCpuOnly, threads);
      ASSERT_NE(fused, nullptr);
      ASSERT_EQ(fused->num_rows(), 1u) << "threads=" << threads;
      for (const ColumnPtr& column : fused->columns()) {
        if (column->type() == DataType::kDouble) {
          EXPECT_EQ(ColumnCast<DoubleColumn>(*column).value(0), 0.0)
              << column->name();
        } else {
          EXPECT_EQ(ColumnCast<Int64Column>(*column).value(0), 0)
              << column->name();
        }
      }
    }
  }
}

TEST_F(FusedPipelineTest, JoinThatOutputsNoColumnKeepsItsRowCount) {
  // COUNT(*) over a join reads none of its columns: the fused and the
  // unfused join both carry the match count in a table without columns.
  PlanNodePtr join = std::make_shared<JoinNode>(
      ScanDim(),
      std::make_shared<SelectNode>(
          ScanFact(), ConjunctiveFilter::And({Predicate::Lt("v", int64_t{60})})),
      "key", "fk", JoinOutputSpec{});
  ASSERT_EQ(CountFusedNodes(FusePipelines(join)), 1u);
  TablePtr fused = ExpectFusionParity(db_, join, Strategy::kCpuOnly, 2);
  ASSERT_NE(fused, nullptr);
  EXPECT_EQ(fused->num_columns(), 0u);
  EXPECT_GT(fused->num_rows(), 0u);
}

/// fact(fk, v, a, b): 500 rows probing keys (i % 20) * `stride`, with two
/// int64 columns spanning the full int64 range. dim(key, weight): build
/// keys 3,3,4,5,5,5,6,7 (times `stride`), so probe hits fan out and keys
/// 0..2 and 8..19 miss, plus `filler` rows whose keys no probe has.
DatabasePtr MakeDuplicateKeyDb(int32_t stride, int32_t filler) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto db = std::make_shared<Database>();
  auto fact = std::make_shared<Table>("fact");
  std::vector<int32_t> fk, v;
  std::vector<int64_t> a, b;
  for (int i = 0; i < 500; ++i) {
    fk.push_back(i % 20 * stride);
    v.push_back(i % 13);
    a.push_back(std::vector<int64_t>{kMin, 0, kMax}[i % 3]);
    b.push_back(std::vector<int64_t>{kMax, -1, kMin, 7}[i % 4]);
  }
  EXPECT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("fk", std::move(fk))).ok());
  EXPECT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("v", std::move(v))).ok());
  EXPECT_TRUE(
      fact->AddColumn(std::make_shared<Int64Column>("a", std::move(a))).ok());
  EXPECT_TRUE(
      fact->AddColumn(std::make_shared<Int64Column>("b", std::move(b))).ok());
  EXPECT_TRUE(db->AddTable(fact).ok());
  auto dim = std::make_shared<Table>("dim");
  std::vector<int32_t> key{3, 3, 4, 5, 5, 5, 6, 7};
  std::vector<int32_t> weight{1, 2, 3, 4, 5, 6, 7, 8};
  for (int32_t& k : key) k *= stride;
  for (int32_t j = 0; j < filler; ++j) {
    key.push_back((20 + j) * stride);
    weight.push_back(j % 9);
  }
  EXPECT_TRUE(
      dim->AddColumn(std::make_shared<Int32Column>("key", std::move(key))).ok());
  EXPECT_TRUE(dim->AddColumn(std::make_shared<Int32Column>("weight",
                                                           std::move(weight)))
                  .ok());
  EXPECT_TRUE(db->AddTable(dim).ok());
  return db;
}

TEST_F(FusedPipelineTest, NoMatchProbesAndDuplicateBuildKeys) {
  // Dense build keys take the direct-address join table. Sparse ones (a
  // key range far above 8x the 2008 build rows) take the radix-partitioned
  // build, with 8 partitions at the 256-row test morsel.
  struct BuildSide {
    int32_t stride;
    int32_t filler;
  };
  for (const BuildSide side : {BuildSide{1, 0}, BuildSide{100'003, 2'000}}) {
    SCOPED_TRACE("stride=" + std::to_string(side.stride));
    DatabasePtr db = MakeDuplicateKeyDb(side.stride, side.filler);
    // Group by the probe key (5 groups: probe keys 3..7 survive), and by
    // two full-range int64 columns: a 128-bit composite key that no group
    // table packs, so both paths take their byte-string group keys.
    for (const auto& [group_by, groups] :
         std::vector<std::pair<std::vector<std::string>, size_t>>{
             {{"fk"}, 5}, {{"a", "b"}, 12}}) {
      PlanNodePtr select = std::make_shared<SelectNode>(
          std::make_shared<ScanNode>(
              db->GetTable("fact").value(),
              std::vector<std::string>{"fk", "v", "a", "b"}),
          ConjunctiveFilter::And({Predicate::Gt("v", int64_t{1})}));
      JoinOutputSpec spec;
      spec.build_columns = {"weight"};
      spec.build_aliases = {"w"};
      spec.probe_columns = {"v", "fk", "a", "b"};
      PlanNodePtr join = std::make_shared<JoinNode>(
          std::make_shared<ScanNode>(db->GetTable("dim").value(),
                                     std::vector<std::string>{"key", "weight"}),
          std::move(select), "key", "fk", spec);
      PlanNodePtr agg = std::make_shared<AggregateNode>(
          std::move(join), group_by,
          std::vector<AggregateSpec>{{AggregateFn::kSum, "w", "wsum"},
                                     {AggregateFn::kMax, "v", "vmax"}});
      for (int threads : ThreadCounts()) {
        TablePtr fused =
            ExpectFusionParity(db, agg, Strategy::kCpuOnly, threads);
        ASSERT_NE(fused, nullptr);
        EXPECT_EQ(fused->num_rows(), groups);
      }
    }
  }
}

TEST_F(FusedPipelineTest, FullWidthKeyThenConstantGroupColumn) {
  // The int64 key spans all 64 bits, so the constant int32 column after it
  // must add no bit field (a field there would need a 64-bit shift).
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto db = std::make_shared<Database>();
  auto table = std::make_shared<Table>("t");
  std::vector<int64_t> wide;
  std::vector<int32_t> one, v;
  for (int i = 0; i < 1000; ++i) {
    wide.push_back(std::vector<int64_t>{kMin, 0, kMax}[i % 3]);
    one.push_back(1);
    v.push_back(i % 13);
  }
  ASSERT_TRUE(
      table->AddColumn(std::make_shared<Int64Column>("wide", std::move(wide)))
          .ok());
  ASSERT_TRUE(
      table->AddColumn(std::make_shared<Int32Column>("one", std::move(one)))
          .ok());
  ASSERT_TRUE(
      table->AddColumn(std::make_shared<Int32Column>("v", std::move(v))).ok());
  ASSERT_TRUE(db->AddTable(table).ok());
  PlanNodePtr agg = std::make_shared<AggregateNode>(
      std::make_shared<SelectNode>(
          std::make_shared<ScanNode>(
              db->GetTable("t").value(),
              std::vector<std::string>{"wide", "one", "v"}),
          ConjunctiveFilter::And({Predicate::Gt("v", int64_t{1})})),
      std::vector<std::string>{"wide", "one"},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "total"},
                                 {AggregateFn::kCount, "", "n"}});
  ASSERT_EQ(CountFusedNodes(FusePipelines(agg)), 1u);
  for (int threads : ThreadCounts()) {
    TablePtr fused = ExpectFusionParity(db, agg, Strategy::kCpuOnly, threads);
    ASSERT_NE(fused, nullptr);
    EXPECT_EQ(fused->num_rows(), 3u);
  }
}

TEST_F(FusedPipelineTest, ProjectWithComputedColumnsParity) {
  // select -> project(computed) -> aggregate over the computed column.
  PlanNodePtr select = std::make_shared<SelectNode>(
      ScanFact(), ConjunctiveFilter::And({Predicate::Lt("v", int64_t{80})}));
  PlanNodePtr project = std::make_shared<ProjectNode>(
      std::move(select), std::vector<std::string>{"fk"},
      std::vector<ArithmeticExpr>{ArithmeticExpr::ColumnOp(
          "vw", ArithmeticExpr::Op::kMul, "v", "fk")});
  PlanNodePtr agg = std::make_shared<AggregateNode>(
      std::move(project), std::vector<std::string>{"fk"},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "vw", "total"}});
  ASSERT_EQ(CountFusedNodes(FusePipelines(agg)), 1u);
  for (int threads : {1, 2, 7}) {
    ExpectFusionParity(db_, agg, Strategy::kCpuOnly, threads);
  }
}

TEST_F(FusedPipelineTest, SsbQueriesParityAllStrategies) {
  SsbGeneratorOptions options;
  options.scale_factor = 0.2;
  static DatabasePtr ssb = GenerateSsbDatabase(options);
  for (const NamedQuery& query : SsbQueries()) {
    Result<PlanNodePtr> plan = query.builder(*ssb);
    ASSERT_TRUE(plan.ok()) << query.name;
    for (Strategy strategy : {Strategy::kCpuOnly, Strategy::kGpuOnly,
                              Strategy::kDataDrivenChopping}) {
      ExpectFusionParity(ssb, plan.value(), strategy, 2,
                         /*morsel_rows=*/4096);
    }
  }
}

// ---------------------------------------------------------------------------
// The fusion win: lower simulated device-heap footprint
// ---------------------------------------------------------------------------

// Q1.1 is the clear footprint win: a filter->project->aggregate chain over
// the fact table with no join builds, so the fused pipeline allocates no
// intermediates at all. (Multi-join queries trade differently: fusion keeps
// every build table resident at once but drops the per-member
// intermediates — see the fig16 fusion-ablation table.)
TEST_F(FusedPipelineTest, FusedSsbQueryHasStrictlyLowerHeapHighWater) {
  SsbGeneratorOptions options;
  options.scale_factor = 0.2;
  DatabasePtr ssb = GenerateSsbDatabase(options);
  Result<NamedQuery> query = SsbQueryByName("Q1.1");
  ASSERT_TRUE(query.ok());

  auto run = [&](bool fusion) -> int64_t {
    DopScope scope(2, 4096);
    EngineContext ctx(FusionConfig(fusion), ssb);
    StrategyRunner runner(&ctx, Strategy::kGpuOnly);
    Result<PlanNodePtr> plan = query->builder(*ssb);
    EXPECT_TRUE(plan.ok());
    QueryStatsPtr stats = std::make_shared<QueryStats>();
    Result<TablePtr> result = runner.RunQuery(plan.value(), stats);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return stats->heap_high_water();
  };

  const int64_t unfused = run(false);
  const int64_t fused = run(true);
  EXPECT_GT(unfused, 0);
  EXPECT_GT(fused, 0);
  EXPECT_LT(fused, unfused)
      << "fused heap high-water must be strictly lower";
}

TEST_F(FusedPipelineTest, FusedNodeChargesOnlyBuildTables) {
  PlanNodePtr fused = FusePipelines(StarPlan());
  ASSERT_EQ(fused->op(), PlanOp::kFusedPipeline);
  TablePtr fact = db_->GetTable("fact").value();
  TablePtr dim = db_->GetTable("dim").value();
  // The fused node charges 2x the build input bytes — and nothing for the
  // (much larger) source input.
  const size_t bytes = fused->IntermediateDeviceBytes({fact, dim});
  EXPECT_EQ(bytes, 2 * dim->data_bytes());
  // The unfused select alone would charge input + input/4 on fact.
  PlanNodePtr select = std::make_shared<SelectNode>(
      ScanFact(), ConjunctiveFilter::And({Predicate::Lt("v", int64_t{50})}));
  EXPECT_GT(select->IntermediateDeviceBytes({fact}), bytes);
}

// ---------------------------------------------------------------------------
// Stats attribution and EXPLAIN integration
// ---------------------------------------------------------------------------

TEST_F(FusedPipelineTest, StatsRegisteredAgainstFusedPlanAreAttributed) {
  DopScope scope(2, 256);
  EngineContext ctx(FusionConfig(true), db_);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  PlanNodePtr fused = FusePipelines(StarPlan());
  QueryStatsPtr stats = MakeQueryStats(fused);
  ASSERT_TRUE(runner.RunQuery(fused, stats).ok());
  NodeStats* node = stats->Find(fused.get());
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->op, "fused_pipeline");
  EXPECT_GE(node->rows_in.load(), 0);
  EXPECT_GE(node->rows_out.load(), 0);
}

TEST_F(FusedPipelineTest, StatsOnUnfusedPlanDisableAdoption) {
  // Caller registered stats against the raw plan: the runner must keep the
  // unfused plan rather than orphan the attribution.
  DopScope scope(2, 256);
  EngineContext ctx(FusionConfig(true), db_);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  PlanNodePtr plan = StarPlan();
  QueryStatsPtr stats = MakeQueryStats(plan);
  ASSERT_TRUE(runner.RunQuery(plan, stats).ok());
  NodeStats* root = stats->Find(plan.get());
  ASSERT_NE(root, nullptr);
  EXPECT_GE(root->rows_out.load(), 0);  // the raw plan actually ran
}

TEST_F(FusedPipelineTest, FusionIsPerContextUnderConcurrency) {
  // Two contexts over one database, fusion off in one and on in the other,
  // run the same plan at the same time: each follows its own setting.
  DopScope scope(2, 256);
  const PlanNodePtr plan = StarPlan();
  struct Runs {
    std::vector<TablePtr> results;
    size_t fused_nodes = 0;  // summed over every run's QueryStats
  };
  auto run = [&plan](EngineContext* ctx, Runs* runs) {
    StrategyRunner runner(ctx, Strategy::kDataDrivenChopping);
    for (int i = 0; i < 20; ++i) {
      auto stats = std::make_shared<QueryStats>();
      Result<TablePtr> result = runner.RunQuery(plan, stats);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      runs->results.push_back(result.ok() ? result.value() : nullptr);
      for (const auto& node : stats->nodes()) {
        if (node->op == "fused_pipeline") ++runs->fused_nodes;
      }
    }
  };
  EngineContext unfused_ctx(FusionConfig(false), db_);
  EngineContext fused_ctx(FusionConfig(true), db_);
  Runs unfused, fused;
  std::thread unfused_thread(run, &unfused_ctx, &unfused);
  std::thread fused_thread(run, &fused_ctx, &fused);
  unfused_thread.join();
  fused_thread.join();

  EXPECT_EQ(unfused.fused_nodes, 0u);
  EXPECT_EQ(fused.fused_nodes, fused.results.size());
  ASSERT_EQ(unfused.results.size(), fused.results.size());
  for (size_t i = 0; i < fused.results.size(); ++i) {
    ExpectBitIdenticalTables(unfused.results[i], fused.results[i]);
  }
}

TEST_F(FusedPipelineTest, StaticValidationDeclinesUnknownColumns) {
  // A select on a column the scan does not provide: the rewrite must leave
  // the chain unfused, and both paths report the same error.
  PlanNodePtr bad_select = std::make_shared<SelectNode>(
      ScanFact({"fk", "v"}),
      ConjunctiveFilter::And({Predicate::Lt("missing", int64_t{5})}));
  PlanNodePtr agg = std::make_shared<AggregateNode>(
      bad_select, std::vector<std::string>{"fk"},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "total"}});
  EXPECT_EQ(CountFusedNodes(FusePipelines(agg)), 0u);
  const Status unfused_status = CpuOnlyStatus(db_, agg, /*fusion=*/false);
  const Status fused_status = CpuOnlyStatus(db_, agg, /*fusion=*/true);
  EXPECT_FALSE(unfused_status.ok());
  EXPECT_FALSE(fused_status.ok());
  EXPECT_EQ(unfused_status.code(), fused_status.code());
}

TEST_F(FusedPipelineTest, SourceShapesAKernelRejectsStayUnfused) {
  // Two chains a kernel rejects with InvalidArgument for the source's
  // column types: a filter comparing a string column with a number
  // (CompileCnf), and a join probed with a string column (HashJoin). The
  // rewrite asks the fused binder, which binds against the scan's real
  // columns, so neither fuses; fused or not, the query reports the error.
  PlanNodePtr string_filter = std::make_shared<AggregateNode>(
      std::make_shared<SelectNode>(
          ScanFact({"fk", "v", "tag"}),
          ConjunctiveFilter::And({Predicate::Lt("tag", int64_t{5})})),
      std::vector<std::string>{"fk"},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "total"}});
  JoinOutputSpec spec;
  spec.build_columns = {"name"};
  spec.probe_columns = {"v"};
  PlanNodePtr string_probe = std::make_shared<JoinNode>(
      ScanDim(),
      std::make_shared<SelectNode>(
          ScanFact({"fk", "v", "tag"}),
          ConjunctiveFilter::And({Predicate::Lt("v", int64_t{50})})),
      "key", "tag", spec);
  for (const PlanNodePtr& plan : {string_filter, string_probe}) {
    EXPECT_EQ(CountFusedNodes(FusePipelines(plan)), 0u);
    for (const bool fusion : {false, true}) {
      const Status status = CpuOnlyStatus(db_, plan, fusion);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    }
  }
}

TEST_F(FusedPipelineTest, RuntimeReplayPreservesQueryErrors) {
  // The build child's columns are unknowable statically, so a join whose
  // output spec names a column missing from the build table *does* fuse —
  // runtime binding then declines, and the member-replay fallback must
  // surface the exact error the unfused join kernel reports.
  JoinOutputSpec spec;
  spec.build_columns = {"no_such_column"};
  spec.probe_columns = {"v"};
  PlanNodePtr join = std::make_shared<JoinNode>(
      ScanDim(),
      std::make_shared<SelectNode>(
          ScanFact(),
          ConjunctiveFilter::And({Predicate::Lt("v", int64_t{50})})),
      "key", "fk", spec);
  PlanNodePtr fused_plan = FusePipelines(join);
  ASSERT_EQ(CountFusedNodes(fused_plan), 1u);  // fuses, replays at runtime
  const Status unfused_status = CpuOnlyStatus(db_, join, /*fusion=*/false);
  const Status fused_status = CpuOnlyStatus(db_, join, /*fusion=*/true);
  EXPECT_FALSE(unfused_status.ok());
  EXPECT_FALSE(fused_status.ok());
  EXPECT_EQ(unfused_status.code(), fused_status.code());
}

}  // namespace
}  // namespace hetdb
