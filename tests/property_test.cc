// Property-based tests: randomized inputs checked against independent
// scalar reference implementations, parameterized over seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>

#include "common/rng.h"
#include "engine/pipeline_builder.h"
#include "operators/kernels.h"
#include "placement/runtime.h"
#include "placement/strategy_runner.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "tests/test_util.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace hetdb {
namespace {

/// Random table with an int32 key column (small domain, duplicates), an
/// int32 value column, a double column, and a small-domain string column.
TablePtr RandomTable(uint64_t seed, size_t rows) {
  Rng rng(seed);
  auto table = std::make_shared<Table>("t");
  std::vector<int32_t> key(rows), value(rows);
  std::vector<double> weight(rows);
  auto label = StringColumn::FromDictionary(
      "label", {"alpha", "beta", "gamma", "delta"});
  for (size_t i = 0; i < rows; ++i) {
    key[i] = static_cast<int32_t>(rng.Uniform(0, 20));
    value[i] = static_cast<int32_t>(rng.Uniform(-100, 100));
    weight[i] = rng.NextDouble() * 10;
    label->AppendCode(static_cast<int32_t>(rng.Uniform(0, 3)));
  }
  EXPECT_TRUE(
      table->AddColumn(std::make_shared<Int32Column>("key", std::move(key)))
          .ok());
  EXPECT_TRUE(
      table->AddColumn(std::make_shared<Int32Column>("value", std::move(value)))
          .ok());
  EXPECT_TRUE(table
                  ->AddColumn(std::make_shared<DoubleColumn>(
                      "weight", std::move(weight)))
                  .ok());
  EXPECT_TRUE(table->AddColumn(std::move(label)).ok());
  return table;
}

class SeededTest : public ::testing::TestWithParam<uint64_t> {};

/// Filters match a row-at-a-time reference evaluation for random CNFs.
TEST_P(SeededTest, FilterMatchesScalarReference) {
  Rng rng(GetParam() * 7919 + 13);
  TablePtr table = RandomTable(GetParam(), 500);
  const auto& key =
      ColumnCast<Int32Column>(*table->GetColumn("key").value()).values();
  const auto& value =
      ColumnCast<Int32Column>(*table->GetColumn("value").value()).values();

  for (int round = 0; round < 20; ++round) {
    const int64_t k_lo = rng.Uniform(-2, 22), k_hi = k_lo + rng.Uniform(0, 10);
    const int64_t v_cut = rng.Uniform(-120, 120);
    ConjunctiveFilter filter;
    filter.conjuncts.push_back(
        Disjunction(Predicate::Between("key", k_lo, k_hi)));
    filter.conjuncts.push_back(
        Disjunction{Predicate::Lt("value", v_cut),
                    Predicate::Eq("key", int64_t{3})});
    auto rows = EvaluateFilter(*table, filter);
    ASSERT_TRUE(rows.ok());
    std::vector<uint32_t> expected;
    for (size_t i = 0; i < key.size(); ++i) {
      const bool c1 = key[i] >= k_lo && key[i] <= k_hi;
      const bool c2 = value[i] < v_cut || key[i] == 3;
      if (c1 && c2) expected.push_back(static_cast<uint32_t>(i));
    }
    ASSERT_EQ(rows.value(), expected) << "round " << round;
  }
}

/// Hash join row count equals the nested-loop count; every output pair has
/// equal keys.
TEST_P(SeededTest, JoinMatchesNestedLoopReference) {
  TablePtr build = RandomTable(GetParam(), 60);
  TablePtr probe = RandomTable(GetParam() + 1000, 200);
  JoinOutputSpec spec;
  spec.build_columns = {"key", "value"};
  spec.probe_columns = {"key", "value"};
  spec.build_aliases = {"bk", "bv"};
  spec.probe_aliases = {"pk", "pv"};
  auto joined = HashJoin(*build, "key", *probe, "key", spec, "j");
  ASSERT_TRUE(joined.ok());

  const auto& bkeys =
      ColumnCast<Int32Column>(*build->GetColumn("key").value()).values();
  const auto& pkeys =
      ColumnCast<Int32Column>(*probe->GetColumn("key").value()).values();
  size_t expected_rows = 0;
  for (int32_t b : bkeys) {
    for (int32_t p : pkeys) {
      if (b == p) ++expected_rows;
    }
  }
  EXPECT_EQ(joined.value()->num_rows(), expected_rows);
  const auto& bk =
      ColumnCast<Int32Column>(*joined.value()->GetColumn("bk").value());
  const auto& pk =
      ColumnCast<Int32Column>(*joined.value()->GetColumn("pk").value());
  for (size_t i = 0; i < joined.value()->num_rows(); ++i) {
    ASSERT_EQ(bk.value(i), pk.value(i));
  }
}

/// Group sums add up to the ungrouped total; counts add up to row count.
TEST_P(SeededTest, AggregationIsConsistent) {
  TablePtr table = RandomTable(GetParam(), 777);
  auto grouped = Aggregate(*table, {"label"},
                           {{AggregateFn::kSum, "value", "s"},
                            {AggregateFn::kCount, "", "n"},
                            {AggregateFn::kMin, "value", "lo"},
                            {AggregateFn::kMax, "value", "hi"}},
                           "g");
  ASSERT_TRUE(grouped.ok());
  auto total = Aggregate(*table, {}, {{AggregateFn::kSum, "value", "s"}}, "t");
  ASSERT_TRUE(total.ok());

  const auto& sums =
      ColumnCast<Int64Column>(*grouped.value()->GetColumn("s").value());
  const auto& counts =
      ColumnCast<Int64Column>(*grouped.value()->GetColumn("n").value());
  const auto& lows =
      ColumnCast<Int64Column>(*grouped.value()->GetColumn("lo").value());
  const auto& highs =
      ColumnCast<Int64Column>(*grouped.value()->GetColumn("hi").value());
  int64_t sum_of_sums = 0, sum_of_counts = 0;
  for (size_t g = 0; g < grouped.value()->num_rows(); ++g) {
    sum_of_sums += sums.value(g);
    sum_of_counts += counts.value(g);
    ASSERT_LE(lows.value(g), highs.value(g));
    ASSERT_GE(counts.value(g), 1);
  }
  EXPECT_EQ(sum_of_counts, 777);
  EXPECT_EQ(sum_of_sums,
            ColumnCast<Int64Column>(*total.value()->GetColumn("s").value())
                .value(0));
}

/// Sorting produces an ordered permutation of the input.
TEST_P(SeededTest, SortIsAnOrderedPermutation) {
  TablePtr table = RandomTable(GetParam(), 300);
  auto sorted = Sort(*table, {{"label", true}, {"value", false}}, "s");
  ASSERT_TRUE(sorted.ok());
  ASSERT_EQ(sorted.value()->num_rows(), 300u);

  const auto& label =
      ColumnCast<StringColumn>(*sorted.value()->GetColumn("label").value());
  const auto& value =
      ColumnCast<Int32Column>(*sorted.value()->GetColumn("value").value());
  for (size_t i = 1; i < 300; ++i) {
    const auto prev = label.value(i - 1), curr = label.value(i);
    ASSERT_LE(prev, curr);
    if (prev == curr) ASSERT_GE(value.value(i - 1), value.value(i));
  }
  // Permutation: multiset of values preserved.
  auto multiset_of = [](const Int32Column& column) {
    std::map<int32_t, int> counts;
    for (int32_t v : column.values()) ++counts[v];
    return counts;
  };
  EXPECT_EQ(multiset_of(value),
            multiset_of(ColumnCast<Int32Column>(
                *table->GetColumn("value").value())));
}

/// Projection arithmetic matches scalar arithmetic.
TEST_P(SeededTest, ProjectionMatchesScalarReference) {
  TablePtr table = RandomTable(GetParam(), 250);
  auto projected = Project(
      *table, {},
      {ArithmeticExpr::ColumnOp("vw", ArithmeticExpr::Op::kMul, "value",
                                "weight"),
       ArithmeticExpr::ConstantMinusColumn("inv", 50, "value"),
       ArithmeticExpr::ConstantOp("shift", ArithmeticExpr::Op::kAdd, "value",
                                  7)},
      "p");
  ASSERT_TRUE(projected.ok());
  const auto& value =
      ColumnCast<Int32Column>(*table->GetColumn("value").value()).values();
  const auto& weight =
      ColumnCast<DoubleColumn>(*table->GetColumn("weight").value()).values();
  const auto& vw =
      ColumnCast<DoubleColumn>(*projected.value()->GetColumn("vw").value());
  const auto& inv =
      ColumnCast<Int64Column>(*projected.value()->GetColumn("inv").value());
  const auto& shift =
      ColumnCast<Int64Column>(*projected.value()->GetColumn("shift").value());
  for (size_t i = 0; i < 250; ++i) {
    ASSERT_DOUBLE_EQ(vw.value(i), value[i] * weight[i]);
    ASSERT_EQ(inv.value(i), 50 - value[i]);
    ASSERT_EQ(shift.value(i), value[i] + 7);
  }
}

/// Filter-then-gather equals gather-then-filter on the selected rows
/// (selection pushdown soundness).
TEST_P(SeededTest, FilterCommutesWithGather) {
  TablePtr table = RandomTable(GetParam(), 400);
  ConjunctiveFilter filter =
      ConjunctiveFilter::And({Predicate::Ge("value", int64_t{0})});
  auto rows = EvaluateFilter(*table, filter);
  ASSERT_TRUE(rows.ok());
  auto filtered = GatherRows(*table, rows.value(), "f");
  ASSERT_TRUE(filtered.ok());
  // Re-filtering the filtered table selects everything.
  auto rows2 = EvaluateFilter(*filtered.value(), filter);
  ASSERT_TRUE(rows2.ok());
  EXPECT_EQ(rows2.value().size(), filtered.value()->num_rows());
}

// ---------------------------------------------------------------------------
// Randomized plans on randomized N-device machines vs the CPU reference
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_THREAD__)
#define HETDB_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HETDB_UNDER_TSAN 1
#endif
#endif

/// Plans per seed: each plan spins up fresh engine contexts (the chopping
/// strategies start device worker pools), which TSan instruments heavily —
/// trim the volume there, keep the seed coverage.
#ifdef HETDB_UNDER_TSAN
constexpr int kRandomPlans = 2;
#else
constexpr int kRandomPlans = 5;
#endif

/// Random star-schema database: fact(fk, v) with duplicate foreign keys,
/// dim(key, name) with 16 members. Row count varies with the seed.
DatabasePtr RandomStarDb(uint64_t seed) {
  Rng rng(seed ^ 0x5eedf00dULL);
  auto db = std::make_shared<Database>();
  const size_t rows = static_cast<size_t>(400 + rng.Uniform(0, 600));
  auto fact = std::make_shared<Table>("fact");
  std::vector<int32_t> fk(rows), v(rows);
  for (size_t i = 0; i < rows; ++i) {
    fk[i] = static_cast<int32_t>(rng.Uniform(1, 16));
    v[i] = static_cast<int32_t>(rng.Uniform(-500, 500));
  }
  EXPECT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("fk", std::move(fk))).ok());
  EXPECT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("v", std::move(v))).ok());
  EXPECT_TRUE(db->AddTable(fact).ok());

  auto dim = std::make_shared<Table>("dim");
  std::vector<int32_t> key(16);
  std::vector<std::string> labels;
  for (int i = 0; i < 16; ++i) labels.push_back("d" + std::to_string(i));
  auto name = StringColumn::FromDictionary("name", labels);
  for (int i = 0; i < 16; ++i) {
    key[i] = i + 1;
    name->AppendCode(i);
  }
  EXPECT_TRUE(
      dim->AddColumn(std::make_shared<Int32Column>("key", std::move(key))).ok());
  EXPECT_TRUE(dim->AddColumn(std::move(name)).ok());
  EXPECT_TRUE(db->AddTable(dim).ok());
  return db;
}

/// Random plan over the star schema: scan, then an independent coin flip for
/// a selection, a dimension join, and an aggregation. Every shape ends in a
/// sort imposing a total order on the output values, so cross-device
/// comparison is insensitive to execution-order permutations.
PlanNodePtr RandomPlan(const DatabasePtr& db, uint64_t seed) {
  Rng rng(seed);
  PlanNodePtr node = std::make_shared<ScanNode>(
      db->GetTable("fact").value(), std::vector<std::string>{"fk", "v"});
  if (rng.Uniform(0, 2) == 0) {
    const int64_t cut = rng.Uniform(-500, 500);
    node = std::make_shared<SelectNode>(
        std::move(node), ConjunctiveFilter::And({Predicate::Lt("v", cut)}));
  }
  bool joined = false;
  if (rng.Uniform(0, 2) == 0) {
    joined = true;
    PlanNodePtr dim_scan = std::make_shared<ScanNode>(
        db->GetTable("dim").value(), std::vector<std::string>{"key", "name"});
    JoinOutputSpec spec;
    spec.build_columns = {"name"};
    spec.probe_columns = {"fk", "v"};
    node = std::make_shared<JoinNode>(std::move(dim_scan), std::move(node),
                                      "key", "fk", spec);
  }
  if (rng.Uniform(0, 2) == 0) {
    const std::string group = joined ? "name" : "fk";
    node = std::make_shared<AggregateNode>(
        std::move(node), std::vector<std::string>{group},
        std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "total"},
                                   {AggregateFn::kCount, "", "n"}});
    return std::make_shared<SortNode>(std::move(node),
                                      std::vector<SortKey>{{group, true}});
  }
  std::vector<SortKey> keys;
  if (joined) keys.push_back({"name", true});
  keys.push_back({"fk", true});
  keys.push_back({"v", true});
  return std::make_shared<SortNode>(std::move(node), std::move(keys));
}

/// The multi-device contract as a property: for random star-schema data and
/// random plan shapes, every placement strategy on every machine size
/// returns exactly the scalar CPU reference result.
TEST_P(SeededTest, RandomPlansMatchCpuReferenceOnAnyDeviceCount) {
  const uint64_t seed = GetParam();
  DatabasePtr db = RandomStarDb(seed);

  SystemConfig reference_config = TestConfig();
  reference_config.device_count = 1;
  for (int plan_index = 0; plan_index < kRandomPlans; ++plan_index) {
    const uint64_t plan_seed =
        seed * 1000003ULL + static_cast<uint64_t>(plan_index);
    TablePtr expected;
    {
      EngineContext ctx(reference_config, db);
      StrategyRunner runner(&ctx, Strategy::kCpuOnly);
      Result<TablePtr> result = runner.RunQuery(RandomPlan(db, plan_seed));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      expected = result.value();
    }
    // Machine size derived from the seed: anything from 2 to 8 devices.
    const int devices =
        2 + static_cast<int>((seed + static_cast<uint64_t>(plan_index)) % 7);
    SystemConfig config = TestConfig();
    config.device_count = devices;
    for (Strategy strategy : {Strategy::kGpuOnly, Strategy::kRunTime,
                              Strategy::kDataDrivenChopping}) {
      EngineContext ctx(config, db);
      StrategyRunner runner(&ctx, strategy);
      runner.RefreshDataPlacement();
      Result<TablePtr> result = runner.RunQuery(RandomPlan(db, plan_seed));
      ASSERT_TRUE(result.ok())
          << StrategyToString(strategy) << " x" << devices << " plan "
          << plan_index << ": " << result.status().ToString();
      EXPECT_TRUE(TablesEqual(*expected, *result.value()))
          << StrategyToString(strategy) << " x" << devices << " plan "
          << plan_index;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/// DeviceFootprint is an upper bound on what a device attempt allocates.
/// Every SSB and TPC-H query runs with every operator placed on the device,
/// on a heap large enough that nothing aborts, and each node's footprint at
/// placement must cover the heap bytes its attempt allocated. Parameters:
/// fusion on/off, and a device cache that holds every column (each query
/// runs twice: its scans miss, then hit) or none (every scan column is a
/// transient heap buffer).
class FootprintBoundTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(FootprintBoundTest, DeviceFootprintBoundsEveryDeviceAllocation) {
  const auto [fusion, cache_columns] = GetParam();
  static const DatabasePtr ssb = [] {
    SsbGeneratorOptions options;
    options.scale_factor = 0.1;
    return GenerateSsbDatabase(options);
  }();
  static const DatabasePtr tpch = [] {
    TpchGeneratorOptions options;
    options.scale_factor = 0.05;
    return GenerateTpchDatabase(options);
  }();
  SystemConfig config = TestConfig();
  config.device_memory_bytes = size_t{1} << 30;
  config.device_cache_bytes = cache_columns ? size_t{256} << 20 : 0;

  for (const auto& [db, queries] : {std::make_pair(ssb, SsbQueries()),
                                    std::make_pair(tpch, TpchQueries())}) {
    EngineContext ctx(config, db);
    ChoppingExecutor executor(&ctx);
    for (const NamedQuery& query : queries) {
      Result<PlanNodePtr> built = query.builder(*db);
      ASSERT_TRUE(built.ok()) << query.name;
      const PlanNodePtr plan =
          fusion ? FusePipelines(built.value()) : built.value();
      for (int run = 0; run < 2; ++run) {
        std::mutex mutex;
        std::map<const PlanNode*, size_t> footprints;
        RuntimePlacer placer = [&](const PlanNode& node,
                                   const std::vector<OperatorResult*>& inputs,
                                   EngineContext& placer_ctx) {
          const size_t bound = DeviceFootprint(node, inputs, placer_ctx);
          std::lock_guard<std::mutex> lock(mutex);
          footprints[&node] = bound;
          return ProcessorKind::kGpu;
        };
        QueryControls controls;
        controls.stats = MakeQueryStats(plan);
        const QueryStatsPtr stats = controls.stats;
        Result<TablePtr> result =
            executor.ExecuteInline(plan, placer, std::move(controls));
        ASSERT_TRUE(result.ok()) << query.name << ": "
                                 << result.status().ToString();
        VisitPlanPostOrder(plan, [&](const PlanNodePtr& node) {
          const NodeStats* node_stats = stats->Find(node.get());
          ASSERT_NE(node_stats, nullptr);
          EXPECT_EQ(node_stats->ran_on.load(), 1) << query.name;
          ASSERT_EQ(footprints.count(node.get()), 1u);
          const size_t bound = footprints[node.get()];
          EXPECT_LT(bound, std::numeric_limits<size_t>::max())
              << query.name << " " << node->label();
          EXPECT_GE(bound, static_cast<size_t>(
                               node_stats->device_alloc_bytes.load()))
              << query.name << " run " << run << " " << node->label();
        });
      }
    }
    EXPECT_EQ(ctx.telemetry().gpu_operator_aborts(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FusionAndCache, FootprintBoundTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<bool, bool>>& info) {
      return std::string(std::get<0>(info.param) ? "Fused" : "Unfused") +
             (std::get<1>(info.param) ? "Cached" : "Uncached");
    });

}  // namespace
}  // namespace hetdb
