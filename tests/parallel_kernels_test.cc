// Parity tests for the morsel-parallel kernels: every kernel must produce
// byte-identical output to its row-at-a-time reference
// (EvaluateFilterReference, HashJoinReference, AggregateReference), across
// worker counts and adversarial inputs (DESIGN.md §5 invariant — placement
// and parallelism substitute *timing*, never results). Also covers the
// morsel scheduler (ParallelFor, DopBudget) directly. The whole binary runs
// under the TSan CI job, so these tests double as race detection for the
// task arena and the parallel kernels.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "operators/kernels.h"
#include "telemetry/telemetry.h"
#include "tests/test_util.h"

namespace hetdb {
namespace {

// ---------------------------------------------------------------------------
// Test data
// ---------------------------------------------------------------------------

constexpr size_t kTestMorsel = 256;  // small, so even 10k rows use many morsels

TablePtr MakeFactTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> key, quantity, discount;
  std::vector<int64_t> revenue;
  std::vector<double> price;
  key.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    key.push_back(static_cast<int32_t>(rng.Uniform(0, 199)));
    quantity.push_back(static_cast<int32_t>(rng.Uniform(1, 50)));
    discount.push_back(static_cast<int32_t>(rng.Uniform(0, 10)));
    revenue.push_back(rng.Uniform(0, 1'000'000));
    price.push_back(rng.NextDouble() * 1000.0 - 500.0);
  }
  auto table = std::make_shared<Table>("fact");
  EXPECT_TRUE(
      table->AddColumn(std::make_shared<Int32Column>("key", std::move(key)))
          .ok());
  EXPECT_TRUE(table
                  ->AddColumn(std::make_shared<Int32Column>(
                      "quantity", std::move(quantity)))
                  .ok());
  EXPECT_TRUE(table
                  ->AddColumn(std::make_shared<Int32Column>(
                      "discount", std::move(discount)))
                  .ok());
  EXPECT_TRUE(table
                  ->AddColumn(std::make_shared<Int64Column>(
                      "revenue", std::move(revenue)))
                  .ok());
  EXPECT_TRUE(
      table->AddColumn(std::make_shared<DoubleColumn>("price", std::move(price)))
          .ok());
  auto city = StringColumn::FromDictionary(
      "city", {"amsterdam", "berlin", "cairo", "delhi", "eugene"});
  for (size_t i = 0; i < rows; ++i) {
    city->AppendCode(static_cast<int32_t>(rng.Uniform(0, 4)));
  }
  EXPECT_TRUE(table->AddColumn(std::move(city)).ok());
  return table;
}

TablePtr MakeDimTable(size_t rows, uint64_t seed, bool all_duplicate_keys) {
  Rng rng(seed);
  std::vector<int32_t> key;
  std::vector<int64_t> weight;
  for (size_t i = 0; i < rows; ++i) {
    key.push_back(all_duplicate_keys ? 7 : static_cast<int32_t>(i));
    weight.push_back(rng.Uniform(-100, 100));
  }
  auto table = std::make_shared<Table>("dim");
  EXPECT_TRUE(
      table->AddColumn(std::make_shared<Int32Column>("d_key", std::move(key)))
          .ok());
  EXPECT_TRUE(table
                  ->AddColumn(std::make_shared<Int64Column>(
                      "d_weight", std::move(weight)))
                  .ok());
  return table;
}

// Runs `body(/*reference=*/true)` at DoP 1, then `body(false)` — the
// morsel-parallel kernels — at every thread count, comparing results.
template <typename Fn>
void ExpectReferenceParity(Fn body) {
  TablePtr reference_result;
  {
    DopScope scope(1, kTestMorsel);
    reference_result = body(true);
  }
  ASSERT_NE(reference_result, nullptr);
  for (int threads : ThreadCounts()) {
    DopScope scope(threads, kTestMorsel);
    TablePtr parallel_result = body(false);
    ASSERT_NE(parallel_result, nullptr) << "threads=" << threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectBitIdenticalTables(reference_result, parallel_result);
  }
}

// ---------------------------------------------------------------------------
// Filter parity
// ---------------------------------------------------------------------------

void ExpectFilterParity(const Table& input, const ConjunctiveFilter& filter) {
  ExpectReferenceParity([&](bool reference) -> TablePtr {
    Result<std::vector<uint32_t>> rows =
        (reference ? EvaluateFilterReference : EvaluateFilter)(input, filter);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (!rows.ok()) return nullptr;
    Result<TablePtr> out = GatherRows(input, rows.value(), "filtered");
    EXPECT_TRUE(out.ok());
    return out.ok() ? out.value() : nullptr;
  });
}

TEST(ParallelFilterParity, CnfWithDisjunctionsAndStrings) {
  TablePtr fact = MakeFactTable(10'000, 1);
  ConjunctiveFilter filter;
  filter.conjuncts.push_back(
      Disjunction{Predicate::Between("discount", int64_t{2}, int64_t{6}),
                  Predicate::Eq("quantity", int64_t{10})});
  filter.conjuncts.push_back(
      Disjunction{Predicate::Lt("city", "cairo"),
                  Predicate::Ge("city", "eugene")});
  filter.conjuncts.push_back(Disjunction(Predicate::Gt("price", -250.0)));
  ExpectFilterParity(*fact, filter);
}

TEST(ParallelFilterParity, EmptyAllMatchAndEmptyInput) {
  TablePtr fact = MakeFactTable(5'000, 2);
  ExpectFilterParity(  // no row qualifies
      *fact,
      ConjunctiveFilter::And({Predicate::Gt("quantity", int64_t{100})}));
  ExpectFilterParity(  // every row qualifies
      *fact, ConjunctiveFilter::And({Predicate::Ge("quantity", int64_t{0})}));
  ExpectFilterParity(*fact, ConjunctiveFilter{});  // keeps everything
  TablePtr empty = MakeFactTable(0, 3);
  ExpectFilterParity(
      *empty, ConjunctiveFilter::And({Predicate::Eq("quantity", int64_t{1})}));
}

TEST(ParallelFilterParity, ErrorsMatchReference) {
  TablePtr fact = MakeFactTable(100, 4);
  const ConjunctiveFilter bad_column =
      ConjunctiveFilter::And({Predicate::Eq("missing", int64_t{1})});
  const ConjunctiveFilter bad_constant =
      ConjunctiveFilter::And({Predicate::Eq("city", int64_t{1})});
  for (const ConjunctiveFilter* filter : {&bad_column, &bad_constant}) {
    const Status reference_status =
        EvaluateFilterReference(*fact, *filter).status();
    Status parallel_status;
    {
      DopScope scope(4, kTestMorsel);
      parallel_status = EvaluateFilter(*fact, *filter).status();
    }
    EXPECT_FALSE(reference_status.ok());
    EXPECT_EQ(reference_status.code(), parallel_status.code());
    EXPECT_EQ(reference_status.ToString(), parallel_status.ToString());
  }
}

// ---------------------------------------------------------------------------
// Hash join parity
// ---------------------------------------------------------------------------

void ExpectJoinParity(const Table& build, const std::string& build_key,
                      const Table& probe, const std::string& probe_key,
                      const JoinOutputSpec& spec) {
  ExpectReferenceParity([&](bool reference) -> TablePtr {
    Result<TablePtr> out = (reference ? HashJoinReference : HashJoin)(
        build, build_key, probe, probe_key, spec, "joined");
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out.value() : nullptr;
  });
}

/// dim(d_key) joined with fact(key), payload columns from both sides.
void ExpectStarJoinParity(const Table& dim, const Table& fact) {
  JoinOutputSpec spec;
  spec.build_columns = {"d_weight", "d_key"};
  spec.probe_columns = {"revenue", "key"};
  spec.probe_aliases = {"revenue", "fact_key"};
  ExpectJoinParity(dim, "d_key", fact, "key", spec);
}

TEST(ParallelJoinParity, PkFkJoin) {
  TablePtr dim = MakeDimTable(200, 10, /*all_duplicate_keys=*/false);
  TablePtr fact = MakeFactTable(10'000, 11);
  ExpectStarJoinParity(*dim, *fact);
}

TEST(ParallelJoinParity, AllDuplicateBuildKeys) {
  // Every build row has key 7: each probe hit fans out to all build rows,
  // in ascending build-row order.
  TablePtr dim = MakeDimTable(50, 12, /*all_duplicate_keys=*/true);
  TablePtr fact = MakeFactTable(2'000, 13);
  ExpectStarJoinParity(*dim, *fact);
}

TEST(ParallelJoinParity, EmptySides) {
  TablePtr empty_dim = MakeDimTable(0, 14, false);
  TablePtr empty_fact = MakeFactTable(0, 15);
  TablePtr dim = MakeDimTable(100, 16, false);
  TablePtr fact = MakeFactTable(1'000, 17);
  ExpectStarJoinParity(*empty_dim, *fact);
  ExpectStarJoinParity(*dim, *empty_fact);
}

TEST(ParallelJoinParity, Int64KeysWithNegativeValues) {
  // int64 build keys probed by an int32 column: sign extension must agree.
  std::vector<int64_t> bkeys;
  for (int i = -500; i < 500; ++i) bkeys.push_back(i);
  auto build = std::make_shared<Table>("b");
  ASSERT_TRUE(
      build->AddColumn(std::make_shared<Int64Column>("bk", std::move(bkeys)))
          .ok());
  Rng rng(18);
  std::vector<int32_t> pkeys;
  std::vector<int64_t> payload;
  for (size_t i = 0; i < 5'000; ++i) {
    pkeys.push_back(static_cast<int32_t>(rng.Uniform(-700, 700)));
    payload.push_back(rng.Uniform(0, 1000));
  }
  auto probe = std::make_shared<Table>("p");
  ASSERT_TRUE(
      probe->AddColumn(std::make_shared<Int32Column>("pk", std::move(pkeys)))
          .ok());
  ASSERT_TRUE(
      probe->AddColumn(std::make_shared<Int64Column>("v", std::move(payload)))
          .ok());
  JoinOutputSpec spec;
  spec.build_columns = {"bk"};
  spec.probe_columns = {"v", "pk"};
  ExpectJoinParity(*build, "bk", *probe, "pk", spec);
}

TEST(ParallelJoinParity, SparseKeysUsePartitionedHashPath) {
  // Key domain spread over the full int64 range (with injected duplicates)
  // defeats the dense direct-address fast path, so this exercises the
  // partitioned hash join: radix partitioning, linear probing, chains.
  Rng rng(19);
  std::vector<int64_t> bkeys;
  for (size_t i = 0; i < 3'000; ++i) {
    bkeys.push_back(static_cast<int64_t>(rng.Next()));
  }
  for (size_t i = 0; i < 200; ++i) {  // duplicate chains in a sparse domain
    bkeys.push_back(bkeys[static_cast<size_t>(rng.Uniform(0, 2'999))]);
  }
  std::vector<int64_t> pkeys;
  std::vector<int64_t> payload;
  for (size_t i = 0; i < 20'000; ++i) {
    // Half the probes hit a build key, half miss.
    pkeys.push_back(rng.Uniform(0, 1) == 0
                        ? bkeys[static_cast<size_t>(
                              rng.Uniform(0, static_cast<int64_t>(
                                                 bkeys.size() - 1)))]
                        : static_cast<int64_t>(rng.Next()));
    payload.push_back(rng.Uniform(0, 1000));
  }
  auto build = std::make_shared<Table>("b");
  ASSERT_TRUE(
      build->AddColumn(std::make_shared<Int64Column>("bk", std::move(bkeys)))
          .ok());
  auto probe = std::make_shared<Table>("p");
  ASSERT_TRUE(
      probe->AddColumn(std::make_shared<Int64Column>("pk", std::move(pkeys)))
          .ok());
  ASSERT_TRUE(
      probe->AddColumn(std::make_shared<Int64Column>("v", std::move(payload)))
          .ok());
  JoinOutputSpec spec;
  spec.build_columns = {"bk"};
  spec.probe_columns = {"v"};
  ExpectJoinParity(*build, "bk", *probe, "pk", spec);
}

// ---------------------------------------------------------------------------
// Aggregate parity
// ---------------------------------------------------------------------------

void ExpectAggregateParity(const Table& input,
                           const std::vector<std::string>& group_by,
                           const std::vector<AggregateSpec>& aggregates) {
  ExpectReferenceParity([&](bool reference) -> TablePtr {
    Result<TablePtr> out = (reference ? AggregateReference : Aggregate)(
        input, group_by, aggregates, "agg");
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? out.value() : nullptr;
  });
}

std::vector<AggregateSpec> AllAggregates() {
  return {
      {AggregateFn::kSum, "revenue", "sum_rev"},
      {AggregateFn::kSum, "price", "sum_price"},   // double: FP order matters
      {AggregateFn::kMin, "price", "min_price"},
      {AggregateFn::kMax, "revenue", "max_rev"},
      {AggregateFn::kAvg, "quantity", "avg_qty"},
      {AggregateFn::kCount, "", "rows"},           // COUNT(*)
  };
}

TEST(ParallelAggregateParity, GroupByStringColumn) {
  TablePtr fact = MakeFactTable(10'000, 20);
  ExpectAggregateParity(*fact, {"city"}, AllAggregates());
}

TEST(ParallelAggregateParity, MultiColumnPackedKey) {
  TablePtr fact = MakeFactTable(10'000, 21);
  ExpectAggregateParity(*fact, {"city", "discount", "key"}, AllAggregates());
}

TEST(ParallelAggregateParity, SingleGroupAndNoGroupBy) {
  TablePtr fact = MakeFactTable(5'000, 22);
  // All rows in one group via a constant column.
  std::vector<int32_t> ones(fact->num_rows(), 1);
  ASSERT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("one", std::move(ones)))
          .ok());
  ExpectAggregateParity(*fact, {"one"}, AllAggregates());
  ExpectAggregateParity(*fact, {}, AllAggregates());
}

TEST(ParallelAggregateParity, AllDistinctGroups) {
  // Every row is its own group: stresses local tables, the merge, and the
  // first-seen output ordering.
  const size_t rows = 8'000;
  std::vector<int64_t> id(rows);
  for (size_t i = 0; i < rows; ++i) {
    id[i] = static_cast<int64_t>((i * 2'654'435'761u) % 1'000'000'007u);
  }
  auto table = std::make_shared<Table>("t");
  ASSERT_TRUE(
      table->AddColumn(std::make_shared<Int64Column>("id", std::move(id)))
          .ok());
  Rng rng(23);
  std::vector<double> v(rows);
  for (double& x : v) x = rng.NextDouble();
  ASSERT_TRUE(table->AddColumn(std::make_shared<DoubleColumn>("v", std::move(v)))
                  .ok());
  ExpectAggregateParity(
      *table, {"id"},
      {{AggregateFn::kSum, "v", "sv"}, {AggregateFn::kCount, "", "c"}});
}

TEST(ParallelAggregateParity, WideKeyFallsBackToReference) {
  // Two full-range int64 key columns cannot pack into 64 bits; the parallel
  // kernel must detect this and fall back to AggregateReference (results
  // identical by definition, but the path must not crash or truncate keys).
  const size_t rows = 4'000;
  Rng rng(24);
  std::vector<int64_t> a(rows), b(rows), v(rows);
  for (size_t i = 0; i < rows; ++i) {
    a[i] = static_cast<int64_t>(rng.Next());  // spans ~2^64
    b[i] = static_cast<int64_t>(rng.Next());
    v[i] = rng.Uniform(0, 100);
    if (i % 7 == 0 && i > 0) {  // inject duplicates so groups aren't all size 1
      a[i] = a[i - 1];
      b[i] = b[i - 1];
    }
  }
  auto table = std::make_shared<Table>("t");
  ASSERT_TRUE(table->AddColumn(std::make_shared<Int64Column>("a", std::move(a)))
                  .ok());
  ASSERT_TRUE(table->AddColumn(std::make_shared<Int64Column>("b", std::move(b)))
                  .ok());
  ASSERT_TRUE(table->AddColumn(std::make_shared<Int64Column>("v", std::move(v)))
                  .ok());
  ExpectAggregateParity(
      *table, {"a", "b"},
      {{AggregateFn::kSum, "v", "sv"}, {AggregateFn::kMin, "v", "mv"}});
}

TEST(ParallelAggregateParity, EmptyInput) {
  TablePtr empty = MakeFactTable(0, 25);
  ExpectAggregateParity(*empty, {"city"}, AllAggregates());
}

TEST(ParallelAggregateParity, ZeroRowGlobalAggregateReturnsOneRow) {
  TablePtr empty = MakeFactTable(0, 26);
  ExpectAggregateParity(*empty, {}, AllAggregates());
  for (int threads : ThreadCounts()) {
    DopScope scope(threads, kTestMorsel);
    Result<TablePtr> out = Aggregate(*empty, {}, AllAggregates(), "agg");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    const Table& table = *out.value();
    ASSERT_EQ(table.num_rows(), 1u) << "threads=" << threads;
    // COUNT and SUM 0, and MIN/MAX/AVG 0: the engine has no NULL.
    for (const ColumnPtr& column : table.columns()) {
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

// ---------------------------------------------------------------------------
// Morsel scheduler
// ---------------------------------------------------------------------------

TEST(ParallelForTest, EveryMorselExactlyOnceAndAligned) {
  DopScope scope(7, 64);
  const size_t total = 64 * 37 + 13;  // ragged tail
  std::vector<std::atomic<int>> seen(total);
  for (auto& s : seen) s.store(0);
  const int workers = ParallelFor(total, 64, [&](size_t begin, size_t end,
                                                 int worker) {
    EXPECT_EQ(begin % 64, 0u);
    EXPECT_LE(end - begin, 64u);
    EXPECT_GE(worker, 0);
    for (size_t i = begin; i < end; ++i) {
      seen[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_GE(workers, 1);
  for (size_t i = 0; i < total; ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "row " << i;
  }
}

TEST(ParallelForTest, NestedCallsRunSerial) {
  DopScope scope(8, 16);
  std::mutex mu;
  std::set<std::thread::id> inner_threads;
  ParallelFor(256, 16, [&](size_t, size_t, int) {
    const int inner_workers =
        ParallelFor(64, 8, [&](size_t, size_t, int worker) {
          EXPECT_EQ(worker, 0);  // nested loops never fan out
          std::lock_guard<std::mutex> lock(mu);
          inner_threads.insert(std::this_thread::get_id());
        });
    EXPECT_EQ(inner_workers, 1);
  });
  EXPECT_FALSE(inner_threads.empty());
}

TEST(ParallelForTest, ZeroAndTinyInputs) {
  DopScope scope(8, 1024);
  int calls = 0;
  EXPECT_EQ(ParallelFor(0, 1024, [&](size_t, size_t, int) { ++calls; }), 1);
  EXPECT_EQ(calls, 0);
  ParallelFor(3, 1024, [&](size_t begin, size_t end, int) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 3u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(DopBudgetTest, AcquireReleaseAndCapacity) {
  DopBudget budget(4);
  EXPECT_EQ(budget.capacity(), 4);
  EXPECT_EQ(budget.TryAcquire(3), 3);
  EXPECT_EQ(budget.available(), 1);
  EXPECT_EQ(budget.TryAcquire(5), 1);  // partial grant
  EXPECT_EQ(budget.TryAcquire(1), 0);  // exhausted: non-blocking refusal
  budget.Release(4);
  EXPECT_EQ(budget.available(), 4);

  budget.SetCapacity(2);  // shrink with no tokens outstanding
  EXPECT_EQ(budget.capacity(), 2);
  EXPECT_EQ(budget.available(), 2);

  {
    DopBudget::Token token(&budget);
    EXPECT_TRUE(token.held());
    EXPECT_EQ(budget.available(), 1);
    DopBudget::Token moved(std::move(token));
    EXPECT_TRUE(moved.held());
    EXPECT_EQ(budget.available(), 1);
  }
  EXPECT_EQ(budget.available(), 2);
}

TEST(KernelMetricsTest, ParallelRunsAreCounted) {
  MetricRegistry& registry = GlobalKernelMetrics();
  Counter& invocations = registry.GetCounter("kernel.filter.invocations");
  Counter& morsels = registry.GetCounter("kernel.filter.morsels");
  const int64_t invocations_before = invocations.value();
  const int64_t morsels_before = morsels.value();

  DopScope scope(2, 128);
  TablePtr fact = MakeFactTable(2'000, 30);
  ASSERT_TRUE(
      EvaluateFilter(*fact, ConjunctiveFilter::And(
                                {Predicate::Ge("quantity", int64_t{25})}))
          .ok());
  EXPECT_EQ(invocations.value(), invocations_before + 1);
  // 2000 rows at 128-row morsels = 16 morsels in the evaluation loop.
  EXPECT_GE(morsels.value(), morsels_before + 16);
}

}  // namespace
}  // namespace hetdb
