#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/pipeline_builder.h"
#include "operators/fused_pipeline.h"
#include "placement/strategy_runner.h"
#include "server/server.h"
#include "sql/explain.h"
#include "sql/lexer.h"
#include "sql/planner.h"
#include "sql/parser.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "tests/test_util.h"
#include "tpch/tpch_generator.h"
#include "tpch/tpch_queries.h"

namespace hetdb {
namespace {

// --- Lexer -------------------------------------------------------------------

TEST(LexerTest, TokenizesKeywordsIdentifiersAndLiterals) {
  auto tokens = Tokenize("SELECT lo_revenue FROM lineorder WHERE x >= 1.5");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  ASSERT_EQ(t.size(), 9u);  // incl. end token
  EXPECT_TRUE(t[0].IsKeyword("SELECT"));
  EXPECT_EQ(t[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(t[1].text, "lo_revenue");
  EXPECT_TRUE(t[2].IsKeyword("FROM"));
  EXPECT_TRUE(t[4].IsKeyword("WHERE"));
  EXPECT_TRUE(t[6].IsSymbol(">="));
  EXPECT_EQ(t[7].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(t[7].float_value, 1.5);
  EXPECT_EQ(t[8].kind, TokenKind::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE(tokens.value()[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens.value()[1].IsKeyword("FROM"));
  EXPECT_TRUE(tokens.value()[2].IsKeyword("WHERE"));
}

TEST(LexerTest, StringLiteralsAndErrors) {
  auto ok = Tokenize("WHERE c = 'MFGR#12'");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()[3].kind, TokenKind::kString);
  EXPECT_EQ(ok.value()[3].text, "MFGR#12");
  EXPECT_EQ(Tokenize("'oops").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Tokenize("a ? b").status().code(), StatusCode::kInvalidArgument);
}

TEST(LexerTest, TwoCharSymbols) {
  auto tokens = Tokenize("a <> b != c <= d >= e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE(tokens.value()[1].IsSymbol("<>"));
  EXPECT_TRUE(tokens.value()[3].IsSymbol("<>"));  // != normalizes to <>
  EXPECT_TRUE(tokens.value()[5].IsSymbol("<="));
  EXPECT_TRUE(tokens.value()[7].IsSymbol(">="));
}

// --- Parser ------------------------------------------------------------------

TEST(ParserTest, ParsesFullStatement) {
  auto parsed = ParseSelect(
      "SELECT d_year, sum(lo_extendedprice * lo_discount) AS revenue "
      "FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey AND d_year = 1993 "
      "AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25 "
      "GROUP BY d_year ORDER BY revenue DESC LIMIT 10");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const SelectStatement& stmt = parsed.value();
  ASSERT_EQ(stmt.items.size(), 2u);
  EXPECT_EQ(stmt.items[0].kind, SelectItem::Kind::kExpression);
  EXPECT_EQ(stmt.items[1].kind, SelectItem::Kind::kAggregate);
  EXPECT_EQ(stmt.items[1].fn, AggregateFn::kSum);
  EXPECT_TRUE(stmt.items[1].expr.has_arithmetic);
  EXPECT_EQ(stmt.items[1].OutputName(), "revenue");
  ASSERT_EQ(stmt.tables.size(), 2u);
  ASSERT_EQ(stmt.where.size(), 4u);
  EXPECT_EQ(stmt.where[0].kind, SqlPredicate::Kind::kColumnEq);
  EXPECT_EQ(stmt.where[2].kind, SqlPredicate::Kind::kBetween);
  ASSERT_EQ(stmt.group_by.size(), 1u);
  ASSERT_EQ(stmt.order_by.size(), 1u);
  EXPECT_FALSE(stmt.order_by[0].ascending);
  EXPECT_EQ(stmt.limit, 10u);
}

TEST(ParserTest, ParsesCountStarAndInList) {
  auto parsed = ParseSelect(
      "SELECT c_city, count(*) FROM customer "
      "WHERE c_city IN ('UNITED KI1', 'UNITED KI5') GROUP BY c_city");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().items[1].fn, AggregateFn::kCount);
  EXPECT_TRUE(parsed.value().items[1].expr.column.empty());
  ASSERT_EQ(parsed.value().where.size(), 1u);
  EXPECT_EQ(parsed.value().where[0].kind, SqlPredicate::Kind::kIn);
  EXPECT_EQ(parsed.value().where[0].in_list.size(), 2u);
}

TEST(ParserTest, QualifiedNamesAreAccepted) {
  auto parsed = ParseSelect(
      "SELECT lineorder.lo_revenue FROM lineorder WHERE lineorder.lo_tax > 5");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().items[0].expr.column, "lo_revenue");
  EXPECT_EQ(parsed.value().where[0].column, "lo_tax");
}

TEST(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t nonsense").ok());
  EXPECT_FALSE(ParseSelect("SELECT sum(a FROM t").ok());
}

TEST(ParserTest, ParseStatementWithoutExplainIsPlain) {
  auto parsed = ParseStatement("SELECT lo_revenue FROM lineorder");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().explain, ExplainMode::kNone);
  ASSERT_EQ(parsed.value().select.items.size(), 1u);
  EXPECT_EQ(parsed.value().select.items[0].expr.column, "lo_revenue");
}

TEST(ParserTest, ParseStatementRecognizesExplain) {
  auto parsed = ParseStatement(
      "EXPLAIN SELECT lo_revenue FROM lineorder WHERE lo_tax > 5");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().explain, ExplainMode::kPlan);
  // The wrapped select parses the same as the bare statement.
  ASSERT_EQ(parsed.value().select.where.size(), 1u);
  EXPECT_EQ(parsed.value().select.where[0].column, "lo_tax");
}

TEST(ParserTest, ParseStatementRecognizesExplainAnalyze) {
  auto parsed = ParseStatement(
      "explain analyze select lo_revenue from lineorder");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().explain, ExplainMode::kAnalyze);
  EXPECT_EQ(parsed.value().select.items[0].expr.column, "lo_revenue");
}

TEST(ParserTest, ParseStatementRejectsBareExplain) {
  EXPECT_FALSE(ParseStatement("EXPLAIN").ok());
  EXPECT_FALSE(ParseStatement("EXPLAIN ANALYZE").ok());
  EXPECT_FALSE(ParseStatement("EXPLAIN nonsense").ok());
}

// --- Planner + end-to-end ------------------------------------------------------

class SqlEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SsbGeneratorOptions options;
    options.scale_factor = 0.2;
    db_ = GenerateSsbDatabase(options);
  }
  static void TearDownTestSuite() { db_.reset(); }

  TablePtr Run(const std::string& sql) {
    Result<PlanNodePtr> plan = PlanSql(sql, *db_);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status();
    if (!plan.ok()) return nullptr;
    EngineContext ctx(TestConfig(), db_);
    StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);
    Result<TablePtr> result = runner.RunQuery(plan.value());
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? result.value() : nullptr;
  }

  static DatabasePtr db_;
};

DatabasePtr SqlEndToEndTest::db_;

TEST_F(SqlEndToEndTest, SingleTableAggregation) {
  TablePtr result = Run(
      "SELECT sum(lo_revenue) AS total, count(*) AS n FROM lineorder "
      "WHERE lo_discount BETWEEN 4 AND 6");
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->num_rows(), 1u);
  // Scalar reference.
  TablePtr lineorder = db_->GetTable("lineorder").value();
  const auto& discount = ColumnCast<Int32Column>(
                             *lineorder->GetColumn("lo_discount").value())
                             .values();
  const auto& revenue = ColumnCast<Int32Column>(
                            *lineorder->GetColumn("lo_revenue").value())
                            .values();
  int64_t total = 0, n = 0;
  for (size_t i = 0; i < discount.size(); ++i) {
    if (discount[i] >= 4 && discount[i] <= 6) {
      total += revenue[i];
      ++n;
    }
  }
  EXPECT_EQ(ColumnCast<Int64Column>(*result->GetColumn("total").value()).value(0),
            total);
  EXPECT_EQ(ColumnCast<Int64Column>(*result->GetColumn("n").value()).value(0),
            n);
}

bool ScansLineorder(const PlanNode& node) {
  if (node.op() == PlanOp::kScan &&
      static_cast<const ScanNode&>(node).table()->name() == "lineorder") {
    return true;
  }
  for (const PlanNodePtr& child : node.children()) {
    if (ScansLineorder(*child)) return true;
  }
  return false;
}

void CollectOp(const PlanNode& node, PlanOp op,
               std::vector<const PlanNode*>* out) {
  if (node.op() == op) out->push_back(&node);
  for (const PlanNodePtr& child : node.children()) {
    CollectOp(*child, op, out);
  }
}

/// Per SSB query at SF 0.2: the digest of its result, and the summed rows
/// out of its joins under the hand-built plans that preceded the SQL texts
/// (fusion off, CPU Only).
struct SsbPin {
  const char* name;
  Digest digest;
  int64_t hand_built_join_rows;
};
const SsbPin kSsbPins[] = {
    {"Q1.1", {1, 1, 0xf8cdaec9174bdd9aull}, 210},
    {"Q1.2", {1, 1, 0xcd367c6ffd12fd53ull}, 5},
    {"Q1.3", {1, 1, 0xd2c083ffc203b15aull}, 3},
    {"Q2.1", {83, 3, 0x2832eee9dd77cdd3ull}, 745},
    {"Q2.2", {17, 3, 0x68ac75923c41567dull}, 151},
    {"Q2.3", {1, 3, 0xbca0e9cfdb80b1e9ull}, 26},
    {"Q3.1", {142, 4, 0x6c931de05cbd6376ull}, 3429},
    {"Q3.2", {5, 4, 0x352bc7b3bce0cfe2ull}, 444},
    {"Q3.3", {0, 4, 0x0ull}, 79},
    {"Q3.4", {0, 4, 0x0ull}, 79},
    {"Q4.1", {32, 3, 0x14a06524ea8b9cf4ull}, 2966},
    {"Q4.2", {35, 4, 0x73b9b4365d546025ull}, 2856},
    {"Q4.3", {1, 4, 0xdbe7adc0a4504a42ull}, 2312},
};

TEST_F(SqlEndToEndTest, SsbQueriesStreamLineorderAndMatchPinnedDigests) {
  const std::vector<NamedQuery> queries = SsbQueries();
  ASSERT_EQ(queries.size(), std::size(kSsbPins));
  for (size_t q = 0; q < queries.size(); ++q) {
    const NamedQuery& query = queries[q];
    SCOPED_TRACE(query.name);
    ASSERT_EQ(query.name, kSsbPins[q].name);
    Result<PlanNodePtr> plan = query.builder(*db_);
    ASSERT_TRUE(plan.ok()) << plan.status();
    // Every hash table is built on a dimension (a join's build side is
    // children()[0]); lineorder is the probe source the join chain streams.
    std::vector<const PlanNode*> joins;
    CollectOp(*plan.value(), PlanOp::kJoin, &joins);
    for (const PlanNode* join : joins) {
      EXPECT_FALSE(ScansLineorder(*join->children()[0]))
          << RenderPlanTree(plan.value());
    }
    // ... and the whole chain fuses into one pipeline over it.
    const PlanNodePtr fused = OptimizePlan(plan.value());
    std::vector<const PlanNode*> pipelines;
    CollectOp(*fused, PlanOp::kFusedPipeline, &pipelines);
    ASSERT_EQ(pipelines.size(), 1u) << RenderPlanTree(fused);
    EXPECT_TRUE(ScansLineorder(*pipelines[0]->children()[0]));

    for (const Strategy strategy :
         {Strategy::kCpuOnly, Strategy::kDataDrivenChopping}) {
      EngineContext ctx(TestConfig(), db_);
      StrategyRunner runner(&ctx, strategy);
      Result<TablePtr> result = runner.RunQuery(query.builder(*db_).value());
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(DigestOf(*result.value()), kSsbPins[q].digest)
          << StrategyToString(strategy);
    }
  }
}

/// The build-side tables of `plan`'s joins, in the order they join.
std::vector<std::string> JoinOrder(const PlanNodePtr& plan) {
  std::vector<const PlanNode*> joins;
  CollectOp(*plan, PlanOp::kJoin, &joins);
  std::vector<std::string> order;
  for (auto it = joins.rbegin(); it != joins.rend(); ++it) {
    std::vector<const PlanNode*> scans;
    CollectOp(*(*it)->children()[0], PlanOp::kScan, &scans);
    order.push_back(scans.empty() ? "?"
                                  : static_cast<const ScanNode&>(*scans[0])
                                        .table()
                                        ->name());
  }
  return order;
}

// The planner's join order lets no SSB query carry more join rows than the
// hand-built plan it replaced.
TEST_F(SqlEndToEndTest, SsbJoinOrderCarriesNoMoreRowsThanHandBuiltPlans) {
  SystemConfig config = TestConfig();
  config.fusion = false;
  EngineContext ctx(config, db_);
  StrategyRunner cpu(&ctx, Strategy::kCpuOnly);
  for (const SsbPin& pin : kSsbPins) {
    SCOPED_TRACE(pin.name);
    Result<NamedQuery> query = SsbQueryByName(pin.name);
    ASSERT_TRUE(query.ok());
    Result<PlanNodePtr> plan = query->builder(*db_);
    ASSERT_TRUE(plan.ok()) << plan.status();
    QueryStatsPtr stats = MakeQueryStats(plan.value());
    ASSERT_TRUE(cpu.RunQuery(plan.value(), stats).ok());
    int64_t join_rows = 0;
    for (const auto& node : stats->nodes()) {
      if (node->op == "join") join_rows += node->rows_out.load();
    }
    EXPECT_LE(join_rows, pin.hand_built_join_rows)
        << RenderPlanTree(plan.value());
  }
}

// Share rule cases on a star of ten-row dimensions `a` and `b` around a
// 100-row fact table: the dimension whose filter keeps the smaller share of
// its rows joins first.
TEST(PlannerJoinOrderTest, SmallestShareJoinsFirst) {
  auto db = std::make_shared<Database>();
  auto fact = std::make_shared<Table>("fact");
  std::vector<int32_t> fk_a(100), fk_b(100);
  for (int i = 0; i < 100; ++i) {
    fk_a[i] = i % 10 + 1;
    fk_b[i] = i / 10 + 1;
  }
  ASSERT_TRUE(fact->AddColumn(std::make_shared<Int32Column>("fk_a", fk_a)).ok());
  ASSERT_TRUE(fact->AddColumn(std::make_shared<Int32Column>("fk_b", fk_b)).ok());
  ASSERT_TRUE(db->AddTable(fact).ok());
  for (const std::string prefix : {"a", "b"}) {
    auto dim = std::make_shared<Table>(prefix);
    std::vector<int32_t> key(10);
    std::vector<std::string> names;
    for (int i = 0; i < 10; ++i) {
      key[i] = i + 1;
      names.push_back(std::string(1, prefix == "a" ? 'x' : 'y')
                          .append(std::to_string(i)));
    }
    auto name = StringColumn::FromDictionary(prefix + "_name", names);
    for (int i = 0; i < 10; ++i) name->AppendCode(i);
    ASSERT_TRUE(
        dim->AddColumn(std::make_shared<Int32Column>(prefix + "_key", key)).ok());
    for (int32_t& k : key) k += 100;
    ASSERT_TRUE(dim->AddColumn(
        std::make_shared<Int32Column>(prefix + "_num", std::move(key))).ok());
    ASSERT_TRUE(dim->AddColumn(std::move(name)).ok());
    ASSERT_TRUE(db->AddTable(dim).ok());
  }
  // a_num and b_num run 101..110. Shares: = one entry of ten, IN k of ten.
  // Each filter, with `b`'s join predicate first and then last in WHERE.
  // Every case but the last makes `b` the smaller share, so it joins first
  // either way; the last ties, so the first join predicate decides.
  const std::pair<const char*, bool> cases[] = {
      // string = (1/10) before an integer range (5/10)
      {"b_name = 'y1' AND a_num <= 105", true},
      // string IN: 2/10 before 3/10
      {"b_name IN ('y1', 'y2') AND a_name IN ('x1', 'x2', 'x3')", true},
      // string BETWEEN: a code span of 3/10 before 4/10
      {"b_name BETWEEN 'y2' AND 'y4' AND a_name IN ('x1', 'x2', 'x3', 'x4')",
       true},
      // a literal not in the dictionary keeps nothing: share 0
      {"b_name = 'nope' AND a_name = 'x1'", true},
      // an integer range clipped to [101, 110]: 2/10, not 103/10
      {"b_num BETWEEN 0 AND 102 AND a_name IN ('x1', 'x2', 'x3')", true},
      // conjuncts multiply: 5/10 * 6/10 = 0.3 before 0.4
      {"b_num <= 105 AND b_name IN ('y0', 'y1', 'y2', 'y3', 'y4', 'y5') "
       "AND a_name IN ('x1', 'x2', 'x3', 'x4')",
       true},
      // equal shares keep the WHERE clause's order of the join predicates
      {"a_name = 'x1' AND b_name = 'y1'", false},
  };
  for (const auto& [filter, b_smaller] : cases) {
    for (const bool b_edge_first : {true, false}) {
      const std::string sql =
          std::string("SELECT count(*) AS n FROM fact, a, b WHERE ") +
          (b_edge_first ? "fk_b = b_key AND fk_a = a_key AND "
                        : "fk_a = a_key AND fk_b = b_key AND ") +
          filter;
      SCOPED_TRACE(sql);
      Result<PlanNodePtr> plan = PlanSql(sql, *db);
      ASSERT_TRUE(plan.ok()) << plan.status();
      const std::vector<std::string> want =
          b_smaller || b_edge_first ? std::vector<std::string>{"b", "a"}
                                    : std::vector<std::string>{"a", "b"};
      EXPECT_EQ(JoinOrder(plan.value()), want)
          << RenderPlanTree(plan.value());
    }
  }
}

/// The member counts of the fused nodes of FusePipelines(plan), in
/// pre-order.
std::vector<size_t> FusedShape(const PlanNodePtr& plan) {
  const PlanNodePtr fused = FusePipelines(plan);
  std::vector<const PlanNode*> pipelines;
  CollectOp(*fused, PlanOp::kFusedPipeline, &pipelines);
  std::vector<size_t> counts;
  for (const PlanNode* node : pipelines) {
    counts.push_back(
        static_cast<const FusedPipelineNode&>(*node).members().size());
  }
  return counts;
}

// Which chains fuse in every benchmark plan. A change to the fusability
// rule (FusedPipelineNode::Binds) that moves a decision shows here.
TEST_F(SqlEndToEndTest, FusionDecisionsOnEveryBenchmarkPlan) {
  auto ssb_shape = [](const std::string& name) -> std::vector<size_t> {
    if (name.rfind("Q4.", 0) == 0) return {6};
    return {4};  // Q1.x, Q2.x and Q3.x
  };
  for (const NamedQuery& query : SsbQueries()) {
    SCOPED_TRACE("SSB " + query.name);
    Result<PlanNodePtr> plan = query.builder(*db_);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(FusedShape(plan.value()), ssb_shape(query.name))
        << RenderPlanTree(plan.value());
  }

  // TPC-H Q7 is the case a plan-time bind exists for: `select(nkdiff <> 0)`
  // filters a column a project computes, so the chains from the top down
  // to it are declined and the 4-member chain below it fuses.
  const std::map<std::string, std::vector<size_t>> tpch_shapes = {
      {"Q2", {3, 3}}, {"Q3", {3, 2}}, {"Q4", {3}},
      {"Q5", {3, 2}}, {"Q6", {3}}, {"Q7", {4}}};
  TpchGeneratorOptions options;
  options.scale_factor = 0.01;
  const DatabasePtr tpch = GenerateTpchDatabase(options);
  const std::vector<NamedQuery> tpch_queries = TpchQueries();
  ASSERT_EQ(tpch_queries.size(), tpch_shapes.size());
  for (const NamedQuery& query : tpch_queries) {
    SCOPED_TRACE("TPC-H " + query.name);
    Result<PlanNodePtr> plan = query.builder(*tpch);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(FusedShape(plan.value()), tpch_shapes.at(query.name))
        << RenderPlanTree(plan.value());
  }
}

TEST_F(SqlEndToEndTest, MultiJoinGroupByOrderBy) {
  TablePtr result = Run(
      "SELECT c_nation, d_year, sum(lo_revenue) AS revenue "
      "FROM customer, lineorder, date "
      "WHERE lo_custkey = c_custkey AND lo_orderdate = d_datekey "
      "AND c_region = 'ASIA' AND d_year BETWEEN 1992 AND 1994 "
      "GROUP BY c_nation, d_year ORDER BY d_year, revenue DESC LIMIT 20");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->num_rows(), 0u);
  EXPECT_LE(result->num_rows(), 20u);
  // Ordered by year ascending.
  const auto& years =
      ColumnCast<Int32Column>(*result->GetColumn("d_year").value()).values();
  for (size_t i = 1; i < years.size(); ++i) ASSERT_LE(years[i - 1], years[i]);
}

TEST_F(SqlEndToEndTest, ProjectionWithArithmetic) {
  TablePtr result = Run(
      "SELECT lo_orderkey, lo_extendedprice * lo_discount AS charge "
      "FROM lineorder WHERE lo_quantity < 3 ORDER BY charge DESC LIMIT 5");
  ASSERT_NE(result, nullptr);
  ASSERT_LE(result->num_rows(), 5u);
  ASSERT_TRUE(result->HasColumn("charge"));
  const auto& charge =
      ColumnCast<Int64Column>(*result->GetColumn("charge").value()).values();
  for (size_t i = 1; i < charge.size(); ++i) ASSERT_GE(charge[i - 1], charge[i]);
}

TEST_F(SqlEndToEndTest, PlannerErrors) {
  EXPECT_EQ(PlanSql("SELECT nope FROM lineorder", *db_).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(PlanSql("SELECT lo_revenue FROM lineorder, customer", *db_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // no join predicate
  EXPECT_EQ(PlanSql("SELECT lo_revenue, sum(lo_tax) FROM lineorder", *db_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // non-grouped plain column
  EXPECT_EQ(PlanSql("SELECT lo_revenue FROM nosuch", *db_).status().code(),
            StatusCode::kNotFound);
  // Numeric literals beyond int64_t and beyond double (the lexer has no
  // exponent syntax) are errors naming their position.
  const std::string prefix =
      "SELECT lo_revenue FROM lineorder WHERE lo_quantity < ";
  const std::string position = "position " + std::to_string(prefix.size());
  for (const std::string& literal :
       {std::string("99999999999999999999"),
        "1" + std::string(400, '0') + ".5"}) {
    const Status status = PlanSql(prefix + literal, *db_).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find(position), std::string::npos) << status;
  }
  // The plan has no rename, so an alias on a plain column is refused, as is
  // an ORDER BY key the output does not carry; each names the item.
  const std::pair<const char*, const char*> unplannable[] = {
      {"SELECT d_year AS y FROM date LIMIT 1", "'y'"},
      {"SELECT d_year AS y, count(*) AS n FROM date GROUP BY d_year "
       "ORDER BY y",
       "'y'"},
      {"SELECT d_year FROM date ORDER BY d_month", "'d_month'"},
  };
  for (const auto& [sql, item] : unplannable) {
    const Status status = PlanSql(sql, *db_).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << sql << ": " << status;
    EXPECT_NE(status.message().find(item), std::string::npos)
        << sql << ": " << status;
  }
  // Aggregates other than COUNT, arithmetic, and residual column equalities
  // over a string column would trap in a kernel; the planner refuses them.
  for (const char* sql :
       {"SELECT sum(lo_shipmode) AS s FROM lineorder",
        "SELECT min(lo_shipmode) AS s FROM lineorder",
        "SELECT sum(lo_shipmode * 2) AS s FROM lineorder",
        "SELECT lo_shipmode * 2 AS x FROM lineorder",
        "SELECT count(*) AS n FROM lineorder "
        "WHERE lo_shipmode = lo_shippriority"}) {
    const Status status = PlanSql(sql, *db_).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << sql << ": " << status;
  }
  // A join probed with a string column plans, and the join kernel refuses
  // it, fused or not.
  const char* string_probe =
      "SELECT count(*) AS n FROM lineorder, date "
      "WHERE lo_shipmode = d_datekey";
  Result<PlanNodePtr> plan = PlanSql(string_probe, *db_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (const bool fusion : {false, true}) {
    SystemConfig config = TestConfig();
    config.fusion = fusion;
    EngineContext ctx(config, db_);
    StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);
    const Status status = runner.RunQuery(plan.value()).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  }
  // COUNT of a string column is no error: it counts rows, as columns hold
  // no NULLs.
  TablePtr counted = Run("SELECT count(lo_shipmode) AS n FROM lineorder");
  ASSERT_NE(counted, nullptr);
  ASSERT_EQ(counted->num_rows(), 1u);
  EXPECT_EQ(ColumnCast<Int64Column>(*counted->GetColumn("n").value()).value(0),
            static_cast<int64_t>(
                db_->GetTable("lineorder").value()->num_rows()));
}

TEST_F(SqlEndToEndTest, SameTableColumnEqualityIsResidualFilter) {
  TablePtr result = Run(
      "SELECT count(*) AS n FROM lineorder WHERE lo_orderdate = lo_commitdate");
  ASSERT_NE(result, nullptr);
  // Scalar reference.
  TablePtr lineorder = db_->GetTable("lineorder").value();
  const auto& od = ColumnCast<Int32Column>(
                       *lineorder->GetColumn("lo_orderdate").value())
                       .values();
  const auto& cd = ColumnCast<Int32Column>(
                       *lineorder->GetColumn("lo_commitdate").value())
                       .values();
  int64_t expected = 0;
  for (size_t i = 0; i < od.size(); ++i) {
    if (od[i] == cd[i]) ++expected;
  }
  EXPECT_EQ(ColumnCast<Int64Column>(*result->GetColumn("n").value()).value(0),
            expected);
}

/// COUNT over a scan that reads no column carries the table's row count, and
/// a global aggregate over zero rows returns one row of empty-group values,
/// through PlanSql and through a Session, fused and unfused.
TEST_F(SqlEndToEndTest, CountStarAndZeroRowGlobalAggregatesReturnOneRow) {
  const auto rows =
      static_cast<int64_t>(db_->GetTable("lineorder").value()->num_rows());
  const std::pair<const char*, int64_t> counts[] = {
      {"SELECT count(*) AS n FROM lineorder", rows},
      {"SELECT count(lo_quantity) AS n FROM lineorder WHERE lo_quantity < 0",
       0},
      // Every lineorder row has its order date; the join outputs no column.
      {"SELECT count(*) AS n FROM lineorder, date "
       "WHERE lo_orderdate = d_datekey",
       rows},
  };
  const char* empty_aggregates =
      "SELECT sum(lo_revenue) AS s, min(lo_quantity) AS lo, "
      "max(lo_extendedprice) AS hi, avg(lo_discount) AS a, count(*) AS n "
      "FROM lineorder WHERE lo_quantity < 0";
  auto expect_one_row_of = [](const Result<TablePtr>& result, int64_t value,
                              const std::string& context) {
    ASSERT_TRUE(result.ok()) << context << ": " << result.status();
    const Table& table = *result.value();
    ASSERT_EQ(table.num_rows(), 1u) << context;
    for (const ColumnPtr& column : table.columns()) {
      if (column->type() == DataType::kDouble) {
        EXPECT_EQ(ColumnCast<DoubleColumn>(*column).value(0),
                  static_cast<double>(value))
            << context << " " << column->name();
      } else {
        EXPECT_EQ(ColumnCast<Int64Column>(*column).value(0), value)
            << context << " " << column->name();
      }
    }
  };
  for (const bool fusion : {false, true}) {
    SystemConfig config = TestConfig();
    config.fusion = fusion;
    EngineContext ctx(config, db_);
    StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);
    ServerOptions options;
    options.dispatchers = 1;
    Server server(&ctx, options);
    SessionPtr session = server.OpenSession();
    std::vector<std::pair<std::string, int64_t>> cases(std::begin(counts),
                                                       std::end(counts));
    cases.emplace_back(empty_aggregates, 0);
    for (const auto& [sql, value] : cases) {
      const std::string context =
          sql + (fusion ? " (fusion on)" : " (fusion off)");
      Result<PlanNodePtr> plan = PlanSql(sql, *db_);
      ASSERT_TRUE(plan.ok()) << context << ": " << plan.status();
      expect_one_row_of(runner.RunQuery(plan.value()), value,
                        context + " via PlanSql");
      expect_one_row_of(session->ExecuteSql(sql), value,
                        context + " via a Session");
    }
  }
}

}  // namespace
}  // namespace hetdb
