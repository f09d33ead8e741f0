#include "ssb/ssb_queries.h"

#include <memory>
#include <utility>

#include "sql/parser.h"
#include "sql/planner.h"

namespace hetdb {

namespace {

/// The 13 SSB queries as SQL text, in benchmark order. The planner pushes
/// each dimension filter down and joins the dimension that keeps the
/// smallest share of its rows first, so lineorder streams through the most
/// selective hash table.
constexpr std::pair<const char*, const char*> kSsbSql[] = {
    {"Q1.1",
     "SELECT sum(lo_extendedprice * lo_discount) AS revenue "
     "FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_year = 1993 "
     "AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25"},
    {"Q1.2",
     "SELECT sum(lo_extendedprice * lo_discount) AS revenue "
     "FROM lineorder, date WHERE lo_orderdate = d_datekey "
     "AND d_yearmonthnum = 199401 AND lo_discount BETWEEN 4 AND 6 "
     "AND lo_quantity BETWEEN 26 AND 35"},
    {"Q1.3",
     "SELECT sum(lo_extendedprice * lo_discount) AS revenue "
     "FROM lineorder, date WHERE lo_orderdate = d_datekey "
     "AND d_weeknuminyear = 6 AND d_year = 1994 "
     "AND lo_discount BETWEEN 5 AND 7 AND lo_quantity BETWEEN 26 AND 35"},
    {"Q2.1",
     "SELECT d_year, p_brand1, sum(lo_revenue) AS revenue "
     "FROM lineorder, date, part, supplier WHERE lo_orderdate = d_datekey "
     "AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey "
     "AND p_category = 'MFGR#12' AND s_region = 'AMERICA' "
     "GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1"},
    {"Q2.2",
     "SELECT d_year, p_brand1, sum(lo_revenue) AS revenue "
     "FROM lineorder, date, part, supplier WHERE lo_orderdate = d_datekey "
     "AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey "
     "AND p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228' AND s_region = 'ASIA' "
     "GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1"},
    {"Q2.3",
     "SELECT d_year, p_brand1, sum(lo_revenue) AS revenue "
     "FROM lineorder, date, part, supplier WHERE lo_orderdate = d_datekey "
     "AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey "
     "AND p_brand1 = 'MFGR#2239' AND s_region = 'EUROPE' "
     "GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1"},
    {"Q3.1",
     "SELECT c_nation, s_nation, d_year, sum(lo_revenue) AS revenue "
     "FROM customer, lineorder, supplier, date WHERE lo_custkey = c_custkey "
     "AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey "
     "AND c_region = 'ASIA' AND s_region = 'ASIA' "
     "AND d_year BETWEEN 1992 AND 1997 GROUP BY c_nation, s_nation, d_year "
     "ORDER BY d_year ASC, revenue DESC"},
    {"Q3.2",
     "SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue "
     "FROM customer, lineorder, supplier, date WHERE lo_custkey = c_custkey "
     "AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey "
     "AND c_nation = 'UNITED STATES' AND s_nation = 'UNITED STATES' "
     "AND d_year BETWEEN 1992 AND 1997 GROUP BY c_city, s_city, d_year "
     "ORDER BY d_year ASC, revenue DESC"},
    {"Q3.3",
     "SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue "
     "FROM customer, lineorder, supplier, date WHERE lo_custkey = c_custkey "
     "AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey "
     "AND c_city IN ('UNITED KI1', 'UNITED KI5') "
     "AND s_city IN ('UNITED KI1', 'UNITED KI5') "
     "AND d_year BETWEEN 1992 AND 1997 GROUP BY c_city, s_city, d_year "
     "ORDER BY d_year ASC, revenue DESC"},
    {"Q3.4",
     "SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue "
     "FROM customer, lineorder, supplier, date WHERE lo_custkey = c_custkey "
     "AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey "
     "AND c_city IN ('UNITED KI1', 'UNITED KI5') "
     "AND s_city IN ('UNITED KI1', 'UNITED KI5') AND d_yearmonth = 'Dec1997' "
     "GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC"},
    {"Q4.1",
     "SELECT d_year, c_nation, sum(lo_revenue - lo_supplycost) AS profit "
     "FROM date, customer, supplier, part, lineorder "
     "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
     "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "
     "AND c_region = 'AMERICA' AND s_region = 'AMERICA' "
     "AND p_mfgr IN ('MFGR#1', 'MFGR#2') "
     "GROUP BY d_year, c_nation ORDER BY d_year, c_nation"},
    {"Q4.2",
     "SELECT d_year, s_nation, p_category, "
     "sum(lo_revenue - lo_supplycost) AS profit "
     "FROM date, customer, supplier, part, lineorder "
     "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
     "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "
     "AND c_region = 'AMERICA' AND s_region = 'AMERICA' "
     "AND d_year IN (1997, 1998) AND p_mfgr IN ('MFGR#1', 'MFGR#2') "
     "GROUP BY d_year, s_nation, p_category "
     "ORDER BY d_year, s_nation, p_category"},
    {"Q4.3",
     "SELECT d_year, s_city, p_brand1, "
     "sum(lo_revenue - lo_supplycost) AS profit "
     "FROM date, customer, supplier, part, lineorder "
     "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
     "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey "
     "AND c_region = 'AMERICA' AND s_nation = 'UNITED STATES' "
     "AND d_year IN (1997, 1998) AND p_category = 'MFGR#14' "
     "GROUP BY d_year, s_city, p_brand1 ORDER BY d_year, s_city, p_brand1"},
};

}  // namespace

std::vector<NamedQuery> SsbQueries() {
  std::vector<NamedQuery> queries;
  for (const auto& [name, text] : kSsbSql) {
    // Parsed once here; every builder call plans the shared statement.
    auto statement =
        std::make_shared<const Result<SelectStatement>>(ParseSelect(text));
    queries.push_back(
        {name, [statement](const Database& db) -> Result<PlanNodePtr> {
           if (!statement->ok()) return statement->status();
           return PlanQuery(statement->value(), db);
         }});
  }
  return queries;
}

Result<NamedQuery> SsbQueryByName(const std::string& name) {
  for (NamedQuery& query : SsbQueries()) {
    if (query.name == name) return query;
  }
  return Status::NotFound("no SSB query named '" + name + "'");
}

}  // namespace hetdb
