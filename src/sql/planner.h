#ifndef HETDB_SQL_PLANNER_H_
#define HETDB_SQL_PLANNER_H_

#include <string>

#include "operators/plan_node.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace hetdb {

/// Translates a parsed SELECT statement into a physical plan tree.
///
/// Planning steps (a miniature of CoGaDB's strategic optimizer):
///  1. resolve columns against the catalog (column names must be unique
///     across the referenced tables, as in the SSB/TPC-H schemas);
///  2. push filters down to per-table scan+select subplans;
///  3. order joins greedily: the table with the most rows is the probe
///     source (so SSB streams lineorder through dimension hash tables, as in
///     the paper), and each later join builds its hash table on the
///     connected table whose pushed-down filter keeps the smallest *share*
///     of its rows; equal shares keep the WHERE clause's order. A share
///     comes from bounds the columns carry: matched dictionary entries (or
///     the code span of a string range) over the dictionary size, an
///     integer range clipped to the column's [min, max] over its width;
///     conjuncts multiply, a disjunction's atoms add (capped at 1), anything
///     else counts as 1. The probe source's values are never read;
///     column-equality predicates that are not needed for connectivity
///     become residual filters evaluated as a projected difference (how
///     HetDB runs TPC-H Q5/Q7's nation joins);
///  4. add projection, aggregation, ORDER BY, and LIMIT.
Result<PlanNodePtr> PlanQuery(const SelectStatement& statement,
                              const Database& db);

/// Convenience: parse + plan.
Result<PlanNodePtr> PlanSql(const std::string& sql, const Database& db);

}  // namespace hetdb

#endif  // HETDB_SQL_PLANNER_H_
