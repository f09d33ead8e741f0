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
///  3. order joins greedily by estimated (filtered) input size: the largest
///     input is the probe source, and each later join builds its hash table
///     on the smallest table connected to the running result (so SSB
///     streams lineorder through dimension hash tables, as in the paper);
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
