#ifndef HETDB_SSB_SSB_QUERIES_H_
#define HETDB_SSB_SSB_QUERIES_H_

#include <functional>
#include <string>
#include <vector>

#include "operators/plan_node.h"
#include "storage/database.h"

namespace hetdb {

/// A benchmark query: name plus a plan builder. Builders create a fresh plan
/// tree per call, so concurrent user sessions never share execution state.
struct NamedQuery {
  std::string name;
  std::function<Result<PlanNodePtr>(const Database& db)> builder;
};

/// All 13 SSB queries (Q1.1–Q4.3), following the O'Neil specification:
/// flight 1 filters the fact table directly, flights 2–4 join 2–4 dimension
/// tables with increasingly selective predicates. Each query's SQL text is
/// parsed once per call; its builder plans that statement with PlanQuery
/// and returns the parse error, if any.
std::vector<NamedQuery> SsbQueries();

/// Looks up one SSB query by name ("Q1.1" ... "Q4.3").
Result<NamedQuery> SsbQueryByName(const std::string& name);

}  // namespace hetdb

#endif  // HETDB_SSB_SSB_QUERIES_H_
