#include "sql/planner.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "operators/kernels_internal.h"
#include "sql/parser.h"

namespace hetdb {

namespace {

/// Per-referenced-table planning state.
struct TableState {
  TablePtr table;
  ConjunctiveFilter filter;            // pushed-down single-table predicates
  std::set<std::string> needed;        // columns this table must provide
  double share = 1.0;                  // fraction of rows `filter` keeps
  bool joined = false;
};

/// The fraction of an integer column's [min, max] that `atom` keeps; 1 for
/// an operator that is not a range.
template <typename T>
double IntegerShare(const T* values, size_t rows,
                    const kernel_internal::CompiledAtom& atom) {
  if (rows == 0) return 0.0;
  const auto [min_it, max_it] = std::minmax_element(values, values + rows);
  // Half-open [lo, hi) in doubles: no overflow at the int64 limits.
  const double min = static_cast<double>(*min_it);
  const double max = static_cast<double>(*max_it) + 1;
  const double c = static_cast<double>(atom.ilo);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double lo = -kInf, hi = kInf;
  switch (atom.op) {
    case CompareOp::kEq: lo = c; hi = c + 1; break;
    case CompareOp::kLt: hi = c; break;
    case CompareOp::kLe: hi = c + 1; break;
    case CompareOp::kGt: lo = c + 1; break;
    case CompareOp::kGe: lo = c; break;
    case CompareOp::kBetween:
      lo = c;
      hi = static_cast<double>(atom.ihi) + 1;
      break;
    default: return 1.0;
  }
  return std::max(0.0, std::min(hi, max) - std::max(lo, min)) / (max - min);
}

/// The fraction of `table`'s rows that one atom keeps. String atoms take the
/// code span the filter kernel lowers them to, over the dictionary size;
/// integer atoms their value span over the column's range. Anything else,
/// including an atom the kernel would reject, counts as 1.
double AtomShare(const Table& table, const Predicate& atom) {
  using Kind = kernel_internal::CompiledAtom::Kind;
  Result<kernel_internal::CompiledAtom> compiled =
      kernel_internal::CompileAtom(table, atom);
  if (!compiled.ok()) return 1.0;
  const kernel_internal::CompiledAtom& c = compiled.value();
  const size_t rows = table.num_rows();
  switch (c.kind) {
    case Kind::kNoRows: return 0.0;
    case Kind::kCodeEq:
    case Kind::kCodeRange: {
      const auto& column = static_cast<const StringColumn&>(
          *table.GetColumn(atom.column).value());
      const double entries = static_cast<double>(column.dictionary().size());
      const double span =
          c.kind == Kind::kCodeEq ? 1.0 : std::max(0, c.chi - c.clo);
      return entries > 0 ? span / entries : 0.0;
    }
    case Kind::kInt32Cmp: return IntegerShare(c.i32, rows, c);
    case Kind::kInt64Cmp: return IntegerShare(c.i64, rows, c);
    default: return 1.0;
  }
}

/// The fraction of `table`'s rows that `filter` keeps: conjuncts multiply,
/// and a disjunction's atoms add, capped at 1.
double FilterShare(const Table& table, const ConjunctiveFilter& filter) {
  double share = 1.0;
  for (const Disjunction& conjunct : filter.conjuncts) {
    double any = 0.0;
    for (const Predicate& atom : conjunct.atoms) {
      any += AtomShare(table, atom);
    }
    share *= std::min(any, 1.0);
  }
  return share;
}

Predicate MakeComparePredicate(const SqlPredicate& predicate) {
  Predicate result;
  result.column = predicate.column;
  result.op = predicate.op;
  result.value = predicate.value;
  return result;
}

}  // namespace

Result<PlanNodePtr> PlanQuery(const SelectStatement& statement,
                              const Database& db) {
  if (statement.items.empty()) {
    return Status::InvalidArgument("empty select list");
  }
  if (statement.tables.empty()) {
    return Status::InvalidArgument("empty FROM clause");
  }

  // --- 1. Resolve tables and columns ---------------------------------------
  std::map<std::string, TableState> tables;          // table name -> state
  std::map<std::string, std::string> column_owner;   // column -> table name
  for (const std::string& name : statement.tables) {
    HETDB_ASSIGN_OR_RETURN(TablePtr table, db.GetTable(name));
    for (const ColumnPtr& column : table->columns()) {
      auto [it, inserted] = column_owner.emplace(column->name(), name);
      if (!inserted) {
        return Status::InvalidArgument("column '" + column->name() +
                                       "' is ambiguous between tables '" +
                                       it->second + "' and '" + name + "'");
      }
    }
    tables[name].table = table;
  }
  auto owner_of = [&](const std::string& column) -> Result<std::string> {
    auto it = column_owner.find(column);
    if (it == column_owner.end()) {
      return Status::NotFound("unknown column '" + column + "'");
    }
    return it->second;
  };
  auto require = [&](const std::string& column) -> Status {
    HETDB_ASSIGN_OR_RETURN(std::string owner, owner_of(column));
    tables[owner].needed.insert(column);
    return Status::OK();
  };
  // Only for resolved columns.
  auto is_string = [&](const std::string& column) {
    const Table& table = *tables[column_owner.at(column)].table;
    return table.GetColumn(column).value()->type() == DataType::kString;
  };

  // Output-producing columns. The kernels compute on numbers only, so
  // arithmetic, and every aggregate but COUNT, over a string column is an
  // error here rather than a trap at run time. A plain column keeps its
  // name: the plan has no rename, so an alias that differs is an error too.
  for (const SelectItem& item : statement.items) {
    if (item.kind == SelectItem::Kind::kExpression &&
        item.expr.IsPlainColumn() && item.OutputName() != item.expr.column) {
      return Status::InvalidArgument("select item '" + item.OutputName() +
                                     "' renames column '" + item.expr.column +
                                     "'; only computed items take an alias");
    }
    if (item.kind == SelectItem::Kind::kAggregate && item.expr.column.empty()) {
      continue;  // COUNT(*)
    }
    const bool computes =
        item.expr.has_arithmetic ||
        (item.kind == SelectItem::Kind::kAggregate &&
         item.fn != AggregateFn::kCount);
    for (const std::string& column : item.expr.Columns()) {
      HETDB_RETURN_NOT_OK(require(column));
      if (computes && is_string(column)) {
        return Status::InvalidArgument("select item '" + item.OutputName() +
                                       "' computes on string column '" +
                                       column + "'");
      }
    }
  }
  for (const std::string& column : statement.group_by) {
    HETDB_RETURN_NOT_OK(require(column));
  }

  // --- 2. Partition WHERE into pushdowns, join edges, residual equalities ---
  struct JoinEdge {
    std::string left_column, right_column;  // left/right table columns
    std::string left_table, right_table;
    bool used = false;
  };
  std::vector<JoinEdge> edges;
  std::vector<std::pair<std::string, std::string>> residual_eq;

  for (const SqlPredicate& predicate : statement.where) {
    HETDB_ASSIGN_OR_RETURN(std::string owner, owner_of(predicate.column));
    switch (predicate.kind) {
      case SqlPredicate::Kind::kCompare:
        tables[owner].filter.conjuncts.push_back(
            Disjunction(MakeComparePredicate(predicate)));
        tables[owner].needed.insert(predicate.column);
        break;
      case SqlPredicate::Kind::kBetween:
        tables[owner].filter.conjuncts.push_back(Disjunction(
            Predicate::Between(predicate.column, predicate.value,
                               predicate.value2)));
        tables[owner].needed.insert(predicate.column);
        break;
      case SqlPredicate::Kind::kIn: {
        Disjunction disjunction;
        for (const Value& value : predicate.in_list) {
          disjunction.atoms.push_back(Predicate::Eq(predicate.column, value));
        }
        tables[owner].filter.conjuncts.push_back(std::move(disjunction));
        tables[owner].needed.insert(predicate.column);
        break;
      }
      case SqlPredicate::Kind::kColumnEq: {
        HETDB_ASSIGN_OR_RETURN(std::string rhs_owner,
                               owner_of(predicate.rhs_column));
        if (owner == rhs_owner) {
          // Same-table column equality: evaluated as a residual filter.
          residual_eq.emplace_back(predicate.column, predicate.rhs_column);
          tables[owner].needed.insert(predicate.column);
          tables[owner].needed.insert(predicate.rhs_column);
        } else {
          JoinEdge edge;
          edge.left_column = predicate.column;
          edge.left_table = owner;
          edge.right_column = predicate.rhs_column;
          edge.right_table = rhs_owner;
          edges.push_back(std::move(edge));
          tables[owner].needed.insert(predicate.column);
          tables[rhs_owner].needed.insert(predicate.rhs_column);
        }
        break;
      }
    }
  }

  // --- 3. Per-table subplans -------------------------------------------------
  auto build_subplan = [&](TableState& state) -> PlanNodePtr {
    std::vector<std::string> columns(state.needed.begin(), state.needed.end());
    PlanNodePtr plan = std::make_shared<ScanNode>(state.table, columns);
    if (!state.filter.empty()) {
      plan = std::make_shared<SelectNode>(std::move(plan), state.filter);
    }
    return plan;
  };

  // Greedy join order: start at the table with the most rows, the probe
  // source that fusion streams, and repeatedly join the connected table whose
  // filter keeps the smallest share of its rows, so the fewest probe rows
  // reach each later join. Equal shares keep the WHERE clause's order. The
  // probe source's share is never estimated: it would read its values.
  std::string start;
  for (const auto& [name, state] : tables) {
    if (start.empty() ||
        state.table->num_rows() > tables[start].table->num_rows()) {
      start = name;
    }
  }
  for (auto& [name, state] : tables) {
    if (name != start) state.share = FilterShare(*state.table, state.filter);
  }
  PlanNodePtr current = build_subplan(tables[start]);
  tables[start].joined = true;
  std::set<std::string> available = tables[start].needed;

  size_t remaining = tables.size() - 1;
  while (remaining > 0) {
    // Pick the unused edge whose other side is joinable and smallest.
    int best_edge = -1;
    std::string best_table;
    for (size_t e = 0; e < edges.size(); ++e) {
      JoinEdge& edge = edges[e];
      if (edge.used) continue;
      std::string candidate;
      if (tables[edge.left_table].joined && !tables[edge.right_table].joined) {
        candidate = edge.right_table;
      } else if (tables[edge.right_table].joined &&
                 !tables[edge.left_table].joined) {
        candidate = edge.left_table;
      } else {
        continue;
      }
      if (best_edge < 0 || tables[candidate].share < tables[best_table].share) {
        best_edge = static_cast<int>(e);
        best_table = candidate;
      }
    }
    if (best_edge < 0) {
      return Status::InvalidArgument(
          "FROM tables are not connected by join predicates");
    }
    JoinEdge& edge = edges[best_edge];
    edge.used = true;
    TableState& other = tables[best_table];
    other.joined = true;
    --remaining;

    const bool new_is_left = edge.left_table == best_table;
    const std::string& new_key = new_is_left ? edge.left_column
                                             : edge.right_column;
    const std::string& cur_key = new_is_left ? edge.right_column
                                             : edge.left_column;

    // Columns needed above this join: outputs + keys of still-unused edges
    // + residual equality columns.
    std::set<std::string> needed_later;
    for (const SelectItem& item : statement.items) {
      if (item.kind == SelectItem::Kind::kAggregate && item.expr.column.empty())
        continue;
      for (const std::string& column : item.expr.Columns()) {
        needed_later.insert(column);
      }
    }
    for (const std::string& column : statement.group_by) {
      needed_later.insert(column);
    }
    for (const JoinEdge& other_edge : edges) {
      if (other_edge.used) continue;
      needed_later.insert(other_edge.left_column);
      needed_later.insert(other_edge.right_column);
    }
    for (const auto& [a, b] : residual_eq) {
      needed_later.insert(a);
      needed_later.insert(b);
    }

    JoinOutputSpec spec;
    for (const std::string& column : other.needed) {
      if (needed_later.count(column) > 0) spec.build_columns.push_back(column);
    }
    for (const std::string& column : available) {
      if (needed_later.count(column) > 0) spec.probe_columns.push_back(column);
    }
    // Build on the new (dimension) side, probe with the running result.
    current = std::make_shared<JoinNode>(build_subplan(other), std::move(current),
                                         new_key, cur_key, spec);
    available.clear();
    available.insert(spec.build_columns.begin(), spec.build_columns.end());
    available.insert(spec.probe_columns.begin(), spec.probe_columns.end());
  }

  // --- 3b. Residual column equalities (e.g. c_nationkey = s_nationkey) -------
  // Each is a projected difference, so it needs numeric columns.
  auto check_residual = [&](const std::string& left,
                            const std::string& right) -> Status {
    for (const std::string& column : {left, right}) {
      if (is_string(column)) {
        return Status::InvalidArgument("residual filter '" + left + " = " +
                                       right + "' compares string column '" +
                                       column + "'");
      }
    }
    return Status::OK();
  };
  for (size_t r = 0; r < residual_eq.size(); ++r) {
    const auto& [left, right] = residual_eq[r];
    HETDB_RETURN_NOT_OK(check_residual(left, right));
    const std::string diff_name = "residual_diff_" + std::to_string(r);
    std::vector<std::string> keep(available.begin(), available.end());
    current = std::make_shared<ProjectNode>(
        std::move(current), keep,
        std::vector<ArithmeticExpr>{ArithmeticExpr::ColumnOp(
            diff_name, ArithmeticExpr::Op::kSub, left, right)});
    current = std::make_shared<SelectNode>(
        std::move(current),
        ConjunctiveFilter::And({Predicate::Eq(diff_name, int64_t{0})}));
  }
  // Unused join edges between already-joined tables are residual too.
  for (size_t e = 0; e < edges.size(); ++e) {
    if (edges[e].used) continue;
    HETDB_RETURN_NOT_OK(
        check_residual(edges[e].left_column, edges[e].right_column));
    const std::string diff_name = "join_diff_" + std::to_string(e);
    std::vector<std::string> keep(available.begin(), available.end());
    current = std::make_shared<ProjectNode>(
        std::move(current), keep,
        std::vector<ArithmeticExpr>{
            ArithmeticExpr::ColumnOp(diff_name, ArithmeticExpr::Op::kSub,
                                     edges[e].left_column,
                                     edges[e].right_column)});
    current = std::make_shared<SelectNode>(
        std::move(current),
        ConjunctiveFilter::And({Predicate::Eq(diff_name, int64_t{0})}));
  }

  // --- 4. Projection / aggregation -------------------------------------------
  const bool has_aggregates =
      std::any_of(statement.items.begin(), statement.items.end(),
                  [](const SelectItem& item) {
                    return item.kind == SelectItem::Kind::kAggregate;
                  });

  const bool grouped = has_aggregates || !statement.group_by.empty();
  if (grouped) {
    // Non-aggregate output items must be grouping columns.
    for (const SelectItem& item : statement.items) {
      if (item.kind == SelectItem::Kind::kAggregate) continue;
      if (!item.expr.IsPlainColumn() ||
          std::find(statement.group_by.begin(), statement.group_by.end(),
                    item.expr.column) == statement.group_by.end()) {
        return Status::InvalidArgument(
            "select item '" + item.OutputName() +
            "' must be an aggregate or a GROUP BY column");
      }
    }
    // Compute arithmetic aggregate arguments first.
    std::vector<ArithmeticExpr> pre_exprs;
    std::vector<AggregateSpec> aggregates;
    int arg_counter = 0;
    for (const SelectItem& item : statement.items) {
      if (item.kind != SelectItem::Kind::kAggregate) continue;
      AggregateSpec spec;
      spec.fn = item.fn;
      spec.output_name = item.OutputName();
      if (item.expr.column.empty() ||
          (item.fn == AggregateFn::kCount && is_string(item.expr.column))) {
        // COUNT(*); COUNT(<string column>) counts the same rows, as columns
        // hold no NULLs.
        spec.input_column = "";
      } else if (item.expr.IsPlainColumn()) {
        spec.input_column = item.expr.column;
      } else {
        const std::string arg_name = "agg_arg_" + std::to_string(arg_counter++);
        ArithmeticExpr expr;
        expr.output_name = arg_name;
        expr.op = item.expr.op;
        expr.left_column = item.expr.column;
        if (item.expr.rhs_is_constant) {
          expr.right_constant = item.expr.rhs_constant;
        } else {
          expr.right_column = item.expr.rhs_column;
        }
        pre_exprs.push_back(std::move(expr));
        spec.input_column = arg_name;
      }
      aggregates.push_back(std::move(spec));
    }
    if (!pre_exprs.empty()) {
      std::vector<std::string> keep = statement.group_by;
      // Plain-column aggregate arguments must survive the projection too.
      for (const AggregateSpec& spec : aggregates) {
        if (!spec.input_column.empty() &&
            spec.input_column.rfind("agg_arg_", 0) != 0 &&
            std::find(keep.begin(), keep.end(), spec.input_column) ==
                keep.end()) {
          keep.push_back(spec.input_column);
        }
      }
      current = std::make_shared<ProjectNode>(std::move(current), keep,
                                              pre_exprs);
    }
    current = std::make_shared<AggregateNode>(std::move(current),
                                              statement.group_by, aggregates);
  } else {
    // Pure projection.
    std::vector<std::string> keep;
    std::vector<ArithmeticExpr> exprs;
    for (const SelectItem& item : statement.items) {
      if (item.expr.IsPlainColumn()) {
        keep.push_back(item.expr.column);
        continue;
      }
      ArithmeticExpr expr;
      expr.output_name = item.OutputName();
      expr.op = item.expr.op;
      expr.left_column = item.expr.column;
      if (item.expr.rhs_is_constant) {
        expr.right_constant = item.expr.rhs_constant;
      } else {
        expr.right_column = item.expr.rhs_column;
      }
      exprs.push_back(std::move(expr));
    }
    current = std::make_shared<ProjectNode>(std::move(current), keep, exprs);
  }

  // --- 5. ORDER BY / LIMIT ----------------------------------------------------
  // A sort key names an output column: a select item or, grouped, a GROUP BY
  // column.
  for (const SortKey& key : statement.order_by) {
    const bool is_output =
        std::any_of(statement.items.begin(), statement.items.end(),
                    [&](const SelectItem& item) {
                      return item.OutputName() == key.column;
                    }) ||
        (grouped && std::find(statement.group_by.begin(),
                              statement.group_by.end(),
                              key.column) != statement.group_by.end());
    if (!is_output) {
      return Status::InvalidArgument("ORDER BY key '" + key.column +
                                     "' is not an output column");
    }
  }
  if (!statement.order_by.empty()) {
    current = std::make_shared<SortNode>(std::move(current),
                                         statement.order_by);
  }
  if (statement.limit.has_value()) {
    current = std::make_shared<LimitNode>(std::move(current),
                                          *statement.limit);
  }
  return current;
}

Result<PlanNodePtr> PlanSql(const std::string& sql, const Database& db) {
  HETDB_ASSIGN_OR_RETURN(SelectStatement statement, ParseSelect(sql));
  return PlanQuery(statement, db);
}

}  // namespace hetdb
