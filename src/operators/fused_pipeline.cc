#include "operators/fused_pipeline.h"

#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "operators/kernels_internal.h"

namespace hetdb {

using namespace kernel_internal;  // NOLINT — shared kernel building blocks

namespace {

// ---------------------------------------------------------------------------
// Runtime binding
// ---------------------------------------------------------------------------

/// Where a pipeline-schema column lives while the chain runs unmaterialized:
/// in the source table, in one join level's build table, or computed on the
/// fly from a project expression.
struct Binding {
  enum class Kind { kSource, kBuild, kComputed };
  Kind kind = Kind::kSource;
  int build_level = -1;  ///< kBuild: which join level's build table
  ColumnPtr column;      ///< kSource/kBuild: the physical column
  int computed = -1;     ///< kComputed: index into BoundChain::computed
};

/// One column of the pipeline's logical schema at some point in the chain
/// (names follow join/project renames; bindings stay physical).
struct SchemaCol {
  std::string name;
  Binding binding;
};

/// One project expression lowered against the pipeline schema. The
/// `integer_result` rule is byte-for-byte the one in Project().
struct ComputedCol {
  ArithmeticExpr expr;
  Binding left;
  Binding right;  ///< unused when expr.right_column is empty
  bool integer_result = false;
};

/// One join member lowered: where the probe key lives plus the build side.
/// The probe key is additionally resolved to a typed raw pointer (binding
/// with every input guarantees an integer column), so the match loop reads
/// it without a per-row IntKeyAt call.
struct BoundJoin {
  Binding probe_key;
  ColumnPtr build_key;
  const int32_t* key_i32 = nullptr;
  const int64_t* key_i64 = nullptr;

  int64_t KeyAt(size_t row) const {
    return key_i32 != nullptr ? key_i32[row] : key_i64[row];
  }
};

/// One aggregate input lowered: COUNT(*), a physical column, or a computed
/// expression evaluated per match.
struct AggBinding {
  bool count_star = false;
  Binding binding;
};

struct BoundChain {
  /// Every select member's CNF, compiled against the source table (all
  /// predicates are source-bound or binding declines).
  CompiledCnf conjuncts;
  std::vector<BoundJoin> joins;  ///< bottom-up join levels
  std::vector<ComputedCol> computed;
  std::vector<SchemaCol> schema;  ///< output schema (non-aggregate terminal)
  const AggregateNode* aggregate = nullptr;
  std::vector<Binding> group_bindings;
  std::vector<AggBinding> agg_bindings;
  std::string output_name;  ///< table name the top member's kernel would use
};

const char* KernelTableName(PlanOp op) {
  switch (op) {
    case PlanOp::kSelect:
      return "select";
    case PlanOp::kJoin:
      return "join";
    case PlanOp::kProject:
      return "project";
    case PlanOp::kAggregate:
      return "aggregate";
    default:
      return "fused";
  }
}

bool HasDuplicateNames(const std::vector<SchemaCol>& schema) {
  std::unordered_set<std::string> seen;
  for (const SchemaCol& col : schema) {
    if (!seen.insert(col.name).second) return true;
  }
  return false;
}

bool IsIntegerColumn(const Column& column) {
  return column.type() == DataType::kInt32 ||
         column.type() == DataType::kInt64;
}

/// Lowers the member chain against the input tables, the only fusability
/// rule. A build table that is absent (null or past the end of `inputs`:
/// the plan rewrite binds before any build runs) binds its columns
/// provisionally, with a null ColumnPtr and so no type; such a binding is
/// only ever asked whether it succeeds. Any status other than OK means "run
/// the operator-at-a-time fallback instead" — the fallback reproduces the
/// unfused semantics (including genuine query errors) exactly, so declining
/// here is always safe.
Result<BoundChain> BindChain(const std::vector<PlanNodePtr>& members,
                             const std::vector<TablePtr>& inputs) {
  BoundChain bound;
  const Table& source = *inputs[0];
  std::vector<SchemaCol> schema;
  for (const ColumnPtr& column : source.columns()) {
    schema.push_back({column->name(),
                      {Binding::Kind::kSource, -1, column, -1}});
  }
  auto find = [&schema](const std::string& name) -> const SchemaCol* {
    for (const SchemaCol& col : schema) {
      if (col.name == name) return &col;
    }
    return nullptr;
  };

  size_t join_level = 0;
  for (size_t m = 0; m < members.size(); ++m) {
    const PlanNode& member = *members[m];
    switch (member.op()) {
      case PlanOp::kSelect: {
        // Compile against the source table under each column's physical
        // name (the schema name may be a join alias).
        ConjunctiveFilter filter =
            static_cast<const SelectNode&>(member).filter();
        for (Disjunction& disjunction : filter.conjuncts) {
          for (Predicate& atom : disjunction.atoms) {
            const SchemaCol* col = find(atom.column);
            if (col == nullptr ||
                col->binding.kind != Binding::Kind::kSource) {
              return Status::NotImplemented("filter not source-bound");
            }
            atom.column = col->binding.column->name();
          }
        }
        HETDB_ASSIGN_OR_RETURN(CompiledCnf cnf, CompileCnf(source, filter));
        for (std::vector<CompiledAtom>& atoms : cnf) {
          bound.conjuncts.push_back(std::move(atoms));
        }
        break;
      }
      case PlanOp::kJoin: {
        const auto& join = static_cast<const JoinNode&>(member);
        const Table* build = 1 + join_level < inputs.size()
                                 ? inputs[1 + join_level].get()
                                 : nullptr;
        const SchemaCol* probe = find(join.probe_key());
        if (probe == nullptr ||
            probe->binding.kind == Binding::Kind::kComputed ||
            (probe->binding.column != nullptr &&
             !IsIntegerColumn(*probe->binding.column))) {
          return Status::NotImplemented("probe key not integer-column-bound");
        }
        ColumnPtr build_key;
        if (build != nullptr) {
          HETDB_ASSIGN_OR_RETURN(build_key, build->GetColumn(join.build_key()));
          if (!IsIntegerColumn(*build_key)) {
            return Status::NotImplemented("build key not integer");
          }
        }
        const JoinOutputSpec& spec = join.output_spec();
        if ((!spec.build_aliases.empty() &&
             spec.build_aliases.size() != spec.build_columns.size()) ||
            (!spec.probe_aliases.empty() &&
             spec.probe_aliases.size() != spec.probe_columns.size())) {
          return Status::NotImplemented("alias size mismatch");
        }
        BoundJoin bound_join;
        bound_join.probe_key = probe->binding;
        bound_join.build_key = std::move(build_key);
        if (const Column* probe_col = probe->binding.column.get()) {
          if (probe_col->type() == DataType::kInt32) {
            bound_join.key_i32 =
                static_cast<const Int32Column&>(*probe_col).values().data();
          } else {
            bound_join.key_i64 =
                static_cast<const Int64Column&>(*probe_col).values().data();
          }
        }
        bound.joins.push_back(std::move(bound_join));
        // The join's output schema replaces the current one: build columns
        // first, then probe columns, honoring aliases (MaterializeJoinOutput
        // order).
        std::vector<SchemaCol> next;
        for (size_t i = 0; i < spec.build_columns.size(); ++i) {
          ColumnPtr column;
          if (build != nullptr) {
            HETDB_ASSIGN_OR_RETURN(column,
                                   build->GetColumn(spec.build_columns[i]));
          }
          const std::string& out_name = spec.build_aliases.empty()
                                            ? spec.build_columns[i]
                                            : spec.build_aliases[i];
          next.push_back({out_name,
                          {Binding::Kind::kBuild,
                           static_cast<int>(join_level), column, -1}});
        }
        for (size_t i = 0; i < spec.probe_columns.size(); ++i) {
          const SchemaCol* col = find(spec.probe_columns[i]);
          if (col == nullptr) {
            return Status::NotImplemented("probe column not in schema");
          }
          const std::string& out_name = spec.probe_aliases.empty()
                                            ? spec.probe_columns[i]
                                            : spec.probe_aliases[i];
          next.push_back({out_name, col->binding});
        }
        if (HasDuplicateNames(next)) {
          return Status::NotImplemented("duplicate output column");
        }
        schema = std::move(next);
        ++join_level;
        break;
      }
      case PlanOp::kProject: {
        const auto& project = static_cast<const ProjectNode&>(member);
        std::vector<SchemaCol> next;
        for (const std::string& name : project.keep_columns()) {
          const SchemaCol* col = find(name);
          if (col == nullptr) {
            return Status::NotImplemented("keep column not in schema");
          }
          next.push_back(*col);
        }
        for (const ArithmeticExpr& expr : project.expressions()) {
          const SchemaCol* left = find(expr.left_column);
          if (left == nullptr ||
              left->binding.kind == Binding::Kind::kComputed) {
            return Status::NotImplemented("expr input not column-bound");
          }
          ComputedCol cc;
          cc.expr = expr;
          cc.left = left->binding;
          if (!expr.right_column.empty()) {
            const SchemaCol* right = find(expr.right_column);
            if (right == nullptr ||
                right->binding.kind == Binding::Kind::kComputed) {
              return Status::NotImplemented("expr input not column-bound");
            }
            cc.right = right->binding;
          }
          // A provisional build column has no type; the binding that
          // evaluates the expression has every input.
          auto is_double = [](const Binding& b) {
            return b.column != nullptr &&
                   b.column->type() == DataType::kDouble;
          };
          cc.integer_result =
              expr.op != ArithmeticExpr::Op::kDiv && !is_double(cc.left) &&
              (expr.right_column.empty()
                   ? expr.right_constant == std::floor(expr.right_constant)
                   : !is_double(cc.right));
          bound.computed.push_back(cc);
          next.push_back({expr.output_name,
                          {Binding::Kind::kComputed, -1, nullptr,
                           static_cast<int>(bound.computed.size()) - 1}});
        }
        if (HasDuplicateNames(next)) {
          return Status::NotImplemented("duplicate output column");
        }
        schema = std::move(next);
        break;
      }
      case PlanOp::kAggregate: {
        if (m + 1 != members.size()) {
          return Status::NotImplemented("aggregate must terminate pipeline");
        }
        const auto& agg = static_cast<const AggregateNode&>(member);
        for (const std::string& name : agg.group_by()) {
          const SchemaCol* col = find(name);
          if (col == nullptr ||
              col->binding.kind == Binding::Kind::kComputed) {
            return Status::NotImplemented("group key not column-bound");
          }
          bound.group_bindings.push_back(col->binding);
        }
        for (const AggregateSpec& spec : agg.aggregates()) {
          AggBinding ab;
          if (spec.fn == AggregateFn::kCount && spec.input_column.empty()) {
            ab.count_star = true;
          } else {
            const SchemaCol* col = find(spec.input_column);
            if (col == nullptr) {
              return Status::NotImplemented("aggregate input not in schema");
            }
            ab.binding = col->binding;
          }
          bound.agg_bindings.push_back(std::move(ab));
        }
        bound.aggregate = &agg;
        break;
      }
      default:
        return Status::NotImplemented("unfusable member");
    }
  }
  bound.schema = std::move(schema);
  bound.output_name = KernelTableName(members.back()->op());
  return bound;
}

// ---------------------------------------------------------------------------
// Match enumeration
// ---------------------------------------------------------------------------

/// Match tuples as row-id streams: stream 0 holds source rows, stream 1 + j
/// the build rows of join level j.
using MatchRows = std::vector<std::vector<uint32_t>>;

/// Depth-first nested probe from `level` for one surviving source row.
/// Enumerates matches in (source asc, build_0 asc, build_1 asc, ...) order —
/// exactly the lexicographic row order the unfused join cascade produces.
void EmitMatches(const BoundChain& bound, const std::vector<JoinTable>& tables,
                 size_t level, uint32_t src_row, uint32_t* cur,
                 MatchRows* streams) {
  const BoundJoin& join = bound.joins[level];
  const size_t key_row = join.probe_key.kind == Binding::Kind::kSource
                             ? src_row
                             : cur[join.probe_key.build_level];
  const JoinTable& table = tables[level];
  for (uint32_t e = table.First(join.KeyAt(key_row)); e != kNoEntry;
       e = table.Next(e)) {
    cur[level] = e;
    if (level + 1 == bound.joins.size()) {
      (*streams)[0].push_back(src_row);
      for (size_t j = 0; j < bound.joins.size(); ++j) {
        (*streams)[1 + j].push_back(cur[j]);
      }
    } else {
      EmitMatches(bound, tables, level + 1, src_row, cur, streams);
    }
  }
}

/// The stream of MatchRows that binding `b`'s rows come from.
size_t StreamOf(const Binding& b) {
  return b.kind == Binding::Kind::kSource ? 0 : 1 + b.build_level;
}

/// Row in the bound table that match tuple `t` refers to for binding `b`.
uint32_t RowOf(const Binding& b, size_t t, const MatchRows& rows) {
  return rows[StreamOf(b)][t];
}

double ApplyArithmetic(ArithmeticExpr::Op op, double a, double b) {
  switch (op) {
    case ArithmeticExpr::Op::kAdd:
      return a + b;
    case ArithmeticExpr::Op::kSub:
      return a - b;
    case ArithmeticExpr::Op::kMul:
      return a * b;
    case ArithmeticExpr::Op::kDiv:
      return b == 0 ? 0 : a / b;
    case ArithmeticExpr::Op::kRsub:
      return b - a;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Terminal stages
// ---------------------------------------------------------------------------

ColumnPtr MaterializeComputed(const ComputedCol& cc, const std::string& name,
                              const MatchRows& rows) {
  const size_t total = rows[0].size();
  auto value_at = [&](const Binding& b, size_t t) -> double {
    return NumericAt(*b.column, RowOf(b, t, rows));
  };
  auto right_at = [&](size_t t) -> double {
    return cc.expr.right_column.empty() ? cc.expr.right_constant
                                        : value_at(cc.right, t);
  };
  if (cc.integer_result) {
    std::vector<int64_t> values(total);
    for (size_t t = 0; t < total; ++t) {
      values[t] = static_cast<int64_t>(
          ApplyArithmetic(cc.expr.op, value_at(cc.left, t), right_at(t)));
    }
    return std::make_shared<Int64Column>(name, std::move(values));
  }
  std::vector<double> values(total);
  for (size_t t = 0; t < total; ++t) {
    values[t] = ApplyArithmetic(cc.expr.op, value_at(cc.left, t), right_at(t));
  }
  return std::make_shared<DoubleColumn>(name, std::move(values));
}

Result<TablePtr> MaterializeMatches(const BoundChain& bound,
                                    const MatchRows& rows) {
  auto output = std::make_shared<Table>(bound.output_name);
  for (const SchemaCol& col : bound.schema) {
    HETDB_RETURN_NOT_OK(output->AddColumn(
        col.binding.kind == Binding::Kind::kComputed
            ? MaterializeComputed(bound.computed[col.binding.computed],
                                  col.name, rows)
            : GatherColumn(*col.binding.column, rows[StreamOf(col.binding)],
                           col.name)));
  }
  if (bound.schema.empty()) output->set_num_rows(rows[0].size());
  return output;
}

Result<TablePtr> AggregateMatches(const BoundChain& bound,
                                  const MatchRows& rows) {
  const AggregateNode& agg = *bound.aggregate;
  const size_t total = rows[0].size();

  // Group discovery: first-seen group order over matches in ascending
  // order — the same order the unfused chain's intermediate table has.
  // Packed 64-bit keys when the composite fits (each field sized by its
  // whole column, a superset of the rows any match touches); byte-encoded
  // int64 keys (string columns contribute their dictionary code,
  // AggregateReference's encoding) otherwise. Both number groups the same.
  std::vector<uint32_t> representative;  // first match tuple per group
  std::vector<uint32_t> group_of(total);
  std::vector<const Column*> key_columns;
  for (const Binding& b : bound.group_bindings) {
    key_columns.push_back(b.column.get());
  }
  if (const std::optional<GroupKeyPacker> packer =
          GroupKeyPacker::Make(key_columns)) {
    GroupTable groups;
    for (size_t t = 0; t < total; ++t) {
      uint64_t key = 0;
      for (const GroupKeyPacker::Field& field : packer->fields()) {
        key |= field.Bits(RowOf(bound.group_bindings[field.column], t, rows));
      }
      const uint32_t gid = groups.FindOrAdd(key);
      if (gid == representative.size()) {
        representative.push_back(static_cast<uint32_t>(t));
      }
      group_of[t] = gid;
    }
  } else {
    std::unordered_map<std::string, uint32_t> groups;
    std::string key;
    for (size_t t = 0; t < total; ++t) {
      key.clear();
      for (const Binding& b : bound.group_bindings) {
        const uint32_t row = RowOf(b, t, rows);
        int64_t encoded;
        if (b.column->type() == DataType::kString) {
          encoded = static_cast<const StringColumn&>(*b.column).code(row);
        } else {
          encoded = IntKeyAt(*b.column, row);
        }
        key.append(reinterpret_cast<const char*>(&encoded), sizeof(encoded));
      }
      auto [it, inserted] =
          groups.emplace(key, static_cast<uint32_t>(representative.size()));
      if (inserted) representative.push_back(static_cast<uint32_t>(t));
      group_of[t] = it->second;
    }
  }
  // A global aggregate has one group even over zero matches, as in
  // AggregateReference.
  const size_t num_groups =
      bound.group_bindings.empty() ? 1 : representative.size();

  // Classify inputs: physical columns via the shared ClassifyAggInput
  // (identical typing + the same fatal on strings), computed expressions by
  // their Project output type.
  const size_t num_aggs = bound.agg_bindings.size();
  std::vector<AggInput> inputs(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggBinding& ab = bound.agg_bindings[a];
    if (ab.count_star) {
      inputs[a].kind = AggInput::Kind::kCountStar;
    } else if (ab.binding.kind == Binding::Kind::kComputed) {
      inputs[a].kind = bound.computed[ab.binding.computed].integer_result
                           ? AggInput::Kind::kInt64
                           : AggInput::Kind::kDouble;
    } else {
      inputs[a] = ClassifyAggInput(ab.binding.column, total);
    }
  }

  // One pass over the matches in ascending order: per-group double sums
  // accumulate in exactly the order the unfused aggregates fix.
  std::vector<std::vector<Acc>> accs(num_aggs, std::vector<Acc>(num_groups));
  for (size_t t = 0; t < total; ++t) {
    const uint32_t g = group_of[t];
    for (size_t a = 0; a < num_aggs; ++a) {
      const AggBinding& ab = bound.agg_bindings[a];
      Acc& acc = accs[a][g];
      if (ab.count_star) {
        ++acc.count;
        continue;
      }
      if (ab.binding.kind == Binding::Kind::kComputed) {
        const ComputedCol& cc = bound.computed[ab.binding.computed];
        const double left =
            NumericAt(*cc.left.column, RowOf(cc.left, t, rows));
        const double right =
            cc.expr.right_column.empty()
                ? cc.expr.right_constant
                : NumericAt(*cc.right.column, RowOf(cc.right, t, rows));
        const double v = ApplyArithmetic(cc.expr.op, left, right);
        if (cc.integer_result) {
          UpdateAccInt(static_cast<int64_t>(v), acc);
        } else {
          UpdateAccDouble(v, acc);
        }
        continue;
      }
      UpdateAcc(inputs[a], RowOf(ab.binding, t, rows), acc);
    }
  }

  auto output = std::make_shared<Table>(bound.output_name);
  const std::vector<std::string>& group_names = agg.group_by();
  for (size_t gi = 0; gi < bound.group_bindings.size(); ++gi) {
    const Binding& b = bound.group_bindings[gi];
    std::vector<uint32_t> group_rows(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      group_rows[g] = RowOf(b, representative[g], rows);
    }
    HETDB_RETURN_NOT_OK(output->AddColumn(
        GatherColumn(*b.column, group_rows, group_names[gi])));
  }
  HETDB_RETURN_NOT_OK(AppendAggregateColumns(agg.aggregates(), inputs, accs,
                                             num_groups, output.get()));
  return output;
}

// ---------------------------------------------------------------------------
// Fused evaluation
// ---------------------------------------------------------------------------

Result<TablePtr> EvaluateBoundChain(const BoundChain& bound,
                                    const std::vector<TablePtr>& inputs,
                                    KernelStats& stats) {
  const Table& source = *inputs[0];
  const size_t n = source.num_rows();
  const size_t num_joins = bound.joins.size();

  std::vector<JoinTable> tables;
  tables.reserve(num_joins);
  for (const BoundJoin& join : bound.joins) {
    tables.emplace_back(*join.build_key, stats);
  }

  // Stage 1: morsel loop — compiled CNF keep-mask, survivors probe the join
  // levels straight out of the mask into per-morsel match buffers. No column
  // data moves; only row indices are written.
  const size_t morsel = MorselRows();
  const size_t num_morsels = n == 0 ? 0 : (n + morsel - 1) / morsel;
  const int max_workers = MaxParallelWorkers(n, morsel);

  MorselRowBuffers buffers(num_morsels);  // MatchRows streams per morsel
  std::vector<std::vector<uint8_t>> keep_scratch(max_workers);
  std::vector<std::vector<uint8_t>> dis_scratch(max_workers);
  std::vector<std::vector<uint32_t>> surv_scratch(max_workers);
  std::vector<std::vector<uint32_t>> cur_scratch(max_workers);

  auto body = [&](size_t begin, size_t end, int worker) {
    const size_t len = end - begin;
    std::vector<uint8_t>& keep = keep_scratch[worker];
    std::vector<uint32_t>& surv = surv_scratch[worker];
    if (keep.size() < morsel) keep.resize(morsel);
    if (surv.size() < morsel) surv.resize(morsel);
    CnfKeepMask(bound.conjuncts, begin, len, keep.data(), &dis_scratch[worker]);
    const size_t survivors =
        CompactKeptRows(keep.data(), begin, len, surv.data());
    if (survivors == 0) return;
    MatchRows& streams = buffers[begin / morsel];
    streams.resize(1 + num_joins);
    std::vector<uint32_t>& src_buf = streams[0];
    if (num_joins == 0) {
      src_buf.assign(surv.begin(), surv.begin() + survivors);
      return;
    }
    for (std::vector<uint32_t>& buf : streams) buf.reserve(survivors);
    if (num_joins == 1) {
      // Flat single-level probe: a level-0 key is always source-bound, so
      // the chain walk inlines with no recursion and no dispatch.
      const BoundJoin& join = bound.joins[0];
      const JoinTable& table = tables[0];
      std::vector<uint32_t>& lvl0 = streams[1];
      for (size_t s = 0; s < survivors; ++s) {
        const uint32_t i = surv[s];
        for (uint32_t e = table.First(join.KeyAt(i)); e != kNoEntry;
             e = table.Next(e)) {
          src_buf.push_back(i);
          lvl0.push_back(e);
        }
      }
      return;
    }
    std::vector<uint32_t>& cur = cur_scratch[worker];
    cur.resize(num_joins);
    for (size_t s = 0; s < survivors; ++s) {
      EmitMatches(bound, tables, 0, surv[s], cur.data(), &streams);
    }
  };

  const int workers = ParallelFor(n, morsel, body);
  RecordLoop(stats, n, morsel, workers);

  // Stage 2: concat the per-morsel buffers — morsel order is source-row
  // order, so the global match list is ascending.
  const MatchRows rows = ConcatMorselRows(buffers, 1 + num_joins);

  // Stage 3: terminal — gather the output columns once, or fold the matches
  // straight into aggregation accumulators.
  if (bound.aggregate != nullptr) return AggregateMatches(bound, rows);
  return MaterializeMatches(bound, rows);
}

}  // namespace

// ---------------------------------------------------------------------------
// FusedPipelineNode
// ---------------------------------------------------------------------------

FusedPipelineNode::FusedPipelineNode(std::vector<PlanNodePtr> children,
                                     std::vector<PlanNodePtr> members)
    : PlanNode(PlanOp::kFusedPipeline, std::move(children)),
      members_(std::move(members)) {
  HETDB_CHECK(!members_.empty());
  for (const PlanNodePtr& member : members_) {
    HETDB_CHECK(member != nullptr);
    if (member->op() == PlanOp::kJoin) ++num_joins_;
  }
  HETDB_CHECK(this->children().size() == 1 + num_joins_);
}

bool FusedPipelineNode::Binds(const std::vector<PlanNodePtr>& members,
                              const ScanNode& source) {
  auto table = std::make_shared<Table>(source.table()->name());
  for (const auto& [key, column] : source.base_columns()) {
    if (!table->AddColumn(column).ok()) return false;
  }
  return BindChain(members, {std::move(table)}).ok();
}

OpClass FusedPipelineNode::op_class() const {
  if (num_joins_ > 0) return OpClass::kJoin;
  if (members_.back()->op() == PlanOp::kAggregate) return OpClass::kAggregate;
  return OpClass::kScan;
}

size_t FusedPipelineNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  // Only the per-join build hash tables stay resident while the fused morsel
  // loop streams the source: no flag arrays, no gathered intermediates, no
  // per-member result buffers (DESIGN.md §11).
  size_t bytes = 0;
  for (size_t j = 0; j < num_joins_; ++j) {
    if (1 + j < inputs.size() && inputs[1 + j] != nullptr) {
      bytes += 2 * inputs[1 + j]->data_bytes();
    }
  }
  return bytes;
}

size_t FusedPipelineNode::ResultDeviceBytesBound(
    const std::vector<TablePtr>& inputs) const {
  // Binding reads the source's schema and dictionaries, never its rows. A
  // chain that does not bind replays its members: no bound.
  Result<BoundChain> bound = BindChain(members_, inputs);
  if (!bound.ok()) return std::numeric_limits<size_t>::max();
  if (bound->aggregate != nullptr) {
    // The groups, by the input that supplies each group-by column: value
    // ranges may come from the build sides only, the source streams.
    std::vector<GroupKeySource> sources(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      sources[i].rows = inputs[i]->num_rows();
      sources[i].scan_values = i > 0;
    }
    for (const Binding& b : bound->group_bindings) {
      sources[StreamOf(b)].columns.push_back(b.column.get());
    }
    return AggregateResultBytesBound(sources,
                                     bound->aggregate->aggregates().size());
  }
  // One output row per match; each join level multiplies a match by at
  // most its build side's largest key multiplicity.
  size_t matches = inputs[0]->num_rows();
  for (const BoundJoin& join : bound->joins) {
    matches = SaturatingMul(matches, MaxKeyMultiplicity(*join.build_key));
  }
  size_t bytes = 0;
  for (const SchemaCol& col : bound->schema) {
    bytes = SaturatingAdd(
        bytes, col.binding.kind == Binding::Kind::kComputed
                   ? SaturatingMul(matches, sizeof(int64_t))
                   : GatheredBytes(*col.binding.column, matches));
  }
  return bytes;
}

std::string FusedPipelineNode::label() const {
  std::ostringstream os;
  os << "fused[";
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) os << " -> ";
    os << members_[i]->label();
  }
  os << "]";
  return os.str();
}

Result<TablePtr> FusedPipelineNode::ReplayMembers(
    const std::vector<TablePtr>& inputs) const {
  TablePtr current = inputs[0];
  size_t next_build = 1;
  for (const PlanNodePtr& member : members_) {
    std::vector<TablePtr> member_inputs;
    if (member->op() == PlanOp::kJoin) {
      member_inputs = {inputs[next_build++], current};
    } else {
      member_inputs = {current};
    }
    HETDB_ASSIGN_OR_RETURN(current, member->ComputeResult(member_inputs));
  }
  return current;
}

Result<TablePtr> FusedPipelineNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  static KernelStats stats("fused_pipeline");
  KernelTimer timer(stats);
  HETDB_CHECK(inputs.size() == 1 + num_joins_);
  for (const TablePtr& input : inputs) {
    HETDB_CHECK(input != nullptr);
  }
  Result<BoundChain> bound = BindChain(members_, inputs);
  if (!bound.ok()) {
    // A chain the rewrite fused declines only on a build side, and each
    // such shape is an error of the unfused join too: replay the members
    // operator-at-a-time for the exact unfused error.
    return ReplayMembers(inputs);
  }
  return EvaluateBoundChain(bound.value(), inputs, stats);
}

}  // namespace hetdb
