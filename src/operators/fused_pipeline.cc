#include "operators/fused_pipeline.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
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
/// guarantees an integer column), so the match loop reads it without a
/// per-row IntKeyAt call.
struct BoundJoin {
  Binding probe_key;
  ColumnPtr build_key;
  size_t build_rows = 0;
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
  std::vector<std::vector<CompiledAtom>> conjuncts;
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

/// Lowers the member chain against the actual input tables. Any status
/// other than OK means "run the operator-at-a-time fallback instead" — the
/// fallback reproduces the unfused semantics (including genuine query
/// errors) exactly, so declining here is always safe.
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
        const auto& select = static_cast<const SelectNode&>(member);
        for (const Disjunction& disjunction : select.filter().conjuncts) {
          std::vector<CompiledAtom> atoms;
          atoms.reserve(disjunction.atoms.size());
          for (const Predicate& atom : disjunction.atoms) {
            const SchemaCol* col = find(atom.column);
            if (col == nullptr ||
                col->binding.kind != Binding::Kind::kSource) {
              return Status::NotImplemented("filter not source-bound");
            }
            // Compile against the source table under the column's physical
            // name (the schema name may be a join alias).
            Predicate rewritten = atom;
            rewritten.column = col->binding.column->name();
            HETDB_ASSIGN_OR_RETURN(CompiledAtom compiled,
                                   CompileAtom(source, rewritten));
            atoms.push_back(compiled);
          }
          bound.conjuncts.push_back(std::move(atoms));
        }
        break;
      }
      case PlanOp::kJoin: {
        const auto& join = static_cast<const JoinNode&>(member);
        if (1 + join_level >= inputs.size() ||
            inputs[1 + join_level] == nullptr) {
          return Status::NotImplemented("missing build input");
        }
        const Table& build = *inputs[1 + join_level];
        const SchemaCol* probe = find(join.probe_key());
        if (probe == nullptr ||
            probe->binding.kind == Binding::Kind::kComputed ||
            !IsIntegerColumn(*probe->binding.column)) {
          return Status::NotImplemented("probe key not integer-column-bound");
        }
        HETDB_ASSIGN_OR_RETURN(ColumnPtr build_key,
                               build.GetColumn(join.build_key()));
        if (!IsIntegerColumn(*build_key)) {
          return Status::NotImplemented("build key not integer");
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
        bound_join.build_rows = build.num_rows();
        const Column& probe_col = *probe->binding.column;
        if (probe_col.type() == DataType::kInt32) {
          bound_join.key_i32 =
              static_cast<const Int32Column&>(probe_col).values().data();
        } else {
          bound_join.key_i64 =
              static_cast<const Int64Column&>(probe_col).values().data();
        }
        bound.joins.push_back(std::move(bound_join));
        // The join's output schema replaces the current one: build columns
        // first, then probe columns, honoring aliases (MaterializeJoinOutput
        // order).
        std::vector<SchemaCol> next;
        for (size_t i = 0; i < spec.build_columns.size(); ++i) {
          HETDB_ASSIGN_OR_RETURN(ColumnPtr column,
                                 build.GetColumn(spec.build_columns[i]));
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
          cc.integer_result =
              expr.op != ArithmeticExpr::Op::kDiv &&
              cc.left.column->type() != DataType::kDouble &&
              (expr.right_column.empty()
                   ? expr.right_constant == std::floor(expr.right_constant)
                   : cc.right.column->type() != DataType::kDouble);
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
// Join tables
// ---------------------------------------------------------------------------

/// Per-join build-side lookup structure: a direct-address table over
/// [min, max] for dense key domains (the same `max(8192, 8x rows)` density
/// rule as the parallel hash join), a hash map otherwise. Duplicate build
/// rows chain through `next` in ascending-row order, so enumeration replays
/// the (probe ascending, build ascending within key) order of the unfused
/// hash join and its reference.
struct FusedJoinTable {
  bool dense = false;
  int64_t min_key = 0;
  uint64_t range = 0;
  std::vector<uint32_t> heads;
  std::unordered_map<int64_t, uint32_t> sparse;
  std::vector<uint32_t> next;

  uint32_t First(int64_t key) const {
    if (dense) {
      const uint64_t k =
          static_cast<uint64_t>(key) - static_cast<uint64_t>(min_key);
      return k > range ? kNoEntry : heads[k];
    }
    auto it = sparse.find(key);
    return it == sparse.end() ? kNoEntry : it->second;
  }
};

FusedJoinTable BuildJoinTable(const Column& key_col, size_t rows) {
  FusedJoinTable jt;
  jt.next.assign(rows, kNoEntry);
  if (rows == 0) return jt;
  int64_t min_key = IntKeyAt(key_col, 0);
  int64_t max_key = min_key;
  for (size_t i = 1; i < rows; ++i) {
    const int64_t k = IntKeyAt(key_col, i);
    min_key = std::min(min_key, k);
    max_key = std::max(max_key, k);
  }
  const uint64_t range =
      static_cast<uint64_t>(max_key) - static_cast<uint64_t>(min_key);
  const uint64_t dense_limit =
      std::max<uint64_t>(8192, 8 * static_cast<uint64_t>(rows));
  if (range < dense_limit) {
    jt.dense = true;
    jt.min_key = min_key;
    jt.range = range;
    jt.heads.assign(range + 1, kNoEntry);
    std::vector<uint32_t> tails(range + 1, kNoEntry);
    for (size_t i = 0; i < rows; ++i) {
      const uint64_t k = static_cast<uint64_t>(IntKeyAt(key_col, i)) -
                         static_cast<uint64_t>(min_key);
      if (jt.heads[k] == kNoEntry) {
        jt.heads[k] = static_cast<uint32_t>(i);
      } else {
        jt.next[tails[k]] = static_cast<uint32_t>(i);
      }
      tails[k] = static_cast<uint32_t>(i);
    }
  } else {
    std::unordered_map<int64_t, uint32_t> tails;
    jt.sparse.reserve(rows * 2);
    tails.reserve(rows * 2);
    for (size_t i = 0; i < rows; ++i) {
      const int64_t key = IntKeyAt(key_col, i);
      auto [it, inserted] = jt.sparse.emplace(key, static_cast<uint32_t>(i));
      if (inserted) {
        tails[key] = static_cast<uint32_t>(i);
      } else {
        uint32_t& tail = tails[key];
        jt.next[tail] = static_cast<uint32_t>(i);
        tail = static_cast<uint32_t>(i);
      }
    }
  }
  return jt;
}

// ---------------------------------------------------------------------------
// Match enumeration
// ---------------------------------------------------------------------------

/// Depth-first nested probe from `level` for one surviving source row.
/// Enumerates matches in (source asc, build_0 asc, build_1 asc, ...) order —
/// exactly the lexicographic row order the unfused join cascade produces.
void EmitMatches(const BoundChain& bound,
                 const std::vector<FusedJoinTable>& tables, size_t level,
                 uint32_t src_row, uint32_t* cur,
                 std::vector<uint32_t>* src_buf,
                 std::vector<std::vector<uint32_t>>* lvl_buf) {
  const BoundJoin& join = bound.joins[level];
  const size_t key_row = join.probe_key.kind == Binding::Kind::kSource
                             ? src_row
                             : cur[join.probe_key.build_level];
  const int64_t key = join.KeyAt(key_row);
  const FusedJoinTable& jt = tables[level];
  for (uint32_t e = jt.First(key); e != kNoEntry; e = jt.next[e]) {
    cur[level] = e;
    if (level + 1 == bound.joins.size()) {
      src_buf->push_back(src_row);
      for (size_t j = 0; j < bound.joins.size(); ++j) {
        (*lvl_buf)[j].push_back(cur[j]);
      }
    } else {
      EmitMatches(bound, tables, level + 1, src_row, cur, src_buf, lvl_buf);
    }
  }
}

/// Row in the bound table that match tuple `t` refers to for binding `b`.
uint32_t RowOf(const Binding& b, size_t t, const std::vector<uint32_t>& src,
               const std::vector<std::vector<uint32_t>>& levels) {
  return b.kind == Binding::Kind::kSource ? src[t]
                                          : levels[b.build_level][t];
}

/// Insertion-ordered open-addressing set over packed 64-bit group keys:
/// Add returns the key's group id, numbering groups in first-seen order —
/// the order every kernel fixes for aggregate output rows.
struct PackedGroups {
  std::vector<uint64_t> slot_keys;
  std::vector<uint32_t> slot_gids;  // kNoEntry = empty slot
  size_t size = 0;

  PackedGroups() : slot_keys(1024, 0), slot_gids(1024, kNoEntry) {}

  uint32_t Add(uint64_t key) {
    if ((size + 1) * 2 > slot_gids.size()) Grow();
    const size_t mask = slot_gids.size() - 1;
    size_t idx = MixHash(key) & mask;
    while (true) {
      const uint32_t gid = slot_gids[idx];
      if (gid == kNoEntry) {
        const auto fresh = static_cast<uint32_t>(size++);
        slot_keys[idx] = key;
        slot_gids[idx] = fresh;
        return fresh;
      }
      if (slot_keys[idx] == key) return gid;
      idx = (idx + 1) & mask;
    }
  }

  void Grow() {
    const size_t new_size = slot_gids.size() * 2;
    std::vector<uint64_t> old_keys = std::move(slot_keys);
    std::vector<uint32_t> old_gids = std::move(slot_gids);
    slot_keys.assign(new_size, 0);
    slot_gids.assign(new_size, kNoEntry);
    const size_t mask = new_size - 1;
    for (size_t i = 0; i < old_gids.size(); ++i) {
      if (old_gids[i] == kNoEntry) continue;
      size_t idx = MixHash(old_keys[i]) & mask;
      while (slot_gids[idx] != kNoEntry) idx = (idx + 1) & mask;
      slot_keys[idx] = old_keys[i];
      slot_gids[idx] = old_gids[i];
    }
  }
};

/// Packed-64-bit group discovery — the AggregateParallel technique applied
/// to unmaterialized matches. Each group column contributes a bit field
/// sized by its full-column value range (a superset of the rows any match
/// touches, so the packing stays injective). Returns false when a key
/// column is not int/code-typed or the composite key does not fit in 64
/// bits; the byte-string path handles those. Either way groups are
/// numbered first-seen over matches in ascending order, so the output is
/// bit-identical across both discovery paths and the unfused aggregates.
bool PackedGroupDiscovery(const BoundChain& bound,
                          const std::vector<uint32_t>& src,
                          const std::vector<std::vector<uint32_t>>& levels,
                          std::vector<uint32_t>* representative,
                          std::vector<uint32_t>* group_of) {
  const size_t num_keys = bound.group_bindings.size();
  struct PackedKeyCol {
    const Binding* binding = nullptr;
    const int32_t* i32 = nullptr;  ///< int32 values or string codes
    const int64_t* i64 = nullptr;
    uint64_t min = 0;
    int shift = 0;
  };
  std::vector<PackedKeyCol> cols(num_keys);
  int total_bits = 0;
  for (size_t c = 0; c < num_keys; ++c) {
    const Binding& binding = bound.group_bindings[c];
    const Column& column = *binding.column;
    PackedKeyCol& kc = cols[c];
    kc.binding = &binding;
    const size_t rows = column.num_rows();
    switch (column.type()) {
      case DataType::kInt32:
        kc.i32 = static_cast<const Int32Column&>(column).values().data();
        break;
      case DataType::kString:
        kc.i32 = static_cast<const StringColumn&>(column).codes().data();
        break;
      case DataType::kInt64:
        kc.i64 = static_cast<const Int64Column&>(column).values().data();
        break;
      case DataType::kDouble:
        return false;  // byte path traps this programming error
    }
    int64_t lo = 0;
    int64_t hi = 0;
    if (rows > 0) {
      if (kc.i32 != nullptr) {
        lo = hi = kc.i32[0];
        for (size_t i = 1; i < rows; ++i) {
          lo = std::min<int64_t>(lo, kc.i32[i]);
          hi = std::max<int64_t>(hi, kc.i32[i]);
        }
      } else {
        lo = hi = kc.i64[0];
        for (size_t i = 1; i < rows; ++i) {
          lo = std::min(lo, kc.i64[i]);
          hi = std::max(hi, kc.i64[i]);
        }
      }
    }
    kc.min = static_cast<uint64_t>(lo);
    kc.shift = total_bits;
    total_bits += std::bit_width(static_cast<uint64_t>(hi) -
                                 static_cast<uint64_t>(lo));
    if (total_bits > 64) return false;
  }

  const size_t total = src.size();
  group_of->resize(total);
  PackedGroups groups;
  for (size_t t = 0; t < total; ++t) {
    uint64_t key = 0;
    for (const PackedKeyCol& kc : cols) {
      const uint32_t row = RowOf(*kc.binding, t, src, levels);
      const uint64_t raw = kc.i32 != nullptr
                               ? static_cast<uint64_t>(
                                     static_cast<int64_t>(kc.i32[row]))
                               : static_cast<uint64_t>(kc.i64[row]);
      key |= (raw - kc.min) << kc.shift;
    }
    const uint32_t gid = groups.Add(key);
    if (gid == representative->size()) {
      representative->push_back(static_cast<uint32_t>(t));
    }
    (*group_of)[t] = gid;
  }
  return true;
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

ColumnPtr MaterializeComputed(
    const ComputedCol& cc, const std::string& name,
    const std::vector<uint32_t>& src,
    const std::vector<std::vector<uint32_t>>& levels) {
  const size_t total = src.size();
  auto value_at = [&](const Binding& b, size_t t) -> double {
    return NumericAt(*b.column, RowOf(b, t, src, levels));
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

Result<TablePtr> MaterializeMatches(
    const BoundChain& bound, const std::vector<uint32_t>& src,
    const std::vector<std::vector<uint32_t>>& levels) {
  auto output = std::make_shared<Table>(bound.output_name);
  for (const SchemaCol& col : bound.schema) {
    switch (col.binding.kind) {
      case Binding::Kind::kSource:
        HETDB_RETURN_NOT_OK(output->AddColumn(
            GatherColumn(*col.binding.column, src, col.name)));
        break;
      case Binding::Kind::kBuild:
        HETDB_RETURN_NOT_OK(output->AddColumn(GatherColumn(
            *col.binding.column, levels[col.binding.build_level], col.name)));
        break;
      case Binding::Kind::kComputed:
        HETDB_RETURN_NOT_OK(output->AddColumn(MaterializeComputed(
            bound.computed[col.binding.computed], col.name, src, levels)));
        break;
    }
  }
  return output;
}

Result<TablePtr> AggregateMatches(
    const BoundChain& bound, const std::vector<uint32_t>& src,
    const std::vector<std::vector<uint32_t>>& levels) {
  const AggregateNode& agg = *bound.aggregate;
  const size_t total = src.size();

  // Group discovery: first-seen group order over matches in ascending
  // order — the same order the unfused chain's intermediate table has.
  // Packed 64-bit keys when the composite fits; byte-encoded int64 keys
  // (string columns contribute their dictionary code, AggregateReference's
  // encoding) otherwise.
  std::vector<uint32_t> representative;  // first match tuple per group
  std::vector<uint32_t> group_of(total);
  if (!PackedGroupDiscovery(bound, src, levels, &representative, &group_of)) {
    std::unordered_map<std::string, uint32_t> groups;
    std::string key;
    for (size_t t = 0; t < total; ++t) {
      key.clear();
      for (const Binding& b : bound.group_bindings) {
        const uint32_t row = RowOf(b, t, src, levels);
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
  const size_t num_groups = representative.size();

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
            NumericAt(*cc.left.column, RowOf(cc.left, t, src, levels));
        const double right =
            cc.expr.right_column.empty()
                ? cc.expr.right_constant
                : NumericAt(*cc.right.column, RowOf(cc.right, t, src, levels));
        const double v = ApplyArithmetic(cc.expr.op, left, right);
        if (cc.integer_result) {
          UpdateAccInt(static_cast<int64_t>(v), acc);
        } else {
          UpdateAccDouble(v, acc);
        }
        continue;
      }
      UpdateAcc(inputs[a], RowOf(ab.binding, t, src, levels), acc);
    }
  }

  auto output = std::make_shared<Table>(bound.output_name);
  const std::vector<std::string>& group_names = agg.group_by();
  for (size_t gi = 0; gi < bound.group_bindings.size(); ++gi) {
    const Binding& b = bound.group_bindings[gi];
    std::vector<uint32_t> rows(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      rows[g] = RowOf(b, representative[g], src, levels);
    }
    HETDB_RETURN_NOT_OK(
        output->AddColumn(GatherColumn(*b.column, rows, group_names[gi])));
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

  std::vector<FusedJoinTable> tables;
  tables.reserve(num_joins);
  for (const BoundJoin& join : bound.joins) {
    tables.push_back(BuildJoinTable(*join.build_key, join.build_rows));
  }

  // Stage 1: morsel loop — compiled CNF keep-mask, survivors probe the join
  // levels straight out of the mask into per-morsel match buffers. No column
  // data moves; only row indices are written.
  const size_t morsel = MorselRows();
  const size_t num_morsels = n == 0 ? 0 : (n + morsel - 1) / morsel;
  const int max_workers = MaxParallelWorkers(n, morsel);

  std::vector<std::vector<uint32_t>> morsel_src(num_morsels);
  std::vector<std::vector<std::vector<uint32_t>>> morsel_levels(num_morsels);
  std::vector<std::vector<uint8_t>> keep_scratch(max_workers);
  std::vector<std::vector<uint8_t>> dis_scratch(max_workers);
  std::vector<std::vector<uint32_t>> surv_scratch(max_workers);
  std::vector<std::vector<uint32_t>> cur_scratch(max_workers);

  auto body = [&](size_t begin, size_t end, int worker) {
    const size_t len = end - begin;
    const size_t m = begin / morsel;
    std::vector<uint8_t>& keep = keep_scratch[worker];
    std::vector<uint8_t>& dis = dis_scratch[worker];
    std::vector<uint32_t>& cur = cur_scratch[worker];
    if (keep.size() < morsel) keep.resize(morsel);
    if (dis.size() < morsel) dis.resize(morsel);
    cur.resize(num_joins);
    std::fill(keep.begin(), keep.begin() + len, uint8_t{1});
    for (const std::vector<CompiledAtom>& atoms : bound.conjuncts) {
      std::fill(dis.begin(), dis.begin() + len, uint8_t{0});
      for (const CompiledAtom& atom : atoms) {
        OrAtomInto(atom, begin, len, dis.data());
      }
      for (size_t i = 0; i < len; ++i) keep[i] &= dis[i];
    }
    // Branch-free survivor extraction (store-always, advance-by-mask): the
    // keep[] bits are effectively random at mid selectivities, so a
    // conditional skip in the probe loop would mispredict once per row.
    std::vector<uint32_t>& surv = surv_scratch[worker];
    if (surv.size() < morsel) surv.resize(morsel);
    size_t survivors = 0;
    for (size_t i = 0; i < len; ++i) {
      surv[survivors] = static_cast<uint32_t>(begin + i);
      survivors += keep[i];
    }
    if (survivors == 0) return;
    std::vector<uint32_t>& src_buf = morsel_src[m];
    std::vector<std::vector<uint32_t>>& lvl_buf = morsel_levels[m];
    lvl_buf.resize(num_joins);
    if (num_joins == 0) {
      src_buf.assign(surv.begin(), surv.begin() + survivors);
      return;
    }
    src_buf.reserve(survivors);
    for (std::vector<uint32_t>& buf : lvl_buf) buf.reserve(survivors);
    if (num_joins == 1) {
      // Flat single-level probe: a level-0 key is always source-bound, so
      // the chain walk inlines with no recursion and no dispatch.
      const BoundJoin& join = bound.joins[0];
      const FusedJoinTable& jt = tables[0];
      std::vector<uint32_t>& lvl0 = lvl_buf[0];
      for (size_t s = 0; s < survivors; ++s) {
        const uint32_t i = surv[s];
        const int64_t key = join.KeyAt(i);
        for (uint32_t e = jt.First(key); e != kNoEntry; e = jt.next[e]) {
          src_buf.push_back(i);
          lvl0.push_back(e);
        }
      }
      return;
    }
    for (size_t s = 0; s < survivors; ++s) {
      EmitMatches(bound, tables, 0, surv[s], cur.data(), &src_buf, &lvl_buf);
    }
  };

  const int workers = ParallelFor(n, morsel, body);
  RecordLoop(stats, n, morsel, workers);

  // Stage 2: prefix-sum concat of the per-morsel buffers — morsel order is
  // source-row order, so the global match list is ascending.
  std::vector<size_t> off(num_morsels + 1, 0);
  for (size_t m = 0; m < num_morsels; ++m) {
    off[m + 1] = off[m] + morsel_src[m].size();
  }
  const size_t total = off[num_morsels];
  std::vector<uint32_t> src_rows(total);
  std::vector<std::vector<uint32_t>> level_rows(
      num_joins, std::vector<uint32_t>(total));
  for (size_t m = 0; m < num_morsels; ++m) {
    if (morsel_src[m].empty()) continue;
    std::memcpy(src_rows.data() + off[m], morsel_src[m].data(),
                morsel_src[m].size() * sizeof(uint32_t));
    for (size_t j = 0; j < num_joins; ++j) {
      std::memcpy(level_rows[j].data() + off[m], morsel_levels[m][j].data(),
                  morsel_levels[m][j].size() * sizeof(uint32_t));
    }
  }

  // Stage 3: terminal — gather the output columns once, or fold the matches
  // straight into aggregation accumulators.
  if (bound.aggregate != nullptr) {
    return AggregateMatches(bound, src_rows, level_rows);
  }
  return MaterializeMatches(bound, src_rows, level_rows);
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
    // Shape the fused evaluator does not handle (or a genuine query error):
    // replay the members operator-at-a-time for exact unfused semantics.
    return ReplayMembers(inputs);
  }
  return EvaluateBoundChain(bound.value(), inputs, stats);
}

}  // namespace hetdb
