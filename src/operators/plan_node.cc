#include "operators/plan_node.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "operators/kernels_internal.h"

namespace hetdb {

using kernel_internal::AggregateResultBytesBound;
using kernel_internal::GatheredBytes;
using kernel_internal::GroupKeySource;
using kernel_internal::MaxKeyMultiplicity;
using kernel_internal::SaturatingAdd;
using kernel_internal::SaturatingMul;

const char* PlanOpToString(PlanOp op) {
  switch (op) {
    case PlanOp::kScan:
      return "scan";
    case PlanOp::kSelect:
      return "select";
    case PlanOp::kJoin:
      return "join";
    case PlanOp::kAggregate:
      return "aggregate";
    case PlanOp::kSort:
      return "sort";
    case PlanOp::kProject:
      return "project";
    case PlanOp::kLimit:
      return "limit";
    case PlanOp::kFusedPipeline:
      return "fused_pipeline";
  }
  return "?";
}

size_t PlanNode::InputBytes(const std::vector<TablePtr>& inputs) const {
  size_t bytes = 0;
  for (const TablePtr& input : inputs) {
    if (input != nullptr) bytes += input->data_bytes();
  }
  return bytes;
}

size_t PlanNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  (void)inputs;
  return 0;
}

std::string PlanNode::label() const { return PlanOpToString(op_); }

// --- ScanNode ---------------------------------------------------------------

ScanNode::ScanNode(TablePtr table, std::vector<std::string> columns)
    : PlanNode(PlanOp::kScan, {}),
      table_(std::move(table)),
      columns_(std::move(columns)) {
  HETDB_CHECK(table_ != nullptr);
  for (const std::string& name : columns_) {
    Result<ColumnPtr> column = table_->GetColumn(name);
    HETDB_CHECK(column.ok());
    base_columns_.emplace_back(table_->QualifiedName(name), column.value());
  }
}

Result<TablePtr> ScanNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  (void)inputs;
  auto output = std::make_shared<Table>(table_->name());
  for (const auto& [key, column] : base_columns_) {
    column->RecordAccess();
    HETDB_RETURN_NOT_OK(output->AddColumn(column));  // zero-copy alias
  }
  // A scan that reads no column (COUNT(*)) still carries the row count,
  // without reading, counting or moving a column to get it.
  if (base_columns_.empty()) output->set_num_rows(table_->num_rows());
  return output;
}

size_t ScanNode::InputBytes(const std::vector<TablePtr>& inputs) const {
  (void)inputs;
  size_t bytes = 0;
  for (const auto& [key, column] : base_columns_) bytes += column->data_bytes();
  return bytes;
}

size_t ScanNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  (void)inputs;
  return 0;
}

size_t ScanNode::ResultDeviceBytesBound(
    const std::vector<TablePtr>& inputs) const {
  // The result aliases the base columns: a cached column is a cache lease,
  // an uncached one a transient input buffer (phase 1), never a result.
  (void)inputs;
  return 0;
}

std::string ScanNode::label() const {
  std::ostringstream os;
  os << "scan(" << table_->name() << ": " << columns_.size() << " cols)";
  return os.str();
}

// --- SelectNode -------------------------------------------------------------

SelectNode::SelectNode(PlanNodePtr child, ConjunctiveFilter filter)
    : PlanNode(PlanOp::kSelect, {std::move(child)}),
      filter_(std::move(filter)) {}

Result<TablePtr> SelectNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  HETDB_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                         EvaluateFilter(*inputs[0], filter_));
  return GatherRows(*inputs[0], rows, "select");
}

size_t SelectNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  // Flag array + prefix sums: 1.25x the input (He et al. selection model;
  // with the input buffer and worst-case output this peaks at 3.25x).
  return InputBytes(inputs) + InputBytes(inputs) / 4;
}

size_t SelectNode::ResultDeviceBytesBound(
    const std::vector<TablePtr>& inputs) const {
  // A gather of at most every input row.
  return InputBytes(inputs);
}

std::string SelectNode::label() const {
  return "select(" + filter_.ToString() + ")";
}

// --- JoinNode ---------------------------------------------------------------

JoinNode::JoinNode(PlanNodePtr build, PlanNodePtr probe, std::string build_key,
                   std::string probe_key, JoinOutputSpec output_spec)
    : PlanNode(PlanOp::kJoin, {std::move(build), std::move(probe)}),
      build_key_(std::move(build_key)),
      probe_key_(std::move(probe_key)),
      output_spec_(std::move(output_spec)) {}

Result<TablePtr> JoinNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 2 && inputs[0] != nullptr &&
              inputs[1] != nullptr);
  return HashJoin(*inputs[0], build_key_, *inputs[1], probe_key_, output_spec_,
                  "join");
}

size_t JoinNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  // Hash table over the build side: ~2x the build input.
  HETDB_CHECK(inputs.size() == 2 && inputs[0] != nullptr);
  return 2 * inputs[0]->data_bytes();
}

size_t JoinNode::ResultDeviceBytesBound(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 2 && inputs[0] != nullptr &&
              inputs[1] != nullptr);
  const Table& build = *inputs[0];
  const Table& probe = *inputs[1];
  Result<ColumnPtr> key = build.GetColumn(build_key_);
  if (!key.ok()) return std::numeric_limits<size_t>::max();
  // Each probe row matches at most the most build rows sharing one key.
  const size_t matches =
      SaturatingMul(probe.num_rows(), MaxKeyMultiplicity(*key.value()));
  size_t bytes = 0;
  auto add_gathered = [&](const Table& side,
                          const std::vector<std::string>& columns) {
    for (const std::string& name : columns) {
      Result<ColumnPtr> column = side.GetColumn(name);
      if (column.ok()) {
        bytes = SaturatingAdd(bytes, GatheredBytes(*column.value(), matches));
      }
    }
  };
  add_gathered(build, output_spec_.build_columns);
  add_gathered(probe, output_spec_.probe_columns);
  return bytes;
}

std::string JoinNode::label() const {
  return "join(" + build_key_ + " = " + probe_key_ + ")";
}

// --- AggregateNode ----------------------------------------------------------

AggregateNode::AggregateNode(PlanNodePtr child,
                             std::vector<std::string> group_by,
                             std::vector<AggregateSpec> aggregates)
    : PlanNode(PlanOp::kAggregate, {std::move(child)}),
      group_by_(std::move(group_by)),
      aggregates_(std::move(aggregates)) {}

Result<TablePtr> AggregateNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  return Aggregate(*inputs[0], group_by_, aggregates_, "aggregate");
}

size_t AggregateNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  // Group hash table; bounded by half the input.
  return InputBytes(inputs) / 2;
}

size_t AggregateNode::ResultDeviceBytesBound(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  GroupKeySource source;
  source.rows = inputs[0]->num_rows();
  source.scan_values = true;  // the aggregate's own input, not a probe side
  for (const std::string& name : group_by_) {
    Result<ColumnPtr> column = inputs[0]->GetColumn(name);
    if (!column.ok()) return std::numeric_limits<size_t>::max();
    source.columns.push_back(column.value().get());
  }
  return AggregateResultBytesBound({source}, aggregates_.size());
}

std::string AggregateNode::label() const {
  std::ostringstream os;
  os << "aggregate(";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) os << ", ";
    os << AggregateFnToString(aggregates_[i].fn) << "("
       << aggregates_[i].input_column << ")";
  }
  if (!group_by_.empty()) {
    os << " by ";
    for (size_t i = 0; i < group_by_.size(); ++i) {
      if (i > 0) os << ",";
      os << group_by_[i];
    }
  }
  os << ")";
  return os.str();
}

// --- SortNode ---------------------------------------------------------------

SortNode::SortNode(PlanNodePtr child, std::vector<SortKey> keys)
    : PlanNode(PlanOp::kSort, {std::move(child)}), keys_(std::move(keys)) {}

Result<TablePtr> SortNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  return Sort(*inputs[0], keys_, "sort");
}

size_t SortNode::IntermediateDeviceBytes(
    const std::vector<TablePtr>& inputs) const {
  // Index array + double buffer.
  return InputBytes(inputs);
}

size_t SortNode::ResultDeviceBytesBound(
    const std::vector<TablePtr>& inputs) const {
  // A gather of every input row in sorted order.
  return InputBytes(inputs);
}

std::string SortNode::label() const {
  std::ostringstream os;
  os << "sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) os << ", ";
    os << keys_[i].column << (keys_[i].ascending ? " asc" : " desc");
  }
  os << ")";
  return os.str();
}

// --- ProjectNode ------------------------------------------------------------

ProjectNode::ProjectNode(PlanNodePtr child,
                         std::vector<std::string> keep_columns,
                         std::vector<ArithmeticExpr> expressions)
    : PlanNode(PlanOp::kProject, {std::move(child)}),
      keep_columns_(std::move(keep_columns)),
      expressions_(std::move(expressions)) {}

Result<TablePtr> ProjectNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  return Project(*inputs[0], keep_columns_, expressions_, "project");
}

size_t ProjectNode::ResultDeviceBytesBound(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  // Kept columns alias the input's; each expression is an int64 or double
  // column of every input row.
  size_t bytes = SaturatingMul(inputs[0]->num_rows(),
                               expressions_.size() * sizeof(int64_t));
  for (const std::string& name : keep_columns_) {
    Result<ColumnPtr> column = inputs[0]->GetColumn(name);
    if (column.ok()) bytes = SaturatingAdd(bytes, column.value()->data_bytes());
  }
  return bytes;
}

std::string ProjectNode::label() const {
  std::ostringstream os;
  os << "project(" << keep_columns_.size() << " cols";
  for (const ArithmeticExpr& e : expressions_) os << ", " << e.output_name;
  os << ")";
  return os.str();
}

// --- LimitNode --------------------------------------------------------------

LimitNode::LimitNode(PlanNodePtr child, size_t limit)
    : PlanNode(PlanOp::kLimit, {std::move(child)}), limit_(limit) {}

Result<TablePtr> LimitNode::ComputeResult(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  return Limit(*inputs[0], limit_, "limit");
}

size_t LimitNode::ResultDeviceBytesBound(
    const std::vector<TablePtr>& inputs) const {
  HETDB_CHECK(inputs.size() == 1 && inputs[0] != nullptr);
  const size_t rows = std::min(limit_, inputs[0]->num_rows());
  size_t bytes = 0;
  for (const ColumnPtr& column : inputs[0]->columns()) {
    bytes = SaturatingAdd(bytes, GatheredBytes(*column, rows));
  }
  return bytes;
}

std::string LimitNode::label() const {
  return "limit(" + std::to_string(limit_) + ")";
}

// --- Traversal helpers ------------------------------------------------------

size_t CountPlanNodes(const PlanNodePtr& root) {
  size_t count = 0;
  VisitPlanPostOrder(root, [&count](const PlanNodePtr&) { ++count; });
  return count;
}

void VisitPlanPostOrder(const PlanNodePtr& root,
                        const std::function<void(const PlanNodePtr&)>& fn) {
  if (root == nullptr) return;
  for (const PlanNodePtr& child : root->children()) {
    VisitPlanPostOrder(child, fn);
  }
  fn(root);
}

namespace {

void RegisterPlanNodesImpl(QueryStats* stats, const PlanNodePtr& node,
                           const PlanNode* parent) {
  stats->AddNode(node.get(), parent, PlanOpToString(node->op()),
                 node->label());
  for (const PlanNodePtr& child : node->children()) {
    RegisterPlanNodesImpl(stats, child, node.get());
  }
}

}  // namespace

void RegisterPlanNodes(QueryStats* stats, const PlanNodePtr& root) {
  if (stats == nullptr || root == nullptr) return;
  RegisterPlanNodesImpl(stats, root, nullptr);
}

QueryStatsPtr MakeQueryStats(const PlanNodePtr& root) {
  auto stats = std::make_shared<QueryStats>();
  RegisterPlanNodes(stats.get(), root);
  return stats;
}

}  // namespace hetdb
