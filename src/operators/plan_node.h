#ifndef HETDB_OPERATORS_PLAN_NODE_H_
#define HETDB_OPERATORS_PLAN_NODE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "operators/expression.h"
#include "operators/kernels.h"
#include "sim/simulator.h"
#include "storage/table.h"
#include "telemetry/query_stats.h"

namespace hetdb {

/// Logical operator kinds of the physical plan tree.
enum class PlanOp {
  kScan,
  kSelect,
  kJoin,
  kAggregate,
  kSort,
  kProject,
  kLimit,
  kFusedPipeline,
};

const char* PlanOpToString(PlanOp op);

class PlanNode;
using PlanNodePtr = std::shared_ptr<PlanNode>;

/// A node of the operator-at-a-time physical query plan.
///
/// Nodes are immutable descriptions: the kernel to run, the children whose
/// materialized outputs it consumes, and cost-model hooks. All execution
/// state (placement, intermediate results, device allocations) lives in the
/// engine's per-execution structures, so one plan can be executed many times
/// and concurrently.
class PlanNode {
 public:
  PlanNode(PlanOp op, std::vector<PlanNodePtr> children)
      : op_(op), children_(std::move(children)) {}
  virtual ~PlanNode() = default;

  PlanNode(const PlanNode&) = delete;
  PlanNode& operator=(const PlanNode&) = delete;

  PlanOp op() const { return op_; }
  const std::vector<PlanNodePtr>& children() const { return children_; }

  /// Cost class used to pick the throughput-table entry.
  virtual OpClass op_class() const = 0;

  /// Runs the kernel on host-resident inputs (one per child, in order) and
  /// returns the materialized result. Never sleeps and never touches device
  /// state; the engine wraps it with timing/allocation behaviour.
  virtual Result<TablePtr> ComputeResult(
      const std::vector<TablePtr>& inputs) const = 0;

  /// Bytes of input this operator consumes (drives modeled kernel duration).
  virtual size_t InputBytes(const std::vector<TablePtr>& inputs) const;

  /// Device-heap bytes of intermediate data structures the device variant
  /// allocates *before* the kernel runs (hash tables, flag arrays, ...).
  /// The result buffer is allocated separately after the kernel, when the
  /// actual result size is known — the paper's multi-step allocation.
  virtual size_t IntermediateDeviceBytes(
      const std::vector<TablePtr>& inputs) const;

  /// Upper bound on that result buffer's bytes, given the inputs. Placement
  /// calls it before the operator runs (DeviceFootprint in
  /// placement/runtime.h), so it passes over no probe-side column data; a
  /// pass over a build-side input is fine, since the build makes the same
  /// pass. SIZE_MAX means no bound.
  virtual size_t ResultDeviceBytesBound(
      const std::vector<TablePtr>& inputs) const = 0;

  /// Short human-readable description, e.g. "select(lo_discount > 10)".
  virtual std::string label() const;

  size_t num_children() const { return children_.size(); }

 private:
  PlanOp op_;
  std::vector<PlanNodePtr> children_;
};

/// Leaf: produces (a column subset of) a base table. The engine treats scans
/// specially — on the device they acquire columns through the data cache
/// rather than running a kernel.
class ScanNode : public PlanNode {
 public:
  ScanNode(TablePtr table, std::vector<std::string> columns);

  OpClass op_class() const override { return OpClass::kScan; }
  Result<TablePtr> ComputeResult(
      const std::vector<TablePtr>& inputs) const override;
  size_t InputBytes(const std::vector<TablePtr>& inputs) const override;
  size_t IntermediateDeviceBytes(
      const std::vector<TablePtr>& inputs) const override;
  size_t ResultDeviceBytesBound(
      const std::vector<TablePtr>& inputs) const override;
  std::string label() const override;

  const TablePtr& table() const { return table_; }
  const std::vector<std::string>& columns() const { return columns_; }

  /// Resolved base columns with their cache keys ("<table>.<column>").
  const std::vector<std::pair<std::string, ColumnPtr>>& base_columns() const {
    return base_columns_;
  }

 private:
  TablePtr table_;
  std::vector<std::string> columns_;
  std::vector<std::pair<std::string, ColumnPtr>> base_columns_;
};

/// CNF filter. The device variant's peak footprint follows the paper's
/// GPU-selection model: input + 1.25x intermediates + worst-case output
/// = 3.25x the input size (Section 3.4).
class SelectNode : public PlanNode {
 public:
  SelectNode(PlanNodePtr child, ConjunctiveFilter filter);

  OpClass op_class() const override { return OpClass::kScan; }
  Result<TablePtr> ComputeResult(
      const std::vector<TablePtr>& inputs) const override;
  size_t IntermediateDeviceBytes(
      const std::vector<TablePtr>& inputs) const override;
  size_t ResultDeviceBytesBound(
      const std::vector<TablePtr>& inputs) const override;
  std::string label() const override;

  const ConjunctiveFilter& filter() const { return filter_; }

 private:
  ConjunctiveFilter filter_;
};

/// Equi hash join; child 0 is the build side, child 1 the probe side.
class JoinNode : public PlanNode {
 public:
  JoinNode(PlanNodePtr build, PlanNodePtr probe, std::string build_key,
           std::string probe_key, JoinOutputSpec output_spec);

  OpClass op_class() const override { return OpClass::kJoin; }
  Result<TablePtr> ComputeResult(
      const std::vector<TablePtr>& inputs) const override;
  size_t IntermediateDeviceBytes(
      const std::vector<TablePtr>& inputs) const override;
  size_t ResultDeviceBytesBound(
      const std::vector<TablePtr>& inputs) const override;
  std::string label() const override;

  const std::string& build_key() const { return build_key_; }
  const std::string& probe_key() const { return probe_key_; }
  const JoinOutputSpec& output_spec() const { return output_spec_; }

 private:
  std::string build_key_;
  std::string probe_key_;
  JoinOutputSpec output_spec_;
};

/// Hash group-by aggregation.
class AggregateNode : public PlanNode {
 public:
  AggregateNode(PlanNodePtr child, std::vector<std::string> group_by,
                std::vector<AggregateSpec> aggregates);

  OpClass op_class() const override { return OpClass::kAggregate; }
  Result<TablePtr> ComputeResult(
      const std::vector<TablePtr>& inputs) const override;
  size_t IntermediateDeviceBytes(
      const std::vector<TablePtr>& inputs) const override;
  size_t ResultDeviceBytesBound(
      const std::vector<TablePtr>& inputs) const override;
  std::string label() const override;

  const std::vector<std::string>& group_by() const { return group_by_; }
  const std::vector<AggregateSpec>& aggregates() const { return aggregates_; }

 private:
  std::vector<std::string> group_by_;
  std::vector<AggregateSpec> aggregates_;
};

/// Multi-key sort.
class SortNode : public PlanNode {
 public:
  SortNode(PlanNodePtr child, std::vector<SortKey> keys);

  OpClass op_class() const override { return OpClass::kSort; }
  Result<TablePtr> ComputeResult(
      const std::vector<TablePtr>& inputs) const override;
  size_t IntermediateDeviceBytes(
      const std::vector<TablePtr>& inputs) const override;
  size_t ResultDeviceBytesBound(
      const std::vector<TablePtr>& inputs) const override;
  std::string label() const override;

  const std::vector<SortKey>& keys() const { return keys_; }

 private:
  std::vector<SortKey> keys_;
};

/// Column pruning plus computed arithmetic columns.
class ProjectNode : public PlanNode {
 public:
  ProjectNode(PlanNodePtr child, std::vector<std::string> keep_columns,
              std::vector<ArithmeticExpr> expressions);

  OpClass op_class() const override { return OpClass::kProject; }
  Result<TablePtr> ComputeResult(
      const std::vector<TablePtr>& inputs) const override;
  size_t ResultDeviceBytesBound(
      const std::vector<TablePtr>& inputs) const override;
  std::string label() const override;

  const std::vector<std::string>& keep_columns() const { return keep_columns_; }
  const std::vector<ArithmeticExpr>& expressions() const {
    return expressions_;
  }

 private:
  std::vector<std::string> keep_columns_;
  std::vector<ArithmeticExpr> expressions_;
};

/// First-n rows (ORDER BY ... LIMIT n tail of a query).
class LimitNode : public PlanNode {
 public:
  LimitNode(PlanNodePtr child, size_t limit);

  OpClass op_class() const override { return OpClass::kMaterialize; }
  Result<TablePtr> ComputeResult(
      const std::vector<TablePtr>& inputs) const override;
  size_t ResultDeviceBytesBound(
      const std::vector<TablePtr>& inputs) const override;
  std::string label() const override;

  size_t limit() const { return limit_; }

 private:
  size_t limit_;
};

/// Counts the operators in a plan tree.
size_t CountPlanNodes(const PlanNodePtr& root);

/// Post-order traversal (children before parents).
void VisitPlanPostOrder(const PlanNodePtr& root,
                        const std::function<void(const PlanNodePtr&)>& fn);

/// Registers every node of `root` in `stats`, pre-order (parents before
/// children), keyed by node address; attribution sites then find their slot
/// with `stats->Find(node.get())`.
void RegisterPlanNodes(QueryStats* stats, const PlanNodePtr& root);

/// Fresh QueryStats with `root`'s nodes registered — the executors call this
/// when the caller did not supply stats of its own.
QueryStatsPtr MakeQueryStats(const PlanNodePtr& root);

}  // namespace hetdb

#endif  // HETDB_OPERATORS_PLAN_NODE_H_
