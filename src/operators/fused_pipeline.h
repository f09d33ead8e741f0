#ifndef HETDB_OPERATORS_FUSED_PIPELINE_H_
#define HETDB_OPERATORS_FUSED_PIPELINE_H_

#include <string>
#include <vector>

#include "operators/plan_node.h"

namespace hetdb {

/// A fused operator pipeline: one plan node that evaluates a chain of
/// fusable operators — selections, join probes, projections, and an optional
/// terminal aggregation — in a single morsel pass over its source child,
/// with zero intermediate materialization.
///
/// Where the operator-at-a-time plan materializes a full column table after
/// every member (gathering all columns per select, per join, per project),
/// the fused kernel keeps only row indices: compiled predicates produce a
/// keep-mask per morsel, survivors probe the pre-built per-join hash tables
/// emitting (source row, build row per level) match tuples, and the terminal
/// either gathers the output columns once or folds matches straight into
/// aggregation accumulators. On the simulated device the footprint shrinks
/// accordingly: `IntermediateDeviceBytes` charges only the join build tables
/// — no flag arrays, no per-member intermediates (DESIGN.md §11) — and
/// `ResultDeviceBytesBound` charges an aggregate terminal its groups, not
/// the source it streams.
///
/// Results are bit-identical to the unfused chain: the same CNF keep-mask,
/// the same join tables and so the same (probe ascending, build ascending
/// within key) match order, the same group-key packer and first-seen group
/// table, the same per-group ascending double accumulation, and the same
/// output typing rules — all shared with the per-operator kernels via
/// `kernels_internal.h`.
///
/// One binder decides what fuses. `Binds` runs it at plan time for the
/// rewrite; `ComputeResult` and `ResultDeviceBytesBound` run it again with
/// every input. A chain that bound at plan time can then decline only on a
/// build side, which did not exist before: a missing or non-integer build
/// key, a missing build column, or a non-integer probe key read from a
/// build column. The unfused join rejects each of these too, so a declined
/// run replays the member operators one at a time, which *is* the unfused
/// execution, errors included.
class FusedPipelineNode : public PlanNode {
 public:
  /// `children` = [source, build_0, ..., build_{J-1}]: the source feeds the
  /// bottom member, and the i-th join member (bottom-up) builds its hash
  /// table from children[1 + i]. `members` lists the fused operators
  /// bottom-up; only Select/Join/Project members plus an optional terminal
  /// Aggregate are valid (the pipeline builder guarantees this).
  FusedPipelineNode(std::vector<PlanNodePtr> children,
                    std::vector<PlanNodePtr> members);

  /// True iff the fused evaluator binds `members` (bottom-up) over
  /// `source`'s columns. The build tables do not exist yet, so their
  /// columns bind provisionally, with no type. Reads the scan's
  /// `base_columns()`, not its `ComputeResult`, which would count a column
  /// access that Algorithm 1 reads.
  static bool Binds(const std::vector<PlanNodePtr>& members,
                    const ScanNode& source);

  OpClass op_class() const override;
  Result<TablePtr> ComputeResult(
      const std::vector<TablePtr>& inputs) const override;
  size_t IntermediateDeviceBytes(
      const std::vector<TablePtr>& inputs) const override;
  size_t ResultDeviceBytesBound(
      const std::vector<TablePtr>& inputs) const override;
  std::string label() const override;

  /// The fused member operators, bottom-up (members()[0] consumes the
  /// source). Exposed for EXPLAIN rendering and stats attribution.
  const std::vector<PlanNodePtr>& members() const { return members_; }
  size_t num_joins() const { return num_joins_; }

 private:
  /// Operator-at-a-time fallback: executes the members one by one exactly
  /// as the unfused plan would (used when a build side fails to bind).
  Result<TablePtr> ReplayMembers(const std::vector<TablePtr>& inputs) const;

  std::vector<PlanNodePtr> members_;
  size_t num_joins_ = 0;
};

}  // namespace hetdb

#endif  // HETDB_OPERATORS_FUSED_PIPELINE_H_
