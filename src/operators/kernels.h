#ifndef HETDB_OPERATORS_KERNELS_H_
#define HETDB_OPERATORS_KERNELS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "operators/expression.h"
#include "storage/table.h"

namespace hetdb {

/// Pure, processor-agnostic compute kernels.
///
/// Every physical operator (CPU or simulated-device variant) executes one of
/// these kernels for its actual result; the engine layers timing, transfer,
/// and device-memory behaviour around them. Keeping the kernels shared
/// guarantees that all placement strategies produce bit-identical results —
/// the simulator substitutes *timing*, never correctness (DESIGN.md §5).

/// Evaluates a CNF filter and returns the indices of qualifying rows, in
/// ascending order.
Result<std::vector<uint32_t>> EvaluateFilter(const Table& input,
                                             const ConjunctiveFilter& filter);

/// Materializes `rows` of `input` into a new table named `name`.
Result<TablePtr> GatherRows(const Table& input,
                            const std::vector<uint32_t>& rows,
                            const std::string& name);

/// Columns each side of a join contributes to the output. When the alias
/// vectors are non-empty they must parallel the column lists and give the
/// output column names (needed when both sides expose a same-named column,
/// e.g. the two `n_name` roles in TPC-H Q7).
struct JoinOutputSpec {
  std::vector<std::string> build_columns;
  std::vector<std::string> probe_columns;
  std::vector<std::string> build_aliases;
  std::vector<std::string> probe_aliases;
};

/// Equi hash join: builds on `build` (typically the smaller / dimension
/// side), probes with `probe`. Keys must be int32 or int64 columns.
/// Duplicate build keys are supported.
Result<TablePtr> HashJoin(const Table& build, const std::string& build_key,
                          const Table& probe, const std::string& probe_key,
                          const JoinOutputSpec& output_spec,
                          const std::string& name);

/// Hash group-by aggregation. With empty `group_by` produces a single row.
Result<TablePtr> Aggregate(const Table& input,
                           const std::vector<std::string>& group_by,
                           const std::vector<AggregateSpec>& aggregates,
                           const std::string& name);

/// Multi-key stable sort.
Result<TablePtr> Sort(const Table& input, const std::vector<SortKey>& keys,
                      const std::string& name);

/// Keeps `keep_columns` (zero-copy alias) and appends one computed column per
/// arithmetic expression.
Result<TablePtr> Project(const Table& input,
                         const std::vector<std::string>& keep_columns,
                         const std::vector<ArithmeticExpr>& expressions,
                         const std::string& name);

/// First `n` rows.
Result<TablePtr> Limit(const Table& input, size_t n, const std::string& name);

/// Bytes of the input actually touched by a filter (the filter's referenced
/// columns), used for cost accounting.
size_t FilterInputBytes(const Table& input, const ConjunctiveFilter& filter);

// ---------------------------------------------------------------------------
// Reference kernels
// ---------------------------------------------------------------------------

/// Row-at-a-time EvaluateFilter, HashJoin and Aggregate with the same
/// results: the oracle of the parity tests and the serial baseline of
/// `bench/micro_kernels`. Their gathers are morsel-parallel, so run them at
/// DoP 1. Aggregate itself uses AggregateReference for group keys too wide
/// to pack into 64 bits.
Result<std::vector<uint32_t>> EvaluateFilterReference(
    const Table& input, const ConjunctiveFilter& filter);
Result<TablePtr> HashJoinReference(const Table& build,
                                   const std::string& build_key,
                                   const Table& probe,
                                   const std::string& probe_key,
                                   const JoinOutputSpec& output_spec,
                                   const std::string& name);
Result<TablePtr> AggregateReference(
    const Table& input, const std::vector<std::string>& group_by,
    const std::vector<AggregateSpec>& aggregates, const std::string& name);

}  // namespace hetdb

#endif  // HETDB_OPERATORS_KERNELS_H_
