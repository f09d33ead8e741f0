#ifndef HETDB_OPERATORS_KERNELS_INTERNAL_H_
#define HETDB_OPERATORS_KERNELS_INTERNAL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "operators/expression.h"
#include "storage/table.h"
#include "telemetry/telemetry.h"

namespace hetdb {
namespace kernel_internal {

/// Building blocks shared between the per-operator kernels (`kernels.cc`)
/// and the fused pipeline kernel (`fused_pipeline.cc`). Bit-identical
/// results across the reference, morsel-parallel, and fused kernels hinge on
/// all three using the same predicate compilation, value coercions,
/// accumulator updates, and output typing rules — so those live here exactly
/// once.
/// Everything in this namespace is an implementation detail of the operator
/// layer; engine and above use the public kernels in `kernels.h`.

constexpr uint32_t kNoEntry = std::numeric_limits<uint32_t>::max();

/// splitmix64 finalizer: full-avalanche 64-bit mix. Top bits pick the join
/// partition, low bits the hash-table slot, so the two are independent.
inline uint64_t MixHash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename T, typename U>
bool CompareValues(T lhs, CompareOp op, U rhs, U rhs2) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kBetween:
      return lhs >= rhs && lhs <= rhs2;
  }
  return false;
}

Result<double> ValueAsDouble(const Value& value);
Result<int64_t> ValueAsInt64(const Value& value);

/// Reads an integer join key; fatal if the column is not integer-typed.
int64_t IntKeyAt(const Column& column, size_t row);

/// Reads a numeric column value as double (fatal on string columns).
double NumericAt(const Column& column, size_t row);

/// Copies `rows` of `source` into a fresh column. The output is named
/// `name_override` when non-empty, `source.name()` otherwise.
ColumnPtr GatherColumn(const Column& source, const std::vector<uint32_t>& rows,
                       const std::string& name_override = "");

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Handles into GlobalKernelMetrics() for one kernel, resolved once (the
/// registry lookup takes a lock; the handles themselves are lock-free).
struct KernelStats {
  Histogram* latency_us;
  Histogram* dop;
  Counter* invocations;
  Counter* morsels;

  explicit KernelStats(const std::string& kernel) {
    MetricRegistry& registry = GlobalKernelMetrics();
    latency_us = &registry.GetHistogram("kernel." + kernel + ".latency_us");
    dop = &registry.GetHistogram("kernel." + kernel + ".dop");
    invocations = &registry.GetCounter("kernel." + kernel + ".invocations");
    morsels = &registry.GetCounter("kernel." + kernel + ".morsels");
  }
};

/// Counts one invocation and records its wall time on destruction.
class KernelTimer {
 public:
  explicit KernelTimer(KernelStats& stats) : stats_(stats) {
    stats_.invocations->Increment();
  }
  ~KernelTimer() { stats_.latency_us->Record(watch_.ElapsedMicros()); }
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  KernelStats& stats_;
  Stopwatch watch_;
};

/// Records one morsel loop: how many morsels it covered and the worker count
/// ParallelFor actually achieved (the degree of parallelism).
void RecordLoop(KernelStats& stats, size_t total, size_t morsel_rows,
                int workers);

// ---------------------------------------------------------------------------
// Compiled predicates
// ---------------------------------------------------------------------------

/// One predicate atom lowered to raw pointers and resolved constants, so the
/// morsel loop evaluates it branch-free (no variant access, no dictionary
/// lookups, no per-row type dispatch).
struct CompiledAtom {
  enum class Kind {
    kInt32Cmp,   ///< int32 column vs int64 constant(s)
    kInt64Cmp,   ///< int64 column vs int64 constant(s)
    kDoubleCmp,  ///< double column vs double constant(s)
    kCodeEq,     ///< string codes == clo
    kCodeNe,     ///< string codes != clo
    kCodeRange,  ///< string codes in [clo, chi)
    kAllRows,    ///< matches every row (Ne of an absent constant)
    kNoRows,     ///< matches no row (Eq of an absent constant)
  };
  Kind kind = Kind::kNoRows;
  CompareOp op = CompareOp::kEq;
  const int32_t* i32 = nullptr;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const int32_t* codes = nullptr;
  int64_t ilo = 0, ihi = 0;
  double dlo = 0, dhi = 0;
  int32_t clo = 0, chi = 0;
};

/// Lowers `atom` against `input`. Mirrors the reference filter exactly: same
/// column lookup, same constant coercions, and the same error statuses in
/// the same order, so all kernels fail identically.
Result<CompiledAtom> CompileAtom(const Table& input, const Predicate& atom);

/// Ors `atom` over rows [begin, begin+len) into the morsel-local `out`.
void OrAtomInto(const CompiledAtom& atom, size_t begin, size_t len,
                uint8_t* out);

// ---------------------------------------------------------------------------
// Aggregation accumulators
// ---------------------------------------------------------------------------

/// One aggregate input lowered to a typed pointer.
struct AggInput {
  enum class Kind { kCountStar, kInt32, kInt64, kDouble };
  Kind kind = Kind::kCountStar;
  const int32_t* i32 = nullptr;
  const int64_t* i64 = nullptr;
  const double* f64 = nullptr;
};

AggInput ClassifyAggInput(const ColumnPtr& column, size_t num_rows);

/// Typed accumulator shared by all kernels. Integer inputs accumulate in
/// int64 (exact, order-insensitive); double inputs accumulate in double, so
/// the result depends only on the per-group row order — which every kernel
/// fixes as ascending input row.
struct Acc {
  int64_t isum = 0;
  double dsum = 0;
  int64_t count = 0;
  int64_t imin = std::numeric_limits<int64_t>::max();
  int64_t imax = std::numeric_limits<int64_t>::min();
  double dmin = std::numeric_limits<double>::infinity();
  double dmax = -std::numeric_limits<double>::infinity();
};

inline void UpdateAcc(const AggInput& input, size_t row, Acc& acc) {
  switch (input.kind) {
    case AggInput::Kind::kCountStar:
      ++acc.count;
      return;
    case AggInput::Kind::kInt32: {
      const int64_t v = input.i32[row];
      acc.isum += v;
      ++acc.count;
      acc.imin = std::min(acc.imin, v);
      acc.imax = std::max(acc.imax, v);
      return;
    }
    case AggInput::Kind::kInt64: {
      const int64_t v = input.i64[row];
      acc.isum += v;
      ++acc.count;
      acc.imin = std::min(acc.imin, v);
      acc.imax = std::max(acc.imax, v);
      return;
    }
    case AggInput::Kind::kDouble: {
      const double v = input.f64[row];
      acc.dsum += v;
      ++acc.count;
      acc.dmin = std::min(acc.dmin, v);
      acc.dmax = std::max(acc.dmax, v);
      return;
    }
  }
}

/// Integer-valued accumulator update (the kInt64 branch of UpdateAcc with
/// the value supplied directly) — used when the input value is computed on
/// the fly instead of read from a materialized column.
inline void UpdateAccInt(int64_t v, Acc& acc) {
  acc.isum += v;
  ++acc.count;
  acc.imin = std::min(acc.imin, v);
  acc.imax = std::max(acc.imax, v);
}

/// Double-valued accumulator update (the kDouble branch of UpdateAcc).
inline void UpdateAccDouble(double v, Acc& acc) {
  acc.dsum += v;
  ++acc.count;
  acc.dmin = std::min(acc.dmin, v);
  acc.dmax = std::max(acc.dmax, v);
}

/// Converts accumulators to output columns; shared so all kernels apply
/// the identical typing rules (COUNT and integer SUM/MIN/MAX stay int64,
/// AVG and double inputs produce doubles). Only `inputs[i].kind` is read.
Status AppendAggregateColumns(const std::vector<AggregateSpec>& aggregates,
                              const std::vector<AggInput>& inputs,
                              const std::vector<std::vector<Acc>>& accs,
                              size_t num_groups, Table* output);

}  // namespace kernel_internal
}  // namespace hetdb

#endif  // HETDB_OPERATORS_KERNELS_INTERNAL_H_
