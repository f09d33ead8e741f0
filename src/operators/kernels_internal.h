#ifndef HETDB_OPERATORS_KERNELS_INTERNAL_H_
#define HETDB_OPERATORS_KERNELS_INTERNAL_H_

#include <cstdint>
#include <limits>
#include <optional>
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
/// and the fused pipeline kernel (`fused_pipeline.cc`), each defined once in
/// `kernels.cc`: predicate compilation and the per-morsel CNF keep-mask
/// (`CompileCnf`, `CnfKeepMask`, `CompactKeptRows`), the join build table
/// (`JoinTable`), the group-key packer (`GroupKeyPacker`), the first-seen
/// group table (`GroupTable`), the per-morsel row-buffer concat
/// (`ConcatMorselRows`), and the value coercions, accumulator updates and
/// output typing rules. Bit-identical results across the reference,
/// morsel-parallel, and fused kernels hinge on all of them using these.
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

/// A CNF filter lowered against one table: one atom list per conjunct.
using CompiledCnf = std::vector<std::vector<CompiledAtom>>;

/// Compiles every atom of `filter` against `input`; the first atom that
/// fails to compile gives the status.
Result<CompiledCnf> CompileCnf(const Table& input,
                               const ConjunctiveFilter& filter);

/// Writes the CNF's verdict for rows [begin, begin+len) to keep[0, len): 1
/// where every conjunct has a matching atom, 0 elsewhere. The morsel's
/// columns stay cache-resident across all conjuncts. `scratch` holds one
/// conjunct's OR mask and grows to `len` as needed.
void CnfKeepMask(const CompiledCnf& cnf, size_t begin, size_t len,
                 uint8_t* keep, std::vector<uint8_t>* scratch);

/// Writes the ids begin + i of the rows with keep[i] set to `out`, ascending,
/// and returns how many there are. Stores unconditionally and advances by
/// the mask bit, so no branch mispredicts at mid selectivities; `out` needs
/// room for `len` ids.
inline size_t CompactKeptRows(const uint8_t* keep, size_t begin, size_t len,
                              uint32_t* out) {
  size_t kept = 0;
  for (size_t i = 0; i < len; ++i) {
    out[kept] = static_cast<uint32_t>(begin + i);
    kept += keep[i];
  }
  return kept;
}

// ---------------------------------------------------------------------------
// Join build table
// ---------------------------------------------------------------------------

/// The build side of an equi-join on integer keys. A dense key domain
/// (max - min below max(8192, 8 x build rows)) gets a direct-address table
/// over [min, max]: a probe is a bounds check plus one load. A sparse domain
/// gets a radix-partitioned build: a stable scatter by hash prefix, then one
/// open-addressing linear-probe table per partition, sized 2x its entries so
/// it stays cache-resident. Either way duplicate keys chain through `Next`
/// in ascending build-row order, so walking First(key), Next(row), ...
/// replays the reference join's match order.
class JoinTable {
 public:
  /// Builds over every row of `keys` (int32 or int64; fatal otherwise). The
  /// sparse build's morsel loop is recorded in `stats`.
  JoinTable(const Column& keys, KernelStats& stats);

  /// The smallest build row whose key is `key`, or kNoEntry.
  uint32_t First(int64_t key) const {
    if (dense_) {
      // Keys below the minimum wrap around and fail the bound check too.
      const uint64_t k = static_cast<uint64_t>(key) - min_key_;
      return k > range_ ? kNoEntry : heads_[k];
    }
    const uint64_t hash = MixHash(static_cast<uint64_t>(key));
    const Slot* table = slots_.data() + table_off_[Partition(hash)];
    const size_t mask = table_mask_[Partition(hash)];
    for (size_t idx = hash & mask;; idx = (idx + 1) & mask) {
      if (table[idx].head == kNoEntry) return kNoEntry;
      if (table[idx].key == key) return table[idx].head;
    }
  }

  /// The next build row after `row` with the same key, or kNoEntry.
  uint32_t Next(uint32_t row) const { return next_[row]; }

 private:
  /// One open-addressing slot; `head == kNoEntry` marks it empty.
  struct Slot {
    int64_t key;
    uint32_t head;  ///< first build row with `key`
    uint32_t tail;  ///< last build row with `key` (appends during the build)
  };

  template <typename T>
  void Build(const T* keys, size_t rows, KernelStats& stats);

  /// Top hash bits pick the partition, low bits the slot.
  size_t Partition(uint64_t hash) const {
    return part_bits_ == 0 ? 0 : static_cast<size_t>(hash >> (64 - part_bits_));
  }

  bool dense_ = false;
  uint64_t min_key_ = 0;            ///< dense: key of heads_[0]
  uint64_t range_ = 0;              ///< dense: max - min
  std::vector<uint32_t> heads_;     ///< dense: first row per key - min
  int part_bits_ = 0;               ///< sparse: log2 of the partition count
  std::vector<Slot> slots_;         ///< sparse: all partition tables in a row
  std::vector<size_t> table_off_;   ///< sparse: partition -> first slot
  std::vector<size_t> table_mask_;  ///< sparse: partition -> slots - 1
  std::vector<uint32_t> next_;      ///< build row -> next row, same key
};

// ---------------------------------------------------------------------------
// Group keys
// ---------------------------------------------------------------------------

/// Packs a composite group key over int32, int64 and string (dictionary
/// code) columns into one 64-bit key. A min/max prescan of each whole
/// column sizes its bit field; a constant column gets none. The packing is
/// injective over every row of the columns, so rows that index different
/// tables (a fused pipeline's source and build sides) pack safely too.
class GroupKeyPacker {
 public:
  /// One column's bit field.
  struct Field {
    size_t column = 0;             ///< index into Make's `columns`
    const int32_t* i32 = nullptr;  ///< int32 values or string codes
    const int64_t* i64 = nullptr;
    uint64_t min = 0;
    int shift = 0;  ///< < 64: every field is at least one bit wide

    int64_t Value(size_t row) const {
      return i32 != nullptr ? i32[row] : i64[row];
    }
    /// This field's bits of the key of `row` of its column.
    uint64_t Bits(size_t row) const {
      return (static_cast<uint64_t>(Value(row)) - min) << shift;
    }
  };

  /// Prescans `columns`. Declines (nullopt) a double column, and a key whose
  /// fields need more than 64 bits together.
  static std::optional<GroupKeyPacker> Make(
      const std::vector<const Column*>& columns);

  /// The non-constant columns' fields.
  const std::vector<Field>& fields() const { return fields_; }

  /// The key of `row` when every column is a column of one table.
  uint64_t Pack(size_t row) const {
    uint64_t key = 0;
    for (const Field& field : fields_) key |= field.Bits(row);
    return key;
  }

 private:
  std::vector<Field> fields_;
};

/// Open-addressing map from packed group keys to group ids numbered in
/// first-seen order, so a key is new exactly when FindOrAdd returns the old
/// size(). Slots are allocated on the first insert.
class GroupTable {
 public:
  /// The id of `key`'s group; a new key gets id size().
  uint32_t FindOrAdd(uint64_t key) {
    if ((keys_.size() + 1) * 2 > slot_gids_.size()) Grow();
    const size_t mask = slot_gids_.size() - 1;
    for (size_t idx = MixHash(key) & mask;; idx = (idx + 1) & mask) {
      const uint32_t gid = slot_gids_[idx];
      if (gid == kNoEntry) {
        const auto fresh = static_cast<uint32_t>(keys_.size());
        slot_keys_[idx] = key;
        slot_gids_[idx] = fresh;
        keys_.push_back(key);
        return fresh;
      }
      if (slot_keys_[idx] == key) return gid;
    }
  }

  size_t size() const { return keys_.size(); }
  uint64_t key(uint32_t gid) const { return keys_[gid]; }

 private:
  void Grow();

  std::vector<uint64_t> slot_keys_;
  std::vector<uint32_t> slot_gids_;  ///< kNoEntry = empty slot
  std::vector<uint64_t> keys_;       ///< group id -> key
};

// ---------------------------------------------------------------------------
// Morsel row buffers
// ---------------------------------------------------------------------------

/// Row-id tuples a morsel loop emits: `buffers[m][s]` is stream s (say,
/// probe rows or build rows) of morsel m. The streams of one morsel are
/// equally long; a morsel that emitted nothing may hold no streams.
using MorselRowBuffers = std::vector<std::vector<std::vector<uint32_t>>>;

/// Concatenates each of the `streams` streams over all morsels in morsel
/// order, which is source-row order. The copy runs in parallel over
/// morsels of output rows.
std::vector<std::vector<uint32_t>> ConcatMorselRows(
    const MorselRowBuffers& buffers, size_t streams);

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

// ---------------------------------------------------------------------------
// Result-size bounds
// ---------------------------------------------------------------------------

/// Size arithmetic for bounds: a result past SIZE_MAX reads as SIZE_MAX,
/// which no device heap can hold.
inline size_t SaturatingAdd(size_t a, size_t b) {
  return a > std::numeric_limits<size_t>::max() - b
             ? std::numeric_limits<size_t>::max()
             : a + b;
}
inline size_t SaturatingMul(size_t a, size_t b) {
  if (a == 0 || b == 0) return 0;
  return a > std::numeric_limits<size_t>::max() / b
             ? std::numeric_limits<size_t>::max()
             : a * b;
}

/// Bytes GatherColumn makes of `rows` rows of `source`: the fixed-width
/// values, plus a string column's whole dictionary, which a gather copies.
size_t GatheredBytes(const Column& source, size_t rows);

/// The most rows of `keys` that share one value: the most build rows one
/// probe row can match. One pass over the column; a non-integer column
/// reads as its row count.
size_t MaxKeyMultiplicity(const Column& keys);

/// The group-by columns an aggregate reads from one of its input tables.
struct GroupKeySource {
  size_t rows = 0;  ///< rows of that table
  /// Whether the bound may pass over the table's integer columns for their
  /// value ranges. Never set for a streamed probe side.
  bool scan_values = false;
  std::vector<const Column*> columns;
};

/// Upper bound on the bytes of an aggregate's result with `num_aggregates`
/// aggregate columns (8 bytes each) over the group-by columns of `sources`.
/// A group key is one value combination per source, so the groups are at
/// most the product over sources of min(rows, product of its columns'
/// distinct-value bounds). A column's bound is its dictionary size
/// (string), its value range (integer, when `scan_values`), or unbounded.
/// No group-by column means one group.
size_t AggregateResultBytesBound(const std::vector<GroupKeySource>& sources,
                                 size_t num_aggregates);

}  // namespace kernel_internal
}  // namespace hetdb

#endif  // HETDB_OPERATORS_KERNELS_INTERNAL_H_
