#include "operators/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "operators/kernels_internal.h"
#include "telemetry/telemetry.h"

namespace hetdb {

using namespace kernel_internal;  // NOLINT — shared kernel building blocks

// Shared building blocks (declared in kernels_internal.h) live in
// kernel_internal so the fused pipeline kernel reuses them; everything else
// in this file stays in the anonymous namespace below.
namespace kernel_internal {

void RecordLoop(KernelStats& stats, size_t total, size_t morsel_rows,
                int workers) {
  stats.dop->Record(workers);
  stats.morsels->Increment(static_cast<int64_t>(
      total == 0 ? 0 : (total + morsel_rows - 1) / morsel_rows));
}

Result<double> ValueAsDouble(const Value& value) {
  if (std::holds_alternative<int64_t>(value)) {
    return static_cast<double>(std::get<int64_t>(value));
  }
  if (std::holds_alternative<double>(value)) return std::get<double>(value);
  return Status::InvalidArgument("expected numeric constant, got string");
}

Result<int64_t> ValueAsInt64(const Value& value) {
  if (std::holds_alternative<int64_t>(value)) return std::get<int64_t>(value);
  if (std::holds_alternative<double>(value)) {
    return static_cast<int64_t>(std::get<double>(value));
  }
  return Status::InvalidArgument("expected numeric constant, got string");
}

/// Reads an integer join key; fatal if the column is not integer-typed.
int64_t IntKeyAt(const Column& column, size_t row) {
  if (column.type() == DataType::kInt32) {
    return static_cast<const Int32Column&>(column).value(row);
  }
  HETDB_CHECK(column.type() == DataType::kInt64);
  return static_cast<const Int64Column&>(column).value(row);
}

/// Reads a numeric column value as double (fatal on string columns).
double NumericAt(const Column& column, size_t row) {
  switch (column.type()) {
    case DataType::kInt32:
      return static_cast<const Int32Column&>(column).value(row);
    case DataType::kInt64:
      return static_cast<double>(
          static_cast<const Int64Column&>(column).value(row));
    case DataType::kDouble:
      return static_cast<const DoubleColumn&>(column).value(row);
    case DataType::kString:
      HETDB_LOG(Fatal) << "numeric access on string column " << column.name();
  }
  return 0;
}

/// out[i] = src[rows[i]], morsel-parallel. Every slot is written by exactly
/// one worker, so the result is identical at any DoP.
template <typename T>
std::vector<T> GatherValues(const std::vector<T>& src,
                            const std::vector<uint32_t>& rows) {
  std::vector<T> out(rows.size());
  ParallelFor(rows.size(), MorselRows(), [&](size_t begin, size_t end, int) {
    for (size_t i = begin; i < end; ++i) out[i] = src[rows[i]];
  });
  return out;
}

/// Copies `rows` of `source` into a fresh column. The output is named
/// `name_override` when non-empty, `source.name()` otherwise.
ColumnPtr GatherColumn(const Column& source, const std::vector<uint32_t>& rows,
                       const std::string& name_override) {
  const std::string& name =
      name_override.empty() ? source.name() : name_override;
  switch (source.type()) {
    case DataType::kInt32:
      return std::make_shared<Int32Column>(
          name,
          GatherValues(static_cast<const Int32Column&>(source).values(), rows));
    case DataType::kInt64:
      return std::make_shared<Int64Column>(
          name,
          GatherValues(static_cast<const Int64Column&>(source).values(), rows));
    case DataType::kDouble:
      return std::make_shared<DoubleColumn>(
          name, GatherValues(static_cast<const DoubleColumn&>(source).values(),
                             rows));
    case DataType::kString: {
      const auto& str = static_cast<const StringColumn&>(source);
      auto out = StringColumn::FromDictionary(name, str.dictionary());
      out->mutable_codes() = GatherValues(str.codes(), rows);
      return out;
    }
  }
  return nullptr;
}

}  // namespace kernel_internal

namespace {

// ---------------------------------------------------------------------------
// Filter: predicate compilation + evaluation
// ---------------------------------------------------------------------------

/// Ors the rows matching `atom` into `mask` (reference filter).
Status EvalAtomInto(const Table& input, const Predicate& atom,
                    std::vector<uint8_t>* mask) {
  HETDB_ASSIGN_OR_RETURN(ColumnPtr column, input.GetColumn(atom.column));
  const size_t n = column->num_rows();

  switch (column->type()) {
    case DataType::kInt32: {
      const auto& values = static_cast<const Int32Column&>(*column).values();
      HETDB_ASSIGN_OR_RETURN(int64_t rhs, ValueAsInt64(atom.value));
      int64_t rhs2 = 0;
      if (atom.op == CompareOp::kBetween) {
        HETDB_ASSIGN_OR_RETURN(rhs2, ValueAsInt64(atom.value2));
      }
      for (size_t i = 0; i < n; ++i) {
        if (CompareValues<int64_t>(values[i], atom.op, rhs, rhs2)) {
          (*mask)[i] = 1;
        }
      }
      return Status::OK();
    }
    case DataType::kInt64: {
      const auto& values = static_cast<const Int64Column&>(*column).values();
      HETDB_ASSIGN_OR_RETURN(int64_t rhs, ValueAsInt64(atom.value));
      int64_t rhs2 = 0;
      if (atom.op == CompareOp::kBetween) {
        HETDB_ASSIGN_OR_RETURN(rhs2, ValueAsInt64(atom.value2));
      }
      for (size_t i = 0; i < n; ++i) {
        if (CompareValues<int64_t>(values[i], atom.op, rhs, rhs2)) {
          (*mask)[i] = 1;
        }
      }
      return Status::OK();
    }
    case DataType::kDouble: {
      const auto& values = static_cast<const DoubleColumn&>(*column).values();
      HETDB_ASSIGN_OR_RETURN(double rhs, ValueAsDouble(atom.value));
      double rhs2 = 0;
      if (atom.op == CompareOp::kBetween) {
        HETDB_ASSIGN_OR_RETURN(rhs2, ValueAsDouble(atom.value2));
      }
      for (size_t i = 0; i < n; ++i) {
        if (CompareValues<double>(values[i], atom.op, rhs, rhs2)) {
          (*mask)[i] = 1;
        }
      }
      return Status::OK();
    }
    case DataType::kString: {
      const auto& str = static_cast<const StringColumn&>(*column);
      if (!std::holds_alternative<std::string>(atom.value)) {
        return Status::InvalidArgument("string column '" + atom.column +
                                       "' compared with numeric constant");
      }
      const std::string& rhs = std::get<std::string>(atom.value);
      const auto& codes = str.codes();
      // Translate the string predicate into an equivalent predicate over
      // dictionary codes. Equality works on any dictionary; range predicates
      // need an order-preserving one.
      if (atom.op == CompareOp::kEq || atom.op == CompareOp::kNe) {
        Result<int32_t> code = str.CodeFor(rhs);
        if (!code.ok()) {
          // Constant not in the dictionary: Eq matches nothing, Ne all rows.
          if (atom.op == CompareOp::kNe) {
            std::fill(mask->begin(), mask->end(), 1);
          }
          return Status::OK();
        }
        const int32_t target = code.value();
        if (atom.op == CompareOp::kEq) {
          for (size_t i = 0; i < n; ++i) {
            if (codes[i] == target) (*mask)[i] = 1;
          }
        } else {
          for (size_t i = 0; i < n; ++i) {
            if (codes[i] != target) (*mask)[i] = 1;
          }
        }
        return Status::OK();
      }
      if (!str.order_preserving()) {
        return Status::InvalidArgument(
            "range predicate on non-order-preserving dictionary column '" +
            atom.column + "'");
      }
      // Half-open bounds over codes: [lower_bound(x), upper_bound(y)).
      int32_t lo = 0;
      int32_t hi = static_cast<int32_t>(str.dictionary().size());
      switch (atom.op) {
        case CompareOp::kLt:
          hi = str.LowerBoundCode(rhs);
          break;
        case CompareOp::kLe:
          hi = str.UpperBoundCode(rhs);
          break;
        case CompareOp::kGt:
          lo = str.UpperBoundCode(rhs);
          break;
        case CompareOp::kGe:
          lo = str.LowerBoundCode(rhs);
          break;
        case CompareOp::kBetween: {
          if (!std::holds_alternative<std::string>(atom.value2)) {
            return Status::InvalidArgument("between on string column '" +
                                           atom.column +
                                           "' needs string bounds");
          }
          lo = str.LowerBoundCode(rhs);
          hi = str.UpperBoundCode(std::get<std::string>(atom.value2));
          break;
        }
        default:
          return Status::Internal("unhandled string compare op");
      }
      for (size_t i = 0; i < n; ++i) {
        if (codes[i] >= lo && codes[i] < hi) (*mask)[i] = 1;
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled column type");
}

}  // namespace

namespace kernel_internal {

/// Lowers `atom` against `input`. Mirrors EvalAtomInto exactly: same column
/// lookup, same constant coercions, and the same error statuses in the same
/// order, so the reference and morsel-parallel filters fail identically.
Result<CompiledAtom> CompileAtom(const Table& input, const Predicate& atom) {
  HETDB_ASSIGN_OR_RETURN(ColumnPtr column, input.GetColumn(atom.column));
  CompiledAtom out;
  out.op = atom.op;

  switch (column->type()) {
    case DataType::kInt32:
    case DataType::kInt64: {
      HETDB_ASSIGN_OR_RETURN(out.ilo, ValueAsInt64(atom.value));
      if (atom.op == CompareOp::kBetween) {
        HETDB_ASSIGN_OR_RETURN(out.ihi, ValueAsInt64(atom.value2));
      }
      if (column->type() == DataType::kInt32) {
        out.kind = CompiledAtom::Kind::kInt32Cmp;
        out.i32 = static_cast<const Int32Column&>(*column).values().data();
      } else {
        out.kind = CompiledAtom::Kind::kInt64Cmp;
        out.i64 = static_cast<const Int64Column&>(*column).values().data();
      }
      return out;
    }
    case DataType::kDouble: {
      HETDB_ASSIGN_OR_RETURN(out.dlo, ValueAsDouble(atom.value));
      if (atom.op == CompareOp::kBetween) {
        HETDB_ASSIGN_OR_RETURN(out.dhi, ValueAsDouble(atom.value2));
      }
      out.kind = CompiledAtom::Kind::kDoubleCmp;
      out.f64 = static_cast<const DoubleColumn&>(*column).values().data();
      return out;
    }
    case DataType::kString: {
      const auto& str = static_cast<const StringColumn&>(*column);
      if (!std::holds_alternative<std::string>(atom.value)) {
        return Status::InvalidArgument("string column '" + atom.column +
                                       "' compared with numeric constant");
      }
      const std::string& rhs = std::get<std::string>(atom.value);
      out.codes = str.codes().data();
      if (atom.op == CompareOp::kEq || atom.op == CompareOp::kNe) {
        Result<int32_t> code = str.CodeFor(rhs);
        if (!code.ok()) {
          out.kind = atom.op == CompareOp::kNe ? CompiledAtom::Kind::kAllRows
                                               : CompiledAtom::Kind::kNoRows;
          return out;
        }
        out.clo = code.value();
        out.kind = atom.op == CompareOp::kEq ? CompiledAtom::Kind::kCodeEq
                                             : CompiledAtom::Kind::kCodeNe;
        return out;
      }
      if (!str.order_preserving()) {
        return Status::InvalidArgument(
            "range predicate on non-order-preserving dictionary column '" +
            atom.column + "'");
      }
      out.clo = 0;
      out.chi = static_cast<int32_t>(str.dictionary().size());
      switch (atom.op) {
        case CompareOp::kLt:
          out.chi = str.LowerBoundCode(rhs);
          break;
        case CompareOp::kLe:
          out.chi = str.UpperBoundCode(rhs);
          break;
        case CompareOp::kGt:
          out.clo = str.UpperBoundCode(rhs);
          break;
        case CompareOp::kGe:
          out.clo = str.LowerBoundCode(rhs);
          break;
        case CompareOp::kBetween: {
          if (!std::holds_alternative<std::string>(atom.value2)) {
            return Status::InvalidArgument("between on string column '" +
                                           atom.column +
                                           "' needs string bounds");
          }
          out.clo = str.LowerBoundCode(rhs);
          out.chi = str.UpperBoundCode(std::get<std::string>(atom.value2));
          break;
        }
        default:
          return Status::Internal("unhandled string compare op");
      }
      out.kind = CompiledAtom::Kind::kCodeRange;
      return out;
    }
  }
  return Status::Internal("unhandled column type");
}

/// Branch-free OR of a comparison over `len` contiguous values into `out`.
/// `C` is the comparison domain (int64 for integer columns — the same
/// promotion the reference filter applies — double for double columns).
template <typename T, typename C>
void OrCmpInto(const T* v, CompareOp op, C rhs, C rhs2, size_t len,
               uint8_t* out) {
  switch (op) {
    case CompareOp::kEq:
      for (size_t i = 0; i < len; ++i)
        out[i] |= static_cast<uint8_t>(static_cast<C>(v[i]) == rhs);
      return;
    case CompareOp::kNe:
      for (size_t i = 0; i < len; ++i)
        out[i] |= static_cast<uint8_t>(static_cast<C>(v[i]) != rhs);
      return;
    case CompareOp::kLt:
      for (size_t i = 0; i < len; ++i)
        out[i] |= static_cast<uint8_t>(static_cast<C>(v[i]) < rhs);
      return;
    case CompareOp::kLe:
      for (size_t i = 0; i < len; ++i)
        out[i] |= static_cast<uint8_t>(static_cast<C>(v[i]) <= rhs);
      return;
    case CompareOp::kGt:
      for (size_t i = 0; i < len; ++i)
        out[i] |= static_cast<uint8_t>(static_cast<C>(v[i]) > rhs);
      return;
    case CompareOp::kGe:
      for (size_t i = 0; i < len; ++i)
        out[i] |= static_cast<uint8_t>(static_cast<C>(v[i]) >= rhs);
      return;
    case CompareOp::kBetween:
      for (size_t i = 0; i < len; ++i)
        out[i] |= static_cast<uint8_t>((static_cast<C>(v[i]) >= rhs) &
                                       (static_cast<C>(v[i]) <= rhs2));
      return;
  }
}

/// Ors `atom` over rows [begin, begin+len) into the morsel-local `out`.
void OrAtomInto(const CompiledAtom& atom, size_t begin, size_t len,
                uint8_t* out) {
  switch (atom.kind) {
    case CompiledAtom::Kind::kInt32Cmp:
      OrCmpInto<int32_t, int64_t>(atom.i32 + begin, atom.op, atom.ilo,
                                  atom.ihi, len, out);
      return;
    case CompiledAtom::Kind::kInt64Cmp:
      OrCmpInto<int64_t, int64_t>(atom.i64 + begin, atom.op, atom.ilo,
                                  atom.ihi, len, out);
      return;
    case CompiledAtom::Kind::kDoubleCmp:
      OrCmpInto<double, double>(atom.f64 + begin, atom.op, atom.dlo, atom.dhi,
                                len, out);
      return;
    case CompiledAtom::Kind::kCodeEq: {
      const int32_t* codes = atom.codes + begin;
      for (size_t i = 0; i < len; ++i)
        out[i] |= static_cast<uint8_t>(codes[i] == atom.clo);
      return;
    }
    case CompiledAtom::Kind::kCodeNe: {
      const int32_t* codes = atom.codes + begin;
      for (size_t i = 0; i < len; ++i)
        out[i] |= static_cast<uint8_t>(codes[i] != atom.clo);
      return;
    }
    case CompiledAtom::Kind::kCodeRange: {
      const int32_t* codes = atom.codes + begin;
      for (size_t i = 0; i < len; ++i)
        out[i] |= static_cast<uint8_t>((codes[i] >= atom.clo) &
                                       (codes[i] < atom.chi));
      return;
    }
    case CompiledAtom::Kind::kAllRows:
      std::fill(out, out + len, uint8_t{1});
      return;
    case CompiledAtom::Kind::kNoRows:
      return;
  }
}

Result<CompiledCnf> CompileCnf(const Table& input,
                               const ConjunctiveFilter& filter) {
  CompiledCnf cnf;
  cnf.reserve(filter.conjuncts.size());
  for (const Disjunction& disjunction : filter.conjuncts) {
    std::vector<CompiledAtom>& atoms = cnf.emplace_back();
    atoms.reserve(disjunction.atoms.size());
    for (const Predicate& atom : disjunction.atoms) {
      HETDB_ASSIGN_OR_RETURN(CompiledAtom compiled, CompileAtom(input, atom));
      atoms.push_back(compiled);
    }
  }
  return cnf;
}

void CnfKeepMask(const CompiledCnf& cnf, size_t begin, size_t len,
                 uint8_t* keep, std::vector<uint8_t>* scratch) {
  std::fill(keep, keep + len, uint8_t{1});
  if (scratch->size() < len) scratch->resize(len);
  uint8_t* dis = scratch->data();
  for (const std::vector<CompiledAtom>& atoms : cnf) {
    std::fill(dis, dis + len, uint8_t{0});
    for (const CompiledAtom& atom : atoms) OrAtomInto(atom, begin, len, dis);
    for (size_t i = 0; i < len; ++i) keep[i] &= dis[i];
  }
}

}  // namespace kernel_internal

/// Row-at-a-time atoms over full columns.
Result<std::vector<uint32_t>> EvaluateFilterReference(
    const Table& input, const ConjunctiveFilter& filter) {
  const size_t n = input.num_rows();
  std::vector<uint8_t> result(n, 1);
  std::vector<uint8_t> disjunct(n, 0);
  for (const Disjunction& disjunction : filter.conjuncts) {
    std::fill(disjunct.begin(), disjunct.end(), 0);
    for (const Predicate& atom : disjunction.atoms) {
      HETDB_RETURN_NOT_OK(EvalAtomInto(input, atom, &disjunct));
    }
    for (size_t i = 0; i < n; ++i) result[i] &= disjunct[i];
  }
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) matches += result[i];
  std::vector<uint32_t> rows;
  rows.reserve(matches);
  for (size_t i = 0; i < n; ++i) {
    if (result[i]) rows.push_back(static_cast<uint32_t>(i));
  }
  return rows;
}

namespace {

/// Morsel-parallel filter. Phase A writes each morsel's CNF keep-mask into a
/// shared mask and counts survivors per morsel; after a serial prefix sum
/// over those counts, phase B compacts indices into per-worker scratch, then
/// block-copies each morsel's survivors to its exclusive output range.
/// Output is ascending row ids — byte-identical to EvaluateFilterReference.
Result<std::vector<uint32_t>> EvaluateFilterParallel(
    const Table& input, const ConjunctiveFilter& filter, KernelStats& stats) {
  const size_t n = input.num_rows();
  HETDB_ASSIGN_OR_RETURN(CompiledCnf cnf, CompileCnf(input, filter));

  const size_t morsel = MorselRows();
  const size_t num_morsels = n == 0 ? 0 : (n + morsel - 1) / morsel;
  const int max_workers = MaxParallelWorkers(n, morsel);

  std::vector<uint8_t> keep(n);
  std::vector<size_t> kept_in_morsel(num_morsels, 0);
  std::vector<std::vector<uint8_t>> disjunct_scratch(max_workers);

  const int workers = ParallelFor(
      n, morsel, [&](size_t begin, size_t end, int worker) {
        const size_t len = end - begin;
        uint8_t* keep_at = keep.data() + begin;
        CnfKeepMask(cnf, begin, len, keep_at, &disjunct_scratch[worker]);
        size_t kept = 0;
        for (size_t i = 0; i < len; ++i) kept += keep_at[i];
        kept_in_morsel[begin / morsel] = kept;
      });
  RecordLoop(stats, n, morsel, workers);

  std::vector<size_t> offsets(num_morsels + 1, 0);
  for (size_t m = 0; m < num_morsels; ++m) {
    offsets[m + 1] = offsets[m] + kept_in_morsel[m];
  }

  std::vector<uint32_t> rows(offsets[num_morsels]);
  std::vector<std::vector<uint32_t>> index_scratch(max_workers);
  ParallelFor(n, morsel, [&](size_t begin, size_t end, int worker) {
    std::vector<uint32_t>& buf = index_scratch[worker];
    if (buf.size() < morsel) buf.resize(morsel);
    // The compaction over-stores into private scratch, never into a
    // neighbour morsel's output range, so the copy below is safe under
    // concurrency.
    const size_t out =
        CompactKeptRows(keep.data() + begin, begin, end - begin, buf.data());
    if (out > 0) {
      std::memcpy(rows.data() + offsets[begin / morsel], buf.data(),
                  out * sizeof(uint32_t));
    }
  });
  return rows;
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

struct JoinMatches {
  std::vector<uint32_t> build_rows;
  std::vector<uint32_t> probe_rows;
};

}  // namespace

namespace kernel_internal {

std::vector<std::vector<uint32_t>> ConcatMorselRows(
    const MorselRowBuffers& buffers, size_t streams) {
  const size_t morsels = buffers.size();
  std::vector<size_t> off(morsels + 1, 0);
  for (size_t m = 0; m < morsels; ++m) {
    off[m + 1] = off[m] + (buffers[m].empty() ? 0 : buffers[m][0].size());
  }
  std::vector<std::vector<uint32_t>> rows(streams);
  for (std::vector<uint32_t>& stream : rows) stream.resize(off[morsels]);
  // Copy in morsels of output rows, so a result of one morsel or less copies
  // on the calling thread without waking helpers.
  ParallelFor(off[morsels], MorselRows(), [&](size_t begin, size_t end, int) {
    // The last morsel starting at or before `begin`; it holds row `begin`.
    auto m = static_cast<size_t>(
        std::upper_bound(off.begin(), off.end(), begin) - off.begin() - 1);
    for (size_t at = begin; at < end; ++m) {
      const size_t stop = std::min(end, off[m + 1]);
      if (stop == at) continue;  // a morsel that emitted nothing
      for (size_t s = 0; s < streams; ++s) {
        std::memcpy(rows[s].data() + at, buffers[m][s].data() + (at - off[m]),
                    (stop - at) * sizeof(uint32_t));
      }
      at = stop;
    }
  });
  return rows;
}

JoinTable::JoinTable(const Column& keys, KernelStats& stats) {
  if (keys.type() == DataType::kInt32) {
    Build(static_cast<const Int32Column&>(keys).values().data(),
          keys.num_rows(), stats);
    return;
  }
  HETDB_CHECK(keys.type() == DataType::kInt64);
  Build(static_cast<const Int64Column&>(keys).values().data(), keys.num_rows(),
        stats);
}

template <typename T>
void JoinTable::Build(const T* keys, size_t rows, KernelStats& stats) {
  next_.assign(rows, kNoEntry);
  if (rows > 0) {
    int64_t min_key = static_cast<int64_t>(keys[0]);
    int64_t max_key = min_key;
    for (size_t i = 1; i < rows; ++i) {
      const auto key = static_cast<int64_t>(keys[i]);
      min_key = std::min(min_key, key);
      max_key = std::max(max_key, key);
    }
    const uint64_t range =
        static_cast<uint64_t>(max_key) - static_cast<uint64_t>(min_key);
    if (range < std::max<uint64_t>(8192, 8 * static_cast<uint64_t>(rows))) {
      // Direct-address build, serial: the build side is the small
      // (dimension) input, and the serial loop keeps duplicate chains in
      // ascending-row order for free.
      dense_ = true;
      min_key_ = static_cast<uint64_t>(min_key);
      range_ = range;
      heads_.assign(range + 1, kNoEntry);
      std::vector<uint32_t> tails(range + 1, kNoEntry);
      for (size_t i = 0; i < rows; ++i) {
        const uint64_t k =
            static_cast<uint64_t>(static_cast<int64_t>(keys[i])) - min_key_;
        if (heads_[k] == kNoEntry) {
          heads_[k] = static_cast<uint32_t>(i);
        } else {
          next_[tails[k]] = static_cast<uint32_t>(i);
        }
        tails[k] = static_cast<uint32_t>(i);
      }
      return;
    }
  }

  // Radix-partitioned build. Phase 1: per-(morsel, partition) histograms.
  const size_t morsel = MorselRows();
  constexpr size_t kMaxParts = 64;
  size_t parts = 1;
  while (parts < kMaxParts && parts * morsel < rows) parts <<= 1;
  part_bits_ = std::countr_zero(parts);
  const size_t build_morsels = rows == 0 ? 0 : (rows + morsel - 1) / morsel;
  std::vector<uint32_t> hist(build_morsels * parts, 0);
  const int workers = ParallelFor(
      rows, morsel, [&](size_t begin, size_t end, int) {
        uint32_t* h = hist.data() + (begin / morsel) * parts;
        for (size_t i = begin; i < end; ++i) {
          const auto key = static_cast<int64_t>(keys[i]);
          ++h[Partition(MixHash(static_cast<uint64_t>(key)))];
        }
      });
  RecordLoop(stats, rows, morsel, workers);

  // Serial pass: partition-major offsets. Iterating morsels in order within
  // each partition keeps the scatter stable (ascending build row).
  std::vector<size_t> scatter_pos(build_morsels * parts);
  std::vector<size_t> part_begin(parts + 1, 0);
  size_t run = 0;
  for (size_t p = 0; p < parts; ++p) {
    part_begin[p] = run;
    for (size_t m = 0; m < build_morsels; ++m) {
      scatter_pos[m * parts + p] = run;
      run += hist[m * parts + p];
    }
  }
  part_begin[parts] = run;

  // Phase 2: stable scatter into partition-contiguous entry storage.
  struct Entry {
    int64_t key;
    uint32_t row;
  };
  std::vector<Entry> entries(rows);
  ParallelFor(rows, morsel, [&](size_t begin, size_t end, int) {
    size_t cursor[kMaxParts];
    std::copy_n(scatter_pos.data() + (begin / morsel) * parts, parts, cursor);
    for (size_t i = begin; i < end; ++i) {
      const auto key = static_cast<int64_t>(keys[i]);
      const size_t p = Partition(MixHash(static_cast<uint64_t>(key)));
      entries[cursor[p]++] = {key, static_cast<uint32_t>(i)};
    }
  });

  // Phase 3: one open-addressing table per partition (linear probing).
  // Partitions build in parallel; within a partition, entries insert in
  // ascending-row order, so duplicate chains replay the reference join's
  // first-match-then-overflow order. Each build row lies in one partition,
  // so the partitions' `next_` writes are disjoint.
  table_off_.assign(parts + 1, 0);
  table_mask_.resize(parts);
  for (size_t p = 0; p < parts; ++p) {
    const size_t count = part_begin[p + 1] - part_begin[p];
    const size_t size = std::bit_ceil(std::max<size_t>(2, 2 * count));
    table_mask_[p] = size - 1;
    table_off_[p + 1] = table_off_[p] + size;
  }
  slots_.assign(table_off_[parts], Slot{0, kNoEntry, 0});
  ParallelFor(parts, 1, [&](size_t begin, size_t end, int) {
    for (size_t p = begin; p < end; ++p) {
      Slot* table = slots_.data() + table_off_[p];
      const size_t mask = table_mask_[p];
      for (size_t e = part_begin[p]; e < part_begin[p + 1]; ++e) {
        const Entry& entry = entries[e];
        size_t idx = MixHash(static_cast<uint64_t>(entry.key)) & mask;
        while (true) {
          Slot& slot = table[idx];
          if (slot.head == kNoEntry) {
            slot = {entry.key, entry.row, entry.row};
            break;
          }
          if (slot.key == entry.key) {
            next_[slot.tail] = entry.row;
            slot.tail = entry.row;
            break;
          }
          idx = (idx + 1) & mask;
        }
      }
    }
  });
}

}  // namespace kernel_internal

namespace {

/// Probes every row of `probe_keys` against `table` in morsels. Per-morsel
/// match buffers concatenate in probe-row order, so matches come out in the
/// reference join's (probe ascending, build ascending within key) order.
template <typename T>
JoinMatches ProbeJoinTable(const JoinTable& table, const T* probe_keys,
                           size_t probe_rows, KernelStats& stats) {
  const size_t morsel = MorselRows();
  MorselRowBuffers buffers(
      probe_rows == 0 ? 0 : (probe_rows + morsel - 1) / morsel);
  const int workers = ParallelFor(
      probe_rows, morsel, [&](size_t begin, size_t end, int) {
        // Stream 0: probe rows, stream 1: build rows. ~1 match per probe row
        // (PK-FK); reserving that keeps the append loop realloc-free.
        std::vector<std::vector<uint32_t>>& streams = buffers[begin / morsel];
        streams.resize(2);
        std::vector<uint32_t>& probe_match = streams[0];
        std::vector<uint32_t>& build_match = streams[1];
        probe_match.reserve(end - begin);
        build_match.reserve(end - begin);
        for (size_t i = begin; i < end; ++i) {
          for (uint32_t e = table.First(static_cast<int64_t>(probe_keys[i]));
               e != kNoEntry; e = table.Next(e)) {
            probe_match.push_back(static_cast<uint32_t>(i));
            build_match.push_back(e);
          }
        }
      });
  RecordLoop(stats, probe_rows, morsel, workers);
  std::vector<std::vector<uint32_t>> rows = ConcatMorselRows(buffers, 2);
  return JoinMatches{std::move(rows[1]), std::move(rows[0])};
}

Result<TablePtr> MaterializeJoinOutput(const Table& build, const Table& probe,
                                       const JoinOutputSpec& output_spec,
                                       const JoinMatches& matches,
                                       const std::string& name) {
  if (!output_spec.build_aliases.empty() &&
      output_spec.build_aliases.size() != output_spec.build_columns.size()) {
    return Status::InvalidArgument("build_aliases size mismatch");
  }
  if (!output_spec.probe_aliases.empty() &&
      output_spec.probe_aliases.size() != output_spec.probe_columns.size()) {
    return Status::InvalidArgument("probe_aliases size mismatch");
  }
  auto output = std::make_shared<Table>(name);
  for (size_t i = 0; i < output_spec.build_columns.size(); ++i) {
    HETDB_ASSIGN_OR_RETURN(ColumnPtr column,
                           build.GetColumn(output_spec.build_columns[i]));
    const std::string& alias = output_spec.build_aliases.empty()
                                   ? output_spec.build_columns[i]
                                   : output_spec.build_aliases[i];
    HETDB_RETURN_NOT_OK(
        output->AddColumn(GatherColumn(*column, matches.build_rows, alias)));
  }
  for (size_t i = 0; i < output_spec.probe_columns.size(); ++i) {
    HETDB_ASSIGN_OR_RETURN(ColumnPtr column,
                           probe.GetColumn(output_spec.probe_columns[i]));
    const std::string& alias = output_spec.probe_aliases.empty()
                                   ? output_spec.probe_columns[i]
                                   : output_spec.probe_aliases[i];
    HETDB_RETURN_NOT_OK(
        output->AddColumn(GatherColumn(*column, matches.probe_rows, alias)));
  }
  if (output->num_columns() == 0) {
    output->set_num_rows(matches.probe_rows.size());  // e.g. for COUNT(*)
  }
  return output;
}

}  // namespace

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

namespace kernel_internal {

AggInput ClassifyAggInput(const ColumnPtr& column, size_t num_rows) {
  AggInput input;
  if (column == nullptr) return input;  // COUNT(*)
  switch (column->type()) {
    case DataType::kInt32:
      input.kind = AggInput::Kind::kInt32;
      input.i32 = static_cast<const Int32Column&>(*column).values().data();
      return input;
    case DataType::kInt64:
      input.kind = AggInput::Kind::kInt64;
      input.i64 = static_cast<const Int64Column&>(*column).values().data();
      return input;
    case DataType::kDouble:
      input.kind = AggInput::Kind::kDouble;
      input.f64 = static_cast<const DoubleColumn&>(*column).values().data();
      return input;
    case DataType::kString:
      if (num_rows > 0) {
        HETDB_LOG(Fatal) << "numeric access on string column "
                         << column->name();
      }
      input.kind = AggInput::Kind::kDouble;
      return input;
  }
  return input;
}

/// Converts accumulators to output columns; shared so all kernels apply
/// the identical typing rules (COUNT and integer SUM/MIN/MAX stay int64,
/// AVG and double inputs produce doubles).
Status AppendAggregateColumns(const std::vector<AggregateSpec>& aggregates,
                              const std::vector<AggInput>& inputs,
                              const std::vector<std::vector<Acc>>& accs,
                              size_t num_groups, Table* output) {
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggregateSpec& spec = aggregates[a];
    const AggInput& in = inputs[a];
    const auto& acc = accs[a];
    const bool integer_input = in.kind == AggInput::Kind::kInt32 ||
                               in.kind == AggInput::Kind::kInt64;
    const bool integer_output =
        spec.fn == AggregateFn::kCount ||
        (integer_input && spec.fn != AggregateFn::kAvg);
    if (integer_output) {
      std::vector<int64_t> values(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        switch (spec.fn) {
          case AggregateFn::kSum:
            values[g] = acc[g].isum;
            break;
          case AggregateFn::kCount:
            values[g] = acc[g].count;
            break;
          case AggregateFn::kMin:
            values[g] = acc[g].count > 0 ? acc[g].imin : 0;
            break;
          case AggregateFn::kMax:
            values[g] = acc[g].count > 0 ? acc[g].imax : 0;
            break;
          case AggregateFn::kAvg:
            values[g] = 0;  // unreachable: AVG is never integer_output
            break;
        }
      }
      HETDB_RETURN_NOT_OK(output->AddColumn(
          std::make_shared<Int64Column>(spec.output_name, std::move(values))));
    } else {
      std::vector<double> values(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        if (integer_input) {  // only AVG reaches here
          values[g] = acc[g].count > 0
                          ? static_cast<double>(acc[g].isum) /
                                static_cast<double>(acc[g].count)
                          : 0;
          continue;
        }
        switch (spec.fn) {
          case AggregateFn::kSum:
            values[g] = acc[g].dsum;
            break;
          case AggregateFn::kCount:
            values[g] = static_cast<double>(acc[g].count);  // unreachable
            break;
          case AggregateFn::kMin:
            values[g] = acc[g].count > 0 ? acc[g].dmin : 0;
            break;
          case AggregateFn::kMax:
            values[g] = acc[g].count > 0 ? acc[g].dmax : 0;
            break;
          case AggregateFn::kAvg:
            values[g] = acc[g].count > 0
                            ? acc[g].dsum / static_cast<double>(acc[g].count)
                            : 0;
            break;
        }
      }
      HETDB_RETURN_NOT_OK(output->AddColumn(std::make_shared<DoubleColumn>(
          spec.output_name, std::move(values))));
    }
  }
  return Status::OK();
}

}  // namespace kernel_internal

namespace {

Status ResolveAggregateColumns(const Table& input,
                               const std::vector<std::string>& group_by,
                               const std::vector<AggregateSpec>& aggregates,
                               std::vector<ColumnPtr>* group_cols,
                               std::vector<ColumnPtr>* agg_inputs) {
  for (const std::string& col_name : group_by) {
    HETDB_ASSIGN_OR_RETURN(ColumnPtr column, input.GetColumn(col_name));
    group_cols->push_back(std::move(column));
  }
  for (const AggregateSpec& spec : aggregates) {
    if (spec.fn == AggregateFn::kCount && spec.input_column.empty()) {
      agg_inputs->push_back(nullptr);  // COUNT(*)
      continue;
    }
    HETDB_ASSIGN_OR_RETURN(ColumnPtr column,
                           input.GetColumn(spec.input_column));
    agg_inputs->push_back(std::move(column));
  }
  return Status::OK();
}

}  // namespace

/// Byte-string group keys, one single pass over the input updating every
/// aggregate's accumulator per row.
Result<TablePtr> AggregateReference(
    const Table& input, const std::vector<std::string>& group_by,
    const std::vector<AggregateSpec>& aggregates, const std::string& name) {
  const size_t n = input.num_rows();
  std::vector<ColumnPtr> group_cols;
  std::vector<ColumnPtr> agg_inputs;
  HETDB_RETURN_NOT_OK(ResolveAggregateColumns(input, group_by, aggregates,
                                              &group_cols, &agg_inputs));

  // Encode the composite group key as raw bytes.
  std::unordered_map<std::string, uint32_t> groups;
  std::vector<uint32_t> representative_row;  // one input row per group
  std::vector<uint32_t> group_of_row(n);
  std::string key;
  for (size_t i = 0; i < n; ++i) {
    key.clear();
    for (const ColumnPtr& column : group_cols) {
      int64_t encoded;
      if (column->type() == DataType::kString) {
        encoded = static_cast<const StringColumn&>(*column).code(i);
      } else {
        encoded = IntKeyAt(*column, i);
      }
      key.append(reinterpret_cast<const char*>(&encoded), sizeof(encoded));
    }
    auto [it, inserted] =
        groups.emplace(key, static_cast<uint32_t>(representative_row.size()));
    if (inserted) representative_row.push_back(static_cast<uint32_t>(i));
    group_of_row[i] = it->second;
  }
  // A global aggregate has one group even over zero rows: it returns one
  // row of empty-group values (AppendAggregateColumns).
  const size_t num_groups =
      group_cols.empty() ? 1 : representative_row.size();

  std::vector<AggInput> inputs;
  inputs.reserve(agg_inputs.size());
  for (const ColumnPtr& column : agg_inputs) {
    inputs.push_back(ClassifyAggInput(column, n));
  }
  std::vector<std::vector<Acc>> accs(aggregates.size(),
                                     std::vector<Acc>(num_groups));
  for (size_t i = 0; i < n; ++i) {
    const uint32_t g = group_of_row[i];
    for (size_t a = 0; a < inputs.size(); ++a) {
      UpdateAcc(inputs[a], i, accs[a][g]);
    }
  }

  auto output = std::make_shared<Table>(name);
  for (const ColumnPtr& column : group_cols) {
    HETDB_RETURN_NOT_OK(
        output->AddColumn(GatherColumn(*column, representative_row)));
  }
  HETDB_RETURN_NOT_OK(AppendAggregateColumns(aggregates, inputs, accs,
                                             num_groups, output.get()));
  return output;
}

namespace kernel_internal {

std::optional<GroupKeyPacker> GroupKeyPacker::Make(
    const std::vector<const Column*>& columns) {
  const size_t num_cols = columns.size();
  std::vector<Field> fields(num_cols);
  size_t max_rows = 0;
  for (size_t c = 0; c < num_cols; ++c) {
    const Column& column = *columns[c];
    Field& field = fields[c];
    field.column = c;
    switch (column.type()) {
      case DataType::kInt32:
        field.i32 = static_cast<const Int32Column&>(column).values().data();
        break;
      case DataType::kString:
        field.i32 = static_cast<const StringColumn&>(column).codes().data();
        break;
      case DataType::kInt64:
        field.i64 = static_cast<const Int64Column&>(column).values().data();
        break;
      case DataType::kDouble:
        return std::nullopt;
    }
    max_rows = std::max(max_rows, column.num_rows());
  }

  // Prescan: per-worker, per-column min/max, reduced serially.
  const size_t morsel = MorselRows();
  const auto max_workers =
      static_cast<size_t>(MaxParallelWorkers(max_rows, morsel));
  std::vector<int64_t> wmin(max_workers * num_cols,
                            std::numeric_limits<int64_t>::max());
  std::vector<int64_t> wmax(max_workers * num_cols,
                            std::numeric_limits<int64_t>::min());
  ParallelFor(max_rows, morsel, [&](size_t begin, size_t end, int worker) {
    for (size_t c = 0; c < num_cols; ++c) {
      const size_t slot = static_cast<size_t>(worker) * num_cols + c;
      const size_t stop = std::min(end, columns[c]->num_rows());
      int64_t lo = wmin[slot], hi = wmax[slot];
      for (size_t i = begin; i < stop; ++i) {
        const int64_t v = fields[c].Value(i);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      wmin[slot] = lo;
      wmax[slot] = hi;
    }
  });

  GroupKeyPacker packer;
  int shift = 0;
  for (size_t c = 0; c < num_cols; ++c) {
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();
    for (size_t w = 0; w < max_workers; ++w) {
      lo = std::min(lo, wmin[w * num_cols + c]);
      hi = std::max(hi, wmax[w * num_cols + c]);
    }
    if (lo > hi) continue;  // empty column: no rows to tell apart
    const int width = std::bit_width(static_cast<uint64_t>(hi) -
                                     static_cast<uint64_t>(lo));
    if (width == 0) continue;  // a constant column adds no information
    if (shift + width > 64) return std::nullopt;
    fields[c].min = static_cast<uint64_t>(lo);
    fields[c].shift = shift;
    shift += width;
    packer.fields_.push_back(fields[c]);
  }
  return packer;
}

void GroupTable::Grow() {
  const size_t new_size = std::max<size_t>(1024, slot_gids_.size() * 2);
  std::vector<uint64_t> old_keys = std::move(slot_keys_);
  std::vector<uint32_t> old_gids = std::move(slot_gids_);
  slot_keys_.assign(new_size, 0);
  slot_gids_.assign(new_size, kNoEntry);
  const size_t mask = new_size - 1;
  for (size_t i = 0; i < old_gids.size(); ++i) {
    if (old_gids[i] == kNoEntry) continue;
    size_t idx = MixHash(old_keys[i]) & mask;
    while (slot_gids_[idx] != kNoEntry) idx = (idx + 1) & mask;
    slot_keys_[idx] = old_keys[i];
    slot_gids_[idx] = old_gids[i];
  }
}

size_t GatheredBytes(const Column& source, size_t rows) {
  const size_t values = SaturatingMul(rows, DataTypeWidth(source.type()));
  if (source.type() != DataType::kString) return values;
  return SaturatingAdd(
      values, static_cast<const StringColumn&>(source).dictionary_bytes());
}

namespace {

/// max - min + 1 over `values` (0 when empty).
template <typename T>
size_t ValueRange(const std::vector<T>& values) {
  if (values.empty()) return 0;
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return SaturatingAdd(
      static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo), 1);
}

/// Distinct values of `column`: its dictionary size, its value range when
/// `scan_values`, otherwise unbounded.
size_t DistinctValuesBound(const Column& column, bool scan_values) {
  switch (column.type()) {
    case DataType::kString:
      return static_cast<const StringColumn&>(column).dictionary().size();
    case DataType::kInt32:
      if (scan_values) {
        return ValueRange(static_cast<const Int32Column&>(column).values());
      }
      break;
    case DataType::kInt64:
      if (scan_values) {
        return ValueRange(static_cast<const Int64Column&>(column).values());
      }
      break;
    case DataType::kDouble:
      break;
  }
  return std::numeric_limits<size_t>::max();
}

template <typename T>
size_t MaxMultiplicity(const std::vector<T>& keys) {
  GroupTable groups;
  std::vector<uint32_t> counts;
  uint32_t most = 0;
  for (const T key : keys) {
    const uint32_t gid = groups.FindOrAdd(static_cast<uint64_t>(key));
    if (gid == counts.size()) counts.push_back(0);
    most = std::max(most, ++counts[gid]);
  }
  return most;
}

}  // namespace

size_t MaxKeyMultiplicity(const Column& keys) {
  switch (keys.type()) {
    case DataType::kInt32:
      return MaxMultiplicity(static_cast<const Int32Column&>(keys).values());
    case DataType::kInt64:
      return MaxMultiplicity(static_cast<const Int64Column&>(keys).values());
    default:
      return keys.num_rows();
  }
}

size_t AggregateResultBytesBound(const std::vector<GroupKeySource>& sources,
                                 size_t num_aggregates) {
  size_t groups = 1;
  for (const GroupKeySource& source : sources) {
    if (source.columns.empty()) continue;
    size_t combinations = 1;
    for (const Column* column : source.columns) {
      combinations = SaturatingMul(
          combinations, DistinctValuesBound(*column, source.scan_values));
    }
    groups = SaturatingMul(groups, std::min(source.rows, combinations));
  }
  // Every aggregate column is int64 or double (AppendAggregateColumns).
  size_t bytes = SaturatingMul(groups, num_aggregates * sizeof(int64_t));
  for (const GroupKeySource& source : sources) {
    for (const Column* column : source.columns) {
      bytes = SaturatingAdd(bytes, GatheredBytes(*column, groups));
    }
  }
  return bytes;
}

}  // namespace kernel_internal

namespace {

/// Morsel-parallel aggregation over packed 64-bit group keys.
///
/// GroupKeyPacker sizes each key column's bit field; if it declines (the
/// composite key does not fit in 64 bits, or a double column the reference
/// traps) the kernel falls back to AggregateReference. Phase 1 builds
/// worker-local group tables (thread-local preaggregation: no shared-table
/// contention) and tags every row with its local gid. A serial merge orders
/// the global groups by their smallest input row — exactly the reference's
/// first-seen order — and remaps (worker, local gid) to global ranks. A
/// serial stable scatter then groups row ids, and phase 2 accumulates each
/// group's rows in ascending order (the reference FP operation order) in
/// parallel over groups.
Result<TablePtr> AggregateParallel(const Table& input,
                                   const std::vector<std::string>& group_by,
                                   const std::vector<AggregateSpec>& aggregates,
                                   const std::string& name,
                                   KernelStats& stats) {
  const size_t n = input.num_rows();
  std::vector<ColumnPtr> group_cols;
  std::vector<ColumnPtr> agg_inputs;
  HETDB_RETURN_NOT_OK(ResolveAggregateColumns(input, group_by, aggregates,
                                              &group_cols, &agg_inputs));

  std::vector<const Column*> key_columns;
  for (const ColumnPtr& column : group_cols) key_columns.push_back(column.get());
  const std::optional<GroupKeyPacker> packer = GroupKeyPacker::Make(key_columns);
  if (!packer.has_value()) {
    return AggregateReference(input, group_by, aggregates, name);
  }

  const size_t morsel = MorselRows();
  const size_t num_morsels = (n + morsel - 1) / morsel;
  const int max_workers = MaxParallelWorkers(n, morsel);

  // Phase 1: worker-local preaggregation tables; rows keep their local gid.
  struct WorkerGroups {
    GroupTable table;
    std::vector<uint32_t> min_rows;  // local gid -> smallest row seen here
    std::vector<uint64_t> counts;    // local gid -> rows seen here
  };
  std::vector<WorkerGroups> locals(max_workers);
  std::vector<uint32_t> local_gid_of_row(n);
  std::vector<int> morsel_worker(num_morsels, 0);
  const int workers = ParallelFor(
      n, morsel, [&](size_t begin, size_t end, int worker) {
        WorkerGroups& local = locals[worker];
        morsel_worker[begin / morsel] = worker;
        for (size_t i = begin; i < end; ++i) {
          const auto row = static_cast<uint32_t>(i);
          const uint32_t gid = local.table.FindOrAdd(packer->Pack(i));
          if (gid == local.counts.size()) {
            local.min_rows.push_back(row);
            local.counts.push_back(1);
          } else {
            local.min_rows[gid] = std::min(local.min_rows[gid], row);
            ++local.counts[gid];
          }
          local_gid_of_row[i] = gid;
        }
      });
  RecordLoop(stats, n, morsel, workers);

  // Serial merge: unify worker tables, order groups by smallest input row
  // (= the reference's first-seen order), remap local gids to ranks.
  GroupTable merged;
  std::vector<uint32_t> merged_min;
  std::vector<uint64_t> merged_count;
  std::vector<std::vector<uint32_t>> remap(max_workers);
  for (int w = 0; w < max_workers; ++w) {
    const WorkerGroups& local = locals[w];
    remap[w].resize(local.table.size());
    for (uint32_t l = 0; l < local.table.size(); ++l) {
      const uint32_t id = merged.FindOrAdd(local.table.key(l));
      if (id == merged_min.size()) {
        merged_min.push_back(local.min_rows[l]);
        merged_count.push_back(local.counts[l]);
      } else {
        merged_min[id] = std::min(merged_min[id], local.min_rows[l]);
        merged_count[id] += local.counts[l];
      }
      remap[w][l] = id;
    }
  }
  const size_t num_groups = merged_min.size();
  std::vector<uint32_t> order(num_groups);
  std::iota(order.begin(), order.end(), 0u);
  // Each group's min row is distinct, so the order is total.
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return merged_min[a] < merged_min[b];
  });
  std::vector<uint32_t> rank(num_groups);
  for (size_t r = 0; r < num_groups; ++r) rank[order[r]] = r;
  for (int w = 0; w < max_workers; ++w) {
    for (uint32_t& id : remap[w]) id = rank[id];
  }

  std::vector<uint32_t> representative_row(num_groups);
  std::vector<size_t> group_off(num_groups + 1, 0);
  for (size_t r = 0; r < num_groups; ++r) {
    representative_row[r] = merged_min[order[r]];
    group_off[r + 1] = group_off[r] + merged_count[order[r]];
  }

  // Serial stable scatter: rows grouped, ascending within each group. Kept
  // serial on purpose — a parallel version needs per-(morsel, group)
  // histograms, which degenerate when every row is its own group.
  std::vector<uint32_t> rows_by_group(n);
  std::vector<size_t> cursor(group_off.begin(), group_off.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t g = remap[morsel_worker[i / morsel]][local_gid_of_row[i]];
    rows_by_group[cursor[g]++] = static_cast<uint32_t>(i);
  }

  // Phase 2: accumulate, parallel over groups; each group replays its rows
  // in ascending order so double sums match the reference bit-for-bit.
  std::vector<AggInput> inputs;
  inputs.reserve(agg_inputs.size());
  for (const ColumnPtr& column : agg_inputs) {
    inputs.push_back(ClassifyAggInput(column, n));
  }
  std::vector<std::vector<Acc>> accs(aggregates.size(),
                                     std::vector<Acc>(num_groups));
  constexpr size_t kGroupMorsel = 64;
  ParallelFor(num_groups, kGroupMorsel,
              [&](size_t gbegin, size_t gend, int) {
                for (size_t g = gbegin; g < gend; ++g) {
                  for (size_t r = group_off[g]; r < group_off[g + 1]; ++r) {
                    const size_t row = rows_by_group[r];
                    for (size_t a = 0; a < inputs.size(); ++a) {
                      UpdateAcc(inputs[a], row, accs[a][g]);
                    }
                  }
                }
              });

  auto output = std::make_shared<Table>(name);
  for (const ColumnPtr& column : group_cols) {
    HETDB_RETURN_NOT_OK(
        output->AddColumn(GatherColumn(*column, representative_row)));
  }
  HETDB_RETURN_NOT_OK(AppendAggregateColumns(aggregates, inputs, accs,
                                             num_groups, output.get()));
  return output;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public kernels
// ---------------------------------------------------------------------------

Result<std::vector<uint32_t>> EvaluateFilter(const Table& input,
                                             const ConjunctiveFilter& filter) {
  static KernelStats stats("filter");
  KernelTimer timer(stats);
  return EvaluateFilterParallel(input, filter, stats);
}

Result<TablePtr> GatherRows(const Table& input,
                            const std::vector<uint32_t>& rows,
                            const std::string& name) {
  auto output = std::make_shared<Table>(name);
  for (const ColumnPtr& column : input.columns()) {
    ColumnPtr gathered = GatherColumn(*column, rows);
    if (gathered == nullptr) return Status::Internal("gather failed");
    HETDB_RETURN_NOT_OK(output->AddColumn(std::move(gathered)));
  }
  return output;
}

Result<TablePtr> HashJoin(const Table& build, const std::string& build_key,
                          const Table& probe, const std::string& probe_key,
                          const JoinOutputSpec& output_spec,
                          const std::string& name) {
  static KernelStats stats("hash_join");
  KernelTimer timer(stats);

  HETDB_ASSIGN_OR_RETURN(ColumnPtr build_key_col, build.GetColumn(build_key));
  HETDB_ASSIGN_OR_RETURN(ColumnPtr probe_key_col, probe.GetColumn(probe_key));
  for (const ColumnPtr& key : {build_key_col, probe_key_col}) {
    if (key->type() != DataType::kInt32 && key->type() != DataType::kInt64) {
      return Status::InvalidArgument("join key '" + key->name() +
                                     "' must be integer");
    }
  }

  const JoinTable table(*build_key_col, stats);
  const size_t probe_rows = probe.num_rows();
  const JoinMatches matches =
      probe_key_col->type() == DataType::kInt32
          ? ProbeJoinTable(
                table,
                static_cast<const Int32Column&>(*probe_key_col).values().data(),
                probe_rows, stats)
          : ProbeJoinTable(
                table,
                static_cast<const Int64Column&>(*probe_key_col).values().data(),
                probe_rows, stats);
  return MaterializeJoinOutput(build, probe, output_spec, matches, name);
}

/// First-match map plus overflow vectors.
Result<TablePtr> HashJoinReference(const Table& build,
                                   const std::string& build_key,
                                   const Table& probe,
                                   const std::string& probe_key,
                                   const JoinOutputSpec& output_spec,
                                   const std::string& name) {
  HETDB_ASSIGN_OR_RETURN(ColumnPtr build_key_col, build.GetColumn(build_key));
  HETDB_ASSIGN_OR_RETURN(ColumnPtr probe_key_col, probe.GetColumn(probe_key));
  if (build_key_col->type() != DataType::kInt32 &&
      build_key_col->type() != DataType::kInt64) {
    return Status::InvalidArgument("join key '" + build_key +
                                   "' must be integer");
  }
  const size_t build_rows = build.num_rows();
  const size_t probe_rows = probe.num_rows();
  std::unordered_map<int64_t, uint32_t> first_match;
  std::unordered_map<int64_t, std::vector<uint32_t>> overflow;
  first_match.reserve(build_rows * 2);
  for (size_t i = 0; i < build_rows; ++i) {
    const int64_t key = IntKeyAt(*build_key_col, i);
    auto [it, inserted] = first_match.emplace(key, static_cast<uint32_t>(i));
    if (!inserted) overflow[key].push_back(static_cast<uint32_t>(i));
  }

  JoinMatches matches;
  // A PK-FK probe emits about one match per probe row; reserving that guess
  // removes nearly all reallocation from the probe loop.
  matches.build_rows.reserve(probe_rows);
  matches.probe_rows.reserve(probe_rows);
  for (size_t i = 0; i < probe_rows; ++i) {
    const int64_t key = IntKeyAt(*probe_key_col, i);
    auto it = first_match.find(key);
    if (it == first_match.end()) continue;
    matches.build_rows.push_back(it->second);
    matches.probe_rows.push_back(static_cast<uint32_t>(i));
    auto ov = overflow.find(key);
    if (ov != overflow.end()) {
      for (uint32_t extra : ov->second) {
        matches.build_rows.push_back(extra);
        matches.probe_rows.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  return MaterializeJoinOutput(build, probe, output_spec, matches, name);
}

Result<TablePtr> Aggregate(const Table& input,
                           const std::vector<std::string>& group_by,
                           const std::vector<AggregateSpec>& aggregates,
                           const std::string& name) {
  static KernelStats stats("aggregate");
  KernelTimer timer(stats);
  if (input.num_rows() == 0) {
    return AggregateReference(input, group_by, aggregates, name);
  }
  return AggregateParallel(input, group_by, aggregates, name, stats);
}

Result<TablePtr> Sort(const Table& input, const std::vector<SortKey>& keys,
                      const std::string& name) {
  const size_t n = input.num_rows();
  std::vector<ColumnPtr> key_cols;
  for (const SortKey& key : keys) {
    HETDB_ASSIGN_OR_RETURN(ColumnPtr column, input.GetColumn(key.column));
    key_cols.push_back(std::move(column));
  }

  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);

  auto compare_at = [&](const Column& column, uint32_t a,
                        uint32_t b) -> int {
    if (column.type() == DataType::kString) {
      const auto& str = static_cast<const StringColumn&>(column);
      // Order-preserving dictionaries allow comparing codes directly.
      if (str.order_preserving()) {
        const int32_t ca = str.code(a), cb = str.code(b);
        return ca < cb ? -1 : (ca > cb ? 1 : 0);
      }
      const auto va = str.value(a), vb = str.value(b);
      return va < vb ? -1 : (va > vb ? 1 : 0);
    }
    const double va = NumericAt(column, a), vb = NumericAt(column, b);
    return va < vb ? -1 : (va > vb ? 1 : 0);
  };

  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < key_cols.size(); ++k) {
      const int cmp = compare_at(*key_cols[k], a, b);
      if (cmp != 0) return keys[k].ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  });

  return GatherRows(input, order, name);
}

Result<TablePtr> Project(const Table& input,
                         const std::vector<std::string>& keep_columns,
                         const std::vector<ArithmeticExpr>& expressions,
                         const std::string& name) {
  auto output = std::make_shared<Table>(name);
  for (const std::string& col_name : keep_columns) {
    HETDB_ASSIGN_OR_RETURN(ColumnPtr column, input.GetColumn(col_name));
    HETDB_RETURN_NOT_OK(output->AddColumn(column));  // zero-copy alias
  }
  const size_t n = input.num_rows();
  for (const ArithmeticExpr& expr : expressions) {
    HETDB_ASSIGN_OR_RETURN(ColumnPtr left, input.GetColumn(expr.left_column));
    ColumnPtr right;
    if (!expr.right_column.empty()) {
      HETDB_ASSIGN_OR_RETURN(right, input.GetColumn(expr.right_column));
    }
    const bool integer_result =
        expr.op != ArithmeticExpr::Op::kDiv &&
        left->type() != DataType::kDouble &&
        (right == nullptr
             ? expr.right_constant == std::floor(expr.right_constant)
             : right->type() != DataType::kDouble);
    auto apply = [&](double a, double b) -> double {
      switch (expr.op) {
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
    };
    if (integer_result) {
      std::vector<int64_t> values(n);
      for (size_t i = 0; i < n; ++i) {
        const double b =
            right != nullptr ? NumericAt(*right, i) : expr.right_constant;
        values[i] = static_cast<int64_t>(apply(NumericAt(*left, i), b));
      }
      HETDB_RETURN_NOT_OK(output->AddColumn(
          std::make_shared<Int64Column>(expr.output_name, std::move(values))));
    } else {
      std::vector<double> values(n);
      for (size_t i = 0; i < n; ++i) {
        const double b =
            right != nullptr ? NumericAt(*right, i) : expr.right_constant;
        values[i] = apply(NumericAt(*left, i), b);
      }
      HETDB_RETURN_NOT_OK(output->AddColumn(std::make_shared<DoubleColumn>(
          expr.output_name, std::move(values))));
    }
  }
  return output;
}

Result<TablePtr> Limit(const Table& input, size_t n, const std::string& name) {
  const size_t take = std::min(n, input.num_rows());
  std::vector<uint32_t> rows(take);
  for (size_t i = 0; i < take; ++i) rows[i] = static_cast<uint32_t>(i);
  return GatherRows(input, rows, name);
}

size_t FilterInputBytes(const Table& input, const ConjunctiveFilter& filter) {
  size_t bytes = 0;
  for (const Disjunction& disjunction : filter.conjuncts) {
    for (const Predicate& atom : disjunction.atoms) {
      Result<ColumnPtr> column = input.GetColumn(atom.column);
      if (column.ok()) bytes += column.value()->data_bytes();
    }
  }
  return bytes;
}

}  // namespace hetdb
