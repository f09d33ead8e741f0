#ifndef HETDB_STORAGE_COLUMN_H_
#define HETDB_STORAGE_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace hetdb {

/// Value types supported by the column store. Strings are always
/// dictionary-encoded (kString columns store int32 codes plus a dictionary),
/// which mirrors CoGaDB's compressed string columns and keeps device
/// operators working on fixed-width data.
enum class DataType { kInt32, kInt64, kDouble, kString };

const char* DataTypeToString(DataType type);

/// Width in bytes of one encoded value of `type` (strings count their code).
size_t DataTypeWidth(DataType type);

/// Base class of all columns.
///
/// A column is an immutable-after-load, named, typed vector of values. Every
/// column carries an *access counter* that the query processor bumps whenever
/// an operator reads the column; the data placement manager uses these
/// counters to decide which columns to pin on the co-processor (Section 3.2,
/// Algorithm 1 of the paper).
class Column {
 public:
  explicit Column(std::string name) : name_(std::move(name)) {}
  virtual ~Column() = default;

  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  const std::string& name() const { return name_; }
  virtual DataType type() const = 0;
  virtual size_t num_rows() const = 0;

  /// Bytes occupied by the value data (what a device cache entry costs).
  virtual size_t data_bytes() const = 0;

  /// Bytes after frame-of-reference bit-packing (what a cache entry costs
  /// when the engine compresses device-resident base data, Section 6.3 of
  /// the paper). Computed from the actual value range; numeric columns pack
  /// to ceil(log2(max-min+1)) bits per value, string columns pack their
  /// dictionary codes. Recomputed lazily after appends.
  virtual size_t compressed_bytes() const = 0;

  /// Called by operators each time this column is used as input. Updates
  /// both the frequency counter (LFU placement) and the global-sequence
  /// recency stamp (LRU placement).
  void RecordAccess() {
    access_count_.fetch_add(1, std::memory_order_relaxed);
    last_access_seq_.store(NextAccessSequence(), std::memory_order_relaxed);
  }
  uint64_t access_count() const {
    return access_count_.load(std::memory_order_relaxed);
  }
  /// Monotonic sequence number of the most recent access (0 = never).
  uint64_t last_access_seq() const {
    return last_access_seq_.load(std::memory_order_relaxed);
  }
  void ResetAccessCount() {
    access_count_.store(0, std::memory_order_relaxed);
    last_access_seq_.store(0, std::memory_order_relaxed);
  }

 private:
  static uint64_t NextAccessSequence() {
    static std::atomic<uint64_t> sequence{0};
    return sequence.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::string name_;
  std::atomic<uint64_t> access_count_{0};
  std::atomic<uint64_t> last_access_seq_{0};
};

using ColumnPtr = std::shared_ptr<Column>;

/// Fixed-width column of int32/int64/double values.
template <typename T>
class NumericColumn : public Column {
 public:
  explicit NumericColumn(std::string name, std::vector<T> values = {})
      : Column(std::move(name)), values_(std::move(values)) {}

  DataType type() const override;
  size_t num_rows() const override { return values_.size(); }
  size_t data_bytes() const override { return values_.size() * sizeof(T); }
  size_t compressed_bytes() const override;

  const std::vector<T>& values() const { return values_; }
  std::vector<T>& mutable_values() {
    compressed_bytes_cache_ = 0;
    return values_;
  }

  T value(size_t row) const { return values_[row]; }
  void Append(T v) {
    values_.push_back(v);
    compressed_bytes_cache_ = 0;
  }
  void Reserve(size_t n) { values_.reserve(n); }

 private:
  std::vector<T> values_;
  mutable size_t compressed_bytes_cache_ = 0;  // 0 = stale
};

using Int32Column = NumericColumn<int32_t>;
using Int64Column = NumericColumn<int64_t>;
using DoubleColumn = NumericColumn<double>;

/// Dictionary-encoded string column.
///
/// If the dictionary is built from a lexicographically sorted domain (the
/// HetDB generators always do this), codes are order-preserving and range
/// predicates (e.g. `p_brand1 between 'MFGR#2221' and 'MFGR#2228'`, SSB Q2.2)
/// can be evaluated directly on the int32 codes. `order_preserving()` reports
/// whether this property holds.
class StringColumn : public Column {
 public:
  explicit StringColumn(std::string name) : Column(std::move(name)) {}

  /// Creates a column over a fixed, sorted dictionary; codes appended later
  /// must index into this dictionary.
  static std::shared_ptr<StringColumn> FromDictionary(
      std::string name, std::vector<std::string> sorted_dictionary);

  DataType type() const override { return DataType::kString; }
  size_t num_rows() const override { return codes_.size(); }
  size_t data_bytes() const override {
    return codes_.size() * sizeof(int32_t) + dictionary_bytes_;
  }
  size_t compressed_bytes() const override;

  /// Appends a value, extending the dictionary when needed. Extending an
  /// initially-sorted dictionary out of order clears order_preserving().
  void Append(std::string_view value);
  /// Appends a pre-encoded code (must be a valid dictionary index).
  void AppendCode(int32_t code) { codes_.push_back(code); }
  void Reserve(size_t n) { codes_.reserve(n); }

  std::string_view value(size_t row) const { return dictionary_[codes_[row]]; }
  int32_t code(size_t row) const { return codes_[row]; }
  const std::vector<int32_t>& codes() const { return codes_; }
  std::vector<int32_t>& mutable_codes() { return codes_; }
  const std::vector<std::string>& dictionary() const { return dictionary_; }
  /// Bytes of the dictionary's strings (part of data_bytes()).
  size_t dictionary_bytes() const { return dictionary_bytes_; }

  bool order_preserving() const { return order_preserving_; }

  /// Returns the code for `value`, or NotFound.
  Result<int32_t> CodeFor(std::string_view value) const;

  /// Returns the code of the smallest dictionary entry >= value (for range
  /// predicates on order-preserving dictionaries); dictionary size if none.
  int32_t LowerBoundCode(std::string_view value) const;
  /// Returns the code of the smallest dictionary entry > value.
  int32_t UpperBoundCode(std::string_view value) const;

 private:
  int32_t InternValue(std::string_view value);

  std::vector<int32_t> codes_;
  std::vector<std::string> dictionary_;
  std::unordered_map<std::string, int32_t> dictionary_index_;
  size_t dictionary_bytes_ = 0;
  bool order_preserving_ = true;
};

using StringColumnPtr = std::shared_ptr<StringColumn>;

/// Static DataType tag of each concrete column class, used by ColumnCast to
/// avoid RTTI on kernel hot paths.
template <typename ColumnT>
struct ColumnTypeTag;
template <>
struct ColumnTypeTag<Int32Column> {
  static constexpr DataType kType = DataType::kInt32;
};
template <>
struct ColumnTypeTag<Int64Column> {
  static constexpr DataType kType = DataType::kInt64;
};
template <>
struct ColumnTypeTag<DoubleColumn> {
  static constexpr DataType kType = DataType::kDouble;
};
template <>
struct ColumnTypeTag<StringColumn> {
  static constexpr DataType kType = DataType::kString;
};

/// Downcast helper with a fatal check on type mismatch (programming error).
///
/// The class hierarchy is closed (exactly one concrete column class per
/// DataType), so a type-tag compare plus static_cast replaces dynamic_cast:
/// this sits at the entry of every per-column kernel loop, where the RTTI
/// walk was measurable.
template <typename ColumnT>
const ColumnT& ColumnCast(const Column& column) {
  HETDB_CHECK(column.type() == ColumnTypeTag<ColumnT>::kType);
  return static_cast<const ColumnT&>(column);
}

template <typename ColumnT>
ColumnT& ColumnCast(Column& column) {
  HETDB_CHECK(column.type() == ColumnTypeTag<ColumnT>::kType);
  return static_cast<ColumnT&>(column);
}

}  // namespace hetdb

#endif  // HETDB_STORAGE_COLUMN_H_
