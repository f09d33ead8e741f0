#ifndef HETDB_TESTS_TEST_UTIL_H_
#define HETDB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/parallel.h"
#include "storage/database.h"

namespace hetdb {

/// Deep equality of two tables: same column names, types, and values (exact
/// for integers/strings, 1e-9-relative for doubles). Used to verify that
/// every placement strategy computes bit-identical query results.
inline ::testing::AssertionResult TablesEqual(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) {
    return ::testing::AssertionFailure()
           << "column count " << a.num_columns() << " vs " << b.num_columns();
  }
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row count " << a.num_rows() << " vs " << b.num_rows();
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = *a.columns()[c];
    const Column& cb = *b.columns()[c];
    if (ca.name() != cb.name()) {
      return ::testing::AssertionFailure()
             << "column " << c << " name " << ca.name() << " vs " << cb.name();
    }
    if (ca.type() != cb.type()) {
      return ::testing::AssertionFailure()
             << "column " << ca.name() << " type mismatch";
    }
    for (size_t r = 0; r < a.num_rows(); ++r) {
      bool equal = true;
      std::string va, vb;
      switch (ca.type()) {
        case DataType::kInt32: {
          const auto x = static_cast<const Int32Column&>(ca).value(r);
          const auto y = static_cast<const Int32Column&>(cb).value(r);
          equal = x == y;
          va = std::to_string(x);
          vb = std::to_string(y);
          break;
        }
        case DataType::kInt64: {
          const auto x = static_cast<const Int64Column&>(ca).value(r);
          const auto y = static_cast<const Int64Column&>(cb).value(r);
          equal = x == y;
          va = std::to_string(x);
          vb = std::to_string(y);
          break;
        }
        case DataType::kDouble: {
          const double x = static_cast<const DoubleColumn&>(ca).value(r);
          const double y = static_cast<const DoubleColumn&>(cb).value(r);
          const double scale = std::max({std::abs(x), std::abs(y), 1.0});
          equal = std::abs(x - y) <= 1e-9 * scale;
          va = std::to_string(x);
          vb = std::to_string(y);
          break;
        }
        case DataType::kString: {
          const auto x = static_cast<const StringColumn&>(ca).value(r);
          const auto y = static_cast<const StringColumn&>(cb).value(r);
          equal = x == y;
          va = std::string(x);
          vb = std::string(y);
          break;
        }
      }
      if (!equal) {
        return ::testing::AssertionFailure()
               << "column " << ca.name() << " row " << r << ": " << va
               << " vs " << vb;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Byte-identical comparison of raw value storage (doubles compared
/// bitwise, so +0.0 vs -0.0 or a different FP accumulation order fails;
/// string columns by codes plus dictionary).
template <typename T>
void ExpectBitIdenticalValues(const std::vector<T>& a, const std::vector<T>& b,
                              const std::string& col) {
  ASSERT_EQ(a.size(), b.size()) << "row count of column " << col;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << "bytes of column " << col;
  }
}

inline void ExpectBitIdenticalTables(const TablePtr& ta,
                                     const TablePtr& tb) {
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  ASSERT_EQ(ta->num_columns(), tb->num_columns());
  ASSERT_EQ(ta->num_rows(), tb->num_rows());
  for (size_t c = 0; c < ta->num_columns(); ++c) {
    const Column& ca = *ta->columns()[c];
    const Column& cb = *tb->columns()[c];
    EXPECT_EQ(ca.name(), cb.name());
    ASSERT_EQ(ca.type(), cb.type()) << "type of column " << ca.name();
    switch (ca.type()) {
      case DataType::kInt32:
        ExpectBitIdenticalValues(static_cast<const Int32Column&>(ca).values(),
                                 static_cast<const Int32Column&>(cb).values(),
                                 ca.name());
        break;
      case DataType::kInt64:
        ExpectBitIdenticalValues(static_cast<const Int64Column&>(ca).values(),
                                 static_cast<const Int64Column&>(cb).values(),
                                 ca.name());
        break;
      case DataType::kDouble:
        ExpectBitIdenticalValues(static_cast<const DoubleColumn&>(ca).values(),
                                 static_cast<const DoubleColumn&>(cb).values(),
                                 ca.name());
        break;
      case DataType::kString: {
        const auto& sa = static_cast<const StringColumn&>(ca);
        const auto& sb = static_cast<const StringColumn&>(cb);
        EXPECT_EQ(sa.dictionary(), sb.dictionary())
            << "dictionary of column " << ca.name();
        ExpectBitIdenticalValues(sa.codes(), sb.codes(), ca.name());
        break;
      }
    }
  }
}

/// Row count, column count and an order-independent checksum over every
/// value of a result table. Rows hash their values in column order; the
/// checksum sums the row hashes, so plans that emit tied rows in another
/// order still match. Integer widths are normalized, so a plan that widens
/// a column to 64 bits digests like one that keeps it at 32.
struct Digest {
  size_t rows = 0;
  size_t columns = 0;
  uint64_t checksum = 0;
  bool operator==(const Digest&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const Digest& digest) {
  return os << "{" << digest.rows << ", " << digest.columns << ", 0x"
            << std::hex << digest.checksum << std::dec << "ull}";
}

inline Digest DigestOf(const Table& table) {
  auto mix = [](uint64_t x) {  // splitmix64 finalizer
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  auto hash_string = [](std::string_view text) {  // FNV-1a
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (char c : text) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return hash;
  };
  Digest digest{table.num_rows(), table.num_columns(), 0};
  std::vector<uint64_t> row_hash(table.num_rows(), 0);
  for (const ColumnPtr& column : table.columns()) {
    for (size_t row = 0; row < row_hash.size(); ++row) {
      uint64_t value = 0;
      switch (column->type()) {
        case DataType::kInt32:
          value = static_cast<uint64_t>(static_cast<int64_t>(
              ColumnCast<Int32Column>(*column).value(row)));
          break;
        case DataType::kInt64:
          value = static_cast<uint64_t>(
              ColumnCast<Int64Column>(*column).value(row));
          break;
        case DataType::kDouble:
          value = std::bit_cast<uint64_t>(
              ColumnCast<DoubleColumn>(*column).value(row));
          break;
        case DataType::kString:
          value = hash_string(ColumnCast<StringColumn>(*column).value(row));
          break;
      }
      row_hash[row] = mix(row_hash[row] ^ value);
    }
  }
  for (uint64_t hash : row_hash) digest.checksum += mix(hash);
  return digest;
}

/// DoPs the parity suites sweep: serial, even, odd, and the whole host.
inline std::vector<int> ThreadCounts() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return {1, 2, 7, hw > 0 ? hw : 4};
}

/// Tiny star-shaped database for engine tests: fact(fk, v) x 1000 rows,
/// dim(key, name) x 10 rows.
inline DatabasePtr MakeTinyDb() {
  auto db = std::make_shared<Database>();
  auto fact = std::make_shared<Table>("fact");
  std::vector<int32_t> fk(1000), v(1000);
  for (int i = 0; i < 1000; ++i) {
    fk[i] = i % 10 + 1;
    v[i] = i % 97;
  }
  EXPECT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("fk", std::move(fk))).ok());
  EXPECT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("v", std::move(v))).ok());
  EXPECT_TRUE(db->AddTable(fact).ok());

  auto dim = std::make_shared<Table>("dim");
  std::vector<int32_t> key(10);
  auto name = StringColumn::FromDictionary(
      "name", {"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9"});
  for (int i = 0; i < 10; ++i) {
    key[i] = i + 1;
    name->AppendCode(i);
  }
  EXPECT_TRUE(
      dim->AddColumn(std::make_shared<Int32Column>("key", std::move(key))).ok());
  EXPECT_TRUE(dim->AddColumn(std::move(name)).ok());
  EXPECT_TRUE(db->AddTable(dim).ok());
  return db;
}

/// Sets the DopBudget capacity and the morsel size for one scope. The
/// capacity is raised to the requested thread count so the arena really runs
/// that many workers even on a single-core CI machine.
class DopScope {
 public:
  DopScope(int threads, size_t morsel_rows)
      : saved_capacity_(DopBudget::Global().capacity()),
        saved_morsel_rows_(MorselRows()) {
    DopBudget::Global().SetCapacity(threads);
    SetMorselRows(morsel_rows);
  }
  ~DopScope() {
    DopBudget::Global().SetCapacity(saved_capacity_);
    SetMorselRows(saved_morsel_rows_);
  }
  DopScope(const DopScope&) = delete;
  DopScope& operator=(const DopScope&) = delete;

 private:
  int saved_capacity_;
  size_t saved_morsel_rows_;
};

/// Engine configuration for unit tests: no sleeps, roomy device.
inline SystemConfig TestConfig() {
  SystemConfig config;
  config.simulate_time = false;
  config.device_memory_bytes = 1ull << 20;
  config.device_cache_bytes = 512ull << 10;
  return config;
}

}  // namespace hetdb

#endif  // HETDB_TESTS_TEST_UTIL_H_
