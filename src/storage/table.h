#ifndef HETDB_STORAGE_TABLE_H_
#define HETDB_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/column.h"

namespace hetdb {

/// A named collection of equally-sized columns.
///
/// Base tables are registered in a `Database`; intermediate query results are
/// anonymous Tables produced by operators. Tables are cheap handle objects:
/// columns are shared, so projections and intermediate results alias the
/// underlying data where possible.
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a column; fails if the name exists or the row count differs from
  /// the existing columns.
  Status AddColumn(ColumnPtr column);

  Result<ColumnPtr> GetColumn(const std::string& name) const;
  bool HasColumn(const std::string& name) const;

  const std::vector<ColumnPtr>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? num_rows_ : columns_[0]->num_rows();
  }
  /// Gives a table without columns its row count: a scan that reads no
  /// column (COUNT(*)), or a join that outputs none, still has rows. Once a
  /// column is added, the columns' count holds.
  void set_num_rows(size_t rows);

  /// Total bytes of all column data.
  size_t data_bytes() const;

  /// The cache key of a base-table column: "<table>.<column>".
  std::string QualifiedName(const std::string& column_name) const {
    return name_ + "." + column_name;
  }

 private:
  std::string name_;
  std::vector<ColumnPtr> columns_;
  std::unordered_map<std::string, size_t> column_index_;
  size_t num_rows_ = 0;  ///< while there is no column
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace hetdb

#endif  // HETDB_STORAGE_TABLE_H_
