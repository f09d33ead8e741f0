#include "storage/table.h"

#include "common/logging.h"

namespace hetdb {

Status Table::AddColumn(ColumnPtr column) {
  if (column == nullptr) {
    return Status::InvalidArgument("null column");
  }
  if (column_index_.count(column->name()) > 0) {
    return Status::AlreadyExists("column '" + column->name() +
                                 "' already exists in table " + name_);
  }
  if (!columns_.empty() && column->num_rows() != num_rows()) {
    return Status::InvalidArgument(
        "column '" + column->name() + "' has " +
        std::to_string(column->num_rows()) + " rows, table " + name_ +
        " has " + std::to_string(num_rows()));
  }
  column_index_[column->name()] = columns_.size();
  columns_.push_back(std::move(column));
  return Status::OK();
}

void Table::set_num_rows(size_t rows) {
  HETDB_CHECK(columns_.empty());
  num_rows_ = rows;
}

Result<ColumnPtr> Table::GetColumn(const std::string& name) const {
  auto it = column_index_.find(name);
  if (it == column_index_.end()) {
    return Status::NotFound("no column '" + name + "' in table " + name_);
  }
  return columns_[it->second];
}

bool Table::HasColumn(const std::string& name) const {
  return column_index_.count(name) > 0;
}

size_t Table::data_bytes() const {
  size_t total = 0;
  for (const auto& column : columns_) total += column->data_bytes();
  return total;
}

}  // namespace hetdb
