#include "table/table.h"

#include <unordered_set>

namespace leva {

double Column::DistinctRatio() const {
  std::unordered_set<std::string> distinct;
  size_t non_null = 0;
  for (const Value& v : values) {
    if (v.is_null()) continue;
    ++non_null;
    distinct.insert(v.ToDisplayString());
  }
  if (non_null == 0) return 0.0;
  return static_cast<double>(distinct.size()) / static_cast<double>(non_null);
}

Status Table::AddColumn(Column column) {
  if (!columns_.empty() && column.size() != NumRows()) {
    return Status::InvalidArgument(
        "column '" + column.name + "' has " + std::to_string(column.size()) +
        " values, table '" + name_ + "' has " + std::to_string(NumRows()) +
        " rows");
  }
  for (const Column& existing : columns_) {
    if (existing.name == column.name) {
      return Status::AlreadyExists("column '" + column.name +
                                   "' already exists in table '" + name_ + "'");
    }
  }
  columns_.push_back(std::move(column));
  return Status::OK();
}

Status Table::AddRow(std::vector<Value> row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, table '" + name_ +
        "' has " + std::to_string(columns_.size()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i].values.push_back(std::move(row[i]));
  }
  return Status::OK();
}

Result<size_t> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column '" + name + "' in table '" + name_ + "'");
}

const Column* Table::FindColumn(const std::string& name) const {
  for (const Column& c : columns_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::vector<Value> Table::Row(size_t r) const {
  std::vector<Value> row;
  row.reserve(columns_.size());
  for (const Column& c : columns_) row.push_back(c.values[r]);
  return row;
}

Table Table::EmptyLike() const {
  Table out(name_);
  for (const Column& c : columns_) {
    Column empty;
    empty.name = c.name;
    empty.type = c.type;
    (void)out.AddColumn(std::move(empty));
  }
  return out;
}

Table Table::SubsetRows(const std::vector<size_t>& rows) const {
  Table out = EmptyLike();
  for (const size_t r : rows) {
    (void)out.AddRow(Row(r));
  }
  return out;
}

Status Table::DropColumn(size_t idx) {
  if (idx >= columns_.size()) {
    return Status::OutOfRange("column index " + std::to_string(idx) +
                              " out of range");
  }
  columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(idx));
  return Status::OK();
}

Status Database::AddTable(Table table) {
  for (const Table& t : tables_) {
    if (t.name() == table.name()) {
      return Status::AlreadyExists("table '" + table.name() +
                                   "' already exists");
    }
  }
  tables_.push_back(std::move(table));
  return Status::OK();
}

Result<size_t> Database::TableIndex(const std::string& name) const {
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].name() == name) return i;
  }
  return Status::NotFound("no table '" + name + "'");
}

const Table* Database::FindTable(const std::string& name) const {
  for (const Table& t : tables_) {
    if (t.name() == name) return &t;
  }
  return nullptr;
}

size_t Database::TotalRows() const {
  size_t rows = 0;
  for (const Table& t : tables_) rows += t.NumRows();
  return rows;
}

}  // namespace leva
