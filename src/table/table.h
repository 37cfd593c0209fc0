#ifndef LEVA_TABLE_TABLE_H_
#define LEVA_TABLE_TABLE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "table/value.h"

namespace leva {

/// A named, typed column of values. Kept simple and struct-like: the Table
/// owns the invariant that all its columns have equal length.
struct Column {
  std::string name;
  DataType type = DataType::kNull;
  std::vector<Value> values;

  size_t size() const { return values.size(); }

  /// Fraction of distinct non-null display strings among non-null values.
  /// Returns 0 for an all-null column.
  double DistinctRatio() const;
};

/// A relational table: a name plus equally sized columns.
class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t NumRows() const { return columns_.empty() ? 0 : columns_[0].size(); }
  size_t NumColumns() const { return columns_.size(); }

  /// Appends a column; fails if the length disagrees with existing columns or
  /// the name already exists.
  Status AddColumn(Column column);

  /// Appends a row; `row` must match the column count. Column types are not
  /// validated (dirty data is a first-class citizen in Leva).
  Status AddRow(std::vector<Value> row);

  const Column& column(size_t i) const { return columns_[i]; }
  Column& mutable_column(size_t i) { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of the column named `name`, or error.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// Returns the column named `name`, or nullptr.
  const Column* FindColumn(const std::string& name) const;

  const Value& at(size_t row, size_t col) const {
    return columns_[col].values[row];
  }

  /// Copy of row `r`.
  std::vector<Value> Row(size_t r) const;

  /// A table with the same schema but no rows.
  Table EmptyLike() const;

  /// A table with the same schema containing only `rows` (in order). Used to
  /// carve train/test slices out of a Base Table.
  Table SubsetRows(const std::vector<size_t>& rows) const;

  /// Drops the column at `idx` (used by baselines that separate the target).
  Status DropColumn(size_t idx);

 private:
  std::string name_;
  std::vector<Column> columns_;
};

/// A collection of tables plus optional ground-truth foreign keys. The
/// ground truth is *not* consumed by Leva itself (which is keyless); it
/// exists so the Full / Full+FE baselines can perform correct joins, exactly
/// as the paper's evaluation does.
struct ForeignKey {
  std::string child_table;
  std::string child_column;
  std::string parent_table;
  std::string parent_column;
};

class Database {
 public:
  Database() = default;

  Status AddTable(Table table);
  const std::vector<Table>& tables() const { return tables_; }
  std::vector<Table>& mutable_tables() { return tables_; }

  Result<size_t> TableIndex(const std::string& name) const;
  const Table* FindTable(const std::string& name) const;

  void AddForeignKey(ForeignKey fk) { foreign_keys_.push_back(std::move(fk)); }
  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  /// Total rows across all tables.
  size_t TotalRows() const;

 private:
  std::vector<Table> tables_;
  std::vector<ForeignKey> foreign_keys_;
};

}  // namespace leva

#endif  // LEVA_TABLE_TABLE_H_
