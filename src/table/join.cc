#include "table/join.h"

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace leva {
namespace {

// Builds key -> row indices over the display strings of `col` (nulls and
// empty strings are skipped: they never join).
std::unordered_map<std::string, std::vector<size_t>> BuildIndex(
    const Column& col) {
  std::unordered_map<std::string, std::vector<size_t>> index;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.values[r].is_null()) continue;
    std::string key = col.values[r].ToDisplayString();
    if (key.empty()) continue;
    index[key].push_back(r);
  }
  return index;
}

std::string Qualify(const std::string& table, const std::string& column) {
  // Columns carried over from earlier joins are already qualified.
  if (column.find('.') != std::string::npos) return column;
  return table + "." + column;
}

// Aggregates the values of `col` at `rows`: mean for numerics, mode for
// strings, null when everything is null.
Value Aggregate(const Column& col, const std::vector<size_t>& rows) {
  if (rows.size() == 1) return col.values[rows[0]];
  double sum = 0;
  size_t numeric = 0;
  std::map<std::string, size_t> counts;
  for (size_t r : rows) {
    const Value& v = col.values[r];
    if (v.is_null()) continue;
    if (v.is_numeric()) {
      sum += v.ToNumeric();
      ++numeric;
    } else {
      ++counts[v.as_string()];
    }
  }
  if (numeric > 0) return Value(sum / static_cast<double>(numeric));
  if (!counts.empty()) {
    const std::string* best = nullptr;
    size_t best_count = 0;
    for (const auto& [s, n] : counts) {
      if (n > best_count) {
        best = &s;
        best_count = n;
      }
    }
    return Value(*best);
  }
  return Value::Null();
}

}  // namespace

Result<Table> LeftJoinAggregate(const Table& left, const Table& right,
                                const std::string& left_col,
                                const std::string& right_col) {
  LEVA_ASSIGN_OR_RETURN(const size_t li, left.ColumnIndex(left_col));
  LEVA_ASSIGN_OR_RETURN(const size_t ri, right.ColumnIndex(right_col));

  Table out = left;  // keeps left's columns and rows verbatim
  const auto index = BuildIndex(right.column(ri));

  for (size_t c = 0; c < right.NumColumns(); ++c) {
    if (c == ri) continue;  // join key would duplicate left_col's information
    Column col;
    col.name = Qualify(right.name(), right.column(c).name);
    col.type = right.column(c).type;
    col.values.reserve(left.NumRows());
    for (size_t r = 0; r < left.NumRows(); ++r) {
      const Value& key = left.at(r, li);
      if (key.is_null()) {
        col.values.push_back(Value::Null());
        continue;
      }
      const auto it = index.find(key.ToDisplayString());
      if (it == index.end()) {
        col.values.push_back(Value::Null());
      } else {
        col.values.push_back(Aggregate(right.column(c), it->second));
      }
    }
    LEVA_RETURN_IF_ERROR(out.AddColumn(std::move(col)));
  }
  return out;
}

Result<Table> MaterializeFullTable(const Database& db,
                                   const std::string& base_table) {
  const Table* base = db.FindTable(base_table);
  if (base == nullptr) {
    return Status::NotFound("base table '" + base_table + "' not in database");
  }

  // Start from a qualified copy of the base table.
  Table result(base_table + "_full");
  for (const Column& c : base->columns()) {
    Column col = c;
    col.name = Qualify(base->name(), c.name);
    LEVA_RETURN_IF_ERROR(result.AddColumn(std::move(col)));
  }

  std::unordered_set<std::string> joined = {base_table};
  // Repeatedly scan FKs until no new table can be attached; this walks join
  // paths of any depth (e.g. Expenses -> Order Info -> Price Info).
  bool progress = true;
  while (progress) {
    progress = false;
    for (const ForeignKey& fk : db.foreign_keys()) {
      std::string reached_col;   // qualified column already inside `result`
      const Table* new_table = nullptr;
      std::string new_col;
      if (joined.count(fk.child_table) > 0 && joined.count(fk.parent_table) == 0) {
        reached_col = Qualify(fk.child_table, fk.child_column);
        new_table = db.FindTable(fk.parent_table);
        new_col = fk.parent_column;
      } else if (joined.count(fk.parent_table) > 0 &&
                 joined.count(fk.child_table) == 0) {
        reached_col = Qualify(fk.parent_table, fk.parent_column);
        new_table = db.FindTable(fk.child_table);
        new_col = fk.child_column;
      } else {
        continue;
      }
      if (new_table == nullptr) {
        return Status::NotFound("foreign key references unknown table");
      }
      if (!result.FindColumn(reached_col)) {
        // The connecting column was dropped upstream; skip this edge.
        continue;
      }
      LEVA_ASSIGN_OR_RETURN(
          result, LeftJoinAggregate(result, *new_table, reached_col, new_col));
      joined.insert(new_table->name());
      progress = true;
    }
  }
  return result;
}

}  // namespace leva
