#ifndef LEVA_TABLE_JOIN_H_
#define LEVA_TABLE_JOIN_H_

#include <string>

#include "common/result.h"
#include "table/table.h"

namespace leva {

/// Left join that preserves the cardinality of `left`: when a left key
/// matches multiple right rows, the matches are aggregated (mean for numeric
/// columns, most-frequent value for strings). This is the standard treatment
/// for 1:N joins when assembling an ML training table (cf. ARDA), and is what
/// the Full / Full+FE / Disc baselines use.
///
/// `left_col` is a column name in `left` (which may already carry
/// "<table>.<column>" names from prior joins); output gains `right`'s columns
/// as "<right.name>.<column>" minus the join column.
Result<Table> LeftJoinAggregate(const Table& left, const Table& right,
                                const std::string& left_col,
                                const std::string& right_col);

/// Materializes the Full Table: starting from `base_table`, walks the
/// ground-truth foreign keys of `db` breadth-first (in both directions) and
/// left-join-aggregates every reachable table. Output columns are
/// "<table>.<column>"; the base table contributes all its columns.
Result<Table> MaterializeFullTable(const Database& db,
                                   const std::string& base_table);

}  // namespace leva

#endif  // LEVA_TABLE_JOIN_H_
