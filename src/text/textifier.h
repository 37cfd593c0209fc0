#ifndef LEVA_TEXT_TEXTIFIER_H_
#define LEVA_TEXT_TEXTIFIER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/io.h"
#include "common/result.h"
#include "table/table.h"
#include "text/histogram.h"

namespace leva {

/// Textification strategy chosen per column (Section 4.1).
enum class ColumnClass {
  kKey,          ///< near-unique non-float column; values encoded directly
  kNumeric,      ///< binned via histogram; token = "<attr>#bin<k>"
  kDatetime,     ///< binned like numeric (epoch seconds)
  kStringAtomic, ///< value encoded directly
  kStringList,   ///< comma/semicolon-separated list; each element a token
};

std::string ColumnClassName(ColumnClass c);

/// Tunable textification parameters (Table 2).
struct TextifyOptions {
  /// Number of histogram bins for numeric/datetime columns.
  size_t bin_count = 50;
  /// When set, overrides the kurtosis-based histogram selection.
  bool force_histogram_type = false;
  HistogramType forced_type = HistogramType::kEquiWidth;
  /// Distinct/total ratio above which a non-float column is a Key.
  double key_distinct_ratio = 0.95;
  /// Fraction of non-null string values that must contain a separator for a
  /// column to be parsed as a formatted list.
  double list_detect_ratio = 0.5;
};

/// One textified cell: zero (null) or more (list) string tokens tagged with
/// the global attribute id they came from.
struct TextToken {
  uint32_t attr_id = 0;
  std::string token;
};

/// A textified table: per row, the emitted tokens.
struct TextifiedTable {
  std::string table_name;
  std::vector<std::vector<TextToken>> rows;
};

/// One column textified in a single pass: tokens are flattened in row order,
/// with `offsets[r] .. offsets[r+1]` delimiting row r's tokens. Rows are
/// local to the transformed range, so offsets always start at 0.
///
/// Tokens are views, not strings, so the serving path pays no heap
/// allocation per occurrence: each view points either into the source
/// column's values (which must outlive this struct) or into `storage`,
/// where derived tokens (bin labels, numeric renderings) are materialized
/// once. `storage` is a deque so growth never invalidates earlier views,
/// which also makes the struct safely movable; copying would dangle the
/// views, so it is move-only.
struct TextifiedColumn {
  std::vector<std::string_view> tokens;
  std::vector<size_t> offsets;  // size = rows + 1
  std::deque<std::string> storage;
  /// Dictionary encoding, produced for binned (numeric/datetime) columns
  /// whose tokens repeat heavily: `dict` lists tokens in first-appearance
  /// order and `dict_ids[i]` is the dict index of `tokens[i]`. Consumers can
  /// then resolve each dict entry once instead of hashing every occurrence.
  /// Both vectors are empty for non-dictionary columns.
  std::vector<std::string_view> dict;
  std::vector<uint32_t> dict_ids;

  TextifiedColumn() = default;
  TextifiedColumn(TextifiedColumn&&) = default;
  TextifiedColumn& operator=(TextifiedColumn&&) = default;
  TextifiedColumn(const TextifiedColumn&) = delete;
  TextifiedColumn& operator=(const TextifiedColumn&) = delete;

  size_t NumRows() const { return offsets.empty() ? 0 : offsets.size() - 1; }
};

/// The textification module. `Fit` scans a database, classifies every column
/// and fits histograms; `Transform` converts (possibly unseen) tables into
/// token streams using the fitted state, which implements the paper's
/// bin-quantization handling of unseen numeric test data. `TransformColumn`
/// is the one implementation of the cell rule: `Transform`, Featurize and the
/// row-wise baselines all textify through it.
class Textifier {
 public:
  /// The fitted state of one column.
  struct ColumnState {
    uint32_t attr_id = 0;
    ColumnClass cls = ColumnClass::kStringAtomic;
    Histogram histogram;       // fitted for kNumeric / kDatetime
    char list_separator = ','; // for kStringList
  };

  explicit Textifier(TextifyOptions options = {}) : options_(options) {}

  /// Classifies each column of each table and fits numeric histograms.
  Status Fit(const Database& db);

  /// Textifies `table`, one TransformColumn call per column in schema order;
  /// each row lists its columns' tokens in that order. Columns are matched by
  /// (table name, column name); a table/column not seen at Fit time is an
  /// error.
  Result<TextifiedTable> Transform(const Table& table) const;

  /// Textifies rows [row_begin, row_end) of `column` in one pass (Section
  /// 4.1): nulls emit nothing; keys and atomic strings emit the trimmed raw
  /// value; numerics and datetimes emit "<attribute>#bin<k>" (a dirty
  /// non-numeric cell emits its trimmed raw value); lists emit each trimmed,
  /// non-empty element. Empty tokens are dropped. The column state lookup,
  /// type dispatch, and numeric token prefix are resolved once per call, and
  /// bin labels are materialized once per distinct bin. `row_end` == npos
  /// means column.size(). The result holds views into `column`, which must
  /// outlive it.
  Result<TextifiedColumn> TransformColumn(
      const std::string& table_name, const Column& column, size_t row_begin = 0,
      size_t row_end = static_cast<size_t>(-1)) const;

  /// Total number of distinct attributes registered at Fit time.
  size_t NumAttributes() const { return attr_names_.size(); }
  /// The fitted state of a column, or nullptr when it was not fitted.
  const ColumnState* FindColumn(const std::string& table_name,
                                const std::string& column_name) const;

  const TextifyOptions& options() const { return options_; }

  /// Serializes the fitted state (options, column classes, histograms) into
  /// `out`. Columns are written in sorted-name order so the bytes are a pure
  /// function of the fitted state, not of hash-map iteration order.
  void Save(BufferWriter* out) const;

  /// Restores state written by Save, replacing this textifier. On error the
  /// textifier is left empty (unfitted), never partially loaded.
  Status Load(BufferReader* in);

 private:
  TextifyOptions options_;
  // Keyed by "<table>.<column>".
  std::unordered_map<std::string, ColumnState> columns_;
  std::vector<std::string> attr_names_;
};

}  // namespace leva

#endif  // LEVA_TEXT_TEXTIFIER_H_
