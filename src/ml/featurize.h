#ifndef LEVA_ML_FEATURIZE_H_
#define LEVA_ML_FEATURIZE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/string_util.h"
#include "ml/dataset.h"
#include "table/table.h"

namespace leva {

/// Classic tabular featurization — the encoding behind the Base / Full /
/// Full+FE / Disc baselines: numeric columns pass through (nulls imputed to
/// the training mean, plus a missing indicator), categorical columns one-hot
/// encode their most frequent categories.
struct OneHotOptions {
  size_t max_categories = 20;
  bool add_missing_indicator = true;
};

class OneHotFeaturizer {
 public:
  explicit OneHotFeaturizer(OneHotOptions options = {}) : options_(options) {}

  /// Learns encodings from `table`, excluding `target_column` (which becomes
  /// y). For classification the target's display strings are mapped to class
  /// ids; for regression the target must be numeric.
  Status Fit(const Table& table, const std::string& target_column,
             bool classification);

  /// Encodes `table` (same schema as Fit). Unseen categories map to the
  /// all-zeros one-hot; unseen class labels are an error.
  Result<MLDataset> Transform(const Table& table) const;

  size_t num_classes() const { return label_map_.size(); }

 private:
  struct ColumnEncoding {
    std::string name;
    bool numeric = false;
    double mean = 0.0;                    // imputation value
    std::vector<std::string> categories;  // one-hot order
    std::unordered_map<std::string, size_t> category_index;
  };

  OneHotOptions options_;
  bool classification_ = true;
  std::string target_column_;
  std::vector<ColumnEncoding> encodings_;
  std::unordered_map<std::string, size_t> label_map_;  // classification only
};

/// Index of the label column `target_column` in `table`. An empty name means
/// "no label" and yields `table.NumColumns()`, which matches no column, so
/// featurizers skip no column and encode no target; a non-empty name that is
/// not a column is an error.
Result<size_t> TargetColumnIndex(const Table& table,
                                 const std::string& target_column);

/// Maps a target column to y values consistently across train/test slices:
/// class labels are sorted lexicographically so the mapping is deterministic
/// regardless of row order.
class TargetEncoder {
 public:
  Status Fit(const Column& target, bool classification);
  Result<double> Encode(const Value& v) const;

  bool classification() const { return classification_; }
  size_t num_classes() const { return labels_.size(); }
  const std::vector<std::string>& labels() const { return labels_; }

 private:
  bool classification_ = true;
  std::vector<std::string> labels_;
  // Transparent lookup so Encode can probe with a view of the rendered
  // label instead of materializing a std::string per row.
  std::unordered_map<std::string, size_t, TransparentStringHash,
                     std::equal_to<>>
      label_map_;
};

/// Ranks features of `train` by random-forest impurity importance and returns
/// the indices of the top `k` (the Full+FE feature-engineering step).
Result<std::vector<size_t>> SelectTopKFeatures(const MLDataset& train,
                                               size_t k, Rng* rng);

}  // namespace leva

#endif  // LEVA_ML_FEATURIZE_H_
