#include "ml/featurize.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <numeric>
#include <string_view>

#include "ml/tree.h"

namespace leva {

Status OneHotFeaturizer::Fit(const Table& table,
                             const std::string& target_column,
                             bool classification) {
  encodings_.clear();
  label_map_.clear();
  classification_ = classification;
  target_column_ = target_column;

  LEVA_ASSIGN_OR_RETURN(const size_t target_idx,
                        table.ColumnIndex(target_column));

  for (size_t c = 0; c < table.NumColumns(); ++c) {
    if (c == target_idx) continue;
    const Column& col = table.column(c);
    ColumnEncoding enc;
    enc.name = col.name;
    enc.numeric = col.type == DataType::kInt || col.type == DataType::kDouble ||
                  col.type == DataType::kDatetime;
    if (enc.numeric) {
      double sum = 0;
      size_t count = 0;
      for (const Value& v : col.values) {
        if (v.is_numeric()) {
          sum += v.ToNumeric();
          ++count;
        }
      }
      enc.mean = count > 0 ? sum / static_cast<double>(count) : 0.0;
    } else {
      std::map<std::string, size_t> counts;
      for (const Value& v : col.values) {
        if (v.is_null()) continue;
        ++counts[v.ToDisplayString()];
      }
      std::vector<std::pair<size_t, std::string>> by_freq;
      by_freq.reserve(counts.size());
      for (const auto& [cat, n] : counts) by_freq.emplace_back(n, cat);
      std::sort(by_freq.rbegin(), by_freq.rend());
      const size_t take = std::min(options_.max_categories, by_freq.size());
      for (size_t i = 0; i < take; ++i) {
        enc.category_index.emplace(by_freq[i].second, enc.categories.size());
        enc.categories.push_back(by_freq[i].second);
      }
    }
    encodings_.push_back(std::move(enc));
  }

  // Target mapping.
  const Column& target = table.column(target_idx);
  if (classification_) {
    for (const Value& v : target.values) {
      if (v.is_null()) continue;
      const std::string label = v.ToDisplayString();
      if (label_map_.count(label) == 0) {
        const size_t id = label_map_.size();
        label_map_.emplace(label, id);
      }
    }
    if (label_map_.size() < 2) {
      return Status::InvalidArgument("target column '" + target_column +
                                     "' has fewer than 2 classes");
    }
  } else {
    for (const Value& v : target.values) {
      if (!v.is_null() && !v.is_numeric()) {
        return Status::InvalidArgument("regression target '" + target_column +
                                       "' has non-numeric values");
      }
    }
  }
  return Status::OK();
}

Result<MLDataset> OneHotFeaturizer::Transform(const Table& table) const {
  LEVA_ASSIGN_OR_RETURN(const size_t target_idx,
                        table.ColumnIndex(target_column_));

  // Feature layout.
  size_t width = 0;
  for (const ColumnEncoding& enc : encodings_) {
    if (enc.numeric) {
      width += 1 + (options_.add_missing_indicator ? 1 : 0);
    } else {
      width += enc.categories.size();
    }
  }

  MLDataset ds;
  ds.classification = classification_;
  ds.num_classes = classification_ ? label_map_.size() : 2;
  ds.x = Matrix(table.NumRows(), width);
  ds.y.resize(table.NumRows());
  for (const ColumnEncoding& enc : encodings_) {
    if (enc.numeric) {
      ds.feature_names.push_back(enc.name);
      if (options_.add_missing_indicator) {
        ds.feature_names.push_back(enc.name + "#missing");
      }
    } else {
      for (const std::string& cat : enc.categories) {
        ds.feature_names.push_back(enc.name + "=" + cat);
      }
    }
  }

  for (size_t r = 0; r < table.NumRows(); ++r) {
    size_t offset = 0;
    for (const ColumnEncoding& enc : encodings_) {
      const Column* col = table.FindColumn(enc.name);
      if (col == nullptr) {
        return Status::NotFound("column '" + enc.name +
                                "' missing at transform time");
      }
      const Value& v = col->values[r];
      if (enc.numeric) {
        const bool missing = !v.is_numeric();
        ds.x(r, offset) = missing ? enc.mean : v.ToNumeric();
        ++offset;
        if (options_.add_missing_indicator) {
          ds.x(r, offset) = missing ? 1.0 : 0.0;
          ++offset;
        }
      } else {
        if (!v.is_null()) {
          const auto it = enc.category_index.find(v.ToDisplayString());
          if (it != enc.category_index.end()) {
            ds.x(r, offset + it->second) = 1.0;
          }
        }
        offset += enc.categories.size();
      }
    }
    // Target.
    const Value& t = table.at(r, target_idx);
    if (classification_) {
      if (t.is_null()) {
        return Status::InvalidArgument("null target at row " +
                                       std::to_string(r));
      }
      const auto it = label_map_.find(t.ToDisplayString());
      if (it == label_map_.end()) {
        return Status::NotFound("unseen class label '" + t.ToDisplayString() +
                                "'");
      }
      ds.y[r] = static_cast<double>(it->second);
    } else {
      ds.y[r] = t.is_numeric() ? t.ToNumeric() : 0.0;
    }
  }
  return ds;
}

Status TargetEncoder::Fit(const Column& target, bool classification) {
  classification_ = classification;
  labels_.clear();
  label_map_.clear();
  if (!classification) return Status::OK();
  std::map<std::string, bool> seen;
  for (const Value& v : target.values) {
    if (v.is_null()) continue;
    seen[v.ToDisplayString()] = true;
  }
  if (seen.size() < 2) {
    return Status::InvalidArgument("target has fewer than 2 classes");
  }
  for (const auto& [label, unused] : seen) {
    label_map_.emplace(label, labels_.size());
    labels_.push_back(label);
  }
  return Status::OK();
}

Result<size_t> TargetColumnIndex(const Table& table,
                                 const std::string& target_column) {
  if (target_column.empty()) return table.NumColumns();
  return table.ColumnIndex(target_column);
}

Result<double> TargetEncoder::Encode(const Value& v) const {
  if (!classification_) {
    if (!v.is_numeric()) {
      return Status::InvalidArgument("non-numeric regression target");
    }
    return v.ToNumeric();
  }
  if (v.is_null()) return Status::InvalidArgument("null class label");
  // Probe with a view over the rendered label; int labels (the common
  // classification target) are rendered into a stack buffer (to_chars emits
  // the same minimal decimal digits as ToDisplayString's to_string), so the
  // per-row hot path allocates nothing.
  std::string_view key;
  char buf[24];
  std::string rendered;
  if (v.is_string()) {
    key = v.as_string();
  } else if (v.is_int()) {
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v.as_int());
    key = std::string_view(buf, static_cast<size_t>(end - buf));
  } else {
    rendered = v.ToDisplayString();
    key = rendered;
  }
  const auto it = label_map_.find(key);
  if (it == label_map_.end()) {
    return Status::NotFound("unseen class label '" + std::string(key) + "'");
  }
  return static_cast<double>(it->second);
}

Result<std::vector<size_t>> SelectTopKFeatures(const MLDataset& train,
                                               size_t k, Rng* rng) {
  if (train.NumFeatures() == 0) {
    return Status::InvalidArgument("no features to select from");
  }
  ForestOptions options;
  options.num_trees = 30;
  options.tree.classification = train.classification;
  options.tree.num_classes = train.num_classes;
  options.tree.max_depth = 10;
  RandomForest forest(options);
  LEVA_RETURN_IF_ERROR(forest.Fit(train.x, train.y, rng));
  const std::vector<double> imp = forest.FeatureImportances();

  std::vector<size_t> order(imp.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return imp[a] > imp[b]; });
  order.resize(std::min(k, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

}  // namespace leva
