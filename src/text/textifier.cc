#include "text/textifier.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

#include "common/string_util.h"

namespace leva {
namespace {

// True when the column holds doubles with fractional parts, which disqualifies
// it as a Key (heuristic ii of Section 4.1).
bool IsFloatingColumn(const Column& col) {
  if (col.type != DataType::kDouble) return false;
  for (const Value& v : col.values) {
    if (v.is_double()) {
      const double d = v.as_double();
      if (std::isfinite(d) && d != std::floor(d)) return true;
    }
  }
  return false;
}

// Separator detection for formatted-list strings: returns the separator and
// the fraction of non-null values containing it.
std::pair<char, double> DetectListSeparator(const Column& col) {
  // Space is a valid separator too: multi-word strings textify word-by-word,
  // the same cell granularity EmbDI uses.
  const char candidates[] = {',', ';', '|', ' '};
  constexpr size_t kNumCandidates = sizeof(candidates);
  char best = ',';
  size_t best_hits = 0;
  size_t non_null = 0;
  size_t hits_by[kNumCandidates] = {0};
  for (const Value& v : col.values) {
    if (!v.is_string()) continue;
    ++non_null;
    const std::string& s = v.as_string();
    for (size_t i = 0; i < kNumCandidates; ++i) {
      if (s.find(candidates[i]) != std::string::npos) ++hits_by[i];
    }
  }
  for (size_t i = 0; i < kNumCandidates; ++i) {
    if (hits_by[i] > best_hits) {
      best_hits = hits_by[i];
      best = candidates[i];
    }
  }
  const double ratio =
      non_null == 0 ? 0.0
                    : static_cast<double>(best_hits) / static_cast<double>(non_null);
  return {best, ratio};
}

}  // namespace

std::string ColumnClassName(ColumnClass c) {
  switch (c) {
    case ColumnClass::kKey:
      return "key";
    case ColumnClass::kNumeric:
      return "numeric";
    case ColumnClass::kDatetime:
      return "datetime";
    case ColumnClass::kStringAtomic:
      return "string";
    case ColumnClass::kStringList:
      return "string_list";
  }
  return "unknown";
}

Status Textifier::Fit(const Database& db) {
  columns_.clear();
  attr_names_.clear();
  for (const Table& table : db.tables()) {
    for (const Column& col : table.columns()) {
      const std::string qualified = table.name() + "." + col.name;
      ColumnState state;
      state.attr_id = static_cast<uint32_t>(attr_names_.size());
      attr_names_.push_back(qualified);

      const bool is_float = IsFloatingColumn(col);
      const bool near_unique = col.DistinctRatio() >= options_.key_distinct_ratio;
      if (col.type == DataType::kDatetime) {
        // Datetimes are binned regardless of uniqueness (Section 4.1):
        // encoding raw timestamps directly would explode cardinality and
        // lose temporal distance.
        state.cls = ColumnClass::kDatetime;
      } else if (near_unique && !is_float) {
        state.cls = ColumnClass::kKey;
      } else if (col.type == DataType::kInt || col.type == DataType::kDouble) {
        state.cls = ColumnClass::kNumeric;
      } else {
        const auto [sep, ratio] = DetectListSeparator(col);
        if (ratio >= options_.list_detect_ratio) {
          state.cls = ColumnClass::kStringList;
          state.list_separator = sep;
        } else {
          state.cls = ColumnClass::kStringAtomic;
        }
      }

      if (state.cls == ColumnClass::kNumeric ||
          state.cls == ColumnClass::kDatetime) {
        std::vector<double> numeric;
        numeric.reserve(col.size());
        for (const Value& v : col.values) {
          if (v.is_numeric()) numeric.push_back(v.ToNumeric());
        }
        state.histogram =
            options_.force_histogram_type
                ? Histogram::Fit(numeric, options_.bin_count, options_.forced_type)
                : Histogram::FitAuto(numeric, options_.bin_count);
      }
      columns_.emplace(qualified, std::move(state));
    }
  }
  return Status::OK();
}

const Textifier::ColumnState* Textifier::FindColumn(
    const std::string& table_name, const std::string& column_name) const {
  const auto it = columns_.find(table_name + "." + column_name);
  return it == columns_.end() ? nullptr : &it->second;
}

Result<TextifiedTable> Textifier::Transform(const Table& table) const {
  TextifiedTable out;
  out.table_name = table.name();
  out.rows.resize(table.NumRows());
  for (std::vector<TextToken>& row : out.rows) row.reserve(table.NumColumns());
  for (const Column& col : table.columns()) {
    LEVA_ASSIGN_OR_RETURN(const TextifiedColumn tokens,
                          TransformColumn(table.name(), col));
    const uint32_t attr_id = FindColumn(table.name(), col.name)->attr_id;
    for (size_t r = 0; r < tokens.NumRows(); ++r) {
      for (size_t i = tokens.offsets[r]; i < tokens.offsets[r + 1]; ++i) {
        out.rows[r].push_back({attr_id, std::string(tokens.tokens[i])});
      }
    }
  }
  return out;
}

Result<TextifiedColumn> Textifier::TransformColumn(
    const std::string& table_name, const Column& column, size_t row_begin,
    size_t row_end) const {
  const ColumnState* state = FindColumn(table_name, column.name);
  if (state == nullptr) {
    return Status::NotFound("column '" + table_name + "." + column.name +
                            "' was not fitted");
  }
  if (row_end == static_cast<size_t>(-1)) row_end = column.size();
  if (row_begin > row_end || row_end > column.size()) {
    return Status::InvalidArgument("row range [" + std::to_string(row_begin) +
                                   ", " + std::to_string(row_end) +
                                   ") out of bounds for column '" +
                                   column.name + "'");
  }

  TextifiedColumn out;
  out.offsets.reserve(row_end - row_begin + 1);
  out.offsets.push_back(0);
  out.tokens.reserve(row_end - row_begin);
  // Materializes a derived token into the backing store; the returned view
  // stays valid because deque growth never relocates elements.
  const auto store = [&out](std::string s) -> std::string_view {
    out.storage.push_back(std::move(s));
    return out.storage.back();
  };
  // String values are viewed in place; int/double renderings have to be
  // materialized. Ints (key columns) render via to_chars straight into the
  // backing store — the same minimal decimal digits ToDisplayString's
  // to_string emits, without the intermediate std::string.
  const auto raw_view = [&store, &out](const Value& value) -> std::string_view {
    if (value.is_string()) return std::string_view(value.as_string());
    if (value.is_int()) {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof(buf), value.as_int());
      out.storage.emplace_back(buf, res.ptr);
      return out.storage.back();
    }
    return store(value.ToDisplayString());
  };
  switch (state->cls) {
    case ColumnClass::kNumeric:
    case ColumnClass::kDatetime: {
      // Token is "<attribute>#bin<k>": numeric tokens are attribute-scoped
      // so different attributes never collide on bin ids, but the same
      // attribute appearing in several tables (a denormalized copy) still
      // links up. The prefix is a pure function of the column, so it is
      // built once; bin labels are a pure function of the bin id, so each
      // is materialized at most once per call.
      const std::string& qualified = attr_names_[state->attr_id];
      const std::string prefix = qualified.substr(qualified.find('.') + 1) +
                                 "#bin";
      constexpr uint32_t kNoEntry = static_cast<uint32_t>(-1);
      std::vector<uint32_t> bin_dict_id(state->histogram.num_bins(), kNoEntry);
      for (size_t r = row_begin; r < row_end; ++r) {
        const Value& value = column.values[r];
        if (!value.is_null()) {
          if (value.is_numeric()) {
            const size_t bin = state->histogram.BinOf(value.ToNumeric());
            if (bin_dict_id[bin] == kNoEntry) {
              bin_dict_id[bin] = static_cast<uint32_t>(out.dict.size());
              out.dict.push_back(store(prefix + std::to_string(bin)));
            }
            out.dict_ids.push_back(bin_dict_id[bin]);
            out.tokens.push_back(out.dict[bin_dict_id[bin]]);
          } else {
            // Dirty cell in a numeric column (e.g. a stray "?"): emit the raw
            // token and let the voting refinement deal with it. Such cells
            // are rare; give each occurrence its own dict entry rather than
            // dedup-hashing here (downstream interning dedups them anyway).
            const std::string_view raw = Trim(raw_view(value));
            if (!raw.empty()) {
              out.dict_ids.push_back(static_cast<uint32_t>(out.dict.size()));
              out.dict.push_back(raw);
              out.tokens.push_back(raw);
            }
          }
        }
        out.offsets.push_back(out.tokens.size());
      }
      break;
    }
    case ColumnClass::kKey:
    case ColumnClass::kStringAtomic: {
      for (size_t r = row_begin; r < row_end; ++r) {
        const Value& value = column.values[r];
        if (!value.is_null()) {
          const std::string_view raw = Trim(raw_view(value));
          if (!raw.empty()) out.tokens.push_back(raw);
        }
        out.offsets.push_back(out.tokens.size());
      }
      break;
    }
    case ColumnClass::kStringList: {
      const char sep = state->list_separator;
      for (size_t r = row_begin; r < row_end; ++r) {
        const Value& value = column.values[r];
        if (!value.is_null()) {
          // Split on `sep` over a view, keeping empty fields, then trim each
          // part and drop it when empty, without materializing any of them.
          const std::string_view raw = raw_view(value);
          size_t start = 0;
          while (true) {
            const size_t pos = raw.find(sep, start);
            const size_t len =
                (pos == std::string_view::npos ? raw.size() : pos) - start;
            const std::string_view elem = Trim(raw.substr(start, len));
            if (!elem.empty()) out.tokens.push_back(elem);
            if (pos == std::string_view::npos) break;
            start = pos + 1;
          }
        }
        out.offsets.push_back(out.tokens.size());
      }
      break;
    }
  }
  return out;
}

void Textifier::Save(BufferWriter* out) const {
  out->PutU64(options_.bin_count);
  out->PutBool(options_.force_histogram_type);
  out->PutU8(static_cast<uint8_t>(options_.forced_type));
  out->PutDouble(options_.key_distinct_ratio);
  out->PutDouble(options_.list_detect_ratio);

  out->PutU64(attr_names_.size());
  for (const std::string& name : attr_names_) out->PutString(name);

  std::vector<const std::pair<const std::string, ColumnState>*> sorted;
  sorted.reserve(columns_.size());
  for (const auto& kv : columns_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  out->PutU64(sorted.size());
  for (const auto* kv : sorted) {
    out->PutString(kv->first);
    const ColumnState& state = kv->second;
    out->PutU32(state.attr_id);
    out->PutU8(static_cast<uint8_t>(state.cls));
    out->PutU8(static_cast<uint8_t>(state.list_separator));
    out->PutU8(static_cast<uint8_t>(state.histogram.type()));
    const std::vector<double>& edges = state.histogram.edges();
    out->PutU64(edges.size());
    for (const double e : edges) out->PutDouble(e);
  }
}

Status Textifier::Load(BufferReader* in) {
  // Parse into locals first so a corrupt buffer leaves this textifier empty
  // instead of half-loaded.
  std::unordered_map<std::string, ColumnState> columns;
  std::vector<std::string> attr_names;
  columns_.clear();
  attr_names_.clear();

  TextifyOptions options;
  uint64_t u64 = 0;
  uint8_t u8 = 0;
  LEVA_RETURN_IF_ERROR(in->GetU64(&u64));
  options.bin_count = u64;
  LEVA_RETURN_IF_ERROR(in->GetBool(&options.force_histogram_type));
  LEVA_RETURN_IF_ERROR(in->GetU8(&u8));
  if (u8 > static_cast<uint8_t>(HistogramType::kEquiDepth)) {
    return Status::InvalidArgument("corrupt textifier: bad histogram type " +
                                   std::to_string(u8));
  }
  options.forced_type = static_cast<HistogramType>(u8);
  LEVA_RETURN_IF_ERROR(in->GetDouble(&options.key_distinct_ratio));
  LEVA_RETURN_IF_ERROR(in->GetDouble(&options.list_detect_ratio));

  uint64_t attr_count = 0;
  LEVA_RETURN_IF_ERROR(in->GetU64(&attr_count));
  attr_names.reserve(attr_count);
  for (uint64_t i = 0; i < attr_count; ++i) {
    std::string name;
    LEVA_RETURN_IF_ERROR(in->GetString(&name));
    attr_names.push_back(std::move(name));
  }

  uint64_t column_count = 0;
  LEVA_RETURN_IF_ERROR(in->GetU64(&column_count));
  for (uint64_t i = 0; i < column_count; ++i) {
    std::string qualified;
    LEVA_RETURN_IF_ERROR(in->GetString(&qualified));
    ColumnState state;
    LEVA_RETURN_IF_ERROR(in->GetU32(&state.attr_id));
    if (state.attr_id >= attr_names.size()) {
      return Status::InvalidArgument("corrupt textifier: column '" + qualified +
                                     "' has attr id " +
                                     std::to_string(state.attr_id) + " of " +
                                     std::to_string(attr_names.size()));
    }
    LEVA_RETURN_IF_ERROR(in->GetU8(&u8));
    if (u8 > static_cast<uint8_t>(ColumnClass::kStringList)) {
      return Status::InvalidArgument("corrupt textifier: bad column class " +
                                     std::to_string(u8));
    }
    state.cls = static_cast<ColumnClass>(u8);
    LEVA_RETURN_IF_ERROR(in->GetU8(&u8));
    state.list_separator = static_cast<char>(u8);
    LEVA_RETURN_IF_ERROR(in->GetU8(&u8));
    if (u8 > static_cast<uint8_t>(HistogramType::kEquiDepth)) {
      return Status::InvalidArgument("corrupt textifier: bad histogram type " +
                                     std::to_string(u8));
    }
    const HistogramType type = static_cast<HistogramType>(u8);
    uint64_t edge_count = 0;
    LEVA_RETURN_IF_ERROR(in->GetU64(&edge_count));
    std::vector<double> edges;
    edges.reserve(edge_count);
    for (uint64_t e = 0; e < edge_count; ++e) {
      double v = 0;
      LEVA_RETURN_IF_ERROR(in->GetDouble(&v));
      edges.push_back(v);
    }
    state.histogram = Histogram(type, std::move(edges));
    if (!columns.emplace(std::move(qualified), std::move(state)).second) {
      return Status::InvalidArgument("corrupt textifier: duplicate column");
    }
  }
  options_ = options;
  attr_names_ = std::move(attr_names);
  columns_ = std::move(columns);
  return Status::OK();
}

}  // namespace leva
