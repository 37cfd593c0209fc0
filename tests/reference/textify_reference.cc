#include "reference/textify_reference.h"

#include "common/string_util.h"

namespace leva {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

Result<std::vector<std::string>> ReferenceCellTokens(
    const Textifier& textifier, const std::string& table_name,
    const std::string& column_name, const Value& value) {
  const Textifier::ColumnState* state =
      textifier.FindColumn(table_name, column_name);
  if (state == nullptr) {
    return Status::NotFound("column '" + table_name + "." + column_name +
                            "' was not fitted");
  }
  std::vector<std::string> out;
  if (value.is_null()) return out;
  const auto emit = [&out](std::string token) {
    if (!token.empty()) out.push_back(std::move(token));
  };
  switch (state->cls) {
    case ColumnClass::kNumeric:
    case ColumnClass::kDatetime: {
      if (!value.is_numeric()) {
        emit(std::string(Trim(value.ToDisplayString())));
        break;
      }
      // The attribute is the qualified name after its first '.'.
      const std::string qualified = table_name + "." + column_name;
      const std::string attr = qualified.substr(qualified.find('.') + 1);
      const size_t bin = state->histogram.BinOf(value.ToNumeric());
      emit(attr + "#bin" + std::to_string(bin));
      break;
    }
    case ColumnClass::kKey:
    case ColumnClass::kStringAtomic:
      emit(std::string(Trim(value.ToDisplayString())));
      break;
    case ColumnClass::kStringList:
      for (const std::string& part :
           Split(value.ToDisplayString(), state->list_separator)) {
        emit(std::string(Trim(part)));
      }
      break;
  }
  return out;
}

Result<std::vector<std::string>> TransformOneCell(
    const Textifier& textifier, const std::string& table_name,
    const std::string& column_name, const Value& value) {
  Column column;
  column.name = column_name;
  column.values = {value};
  LEVA_ASSIGN_OR_RETURN(const TextifiedColumn cell,
                        textifier.TransformColumn(table_name, column, 0, 1));
  return std::vector<std::string>(cell.tokens.begin(), cell.tokens.end());
}

}  // namespace leva
