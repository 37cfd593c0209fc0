#ifndef LEVA_TABLE_VALUE_H_
#define LEVA_TABLE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace leva {

/// Declared (or inferred) type of a column.
enum class DataType {
  kNull = 0,   ///< all-null / unknown
  kInt,        ///< 64-bit integer
  kDouble,     ///< double-precision float
  kString,     ///< UTF-8 string
  kDatetime,   ///< seconds since epoch, stored as int64
};

/// A single cell: null, integer, double, or string. Datetimes are stored as
/// int64 and distinguished at the column level.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(const char* s) : v_(std::string(s)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t as_int() const { return std::get<int64_t>(v_); }
  double as_double() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }

  /// Numeric view: ints widen to double; null/string are not numeric.
  bool is_numeric() const { return is_int() || is_double(); }
  double ToNumeric() const { return is_int() ? static_cast<double>(as_int()) : as_double(); }

  /// Canonical textual form ("" for null) used by CSV output and as the raw
  /// token by the textifier.
  std::string ToDisplayString() const;

  bool operator==(const Value& other) const { return v_ == other.v_; }

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

}  // namespace leva

#endif  // LEVA_TABLE_VALUE_H_
