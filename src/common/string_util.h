#ifndef LEVA_COMMON_STRING_UTIL_H_
#define LEVA_COMMON_STRING_UTIL_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace leva {

/// Transparent hash for string-keyed unordered maps so lookups accept a
/// std::string_view without materializing a std::string (C++20 heterogeneous
/// unordered lookup; pair with std::equal_to<> as the key-equal).
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// ASCII lower-casing.
std::string ToLower(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses a double, requiring the whole string to be consumed.
std::optional<double> ParseDouble(std::string_view s);

/// Parses an int64, requiring the whole string to be consumed.
std::optional<int64_t> ParseInt(std::string_view s);

/// True if `s` (after trimming and lower-casing) is a common textual
/// representation of a missing value: "", "?", "null", "n/a", "na", "none",
/// "nan", "-". The voting mechanism (Section 3.2) is the primary missing-data
/// defense; this list is only used by dataset generators and tests.
bool LooksLikeMissingToken(std::string_view s);

/// Parses "YYYY-MM-DD" or "YYYY-MM-DD HH:MM:SS" (also with a 'T' separator)
/// into seconds since the Unix epoch (UTC, proleptic Gregorian). Returns
/// nullopt on malformed input or out-of-range fields.
std::optional<int64_t> ParseIsoDatetime(std::string_view s);

/// Formats an epoch timestamp back to "YYYY-MM-DD HH:MM:SS".
std::string FormatIsoDatetime(int64_t epoch_seconds);

}  // namespace leva

#endif  // LEVA_COMMON_STRING_UTIL_H_
