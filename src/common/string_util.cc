#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace leva {

std::string_view Trim(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::optional<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  // std::from_chars<double> is available in libstdc++ 11+.
  double value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<int64_t> ParseInt(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return std::nullopt;
  int64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

bool LooksLikeMissingToken(std::string_view s) {
  const std::string t = ToLower(Trim(s));
  return t.empty() || t == "?" || t == "null" || t == "n/a" || t == "na" ||
         t == "none" || t == "nan" || t == "-";
}

namespace {

// Days since 1970-01-01 for a proleptic-Gregorian civil date (Howard
// Hinnant's days_from_civil).
int64_t DaysFromCivil(int64_t y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

bool IsLeap(int64_t y) { return y % 4 == 0 && (y % 100 != 0 || y % 400 == 0); }

unsigned DaysInMonth(int64_t y, unsigned m) {
  constexpr unsigned kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (m == 2 && IsLeap(y)) return 29;
  return kDays[m - 1];
}

}  // namespace

std::optional<int64_t> ParseIsoDatetime(std::string_view s) {
  s = Trim(s);
  int year = 0;
  int month = 0;
  int day = 0;
  int hour = 0;
  int minute = 0;
  int second = 0;
  char sep = 0;
  const std::string str(s);
  int consumed = 0;
  int fields = std::sscanf(str.c_str(), "%4d-%2d-%2d%c%2d:%2d:%2d%n", &year,
                           &month, &day, &sep, &hour, &minute, &second,
                           &consumed);
  if (fields == 7) {
    if (sep != ' ' && sep != 'T') return std::nullopt;
    if (static_cast<size_t>(consumed) != str.size()) return std::nullopt;
  } else {
    consumed = 0;
    fields = std::sscanf(str.c_str(), "%4d-%2d-%2d%n", &year, &month, &day,
                         &consumed);
    if (fields != 3 || static_cast<size_t>(consumed) != str.size()) {
      return std::nullopt;
    }
    hour = minute = second = 0;
  }
  if (month < 1 || month > 12 || day < 1 ||
      day > static_cast<int>(DaysInMonth(year, static_cast<unsigned>(month))) ||
      hour < 0 || hour > 23 || minute < 0 || minute > 59 || second < 0 ||
      second > 60) {
    return std::nullopt;
  }
  const int64_t days = DaysFromCivil(year, static_cast<unsigned>(month),
                                     static_cast<unsigned>(day));
  return days * 86400 + hour * 3600 + minute * 60 + second;
}

std::string FormatIsoDatetime(int64_t epoch_seconds) {
  int64_t days = epoch_seconds / 86400;
  int64_t rem = epoch_seconds % 86400;
  if (rem < 0) {
    rem += 86400;
    --days;
  }
  // civil_from_days (Hinnant).
  const int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  const int64_t year = y + (m <= 2);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04lld-%02u-%02u %02lld:%02lld:%02lld",
                static_cast<long long>(year), m, d,
                static_cast<long long>(rem / 3600),
                static_cast<long long>((rem / 60) % 60),
                static_cast<long long>(rem % 60));
  return buf;
}

}  // namespace leva
