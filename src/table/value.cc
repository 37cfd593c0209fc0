#include "table/value.h"

#include <cmath>
#include <cstdio>

namespace leva {

std::string Value::ToDisplayString() const {
  if (is_null()) return "";
  if (is_int()) return std::to_string(as_int());
  if (is_double()) {
    const double d = as_double();
    // Integral doubles print without a trailing ".000000" so that tokens from
    // int and double columns holding the same value collide syntactically,
    // which is exactly the behaviour the graph construction relies on.
    if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
      return std::to_string(static_cast<int64_t>(d));
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", d);
    return buf;
  }
  return as_string();
}

}  // namespace leva
