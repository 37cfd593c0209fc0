#ifndef LEVA_COMMON_TIMER_H_
#define LEVA_COMMON_TIMER_H_

#include <chrono>

namespace leva {

/// Simple monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace leva

#endif  // LEVA_COMMON_TIMER_H_
