#ifndef LAN_COMMON_TIMER_H_
#define LAN_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace lan {

/// \brief Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Restart, in seconds.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace lan

#endif  // LAN_COMMON_TIMER_H_
