// Wall-clock stopwatch for benches and coarse timing.

#ifndef PSGRAPH_COMMON_STOPWATCH_H_
#define PSGRAPH_COMMON_STOPWATCH_H_

#include <chrono>

namespace psgraph {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace psgraph

#endif  // PSGRAPH_COMMON_STOPWATCH_H_
