#ifndef OE_COMMON_CLOCK_H_
#define OE_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace oe {

/// Nanosecond timestamps. Simulated time throughout `oe::sim` also uses
/// nanoseconds so device costs and wall measurements compose.
using Nanos = int64_t;

/// Monotonic wall-clock now, in nanoseconds.
inline Nanos WallNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace oe

#endif  // OE_COMMON_CLOCK_H_
