#include "gendt/runtime/cancel.h"

#include <chrono>

namespace gendt::runtime {

namespace {
// The single wall-clock read in the tree: everything that makes a decision
// on time does so through the Clock interface, so tests swap in ManualClock
// and stay deterministic.
class SteadyClock final : public Clock {
 public:
  int64_t now_ms() const override {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now()  // gendt-lint: allow(wallclock) the injectable production Clock
                   .time_since_epoch())
        .count();
  }
};
}  // namespace

const Clock& steady_clock() {
  static SteadyClock clock;
  return clock;
}

}  // namespace gendt::runtime
