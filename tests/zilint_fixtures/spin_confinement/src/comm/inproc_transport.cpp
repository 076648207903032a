// Fixture: the collective barrier is the one file that may spin.
#include <atomic>

namespace fixture {

void spin(const std::atomic<bool>& flag) {
  while (!flag.load()) __builtin_ia32_pause();
}

}  // namespace fixture
