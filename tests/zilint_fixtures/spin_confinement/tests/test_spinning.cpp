// Fixture: tests may spin to line threads up; the rule covers src/ only.
#include <atomic>
#include <thread>

namespace fixture {

void wait_for(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::yield();
}

}  // namespace fixture
