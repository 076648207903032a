// Fixture: a per-line allow silences spin-confinement on that line only.
#include <atomic>
#include <thread>

namespace fixture {

void wait_for(const std::atomic<bool>& flag) {
  // zilint:allow(spin-confinement): fixture exercises the suppression path
  while (!flag.load()) std::this_thread::yield();
}

}  // namespace fixture
