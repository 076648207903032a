// Fixture: spin-confinement must fire on busy-wait primitives under src/
// outside the collective barrier.
#include <atomic>
#include <thread>

namespace fixture {

void wait_for(const std::atomic<bool>& flag) {
  while (!flag.load()) __builtin_ia32_pause();  // finding
  while (!flag.load()) std::this_thread::yield();  // finding
  // zilint:allow(isa-confinement): only spin-confinement is under test here
  while (!flag.load()) _mm_pause();  // finding
}

}  // namespace fixture
