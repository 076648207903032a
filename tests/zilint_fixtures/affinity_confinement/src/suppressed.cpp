// Fixture: a per-line allow silences affinity-confinement on that line only.
#include <sched.h>

namespace fixture {

void pin(cpu_set_t* set) {
  // zilint:allow(affinity-confinement): fixture exercises the suppression path
  sched_setaffinity(0, sizeof(*set), set);
}

}  // namespace fixture
