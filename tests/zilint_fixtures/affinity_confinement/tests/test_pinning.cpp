// Fixture: tests arrange the masks a pool inherits; the rule covers src/
// only.
#include <pthread.h>

namespace fixture {

void pin(cpu_set_t* set) {
  pthread_setaffinity_np(pthread_self(), sizeof(*set), set);
}

}  // namespace fixture
