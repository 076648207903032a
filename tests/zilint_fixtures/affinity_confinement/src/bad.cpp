// Fixture: affinity-confinement must fire on thread-affinity calls under
// src/ outside the thread pool.
#include <pthread.h>
#include <sched.h>

namespace fixture {

void pin(cpu_set_t* set) {
  pthread_setaffinity_np(pthread_self(), sizeof(*set), set);  // finding
  sched_setaffinity(0, sizeof(*set), set);                    // finding
}

}  // namespace fixture
