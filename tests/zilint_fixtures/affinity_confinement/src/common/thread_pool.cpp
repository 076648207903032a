// Fixture: the thread pool is the one file that places threads on CPUs.
#include <pthread.h>

namespace fixture {

void place(cpu_set_t* set) {
  pthread_getaffinity_np(pthread_self(), sizeof(*set), set);
  pthread_setaffinity_np(pthread_self(), sizeof(*set), set);
}

}  // namespace fixture
