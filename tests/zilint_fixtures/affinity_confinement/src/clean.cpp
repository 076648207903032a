// Fixture: mentions of pthread_setaffinity_np in comments and strings, and
// names that merely contain the word, never trip affinity-confinement.
namespace fixture {

const char* kDoc = "workers are pinned with sched_setaffinity";

int my_pthread_setaffinity_np_count = 0;

}  // namespace fixture
