// Fixture: mentions of __builtin_ia32_pause and yield() in comments and
// strings, and names that merely contain the words, never trip
// spin-confinement.
namespace fixture {

const char* kDoc = "the barrier spins on _mm_pause, then parks";

int yield_count = 0;
int starvation_yields(int n) { return n; }
int my__builtin_ia32_pause_count = 0;

}  // namespace fixture
