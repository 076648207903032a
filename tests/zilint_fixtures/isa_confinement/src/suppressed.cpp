// Fixture: a per-line allow silences isa-confinement on that line only.
// zilint:allow(isa-confinement): fixture exercises the suppression path
#include <emmintrin.h>

namespace fixture {}  // namespace fixture
