// Strict environment-variable parsing for the ZI_* knobs.
//
// The ZI_* numeric knobs used to be read with strtod/strtoull and a null
// endptr, so a typo like ZI_P2P_CAP_BYTES=4gb silently became 0 — a
// zero-capacity P2P channel that blocks every send forever. These helpers
// parse with std::from_chars and full-match validation: the entire value
// must parse, anything else throws zi::Error naming the variable and the
// offending value. Unset or empty variables return the fallback.
//
// The names deliberately contain "getenv": zilint's doc-drift rule ties
// ZI_* string literals on getenv lines to the README env-var table, and a
// call through these helpers is exactly such a read.
#pragma once

#include <cstdint>

namespace zi {

/// Read `name` as a floating-point value (full-string match) or throw.
double getenv_f64(const char* name, double fallback);

/// Read `name` as a base-10 unsigned integer (full-string match) or throw.
std::uint64_t getenv_u64(const char* name, std::uint64_t fallback);

}  // namespace zi
