#include "common/log.hpp"

#include <cstdio>

#include "common/thread_annotations.hpp"

namespace zi {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
// Leaf lock: nothing else is ever acquired while emitting (see DESIGN.md
// "Locking & sanitizer policy").
Mutex g_emit_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    default: return "?????";
  }
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(static_cast<int>(level)); }

LogLevel log_level() { return static_cast<LogLevel>(g_level.load()); }

namespace detail {
// The capability guards stderr interleaving, not a member — ZI_EXCLUDES
// documents that (and keeps the emit path re-entrancy-free under analysis).
void log_emit(LogLevel level, const std::string& message)
    ZI_EXCLUDES(g_emit_mutex) {
  LockGuard lock(g_emit_mutex);
  std::fprintf(stderr, "[zi %s] %s\n", level_name(level), message.c_str());
}
}  // namespace detail

}  // namespace zi
