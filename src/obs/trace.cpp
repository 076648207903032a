#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "common/thread_annotations.hpp"

namespace zi {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

constexpr std::size_t kDefaultRingCapacity = 1 << 16;

struct TraceEvent {
  const char* cat = "";
  std::string name;
  std::string args;  ///< pre-formatted JSON object body, may be empty
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  char phase = 'X';
};

/// One thread's event ring. Deliberately leaked (like the Tracer
/// singleton) so export still works after the owning thread has exited.
struct ThreadRing {
  Mutex mutex;
  /// Ring storage; capacity fixed at creation.
  std::vector<TraceEvent> events ZI_GUARDED_BY(mutex);
  std::size_t capacity ZI_GUARDED_BY(mutex) = kDefaultRingCapacity;
  std::size_t next ZI_GUARDED_BY(mutex) = 0;  // overwrite cursor once full
  std::uint64_t recorded ZI_GUARDED_BY(mutex) = 0;
  /// Events overwritten by wraparound.
  std::uint64_t dropped ZI_GUARDED_BY(mutex) = 0;
  int tid ZI_GUARDED_BY(mutex) = 0;
  std::string name ZI_GUARDED_BY(mutex);

  void push(TraceEvent ev) ZI_EXCLUDES(mutex) {
    LockGuard lock(mutex);
    ++recorded;
    if (events.size() < capacity) {
      events.push_back(std::move(ev));
    } else {
      events[next] = std::move(ev);
      next = (next + 1) % capacity;
      ++dropped;
    }
  }
};

thread_local ThreadRing* t_ring = nullptr;
thread_local std::string t_pending_name;

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Nanoseconds rendered as fractional microseconds (Chrome's "ts" unit).
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

void append_event_json(std::string& out, const TraceEvent& ev, int tid) {
  out += "{\"ph\":\"";
  out += ev.phase;
  out += "\",\"pid\":1,\"tid\":";
  out += std::to_string(tid);
  out += ",\"cat\":\"";
  out += ev.cat;
  out += "\",\"name\":\"";
  append_escaped(out, ev.name);
  out += "\",\"ts\":";
  append_us(out, ev.ts_ns);
  if (ev.phase == 'X') {
    out += ",\"dur\":";
    append_us(out, ev.dur_ns);
  } else {
    out += ",\"s\":\"t\"";  // instant scope: thread
  }
  if (!ev.args.empty()) {
    out += ",\"args\":{";
    out += ev.args;
    out += '}';
  }
  out += '}';
}

}  // namespace

/// Lock order: registry_mutex before any ring's mutex.
struct Tracer::Impl {
  mutable Mutex registry_mutex;
  /// Leaked ring objects, creation order.
  std::vector<ThreadRing*> rings ZI_GUARDED_BY(registry_mutex);
  std::string output_path ZI_GUARDED_BY(registry_mutex);
  std::size_t ring_capacity ZI_GUARDED_BY(registry_mutex) =
      kDefaultRingCapacity;
  bool atexit_registered ZI_GUARDED_BY(registry_mutex) = false;
};

Tracer::Impl& Tracer::impl() const {
  // Leaked: instrumented sites may fire during static teardown.
  static Impl* impl = new Impl;
  return *impl;
}

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer;
  return *tracer;
}

std::uint64_t Tracer::now_ns() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

void Tracer::set_output_path(std::string path) {
  Impl& im = impl();
  LockGuard lock(im.registry_mutex);
  im.output_path = std::move(path);
}

void Tracer::init_from_env() {
  const char* path = std::getenv("ZI_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  set_output_path(path);
  set_enabled(true);
  Impl& im = impl();
  LockGuard lock(im.registry_mutex);
  if (!im.atexit_registered) {
    im.atexit_registered = true;
    std::atexit(+[] { Tracer::instance().flush(); });
  }
}

void Tracer::set_thread_name(const std::string& name) {
  t_pending_name = name;
  if (t_ring != nullptr) {
    LockGuard lock(t_ring->mutex);
    t_ring->name = name;
  }
}

void Tracer::set_ring_capacity(std::size_t events) {
  Impl& im = impl();
  LockGuard lock(im.registry_mutex);
  im.ring_capacity = events == 0 ? 1 : events;
}

namespace {

/// The calling thread's ring, created (and registered) on first use.
ThreadRing& get_ring(Tracer::Impl& im) {
  if (t_ring != nullptr) return *t_ring;
  auto* ring = new ThreadRing;  // leaked: outlives the thread for export
  {
    LockGuard lock(im.registry_mutex);
    LockGuard rlock(ring->mutex);
    ring->capacity = im.ring_capacity;
    ring->tid = static_cast<int>(im.rings.size());
    ring->name = t_pending_name.empty() ? "thread" + std::to_string(ring->tid)
                                        : t_pending_name;
    ring->events.reserve(std::min<std::size_t>(ring->capacity, 4096));
    im.rings.push_back(ring);
  }
  t_ring = ring;
  return *ring;
}

}  // namespace

void Tracer::record_complete(const char* cat, std::string name,
                             std::uint64_t ts_ns, std::uint64_t dur_ns,
                             std::string args) {
  TraceEvent ev;
  ev.cat = cat;
  ev.name = std::move(name);
  ev.args = std::move(args);
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.phase = 'X';
  get_ring(impl()).push(std::move(ev));
}

void Tracer::record_instant(const char* cat, std::string name,
                            std::string args) {
  TraceEvent ev;
  ev.cat = cat;
  ev.name = std::move(name);
  ev.args = std::move(args);
  ev.ts_ns = now_ns();
  ev.phase = 'i';
  get_ring(impl()).push(std::move(ev));
}

std::string Tracer::export_json() const {
  Impl& im = impl();
  std::vector<ThreadRing*> rings;
  {
    LockGuard lock(im.registry_mutex);
    rings = im.rings;
  }

  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"zero_infinity\"}}";
  for (ThreadRing* ring : rings) {
    LockGuard lock(ring->mutex);
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(ring->tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    append_escaped(out, ring->name);
    out += "\"}}";
    // Ring order: oldest surviving event first. Once wrapped, `next` points
    // at the oldest slot.
    const std::size_t n = ring->events.size();
    const bool wrapped = n == ring->capacity && ring->dropped > 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t idx = wrapped ? (ring->next + i) % n : i;
      out += ",\n";
      append_event_json(out, ring->events[idx], ring->tid);
    }
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f.good()) {
    std::fprintf(stderr, "[zi] ZI_TRACE: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  f << export_json();
  f.flush();
  return f.good();
}

void Tracer::flush() const {
  Impl& im = impl();
  std::string path;
  {
    LockGuard lock(im.registry_mutex);
    path = im.output_path;
  }
  if (!path.empty()) write_json(path);
}

void Tracer::reset() {
  Impl& im = impl();
  LockGuard lock(im.registry_mutex);
  for (ThreadRing* ring : im.rings) {
    LockGuard rlock(ring->mutex);
    ring->events.clear();
    ring->next = 0;
    ring->recorded = 0;
    ring->dropped = 0;
  }
}

Tracer::Stats Tracer::stats() const {
  Impl& im = impl();
  LockGuard lock(im.registry_mutex);
  Stats s;
  s.threads = im.rings.size();
  for (ThreadRing* ring : im.rings) {
    LockGuard rlock(ring->mutex);
    s.events_recorded += ring->recorded;
    s.events_dropped += ring->dropped;
  }
  return s;
}

void TraceSpan::finish() {
  const std::uint64_t end = Tracer::now_ns();
  Tracer::instance().record_complete(
      cat_, std::move(name_), start_ns_,
      end > start_ns_ ? end - start_ns_ : 0, std::move(args_));
  active_ = false;
}

namespace {
/// Static-init activation: ZI_TRACE=<path> arms tracing before main().
struct TraceEnvInit {
  TraceEnvInit() { Tracer::instance().init_from_env(); }
};
TraceEnvInit g_trace_env_init;
}  // namespace

}  // namespace zi
