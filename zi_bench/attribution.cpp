// Per-layer self time from the Chrome trace the program's spans produce.
//
// On a rank thread spans nest (they are RAII scopes), so a span's self time
// is its duration minus its direct children's durations. Each self time is
// charged to the layer of its category; the bench spans' own self time is
// the part of an operation no layer claimed (the unattributed residual).
// AIO worker threads run beside the ranks, so their spans count as busy
// time rather than as a share of rank time.
#include <algorithm>
#include <cstdlib>
#include <map>
#include <string_view>

#include "bench.hpp"

namespace zb {

namespace {

struct Span {
  std::string cat;
  std::string name;
  std::uint64_t ts = 0;   // ns
  std::uint64_t dur = 0;  // ns
};

/// The string value following `key` (which ends in an opening quote).
bool read_string(std::string_view line, std::string_view key,
                 std::string* out) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  out->clear();
  for (std::size_t i = at + key.size(); i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      out->push_back(line[++i]);
    } else if (line[i] == '"') {
      return true;
    } else {
      out->push_back(line[i]);
    }
  }
  return false;
}

/// Microseconds written as "<int>.<3 digits>" back to integer nanoseconds.
bool read_us_as_ns(std::string_view line, std::string_view key,
                   std::uint64_t* out) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  const char* p = line.data() + at + key.size();
  char* end = nullptr;
  const unsigned long long whole = std::strtoull(p, &end, 10);
  std::uint64_t frac = 0;
  if (*end == '.') {
    int digits = 0;
    for (++end; *end >= '0' && *end <= '9'; ++end, ++digits) {
      if (digits < 3) frac = frac * 10 + static_cast<std::uint64_t>(*end - '0');
    }
    for (; digits < 3; ++digits) frac *= 10;
  }
  *out = whole * 1000ull + frac;
  return true;
}

bool read_int(std::string_view line, std::string_view key, int* out) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  *out = std::atoi(line.data() + at + key.size());
  return true;
}

/// Which Attribution field a span's self time belongs to.
double* layer_of(Attribution& a, const Span& s) {
  if (s.cat == "bench") return &a.unattributed_ns;
  if (s.cat == "engine") return s.name == "opt" ? &a.opt_ns : &a.compute_ns;
  if (s.cat == "serve") return &a.compute_ns;
  if (s.cat == "coord") {
    return s.name.rfind("reduce:", 0) == 0 ? &a.reduce_ns : &a.gather_ns;
  }
  if (s.cat == "comm") return &a.comm_ns;
  if (s.cat == "move") return &a.move_ns;
  if (s.cat == "mem") return &a.mem_ns;
  return &a.unattributed_ns;  // a category this benchmark does not know
}

void attribute_rank_thread(std::vector<Span>& spans, bool rank0,
                           Attribution& a) {
  std::sort(spans.begin(), spans.end(), [](const Span& x, const Span& y) {
    return x.ts != y.ts ? x.ts < y.ts : x.dur > y.dur;
  });
  struct Open {
    std::size_t index;
    std::uint64_t end;
    bool in_bench;          // this span or an ancestor is a bench span
    std::uint64_t children = 0;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    if (!o.in_bench) return;
    const Span& s = spans[o.index];
    const std::uint64_t self = s.dur > o.children ? s.dur - o.children : 0;
    *layer_of(a, s) += static_cast<double>(self);
    if (s.cat == "bench") a.rank_ns += static_cast<double>(s.dur);
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!stack.empty() && stack.back().end <= s.ts) {
      close(stack.back());
      stack.pop_back();
    }
    bool in_bench = s.cat == "bench";
    if (!stack.empty()) {
      stack.back().children += s.dur;
      in_bench = in_bench || stack.back().in_bench;
    }
    if (in_bench && rank0 && s.cat == "serve" && s.name == "decode_step") {
      a.decode_step_ns.push_back(static_cast<double>(s.dur));
    }
    stack.push_back({i, s.ts + s.dur, in_bench});
  }
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) close(*it);
}

}  // namespace

Attribution attribute(const std::string& trace_json) {
  std::map<int, std::string> thread_names;
  std::map<int, std::vector<Span>> by_thread;
  std::string_view rest(trace_json);
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    int tid = 0;
    if (line.rfind("{\"ph\":", 0) != 0 || !read_int(line, "\"tid\":", &tid)) {
      continue;
    }
    if (line.rfind("{\"ph\":\"M\"", 0) == 0) {
      std::string name;
      if (line.find("\"thread_name\"") != std::string_view::npos &&
          read_string(line, "\"args\":{\"name\":\"", &name)) {
        thread_names[tid] = name;
      }
    } else if (line.rfind("{\"ph\":\"X\"", 0) == 0) {
      Span s;
      if (read_string(line, "\"cat\":\"", &s.cat) &&
          read_string(line, "\"name\":\"", &s.name) &&
          read_us_as_ns(line, "\"ts\":", &s.ts) &&
          read_us_as_ns(line, "\"dur\":", &s.dur)) {
        by_thread[tid].push_back(std::move(s));
      }
    }
  }

  Attribution a;
  for (auto& [tid, spans] : by_thread) {
    const std::string& name = thread_names[tid];
    if (name.rfind("rank", 0) == 0) {
      attribute_rank_thread(spans, name == "rank0", a);
    } else if (name.rfind("aio", 0) == 0) {
      for (const Span& s : spans) {
        if (s.cat == "aio") a.aio_busy_ns += static_cast<double>(s.dur);
      }
    }
  }
  return a;
}

}  // namespace zb
