// zi_bench — run one workload of the repository benchmark.
//
//   zi_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--trace-dir DIR] [--scratch DIR]
//
// Prints a host fingerprint line, notes, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a traced run. Exits
// 0 only when the correctness gate passed and no operation failed; exits 2
// on bad arguments or when a ZI_* variable could change what is measured.
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/trace.hpp"

extern char** environ;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "zi_bench: %s\nusage: zi_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-dir DIR] [--scratch DIR]"
               "\n",
               why);
  return 2;
}

/// Names of set ZI_* variables: the program reads them (transport, faults,
/// tracing, metrics, scheduler knobs), so any of them changes the load.
std::string zi_environment() {
  std::string names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ZI_", 3) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (!names.empty()) names += ", ";
    names.append(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e)
                                   : std::strlen(*e));
  }
  return names;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string filesystem_of(const std::filesystem::path& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

double load1() {
  double l[1] = {0};
  return getloadavg(l, 1) == 1 ? l[0] : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  zb::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return usage("--seed takes an integer");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 600)) {
        return usage("--seconds takes a number in (0, 600]");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--trace-dir") {
      o.trace_dir = v;
    } else if (a == "--scratch") {
      o.scratch_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const zb::Workload* workload = nullptr;
  for (const zb::Workload& w : zb::workloads()) {
    if (o.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("--workload names no workload");
  if (const std::string set = zi_environment(); !set.empty()) {
    std::fprintf(stderr,
                 "zi_bench: refusing to run with %s set: ZI_* variables "
                 "change what is measured\n",
                 set.c_str());
    return 2;
  }
  if (o.scratch_dir.empty()) {
    o.scratch_dir = std::filesystem::temp_directory_path() /
                    ("zi_bench-" + std::to_string(::getpid()));
  }
  std::filesystem::create_directories(o.scratch_dir);
  const std::string nvme_fs = filesystem_of(o.scratch_dir);

  // Rings large enough that a whole traced window fits without wrapping.
  zi::Tracer::instance().set_ring_capacity(std::size_t{1} << 23);

  const double load_start = load1();
  zb::Result r;
  try {
    r = workload->run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zi_bench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    r = zb::Result{};
    r.correct = false;
    r.attempted = 1;
    r.failed = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(o.scratch_dir, ec);

  std::printf(
      "host: {\"nproc\":%u,\"cpu\":%s,\"load1_start\":%.2f,"
      "\"load1_end\":%.2f,\"nvme_fs\":%s,\"build\":%s,\"workload\":%s,"
      "\"seed\":%llu,\"seconds\":%s,\"trace\":%d}\n",
      std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
      load_start, load1(), json_string(nvme_fs).c_str(),
      json_string(ZI_BENCH_BUILD_TYPE).c_str(),
      json_string(o.workload).c_str(),
      static_cast<unsigned long long>(o.seed), json_number(o.seconds).c_str(),
      o.trace ? 1 : 0);
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  std::string out = "{\"correct\":";
  out += r.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const zb::Metric& m = r.metrics[i];
    if (i > 0) out += ',';
    out += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return r.correct && r.failed == 0 ? 0 : 1;
}
