#include "testing/fault_injector.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_annotations.hpp"

namespace zi {

namespace detail {
std::atomic<bool> g_faults_armed{false};
}  // namespace detail

namespace {

// splitmix64 — the decision hash. Chosen over a shared RNG stream so the
// verdict for (seed, site, rule, ordinal) is a pure function: rules never
// perturb each other's draws and sites never couple.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t decision_hash(std::uint64_t seed, FaultSite site,
                            std::size_t rule_idx, std::uint64_t ordinal,
                            int actor = -1) {
  std::uint64_t h = seed;
  h = splitmix64(h ^ (static_cast<std::uint64_t>(site) * 0xA24BAED4963EE407ull));
  h = splitmix64(h ^ (rule_idx * 0x9FB21C651E98DF25ull));
  if (actor >= 0) {
    // Only actor-scoped rules mix the actor in, so pre-existing seeded
    // schedules (no rank= option) replay byte-for-byte.
    h = splitmix64(h ^ ((static_cast<std::uint64_t>(actor) + 1) *
                        0xD6E8FEB86659FD93ull));
  }
  return splitmix64(h ^ ordinal);
}

bool bernoulli(double p, std::uint64_t hash) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return static_cast<double>(hash) <
         p * 18446744073709551616.0;  // 2^64
}

constexpr std::array<const char*, kNumFaultSites> kSiteNames = {
    "aio_read",       "aio_write",  "nvme_alloc",      "arena_alloc",
    "pinned_acquire", "rank_crash", "rank_stall",      "collective_delay",
    "proc_kill",      "proc_stall"};

// Classic Levenshtein over short names — powers the "did you mean" hint for
// ZI_FAULTS typos (an unknown site used to silently arm nothing before the
// spec parser rejected it; now the rejection also suggests the fix).
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

const char* fault_site_name(FaultSite site) {
  const int i = static_cast<int>(site);
  ZI_CHECK(i >= 0 && i < kNumFaultSites);
  return kSiteNames[static_cast<std::size_t>(i)];
}

FaultSite fault_site_from_name(const std::string& name) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (name == kSiteNames[static_cast<std::size_t>(i)]) {
      return static_cast<FaultSite>(i);
    }
  }
  std::string msg = "ZI_FAULTS: unknown fault site '" + name + "'";
  std::size_t best = static_cast<std::size_t>(-1);
  const char* suggestion = nullptr;
  for (const char* candidate : kSiteNames) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best) {
      best = d;
      suggestion = candidate;
    }
  }
  if (suggestion != nullptr && best <= 3) {
    msg += "; did you mean '" + std::string(suggestion) + "'?";
  }
  msg += " (known sites:";
  for (const char* s : kSiteNames) msg += std::string(" ") + s;
  msg += ")";
  throw Error(msg);
}

struct FaultInjector::Impl {
  struct RuleState {
    FaultRule rule;
    std::uint64_t fires = 0;
  };
  struct SiteState {
    std::uint64_t ops = 0;
    SiteStats stats;
    std::vector<RuleState> rules;
    // Per-actor operation counts, maintained only when call sites pass an
    // actor (comm sites pass the global rank). rank= rules count against
    // these so a kill ordinal is exact per rank, not per world.
    std::map<int, std::uint64_t> actor_ops;
  };

  // A leaf lock: nothing is called out to while it is held.
  mutable Mutex mutex;
  std::uint64_t seed ZI_GUARDED_BY(mutex) = 0;
  std::array<SiteState, kNumFaultSites> sites ZI_GUARDED_BY(mutex);

  SiteState& site(FaultSite s) ZI_REQUIRES(mutex) {
    return sites[static_cast<std::size_t>(static_cast<int>(s))];
  }
};

FaultInjector& FaultInjector::instance() {
  // Leaked: sites may fire during static teardown.
  static FaultInjector* injector = new FaultInjector;
  return *injector;
}

FaultInjector::Impl& FaultInjector::impl() const {
  static Impl* impl = new Impl;
  return *impl;
}

void FaultInjector::add_rule(const FaultRule& rule) {
  Impl& im = impl();
  LockGuard lock(im.mutex);
  im.site(rule.site).rules.push_back({rule, 0});
}

void FaultInjector::set_seed(std::uint64_t seed) {
  Impl& im = impl();
  LockGuard lock(im.mutex);
  im.seed = seed;
}

std::uint64_t FaultInjector::seed() const {
  Impl& im = impl();
  LockGuard lock(im.mutex);
  return im.seed;
}

void FaultInjector::arm() {
  detail::g_faults_armed.store(true, std::memory_order_release);
}

void FaultInjector::disarm() {
  detail::g_faults_armed.store(false, std::memory_order_release);
}

void FaultInjector::clear() {
  disarm();
  Impl& im = impl();
  LockGuard lock(im.mutex);
  im.seed = 0;
  for (auto& s : im.sites) s = Impl::SiteState{};
}

FaultDecision FaultInjector::evaluate(FaultSite site, int actor) {
  Impl& im = impl();
  FaultDecision d;
  LockGuard lock(im.mutex);
  Impl::SiteState& s = im.site(site);
  const std::uint64_t ordinal = s.ops++;
  std::uint64_t actor_ordinal = 0;
  if (actor >= 0) actor_ordinal = s.actor_ops[actor]++;
  ++s.stats.ops;
  for (std::size_t r = 0; r < s.rules.size(); ++r) {
    Impl::RuleState& rs = s.rules[r];
    const FaultRule& rule = rs.rule;
    if (rule.actor >= 0 && rule.actor != actor) continue;
    if (rule.max_fires >= 0 &&
        rs.fires >= static_cast<std::uint64_t>(rule.max_fires)) {
      continue;
    }
    // Actor-scoped rules count the actor's own ops so "rank 2's 40th
    // collective" is exact regardless of how the ranks interleave.
    const std::uint64_t n = rule.actor >= 0 ? actor_ordinal : ordinal;
    bool fire;
    if (rule.after >= 0) {
      fire = n >= static_cast<std::uint64_t>(rule.after);
    } else {
      fire = bernoulli(rule.probability,
                       decision_hash(im.seed, site, r, n,
                                     rule.actor >= 0 ? actor : -1));
    }
    if (!fire) continue;
    ++rs.fires;
    switch (rule.kind) {
      case FaultKind::kError:
        d.error = true;
        ++s.stats.errors;
        break;
      case FaultKind::kShort:
        d.short_op = true;
        ++s.stats.shorts;
        break;
      case FaultKind::kDelay:
        d.delay_us += rule.delay_us;
        ++s.stats.delays;
        break;
    }
  }
  return d;
}

FaultInjector::SiteStats FaultInjector::stats(FaultSite site) const {
  Impl& im = impl();
  LockGuard lock(im.mutex);
  return im.site(site).stats;
}

std::uint64_t FaultInjector::total_fires() const {
  Impl& im = impl();
  LockGuard lock(im.mutex);
  std::uint64_t total = 0;
  for (const auto& s : im.sites) {
    total += s.stats.errors + s.stats.shorts + s.stats.delays;
  }
  return total;
}

std::vector<FaultRule> FaultInjector::rules(FaultSite site) const {
  Impl& im = impl();
  LockGuard lock(im.mutex);
  std::vector<FaultRule> out;
  for (const auto& rs : im.site(site).rules) out.push_back(rs.rule);
  return out;
}

// ---------------------------------------------------------------------------
// ZI_FAULTS spec parsing.

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

std::uint64_t parse_u64(const std::string& v, const std::string& clause) {
  try {
    std::size_t pos = 0;
    const unsigned long long n = std::stoull(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return static_cast<std::uint64_t>(n);
  } catch (const std::exception&) {
    throw Error("ZI_FAULTS: bad integer '" + v + "' in '" + clause + "'");
  }
}

double parse_prob(const std::string& v, const std::string& clause) {
  try {
    std::size_t pos = 0;
    const double p = std::stod(v, &pos);
    if (pos != v.size() || p < 0.0 || p > 1.0) throw std::invalid_argument(v);
    return p;
  } catch (const std::exception&) {
    throw Error("ZI_FAULTS: bad probability '" + v + "' in '" + clause + "'");
  }
}

FaultKind parse_kind(const std::string& v, const std::string& clause) {
  if (v == "error") return FaultKind::kError;
  if (v == "short") return FaultKind::kShort;
  if (v == "delay") return FaultKind::kDelay;
  throw Error("ZI_FAULTS: unknown fault kind '" + v + "' in '" + clause +
              "' (expected error|short|delay)");
}

}  // namespace

void FaultInjector::configure(const std::string& spec) {
  std::size_t num_rules = 0;
  for (const std::string& clause : split(spec, ';')) {
    if (clause.empty()) continue;
    if (clause.rfind("seed=", 0) == 0) {
      set_seed(parse_u64(clause.substr(5), clause));
      continue;
    }
    const std::size_t colon = clause.find(':');
    if (colon == std::string::npos) {
      throw Error("ZI_FAULTS: expected '<site>:<kind>[,opts]' or 'seed=N', "
                  "got '" + clause + "'");
    }
    const std::vector<std::string> opts = split(clause.substr(colon + 1), ',');
    FaultRule rule;
    rule.site = fault_site_from_name(clause.substr(0, colon));
    rule.kind = parse_kind(opts[0], clause);
    for (std::size_t i = 1; i < opts.size(); ++i) {
      const std::size_t eq = opts[i].find('=');
      if (eq == std::string::npos) {
        throw Error("ZI_FAULTS: expected key=value, got '" + opts[i] +
                    "' in '" + clause + "'");
      }
      const std::string key = opts[i].substr(0, eq);
      const std::string val = opts[i].substr(eq + 1);
      if (key == "p") {
        rule.probability = parse_prob(val, clause);
      } else if (key == "after") {
        rule.after = static_cast<std::int64_t>(parse_u64(val, clause));
      } else if (key == "count") {
        rule.max_fires = static_cast<std::int64_t>(parse_u64(val, clause));
      } else if (key == "delay_us") {
        rule.delay_us = parse_u64(val, clause);
      } else if (key == "rank") {
        rule.actor = static_cast<int>(parse_u64(val, clause));
      } else {
        throw Error("ZI_FAULTS: unknown option '" + key + "' in '" + clause +
                    "'");
      }
    }
    if (rule.kind == FaultKind::kDelay && rule.delay_us == 0) {
      throw Error("ZI_FAULTS: delay rule needs delay_us=N in '" + clause +
                  "'");
    }
    add_rule(rule);
    ++num_rules;
  }
  if (num_rules > 0) arm();
}

// ---------------------------------------------------------------------------
// ZI_FAULTS env hook: parsed once at static-init time, like ZI_TRACE and
// ZI_METRICS. A malformed spec aborts loudly — silently ignoring a typo'd
// fault schedule would fake passing stress runs.

namespace {
struct EnvFaultsInit {
  EnvFaultsInit() {
    const char* env = std::getenv("ZI_FAULTS");
    if (env != nullptr && env[0] != '\0') {
      try {
        FaultInjector::instance().configure(env);
      } catch (const Error& e) {
        // Static-init context: an uncaught throw would terminate with no
        // usable message. Fail fast but explain what was wrong.
        std::fprintf(stderr, "fatal: malformed ZI_FAULTS spec: %s\n",
                     e.what());
        std::exit(1);
      }
      ZI_LOG_INFO << "fault injection armed from ZI_FAULTS (seed="
                  << FaultInjector::instance().seed() << ")";
    }
  }
};
const EnvFaultsInit g_env_faults_init;
}  // namespace

}  // namespace zi
