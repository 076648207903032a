// zilint — the project-specific static-analysis pass.
//
// Clang's -Wthread-safety silently skips unannotated mutexes, and clang-tidy
// knows nothing of this codebase's own vocabulary: zi::Mutex shims, DataMover
// transfer handles, the fault injector's site registry, the ZI_* environment
// surface, StepReport's JSONL contract. zilint closes that gap with a small
// comment/string-aware tokenizer plus a rule engine — no libclang, compiled
// in-tree, run as a ctest suite and a CI lint step.
//
// Rules (names are what `// zilint:allow(<rule>)` takes):
//
//   raw-primitive      std::mutex / std::lock_guard / std::condition_variable
//                      and friends anywhere in src/ except the shim that
//                      wraps them (common/thread_annotations.hpp). Everything
//                      else uses the annotated zi:: shims.
//   mutex-annotation   every zi::Mutex declaration in src/ must be referenced
//                      by at least one ZI_GUARDED_BY / ZI_REQUIRES / ... in
//                      the same translation unit — catches exactly the
//                      mutexes -Wthread-safety silently ignores.
//   fault-site-sync    the FaultSite enum, the kSiteNames registry,
//                      kNumFaultSites, ZI_FAULTS spec strings at call sites,
//                      and the README site list must all agree — a typo'd
//                      site string fails at lint time, not at runtime.
//   handle-discipline  statements that call a transfer-issuing API
//                      (DataMover::fetch_nvme/spill_nvme/stage, pinned-pool
//                      try_acquire*, AioEngine submit_*, NvmeStore *_async)
//                      and discard the returned handle/lease/status.
//   doc-drift          every getenv("ZI_*") in src/bench/examples must have a
//                      row in README.md's marker-delimited env-var table (and
//                      vice versa); every StepReport field emitted by
//                      obs/metrics.cpp must have a row in DESIGN.md's
//                      marker-delimited field table (and vice versa).
//   isa-confinement    target("...") attributes, #pragma GCC target, the
//                      <*intrin.h> headers and _mm* intrinsics anywhere but
//                      the kernel files that own a vector tier (half.cpp,
//                      ops.cpp, adam.cpp), and -m<isa> flags in any
//                      CMakeLists.txt: the build stays at the x86-64
//                      baseline and one CPU-feature check picks the tier.
//   affinity-confinement  pthread_{set,get}affinity_np, its attr form and
//                      sched_{set,get}affinity anywhere under src/ but
//                      src/common/thread_pool.cpp: the pool alone decides
//                      which CPU each of its workers runs on.
//
// Suppression: `// zilint:allow(rule)` or `// zilint:allow(rule1,rule2)`,
// optionally followed by `: reason`. It applies to findings on its own line,
// and — when the comment stands alone on a line — to the next line as well.
// There is no file-level or wildcard suppression by design. An allow naming
// an unknown rule is itself a finding (rule `zilint-allow`), so typo'd
// suppressions cannot silently stop working.
//
// Findings print as `file:line: rule: message` (clickable in CI logs); the
// CLI also emits machine-readable JSON with --json.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace zilint {

struct Finding {
  std::string file;  ///< path relative to the project root, '/'-separated
  int line = 1;      ///< 1-based
  std::string rule;
  std::string message;
};

bool operator<(const Finding& a, const Finding& b);

/// `file:line: rule: message` — the CI-log-clickable form.
std::string format_finding(const Finding& f);

/// Machine-readable findings: a JSON array of objects.
std::string findings_to_json(const std::vector<Finding>& findings);

/// One string literal's content (escapes left as written; what the rules
/// match against is the literal spelling, which is what a human typo'd).
struct StringLit {
  int line = 1;
  std::string text;
};

/// The tokenizer's view of one source file: code with comments removed and
/// string-literal contents blanked (structure and columns preserved), the
/// string literals themselves, and the parsed zilint:allow suppressions.
struct ScannedFile {
  std::string path;               ///< project-root-relative
  std::vector<std::string> code;  ///< per-line stripped code
  std::vector<StringLit> strings;
  /// line -> rule names suppressed on that line.
  std::map<int, std::set<std::string>> allows;
  /// Allows whose rule name is not a registered rule (reported).
  std::vector<Finding> bad_allows;
};

/// Comment/string-aware scan of one file's text. Handles //, /* */, string
/// and char literals (with escapes), and R"delim(...)delim" raw strings.
ScannedFile scan_source(const std::string& path, const std::string& text);

/// The registered rule names (raw-primitive, mutex-annotation, ...).
const std::vector<std::string>& rule_names();

/// One-line description per rule, keyed by name (for --list-rules).
const std::map<std::string, std::string>& rule_descriptions();

struct Options {
  std::string root = ".";
};

/// Full-project analysis rooted at `options.root`: scans src/ (plus tests/,
/// bench/, examples/ for the string-level rules and README.md / DESIGN.md
/// for the drift rules), applies every rule, and filters `zilint:allow`
/// suppressions. Returns findings sorted by (file, line, rule). Registry or
/// doc files that do not exist under the root cause their dependent checks
/// to be skipped, not reported — fixture trees exercise one rule at a time.
std::vector<Finding> run_project(const Options& options);

}  // namespace zilint
