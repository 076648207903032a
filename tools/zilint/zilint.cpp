#include "zilint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
// GCC 12 with -fsanitize=address warns -Wmaybe-uninitialized inside the
// libstdc++ regex automaton (std::function members of its _State), a
// false positive in library code that breaks -Werror builds. Silence it
// for the library headers only; this file's own code keeps the warning.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <regex>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#include <sstream>

namespace zilint {

namespace fs = std::filesystem;

bool operator<(const Finding& a, const Finding& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.rule != b.rule) return a.rule < b.rule;
  return a.message < b.message;
}

std::string format_finding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": " + f.rule + ": " +
         f.message;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

std::string findings_to_json(const std::vector<Finding>& findings) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "  {\"file\":\"" + json_escape(f.file) +
           "\",\"line\":" + std::to_string(f.line) + ",\"rule\":\"" +
           json_escape(f.rule) + "\",\"message\":\"" + json_escape(f.message) +
           "\"}";
    if (i + 1 < findings.size()) out += ',';
    out += '\n';
  }
  out += "]";
  return out;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> kNames = {
      "raw-primitive",     "mutex-annotation", "fault-site-sync",
      "handle-discipline", "doc-drift",        "isa-confinement",
      "affinity-confinement", "zilint-allow",
  };
  return kNames;
}

const std::map<std::string, std::string>& rule_descriptions() {
  static const std::map<std::string, std::string> kDescriptions = {
      {"raw-primitive",
       "raw std synchronization primitive outside the whitelisted shim layer "
       "(use zi::Mutex / zi::LockGuard / zi::UniqueLock / zi::CondVar)"},
      {"mutex-annotation",
       "zi::Mutex declaration never referenced by a ZI_GUARDED_BY / "
       "ZI_REQUIRES / ... annotation in its translation unit"},
      {"fault-site-sync",
       "fault-injection site registry out of sync with call sites, enum, "
       "count, or documentation"},
      {"handle-discipline",
       "transfer-issuing call whose returned handle/lease/status is "
       "discarded"},
      {"doc-drift",
       "ZI_* env var or StepReport field out of sync between code and the "
       "marker-delimited doc tables"},
      {"isa-confinement",
       "ISA-specific code (target attributes, #pragma GCC target, SIMD "
       "intrinsics or their headers) outside the kernel files that own a "
       "vector tier, or an -m<isa> flag in a CMakeLists.txt"},
      {"affinity-confinement",
       "thread-affinity call under src/ outside src/common/thread_pool.cpp, "
       "the one place that decides where threads run"},
      {"zilint-allow", "zilint:allow naming an unknown rule"},
  };
  return kDescriptions;
}

// ---------------------------------------------------------------------------
// Scanner

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Parse `zilint:allow(a,b): reason` occurrences out of one comment's text.
void parse_allows(const std::string& comment, int line, ScannedFile& out) {
  static const std::regex kAllowRe(R"(zilint:allow\(([^)]*)\))");
  auto begin = std::sregex_iterator(comment.begin(), comment.end(), kAllowRe);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::string args = (*it)[1].str();
    std::string token;
    std::stringstream ss(args);
    while (std::getline(ss, token, ',')) {
      // trim
      const auto b = token.find_first_not_of(" \t");
      const auto e = token.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      token = token.substr(b, e - b + 1);
      const auto& names = rule_names();
      if (std::find(names.begin(), names.end(), token) == names.end()) {
        out.bad_allows.push_back(
            {out.path, line, "zilint-allow",
             "unknown rule '" + token + "' in zilint:allow (known:" +
                 [] {
                   std::string s;
                   for (const auto& n : rule_names()) s += " " + n;
                   return s;
                 }() +
                 ")"});
        continue;
      }
      out.allows[line].insert(token);
    }
  }
}

}  // namespace

ScannedFile scan_source(const std::string& path, const std::string& text) {
  ScannedFile out;
  out.path = path;

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;

  std::string code_line;
  std::string comment_line;  // comment text seen on the current line
  std::string current_string;
  int string_start_line = 1;
  std::string raw_delim;  // the )delim" terminator of a raw string
  int line = 1;
  char prev_sig = '\0';  // previous significant code char (char-lit heuristic)

  auto end_line = [&] {
    out.code.push_back(code_line);
    if (!comment_line.empty()) parse_allows(comment_line, line, out);
    code_line.clear();
    comment_line.clear();
    ++line;
  };

  const std::size_t n = text.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = text[i];
    const char next = i + 1 < n ? text[i + 1] : '\0';

    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      // Unterminated ordinary string/char at EOL: bail back to code (the
      // compiler would reject it anyway; keep the scanner line-stable).
      if (state == State::kString || state == State::kChar) {
        out.strings.push_back({string_start_line, current_string});
        current_string.clear();
        state = State::kCode;
      }
      end_line();
      continue;
    }

    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code_line += "  ";  // keep columns stable
          ++i;
        } else if (c == '"') {
          // Raw string? Look back for R (optionally u8R / uR / UR / LR).
          if (prev_sig == 'R' && !code_line.empty() &&
              code_line.back() == 'R' &&
              (code_line.size() < 2 ||
               !is_ident_char(code_line[code_line.size() - 2]) ||
               code_line[code_line.size() - 2] == '8' ||
               code_line[code_line.size() - 2] == 'u' ||
               code_line[code_line.size() - 2] == 'U' ||
               code_line[code_line.size() - 2] == 'L')) {
            std::string delim;
            std::size_t j = i + 1;
            while (j < n && text[j] != '(' && text[j] != '\n') {
              delim += text[j];
              ++j;
            }
            state = State::kRawString;
            raw_delim = ")" + delim + "\"";
            string_start_line = line;
            current_string.clear();
            code_line += '"';
            i = j;  // consume up to and including '('
          } else {
            state = State::kString;
            string_start_line = line;
            current_string.clear();
            code_line += '"';
          }
          prev_sig = '"';
        } else if (c == '\'' && !is_ident_char(prev_sig)) {
          state = State::kChar;
          string_start_line = line;
          current_string.clear();
          code_line += '\'';
          prev_sig = '\'';
        } else {
          code_line += c;
          if (!std::isspace(static_cast<unsigned char>(c))) prev_sig = c;
        }
        break;

      case State::kLineComment:
        comment_line += c;
        break;

      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code_line += "  ";
          ++i;
        } else {
          comment_line += c;
          code_line += ' ';
        }
        break;

      case State::kString:
        if (c == '\\') {
          current_string += c;
          if (next != '\0' && next != '\n') {
            current_string += next;
            code_line += "  ";
            ++i;
          } else {
            code_line += ' ';
          }
        } else if (c == '"') {
          out.strings.push_back({string_start_line, current_string});
          current_string.clear();
          state = State::kCode;
          code_line += '"';
        } else {
          current_string += c;
          code_line += ' ';
        }
        break;

      case State::kChar:
        if (c == '\\') {
          if (next != '\0' && next != '\n') {
            code_line += "  ";
            ++i;
          } else {
            code_line += ' ';
          }
        } else if (c == '\'') {
          state = State::kCode;
          code_line += '\'';
        } else {
          code_line += ' ';
        }
        break;

      case State::kRawString:
        if (c == ')' && text.compare(i, raw_delim.size(), raw_delim) == 0) {
          out.strings.push_back({string_start_line, current_string});
          current_string.clear();
          state = State::kCode;
          code_line += '"';
          i += raw_delim.size() - 1;
        } else {
          current_string += c;
          code_line += ' ';
        }
        break;
    }
  }
  if (state == State::kString || state == State::kChar ||
      state == State::kRawString) {
    out.strings.push_back({string_start_line, current_string});
  }
  end_line();

  // A standalone allow comment (no code on its line) also covers the next
  // line, so suppressions can sit above the statement they justify.
  std::map<int, std::set<std::string>> extra;
  for (const auto& [l, rules] : out.allows) {
    const std::size_t idx = static_cast<std::size_t>(l - 1);
    const bool standalone =
        idx < out.code.size() &&
        out.code[idx].find_first_not_of(" \t") == std::string::npos;
    if (standalone) extra[l + 1].insert(rules.begin(), rules.end());
  }
  for (const auto& [l, rules] : extra) {
    out.allows[l].insert(rules.begin(), rules.end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Project model

namespace {

struct Project {
  std::string root;
  std::vector<ScannedFile> src;  ///< src/**.{hpp,cpp}
  std::vector<ScannedFile> aux;  ///< tests/bench/examples (string-level rules)
  bool has_readme = false;
  std::vector<std::string> readme;
  bool has_design = false;
  std::vector<std::string> design;
};

bool read_lines(const fs::path& p, std::vector<std::string>& out) {
  std::ifstream in(p);
  if (!in.good()) return false;
  std::string l;
  while (std::getline(in, l)) out.push_back(l);
  return true;
}

std::string read_text(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool is_source_ext(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

// Directories no rule looks into: fixture trees, build trees, and hidden
// ones (.git, .bench_build).
bool skipped_dir(const std::string& name) {
  return name == "zilint_fixtures" || name.rfind("build", 0) == 0 ||
         (!name.empty() && name[0] == '.');
}

void scan_tree(const fs::path& root, const std::string& subdir,
               std::vector<ScannedFile>& out) {
  const fs::path base = root / subdir;
  if (!fs::is_directory(base)) return;
  std::vector<fs::path> files;
  for (auto it = fs::recursive_directory_iterator(base);
       it != fs::recursive_directory_iterator(); ++it) {
    const std::string name = it->path().filename().string();
    if (it->is_directory() && skipped_dir(name)) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && is_source_ext(it->path())) {
      files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& f : files) {
    const std::string rel =
        fs::relative(f, root).generic_string();  // '/' separators
    out.push_back(scan_source(rel, read_text(f)));
  }
}

const ScannedFile* find_file(const std::vector<ScannedFile>& files,
                             const std::string& path) {
  for (const auto& f : files) {
    if (f.path == path) return &f;
  }
  return nullptr;
}

std::vector<std::string> ident_tokens(const std::string& s) {
  static const std::regex kIdent(R"([A-Za-z_]\w*)");
  std::vector<std::string> out;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), kIdent);
       it != std::sregex_iterator(); ++it) {
    out.push_back(it->str());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule: raw-primitive

// The one file allowed raw primitives: the shim that wraps them. This
// whitelist is part of the tool — extending it is a reviewed change, not a
// suppression.
const std::set<std::string>& raw_primitive_whitelist() {
  static const std::set<std::string> kWhitelist = {
      "src/common/thread_annotations.hpp",
  };
  return kWhitelist;
}

void rule_raw_primitive(const Project& p, std::vector<Finding>& findings) {
  static const std::regex kRaw(
      R"(std::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|)"
      R"(shared_mutex|shared_timed_mutex|condition_variable_any|)"
      R"(condition_variable|lock_guard|unique_lock|scoped_lock|shared_lock)\b)");
  for (const auto& f : p.src) {
    if (raw_primitive_whitelist().count(f.path) != 0) continue;
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      std::smatch m;
      if (std::regex_search(f.code[i], m, kRaw)) {
        findings.push_back(
            {f.path, static_cast<int>(i + 1), "raw-primitive",
             "raw std::" + m[1].str() +
                 " outside the whitelisted shim layer; use the annotated "
                 "zi:: shims (common/thread_annotations.hpp)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: mutex-annotation

/// All identifiers appearing inside thread-safety annotation macro args.
std::set<std::string> annotation_args(const ScannedFile& f) {
  static const std::regex kAnnot(
      R"(ZI_(GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|TRY_ACQUIRE|)"
      R"(EXCLUDES|ACQUIRED_BEFORE|ACQUIRED_AFTER|RETURN_CAPABILITY)\s*\(([^()]*)\))");
  std::set<std::string> out;
  for (const auto& line : f.code) {
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kAnnot);
         it != std::sregex_iterator(); ++it) {
      for (const auto& id : ident_tokens((*it)[2].str())) out.insert(id);
    }
  }
  return out;
}

void rule_mutex_annotation(const Project& p, std::vector<Finding>& findings) {
  // Pair hpp/cpp of the same unit: a mutex declared in the header is fine
  // if the annotations naming it live in either file.
  std::map<std::string, std::set<std::string>> args_by_unit;
  auto unit_key = [](const std::string& path) {
    const auto dot = path.rfind('.');
    return dot == std::string::npos ? path : path.substr(0, dot);
  };
  for (const auto& f : p.src) {
    const auto args = annotation_args(f);
    args_by_unit[unit_key(f.path)].insert(args.begin(), args.end());
  }

  static const std::regex kDecl(
      R"((?:^|[;{}\s])(?:mutable\s+)?(?:zi::)?Mutex\s+([A-Za-z_]\w*)\s*[{;=])");
  for (const auto& f : p.src) {
    // The shim defines the Mutex class itself.
    if (f.path == "src/common/thread_annotations.hpp") continue;
    const auto& unit_args = args_by_unit[unit_key(f.path)];
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      for (auto it =
               std::sregex_iterator(f.code[i].begin(), f.code[i].end(), kDecl);
           it != std::sregex_iterator(); ++it) {
        const std::string name = (*it)[1].str();
        if (unit_args.count(name) != 0) continue;
        findings.push_back(
            {f.path, static_cast<int>(i + 1), "mutex-annotation",
             "mutex '" + name +
                 "' is never named by a ZI_GUARDED_BY / ZI_REQUIRES / "
                 "ZI_EXCLUDES / ... annotation in this translation unit — "
                 "-Wthread-safety silently ignores it"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: fault-site-sync

constexpr const char* kInjectorCpp = "src/testing/fault_injector.cpp";
constexpr const char* kInjectorHpp = "src/testing/fault_injector.hpp";

void rule_fault_site_sync(const Project& p, std::vector<Finding>& findings) {
  const ScannedFile* cpp = find_file(p.src, kInjectorCpp);
  const ScannedFile* hpp = find_file(p.src, kInjectorHpp);
  if (cpp == nullptr || hpp == nullptr) return;  // fixture tree: rule off

  // Registered names: the string literals inside the kSiteNames initializer.
  int names_line = -1;
  int init_first = -1, init_last = -1;
  for (std::size_t i = 0; i < cpp->code.size(); ++i) {
    if (cpp->code[i].find("kSiteNames") != std::string::npos &&
        cpp->code[i].find('=') != std::string::npos) {
      names_line = static_cast<int>(i + 1);
      int depth = 0;
      bool open_seen = false;
      for (std::size_t j = i; j < cpp->code.size() && init_last < 0; ++j) {
        for (char c : cpp->code[j]) {
          if (c == '{') {
            if (!open_seen) {
              open_seen = true;
              init_first = static_cast<int>(j + 1);
            }
            ++depth;
          } else if (c == '}') {
            --depth;
            if (open_seen && depth == 0) {
              init_last = static_cast<int>(j + 1);
              break;
            }
          }
        }
      }
      break;
    }
  }
  if (names_line < 0 || init_last < 0) {
    findings.push_back({cpp->path, 1, "fault-site-sync",
                        "could not locate the kSiteNames registry"});
    return;
  }
  std::vector<std::string> registered;
  for (const auto& s : cpp->strings) {
    if (s.line >= init_first && s.line <= init_last) {
      registered.push_back(s.text);
    }
  }
  const std::set<std::string> registered_set(registered.begin(),
                                             registered.end());

  // Enum entries + the kNumFaultSites literal from the header.
  std::string hpp_flat;
  for (const auto& l : hpp->code) hpp_flat += l + '\n';
  std::vector<std::string> enum_entries;
  std::smatch m;
  static const std::regex kEnum(
      R"(enum\s+class\s+FaultSite\s*(?::[^{]*)?\{([^}]*)\})");
  if (std::regex_search(hpp_flat, m, kEnum)) {
    static const std::regex kEntry(R"(k[A-Za-z0-9]\w*)");
    const std::string body = m[1].str();
    for (auto it = std::sregex_iterator(body.begin(), body.end(), kEntry);
         it != std::sregex_iterator(); ++it) {
      enum_entries.push_back(it->str());
    }
  }
  static const std::regex kCount(R"(kNumFaultSites\s*=\s*(\d+))");
  int declared_count = -1;
  if (std::regex_search(hpp_flat, m, kCount)) {
    declared_count = std::stoi(m[1].str());
  }

  if (enum_entries.empty()) {
    findings.push_back({hpp->path, 1, "fault-site-sync",
                        "could not locate the FaultSite enum"});
    return;
  }
  if (registered.size() != enum_entries.size() ||
      declared_count != static_cast<int>(registered.size())) {
    findings.push_back(
        {cpp->path, names_line, "fault-site-sync",
         "registry out of sync: " + std::to_string(registered.size()) +
             " registered names, " + std::to_string(enum_entries.size()) +
             " FaultSite enum entries, kNumFaultSites = " +
             std::to_string(declared_count)});
  }

  // Every enum entry must be wired to a call site somewhere outside the
  // registry files (a site nobody can trigger is dead vocabulary).
  for (const auto& entry : enum_entries) {
    const std::string needle = "FaultSite::" + entry;
    bool used = false;
    for (const auto& f : p.src) {
      if (f.path == kInjectorCpp || f.path == kInjectorHpp) continue;
      for (const auto& line : f.code) {
        if (line.find(needle) != std::string::npos) {
          used = true;
          break;
        }
      }
      if (used) break;
    }
    if (!used) {
      findings.push_back({hpp->path, 1, "fault-site-sync",
                          "FaultSite::" + entry +
                              " has no call site in src/ outside the "
                              "registry — dead injection site"});
    }
  }

  // Spec strings at call sites: every "<site>:<kind>" clause inside a string
  // literal must name a registered site.
  static const std::regex kClause(R"(([a-z][a-z0-9_]*):(error|short|delay)\b)");
  auto check_specs = [&](const std::vector<ScannedFile>& files) {
    for (const auto& f : files) {
      for (const auto& s : f.strings) {
        for (auto it = std::sregex_iterator(s.text.begin(), s.text.end(),
                                            kClause);
             it != std::sregex_iterator(); ++it) {
          const std::string site = (*it)[1].str();
          if (registered_set.count(site) != 0) continue;
          std::string known;
          for (const auto& r : registered) known += " " + r;
          findings.push_back({f.path, s.line, "fault-site-sync",
                              "unknown fault site '" + site +
                                  "' in ZI_FAULTS spec (registered:" + known +
                                  ")"});
        }
      }
    }
  };
  check_specs(p.src);
  check_specs(p.aux);

  // Every registered site must be documented in the README's ZI_FAULTS
  // section (plain token search — the docs list sites by name).
  if (p.has_readme) {
    for (const auto& site : registered) {
      bool documented = false;
      for (const auto& line : p.readme) {
        if (line.find(site) != std::string::npos) {
          documented = true;
          break;
        }
      }
      if (!documented) {
        findings.push_back({"README.md", 1, "fault-site-sync",
                            "registered fault site '" + site +
                                "' is not documented in README.md"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: handle-discipline

void rule_handle_discipline(const Project& p, std::vector<Finding>& findings) {
  static const std::regex kIssue(
      R"(\b(fetch_nvme|spill_nvme|stage|try_acquire_for|try_acquire|)"
      R"(submit_read|submit_write|read_async|write_async|)"
      R"(read_abs_async|write_abs_async)\s*\()");
  static const std::regex kChain(
      R"(^(\s*[A-Za-z_]\w*\s*(\.|->|::)\s*)*$)");
  for (const auto& f : p.src) {
    // Flatten with line map so calls and their parens can span lines.
    std::string flat;
    std::vector<int> line_of;  // offset -> 1-based line
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      for (char c : f.code[i]) {
        flat += c;
        line_of.push_back(static_cast<int>(i + 1));
      }
      flat += '\n';
      line_of.push_back(static_cast<int>(i + 1));
    }

    for (auto it = std::sregex_iterator(flat.begin(), flat.end(), kIssue);
         it != std::sregex_iterator(); ++it) {
      const std::size_t name_pos = static_cast<std::size_t>(it->position(0));
      const std::size_t open =
          name_pos + static_cast<std::size_t>(it->length(0)) - 1;

      // Forward: find the matching ')' and require the statement to end
      // right there — a chained `.wait()` or any larger expression binds.
      int depth = 0;
      std::size_t close = std::string::npos;
      for (std::size_t j = open; j < flat.size(); ++j) {
        if (flat[j] == '(') ++depth;
        if (flat[j] == ')' && --depth == 0) {
          close = j;
          break;
        }
      }
      if (close == std::string::npos) continue;
      std::size_t after = close + 1;
      while (after < flat.size() &&
             std::isspace(static_cast<unsigned char>(flat[after])) != 0) {
        ++after;
      }
      if (after >= flat.size() || flat[after] != ';') continue;

      // Backward: the text between the statement boundary and the call must
      // be a pure object chain (`obj.`, `a->b.`, `Type::`) or empty — any
      // `return`, `=`, declaration type, cast, or operator means the result
      // is bound or the match is a declaration.
      std::size_t stmt = name_pos;
      while (stmt > 0) {
        const char c = flat[stmt - 1];
        if (c == ';' || c == '{' || c == '}') break;
        --stmt;
      }
      const std::string prefix = flat.substr(stmt, name_pos - stmt);
      if (prefix.find('\n') != std::string::npos &&
          prefix.find_first_not_of(" \t\n") == std::string::npos) {
        // fallthrough: pure whitespace is an empty chain
      }
      std::string squashed;
      for (char c : prefix) squashed += (c == '\n' ? ' ' : c);
      if (!std::regex_match(squashed, kChain)) continue;
      // Adjacent identifiers separated by whitespace (a declaration like
      // `TransferHandle fetch_nvme(...)`) are not chains; kChain requires
      // every identifier to be followed by a connector, so they already
      // failed the match above.

      findings.push_back(
          {f.path, line_of[name_pos], "handle-discipline",
           "result of " + (*it)[1].str() +
               "() is discarded — bind the TransferHandle / StagingLease / "
               "AioStatus (or wait on it) so completion and errors are "
               "observed"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: doc-drift

struct DocTable {
  bool found = false;
  int begin_line = -1;
  std::map<std::string, int> entries;  // name -> 1-based doc line
};

DocTable parse_marker_table(const std::vector<std::string>& doc,
                            const std::string& marker,
                            const std::regex& entry_re) {
  DocTable out;
  const std::string begin = "<!-- zilint:" + marker + ":begin -->";
  const std::string end = "<!-- zilint:" + marker + ":end -->";
  bool inside = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    if (doc[i].find(begin) != std::string::npos) {
      out.found = true;
      out.begin_line = static_cast<int>(i + 1);
      inside = true;
      continue;
    }
    if (doc[i].find(end) != std::string::npos) inside = false;
    if (!inside) continue;
    std::smatch m;
    if (std::regex_search(doc[i], m, entry_re)) {
      out.entries.emplace(m[1].str(), static_cast<int>(i + 1));
    }
  }
  return out;
}

void rule_doc_drift(const Project& p, std::vector<Finding>& findings) {
  // --- ZI_* environment variables ----------------------------------------
  // Uses: getenv("ZI_*") in src/, bench/, examples/ (tests may set whatever
  // they like). The README env table is the single documented contract.
  struct EnvUse {
    std::string file;
    int line;
  };
  std::map<std::string, EnvUse> env_uses;
  auto collect_env = [&](const std::vector<ScannedFile>& files,
                         const std::string& only_under) {
    static const std::regex kEnvName(R"(^ZI_[A-Z0-9_]+$)");
    for (const auto& f : files) {
      if (f.path.rfind(only_under, 0) != 0) continue;
      for (const auto& s : f.strings) {
        if (!std::regex_match(s.text, kEnvName)) continue;
        const std::size_t idx = static_cast<std::size_t>(s.line - 1);
        if (idx >= f.code.size()) continue;
        if (f.code[idx].find("getenv") == std::string::npos) continue;
        env_uses.emplace(s.text, EnvUse{f.path, s.line});
      }
    }
  };
  collect_env(p.src, "src/");
  collect_env(p.aux, "bench/");
  collect_env(p.aux, "examples/");

  if (p.has_readme) {
    static const std::regex kEnvRow(R"(^\|\s*`?(ZI_[A-Z0-9_]+))");
    const DocTable table = parse_marker_table(p.readme, "env-table", kEnvRow);
    if (!table.found && !env_uses.empty()) {
      findings.push_back(
          {"README.md", 1, "doc-drift",
           "missing `<!-- zilint:env-table:begin/end -->` markers — the ZI_* "
           "env-var table is the documented contract for " +
               std::to_string(env_uses.size()) + " getenv() reads"});
    } else if (table.found) {
      for (const auto& [var, use] : env_uses) {
        if (table.entries.count(var) != 0) continue;
        findings.push_back({use.file, use.line, "doc-drift",
                            "env var " + var +
                                " is read here but has no row in README.md's "
                                "env-var table"});
      }
      for (const auto& [var, doc_line] : table.entries) {
        if (env_uses.count(var) != 0) continue;
        findings.push_back({"README.md", doc_line, "doc-drift",
                            "env var " + var +
                                " is documented but never read via getenv() "
                                "in src/, bench/, or examples/"});
      }
    }
  }

  // --- StepReport JSONL fields -------------------------------------------
  const ScannedFile* metrics = find_file(p.src, "src/obs/metrics.cpp");
  if (metrics != nullptr && p.has_design) {
    static const std::regex kField(R"(^[a-z][a-z0-9_]*$)");
    std::map<std::string, int> emitted;  // field -> line
    for (const auto& s : metrics->strings) {
      const std::size_t idx = static_cast<std::size_t>(s.line - 1);
      if (idx >= metrics->code.size()) continue;
      if (metrics->code[idx].find("append_kv") == std::string::npos) continue;
      if (!std::regex_match(s.text, kField)) continue;
      emitted.emplace(s.text, s.line);
    }
    static const std::regex kFieldRow(R"(^\|\s*`?([a-z][a-z0-9_]*)`?\s*\|)");
    const DocTable table =
        parse_marker_table(p.design, "stepreport-table", kFieldRow);
    if (!table.found && !emitted.empty()) {
      findings.push_back(
          {"DESIGN.md", 1, "doc-drift",
           "missing `<!-- zilint:stepreport-table:begin/end -->` markers — "
           "the StepReport field table is the documented contract for " +
               std::to_string(emitted.size()) + " JSONL fields"});
    } else if (table.found) {
      for (const auto& [field, line] : emitted) {
        if (table.entries.count(field) != 0) continue;
        findings.push_back({metrics->path, line, "doc-drift",
                            "StepReport field '" + field +
                                "' is emitted here but has no row in "
                                "DESIGN.md's StepReport table"});
      }
      for (const auto& [field, doc_line] : table.entries) {
        if (emitted.count(field) != 0) continue;
        findings.push_back({"DESIGN.md", doc_line, "doc-drift",
                            "StepReport field '" + field +
                                "' is documented but never emitted by "
                                "src/obs/metrics.cpp"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: isa-confinement

// The kernel files that own a vector tier (common/kernel_tier.hpp). Only
// they may name an ISA; everything else builds for the x86-64 baseline, so
// one CPU-feature check decides what runs. Like the raw-primitive
// whitelist, extending this list is a reviewed change to the tool.
const std::set<std::string>& isa_tier_files() {
  static const std::set<std::string> kFiles = {
      "src/common/half.cpp",
      "src/tensor/ops.cpp",
      "src/optim/adam.cpp",
  };
  return kFiles;
}

void rule_isa_confinement(const Project& p, std::vector<Finding>& findings) {
  struct Pattern {
    std::regex re;
    const char* what;
  };
  // In the order tried; a line reports its first match. String contents
  // are blanked in the scanned code, so target("...") keeps its quotes.
  static const Pattern kPatterns[] = {
      {std::regex(R"(#\s*pragma\s+GCC\s+target\b)"), "#pragma GCC target"},
      {std::regex(R"(\btarget(_clones)?\s*\(\s*")"), "target attribute"},
      {std::regex(R"(#\s*include\s*<\w*intrin\.h>)"), "intrinsics header"},
      {std::regex(R"(\b(_mm\d*_\w+|_MM_\w+|__m(64|128|256|512)\w*)\b)"),
       "SIMD intrinsic"},
  };
  for (const auto* files : {&p.src, &p.aux}) {
    for (const auto& f : *files) {
      if (isa_tier_files().count(f.path) != 0) continue;
      for (std::size_t i = 0; i < f.code.size(); ++i) {
        for (const Pattern& pat : kPatterns) {
          if (std::regex_search(f.code[i], pat.re)) {
            findings.push_back(
                {f.path, static_cast<int>(i + 1), "isa-confinement",
                 std::string(pat.what) +
                     " outside the kernel files that own a vector tier "
                     "(src/common/half.cpp, src/tensor/ops.cpp, "
                     "src/optim/adam.cpp); see common/kernel_tier.hpp"});
            break;  // one finding per line
          }
        }
      }
    }
  }

  // -m<isa> in any CMakeLists.txt: one flag would move every target off the
  // baseline, runtime dispatch and all. Text after '#' is a comment.
  static const std::regex kIsaFlag(
      R"((^|[\s"'(;])-m(arch=\S+|avx\w*|sse\w*|ssse3|f16c|fma\w*|bmi\w*|)"
      R"(popcnt|lzcnt|movbe|aes|pclmul|sha|vaes|gfni|amx\w*|native)\b)");
  const fs::path root(p.root);
  if (!fs::is_directory(root)) return;
  std::vector<fs::path> lists;
  for (auto it = fs::recursive_directory_iterator(root);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() && skipped_dir(it->path().filename().string())) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && it->path().filename() == "CMakeLists.txt") {
      lists.push_back(it->path());
    }
  }
  std::sort(lists.begin(), lists.end());
  for (const auto& list : lists) {
    std::vector<std::string> lines;
    read_lines(list, lines);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string code = lines[i].substr(0, lines[i].find('#'));
      std::smatch m;
      if (std::regex_search(code, m, kIsaFlag)) {
        findings.push_back(
            {fs::relative(list, root).generic_string(),
             static_cast<int>(i + 1), "isa-confinement",
             "ISA flag -m" + m[2].str() +
                 " in a CMakeLists.txt; the build targets the x86-64 "
                 "baseline and the kernels pick their tier at run time"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: affinity-confinement

// ThreadPool places its workers on the CPUs they inherit
// (common/thread_pool.hpp). A second caller pinning threads under src/
// would silently undo that placement, so only the pool may set or read a
// CPU mask; benches and tests, which arrange the masks the pool inherits,
// are outside the rule.
void rule_affinity_confinement(const Project& p,
                               std::vector<Finding>& findings) {
  static const std::regex kAffinity(
      R"(\b(pthread_(attr_)?(set|get)affinity_np|sched_(set|get)affinity)\b)");
  for (const auto& f : p.src) {
    if (f.path == "src/common/thread_pool.cpp") continue;
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      std::smatch m;
      if (std::regex_search(f.code[i], m, kAffinity)) {
        findings.push_back(
            {f.path, static_cast<int>(i + 1), "affinity-confinement",
             m[1].str() +
                 " outside src/common/thread_pool.cpp, which alone places "
                 "threads on CPUs"});
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver

std::vector<Finding> run_project(const Options& options) {
  Project p;
  p.root = options.root;
  const fs::path root(options.root);
  scan_tree(root, "src", p.src);
  scan_tree(root, "tests", p.aux);
  scan_tree(root, "bench", p.aux);
  scan_tree(root, "examples", p.aux);
  p.has_readme = read_lines(root / "README.md", p.readme);
  p.has_design = read_lines(root / "DESIGN.md", p.design);

  std::vector<Finding> findings;
  rule_raw_primitive(p, findings);
  rule_mutex_annotation(p, findings);
  rule_fault_site_sync(p, findings);
  rule_handle_discipline(p, findings);
  rule_doc_drift(p, findings);
  rule_isa_confinement(p, findings);
  rule_affinity_confinement(p, findings);

  // zilint:allow with an unknown rule name is itself a finding; a typo'd
  // suppression must never silently stop suppressing.
  for (const auto* files : {&p.src, &p.aux}) {
    for (const auto& f : *files) {
      findings.insert(findings.end(), f.bad_allows.begin(),
                      f.bad_allows.end());
    }
  }

  // Apply suppressions.
  std::map<std::string, const ScannedFile*> by_path;
  for (const auto* files : {&p.src, &p.aux}) {
    for (const auto& f : *files) by_path[f.path] = &f;
  }
  std::vector<Finding> kept;
  for (auto& f : findings) {
    const auto it = by_path.find(f.file);
    if (it != by_path.end()) {
      const auto al = it->second->allows.find(f.line);
      if (al != it->second->allows.end() &&
          al->second.count(f.rule) != 0) {
        continue;
      }
    }
    kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Finding& a, const Finding& b) {
                           return a.file == b.file && a.line == b.line &&
                                  a.rule == b.rule && a.message == b.message;
                         }),
             kept.end());
  return kept;
}

}  // namespace zilint
