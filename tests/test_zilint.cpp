// zilint's own tests: scanner unit tests, one fixture tree per rule
// (violating + clean + suppressed files, committed under
// tests/zilint_fixtures/), and the whole-tree gate asserting the real
// source tree stays at zero findings.

#include "zilint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace {

using zilint::Finding;
using zilint::Options;
using zilint::ScannedFile;

std::vector<Finding> run_fixture(const std::string& name) {
  Options options;
  options.root = std::string(ZILINT_FIXTURE_DIR) + "/" + name;
  return zilint::run_project(options);
}

int count_rule(const std::vector<Finding>& findings, const std::string& rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

bool has_finding(const std::vector<Finding>& findings, const std::string& file,
                 const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == rule && f.file.find(file) != std::string::npos;
  });
}

// ---------------------------------------------------------------------------
// Scanner

TEST(ZilintScanner, StripsCommentsAndBlanksStrings) {
  const ScannedFile f = zilint::scan_source(
      "t.cpp",
      "int a; // std::mutex in a comment\n"
      "const char* s = \"std::mutex in a string\";\n"
      "/* std::mutex\n   in a block */ int b;\n");
  ASSERT_EQ(f.code.size(), 5u);  // trailing end_line adds one empty line
  EXPECT_EQ(f.code[0].find("std::mutex"), std::string::npos);
  EXPECT_EQ(f.code[1].find("std::mutex"), std::string::npos);
  EXPECT_EQ(f.code[2].find("std::mutex"), std::string::npos);
  EXPECT_NE(f.code[3].find("int b;"), std::string::npos);
  ASSERT_EQ(f.strings.size(), 1u);
  EXPECT_EQ(f.strings[0].line, 2);
  EXPECT_EQ(f.strings[0].text, "std::mutex in a string");
}

TEST(ZilintScanner, HandlesEscapesAndRawStrings) {
  const ScannedFile f = zilint::scan_source(
      "t.cpp",
      "const char* a = \"quote \\\" inside\";\n"
      "const char* b = R\"x(raw \"str\" with // no comment)x\";\n"
      "char c = '\\'';\n"
      "int after = 1;\n");
  ASSERT_EQ(f.strings.size(), 2u);
  EXPECT_EQ(f.strings[0].text, "quote \\\" inside");
  EXPECT_EQ(f.strings[1].text, "raw \"str\" with // no comment");
  EXPECT_NE(f.code[3].find("int after"), std::string::npos);
}

TEST(ZilintScanner, DigitSeparatorIsNotACharLiteral) {
  const ScannedFile f =
      zilint::scan_source("t.cpp", "int big = 1'000'000; int next = 2;\n");
  EXPECT_NE(f.code[0].find("int next = 2;"), std::string::npos);
  EXPECT_TRUE(f.strings.empty());
}

TEST(ZilintScanner, ParsesAllowsAndPropagatesStandaloneToNextLine) {
  const ScannedFile f = zilint::scan_source(
      "t.cpp",
      "int a;  // zilint:allow(raw-primitive): same-line\n"
      "// zilint:allow(doc-drift,handle-discipline): standalone\n"
      "int b;\n"
      "int c;\n");
  ASSERT_EQ(f.allows.count(1), 1u);
  EXPECT_EQ(f.allows.at(1).count("raw-primitive"), 1u);
  // Standalone comment covers its own line and the next.
  EXPECT_EQ(f.allows.at(2).count("doc-drift"), 1u);
  EXPECT_EQ(f.allows.at(3).count("doc-drift"), 1u);
  EXPECT_EQ(f.allows.at(3).count("handle-discipline"), 1u);
  EXPECT_EQ(f.allows.count(4), 0u);
  // The same-line allow (line 1 has code) does not leak to line 2.
  EXPECT_EQ(f.allows.at(2).count("raw-primitive"), 0u);
}

TEST(ZilintScanner, UnknownRuleInAllowIsAFinding) {
  const ScannedFile f = zilint::scan_source(
      "t.cpp", "int a;  // zilint:allow(raw-primitve): typo'd rule\n");
  ASSERT_EQ(f.bad_allows.size(), 1u);
  EXPECT_EQ(f.bad_allows[0].rule, "zilint-allow");
  EXPECT_NE(f.bad_allows[0].message.find("raw-primitve"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rules, via committed fixture trees

TEST(ZilintRules, RawPrimitive) {
  const auto findings = run_fixture("raw_primitive");
  EXPECT_EQ(count_rule(findings, "raw-primitive"), 2) << "bad.cpp seeds two";
  EXPECT_TRUE(has_finding(findings, "src/bad.cpp", "raw-primitive"));
  EXPECT_FALSE(has_finding(findings, "src/clean.cpp", "raw-primitive"));
  EXPECT_FALSE(has_finding(findings, "src/suppressed.cpp", "raw-primitive"));
  EXPECT_EQ(findings.size(), 2u) << "no other rule may fire in this tree";
}

TEST(ZilintRules, MutexAnnotation) {
  const auto findings = run_fixture("mutex_annotation");
  EXPECT_EQ(count_rule(findings, "mutex-annotation"), 1);
  EXPECT_TRUE(has_finding(findings, "src/bad.hpp", "mutex-annotation"));
  EXPECT_FALSE(has_finding(findings, "src/clean.hpp", "mutex-annotation"));
  EXPECT_FALSE(has_finding(findings, "src/suppressed.hpp", "mutex-annotation"));
  EXPECT_EQ(findings.size(), 1u);
}

TEST(ZilintRules, FaultSiteSync) {
  const auto findings = run_fixture("fault_site");
  EXPECT_EQ(count_rule(findings, "fault-site-sync"), 1);
  EXPECT_TRUE(has_finding(findings, "src/bad.cpp", "fault-site-sync"));
  EXPECT_FALSE(has_finding(findings, "src/use.cpp", "fault-site-sync"));
  EXPECT_FALSE(has_finding(findings, "src/suppressed.cpp", "fault-site-sync"));
  EXPECT_EQ(findings.size(), 1u);
  // The message names the unknown site and lists the registered ones.
  const auto& f = findings[0];
  EXPECT_NE(f.message.find("gamma"), std::string::npos);
  EXPECT_NE(f.message.find("alpha"), std::string::npos);
}

TEST(ZilintRules, HandleDiscipline) {
  const auto findings = run_fixture("handle_discipline");
  EXPECT_EQ(count_rule(findings, "handle-discipline"), 2)
      << "bad.cpp discards a TransferHandle and a StagingLease";
  EXPECT_TRUE(has_finding(findings, "src/bad.cpp", "handle-discipline"));
  EXPECT_FALSE(has_finding(findings, "src/clean.cpp", "handle-discipline"));
  EXPECT_FALSE(has_finding(findings, "src/suppressed.cpp", "handle-discipline"));
  EXPECT_EQ(findings.size(), 2u);
}

TEST(ZilintRules, DocDrift) {
  const auto findings = run_fixture("doc_drift");
  EXPECT_EQ(count_rule(findings, "doc-drift"), 4);
  // Both directions, both artifacts.
  EXPECT_TRUE(has_finding(findings, "src/env.cpp", "doc-drift"));
  EXPECT_TRUE(has_finding(findings, "README.md", "doc-drift"));
  EXPECT_TRUE(has_finding(findings, "src/obs/metrics.cpp", "doc-drift"));
  EXPECT_TRUE(has_finding(findings, "DESIGN.md", "doc-drift"));
  // The suppressed read stays quiet.
  for (const auto& f : findings) {
    EXPECT_EQ(f.message.find("ZI_SUPPRESSED"), std::string::npos)
        << zilint::format_finding(f);
  }
  EXPECT_EQ(findings.size(), 4u);
}

TEST(ZilintRules, IsaConfinement) {
  const auto findings = run_fixture("isa_confinement");
  EXPECT_EQ(count_rule(findings, "isa-confinement"), 5)
      << "bad.cpp seeds four, CMakeLists.txt one";
  EXPECT_TRUE(has_finding(findings, "src/bad.cpp", "isa-confinement"));
  EXPECT_TRUE(has_finding(findings, "CMakeLists.txt", "isa-confinement"));
  EXPECT_FALSE(has_finding(findings, "src/clean.cpp", "isa-confinement"));
  EXPECT_FALSE(has_finding(findings, "src/suppressed.cpp", "isa-confinement"));
  EXPECT_FALSE(has_finding(findings, "src/tensor/ops.cpp", "isa-confinement"))
      << "a kernel file that owns a vector tier may name its ISA";
  EXPECT_EQ(findings.size(), 5u) << "no other rule may fire in this tree";
}

TEST(ZilintRules, AffinityConfinement) {
  const auto findings = run_fixture("affinity_confinement");
  EXPECT_EQ(count_rule(findings, "affinity-confinement"), 2)
      << "bad.cpp seeds two";
  EXPECT_TRUE(has_finding(findings, "src/bad.cpp", "affinity-confinement"));
  EXPECT_FALSE(has_finding(findings, "src/common/thread_pool.cpp",
                           "affinity-confinement"))
      << "the thread pool alone places threads on CPUs";
  EXPECT_FALSE(has_finding(findings, "src/clean.cpp", "affinity-confinement"));
  EXPECT_FALSE(
      has_finding(findings, "src/suppressed.cpp", "affinity-confinement"));
  EXPECT_FALSE(
      has_finding(findings, "tests/test_pinning.cpp", "affinity-confinement"))
      << "tests arrange the masks a pool inherits";
  EXPECT_EQ(findings.size(), 2u) << "no other rule may fire in this tree";
}

// ---------------------------------------------------------------------------
// Output formats

TEST(ZilintOutput, FormatAndJson) {
  const Finding f{"src/x.cpp", 12, "doc-drift", "message \"with\" quotes"};
  EXPECT_EQ(zilint::format_finding(f),
            "src/x.cpp:12: doc-drift: message \"with\" quotes");
  const std::string json = zilint::findings_to_json({f});
  EXPECT_NE(json.find("\"file\":\"src/x.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":12"), std::string::npos);
  EXPECT_NE(json.find("\\\"with\\\""), std::string::npos);
  EXPECT_EQ(zilint::findings_to_json({}), "[\n]");
}

TEST(ZilintOutput, EveryRuleHasADescription) {
  for (const auto& name : zilint::rule_names()) {
    ASSERT_EQ(zilint::rule_descriptions().count(name), 1u) << name;
  }
}

// ---------------------------------------------------------------------------
// The gate: the real tree stays clean.

TEST(ZilintTree, RealSourceTreeIsClean) {
  Options options;
  options.root = ZILINT_SOURCE_ROOT;
  const auto findings = zilint::run_project(options);
  std::string rendered;
  for (const auto& f : findings) rendered += zilint::format_finding(f) + "\n";
  EXPECT_TRUE(findings.empty()) << rendered;
}

}  // namespace
