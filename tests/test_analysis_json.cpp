//===- tests/test_analysis_json.cpp - Diagnostics JSON schema -------------------===//
//
// Schema-style tests for the --analysis-json output surface
// (DiagnosticEngine::renderJson): the machine-readable contract is the
// required top-level keys, a closed severity enum, and the stable
// diagnostic code registry of docs/ANALYSIS.md -- every code the passes
// can emit (KF-P, KF-F, KF-B, KF-V) stays in the registry, and every
// diagnostic a battery of bad fixtures produces carries a registered
// code. Downstream consumers key on these strings; renaming one is a
// breaking change this test is meant to catch.
//
//===----------------------------------------------------------------------===//

#include "analysis/ProgramLint.h"
#include "frontend/Parser.h"
#include "fusion/MinCutPartitioner.h"
#include "pipelines/Pipelines.h"
#include "sim/Session.h"
#include "transform/Fuser.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

using namespace kf;

namespace {

/// The stable code registry (docs/ANALYSIS.md). Append-only: removing or
/// renaming an entry breaks JSON consumers. The one exception is a code
/// whose check can no longer fire: it retires, and its number is never
/// reused (KF-B06, a StageCall in a plain kernel program, retired with
/// that program form).
const std::set<std::string> &knownCodes() {
  static const std::set<std::string> Codes = {
      // Driver-level parse failure.
      "KF-P00",
      // Program/IR lint.
      "KF-P01", "KF-P02", "KF-P03", "KF-P04", "KF-P05", "KF-P06", "KF-P07",
      "KF-P08", "KF-P09", "KF-P10", "KF-P11", "KF-P12",
      // Footprint / halo checks.
      "KF-F01", "KF-F02", "KF-F03", "KF-F04", "KF-F05", "KF-F06",
      // Bytecode validation.
      "KF-B01", "KF-B02", "KF-B03", "KF-B04", "KF-B05", "KF-B07", "KF-B08",
      "KF-B09", "KF-B10", "KF-B11",
      // Interval abstract interpretation.
      "KF-V01", "KF-V02", "KF-V03", "KF-V04", "KF-V05", "KF-V06",
  };
  return Codes;
}

const std::set<std::string> &severityEnum() {
  static const std::set<std::string> Severities = {"note", "warning",
                                                   "error"};
  return Severities;
}

/// The source tree's analysis fixtures.
const std::string FixtureDir = KF_SOURCE_DIR "/tests/fixtures/analysis/";

/// Extracts every value of a `"key": "value"` string field from
/// rendered JSON.
std::vector<std::string> stringField(const std::string &Json,
                                     const std::string &Key) {
  std::vector<std::string> Values;
  const std::string Needle = "\"" + Key + "\": \"";
  size_t Pos = 0;
  while ((Pos = Json.find(Needle, Pos)) != std::string::npos) {
    Pos += Needle.size();
    size_t End = Json.find('"', Pos);
    if (End == std::string::npos)
      break;
    Values.push_back(Json.substr(Pos, End - Pos));
    Pos = End;
  }
  return Values;
}

/// Runs the full analysis stack of `kfc --analyze` over one leniently
/// parsed fixture: lint, and -- when the program is structurally sound
/// enough to fuse -- the launch checker (checkLaunches: per-launch
/// bytecode validation, footprint checks, and interval interpretation).
DiagnosticEngine analyzeFixture(const std::string &File) {
  DiagnosticEngine DE;
  ParseResult Parsed = parsePipelineFile(FixtureDir + File, /*Verify=*/false);
  if (!Parsed.Prog) {
    for (const std::string &Error : Parsed.Errors)
      DE.error("KF-P00", Error);
    return DE;
  }
  lintProgram(*Parsed.Prog, DE);
  if (DE.errorCount() != 0)
    return DE;
  HardwareModel HW;
  HW.SharedMemThreshold = 2.0;
  MinCutFusionResult Result = runMinCutFusion(*Parsed.Prog, HW);
  FusedProgram FP =
      fuseProgram(*Parsed.Prog, Result.Blocks, FusionStyle::Optimized);
  checkLaunches(FP, DE);
  return DE;
}

const std::vector<std::string> &batteryFixtures() {
  static const std::vector<std::string> Fixtures = {
      "cyclic.kfp",          "undefined_image.kfp", "even_mask.kfp",
      "unused_output.kfp",   "border_conflict.kfp", "shape_mismatch.kfp",
      "div_by_zero.kfp",     "sqrt_domain.kfp",     "pow_domain.kfp",
      "guaranteed_nan.kfp",  "decided_select.kfp",  "noop_clamp.kfp",
  };
  return Fixtures;
}

TEST(AnalysisJson, RequiredTopLevelKeys) {
  DiagnosticEngine DE = analyzeFixture("div_by_zero.kfp");
  std::string Json = DE.renderJson();
  for (const char *Key : {"\"diagnostics\"", "\"errors\":", "\"warnings\":"})
    EXPECT_NE(Json.find(Key), std::string::npos) << Json;
}

TEST(AnalysisJson, EveryDiagnosticCarriesTheRequiredFields) {
  for (const std::string &File : batteryFixtures()) {
    SCOPED_TRACE(File);
    DiagnosticEngine DE = analyzeFixture(File);
    EXPECT_FALSE(DE.empty()) << "fixture produced no diagnostics";
    std::string Json = DE.renderJson();
    std::vector<std::string> Codes = stringField(Json, "code");
    std::vector<std::string> Severities = stringField(Json, "severity");
    std::vector<std::string> Messages = stringField(Json, "message");
    EXPECT_EQ(Codes.size(), DE.diagnostics().size()) << Json;
    EXPECT_EQ(Severities.size(), DE.diagnostics().size()) << Json;
    EXPECT_EQ(Messages.size(), DE.diagnostics().size()) << Json;
    for (const std::string &Message : Messages)
      EXPECT_FALSE(Message.empty());
  }
}

TEST(AnalysisJson, SeverityIsAClosedEnum) {
  for (const std::string &File : batteryFixtures()) {
    DiagnosticEngine DE = analyzeFixture(File);
    for (const std::string &Severity :
         stringField(DE.renderJson(), "severity"))
      EXPECT_TRUE(severityEnum().count(Severity))
          << File << ": unknown severity '" << Severity << "'";
  }
}

TEST(AnalysisJson, EveryEmittedCodeIsRegistered) {
  for (const std::string &File : batteryFixtures()) {
    DiagnosticEngine DE = analyzeFixture(File);
    for (const Diagnostic &D : DE.diagnostics())
      EXPECT_TRUE(knownCodes().count(D.Code))
          << File << ": unregistered diagnostic code '" << D.Code << "'";
  }
}

TEST(AnalysisJson, CodeRegistryTableMatchesTheKnownCodeList) {
  // Diagnostics.h's DiagCodeRegistry (which tools/check_doc_links.py
  // parses to keep the docs honest) and this file's knownCodes() list
  // must agree exactly, in both directions.
  EXPECT_EQ(std::size(DiagCodeRegistry), knownCodes().size());
  for (const DiagCodeInfo &Info : DiagCodeRegistry)
    EXPECT_TRUE(knownCodes().count(Info.Code))
        << "registry code '" << Info.Code << "' missing from knownCodes()";
  for (const std::string &Code : knownCodes()) {
    const DiagCodeInfo *Info = lookupDiagCode(Code);
    ASSERT_NE(Info, nullptr) << "known code '" << Code
                             << "' missing from DiagCodeRegistry";
    EXPECT_TRUE(severityEnum().count(diagSeverityName(Info->Severity)));
  }
  EXPECT_EQ(lookupDiagCode("KF-X99"), nullptr);
}

TEST(AnalysisJson, EmittedSeveritiesMatchTheRegistry) {
  // Every diagnostic a fixture produces must carry the severity the
  // registry table declares for its code.
  for (const std::string &File : batteryFixtures()) {
    DiagnosticEngine DE = analyzeFixture(File);
    for (const Diagnostic &D : DE.diagnostics()) {
      const DiagCodeInfo *Info = lookupDiagCode(D.Code);
      ASSERT_NE(Info, nullptr) << File << ": " << D.Code;
      EXPECT_EQ(Info->Severity, D.Severity)
          << File << ": code " << D.Code << " emitted as "
          << diagSeverityName(D.Severity) << " but registered as "
          << diagSeverityName(Info->Severity);
    }
  }
}

TEST(AnalysisJson, EveryIntervalCodeHasAFixtureWitness) {
  // Each KF-V code must be demonstrable on at least one shipped fixture
  // (the text/JSON surface of kfc --analyze is pinned by ctest entries on
  // the same files).
  const std::pair<const char *, const char *> Witnesses[] = {
      {"KF-V01", "div_by_zero.kfp"},   {"KF-V02", "sqrt_domain.kfp"},
      {"KF-V03", "pow_domain.kfp"},    {"KF-V04", "guaranteed_nan.kfp"},
      {"KF-V05", "decided_select.kfp"}, {"KF-V06", "noop_clamp.kfp"},
  };
  for (const auto &[Code, File] : Witnesses) {
    DiagnosticEngine DE = analyzeFixture(File);
    EXPECT_TRUE(DE.hasCode(Code))
        << File << " must witness " << Code << ":\n"
        << DE.renderText();
    std::string Json = DE.renderJson();
    EXPECT_NE(Json.find(std::string("\"code\": \"") + Code + "\""),
              std::string::npos)
        << Json;
  }
}

TEST(AnalysisJson, ShippedExamplesAreIntervalClean) {
  // The registry builders mirror examples/pipelines/*.kfp; none may
  // trigger interval warnings at paper shapes.
  for (const PipelineSpec &Spec : paperPipelines()) {
    Program P = Spec.build();
    HardwareModel HW;
    HW.SharedMemThreshold = 2.0;
    MinCutFusionResult Result = runMinCutFusion(P, HW);
    FusedProgram FP = fuseProgram(P, Result.Blocks, FusionStyle::Optimized);
    DiagnosticEngine DE;
    checkLaunches(FP, DE);
    EXPECT_EQ(DE.errorCount(), 0u) << Spec.Name << ":\n" << DE.renderText();
    EXPECT_EQ(DE.warningCount(), 0u) << Spec.Name << ":\n" << DE.renderText();
  }
}

} // namespace
