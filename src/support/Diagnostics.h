//===- support/Diagnostics.h - Static-analysis diagnostics ------*- C++ -*-===//
///
/// \file
/// The diagnostics engine shared by the program verifier (ir/Verifier.h)
/// and the static-analysis passes (ProgramLint, FootprintCheck,
/// BytecodeValidator, IntervalAnalysis): structured
/// diagnostics with a stable code, a severity, a location inside the
/// program or compiled artifact, and an optional fix hint. Unlike
/// support/Error.h (which aborts on programmer errors), diagnostics are
/// *collected* so a driver can render all of them -- as human-readable
/// text or as machine-readable JSON -- and decide the exit status itself
/// (`kfc --analyze [--Werror]`).
///
/// Diagnostic codes are stable identifiers of the form KF-<pass><number>:
///   KF-P##  program verifier + lint (ir/Verifier.h, analysis/ProgramLint.h)
///   KF-F##  footprint/halo checks  (analysis/FootprintCheck.h)
///   KF-B##  bytecode validation    (analysis/BytecodeValidator.h)
///   KF-V##  interval interpretation (analysis/IntervalAnalysis.h)
/// docs/ANALYSIS.md is the code registry; tests assert exact codes.
///
//===----------------------------------------------------------------------===//

#ifndef KF_SUPPORT_DIAGNOSTICS_H
#define KF_SUPPORT_DIAGNOSTICS_H

#include <cstdint>
#include <string>
#include <vector>

namespace kf {

/// Severity of one diagnostic. Errors make analysis fail; warnings fail
/// only under -Werror; notes never affect the outcome.
enum class DiagSeverity : uint8_t { Note, Warning, Error };

/// Printable severity name ("note", "warning", "error").
const char *diagSeverityName(DiagSeverity Severity);

/// One entry of the diagnostic-code registry.
struct DiagCodeInfo {
  const char *Code;
  DiagSeverity Severity; ///< Severity the code is emitted with.
};

/// The registry of every stable diagnostic code the analyses emit, with
/// the severity each is reported at. This is the single source of truth
/// that keeps docs/ANALYSIS.md honest: tools/check_doc_links.py parses
/// this table (keep one `{"KF-...", ...}` entry per line) and
/// cross-checks it against every KF-* code the docs mention, and
/// tests/test_analysis_json.cpp asserts it matches the emitting call
/// sites. Frontend-originated problems (the lazy recorder and script
/// parser, frontend/Lazy.h) reuse the KF-P codes of the matching lint
/// rule rather than minting a parallel namespace.
inline constexpr DiagCodeInfo DiagCodeRegistry[] = {
    // Program verifier (ir/Verifier.h) and lint (analysis/ProgramLint.h).
    {"KF-P00", DiagSeverity::Error},   // frontend parse/record failure
    {"KF-P01", DiagSeverity::Error},   // dependence cycle
    {"KF-P02", DiagSeverity::Error},   // image reference out of range
    {"KF-P03", DiagSeverity::Error},   // image produced more than once
    {"KF-P04", DiagSeverity::Error},   // malformed mask
    {"KF-P05", DiagSeverity::Error},   // structurally invalid kernel body
    {"KF-P06", DiagSeverity::Error},   // shape inconsistency / self-read
    {"KF-P07", DiagSeverity::Error},   // channel out of range
    {"KF-P08", DiagSeverity::Error},   // operator kind contradicts body
    {"KF-P09", DiagSeverity::Warning}, // dead kernel
    {"KF-P10", DiagSeverity::Warning}, // unused image
    {"KF-P11", DiagSeverity::Warning}, // border-mode conflict
    {"KF-P12", DiagSeverity::Error},   // invalid granularity
    // Footprint/halo checks (analysis/FootprintCheck.h).
    {"KF-F01", DiagSeverity::Error},
    {"KF-F02", DiagSeverity::Error},
    {"KF-F03", DiagSeverity::Error},
    {"KF-F04", DiagSeverity::Error},
    {"KF-F05", DiagSeverity::Error},
    {"KF-F06", DiagSeverity::Error},
    // Bytecode validation (analysis/BytecodeValidator.h).
    {"KF-B01", DiagSeverity::Error},
    {"KF-B02", DiagSeverity::Error},
    {"KF-B03", DiagSeverity::Error},
    {"KF-B04", DiagSeverity::Error},
    {"KF-B05", DiagSeverity::Error},
    {"KF-B07", DiagSeverity::Error},
    {"KF-B08", DiagSeverity::Error},
    {"KF-B09", DiagSeverity::Warning},
    {"KF-B10", DiagSeverity::Error},
    {"KF-B11", DiagSeverity::Error},
    // Interval interpretation (analysis/IntervalAnalysis.h).
    {"KF-V01", DiagSeverity::Warning},
    {"KF-V02", DiagSeverity::Warning},
    {"KF-V03", DiagSeverity::Warning},
    {"KF-V04", DiagSeverity::Warning},
    {"KF-V05", DiagSeverity::Note},
    {"KF-V06", DiagSeverity::Note},
};

/// Registry entry for \p Code, or nullptr for unknown codes.
const DiagCodeInfo *lookupDiagCode(const std::string &Code);

/// Where a diagnostic points: the analyzed unit (program or fused-kernel
/// name), and optionally a kernel/stage and an instruction index inside a
/// compiled stage. Unset fields stay empty / negative.
struct DiagLocation {
  std::string Unit;   ///< Program or fused-launch name.
  std::string Kernel; ///< Kernel (or stage kernel) name, if any.
  int Stage = -1;     ///< Stage index inside a staged program.
  int Inst = -1;      ///< Instruction index inside a stage.

  /// Renders "unit[:kernel][:stage N][:inst M]" (empty when unset).
  std::string str() const;
};

/// One collected diagnostic.
struct Diagnostic {
  DiagSeverity Severity = DiagSeverity::Error;
  std::string Code;    ///< Stable identifier, e.g. "KF-P01".
  std::string Message; ///< Human-readable description.
  DiagLocation Loc;
  std::string FixHint; ///< Optional actionable suggestion.
};

/// Collects diagnostics across passes and renders them. Not thread-safe;
/// one engine per analysis run.
class DiagnosticEngine {
public:
  /// Appends a fully-formed diagnostic.
  void report(Diagnostic Diag);

  /// Convenience constructors for the three severities.
  void error(std::string Code, std::string Message, DiagLocation Loc = {},
             std::string FixHint = {});
  void warning(std::string Code, std::string Message, DiagLocation Loc = {},
               std::string FixHint = {});
  void note(std::string Code, std::string Message, DiagLocation Loc = {},
            std::string FixHint = {});

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }
  unsigned errorCount() const { return Errors; }
  unsigned warningCount() const { return Warnings; }
  bool empty() const { return Diags.empty(); }

  /// True when analysis must fail: any error, or any warning under
  /// \p Werror.
  bool failed(bool Werror = false) const {
    return Errors != 0 || (Werror && Warnings != 0);
  }

  /// True when some diagnostic carries \p Code (exact match).
  bool hasCode(const std::string &Code) const;

  /// One line per diagnostic: "severity: CODE: location: message" plus an
  /// indented fix hint when present.
  std::string renderText() const;

  /// Machine-readable JSON object: {"diagnostics": [...], "errors": N,
  /// "warnings": N}. Each entry carries severity, code, message, the
  /// location fields, and the fix hint. See docs/ANALYSIS.md for the
  /// schema.
  std::string renderJson() const;

private:
  std::vector<Diagnostic> Diags;
  unsigned Errors = 0;
  unsigned Warnings = 0;
};

} // namespace kf

#endif // KF_SUPPORT_DIAGNOSTICS_H
