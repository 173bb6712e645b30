//===- support/Diagnostics.cpp ---------------------------------------------===//

#include "support/Diagnostics.h"

#include "support/Error.h"

#include <cstdio>

using namespace kf;

const char *kf::diagSeverityName(DiagSeverity Severity) {
  switch (Severity) {
  case DiagSeverity::Note:
    return "note";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Error:
    return "error";
  }
  KF_UNREACHABLE("unknown diagnostic severity");
}

std::string DiagLocation::str() const {
  std::string Out = Unit;
  if (!Kernel.empty())
    Out += (Out.empty() ? "" : ":") + ("kernel '" + Kernel + "'");
  if (Stage >= 0)
    Out += (Out.empty() ? "" : ":") + ("stage " + std::to_string(Stage));
  if (Inst >= 0)
    Out += (Out.empty() ? "" : ":") + ("inst " + std::to_string(Inst));
  return Out;
}

void DiagnosticEngine::report(Diagnostic Diag) {
  if (Diag.Severity == DiagSeverity::Error)
    ++Errors;
  else if (Diag.Severity == DiagSeverity::Warning)
    ++Warnings;
  Diags.push_back(std::move(Diag));
}

void DiagnosticEngine::error(std::string Code, std::string Message,
                             DiagLocation Loc, std::string FixHint) {
  report({DiagSeverity::Error, std::move(Code), std::move(Message),
          std::move(Loc), std::move(FixHint)});
}

void DiagnosticEngine::warning(std::string Code, std::string Message,
                               DiagLocation Loc, std::string FixHint) {
  report({DiagSeverity::Warning, std::move(Code), std::move(Message),
          std::move(Loc), std::move(FixHint)});
}

void DiagnosticEngine::note(std::string Code, std::string Message,
                            DiagLocation Loc, std::string FixHint) {
  report({DiagSeverity::Note, std::move(Code), std::move(Message),
          std::move(Loc), std::move(FixHint)});
}

bool DiagnosticEngine::hasCode(const std::string &Code) const {
  for (const Diagnostic &D : Diags)
    if (D.Code == Code)
      return true;
  return false;
}

std::string DiagnosticEngine::renderText() const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += diagSeverityName(D.Severity);
    Out += ": ";
    Out += D.Code;
    std::string Where = D.Loc.str();
    if (!Where.empty()) {
      Out += ": ";
      Out += Where;
    }
    Out += ": ";
    Out += D.Message;
    Out += '\n';
    if (!D.FixHint.empty()) {
      Out += "  hint: ";
      Out += D.FixHint;
      Out += '\n';
    }
  }
  return Out;
}

namespace {

/// Escapes \p In for inclusion in a JSON string literal.
std::string jsonEscape(const std::string &In) {
  std::string Out;
  Out.reserve(In.size());
  for (char C : In) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

std::string DiagnosticEngine::renderJson() const {
  std::string Out = "{\n  \"diagnostics\": [";
  bool First = true;
  for (const Diagnostic &D : Diags) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    {\"severity\": \"";
    Out += diagSeverityName(D.Severity);
    Out += "\", \"code\": \"" + jsonEscape(D.Code) + "\"";
    Out += ", \"message\": \"" + jsonEscape(D.Message) + "\"";
    if (!D.Loc.Unit.empty())
      Out += ", \"unit\": \"" + jsonEscape(D.Loc.Unit) + "\"";
    if (!D.Loc.Kernel.empty())
      Out += ", \"kernel\": \"" + jsonEscape(D.Loc.Kernel) + "\"";
    if (D.Loc.Stage >= 0)
      Out += ", \"stage\": " + std::to_string(D.Loc.Stage);
    if (D.Loc.Inst >= 0)
      Out += ", \"inst\": " + std::to_string(D.Loc.Inst);
    if (!D.FixHint.empty())
      Out += ", \"hint\": \"" + jsonEscape(D.FixHint) + "\"";
    Out += "}";
  }
  Out += First ? "]" : "\n  ]";
  Out += ",\n  \"errors\": " + std::to_string(Errors);
  Out += ",\n  \"warnings\": " + std::to_string(Warnings);
  Out += "\n}\n";
  return Out;
}

const kf::DiagCodeInfo *kf::lookupDiagCode(const std::string &Code) {
  for (const DiagCodeInfo &Info : DiagCodeRegistry)
    if (Code == Info.Code)
      return &Info;
  return nullptr;
}
