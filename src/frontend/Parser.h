//===- frontend/Parser.h - Pipeline-format parser ---------------*- C++ -*-===//
///
/// \file
/// Recursive-descent parser for the .kfp pipeline format (see Lexer.h for
/// a sample). Grammar:
///
///   program    := "program" IDENT decl*
///   decl       := image | mask | kernel
///   image      := "image" IDENT INT INT [INT]
///   mask       := "mask" IDENT INT INT "[" signed-number* "]"
///   kernel     := ("point"|"local"|"global") "kernel" IDENT
///                 "(" [IDENT ("," IDENT)*] ")" "->" IDENT
///                 ["border" ("clamp"|"mirror"|"repeat"|"constant"
///                            ["value" signed-number])]
///                 ["granularity" INT]
///                 "{" "out" "=" expr "}"
///
///   expr       := cmp
///   cmp        := add (("<" | ">") add)*
///   add        := mul (("+" | "-") mul)*
///   mul        := unary (("*" | "/") unary)*
///   unary      := "-" unary | primary
///   primary    := NUMBER | "x" | "y" | "dx" | "dy" | "mv"
///               | FN "(" expr ("," expr)* ")"       builtin call
///               | "sum"|"product"|"reduce_min"|"reduce_max"
///                      "(" MASKNAME "," expr ")"    stencil reduction
///               | INPUT ["." INT]                   point access
///               | INPUT "(" SINT "," SINT ")" ["." INT]   offset access
///               | INPUT "[" "]" ["." INT]           window access
///               | "(" expr ")"
///
/// Builtins: min, max, pow, select, sqrt, exp, log, abs, floor.
/// Input names refer to the kernel's parameter list; mask names to mask
/// declarations. Diagnostics carry line numbers; parsing is total (it
/// recovers nothing -- the first error aborts the parse).
///
//===----------------------------------------------------------------------===//

#ifndef KF_FRONTEND_PARSER_H
#define KF_FRONTEND_PARSER_H

#include "ir/Program.h"

#include <memory>
#include <string>
#include <vector>

namespace kf {

/// Result of parsing a pipeline file: a program (on success) and
/// diagnostics (on failure).
struct ParseResult {
  std::unique_ptr<Program> Prog;
  std::vector<std::string> Errors;

  bool success() const { return Prog != nullptr && Errors.empty(); }
};

/// Parses pipeline text into a verified Program. The verifier's errors
/// (ir/Verifier.h) are folded into Errors as "verifier: KF-P##: <where>:
/// <message>". With \p Verify false the verifier is skipped and any
/// structurally parseable program is returned -- the static analyzer
/// (analysis/ProgramLint.h) uses this to report every finding, warnings
/// included, for programs the strict path would reject wholesale.
ParseResult parsePipelineText(const std::string &Source, bool Verify = true);

/// Reads and parses a .kfp file; I/O failures surface as Errors.
ParseResult parsePipelineFile(const std::string &Path, bool Verify = true);

} // namespace kf

#endif // KF_FRONTEND_PARSER_H
