#!/usr/bin/env python3
"""Dead-link checker for the repo's markdown documentation.

Scans every *.md at the repository root and under docs/ for inline
markdown links, resolves each relative target against the linking file,
and fails (exit 1) listing every target that does not exist. External
links (http/https/mailto) and pure in-page anchors are skipped; anchor
suffixes on relative links are stripped before the existence check, and
fenced code blocks are ignored (C++ lambdas parse as links otherwise).

Also cross-checks the diagnostic-code registry: every KF-* code the
docs mention must be an entry of DiagCodeRegistry in
src/support/Diagnostics.h, and every warning- or error-severity
registry code must be documented somewhere under docs/ -- so the docs
can neither cite a code the analyses cannot emit nor silently omit one
a user can actually be stopped by (notes are informational and may stay
undocumented). Retired codes (RETIRED_CODES) are the exception: the
docs may still name them, and the registry must never reuse them.

Run from anywhere: paths are resolved against the repo root (this
script's parent directory). CI runs it as the docs link-check step.

Standard library only.
"""

import re
import sys
from pathlib import Path

# [text](target) with an optional "title"; target ends at whitespace or ')'.
LINK_RE = re.compile(r"\[[^\]]*\]\(\s*([^)\s]+)[^)]*\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def doc_files(root: Path):
    yield from sorted(root.glob("*.md"))
    docs = root / "docs"
    if docs.is_dir():
        yield from sorted(docs.rglob("*.md"))


def check_file(path: Path, root: Path):
    dead = []
    text = path.read_text(encoding="utf-8", errors="replace")
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        # C++ lambdas like [](int F, ...) inside fenced code blocks look
        # exactly like markdown links; fences carry no links by design.
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            # Relative file link; drop any #anchor suffix.
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (path.parent / rel).resolve()
            if not resolved.exists():
                dead.append((lineno, target))
    return dead


# One registry entry per line in Diagnostics.h (the header keeps this
# format by contract; see the comment above DiagCodeRegistry).
REGISTRY_ENTRY_RE = re.compile(
    r'\{"(KF-[A-Z]\d{2})",\s*DiagSeverity::(\w+)\}')
DOC_CODE_RE = re.compile(r"\bKF-[A-Z]\d{2}\b")
# Codes whose check can no longer fire, so they left the registry. Their
# numbers are never reused. KF-B06 (StageCall in a plain kernel program)
# retired with the plain program form.
RETIRED_CODES = {"KF-B06"}


def parse_code_registry(root: Path):
    """DiagCodeRegistry of src/support/Diagnostics.h as {code: severity}."""
    header = root / "src" / "support" / "Diagnostics.h"
    registry = {}
    for match in REGISTRY_ENTRY_RE.finditer(header.read_text(encoding="utf-8",
                                                       errors="replace")):
        registry[match.group(1)] = match.group(2)
    return registry


def check_diag_codes(root: Path):
    """Docs and DiagCodeRegistry must agree on the KF-* code vocabulary."""
    problems = []
    registry = parse_code_registry(root)
    if not registry:
        return ["src/support/Diagnostics.h: DiagCodeRegistry not found "
                "(format changed? this script parses one {\"KF-..\"} entry "
                "per line)"]

    mentioned = {}  # code -> first mentioning doc:line
    for doc in doc_files(root):
        for lineno, line in enumerate(
                doc.read_text(encoding="utf-8",
                              errors="replace").splitlines(), start=1):
            for match in DOC_CODE_RE.finditer(line):
                mentioned.setdefault(match.group(0),
                                     f"{doc.relative_to(root)}:{lineno}")

    for code in sorted(RETIRED_CODES & registry.keys()):
        problems.append(
            f"src/support/Diagnostics.h: retired code '{code}' is back in "
            f"DiagCodeRegistry (retired numbers are never reused)")
    for code, where in sorted(mentioned.items()):
        if code not in registry and code not in RETIRED_CODES:
            problems.append(
                f"{where}: documented code '{code}' is not in "
                f"DiagCodeRegistry (src/support/Diagnostics.h)")
    for code, severity in sorted(registry.items()):
        if severity in ("Error", "Warning") and code not in mentioned:
            problems.append(
                f"src/support/Diagnostics.h: {severity.lower()}-severity "
                f"code '{code}' is not documented anywhere under docs/")
    return problems


def main():
    root = Path(__file__).resolve().parent.parent
    failures = 0
    checked = 0
    for doc in doc_files(root):
        checked += 1
        for lineno, target in check_file(doc, root):
            failures += 1
            print(f"{doc.relative_to(root)}:{lineno}: dead link: {target}")
    for problem in check_diag_codes(root):
        failures += 1
        print(problem)
    if failures:
        print(f"\n{failures} problem(s) across {checked} file(s)",
              file=sys.stderr)
        return 1
    print(f"checked {checked} markdown file(s): all relative links resolve; "
          f"KF-* codes consistent with DiagCodeRegistry")
    return 0


if __name__ == "__main__":
    sys.exit(main())
