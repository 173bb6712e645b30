#!/usr/bin/env python3
"""Checks that the full-width lane loops compile to packed SIMD.

The span interpreter (src/ir/ExprVM.cpp) and the JIT op cells
(src/jit/JitProgram.cpp) run every VM operation through the lane loops of
src/ir/LaneOps.h. At the default -O2 build GCC vectorizes those loops only
because each carries the KF_LANE_LOOP hint; dropping the hint, or adding a
pointer the compiler must check for aliasing, turns them back into scalar
loops with no visible failure but a 2x slowdown. This script makes that a
failure.

It configures the project into a temporary directory to get the project's
own compile commands, recompiles the two translation units with the GCC
vectorizer report (the -fopt-info-vec messages, grouped per function by
-fdump-tree-vect-optimized-missed), and fails when:

  * a required lane loop is reported "couldn't vectorize" inside a
    full-width function -- one whose first template argument is
    VmLaneWidth (mangled ILi64E), such as opAlu<64, Add> or
    evalRowImpl<64, ...>; or
  * a required lane loop is not reported vectorized anywhere in a
    translation unit.

A required lane loop is a loop of src/ir/LaneOps.h preceded by
KF_LANE_LOOP, except the ones that must stay scalar without changing the
compile flags: loops that call libm (std::exp, std::log, std::pow;
std::sqrt keeps its errno call; SSE2 has no packed floor) and loops that
index with a runtime Stride or OutStride (multi-channel gathers and
scatters). Runtime-width tail instantiations (template argument 0) are not
checked: the default cost model never vectorizes a loop that would need a
scalar epilogue.

Some evaluators must also *have* a full-width instantiation that packs
every required laneAlu loop: the border-ring evaluator (evalStagedRing in
src/ir/ExprVM.cpp) runs the ring 64 pixels at a time only to reach the
packed ALU loops, so it fails the check when no full-width function of it
vectorizes them -- for example when it is instantiated at runtime width, a
change the per-loop checks above cannot see.

Usage, from anywhere:

    python3 tools/check_vectorized.py

Exits 0 with a message, checking nothing, when the compiler is not GCC.
Standard library only.
"""

import json
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LANE_OPS = ROOT / "src" / "ir" / "LaneOps.h"
EXPR_VM_H = ROOT / "src" / "ir" / "ExprVM.h"
UNITS = [ROOT / "src" / "ir" / "ExprVM.cpp",
         ROOT / "src" / "jit" / "JitProgram.cpp"]

# unit name -> evaluators whose full-width instantiation must pack every
# required laneAlu loop (matched as a substring of the mangled name).
PACKED_ALU = {"ExprVM.cpp": ("evalStagedRing",)}

SCALAR_CALLS = ("std::exp", "std::log", "std::pow", "std::sqrt", "std::floor")
RUNTIME_STRIDE = re.compile(r"\*\s*(Out)?Stride\]")
FUNCTION_RE = re.compile(r"^;; Function (.*) \((\S+?),")
REPORT_RE = re.compile(r"LaneOps\.h:(\d+):\d+: (optimized: loop vectorized"
                       r"|missed: couldn't vectorize loop)")


def lane_width():
    match = re.search(r"constexpr int VmLaneWidth = (\d+);",
                      EXPR_VM_H.read_text())
    if not match:
        sys.exit("error: VmLaneWidth not found in %s" % EXPR_VM_H)
    return int(match.group(1))


def lane_loops():
    """{for-line number: loop text} for every KF_LANE_LOOP loop."""
    lines = LANE_OPS.read_text().splitlines()
    loops = {}
    for index, line in enumerate(lines):
        if line.strip() != "KF_LANE_LOOP":
            continue
        start = index + 1  # 0-based index of the for line.
        body, depth = [], 0
        for text in lines[start:]:
            body.append(text)
            depth += text.count("{") - text.count("}")
            if depth == 0 and text.rstrip().endswith((";", "}")):
                break
        loops[start + 1] = "\n".join(body)
    return loops


def alu_lines(loops):
    """For-line numbers of the KF_LANE_LOOP loops inside laneAlu."""
    lines = LANE_OPS.read_text().splitlines()
    start = next((i for i, line in enumerate(lines)
                  if line.startswith("inline void laneAlu(")), None)
    if start is None:
        sys.exit("error: laneAlu not found in %s" % LANE_OPS)
    end = next(i for i in range(start, len(lines)) if lines[i] == "}")
    return {line for line in loops if start < line <= end + 1}


def required(loop_text):
    return (not any(call in loop_text for call in SCALAR_CALLS)
            and not RUNTIME_STRIDE.search(loop_text))


def is_gcc(compiler):
    macros = subprocess.run([compiler, "-dM", "-E", "-x", "c++", "/dev/null"],
                            capture_output=True, text=True)
    return (macros.returncode == 0 and "__GNUC__" in macros.stdout
            and "__clang__" not in macros.stdout)


def compile_commands(build_dir):
    configure = subprocess.run(
        ["cmake", "-S", str(ROOT), "-B", str(build_dir),
         "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"],
        capture_output=True, text=True)
    if configure.returncode:
        sys.stderr.write(configure.stdout + configure.stderr)
        sys.exit("error: configuring the project failed")
    entries = json.loads((build_dir / "compile_commands.json").read_text())
    return {Path(e["file"]).resolve(): e for e in entries}


def command_args(entry):
    return (shlex.split(entry["command"]) if "command" in entry
            else list(entry["arguments"]))


def vectorizer_report(entry, out_dir):
    """[(mangled function name, line, vectorized?)] for LaneOps.h loops."""
    args = command_args(entry)
    stem = Path(entry["file"]).stem
    if "-o" in args:
        args[args.index("-o") + 1] = str(out_dir / (stem + ".o"))
    dump = out_dir / (stem + ".vect")
    args.append("-fdump-tree-vect-optimized-missed=%s" % dump)
    run = subprocess.run(args, cwd=entry["directory"], capture_output=True,
                         text=True)
    if run.returncode:
        sys.stderr.write(run.stdout + run.stderr)
        sys.exit("error: compiling %s failed" % entry["file"])
    reports, function = [], None
    for line in dump.read_text().splitlines():
        header = FUNCTION_RE.match(line)
        if header:
            function = header.group(2)
            continue
        report = REPORT_RE.search(line)
        if report and function:
            reports.append((function, int(report.group(1)),
                            report.group(2).startswith("optimized")))
    return reports


def main():
    width = lane_width()
    full_width = "ILi%dE" % width
    loops = lane_loops()
    needed = sorted(line for line, text in loops.items() if required(text))
    if not needed:
        sys.exit("error: no KF_LANE_LOOP loops found in %s" % LANE_OPS)

    failures = []
    with tempfile.TemporaryDirectory(prefix="kf-vect-") as tmp:
        tmp = Path(tmp)
        commands = compile_commands(tmp / "build")
        compiler = command_args(commands[UNITS[0]])[0]
        if not is_gcc(compiler):
            print("check_vectorized: %s is not GCC; skipping (the check reads "
                  "GCC's vectorizer report)" % compiler)
            return 0
        for unit in UNITS:
            reports = vectorizer_report(commands[unit], tmp)
            vectorized = {line for _, line, ok in reports if ok}
            for line in needed:
                if line not in vectorized:
                    failures.append("%s: LaneOps.h:%d is never vectorized"
                                    % (unit.name, line))
            for function, line, ok in reports:
                if not ok and line in needed and full_width in function:
                    failures.append("%s: LaneOps.h:%d stays scalar in %s"
                                    % (unit.name, line, function))
            full = {f for f, _, _ in reports if full_width in f}
            for marker in PACKED_ALU.get(unit.name, ()):
                owners = {f for f in full if marker in f}
                if not owners:
                    failures.append("%s: no full-width instantiation of %s"
                                    % (unit.name, marker))
                    continue
                packed = {line for f, line, ok in reports
                          if ok and f in owners}
                for line in sorted(set(needed) & alu_lines(loops)):
                    if line not in packed:
                        failures.append("%s: LaneOps.h:%d is not packed in "
                                        "%s" % (unit.name, line, marker))
            print("%s: checked %d full-width functions"
                  % (unit.name, len(full)))

    if failures:
        for failure in sorted(set(failures)):
            print("FAIL " + failure)
        print("%d failure(s): full-width lane loops lost vectorization; see "
              "src/ir/LaneOps.h" % len(set(failures)))
        return 1
    print("check_vectorized: OK (%d required lane loops of %d; lane width %d)"
          % (len(needed), len(loops), width))
    return 0


if __name__ == "__main__":
    sys.exit(main())
