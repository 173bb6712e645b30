#!/usr/bin/env python3
"""Checks that the lane loops compile to packed SIMD.

The span interpreter (src/ir/ExprVM.cpp) and the JIT op cells
(src/jit/JitProgram.cpp) run every VM operation through the lane loops of
src/ir/LaneOps.h; the JIT's fused cells (multiply-add, immediate and image
operands) instantiate their own forms of them. At the default -O2 build
GCC vectorizes those loops only because each carries the KF_LANE_LOOP
hint; dropping the hint, adding a pointer the compiler must check for
aliasing, or a conditional it cannot if-convert, turns them back into
scalar loops with no visible failure but a 2x slowdown. This script makes
that a failure.

It configures the project into a temporary directory to get the project's
own compile commands, recompiles the two translation units with the GCC
vectorizer report (the -fopt-info-vec messages, grouped per function by
-fdump-tree-vect-optimized-missed), and fails when:

  * a required lane loop is reported "couldn't vectorize" inside any
    function, such as opAlu<Add> or evalLanes<...> (every lane loop runs
    the one chunk width VmLaneWidth, so every instantiation is held to
    packing);
  * a translation unit compiles a required lane loop but never reports
    it vectorized (each unit is held only to the loops it instantiates:
    the fused-cell forms exist only in JitProgram.cpp); or
  * a required lane loop is compiled in neither unit.

A lane loop is a loop preceded by KF_LANE_LOOP or one over the lanes of a
chunk (`for (int I = ...; I != VmLaneWidth; ++I)`, hint or not, so that
dropping a hint fails the check rather than exempting the loop), in
src/ir/LaneOps.h or written in src/jit/JitProgram.cpp. Every lane loop is
required except the ones
that must stay scalar without changing the compile flags: loops that call
libm (std::exp, std::log, std::pow; std::sqrt keeps its errno call; SSE2
has no packed floor) and loops that index with a runtime Stride or
OutStride (multi-channel gathers and scatters, and the partial stores of
laneStore).

Some functions must also *have* packed loops:

  * the border-ring evaluator (evalStagedRing in src/ir/ExprVM.cpp) runs
    the ring 64 pixels at a time only to reach the packed ALU loops, so
    it fails the check when no function of it vectorizes every required
    laneAlu loop -- for example when its loops lose their compile-time
    trip count, a change the per-loop checks above cannot see;
  * every instantiation of a JIT ALU or multiply-add cell (opAlu,
    opMulAdd in src/jit/JitProgram.cpp) must report its lane loop, and
    pack it unless the loop is one that stays scalar.

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
JIT_PROGRAM = ROOT / "src" / "jit" / "JitProgram.cpp"
UNITS = [ROOT / "src" / "ir" / "ExprVM.cpp", JIT_PROGRAM]
# Files whose KF_LANE_LOOP loops are checked.
LOOP_SOURCES = [LANE_OPS, JIT_PROGRAM]

# unit name -> evaluators that must pack every required laneAlu loop
# (matched as a substring of the mangled name).
PACKED_ALU = {"ExprVM.cpp": ("evalStagedRing",)}
# unit name -> op cells whose every instantiation must report its lane
# loop and pack it when the loop is required.
PACKED_CELLS = {"JitProgram.cpp": ("opAlu", "opMulAdd")}

SCALAR_CALLS = ("std::exp", "std::log", "std::pow", "std::sqrt", "std::floor")
RUNTIME_STRIDE = re.compile(r"\*\s*(Out)?Stride\]")
FUNCTION_RE = re.compile(r"^;; Function (.*) \((\S+?),")
LANE_FOR_RE = re.compile(r"^\s*for \(int I = \w+; I != VmLaneWidth; "
                         r"\+\+I\)")
REPORT_RE = re.compile(r"(LaneOps\.h|JitProgram\.cpp):(\d+):\d+: "
                       r"(optimized: loop vectorized"
                       r"|missed: couldn't vectorize loop)")


def lane_loops():
    """{(file name, for-line number): loop text} for every lane loop."""
    loops = {}
    for path in LOOP_SOURCES:
        lines = path.read_text().splitlines()
        for index, line in enumerate(lines):
            if line.strip() == "KF_LANE_LOOP":
                start = index + 1  # 0-based index of the for line.
            elif (LANE_FOR_RE.match(line)
                  and lines[index - 1].strip() != "KF_LANE_LOOP"):
                start = index
            else:
                continue
            body, depth = [], 0
            for text in lines[start:]:
                body.append(text)
                depth += text.count("{") - text.count("}")
                if depth == 0 and text.rstrip().endswith((";", "}")):
                    break
            loops[(path.name, start + 1)] = "\n".join(body)
    return loops


def loop_at(loops, name, line):
    """The location of the loop whose text spans \p line of \p name: GCC
    reports a loop at its for line, or at a body line when the body
    exits early."""
    for (file, start), text in loops.items():
        if file == name and start <= line < start + text.count("\n") + 1:
            return (file, start)
    return (name, line)


def alu_lines(loops):
    """Locations of the KF_LANE_LOOP loops inside laneAlu."""
    lines = LANE_OPS.read_text().splitlines()
    start = next((i for i, line in enumerate(lines)
                  if line.startswith("inline void laneAlu(")), None)
    if start is None:
        sys.exit("error: laneAlu not found in %s" % LANE_OPS)
    end = next(i for i in range(start, len(lines)) if lines[i] == "}")
    return {(name, line) for name, line in loops
            if name == LANE_OPS.name and start < line <= end + 1}


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


def vectorizer_report(entry, out_dir, loops):
    """[(mangled function name, (file, line), vectorized?)] per lane loop."""
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
            reports.append((function,
                            loop_at(loops, report.group(1),
                                    int(report.group(2))),
                            report.group(3).startswith("optimized")))
    return reports


def where(loc):
    return "%s:%d" % loc


def main():
    loops = lane_loops()
    needed = {loc for loc, text in loops.items() if required(text)}
    if not needed:
        sys.exit("error: no lane loops found in %s"
                 % ", ".join(str(p) for p in LOOP_SOURCES))

    failures = []
    compiled = set()
    with tempfile.TemporaryDirectory(prefix="kf-vect-") as tmp:
        tmp = Path(tmp)
        commands = compile_commands(tmp / "build")
        compiler = command_args(commands[UNITS[0]])[0]
        if not is_gcc(compiler):
            print("check_vectorized: %s is not GCC; skipping (the check reads "
                  "GCC's vectorizer report)" % compiler)
            return 0
        for unit in UNITS:
            reports = vectorizer_report(commands[unit], tmp, loops)
            instantiated = {loc for _, loc, _ in reports}
            compiled |= instantiated
            vectorized = {loc for _, loc, ok in reports if ok}
            for loc in sorted(needed & instantiated):
                if loc not in vectorized:
                    failures.append("%s: %s is never vectorized"
                                    % (unit.name, where(loc)))
            for function, loc, ok in reports:
                if not ok and loc in needed:
                    failures.append("%s: %s stays scalar in %s"
                                    % (unit.name, where(loc), function))
            functions = {f for f, _, _ in reports}
            for marker in PACKED_ALU.get(unit.name, ()):
                owners = {f for f in functions if marker in f}
                if not owners:
                    failures.append("%s: no lane loop in %s"
                                    % (unit.name, marker))
                    continue
                packed = {loc for f, loc, ok in reports
                          if ok and f in owners}
                for loc in sorted(needed & alu_lines(loops)):
                    if loc not in packed:
                        failures.append("%s: %s is not packed in %s"
                                        % (unit.name, where(loc), marker))
            cells = sorted(f for f in functions
                           if any(m in f for m in PACKED_CELLS.get(unit.name,
                                                                   ())))
            for function in cells:
                locs = {loc for f, loc, _ in reports if f == function}
                packed = {loc for f, loc, ok in reports
                          if ok and f == function}
                if not locs or (locs & needed and not packed):
                    failures.append("%s: %s packs no lane loop"
                                    % (unit.name, function))
            if unit.name in PACKED_CELLS and not cells:
                failures.append("%s: no op cells" % unit.name)
            print("%s: checked %d functions (%d op cells)"
                  % (unit.name, len(functions), len(cells)))

    for loc in sorted(needed - compiled):
        failures.append("%s is compiled in no unit" % where(loc))
    if failures:
        for failure in sorted(set(failures)):
            print("FAIL " + failure)
        print("%d failure(s): lane loops lost vectorization; see "
              "src/ir/LaneOps.h" % len(set(failures)))
        return 1
    print("check_vectorized: OK (%d required lane loops of %d)"
          % (len(needed), len(loops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
