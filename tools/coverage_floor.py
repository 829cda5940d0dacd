#!/usr/bin/env python3
"""Line-coverage floors for the SynCron engine (src/syncron/).

Usage: python3 tools/coverage_floor.py BUILD_DIR

BUILD_DIR is a build configured with

    cmake -B BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Debug \\
          -DCMAKE_CXX_FLAGS="--coverage -O0"

whose ctest has already run. The script runs gcov (it ships with g++)
over the object files of every src/syncron/*.cc, prints each file's
line coverage, and exits 1 when a file listed in FLOORS fell below its
floor, 2 when a listed file has no coverage data. A floor is the value
last measured, rounded down; raise it when tests reach more lines, never
lower it to let a change through.
"""

import pathlib
import re
import subprocess
import sys

# Percent of executable lines that ctest runs.
FLOORS = {
    "engine.cc": 96.0,
    "overflow.cc": 96.0,
}

RECORD = re.compile(r"File '([^']+)'\nLines executed:([0-9.]+)% of (\d+)")


def coverage(gcda: pathlib.Path):
    """(percent, lines) gcov reports for the source @p gcda belongs to."""
    source = gcda.name[: -len(".gcda")]
    out = subprocess.run(
        ["gcov", "-n", str(gcda)],
        capture_output=True, text=True, check=True,
    ).stdout
    for path, percent, lines in RECORD.findall(out):
        if path.endswith("/src/syncron/" + source):
            return float(percent), int(lines)
    return None


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    objdir = (pathlib.Path(argv[1]) / "CMakeFiles" / "syncron_core.dir"
              / "src" / "syncron")
    measured = {}
    for gcda in sorted(objdir.glob("*.cc.gcda")):
        result = coverage(gcda)
        if result is not None:
            measured[gcda.name[: -len(".gcda")]] = result

    status = 0
    for name, (percent, lines) in sorted(measured.items()):
        floor = FLOORS.get(name)
        verdict = ""
        if floor is not None:
            verdict = "ok" if percent >= floor else "BELOW FLOOR"
            verdict = f"  (floor {floor:.1f} %: {verdict})"
            if percent < floor:
                status = 1
        print(f"src/syncron/{name}: {percent:.2f} % of {lines} lines"
              f"{verdict}")
    for name in sorted(set(FLOORS) - set(measured)):
        print(f"src/syncron/{name}: no coverage data under {objdir}",
              file=sys.stderr)
        status = 2
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
