#!/usr/bin/env python3
"""Check that the compiler vectorises every row kernel of src/j2k/kernels.cpp.

    python3 scripts/check_vectorized.py BUILD_DIR

BUILD_DIR must be configured with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON.  The
script re-runs the compile_commands.json command for src/j2k/kernels.cpp with
-fopt-info-vec-optimized appended (the object goes to a temporary file, so
the build tree is left as it was), maps each "loop vectorized" report to the
kernel whose body holds that line, and prints one count per kernel.

Exits non-zero when a kernel has no vectorised loop, or when kernels.cpp
defines a function this script does not know (a new kernel must be added to
KERNELS so that it is counted too).  The count depends only on the compiler
and the flags, not on the host CPU.
"""
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile

KERNELS = [
    "lift53_sub_avg", "lift53_add_avg", "lift53_add_round", "lift53_sub_round",
    "lift97", "scale97", "round_to_int", "ict_inverse", "rct_inverse", "dequant",
]
SOURCE = os.path.join("src", "j2k", "kernels.cpp")


def kernel_lines(path):
    """{first line of each top-level function definition: its name}."""
    starts = {}
    with open(path) as f:
        for no, line in enumerate(f, 1):
            m = re.match(r"void (\w+)\(", line)
            if m:
                starts[no] = m.group(1)
    return starts


def enclosing(starts, line):
    """The function whose definition starts last at or before `line`."""
    owners = [no for no in starts if no <= line]
    return starts[max(owners)] if owners else None


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    build = sys.argv[1]
    with open(os.path.join(build, "compile_commands.json")) as f:
        entries = [e for e in json.load(f) if e["file"].endswith(SOURCE)]
    if len(entries) != 1:
        sys.exit(f"check_vectorized: {len(entries)} compile commands for {SOURCE}")
    entry = entries[0]
    args = entry["arguments"] if "arguments" in entry else shlex.split(entry["command"])

    with tempfile.TemporaryDirectory() as tmp:
        out = args.index("-o")
        args = args[:out + 1] + [os.path.join(tmp, "kernels.o")] + args[out + 2:]
        args.append("-fopt-info-vec-optimized")
        print("check_vectorized: " + " ".join(shlex.quote(a) for a in args))
        r = subprocess.run(args, cwd=entry["directory"], capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        sys.exit(f"check_vectorized: compile failed ({r.returncode})")

    starts = kernel_lines(entry["file"])
    unknown = sorted(set(starts.values()) - set(KERNELS))
    counts = {k: 0 for k in KERNELS}
    for m in re.finditer(r"kernels\.cpp:(\d+):\d+: optimized: loop vectorized", r.stderr):
        owner = enclosing(starts, int(m.group(1)))
        if owner in counts:
            counts[owner] += 1
    for k in KERNELS:
        print(f"  {k:18s} {counts[k]} vectorised loop(s)")
    missing = [k for k in KERNELS if counts[k] == 0]
    if unknown:
        print(f"check_vectorized: kernels.cpp defines functions not in KERNELS: {unknown}")
    if missing:
        print(f"check_vectorized: no vectorised loop in {missing}")
    if unknown or missing:
        return 1
    print(f"check_vectorized: all {len(KERNELS)} kernels vectorised")
    return 0


if __name__ == "__main__":
    sys.exit(main())
