#!/usr/bin/env python3
"""Build and run the DMX host-time benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sys-sweep, drx-runtime-session.

The first run configures and builds the simulator libraries and the
benchmark driver from source (CMake, Release) into $CARGO_TARGET_DIR, or
.bench_build when it is unset; later runs reconfigure (a no-op unless
something changed) and check the build is up to date. Build output goes to stderr, so the last line of stdout is the
driver's JSON result. A traced run (--trace 1) also writes its host spans
to <build dir>/spans/<workload>-seed<N>.json.

The driver runs with the simulator's DMX_* environment switches cleared
and DMX_JOBS=1, so the caller's environment cannot change the work done.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the driver; return its path. Exits non-zero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources not found at "
                 + os.path.join(ROOT, "src"))
    bdir = build_dir()
    # Configure every time: cheap when nothing changed, and CMake refuses
    # a build directory configured from another source tree instead of
    # silently rebuilding that tree.
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr).returncode
        if rc != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def flag(args, name):
    """Value following `name` in args, or None."""
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    exe = build()
    args = sys.argv[1:]
    if flag(args, "--trace") == "1" and flag(args, "--spans") is None:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(
            spans, "%s-seed%s.json" % (flag(args, "--workload"),
                                       flag(args, "--seed")))]
    env = {k: v for k, v in os.environ.items() if not k.startswith("DMX_")}
    env["DMX_JOBS"] = "1"
    sys.exit(subprocess.run([exe] + args, env=env).returncode)


if __name__ == "__main__":
    main()
