#!/usr/bin/env python3
"""Build the simulator and run one benchmark workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload ctxsw_split --seed 1 --seconds 10 --trace 0

The arguments go to perfbench/main.exe unchanged (see perfbench/README.md).
The script builds that executable with dune inside the tree, records the
source revision and the compiler's flambda flag in the run's provenance,
and passes the benchmark's standard output through; its last line is the
JSON result. It exits non-zero, printing no result, when the tree is not a
complete checkout or the build or the run fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
REQUIRED = ["dune-project", "lib/workload/harness.mli", "perfbench/dune", "perfbench/main.ml"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def git_rev():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        with open(".git/packed-refs") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def flambda():
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-config-var", "flambda"],
                             capture_output=True, text=True, timeout=60)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not a complete source tree (missing %s); run from its root" % ", ".join(missing), 2)
    # keep every build product inside the tree: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                               env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e, 3)
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(build.stdout)
        fail("build failed", 3)
    cmd = [EXE] + sys.argv[1:] + ["--rev", git_rev(), "--flambda", flambda()]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
