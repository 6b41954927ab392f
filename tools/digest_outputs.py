#!/usr/bin/env python3
"""Digest every output of the benchmark's workloads, for byte-identity checks.

    python3 tools/digest_outputs.py [--checkout DIR] [--size full|toy] [--seeds 1 2]

For each workload of DIR/perfbench/workloads.py and each seed, the workload
is prepared in a temporary directory and its `dpmflow` command is run there
from DIR/src.  One line is printed per file the command leaves behind and
one each for its standard output and standard error:

    <workload> seed=<n> <relative path, "stdout" or "stderr"> <sha256>

followed by a line with the exit code.  The inputs the workload writes
before the command runs are digested too, so that two checkouts are seen to
start from the same data.  Diffing the output of two checkouts is the check
that a change keeps every output byte-identical:

    python3 tools/digest_outputs.py --checkout OLD > old.txt
    python3 tools/digest_outputs.py --checkout NEW > new.txt
    diff old.txt new.txt

DIR defaults to the checkout holding this file.  The commands run in
temporary directories, so they leave DIR's files as they are.  Standard
error is digested with the `file:line: ` prefix and the echoed source line
of each Python warning removed, since both name the checkout's code.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile


# a warning as Python prints it: "<file>:<line>: <Category>: <message>",
# then the source line that warned, indented by two spaces
_WARNING = re.compile(rb"^.+?:\d+: (\w+: .*)(?:\n  .*)?$", re.MULTILINE)


def digest(data):
    return hashlib.sha256(data).hexdigest()


def tree_digests(root):
    """(relative path, sha256) of every file under root, sorted by path."""
    out = []
    for folder, dirs, files in os.walk(root):
        dirs.sort()
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out.append((os.path.relpath(path, root), digest(fh.read())))
    return sorted(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="repository checkout to run (default: this one)")
    parser.add_argument("--size", default="full", choices=("full", "toy"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    src = os.path.join(checkout, "src")
    # the checkout's own program and workloads, ahead of any other on the path
    sys.path[:0] = [src, os.path.join(checkout, "perfbench")]
    from workloads import WORKLOADS

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for name, factory in WORKLOADS.items():
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(prefix="digest-") as workdir:
                argv = factory().prepare(workdir, seed, args.size)
                proc = subprocess.run([sys.executable, "-m", "dpmflow.cli", *argv],
                                      cwd=workdir, env=env, capture_output=True)
                for path, sha in tree_digests(workdir):
                    print(f"{name} seed={seed} {path} {sha}")
                print(f"{name} seed={seed} stdout {digest(proc.stdout)}")
                stderr = _WARNING.sub(rb"\1", proc.stderr)
                print(f"{name} seed={seed} stderr {digest(stderr)}")
                print(f"{name} seed={seed} exit {proc.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
