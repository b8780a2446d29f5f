#!/usr/bin/env python3
"""Digest the outputs of every benchmark op, to show two source trees agree.

    python scripts/op_digests.py SRC_DIR

SRC_DIR is a directory holding the ``orbipar`` package (``src`` of a
checkout).  Seeds 1-3 of each perfbench workload are generated by
``perfbench/gen.py`` of this checkout into a temporary directory, and every
op is run through ``run_command`` of the orbipar under SRC_DIR.  One line is
printed per (workload, seed): the sha256 over its ops' (exit, stdout) pairs,
in op order; the last line is the sha256 over all ops.  Two trees whose
totals are equal gave byte-identical output on every op.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cohomology", "descent", "reps")
SEEDS = (1, 2, 3)


def seed_ops(tmp):
    """(workload, seed, the argv of each op) for seeds 1-3 of every workload,
    their inputs generated under tmp."""
    for workload in WORKLOADS:
        for seed in SEEDS:
            workdir = os.path.join(tmp, f"{workload}-s{seed}")
            subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "gen.py"),
                            "--workload", workload, "--seed", str(seed),
                            "--workdir", workdir], check=True)
            with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
                yield workload, seed, [[*op["verb"].split(), os.path.join(workdir, op["file"]),
                                        *op["flags"]] for op in json.load(fh)["ops"]]


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[0]))
    from orbipar.cli import run_command

    total, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed, argvs in seed_ops(tmp):
            digest = hashlib.sha256()
            for op in argvs:
                pair = json.dumps(run_command(op)).encode("utf-8") + b"\n"
                digest.update(pair)
                total.update(pair)
            count += len(argvs)
            print(f"{workload} seed {seed}: {len(argvs)} ops {digest.hexdigest()}")
    print(f"all {count} ops: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
