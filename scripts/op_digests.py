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

Each op also has five refusal twins, whose inputs are written to the same
temporary directory: every JSON int (not a boolean) set to 10^64, the
alphabetically first top-level key removed, every string that starts with a
digit or ``-`` replaced by ``"1/2"``, every list under a ``table`` key
reversed (so no cochain table is in row-major order), and 1/m added to the
value of the last cell of every such table, m being the ``coeff_order``
beside it.  Before the total, one line per twin kind gives the sha256 over
its (exit, stdout) pairs and the count of each (exit, error code).
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction

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


def _leaves(value, leaf):
    """The JSON value with leaf applied to every scalar in it."""
    if isinstance(value, dict):
        return {k: _leaves(v, leaf) for k, v in value.items()}
    if isinstance(value, list):
        return [_leaves(v, leaf) for v in value]
    return leaf(value)


def _tables(value, cells):
    """The JSON value with every list under a "table" key replaced by
    cells(that list, the coeff_order of the object holding it)."""
    if isinstance(value, dict):
        return {k: cells(v, value.get("coeff_order")) if k == "table" and isinstance(v, list)
                else _tables(v, cells) for k, v in value.items()}
    if isinstance(value, list):
        return [_tables(v, cells) for v in value]
    return value


def _last_cell_up(cells, m):
    """The cells with 1/m added to the value of the last one."""
    if not cells or type(m) is not int or m < 1:
        return cells
    i, j, value = cells[-1]
    return [*cells[:-1], [i, j, str(Fraction(value) + Fraction(1, m))]]


TWINS = {
    "ints at 10^64": lambda p: _leaves(p, lambda v: 10 ** 64 if type(v) is int else v),
    "first key removed": lambda p: {k: v for k, v in p.items() if k != min(p)},
    "rationals at 1/2": lambda p: _leaves(
        p, lambda v: "1/2" if isinstance(v, str) and v.startswith(tuple("-0123456789")) else v),
    "table cells reversed": lambda p: _tables(p, lambda cells, m: cells[::-1]),
    "last cell one step up": lambda p: _tables(p, _last_cell_up),
}


def twin_ops(tmp, argv):
    """(twin kind, argv) for each refusal twin of the op argv, which reads
    the input file argv[2]; a twin's input is written under tmp just before
    it is yielded, so each one must be run before the next is drawn."""
    with open(argv[2], encoding="utf-8") as fh:
        payload = json.load(fh)
    for kind, twin in TWINS.items():
        path = os.path.join(tmp, "twin.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(twin(payload), fh)
        yield kind, [*argv[:2], path, *argv[3:]]


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[0]))
    from orbipar.cli import run_command

    total, count = hashlib.sha256(), 0
    twins = {kind: (hashlib.sha256(), Counter()) for kind in TWINS}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed, argvs in seed_ops(tmp):
            digest = hashlib.sha256()
            for op in argvs:
                pair = json.dumps(run_command(op)).encode("utf-8") + b"\n"
                digest.update(pair)
                total.update(pair)
                for kind, twin in twin_ops(tmp, op):
                    code, out = run_command(twin)
                    twins[kind][0].update(json.dumps([code, out]).encode("utf-8") + b"\n")
                    twins[kind][1][code, json.loads(out)["error"] if code else "ok"] += 1
            count += len(argvs)
            print(f"{workload} seed {seed}: {len(argvs)} ops {digest.hexdigest()}")
    for kind, (digest, outcomes) in twins.items():
        counts = ", ".join(f"exit {code} {error} x{n}"
                           for (code, error), n in sorted(outcomes.items()))
        print(f"twin {kind}: {digest.hexdigest()} ({counts})")
    print(f"all {count} ops: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
