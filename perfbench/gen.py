"""Write one pass of a workload's inputs and the oracle records.

Runs in its own process so that the measured process starts with orbipar's
module caches (power tables, Phi_M, roots of unity) cold, as a CLI user's
process does.

    python perfbench/gen.py --workload NAME --seed N --workdir DIR
"""

import argparse
import json
import os
import random

import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    rng = random.Random(f"{args.workload}:{args.seed}")
    ops = workloads.WORKLOADS[args.workload](rng)
    os.makedirs(os.path.join(args.workdir, "inputs"), exist_ok=True)
    manifest = []
    for i, op in enumerate(ops):
        name = os.path.join("inputs", f"op_{i:03d}.json")
        with open(os.path.join(args.workdir, name), "w", encoding="utf-8") as fh:
            json.dump(op["payload"], fh)
        manifest.append({"verb": op["verb"], "file": name, "flags": op["flags"],
                         "expect": op["expect"]})
    with open(os.path.join(args.workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "ops": manifest,
                   "input_stats": workloads.input_stats(ops)}, fh)


if __name__ == "__main__":
    main()
