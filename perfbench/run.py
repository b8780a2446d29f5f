"""orbipar benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload cohomology|descent|reps --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; orbipar is imported from ``src/``.
The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``, with the metric names and
units that BENCHMARK.json declares; the line before it is a report with the
environment, the input statistics, sample counts and the error rate.  See
perfbench/README.md for the workloads and metrics.

Steps of a run, each in a fresh process where it says so:
  1. generate the seeded inputs (own process, so orbipar's caches start cold);
  2. the timed process: a closed loop, one client, ops one after another
     through ``orbipar.cli.run_command`` for ``--seconds``; then it checks
     every output against its oracle and replays ``corpus/``;
  3. trace 0: between the timed process's passes, and after it, the
     process-start samples, spread in proportion to the timed ops done:
     SETUP_PROBES processes timed from start to ``import orbipar.cli``
     returning, and COLD_SAMPLES fresh ``python -m orbipar.cli`` processes on
     ops drawn by seed, compared byte for byte with the in-process outputs;
     trace 1: one traced pass in a fresh process, compared byte for byte with
     the untraced pass, giving the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "corpus")
WORKLOADS = ("cohomology", "descent", "reps")
SETUP_PROBES = 20  # plus the timed process itself
COLD_SAMPLES = 20
TIMEOUT_S = 150


class RunFailed(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("ORBIPAR_SCALE_BOUND", None)  # every op runs at the default bound
    return env


def _python(args, timeout):
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RunFailed(f"{' '.join(args[:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def _declared_units():
    """Metric name -> unit, for --trace 0 and --trace 1, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]


def _worker(mode, workdir, seconds=0.0, between_passes=None):
    """Run worker.py; return (its result, perf_counter just before it started).

    With ``between_passes``, the worker pauses after each pass but the last,
    and ``between_passes(share)`` runs in the pause, where share is the part
    of ``seconds`` the timed ops have taken so far.
    """
    out = os.path.join(workdir, f"{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workdir", workdir, "--corpus", CORPUS, "--seconds", str(seconds), "--out", out]
    if between_passes is not None:
        cmd.append("--pause")
    with open(os.path.join(workdir, f"{mode}.stderr"), "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                between_passes(min(1.0, json.loads(line)["op_s"] / seconds))
                proc.stdin.write("\n")
                proc.stdin.flush()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            err.seek(0)
            raise RunFailed(f"worker --mode {mode} exited {code}: {err.read()[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), t0


class _ProcessStart:
    """The set-up and cold CLI samples, taken a share at a time."""

    def __init__(self, ops, workdir, rng):
        self.ops, self.workdir = ops, workdir
        self.cold_ops = rng.sample(range(len(ops)), COLD_SAMPLES)
        self.setup_s, self.cold_s, self.cold_digests = [], [], []

    def take(self, share):
        """Take samples until each kind has its share of the total."""
        while len(self.setup_s) < round(share * SETUP_PROBES) or \
                len(self.cold_s) < round(share * COLD_SAMPLES):
            if len(self.setup_s) * COLD_SAMPLES <= len(self.cold_s) * SETUP_PROBES:
                self._setup_probe()
            else:
                self._cold_cli()

    def _setup_probe(self):
        t0 = time.perf_counter()
        proc = _python([os.path.join(HERE, "worker.py"), "--mode", "setup"], 60)
        self.setup_s.append(json.loads(proc.stdout)["ready"] - t0)

    def _cold_cli(self):
        i = self.cold_ops[len(self.cold_s)]
        op = self.ops[i]
        argv = [*op["verb"].split(), os.path.join(self.workdir, op["file"]), *op["flags"]]
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "orbipar.cli", *argv], cwd=ROOT,
                              env=_env(), capture_output=True, text=True, timeout=60)
        self.cold_s.append(time.perf_counter() - t0)
        digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
        self.cold_digests.append((i, f"{proc.returncode}:{digest}"))


def _environment(timed):
    return {"python": timed["python"], "numpy": timed["numpy"],
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "note": "no system-wide tracing and no cache dropping: 'cold' is a fresh "
                    "process with a warm disk cache"}


def _check_corpus(timed):
    summary = timed["corpus"]["summary"]
    passed, _, rest = summary.partition("/")
    total = rest.split()[0] if rest else ""
    if timed["corpus"]["exit"] != 0 or not passed.isdigit() or passed != total:
        raise RunFailed(f"corpus replay did not pass: {summary}")
    return summary


def run(workload, seed, seconds, trace):
    if not os.path.isfile(os.path.join(SRC, "orbipar", "cli.py")) or not os.path.isdir(CORPUS):
        raise RunFailed(f"no orbipar source tree at {ROOT} (need src/orbipar and corpus/)")
    units = _declared_units()[trace]
    workdir = os.path.join(ROOT, ".perfbench_runs", f"{workload}-s{seed}-t{trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        values, report = _measure(workload, seed, seconds, trace, workdir)
    finally:
        for name in ("inputs", "outputs-timed", "outputs-traced"):
            shutil.rmtree(os.path.join(workdir, name), ignore_errors=True)
    if set(values) != set(units):
        raise RunFailed(f"measured metrics {sorted(set(values) ^ set(units))} "
                        "are not the ones BENCHMARK.json declares, or the reverse")
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report))
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def _measure(workload, seed, seconds, trace, workdir):
    _python([os.path.join(HERE, "gen.py"), "--workload", workload, "--seed", str(seed),
             "--workdir", workdir], TIMEOUT_S)
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    ops = manifest["ops"]
    starts = None
    if not trace:
        starts = _ProcessStart(ops, workdir, random.Random(f"cold:{workload}:{seed}"))
    timed, t0 = _worker("timed", workdir, seconds, starts.take if starts else None)
    if not timed["orbipar"].startswith(SRC):
        raise RunFailed(f"orbipar was imported from {timed['orbipar']}, not {SRC}")
    corpus = _check_corpus(timed)

    passes = timed["latencies"]
    bad_ops = {int(i) for i in timed["failures"]}
    attempted = sum(map(len, passes))
    failed = len(bad_ops) * len(passes)
    failures = [f"op {i} ({ops[int(i)]['verb']}): {r}" for i, r in timed["failures"].items()]
    report = {"workload": workload, "seed": seed, "trace": trace,
              "environment": _environment(timed), "input_stats": manifest["input_stats"],
              "corpus": corpus}
    first_pass_s = sum(passes[0])
    if trace:
        traced, _ = _worker("traced", workdir)
        _check_corpus(traced)
        attempted += len(ops)
        failed += len(traced["failures"])
        differ = [i for i, (a, b) in enumerate(zip(timed["digests"], traced["digests"]))
                  if a != b]
        failed += len(differ)
        failures += [f"op {i}: traced output differs from untraced" for i in differ]
        traced_pass_s = sum(traced["latencies"][0])
        values = dict(traced["metrics"], trace_overhead=traced_pass_s / first_pass_s)
        report["samples"] = {"ops": len(ops), "spans": traced["spans"],
                             "traced_pass_s": traced_pass_s, "untraced_pass_s": first_pass_s,
                             "outputs_identical": not differ}
        report["notes"] = ["cocycles.candidates is computed as m^(t(|G|-1)) per h2 "
                           "call (t = generators), not counted inside orbipar",
                           "spans: " + os.path.join(workdir, "spans.npz")]
    else:
        starts.take(1.0)
        starts.setup_s.append(timed["ready"] - t0)
        cold_failed = sum(d != timed["digests"][i] for i, d in starts.cold_digests)
        attempted += len(starts.cold_s)
        failed += cold_failed
        if cold_failed:
            failures.append(f"{cold_failed} cold CLI outputs differ from in-process outputs")
        # The first pass fills orbipar's caches; its cost is what cold_cli_s
        # shows.  The in-process figures come from the passes after it, so
        # that they do not depend on how many passes a machine fits in.
        warm = passes[1:]
        lat = [x for p in warm for x in p]
        correct_per_pass = len(ops) - len(bad_ops)
        values = {
            "setup_s": statistics.median(starts.setup_s),
            "ops_per_s": statistics.median(correct_per_pass / sum(p) for p in warm),
            "op_p50_ms": 1000 * statistics.median(lat),
            "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
            "cold_cli_s": statistics.median(starts.cold_s),
            "peak_rss_mb": timed["rss_kb"] / 1024,
        }
        report["samples"] = {"passes": len(passes), "warm_passes": len(warm),
                             "ops_per_pass": len(ops), "ops": len(lat),
                             "first_pass_s": first_pass_s,
                             "warm_pass_s": [sum(p) for p in warm],
                             "setup": len(starts.setup_s), "setup_s": starts.setup_s,
                             "cold_cli": len(starts.cold_s), "cold_cli_s": starts.cold_s}
    report["attempted"], report["failed"] = attempted, failed
    report["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    report["failures"] = failures[:10]
    return values, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (RunFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
