"""One measured process: set-up probe, timed closed loop, or traced pass.

Run by ``run.py`` as a fresh interpreter with orbipar's ``src`` on
PYTHONPATH.  Importing ``orbipar.cli`` is the first thing it does, so the
set-up time is interpreter start plus that import and nothing else.

  --mode setup   print the moment the import returned, and exit
  --mode timed   send every op of the pass through ``run_command``, one after
                 another, pass after pass, until the ops have taken
                 ``--seconds``, at least WARM_PASSES passes followed the
                 first and those ran at least MIN_OPS ops; then check outputs
                 and replay the golden corpus.  With ``--pause`` it writes a
                 line to stdout after each pass but the last and waits for a
                 line on stdin, so that the parent can take its process-start
                 samples between passes, outside the timed ops
  --mode traced  one pass with span wrappers installed, then the corpus
                 replay, also traced (op id -1), so that every layer shows up
                 in every traced run

Only a digest of each op's output stays in memory during the passes, so that
``ru_maxrss`` is the CLI's memory and not the harness's.  The first pass's
outputs are written to the run directory and read back for the oracles once
``ru_maxrss`` has been read.
"""

import sys
import time

import orbipar.cli

READY = time.perf_counter()

import argparse  # noqa: E402  (after the timed import on purpose)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

MIN_OPS = 100
WARM_PASSES = 2


def _digest(code, text):
    return f"{code}:{hashlib.sha256(text.encode('utf-8')).hexdigest()}"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workdir")
    parser.add_argument("--corpus")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--pause", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.mode == "setup":
        print(json.dumps({"ready": READY}))
        return 0

    with open(os.path.join(args.workdir, "manifest.json"), encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    argvs = [[*op["verb"].split(), os.path.join(args.workdir, op["file"]), *op["flags"]]
             for op in ops]
    outdir = os.path.join(args.workdir, f"outputs-{args.mode}")
    os.makedirs(outdir, exist_ok=True)
    outputs = [os.path.join(outdir, f"op_{i:03d}.txt") for i in range(len(ops))]
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    run_command = orbipar.cli.run_command  # looked up after any patching

    digests = [None] * len(ops)
    mismatches = [0] * len(ops)
    latencies = []  # one list per pass
    while True:
        lat = []
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.op_id = i
            t0 = time.perf_counter()
            try:
                code, text = run_command(argv)
            except Exception as exc:  # a traceback for a CLI user: a failed op here
                code, text = "raised", f"{type(exc).__name__}: {exc}"
            lat.append(time.perf_counter() - t0)
            digest = _digest(code, text)
            if digests[i] is None:
                digests[i] = digest
                with open(outputs[i], "w", encoding="utf-8") as fh:
                    json.dump([code, text], fh)
            elif digests[i] != digest:
                mismatches[i] += 1
            del text
        latencies.append(lat)
        op_s = sum(map(sum, latencies))
        warm = latencies[1:]
        if tracer is not None or (op_s >= args.seconds and len(warm) >= WARM_PASSES
                                  and sum(map(len, warm)) >= MIN_OPS):
            break
        if args.pause:
            print(json.dumps({"passes": len(latencies), "op_s": op_s}), flush=True)
            sys.stdin.readline()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy
    import oracles
    failures = {}
    for i, op in enumerate(ops):
        with open(argvs[i][2], encoding="utf-8") as fh:
            op = dict(op, payload=json.load(fh))
        with open(outputs[i], encoding="utf-8") as fh:
            reason = oracles.check(op, *json.load(fh))
        if reason is None and mismatches[i]:
            reason = f"output differed between passes {mismatches[i]} times"
        if reason is not None:
            failures[i] = reason
    result = {"ready": READY, "latencies": latencies, "digests": digests,
              "failures": failures, "rss_kb": rss_kb, "python": platform.python_version(),
              "numpy": numpy.__version__, "orbipar": orbipar.cli.__file__}
    if tracer is not None:
        tracer.op_id = -1  # the corpus replay below is traced too
    code, text = orbipar.cli.run_corpus(args.corpus)
    result["corpus"] = {"exit": code, "summary": text.strip().splitlines()[-1]}
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        result["spans"] = len(tracer.span_name)
        tracer.write_spans(os.path.join(args.workdir, "spans.npz"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
