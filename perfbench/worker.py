"""Worker process of the benchmark: set up one workload, then run it.

run.py starts this script in a fresh interpreter with ``PYTHONPATH`` set to
the checkout's ``src`` directory and the thread variables of its choice.
Every mode first sets up: import wbary (not for ``cli``, whose instances
import it in their own processes), build the warm-up input and run the
warm-up instance.  ``ready`` is ``time.monotonic()`` at that point, so the
parent can subtract its own launch time.  Then:

``setup``   stop.
``timed``   run whole cycles of instances, one at a time, until
            ``--seconds`` have passed; record each instance's latency and
            status (ok; failed: the library raised or its verdict was
            negative; wrong: an output broke a guarantee, see workloads.py).
``traced``  run ``--cycles`` whole cycles; every instance runs once without
            and once with the tracer, alternating which goes first, and the
            spans are written to ``--spans``.

The result is one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer


def _failures(wl, src):
    """Exception types that count as a failed instance, not a crash."""
    if wl.name == "cli":
        return (workloads.InstanceFailure,)
    import wbary
    from wbary.errors import WbaryError

    if not Path(wbary.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"wbary imported from {wbary.__file__}, not {src}")
    return (workloads.InstanceFailure, WbaryError)


def run_one(wl, x, ctx, failures):
    """(latency in s, status, message); status is ok, failed or wrong."""
    t0 = time.perf_counter()
    try:
        out = wl.run(x, ctx)
    except failures as exc:
        return (time.perf_counter() - t0, workloads.FAILED,
                f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    verdict = wl.check(x, out)
    return (latency, *(verdict or (workloads.OK, None)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--cycles", type=int, default=1)
    ap.add_argument("--size", choices=workloads.SIZES, default="bench")
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    wl = workloads.get(args.workload, args.size)
    failures = _failures(wl, args.src)
    ctx = workloads.Context(args.workdir)
    # The warm-up instance has the tiny size of the first class: it pays
    # first-call costs (lazy imports, LP solver start) without adding noise.
    warm_input = workloads.get(args.workload, "tiny").make(
        args.seed, workloads.WARMUP, 0)
    warm = run_one(wl, warm_input, ctx, failures)
    result = {"ready": time.monotonic(), "warmup": warm[1:]}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    ncls = len(wl.classes)
    records = []  # [class, latency, status, message]
    t0 = time.perf_counter()
    if args.mode == "timed":
        i = 0
        while i % ncls or time.perf_counter() - t0 < args.seconds:
            x = wl.make(args.seed, workloads.TIMED, i)
            records.append([i % ncls, *run_one(wl, x, ctx, failures)])
            i += 1
    else:
        tracer = Tracer()
        walls = {False: 0.0, True: 0.0}
        for i in range(args.cycles * ncls):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                x = wl.make(args.seed, workloads.TIMED, i)
                if not traced:
                    rec = run_one(wl, x, ctx, failures)
                    records.append([i % ncls, *rec])
                    walls[False] += rec[0]
                    continue
                tracer.install()
                ctx.tracer = tracer
                sid = tracer.open("instance", {"class": i % ncls})
                rec = run_one(wl, x, ctx, failures)
                tracer.close(sid, failed=rec[1] != workloads.OK)
                ctx.tracer = None
                tracer.uninstall()
                walls[True] += rec[0]
        tracer.dump(args.spans)
        result.update(untraced_wall=walls[False], traced_wall=walls[True],
                      missing=tracer.missing)
    result.update(wall=time.perf_counter() - t0, records=records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
