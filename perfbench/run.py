"""wbary benchmark: three workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout (the directory holding ``src/wbary``):

    python3 perfbench/run.py --workload transport --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload cli --seed 1 --seconds 40 --trace 1

Workloads (``--workload``; BENCHMARK.json lists the gated ones and says why
each was chosen; ``density`` is not among them: on a 2-vCPU VM its timings
drifted by over a third within minutes, more than the others, and its
layers are also measured on ``cli``):

``transport``  solve_mmot, barycenter_measure and N pair LPs on seeded
               families, N in {2, 3}, d in {1, 2}, p in {1.7, 2, 3}; checks
               C_MM = sum_i w_i W_p^p(mu_i, nu) within the LP tolerance,
               1e-7 (1 + C), and notes gaps above wbary's 1e-8 (1 + C).
``density``    pushforward_density, lq_via_changevar and general_lq_bound on
               seeded Dirac configurations, d in {1, 2}, p in {1.7, 2.5};
               the mass must be ok and the bound must dominate unless it
               reports divergence.
``cli``        ``wbary run --kind K --p P`` for the six kinds at p in
               {1.7, 3}, and ``wbary selftest --fast`` (exit 3, with
               stated-band-p-lt2 its only FAIL), each in a fresh process.
               Its kinds and the battery make this the gated workload that
               measures the semidiscrete and bounds layers, check_cp_monotone
               and local_injectivity_check.

``--seed`` fixes every input.  Each workload is a closed loop: one client,
one instance at a time, in one worker process that runs NumPy and OpenBLAS
with one thread.

``--trace 0`` measures the end-to-end metrics.  Five fresh workers each
import wbary, build the warm-up input and run the warm-up instance;
``setup_s`` is the median time from launching one to its first timed
instance.  The last worker then runs whole cycles of instances until
``--seconds`` have passed and gives ``class_p50_s`` (the median latency
of each input class, geometric mean over the classes),
``instances_per_s`` (instances finished per second of the timed phase) and,
through ``getrusage(RUSAGE_CHILDREN)``, ``peak_rss_mb``.  It also prints,
outside the JSON, ``instance_p50_s`` and ``instance_p90_s`` over all
instances, with the number of samples beyond the latter,
and ``error_rate``: instances that raised or failed their check over
instances attempted.

``--trace 1`` measures the per-layer metrics.  A worker runs a fixed number
of whole cycles (so counts repeat exactly for a seed); each instance runs
once untraced and once with spans around wbary's layer boundaries (see
tracing.py).  ``trace.overhead_frac`` is traced over untraced wall time,
minus one.  ``cli.import_s`` and ``cli.import.scipy_s`` come from a fresh
``import wbary`` and ``python -X importtime``.

Results: human-readable lines, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics for
``--trace 0``, the per-layer ones for ``--trace 1``).  ``failed`` counts
instances that raised a library error, got a negative verdict from the
library, or broke a guarantee; ``correct`` is false only for the last kind
(workloads.py lists which check is which).  The inputs keep clear of two
known library defects that fail a random few instances, which would make a
run's failure count depend on its length: ``ConvergenceError`` of the
p-barycenter solver at p = 1.5 (p = 1.7 stands for p < 2) and the
under-resolved pushforward mass at p = 3 (density uses p = 2.5 above 2).
``--out FILE`` also writes everything, with the environment and per-class
latencies, as JSON.
Spans of a traced run land in ``.bench_work/spans-<workload>-seed<seed>.jsonl``.

Exit codes: 0 every output checked correct; 1 a check failed (the result
is still printed) or a worker broke; 2 no ``src/wbary`` beside this
directory (nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ENV_PROBE = """
import importlib.metadata as md, json, os, platform
import numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "nproc": len(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": md.version("numpy"),
    "scipy": md.version("scipy"),
    "blas": f"{blas.get('name')} {blas.get('version')}",
}))
"""

IMPORT_PROBE = """
import time
t = time.perf_counter()
import wbary
print(time.perf_counter() - t)
"""


class WorkerError(RuntimeError):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(cmd, env, cwd, deadline):
    """Run a child in its own session; kill the whole session at the deadline."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{cmd[1:3]} did not finish before the deadline")
    return proc.returncode, out, err


class Bench:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.src = root / "src"
        self.env = child_env(self.src)
        self.workdir = root / ".bench_work"
        self.workdir.mkdir(exist_ok=True)
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, mode, **extra):
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--mode", mode, "--size", a.size,
               "--src", str(self.src), "--workdir", str(self.workdir)]
        for key, value in extra.items():
            cmd += [f"--{key}", str(value)]
        launched = time.monotonic()
        code, out, err = run_child(cmd, self.env, self.root, self.deadline)
        if code != 0:
            raise WorkerError(f"worker ({mode}) exited {code}:\n{err[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - launched
        return result

    def probe(self, args):
        code, out, err = run_child([sys.executable] + args, self.env,
                                   self.root, self.deadline)
        if code != 0:
            raise WorkerError(f"probe {args[:2]} exited {code}:\n{err[-2000:]}")
        return out, err


def _scipy_import_s(importtime_stderr: str) -> float:
    """Sum of self times of scipy modules in ``-X importtime`` output."""
    total_us = 0
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            name = parts[2].strip()
            if name == "scipy" or name.startswith("scipy."):
                total_us += int(parts[0].split(":")[1])
    return total_us / 1e6


def summarize(records):
    lat = [r[1] for r in records]
    bad = [r for r in records if r[2] != workloads.OK]
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    return {
        "attempted": len(records),
        "failed": len(bad),
        "wrong": [r[3] for r in records if r[2] == workloads.WRONG],
        "errors": [r[3] for r in records if r[2] == workloads.FAILED],
        "notes": [r[3] for r in records if r[2] == workloads.OK and r[3]],
        "p50": statistics.median(lat),
        "class_p50": class_p50(records),
        "p90": p90,
        "beyond_p90": sum(x > p90 for x in lat),
        "error_rate": len(bad) / len(records),
    }


def class_p50(records):
    """Geometric mean over input classes of the median latency in each class.

    Unlike the median of all latencies, it does not jump when machine speed
    shifts which class sits at the middle rank of a mixed workload.
    """
    by_class = {}
    for cls, lat, *_ in records:
        by_class.setdefault(cls, []).append(lat)
    return statistics.geometric_mean(
        [statistics.median(v) for v in by_class.values()])


def per_class(records, wl):
    out = {}
    for cls, lat, status, _ in records:
        label = ",".join(f"{k}={v}" for k, v in wl.classes[cls].items())
        entry = out.setdefault(label, {"n": 0, "failed": 0, "latencies": []})
        entry["n"] += 1
        entry["failed"] += status != workloads.OK
        entry["latencies"].append(lat)
    for entry in out.values():
        entry["median_s"] = statistics.median(entry.pop("latencies"))
    return out


def measure_untraced(bench, wl):
    setups = [bench.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = bench.worker("timed", seconds=bench.args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    setups.append(main["setup_s"])
    s = summarize(main["records"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "class_p50_s": (s["class_p50"], "s"),
        "instances_per_s": (s["attempted"] / main["wall"], "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"setup_s {metrics['setup_s'][0]:.6g} s (median of {len(setups)}: "
        + ", ".join(f"{x:.4g}" for x in setups) + ")",
        f"class_p50_s {s['class_p50']:.6g} s (n={s['attempted']}, "
        f"{len(wl.classes)} classes)",
        f"instance_p50_s {s['p50']:.6g} s (n={s['attempted']}; not a gated metric)",
        f"instance_p90_s {s['p90']:.6g} s (n={s['attempted']}, "
        f"{s['beyond_p90']} beyond; not a gated metric)",
        f"instances_per_s {metrics['instances_per_s'][0]:.6g} 1/s "
        f"({s['attempted']} in {main['wall']:.4g} s)",
        f"peak_rss_mb {rss_mb:.6g} MB",
        f"error_rate {s['error_rate']:.6g} ({s['failed']}/{s['attempted']})",
    ]
    extra = {"setup_samples_s": setups, "timed_wall_s": main["wall"],
             "instance_p90_s": s["p90"], "beyond_p90": s["beyond_p90"],
             "per_class": per_class(main["records"], wl)}
    return s, metrics, lines, extra


def measure_traced(bench, wl):
    spans_path = bench.workdir / (
        f"spans-{bench.args.workload}-seed{bench.args.seed}.jsonl")
    res = bench.worker("traced", cycles=wl.trace_cycles, spans=spans_path)
    with open(spans_path) as fh:
        spans = [json.loads(line) for line in fh]
    s = summarize(res["records"])
    metrics = tracing.layer_metrics(spans)
    out, _ = bench.probe(["-c", IMPORT_PROBE])
    metrics["cli.import_s"] = (float(out.strip()), "s")
    _, err = bench.probe(["-X", "importtime", "-c", "import wbary"])
    metrics["cli.import.scipy_s"] = (_scipy_import_s(err), "s")
    overhead = res["traced_wall"] / res["untraced_wall"] - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    metrics["error_rate"] = (s["error_rate"], "frac")
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"traced {s['attempted']} instances ({wl.trace_cycles} cycles): "
        f"untraced {res['untraced_wall']:.4g} s, traced {res['traced_wall']:.4g} s"
        f"; spans in {spans_path.relative_to(bench.root)}")
    if res["missing"]:
        lines.append("not traced (absent from wbary): " + ", ".join(res["missing"]))
    extra = {"spans": str(spans_path), "untraced_wall_s": res["untraced_wall"],
             "traced_wall_s": res["traced_wall"], "not_traced": res["missing"]}
    return s, metrics, lines, extra


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed phase (whole cycles, at least this)")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="bench",
                    help="input sizes; 'tiny' is for the self-tests")
    ap.add_argument("--out", type=Path, help="also write the full result here")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "wbary" / "__init__.py").is_file():
        print(f"error: no src/wbary under {root}; run from a wbary checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative",
              file=sys.stderr)
        return 2

    bench = Bench(args, root)
    wl = workloads.get(args.workload, args.size)
    measure = measure_traced if args.trace else measure_untraced
    try:
        s, metrics, lines, extra = measure(bench, wl)
        env_out, _ = bench.probe(["-c", ENV_PROBE])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = json.loads(env_out)
    env.update({var: bench.env[var] for var in THREAD_VARS})

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} size {args.size}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    if s["notes"]:
        print(f"notes on {len(s['notes'])} passing instances, first: {s['notes'][0]}")
    for msg in s["errors"][:5]:
        print(f"failed: {msg[:300]}")
    for msg in s["wrong"][:5]:
        print(f"WRONG: {msg[:300]}")
    result = {
        "correct": not s["wrong"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out:
        full = dict(result, workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=args.trace, size=args.size,
                    env=env, errors=s["errors"], wrong=s["wrong"],
                    notes=s["notes"], **extra)
        args.out.write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
