"""crofton benchmark: closed-loop `crofton verify` operations, judged and timed.

    python3 perfbench/run.py --workload paths-axis --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD NEW

One client in one process runs a workload's cycle of verify operations, each
to completion before the next starts (`--workers 1`, CROFTON_WORKERS unset),
until at least `--seconds` have passed and at least MIN_VERDICTS verdicts are
in. Every report is checked (see ops.py). The last stdout line is the result
JSON. With `--trace 0` it holds the end-to-end metrics: times are scaled to a
nominal host speed, gauged by a fixed reference loop timed between
operations (see `scaled`); the unscaled figures go to the result file. With
`--trace 1`,
operations run untraced for half of `--seconds`, then the same operations run
traced, and the per-layer metrics come from the traced pass. Each run also
writes `.perfbench/results/<workload>-s<seed>-t<trace>.json` (provenance,
per-verdict times and digests) and, when traced, the spans next to it.
`--compare` reads two such files or directories and prints every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ops import run_op
from workloads import WORKLOADS, op_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKERS_ENV = "CROFTON_WORKERS"
MIN_VERDICTS = 11  # the tail percentile needs ten verdicts beyond it
SETUP_PROBES = 5
REF_LOOPS = 250_000
# median time of reference() on the 2-core Xeon of README.md (Python 3.11.7)
REF_NOMINAL_S = 0.024


def import_crofton():
    """Put the checkout's sources first on the path; crofton is never taken from elsewhere."""
    if not (SRC / "crofton" / "__init__.py").is_file():
        sys.exit(f"perfbench: no crofton sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crofton.cli

    return crofton.cli


# ---------------------------------------------------------------------------
# measurement


def reference() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed at this moment.

    The host's cores are shared; its speed drifts by a third within seconds
    and between runs, and crofton's operations slow down in step with this loop.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOPS):
        s += i * i
    return time.perf_counter() - t0


def scaled(wall_s: float, ref_s: float) -> float:
    """A wall time scaled to the nominal host speed, at which reference() takes REF_NOMINAL_S."""
    return wall_s * REF_NOMINAL_S / ref_s


def run_ops(main, workload, seed: int, seconds: float, out_path: str, count: int | None = None, rec=None,
            gauge: bool = False, between=None):
    """Run operations k = 0, 1, ...: exactly `count` of them, or enough to fill `seconds`.

    With `gauge`, reference() runs before the first operation and after each
    one, and each result's `ref_s` is the mean of the two that bracket it.
    `between(elapsed_s)` runs after each operation; its time counts in `seconds`.
    """
    if rec is not None:
        main = rec.wrap("cli.main", main)
    results = []
    t0 = time.perf_counter()
    before = reference() if gauge else None
    k = 0
    while True:
        if count is not None:
            if k >= count:
                break
        elif k >= MIN_VERDICTS and time.perf_counter() - t0 >= seconds:
            break
        if rec is not None:
            rec.verdict = k
        res = run_op(main, workload.verdict(k), op_seed(workload.name, seed, k), out_path)
        if gauge:
            after = reference()
            res.ref_s, before = (before + after) / 2, after
        results.append(res)
        k += 1
        if between is not None and between(time.perf_counter() - t0) and gauge:
            before = reference()  # the host may have changed speed while `between` ran
    return results, time.perf_counter() - t0


def tail(times: list):
    """Highest order statistic with at least ten verdicts beyond it: (value, level, count)."""
    ordered = sorted(times)
    i = len(ordered) - 11
    return ordered[i], (i + 1) / len(ordered), len(ordered)


def cycle_rate(results: list, walls: list, cycle: int) -> float:
    """Samples per second of a typical cycle: per-position medians of samples and of wall time.

    Medians keep a slow spell of the machine during a minority of the
    verdicts out of the figure, and a run that stops inside a cycle still
    weights every operation of the cycle once.
    """
    samples = [statistics.median(r.samples for r in results[i::cycle]) for i in range(cycle)]
    return sum(samples) / sum(statistics.median(walls[i::cycle]) for i in range(cycle))


def setup_time(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: import crofton and build this workload's inputs."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, env=dict(os.environ), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def summary(results: list) -> dict:
    problems = [f"op {k} ({r.target}, seed {r.seed}): {p}" for k, r in enumerate(results) for p in r.problems]
    failures = {}
    for r in results:
        if r.failed:
            key = r.exception or f"exit {r.rc}"
            failures[key] = failures.get(key, 0) + 1
    return {"attempted": len(results), "failed": sum(r.failed for r in results),
            "failures": failures, "problems": problems}


def provenance(workload, seed: int, removed_env) -> dict:
    import numpy
    import scipy

    sha = cpu = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload.name,
        "workload_seed": seed,
        "workload_mix": workload.describe(),
        "crofton_workers_env": removed_env,
        "crofton_workers_env_unset": True,
        "load": "closed loop, 1 client, 1 process, --workers 1",
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    main = import_crofton().main
    removed = os.environ.pop(WORKERS_ENV, None)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "results").mkdir(exist_ok=True)
    out_path = str(OUT_DIR / f"out-{workload.name}.json")
    tag = f"{workload.name}-s{seed}-t{int(trace)}"
    doc = {"provenance": provenance(workload, seed, removed), "seconds": seconds, "trace": int(trace)}

    if not trace:
        # set-up probes spread evenly over the run, so that their median spans
        # the state of the machine over the whole run; a probe takes longer
        # than the host keeps one speed, so it is scaled by the run's median gauge
        setups = [setup_time(workload.name, seed)]

        def probe(elapsed: float) -> bool:
            if len(setups) >= SETUP_PROBES - 1 or elapsed < len(setups) * seconds / (SETUP_PROBES - 1):
                return False
            setups.append(setup_time(workload.name, seed))
            return True

        results, _ = run_ops(main, workload, seed, seconds, out_path, gauge=True, between=probe)
        while len(setups) < SETUP_PROBES:
            setups.append(setup_time(workload.name, seed))
        cycle = len(workload.cycle)
        raw = [r.wall_s for r in results]
        times = [scaled(r.wall_s, r.ref_s) for r in results]
        refs = [r.ref_s for r in results]
        tail_s, level, n = tail(times)
        metrics = {
            "samples_per_s": (cycle_rate(results, times, cycle), "1/s"),
            "verdict_p50_s": (statistics.median(times), "s"),
            "verdict_tail_s": (tail_s, "s"),
            "setup_s": (scaled(statistics.median(setups), statistics.median(refs)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        doc.update(
            tail={"level": level, "verdicts": n},
            setup_runs_s=setups,
            reference={"nominal_s": REF_NOMINAL_S, "median_s": statistics.median(refs),
                       "min_s": min(refs), "max_s": max(refs)},
            unscaled={"samples_per_s": cycle_rate(results, raw, cycle),
                      "verdict_p50_s": statistics.median(raw), "verdict_tail_s": tail(raw)[0],
                      "setup_s": statistics.median(setups)},
        )
        correct = True
    else:
        from tracing import Recorder, layer_metrics, traced

        # half the time untraced, then the same operations traced, so that a
        # traced run takes about as long as an untraced one
        plain, plain_wall = run_ops(main, workload, seed, seconds / 2, out_path)
        rec = Recorder()
        with traced(rec):
            results, wall = run_ops(main, workload, seed, seconds, out_path, count=len(plain), rec=rec)
        rec.write(str(OUT_DIR / "results" / f"{tag}-spans.json"))
        metrics = layer_metrics(rec, wall, plain_wall)
        correct = [r.digest for r in plain] == [r.digest for r in results]
        doc["digests_match_untraced"] = correct
        doc["untraced_problems"] = summary(plain)["problems"]
        correct = correct and not doc["untraced_problems"]

    s = summary(results)
    correct = correct and not s["problems"]
    doc["verdicts"] = [
        {"target": r.target, "seed": r.seed, "wall_s": r.wall_s, "ref_s": r.ref_s, "rc": r.rc, "exception": r.exception,
         "attempts": r.attempts, "samples": r.samples, "digest": r.digest}
        for r in results
    ]
    doc.update(failures=s["failures"], problems=s["problems"])
    doc["result"] = {
        "correct": correct,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / "results" / f"{tag}.json", "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    return doc


# ---------------------------------------------------------------------------
# comparison


def load_results(path: str) -> dict:
    """{(workload, metric): (median value, unit)} over one result file or a directory of them."""
    p = Path(path)
    files = sorted(p.glob("*-t[01].json")) if p.is_dir() else [p]
    values = {}
    for fp in files:
        with open(fp) as f:
            doc = json.load(f)
        w = doc["provenance"]["workload"]
        for name, m in doc["result"]["metrics"].items():
            values.setdefault((w, name), ([], m["unit"]))[0].append(m["value"])
    return {k: (statistics.median(v), u) for k, (v, u) in values.items()}


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def compare(old_path: str, new_path: str) -> None:
    """Print each metric per workload: old, new, and new/old with its base."""
    old, new = load_results(old_path), load_results(new_path)
    print(f"{'workload':<20} {'metric':<34} {'unit':<6} {'old':>14} {'new':>14}  new/old")
    for key in sorted(set(old) | set(new)):
        o, unit = old.get(key, (None, None))
        n, unit = new.get(key, (None, unit))
        ratio = f"{n / o:.4f} (base old = {o:.6g})" if o and n is not None else "n/a"
        print(f"{key[0]:<20} {key[1]:<34} {unit:<6} {_fmt(o):>14} {_fmt(n):>14}  {ratio}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    doc = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in doc["problems"]:
        print("problem:", line)
    if "tail" in doc:
        print(f"verdict_tail_s is the {doc['tail']['level']:.3f} quantile of {doc['tail']['verdicts']} verdicts")
        ref, raw = doc["reference"], doc["unscaled"]
        print(f"reference loop median {ref['median_s']:.4f} s (nominal {ref['nominal_s']} s); unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    if doc["failures"]:
        print("failures:", json.dumps(doc["failures"], sort_keys=True))
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
