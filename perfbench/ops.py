"""Run one `crofton verify` operation in-process and check its report.

The check does not trust the program's verdict: it recomputes every analytic
value a report quotes from the closed forms below, recomputes every z-score
from the reported estimate and standard error, and re-derives pass or fail
from that evidence with the target's stated rule.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from workloads import A, Verdict

RETRY_SEED_OFFSET = 1_000_003  # the program's documented retry seed: seed + 1_000_003
# Lambda([square:1]) per measure: width 1 in both axis directions; perimeter 4 over pi
LAMBDA_K = {"discrete-xy": 1.0, "isotropic": 4.0 / math.pi}
N_TERMS = 400


@dataclass
class OpResult:
    target: str
    seed: int
    wall_s: float
    rc: int | None
    exception: str | None = None
    digest: str | None = None
    attempts: int = 0
    samples: int = 0
    problems: list = field(default_factory=list)
    ref_s: float | None = None  # the host's reference-loop time around this operation (run.py)

    @property
    def failed(self) -> bool:
        return self.rc != 0


def run_op(main, verdict: Verdict, seed: int, out_path: str) -> OpResult:
    """One operation: `main(argv)` run to completion, then its `--out` bytes checked."""
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(verdict.argv(seed, out_path))
    except SystemExit as e:  # argparse rejected the operation's flags
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # the operation boundary: record the failure and go on
        rc, exception = None, type(e).__name__
    wall = time.perf_counter() - t0
    res = OpResult(verdict.target, seed, wall, rc, exception)
    if rc not in (0, 1):
        return res
    with open(out_path, "rb") as f:
        blob = f.read()
    res.digest = hashlib.sha256(blob).hexdigest()
    try:
        doc = json.loads(blob)
        res.attempts = len(doc["report"]["attempts"])
        res.problems = check_report(doc, verdict, seed, rc, stdout.getvalue())
    except (ValueError, KeyError, TypeError, IndexError) as e:
        res.problems = [f"malformed report: {type(e).__name__}: {e}"]
    res.samples = res.attempts * verdict.samples
    return res


# ---------------------------------------------------------------------------
# closed forms, written independently of crofton.renewal


def _q(lam: float, n: int) -> float:
    return math.exp(-(1.0 - A ** -n) * lam)


def _p(lam: float, n_max: int) -> np.ndarray:
    """Interarrival law from the renewal equation q_n = sum_k p_k q_{n-k}, q_0 = 1."""
    q = [1.0] + [_q(lam, n) for n in range(1, n_max + 1)]
    p = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        p[n] = q[n] - sum(p[k] * q[n - k] for k in range(1, n))
    return p


@functools.lru_cache(maxsize=None)
def analytic_values(lam: float) -> dict:
    """Analytic value of every estimate name a verify report can quote."""
    p = _p(lam, N_TERMS)
    rho = math.exp(lam)
    succ = math.exp(-(A + 1.0 / A - 2.0) * lam)
    out = {"mean_gap": rho, "ergodic_average": math.exp(-lam), "split_conditional": succ}
    for n in range(1, 16):
        out[f"q[{n}]"] = _q(lam, n)
        out[f"p[{n}]"] = p[n]
        out[f"spanning[{n}]"] = n * p[n] / rho
        out[f"forward[{n - 1}]"] = (1.0 - p[: n].sum()) / rho
    return out


def _pattern_value(name: str, lam: float) -> float | None:
    m = re.fullmatch(r"pattern\[J=(\d+),Z=(\d+)\]", name)
    if m is None:
        return None
    succ = math.exp(-(A + 1.0 / A - 2.0) * lam)
    return succ ** int(m[1]) * (1.0 - succ) ** int(m[2])


def _check_estimate(est: dict, lam: float, table: dict, n_sigma: float, problems: list) -> bool:
    """Check one estimate dict; return whether it lies within n_sigma of its analytic value."""
    name = est["name"]
    want = table.get(name, _pattern_value(name, lam))
    if want is None:
        problems.append(f"{name}: no closed form known")
        return False
    if not math.isclose(est["analytic"], want, rel_tol=1e-8, abs_tol=1e-12):
        problems.append(f"{name}: analytic {est['analytic']!r} != closed form {want!r}")
    z = (est["estimate"] - want) / est["stderr"]
    if not math.isclose(est["zscore"], z, rel_tol=1e-6, abs_tol=1e-6):
        problems.append(f"{name}: zscore {est['zscore']!r} != recomputed {z!r}")
    return abs(z) <= n_sigma


def _check_two_sample(res: dict, n: int, problems: list) -> bool:
    k = len(res["bodies"])
    if res["n_a"] != n or res["n_b"] != n:
        problems.append(f"two-sample sizes {res['n_a']}/{res['n_b']} != {n}")
    for fa, fb, z in zip(res["freq_a"], res["freq_b"], res["zscores"]):
        pool = (fa + fb) / 2.0
        se = math.sqrt(max(pool * (1.0 - pool), 1e-300) * 2.0 / n)
        if not math.isclose((fa - fb) / se, z, rel_tol=1e-6, abs_tol=1e-6):
            problems.append(f"two-sample zscore {z!r} != recomputed {(fa - fb) / se!r}")
    ok = all(pv >= res["level"] / k for pv in res["pvalues"])
    if ok != res["passed"]:
        problems.append("two-sample verdict disagrees with its p-values")
    return ok


def _attempt_ok(target: str, ev, verdict: Verdict, lam: float, table: dict, problems: list) -> bool:
    def est(e, n_sigma=3.0):
        return _check_estimate(e, lam, table, n_sigma, problems)

    if target == "q":
        return all([est(e) for e in ev])
    if target == "p":
        return ev["max_cross_method_diff"] < 1e-10 and all([est(e) for e in ev["gaps"]])
    if target == "renewal":
        exact = abs(ev["exact_mean"] - math.exp(lam)) < 1e-6
        mc = [est(ev["mean_gap"])] + [est(e) for e in ev["spanning"] + ev["forward"]]
        return exact and all(mc) and ev["censor_bias_bound"] < 0.1 * ev["mean_gap"]["stderr"]
    if target == "conditional":
        pats = [est(e) and e["n"] >= 1000 for e in ev["patterns"]]
        split = est(ev["split_conditional"])
        thin = math.exp(-(A - 1.0) * lam)
        sep = abs(ev["split_conditional"]["estimate"] - thin) / ev["split_conditional"]["stderr"]
        return all(pats) and split and abs(table["split_conditional"] - thin) > 1e-3 and sep >= 10.0
    if target == "ergodic":
        return all([est(e, 4.0) for e in ev])
    n = int(verdict.flags[verdict.flags.index("--reps") + 1])
    if target == "scaling":
        return all([_check_two_sample(r, n, problems) for r in ev.values()])
    return _check_two_sample(ev, n, problems)


def check_report(doc: dict, verdict: Verdict, seed: int, rc: int, stdout: str) -> list:
    """Problems found in one report; empty when the report is consistent and correct."""
    problems = []
    target, report = verdict.target, doc["report"]
    if doc["meta"]["seed"] != seed or doc["meta"]["command"] != f"verify {target}":
        problems.append("meta does not describe the requested operation")
    if report["target"] != target or report["passed"] != (rc == 0):
        problems.append("report target or verdict disagrees with the exit code")
    if f"verify {target}: {'PASS' if rc == 0 else 'FAIL'}" not in stdout:
        problems.append("no verdict line on stdout")
    attempts = report["attempts"]
    if [a["seed"] for a in attempts] != [seed, seed + RETRY_SEED_OFFSET][: len(attempts)]:
        problems.append("attempt seeds do not follow the retry rule")
    lam = LAMBDA_K[verdict.measure]
    table = analytic_values(lam)
    oks = [_attempt_ok(target, a["evidence"], verdict, lam, table, problems) for a in attempts]
    if [a["passed"] for a in attempts] != oks:
        problems.append(f"attempt verdicts {[a['passed'] for a in attempts]} != re-derived {oks}")
    if oks[-1] != report["passed"] or any(oks[:-1]):
        problems.append("retry rule not followed")
    return problems
