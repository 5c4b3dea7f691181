"""Reproducible Monte Carlo estimation of the renewal-structure quantities.

Replications are partitioned into fixed-size blocks; block j draws exclusively
from the counter-based Philox substream keyed by (master seed, j), so every
estimate is bit-identical for a given seed regardless of how blocks are
distributed over workers. Standard errors are taken at the analytic value
(score errors): binomial for ratios and frequencies, per-path cluster
residuals for the gap estimators; batch means for the single-path average.
"""
from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientConditioningEvents
from .geometry import ConvexPolygon, contains, scale  # noqa: F401 (perfbench rebinds the unused `contains`)
from .measure import LineMeasure, kappa_to_config, lambda_of
from .renewal import (
    RegenParams,
    conditional_pattern_prob,
    marginal_thinning_ratio,
    p_by_renewal_recursion,
    p_vector,
    q_vector,
    stationary_delay,
)
from .rng import GENERATOR_FAMILY, substream
from .zero_cell import make_path_engine

__all__ = [
    "BLOCK",
    "ExperimentSpec",
    "EstimateReport",
    "ConditionalPattern",
    "ContainmentTest",
    "Experiment",
    "simulate_indicator_paths",
    "ergodic_average",
    "two_sample_containment_test",
]

BLOCK = 4096
# the 0.995 standard normal quantile as scipy's norm.ppf gives it; NormalDist().inv_cdf
# lands one ulp lower, which would change the bytes of every report's ci99
Z99 = 2.5758293035489004


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment bit-for-bit."""

    measure: LineMeasure
    a: float
    body: ConvexPolygon
    replications: int
    path_length: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.path_length < 1:
            raise ValueError("path_length must be >= 1")
        if not self.a > 1.0:
            raise ValueError("a must exceed 1")

    @property
    def lambda_k(self) -> float:
        return lambda_of(self.measure, self.body)

    @property
    def params(self) -> RegenParams:
        return RegenParams(self.lambda_k, self.a)

    def to_dict(self) -> dict:
        # workers is an execution-resource knob; results are identical for any
        # value, so it stays out of the experiment identity
        return {
            "measure": kappa_to_config(self.measure.kappa),
            "a": self.a,
            "body": self.body.to_json(),
            "replications": self.replications,
            "path_length": self.path_length,
            "seed": self.seed,
            "generator": GENERATOR_FAMILY,
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class EstimateReport:
    """One estimated quantity with its uncertainty and analytic target."""

    name: str
    estimate: float
    stderr: float
    ci99: tuple
    analytic: float | None
    zscore: float | None
    n: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "ci99": list(self.ci99),
            "analytic": self.analytic,
            "zscore": self.zscore,
            "n": self.n,
        }

    def within(self, n_sigma: float) -> bool:
        return self.zscore is not None and abs(self.zscore) <= n_sigma


def _report(name: str, estimate: float, stderr: float, n: int, analytic: float | None) -> EstimateReport:
    z = None if analytic is None or stderr == 0.0 else (estimate - analytic) / stderr
    ci = (estimate - Z99 * stderr, estimate + Z99 * stderr)
    return EstimateReport(name, estimate, stderr, ci, analytic, z, n)


def _ratio_report(name: str, num: float, den: float, analytic: float) -> EstimateReport:
    """Conditional-probability estimate with the binomial standard error at the analytic value."""
    if den < 100:
        raise InsufficientConditioningEvents(
            f"{name}: only {int(den)} conditioning events (< 100); raise replications"
        )
    se = math.sqrt(max(analytic * (1.0 - analytic), 1e-300) / den)
    return _report(name, num / den, se, int(den), analytic)


# ---------------------------------------------------------------------------
# path simulation over blocks


def _block_ranges(total: int, block: int = BLOCK):
    return [(j, lo, min(lo + block, total)) for j, lo in enumerate(range(0, total, block))]


def _simulate_block(args):
    spec, j, lo, hi = args
    engine = make_path_engine(spec.measure, spec.a, _pair_bodies(spec))
    return engine.run_block(substream(spec.seed, j), hi - lo, spec.path_length)


def _pair_bodies(spec: ExperimentSpec):
    return (spec.body, scale(spec.body, spec.a))


def simulate_indicator_paths(spec: ExperimentSpec) -> np.ndarray:
    """uint8 array (replications, path_length + 1, 2): bits for the body and its a-scaled copy."""
    jobs = [(spec, j, lo, hi) for j, lo, hi in _block_ranges(spec.replications)]
    if spec.workers > 1 and len(jobs) > 1:
        with multiprocessing.get_context("fork").Pool(spec.workers) as pool:
            parts = pool.map(_simulate_block, jobs)
    else:
        parts = [_simulate_block(job) for job in jobs]
    return np.concatenate(parts, axis=0)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalPattern:
    """Interval conditioning event for the scaled-body conditional law.

    The base body's bits must equal 1 exactly on `ones` (a union of runs inside
    the closed interval, with gaps of at least one zero and zeros at both
    interval ends); the scaled body's bits are then examined on the interior
    indices of the runs (each run minus its first index): 1 on `scaled_ones`,
    0 on the rest.
    """

    interval: tuple
    ones: tuple
    scaled_ones: tuple

    def runs(self):
        out = []
        start = prev = None
        for i in sorted(self.ones):
            if start is None:
                start = prev = i
            elif i == prev + 1:
                prev = i
            else:
                out.append((start, prev))
                start = prev = i
        if start is not None:
            out.append((start, prev))
        return out

    @property
    def interior(self) -> tuple:
        out = []
        for s, e in self.runs():
            out.extend(range(s + 1, e + 1))
        return tuple(out)

    def validate(self, path_length: int) -> None:
        alpha, beta = self.interval
        if not 0 <= alpha < beta <= path_length:
            raise ValueError(f"interval {self.interval} not inside 0..{path_length}")
        runs = self.runs()
        if not runs:
            raise ValueError("need at least one run of ones")
        if runs[0][0] <= alpha or runs[-1][1] >= beta:
            raise ValueError("runs must be strictly inside the interval")
        for (s1, e1), (s2, e2) in zip(runs, runs[1:]):
            if s2 - e1 < 2:
                raise ValueError("runs must be separated by at least one zero")
        interior = set(self.interior)
        if not set(self.scaled_ones) <= interior:
            raise ValueError("scaled_ones must be interior run indices")

    @property
    def n_scaled_ones(self) -> int:
        return len(self.scaled_ones)

    @property
    def n_scaled_zeros(self) -> int:
        return len(self.interior) - len(self.scaled_ones)


class Experiment:
    """Lazy simulation plus the estimators; one instance per ExperimentSpec."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec
        self._paths: np.ndarray | None = None

    @property
    def paths(self) -> np.ndarray:
        if self._paths is None:
            self._paths = simulate_indicator_paths(self.spec)
        return self._paths

    # -- transition probabilities -------------------------------------------

    def estimate_q(self, n: int) -> EstimateReport:
        """Ratio estimate of P(bit_n = 1 | bit_0 = 1) against the closed form."""
        if not 1 <= n <= self.spec.path_length:
            raise ValueError(f"need 1 <= n <= path length, got n = {n}")
        bits = self.paths[:, :, 0]
        den = int(bits[:, 0].sum())
        num = int((bits[:, 0] & bits[:, n]).sum())
        analytic = q_vector(self.spec.params, n).q(n)
        return _ratio_report(f"q[{n}]", num, den, analytic)

    def estimate_q_many(self, ns) -> list:
        return [self.estimate_q(n) for n in ns]

    # -- interarrival law -----------------------------------------------------

    def _next_one_distances(self, max_gap: int):
        """Starts with a full max_gap window, and a generator of (g, starts whose next one is g on)."""
        bits = self.paths[:, :, 0].astype(bool)
        cols = self.spec.path_length + 1 - max_gap
        if cols < 1:
            raise ValueError("max_gap exceeds path length")
        starts = bits[:, :cols]

        def hits():  # one gap's mask at a time
            found = np.zeros_like(starts)
            for g in range(1, max_gap + 1):
                hit_g = starts & ~found & bits[:, g : g + cols]
                yield g, hit_g
                found |= hit_g

        return starts, hits()

    def estimate_interarrival(self, max_gap: int) -> list:
        """Per-gap conditional frequencies against the renewal-recursion values."""
        starts, hits = self._next_one_distances(max_gap)
        y = starts.sum(axis=1).astype(float)
        den = float(y.sum())
        if den < 100:
            raise InsufficientConditioningEvents(f"only {int(den)} renewal starts")
        pvec = p_by_renewal_recursion(q_vector(self.spec.params, max_gap), max_gap)
        out = []
        for g, hit_g in hits:
            x = hit_g.sum(axis=1).astype(float)
            resid = x - pvec.p(g) * y
            se = math.sqrt(float(resid @ resid)) / den
            out.append(_report(f"p[{g}]", float(x.sum()) / den, se, int(den), pvec.p(g)))
        return out

    def estimate_mean_gap(self, censor: int = 60) -> EstimateReport:
        """Mean inter-renewal gap; gaps start at renewals at least `censor` from the end.

        Every start has the full censor window, so gaps up to censor are seen
        exactly; the unseen mass beyond the censor is bounded analytically by
        the caller from the interarrival vector.
        """
        starts, hits = self._next_one_distances(censor)
        sums = np.zeros(starts.shape[0])
        counts = np.zeros(starts.shape[0])
        for g, hit_g in hits:
            per_path = hit_g.sum(axis=1).astype(float)
            sums += g * per_path
            counts += per_path
        total = float(counts.sum())
        if total < 100:
            raise InsufficientConditioningEvents(f"only {int(total)} complete gaps")
        mean = math.exp(self.spec.lambda_k)
        resid = sums - mean * counts
        se = math.sqrt(float(resid @ resid)) / total
        return _report("mean_gap", float(sums.sum()) / total, se, int(total), mean)

    # -- stationary delay laws ------------------------------------------------

    def estimate_stationary_delay(self, max_k: int = 5):
        """Spanning-gap and forward-delay laws around the path midpoint.

        Returns (spanning_reports, forward_reports, n_no_straddle).
        """
        bits = self.paths[:, :, 0].astype(bool)
        length = self.spec.path_length
        mid = length // 2
        fwd_exists = bits[:, mid:].any(axis=1)
        nxt = mid + np.argmax(bits[:, mid:], axis=1)
        prev_exists = bits[:, :mid].any(axis=1)
        prev = mid - 1 - np.argmax(bits[:, mid - 1 :: -1], axis=1)
        ok = fwd_exists & prev_exists
        n_missing = int((~ok).sum())
        span = (nxt - prev)[ok]
        fwd = (nxt - mid)[ok]
        n_ok = int(ok.sum())
        if n_ok < 100:
            raise InsufficientConditioningEvents(f"only {n_ok} straddling gaps")
        law = stationary_delay(p_vector(self.spec.params))

        def frequency(name, hits, p0):
            p0 = float(p0)
            se = math.sqrt(max(p0 * (1.0 - p0), 1e-300) / n_ok)
            return _report(name, float(hits.mean()), se, n_ok, p0)

        spanning = [frequency(f"spanning[{k}]", span == k, law.spanning[k - 1]) for k in range(1, max_k + 1)]
        forward = [frequency(f"forward[{k}]", fwd == k, law.forward[k]) for k in range(max_k + 1)]
        return spanning, forward, n_missing

    # -- conditional law of the scaled body ------------------------------------

    def estimate_conditional_pattern(self, pattern: ConditionalPattern) -> EstimateReport:
        pattern.validate(self.spec.path_length)
        bits_k = self.paths[:, :, 0].astype(bool)
        bits_ak = self.paths[:, :, 1].astype(bool)
        alpha, beta = pattern.interval
        ones = set(pattern.ones)
        cond = np.ones(bits_k.shape[0], dtype=bool)
        for i in range(alpha, beta + 1):
            cond &= bits_k[:, i] if i in ones else ~bits_k[:, i]
        scaled_ones = set(pattern.scaled_ones)
        target = np.ones_like(cond)
        for i in pattern.interior:
            target &= bits_ak[:, i] if i in scaled_ones else ~bits_ak[:, i]
        den = int(cond.sum())
        num = int((cond & target).sum())
        analytic = conditional_pattern_prob(
            self.spec.params, pattern.n_scaled_ones, pattern.n_scaled_zeros
        )
        name = f"pattern[J={pattern.n_scaled_ones},Z={pattern.n_scaled_zeros}]"
        return _ratio_report(name, num, den, analytic)

    def estimate_split_conditional(self, n: int = 1) -> EstimateReport:
        """P(scaled bit_n = 1 | bit_n = 1 and bit_{n-1} = 1): the non-thinning witness."""
        if not 1 <= n <= self.spec.path_length:
            raise ValueError("need 1 <= n <= path_length")
        bits_k = self.paths[:, :, 0]
        bits_ak = self.paths[:, :, 1]
        cond = (bits_k[:, n] & bits_k[:, n - 1]).astype(bool)
        num = int((cond & bits_ak[:, n].astype(bool)).sum())
        analytic = conditional_pattern_prob(self.spec.params, 1, 0)
        return _ratio_report("split_conditional", num, int(cond.sum()), analytic)

    def thinning_separation(self, n: int = 1) -> tuple:
        """(report, sigmas): distance of the split conditional from the marginal thinning ratio."""
        rep = self.estimate_split_conditional(n)
        thin = marginal_thinning_ratio(self.spec.params)
        return rep, abs(rep.estimate - thin) / rep.stderr


# ---------------------------------------------------------------------------
# single-path ergodic average


def ergodic_average(spec: ExperimentSpec, n_batches: int = 100) -> EstimateReport:
    """Time average of the containment bit over one long path, batch-means stderr."""
    if spec.path_length < 10_000:
        raise ValueError("ergodic averaging needs path_length >= 10000")
    engine = make_path_engine(spec.measure, spec.a, (spec.body,))
    bits = np.empty(spec.path_length + 1, dtype=np.uint8)
    state, first_row = engine.path_start(substream(spec.seed, 0))
    bits[0] = first_row[0]
    filled = 1
    j = 1
    while filled < len(bits):
        n_steps = min(BLOCK, len(bits) - filled)
        chunk, state = engine.path_steps(state, substream(spec.seed, j), n_steps)
        bits[filled : filled + n_steps] = chunk[:, 0]
        filled += n_steps
        j += 1
    est = float(bits.mean())
    usable = (len(bits) // n_batches) * n_batches
    means = bits[:usable].reshape(n_batches, -1).mean(axis=1)
    se = float(means.std(ddof=1)) / math.sqrt(n_batches)
    return _report("ergodic_average", est, se, len(bits), math.exp(-spec.lambda_k))


# ---------------------------------------------------------------------------
# two-sample containment comparison


@dataclass(frozen=True)
class ContainmentTest:
    """Per-body two-sample proportion z-tests with a Bonferroni verdict."""

    body_names: tuple
    freq_a: tuple
    freq_b: tuple
    zscores: tuple
    pvalues: tuple
    n_a: int
    n_b: int
    level: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "bodies": list(self.body_names),
            "freq_a": list(self.freq_a),
            "freq_b": list(self.freq_b),
            "zscores": list(self.zscores),
            "pvalues": list(self.pvalues),
            "n_a": self.n_a,
            "n_b": self.n_b,
            "level": self.level,
            "passed": self.passed,
        }


def _collect_events(gen, seed: int, side: int, n: int, n_bodies: int) -> np.ndarray:
    parts = []
    for j, lo, hi in _block_ranges(n):
        out = gen(substream(seed, 2 * j + side), hi - lo)
        parts.append(np.asarray(out, dtype=bool).reshape(hi - lo, n_bodies))
    return np.concatenate(parts, axis=0)


def two_sample_containment_test(
    gen_a,
    gen_b,
    bodies,
    n: int,
    seed: int,
    level: float = 0.01,
    body_names=None,
) -> ContainmentTest:
    """Compare containment frequencies of two generators over a family of bodies.

    Generators are block samplers: gen(rng, m) -> bool array (m, len(bodies)).
    The overall verdict applies a Bonferroni split of `level` across bodies.
    """
    k = len(bodies)
    names = tuple(body_names) if body_names else tuple(f"body{i}" for i in range(k))
    ev_a = _collect_events(gen_a, seed, 0, n, k)
    ev_b = _collect_events(gen_b, seed, 1, n, k)
    fa = ev_a.mean(axis=0)
    fb = ev_b.mean(axis=0)
    zs, ps = [], []
    for i in range(k):
        pool = (ev_a[:, i].sum() + ev_b[:, i].sum()) / (len(ev_a) + len(ev_b))
        se = math.sqrt(max(pool * (1 - pool), 1e-300) * (1 / len(ev_a) + 1 / len(ev_b)))
        z = (fa[i] - fb[i]) / se
        zs.append(float(z))
        ps.append(math.erfc(abs(z) / math.sqrt(2.0)))
    passed = all(p >= level / k for p in ps)
    return ContainmentTest(
        names, tuple(map(float, fa)), tuple(map(float, fb)), tuple(zs), tuple(ps),
        len(ev_a), len(ev_b), level, passed,
    )
