"""Named verification experiments with pass/fail verdicts.

Each target checks one closed-form law against simulation at a stated
statistical level. Statistical targets apply a retry-once policy: a failed
attempt is repeated on one derived fresh seed, without weakening any
individual level, so a verdict fails about as often as the square of its
first-attempt rate. On exact-law bits those rates are 1.4% for `q` at 1200
paths (its five 3-sigma checks allow 1.3%), 1.8% for `p` at 96 paths x 80
steps (six allow 1.6%), 1.5% for `p` at 4000 x 160, and 2.1% for the delay
laws of `renewal` at 4000 x 160 (eleven allow 2.9%). The two-sample targets
test at level 0.01, split over their bodies. Their first attempts at seeds
10000 and up fail at 0.55% for `stit-vs-pht` on discrete-xy at n=150 (33 of
6,000; the split over five bodies is conservative), 1.15% for `nesting-law`
on discrete-xy at n=600 (115 of 10,000, one verdict failed) and 0.93% for
`nesting-law` on isotropic at n=150 (14 of 1,500).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .geometry import ConvexPolygon, centered_square, regular_polygon, scale
from .measure import LineMeasure, axis_weights, lambda_of
from .montecarlo import (
    ConditionalPattern,
    Experiment,
    ExperimentSpec,
    ergodic_average,
    two_sample_containment_test,
)
from .renewal import (
    RegenParams,
    marginal_thinning_ratio,
    mean_recurrence,
    p_by_inclusion_exclusion,
    p_by_renewal_recursion,
    p_vector,
    q_vector,
)
from .tessellation import stit_batch as stit_run
from .zero_cell import _PolyZeroCellSampler, _RectBatchZeroCells

# The splitting generators below call the batch driver as `stit_run(..., m)`:
# the traced benchmark run (perfbench/tracing.py) times the splitting layer at
# that name, and also rebinds the five names below, which no generator uses.
from .geometry import contains  # noqa: E402,F401
from .tessellation import nest, touches_boundary, zero_cell_of  # noqa: E402,F401
from .zero_cell import sample_zero_cell  # noqa: E402,F401

__all__ = [
    "VerifyReport",
    "standard_bodies",
    "verify_q",
    "verify_p",
    "verify_renewal",
    "verify_conditional",
    "verify_ergodic",
    "verify_scaling",
    "verify_stit_vs_pht",
    "verify_nesting_law",
    "VERIFY_TARGETS",
]

RETRY_SEED_OFFSET = 1_000_003


@dataclass
class VerifyReport:
    """Outcome of one verification target, including every attempt's evidence."""

    target: str
    passed: bool
    attempts: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"target": self.target, "passed": self.passed, "attempts": self.attempts}


def _report_dict(report, spec) -> dict:
    """Estimate report in the full wire shape, with the seed and spec digest."""
    return dict(report.to_dict(), seed=spec.seed, spec_digest=spec.digest())


def _with_retry(target: str, attempt_fn, seed: int) -> VerifyReport:
    """Run an attempt; on statistical failure retry once with a derived seed."""
    report = VerifyReport(target, False)
    for s in (seed, seed + RETRY_SEED_OFFSET):
        ok, evidence = attempt_fn(s)
        report.attempts.append({"seed": s, "passed": ok, "evidence": evidence})
        if ok:
            report.passed = True
            break
    return report


def standard_bodies() -> dict:
    """Five convex test bodies containing the origin, spanning shapes and sizes."""
    return {
        "square_half": centered_square(0.5),
        "square_unit": centered_square(1.0),
        "rect_wide": ConvexPolygon([(-0.8, -0.3), (0.8, -0.3), (0.8, 0.3), (-0.8, 0.3)]),
        "diamond": regular_polygon(4, 0.55, 0.0),
        "hexagon": regular_polygon(6, 0.5, 0.2),
    }


# ---------------------------------------------------------------------------
# block event generators for the containment comparisons


def pht_zero_cell_events(measure: LineMeasure, bodies, time: float = 1.0, prescale: float = 1.0):
    """Events 1{prescale * zero_cell(time) contains body} as a block sampler: capped gauges of body / prescale."""
    sampler = (_RectBatchZeroCells if axis_weights(measure.kappa) is not None else _PolyZeroCellSampler)(measure, time)
    scaled = sampler.gauge_bodies([scale(b, 1.0 / prescale) for b in bodies])
    return lambda rng, m: sampler.gauges(rng, scaled, 1.0, m) >= 1.0


def stit_zero_cell_events(measure: LineMeasure, window: ConvexPolygon, t: float, bodies):
    """Events 1{zero cell of a time-t splitting run contains body}, one batch of runs per block.

    No run is rejected: the process restricted to the window is consistent,
    and every body lies inside the window.
    """

    def block(rng, m):
        return stit_run(measure, window, t, rng, m).zero_cells_contain(bodies)

    return block


def nested_stit_events(measure: LineMeasure, window: ConvexPolygon, t: float, s: float, bodies):
    """Same events for the refinement of a time-t run by independent time-s runs.

    `nest` refines the outer zero cell by inner_seq[0], and no other inner run
    reaches it, so the refined zero cell is the outer zero cell intersected
    with the zero cell of one independent time-s run.
    """

    def block(rng, m):
        outer = stit_run(measure, window, t, rng, m)
        return outer.zero_cells_contain(bodies, meet=stit_run(measure, window, s, rng, m))

    return block


# ---------------------------------------------------------------------------
# targets


def verify_q(
    measure: LineMeasure,
    body: ConvexPolygon,
    a: float = 2.0,
    ns=(1, 2, 3, 4, 5),
    replications: int = 100_000,
    seed: int = 7,
    workers: int = 1,
) -> VerifyReport:
    """Transition probabilities against exp(-(1 - a^-n) * Lambda([K])), 3 sigma each."""

    def attempt(s):
        spec = ExperimentSpec(measure, a, body, replications, max(ns) + 1, s, workers)
        ex = Experiment(spec)
        reports = ex.estimate_q_many(ns)
        ok = all(r.within(3.0) for r in reports)
        return ok, [_report_dict(r, spec) for r in reports]

    return _with_retry("q", attempt, seed)


@cache
def _cross_method_diff() -> float:
    """max |p by inclusion-exclusion - p by renewal recursion| over three fixed parameter sets."""
    diffs = []
    for lam, base in ((1.0, 2.0), (0.5, 1.5), (2.0, 3.0)):
        q = q_vector(RegenParams(lam, base), 15)
        rec = p_by_renewal_recursion(q, 15)
        diffs += [abs(p_by_inclusion_exclusion(q, n) - rec.p(n)) for n in range(1, 16)]
    return max(diffs)


def verify_p(
    measure: LineMeasure,
    body: ConvexPolygon,
    a: float = 2.0,
    max_gap: int = 6,
    replications: int = 4000,
    path_length: int = 160,
    seed: int = 11,
    workers: int = 1,
) -> VerifyReport:
    """Interarrival law: exact cross-method identity plus Monte Carlo gap frequencies."""

    def attempt(s):
        evidence = {"max_cross_method_diff": _cross_method_diff()}
        exact_ok = evidence["max_cross_method_diff"] < 1e-10
        spec = ExperimentSpec(measure, a, body, replications, path_length, s, workers)
        reports = Experiment(spec).estimate_interarrival(max_gap)
        evidence["gaps"] = [_report_dict(r, spec) for r in reports]
        mc_ok = all(r.within(3.0) for r in reports)
        return exact_ok and mc_ok, evidence

    return _with_retry("p", attempt, seed)


def verify_renewal(
    measure: LineMeasure,
    body: ConvexPolygon,
    a: float = 2.0,
    replications: int = 4000,
    path_length: int = 160,
    seed: int = 13,
    workers: int = 1,
) -> VerifyReport:
    """Mean recurrence time exp(Lambda([K])) and the two stationary delay laws.

    Raises ValueError before any simulation when the analytic bound on the gap
    mass beyond the censor cannot fall below a tenth of the expected standard
    error of the censored mean gap, so the check could only fail.
    """
    lam = lambda_of(measure, body)
    censor = 60
    p = p_vector(RegenParams(lam, a))
    mr = mean_recurrence(p)
    n_idx = np.arange(1, len(p.values) + 1)
    # unseen mass beyond the censor, bounded from the analytic vector
    censor_bias = float((n_idx * p.values)[censor:].sum())
    # renewals start a gap at rate exp(-lam) in each of the path_length + 1 - censor
    # start columns, and the gap is seen when it is at most the censor
    seen = p.values[:censor]
    mean_seen = float(n_idx[:censor] @ seen) / seen.sum()
    var_seen = float((n_idx[:censor] - mean_seen) ** 2 @ seen) / seen.sum()
    n_gaps = replications * (path_length + 1 - censor) * math.exp(-lam) * seen.sum()
    expected_se = math.sqrt(var_seen / n_gaps) if n_gaps > 0 else math.inf
    if censor_bias >= 0.1 * expected_se:
        raise ValueError(
            f"renewal: censor bias bound {censor_bias:.3g} is not below 0.1 x the expected "
            f"mean-gap stderr {expected_se:.3g}; the gap tail is too heavy at lambda = {lam:.3g}"
        )

    def attempt(s):
        evidence = {}
        evidence["exact_mean"] = mr.value
        evidence["exact_tail_mass"] = mr.tail_mass
        exact_ok = abs(mr.value - math.exp(lam)) < 1e-6
        spec = ExperimentSpec(measure, a, body, replications, path_length, s, workers)
        ex = Experiment(spec)
        mg = ex.estimate_mean_gap(censor)
        evidence["mean_gap"] = _report_dict(mg, spec)
        evidence["censor_bias_bound"] = censor_bias
        span, fwd, missing = ex.estimate_stationary_delay(5)
        evidence["spanning"] = [_report_dict(r, spec) for r in span]
        evidence["forward"] = [_report_dict(r, spec) for r in fwd]
        evidence["no_straddle_paths"] = missing
        mc_ok = (
            mg.within(3.0)
            and censor_bias < 0.1 * mg.stderr
            and all(r.within(3.0) for r in span)
            and all(r.within(3.0) for r in fwd)
        )
        return exact_ok and mc_ok, evidence

    return _with_retry("renewal", attempt, seed)


def verify_conditional(
    measure: LineMeasure,
    body: ConvexPolygon,
    a: float = 2.0,
    replications: int = 100_000,
    seed: int = 17,
    workers: int = 1,
) -> VerifyReport:
    """Conditional law of the a-scaled body's indicators, plus the non-thinning witness."""
    lam = lambda_of(measure, body)

    def attempt(s):
        spec = ExperimentSpec(measure, a, body, replications, 6, s, workers)
        ex = Experiment(spec)
        patterns = [
            ConditionalPattern((0, 3), (1, 2), (2,)),        # one scaled one, no zeros
            ConditionalPattern((0, 3), (1, 2), ()),           # one scaled zero
            ConditionalPattern((0, 5), (1, 2, 3, 4), (2, 3)),  # two ones, one zero
        ]
        reports = [ex.estimate_conditional_pattern(p) for p in patterns]
        evidence = {"patterns": [_report_dict(r, spec) for r in reports]}
        ok = all(r.within(3.0) and r.n >= 1000 for r in reports)
        params = RegenParams(lam, a)
        split_rep, sigmas = ex.thinning_separation()
        thin = marginal_thinning_ratio(params)
        evidence["split_conditional"] = _report_dict(split_rep, spec)
        evidence["marginal_thinning_ratio"] = thin
        evidence["separation_sigmas"] = sigmas
        analytic_gap = abs(split_rep.analytic - thin)
        evidence["analytic_gap"] = analytic_gap
        ok = ok and analytic_gap > 1e-3 and sigmas >= 10.0 and split_rep.within(3.0)
        return ok, evidence

    return _with_retry("conditional", attempt, seed)


def verify_ergodic(
    measure: LineMeasure,
    body: ConvexPolygon,
    a: float = 2.0,
    path_length: int = 100_000,
    seed: int = 19,
) -> VerifyReport:
    """Single-path time average against exp(-Lambda([K])), 4 batch-means sigma."""

    def attempt(s):
        spec = ExperimentSpec(measure, a, body, 1, path_length, s)
        rep = ergodic_average(spec)
        return rep.within(4.0), [_report_dict(rep, spec)]

    return _with_retry("ergodic", attempt, seed)


def verify_scaling(
    measure: LineMeasure,
    times=(0.5, 2.0),
    replications: int = 40_000,
    seed: int = 23,
) -> VerifyReport:
    """Scaled zero cells: t * cell(t) must match cell(1) on the containment functional."""
    bodies = standard_bodies()
    names = tuple(bodies)
    blist = list(bodies.values())

    def attempt(s):
        evidence = {}
        ok = True
        for i, t in enumerate(times):
            gen_t = pht_zero_cell_events(measure, blist, time=t, prescale=t)
            gen_1 = pht_zero_cell_events(measure, blist, time=1.0)
            res = two_sample_containment_test(
                gen_t, gen_1, blist, replications, s + 101 * i, body_names=names
            )
            evidence[f"t={t}"] = res.to_dict()
            ok = ok and res.passed
        return ok, evidence

    return _with_retry("scaling", attempt, seed)


def verify_stit_vs_pht(
    measure: LineMeasure,
    replications: int = 30_000,
    window_mass: float = 20.0,
    seed: int = 29,
) -> VerifyReport:
    """Splitting-process zero cell at t=1 against the direct Poisson zero-cell sampler."""
    bodies = standard_bodies()
    names = tuple(bodies)
    blist = list(bodies.values())
    side = window_mass / lambda_of(measure, centered_square(1.0))
    window = centered_square(side)

    def attempt(s):
        gen_stit = stit_zero_cell_events(measure, window, 1.0, blist)
        gen_pht = pht_zero_cell_events(measure, blist)
        res = two_sample_containment_test(gen_stit, gen_pht, blist, replications, s, body_names=names)
        return res.passed, res.to_dict()

    return _with_retry("stit-vs-pht", attempt, seed)


def verify_nesting_law(
    measure: LineMeasure,
    body: ConvexPolygon,
    t: float = 0.5,
    s_time: float = 0.5,
    replications: int = 100_000,
    seed: int = 31,
) -> VerifyReport:
    """Refinement law: a time-(t+s) run matches a time-t run refined by time-s runs."""
    window = centered_square(2.0)
    bodies = [body]

    def attempt(s):
        gen_direct = stit_zero_cell_events(measure, window, t + s_time, bodies)
        gen_nested = nested_stit_events(measure, window, t, s_time, bodies)
        res = two_sample_containment_test(
            gen_direct, gen_nested, bodies, replications, s, body_names=("body",)
        )
        return res.passed, res.to_dict()

    return _with_retry("nesting-law", attempt, seed)


VERIFY_TARGETS = {
    "q": verify_q,
    "p": verify_p,
    "renewal": verify_renewal,
    "conditional": verify_conditional,
    "ergodic": verify_ergodic,
    "scaling": verify_scaling,
    "stit-vs-pht": verify_stit_vs_pht,
    "nesting-law": verify_nesting_law,
}
