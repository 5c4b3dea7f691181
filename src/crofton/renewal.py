"""Closed forms for the regenerative 0-1 containment sequence.

For a body with hitting mass lam and renormalization base a > 1, the sequence
of scaled-zero-cell containment indicators is regenerative at its 1-values
with transition probabilities q_n = exp(-(1 - a^-n) * lam). Everything else
here (interarrival law, mean recurrence time, stationary delay laws, the
conditional law of the a-scaled body's indicators) derives from that vector
by two mutually independent routes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegenParams",
    "QVector",
    "PVector",
    "TailTooHeavy",
    "MeanRecurrence",
    "StationaryDelay",
    "q_vector",
    "p_by_inclusion_exclusion",
    "p_by_renewal_recursion",
    "p_vector",
    "mean_recurrence",
    "stationary_delay",
    "conditional_pattern_prob",
    "marginal_thinning_ratio",
    "joint_q_probability",
]

INCLUSION_EXCLUSION_MAX_N = 22
MAX_TERMS = 51_200  # p_vector's largest truncation; the renewal recursion costs O(N^2)


class TailTooHeavy(ValueError):
    """The truncated interarrival vector leaves too much mass beyond its last index."""


@dataclass(frozen=True)
class RegenParams:
    """Hitting mass of the fixed body (> 0) and renormalization base (> 1)."""

    lambda_k: float
    a: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_k) and self.lambda_k > 0.0):
            raise ValueError(f"lambda_k must be positive, got {self.lambda_k}")
        if not (math.isfinite(self.a) and self.a > 1.0):
            raise ValueError(f"a must exceed 1, got {self.a}")


@dataclass(frozen=True)
class QVector:
    """Transition probabilities q_n for n = 1..N; values[i] is q_{i+1}."""

    params: RegenParams
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not (np.all(v > 0.0) and np.all(v < 1.0)):
            raise ValueError("transition probabilities must lie in (0, 1)")
        # strictly decreasing toward exp(-lambda); equal only once a^-n underflows
        if not np.all(np.diff(v) <= 0.0):
            raise ValueError("transition probabilities must be non-increasing")

    def q(self, n: int) -> float:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"q_{n} not computed (N = {len(self.values)})")
        return float(self.values[n - 1])


@dataclass(frozen=True)
class PVector:
    """Interarrival probabilities p_n for n = 1..N; values[i] is p_{i+1}."""

    params: RegenParams
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if np.any(v < -1e-12):
            raise ValueError("interarrival probabilities must be nonnegative up to round-off")
        if v.sum() > 1.0 + 1e-9:
            raise ValueError("interarrival probabilities must sum to at most 1")

    def p(self, n: int) -> float:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"p_{n} not computed (N = {len(self.values)})")
        return float(self.values[n - 1])

    @property
    def tail_mass(self) -> float:
        return 1.0 - float(self.values.sum())


def q_vector(params: RegenParams, n_max: int) -> QVector:
    """q_n = exp(-(1 - a^-n) * lambda_k), n = 1..n_max; decreasing to exp(-lambda_k)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = np.arange(1, n_max + 1, dtype=float)
    vals = np.exp(-(1.0 - params.a ** -n) * params.lambda_k)
    return QVector(params, vals)


def p_by_inclusion_exclusion(q: QVector, n: int) -> float:
    """Interarrival probability p_n by literal inclusion-exclusion over index subsets.

    Sums (-1)^|I| prod q over all subsets I of {1..n-1}, with q taken over the
    consecutive gaps 0 -> i_1 -> ... -> n. Exponential cost: capped at n = 22.
    Terms reuse prefix products along a DFS and are accumulated with Kahan
    compensation (the series alternates and cancels heavily).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > INCLUSION_EXCLUSION_MAX_N:
        raise ValueError(
            f"inclusion-exclusion capped at n = {INCLUSION_EXCLUSION_MAX_N} "
            f"(2^(n-1) subsets); use p_by_renewal_recursion for larger n"
        )
    qv = q.values
    if len(qv) < n:
        raise ValueError(f"q vector too short for n = {n}")
    total = 0.0
    comp = 0.0
    # stack entries: (first admissible next index, last index used, prefix product, sign)
    stack = [(1, 0, 1.0, 1.0)]
    while stack:
        start, last, prod, sign = stack.pop()
        term = sign * prod * qv[n - last - 1]
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        for i in range(start, n):
            stack.append((i + 1, i, prod * qv[i - last - 1], -sign))
    return total


def p_by_renewal_recursion(q: QVector, n_max: int) -> PVector:
    """Interarrival vector from the renewal equation q_n = sum_k p_k q_{n-k} (q_0 = 1)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    qv = q.values
    if len(qv) < n_max:
        raise ValueError(f"q vector too short for n_max = {n_max}")
    p = np.empty(n_max)
    for n in range(1, n_max + 1):
        acc = qv[n - 1]
        if n > 1:
            acc -= float(p[: n - 1] @ qv[n - 2 :: -1])
        p[n - 1] = acc
    return PVector(q.params, p)


@dataclass(frozen=True)
class MeanRecurrence:
    """Truncated mean recurrence time with its tail certificates."""

    value: float
    tail_mass: float
    mean_tail_bound: float


def _tail_certificates(p: PVector):
    vals = p.values
    n_max = len(vals)
    tail = 1.0 - float(vals.sum())
    if tail >= 1e-10:
        raise TailTooHeavy(
            f"tail mass {tail:.3e} at N = {n_max}; extend the p vector before summing"
        )
    # bound sum_{n>N} n p_n from the observed geometric decay of the survival function
    surv = 1.0 - np.cumsum(vals)
    gamma = 0.0
    for k in range(max(1, n_max - 5), n_max):
        if surv[k - 1] > 0.0 and surv[k] > 0.0:
            gamma = max(gamma, surv[k] / surv[k - 1])
    gamma = min(gamma, 0.999)
    t = max(tail, 0.0)
    bound = n_max * t + t * gamma / (1.0 - gamma)
    return tail, bound


def p_vector(params: RegenParams) -> PVector:
    """Interarrival vector long enough for the tail certificates.

    The truncation N starts at 400 and doubles until the tail mass is below
    1e-10; past MAX_TERMS it raises TailTooHeavy naming lambda and the cap.
    """
    n = 400
    while True:
        p = p_by_renewal_recursion(q_vector(params, n), n)
        try:
            _tail_certificates(p)
            return p
        except TailTooHeavy as e:
            if 2 * n > MAX_TERMS:
                raise TailTooHeavy(
                    f"lambda = {params.lambda_k:g} is too large for the renewal closed forms: "
                    f"the gap law keeps tail mass {1.0 - float(p.values.sum()):.3e} beyond "
                    f"the largest truncation N = {n}"
                ) from e
        n *= 2


def mean_recurrence(p: PVector) -> MeanRecurrence:
    """sum n p_n, which should equal exp(lambda_k); requires tail mass < 1e-10."""
    tail, bound = _tail_certificates(p)
    n = np.arange(1, len(p.values) + 1, dtype=float)
    return MeanRecurrence(float(n @ p.values), tail, bound)


@dataclass(frozen=True)
class StationaryDelay:
    """Length-biased spanning-gap law and forward-delay law of the stationary renewal set.

    spanning[k-1] = k p_k / rho for k = 1..N (the gap straddling a fixed index);
    forward[k] = (sum_{m>k} p_m) / rho for k = 0..N-1 (distance to the next 1).
    """

    rho: float
    spanning: np.ndarray
    forward: np.ndarray


def stationary_delay(p: PVector) -> StationaryDelay:
    _tail_certificates(p)
    vals = p.values
    n = np.arange(1, len(vals) + 1, dtype=float)
    rho = float(n @ vals)
    spanning = n * vals / rho
    surv = np.concatenate([[float(vals.sum())], float(vals.sum()) - np.cumsum(vals)[:-1]])
    forward = surv / rho
    return StationaryDelay(rho, spanning, forward)


def conditional_pattern_prob(params: RegenParams, size_j: int, size_complement: int) -> float:
    """Probability that the a-scaled body's indicators show a given 0-1 pattern.

    Conditionally on the base body's indicators being 1 on runs (and 0 between
    them), each interior run index carries an independent Bernoulli with
    success probability exp(-(a + 1/a - 2) * lambda_k); size_j indices are 1
    and size_complement are 0.
    """
    if size_j < 0 or size_complement < 0:
        raise ValueError("pattern sizes must be nonnegative")
    c = params.a + 1.0 / params.a - 2.0
    succ = math.exp(-c * params.lambda_k)
    return succ**size_j * (1.0 - succ) ** size_complement


def marginal_thinning_ratio(params: RegenParams, power: int = 1) -> float:
    """P(indicator of a^power K = 1 | indicator of K = 1) = exp(-(a^power - 1) lambda_k)."""
    if power < 1:
        raise ValueError("power must be >= 1")
    return math.exp(-(params.a**power - 1.0) * params.lambda_k)


def joint_q_probability(params: RegenParams, indices) -> float:
    """P(indicator = 1 at every index) = exp((-(m+1) + sum a^-gap) * lambda_k)."""
    idx = list(indices)
    if not idx:
        raise ValueError("need at least one index")
    gaps = [b - a for a, b in zip(idx, idx[1:])]
    if any(g <= 0 for g in gaps):
        raise ValueError(f"indices must be strictly increasing, got {idx}")
    expo = -len(idx) + sum(params.a**-g for g in gaps)
    return math.exp(expo * params.lambda_k)
