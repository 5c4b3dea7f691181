"""Translation-invariant line measures on the plane.

A line measure factorizes as (Lebesgue offset measure) x (finite directional
measure kappa). The mass of lines hitting a convex body K is the
kappa-integral of K's width function; for the isotropic kappa this is the
closed Cauchy formula mass * perimeter / pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import ConvexPolygon, Direction, Line

__all__ = [
    "Isotropic",
    "Discrete",
    "Mixture",
    "LineMeasure",
    "discrete_xy",
    "isotropic",
    "lambda_of",
    "sample_hitting",
    "sample_poisson_hitting",
]

_EPS_PHI = 1e-12


@dataclass(frozen=True)
class Isotropic:
    """Uniform directional measure on [0, pi) with the given total mass."""

    mass: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError(f"mass must be finite and positive, got {self.mass}")


@dataclass(frozen=True)
class Discrete:
    """Finitely many direction atoms (phi, weight), phi in [0, pi), weight > 0."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(p), float(w)) for p, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        for phi, w in atoms:
            Direction(phi)  # validates range and finiteness
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError(f"atom weight must be positive, got {w}")
        distinct = {round(phi / _EPS_PHI) for phi, _ in atoms}
        if len(distinct) < 2:
            raise ValueError("directional support must span the plane: need >= 2 distinct directions")


@dataclass(frozen=True)
class Mixture:
    """Weighted combination of directional measures; weights scale component mass."""

    components: tuple

    def __post_init__(self):
        comps = tuple((m, float(w)) for m, w in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("need at least one component")
        for m, w in comps:
            if not isinstance(m, (Isotropic, Discrete, Mixture)):
                raise TypeError(f"unsupported component {type(m).__name__}")
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError(f"component weight must be positive, got {w}")


def kappa_total(kappa) -> float:
    """Total directional mass."""
    if isinstance(kappa, Isotropic):
        return kappa.mass
    if isinstance(kappa, Discrete):
        return sum(w for _, w in kappa.atoms)
    if isinstance(kappa, Mixture):
        return sum(w * kappa_total(m) for m, w in kappa.components)
    raise TypeError(f"not a directional measure: {type(kappa).__name__}")


def axis_weights(kappa):
    """(wx, wy) when every atom is axis-aligned (phi = 0 or pi/2), else None.

    wx is the mass on phi=0 (vertical lines, constraining x) and wy the mass
    on phi=pi/2. Enables interval-arithmetic fast paths in the samplers.
    """
    if not isinstance(kappa, Discrete):
        return None
    wx = wy = 0.0
    for phi, w in kappa.atoms:
        if abs(phi) <= _EPS_PHI:
            wx += w
        elif abs(phi - 0.5 * math.pi) <= _EPS_PHI:
            wy += w
        else:
            return None
    if wx <= 0.0 or wy <= 0.0:
        return None
    return wx, wy


@dataclass(frozen=True)
class LineMeasure:
    """Translation-invariant measure on lines with directional component kappa."""

    kappa: "Isotropic | Discrete | Mixture"

    def __post_init__(self):
        kappa_total(self.kappa)  # type check

    def lambda_of(self, body: ConvexPolygon) -> float:
        return lambda_of(self, body)

    def sample_hitting(self, body: ConvexPolygon, rng) -> Line:
        return sample_hitting(self, body, rng)

    def sample_poisson_hitting(self, body: ConvexPolygon, time: float, rng) -> list:
        return sample_poisson_hitting(self, body, time, rng)


def discrete_xy(weight_x: float = 0.5, weight_y: float = 0.5) -> LineMeasure:
    """The two-atom axis measure; the default in the command-line tools."""
    return LineMeasure(Discrete(((0.0, weight_x), (0.5 * math.pi, weight_y))))


def isotropic(mass: float = 1.0) -> LineMeasure:
    return LineMeasure(Isotropic(mass))


def kappa_to_config(kappa):
    """Directional measure as a plain JSON-ready dict."""
    if isinstance(kappa, Isotropic):
        return {"kind": "isotropic", "mass": kappa.mass}
    if isinstance(kappa, Discrete):
        return {"kind": "discrete", "atoms": [[p, w] for p, w in kappa.atoms]}
    if isinstance(kappa, Mixture):
        return {
            "kind": "mixture",
            "components": [[kappa_to_config(m), w] for m, w in kappa.components],
        }
    raise TypeError(f"not a directional measure: {type(kappa).__name__}")


def kappa_from_config(data):
    kind = data.get("kind")
    if kind == "isotropic":
        return Isotropic(float(data.get("mass", 1.0)))
    if kind == "discrete":
        return Discrete(tuple((float(p), float(w)) for p, w in data["atoms"]))
    if kind == "mixture":
        return Mixture(tuple((kappa_from_config(m), float(w)) for m, w in data["components"]))
    raise ValueError(f"unknown measure kind {kind!r}")


# ---------------------------------------------------------------------------
# hitting mass


def _widths_at(body: ConvexPolygon, phis) -> np.ndarray:
    phis = np.asarray(phis, dtype=float)
    n = np.stack([np.cos(phis), np.sin(phis)])
    proj = body.vertices @ n
    return proj.max(axis=0) - proj.min(axis=0)


def lambda_of(measure, body: ConvexPolygon) -> float:
    """Total mass of lines hitting the body (the kappa-integral of its width)."""
    kappa = measure.kappa if isinstance(measure, LineMeasure) else measure
    if isinstance(kappa, Isotropic):
        return kappa.mass * body.perimeter / math.pi
    if isinstance(kappa, Discrete):
        phis = [p for p, _ in kappa.atoms]
        ws = np.array([w for _, w in kappa.atoms])
        return float(ws @ _widths_at(body, phis))
    if isinstance(kappa, Mixture):
        return sum(w * lambda_of(m, body) for m, w in kappa.components)
    raise TypeError(f"not a directional measure: {type(kappa).__name__}")


# ---------------------------------------------------------------------------
# sampling


def _sample_directions(kappa, rng, n: int) -> np.ndarray:
    """Directions distributed as normalized kappa (the marginal for ball-hitting lines)."""
    if isinstance(kappa, Isotropic):
        return rng.random(n) * math.pi
    if isinstance(kappa, Discrete):
        phis = np.array([p for p, _ in kappa.atoms])
        cum = np.cumsum([w for _, w in kappa.atoms])
        idx = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
        return phis[np.minimum(idx, len(phis) - 1)]
    if isinstance(kappa, Mixture):
        masses = np.array([w * kappa_total(m) for m, w in kappa.components])
        cum = np.cumsum(masses)
        comp = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
        comp = np.minimum(comp, len(masses) - 1)
        out = np.empty(n)
        for j, (m, _) in enumerate(kappa.components):
            mask = comp == j
            k = int(mask.sum())
            if k:
                out[mask] = _sample_directions(m, rng, k)
        return out
    raise TypeError(f"not a directional measure: {type(kappa).__name__}")


@lru_cache(maxsize=256)
def _isotropic_bucket_bounds(body: ConvexPolygon, n_buckets: int = 64):
    """Piecewise-constant upper bound of the width function on [0, pi).

    The support function in direction phi is max_i r_i cos(phi - theta_i); on a
    bucket the max of each cosine term is attained at an edge or at theta_i
    itself, so the bound is exact-per-term and rigorous. Cached per polygon
    object (polygons are immutable).
    """
    v = body.vertices
    r = np.hypot(v[:, 0], v[:, 1])
    theta = np.arctan2(v[:, 1], v[:, 0])
    edges = np.linspace(0.0, math.pi, n_buckets + 1)

    def support_bound(th):
        c = np.cos(edges[None, :] - th[:, None])  # (k, n_buckets+1)
        cand = np.maximum(c[:, :-1], c[:, 1:])
        inside = (th[:, None] % (2.0 * math.pi) >= edges[None, :-1]) & (
            th[:, None] % (2.0 * math.pi) <= edges[None, 1:]
        )
        cand = np.where(inside, 1.0, cand)
        return (r[:, None] * cand).max(axis=0)

    bounds = support_bound(theta) + support_bound(theta - math.pi)
    return edges, bounds


def _sample_hitting_phi(kappa, body: ConvexPolygon, rng) -> float:
    """Direction of a hitting line: density proportional to weight * width."""
    if isinstance(kappa, Discrete):
        phis = [p for p, _ in kappa.atoms]
        ws = np.array([w for _, w in kappa.atoms])
        probs = ws * _widths_at(body, phis)
        cum = np.cumsum(probs)
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        return phis[min(idx, len(phis) - 1)]
    if isinstance(kappa, Isotropic):
        edges, bounds = _isotropic_bucket_bounds(body)
        cum = np.cumsum(bounds)
        while True:
            b = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            b = min(b, len(bounds) - 1)
            phi = edges[b] + rng.random() * (edges[b + 1] - edges[b])
            w = _widths_at(body, [phi])[0]
            if rng.random() * bounds[b] <= w:
                return float(phi)
    if isinstance(kappa, Mixture):
        masses = np.array([w * lambda_of(m, body) for m, w in kappa.components])
        cum = np.cumsum(masses)
        j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        j = min(j, len(masses) - 1)
        return _sample_hitting_phi(kappa.components[j][0], body, rng)
    raise TypeError(f"not a directional measure: {type(kappa).__name__}")


def sample_hitting(measure, body: ConvexPolygon, rng) -> Line:
    """One line from the normalized restriction of the measure to lines hitting body."""
    kappa = measure.kappa if isinstance(measure, LineMeasure) else measure
    phi = _sample_hitting_phi(kappa, body, rng)
    n = (math.cos(phi), math.sin(phi))
    proj = body.vertices @ n
    lo, hi = float(proj.min()), float(proj.max())
    offset = lo + rng.random() * (hi - lo)
    return Line(Direction(phi), offset)


def _check_time(time: float) -> None:
    """Reject a time that is not finite and positive; NaN or inf would never finish a run."""
    if not (math.isfinite(time) and time > 0.0):
        raise ValueError(f"time must be finite and positive, got {time}")


def sample_poisson_hitting(measure, body: ConvexPolygon, time: float, rng) -> list:
    """Poisson(time * Lambda([body])) many i.i.d. hitting lines."""
    _check_time(time)
    mu = time * lambda_of(measure, body)
    count = int(rng.poisson(mu))
    return [sample_hitting(measure, body, rng) for _ in range(count)]
