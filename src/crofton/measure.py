"""Translation-invariant line measures on the plane.

A line measure factorizes as (Lebesgue offset measure) x (finite directional
measure kappa). The mass of lines hitting a convex body K is the
kappa-integral of K's width function; for the isotropic kappa this is the
closed Cauchy formula mass * perimeter / pi.

Lines are drawn one way for every kappa, by `disc_lines`. Those hitting a
disc B(c, r) around K have mass 2 r kappa_total, directions from the normalized
kappa and offsets uniform on c . n +- r; keeping only those that hit K leaves
the measure restricted to K. One hitting line is the first kept disc line,
and a Poisson population of hitting lines is a thinned Poisson population of
disc lines; the zero-cell samplers thin disc lines around the origin. A batch
of n disc lines is one draw of (w + 1) * n uniforms, w per direction and then
one per offset. Isotropic and discrete kappa have width w = 1: the doubles of a
direction draw followed by an offset draw. A mixture is one wider than its
widest component: one uniform picks the component, which maps the next as its own.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

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
    _width = 1  # uniforms per direction (a Mixture sets its own), see disc_lines

    def __post_init__(self):
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError(f"mass must be finite and positive, got {self.mass}")


@dataclass(frozen=True)
class Discrete:
    """Finitely many direction atoms (phi, weight), phi in [0, pi), weight > 0."""

    atoms: tuple
    _width = 1

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

    @cached_property
    def _table(self):
        """(atom angles, cumulative weights) as float lists, for _directions; not a field, so eq and hash ignore it."""
        return [p for p, _ in self.atoms], np.cumsum([w for _, w in self.atoms]).tolist()

    @cached_property
    def _normals(self):
        """(atom weights, (2, k) atom normals (cos phi, sin phi)) for lambda_of, cached like _table."""
        phis = np.array(self._table[0])
        return np.array([w for _, w in self.atoms]), np.stack([np.cos(phis), np.sin(phis)])


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
        # for _directions, not fields (eq and hash ignore them): cumulative masses, uniforms per direction
        object.__setattr__(self, "_cum", np.cumsum([w * kappa_total(m) for m, w in comps]).tolist())
        object.__setattr__(self, "_width", 1 + max(m._width for m, _ in comps))


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


def lambda_of(measure, body: ConvexPolygon) -> float:
    """Total mass of lines hitting the body (the kappa-integral of its width)."""
    kappa = measure.kappa if isinstance(measure, LineMeasure) else measure
    if isinstance(kappa, Isotropic):
        return kappa.mass * body.perimeter / math.pi
    if isinstance(kappa, Discrete):
        ws, normals = kappa._normals
        proj = body.vertices @ normals
        return float(ws @ (proj.max(axis=0) - proj.min(axis=0)))
    if isinstance(kappa, Mixture):
        return sum(w * lambda_of(m, body) for m, w in kappa.components)
    raise TypeError(f"not a directional measure: {type(kappa).__name__}")


# ---------------------------------------------------------------------------
# sampling


def _directions(kappa, u: list):
    """Directions of the normalized kappa (the marginal for ball-hitting lines), lazily, the
    i-th from u[i * w:(i + 1) * w], w = kappa._width; an atom or component is picked by its
    cumulative weight, clamped to the last, so every angle lies in [0, pi) for u in [0, 1)."""
    if isinstance(kappa, Isotropic):
        return map(math.pi.__mul__, u)  # pi * u is u * pi bit for bit: IEEE products commute
    if isinstance(kappa, Discrete):
        phis, cum = kappa._table
        return (phis[min(bisect_right(cum, x * cum[-1]), len(cum) - 1)] for x in u)
    if isinstance(kappa, Mixture):
        cum, comps, w = kappa._cum, kappa.components, kappa._width
        return (next(_directions(comps[min(bisect_right(cum, u[i] * cum[-1]), len(cum) - 1)][0], u[i + 1:i + w]))
                for i in range(0, len(u), w))
    raise TypeError(f"not a directional measure: {type(kappa).__name__}")


def disc_lines(kappa, rng, count: int, cx: float, cy: float, r: float) -> list:
    """count i.i.d. lines of kappa hitting the disc B((cx, cy), r), as Python float tuples
    (phi, cos phi, sin phi, offset): directions from the normalized kappa, offsets uniform
    on c . n +- r, all from one uniform draw. A Poisson(t * 2 r kappa_total) count of them
    is the Poisson line population of the disc at time t; callers draw that count themselves."""
    if not count:  # a draw of no numbers leaves the generator as it was, so skipping it keeps the stream
        return []
    u = rng.random((kappa._width + 1) * count).tolist()
    out = []
    for v, phi in zip(u[-count:], _directions(kappa, u)):  # offsets first: zip asks for no extra direction
        c, s = math.cos(phi), math.sin(phi)
        out.append((phi, c, s, cx * c + cy * s + r * (2.0 * v - 1.0)))
    return out


def _disc(body: ConvexPolygon):
    """(vertex list, cx, cy, r): the disc B((cx, cy), r) around the body, centred on its
    bounding box with r its largest vertex distance."""
    verts = body.as_tuples()
    xs, ys = zip(*verts)
    cx, cy = 0.5 * (min(xs) + max(xs)), 0.5 * (min(ys) + max(ys))
    return verts, cx, cy, math.sqrt(max((x - cx) ** 2 + (y - cy) ** 2 for x, y in verts))


def _hits(verts, c: float, s: float, offset: float) -> bool:
    """The line {p . (c, s) = offset} passes through the interior of the vertex list's hull."""
    proj = [c * x + s * y for x, y in verts]
    return min(proj) < offset < max(proj)


def sample_hitting(measure, body: ConvexPolygon, rng) -> Line:
    """One line from the normalized restriction of the measure to lines hitting body:
    the first line hitting a disc around the body that hits the body itself."""
    kappa = measure.kappa if isinstance(measure, LineMeasure) else measure
    verts, cx, cy, r = _disc(body)
    while True:
        [(phi, c, s, offset)] = disc_lines(kappa, rng, 1, cx, cy, r)
        if _hits(verts, c, s, offset):
            return Line(Direction(phi), offset)


def _check_time(time: float) -> None:
    """Reject a time that is not finite and positive; NaN or inf would never finish a run."""
    if not (math.isfinite(time) and time > 0.0):
        raise ValueError(f"time must be finite and positive, got {time}")


def sample_poisson_hitting(measure, body: ConvexPolygon, time: float, rng) -> list:
    """Poisson(time * Lambda([body])) many i.i.d. hitting lines: the lines of a Poisson
    population on a disc around the body that hit the body."""
    _check_time(time)
    kappa = measure.kappa if isinstance(measure, LineMeasure) else measure
    verts, cx, cy, r = _disc(body)
    count = int(rng.poisson(time * 2.0 * r * kappa_total(kappa)))
    return [Line(Direction(phi), offset) for phi, c, s, offset in disc_lines(kappa, rng, count, cx, cy, r)
            if _hits(verts, c, s, offset)]
