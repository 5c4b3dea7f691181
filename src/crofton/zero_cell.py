"""Zero-cell sampling and the renormalized stationary zero-cell path.

The zero cell at time t is the cell containing the origin, realized as the
intersection of origin-side half-planes of a Poisson line population. A cell
takes its lines by adaptive radius doubling: in the round of radius R, one
Poisson population of lines hitting the ball B_R (`measure.disc_lines`),
thinned to those that miss the previous round's ball, until the box B_R
clipped by every line so far lies strictly inside the current ball.

The renormalized path with base a > 1 starts from a stationary zero cell and
iterates cell_{n+1} = (a * cell_n) intersect (a/(a-1) * fresh zero cell).
The path engine makes bits only, from a body's gauge in s * cell capped at 1,
which both samplers compute: axis cells from their rectangle bounds, other
measures from the lines hitting B_{R/s}. Polygons serve output only
(`sample_zero_cell`, `sample_gamma_path`).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationAbort
from .geometry import (
    EPS_GEOM,
    ConvexPolygon,
    _clip_all,
    _intersect_tuples,
    contains,
    contains_origin_interior,
    scale,
)
from .measure import LineMeasure, _check_time, axis_weights, disc_lines, kappa_total

__all__ = [
    "ZeroCellPath",
    "IndicatorSequence",
    "sample_zero_cell",
    "sample_gamma_path",
    "indicators",
    "indicators_pair",
    "write_path_csv",
    "write_path_jsonl",
]

DEFAULT_R_MAX_FACTOR = float(2**20)


# ---------------------------------------------------------------------------
# axis rectangles, held as four bound arrays x0, x1, y0, y1 (measures on phi in {0, pi/2})


class _RectBatchZeroCells:
    """Sampler of m independent zero cells at once (axis measures only).

    The adaptive-doubling population of the polygon sampler, drawn on each round's
    annulus for all still-active cells in one batch and scattered to their
    owners; a rectangle's bounds are the nearest line offsets on each side.
    """

    def __init__(self, measure: LineMeasure, time: float = 1.0, r_max_factor: float = DEFAULT_R_MAX_FACTOR):
        ww = axis_weights(measure.kappa)
        if ww is None:
            raise ValueError("batch sampler needs an axis-aligned discrete measure")
        wx, wy = ww
        self.kt = wx + wy
        self.p_vertical = wx / self.kt
        self.time = time
        self.r0 = 4.0 / (self.kt * time)
        self.r_max = self.r0 * r_max_factor

    def sample(self, rng, m: int, stats: dict | None = None):
        """Four (m,) arrays x0, x1, y0, y1 of independent zero-cell rectangles."""
        # each cell's nearest line distance per side, columns x1, -x0, y1, -y0
        near = np.full((m, 4), math.inf)
        active = np.arange(m)
        r_lo, r = 0.0, self.r0
        while active.size:
            counts = rng.poisson(self.time * 2.0 * (r - r_lo) * self.kt, active.size)
            tot = int(counts.sum())
            u_dir = rng.random(tot)
            mag = r_lo + rng.random(tot) * (r - r_lo)
            neg = rng.random(tot) < 0.5
            mag[mag == 0.0] = 0.5 * (r_lo + r) if r_lo > 0.0 else 0.5 * r
            slot = 4 * np.repeat(active, counts) + 2 * (u_dir >= self.p_vertical) + neg
            np.minimum.at(near.reshape(-1), slot, mag)
            ext = np.minimum(near[active], r)
            ext *= ext
            corner = np.maximum(ext[:, 0], ext[:, 1]) + np.maximum(ext[:, 2], ext[:, 3])
            # done cells lie strictly inside the ball, so their line-only bounds are final
            active = active[corner >= (r - EPS_GEOM) ** 2]
            if stats is not None:
                stats.setdefault("active_per_round", []).append(int(active.size))
            r_lo, r = r, 2.0 * r
            if r > self.r_max and active.size:
                raise SimulationAbort(
                    f"{active.size} zero cells still unbounded at radius {r:.3e}"
                )
        return -near[:, 1], near[:, 0], -near[:, 3], near[:, 2]

    def cells(self, rng, m: int) -> list:
        """m zero cells as ccw vertex tuple lists, drawn in one batch."""
        return [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
                for x0, x1, y0, y1 in zip(*(v.tolist() for v in self.sample(rng, m)))]

    @staticmethod
    def gauge_bodies(bodies) -> list:
        """Per body, (side, extent - EPS_GEOM) for each side x1, -x0, y1, -y0 it reaches beyond EPS_GEOM."""
        extents = [(xs.max(), -xs.min(), ys.max(), -ys.min()) for xs, ys in (b.vertices.T for b in bodies)]
        return [[(i, float(h) - EPS_GEOM) for i, h in enumerate(ext) if h > EPS_GEOM] for ext in extents]

    def gauges(self, rng, bodies, scale: float, m: int) -> np.ndarray:
        """(m, n_bodies) gauges of `gauge_bodies` bodies in scale * zero cell, capped at 1.

        A body lies in scale * rect when, on each side where its extent h exceeds EPS_GEOM,
        h is at most scale * d + EPS_GEOM, d the side's distance from the origin: the ties of
        `geometry.rects_contain_boxes`. So its gauge is the least (scale * d) / (h - EPS_GEOM).
        """
        x0, x1, y0, y1 = self.sample(rng, m)
        dist = (scale * x1, scale * -x0, scale * y1, scale * -y0)
        out = np.ones((len(bodies), m))
        for g, sides in zip(out, bodies):
            for i, h in sides:
                np.minimum(g, dist[i] / h, out=g)
        return out.T

    def path_gauges(self, rng, bodies, m: int, n_steps: int, f: float):
        """Gauges of m paths' start cells, then of each step's m fresh f-scaled cells: the paths step together."""
        yield self.gauges(rng, bodies, 1.0, m)
        for _ in range(n_steps):
            yield self.gauges(rng, bodies, f, m)


# ---------------------------------------------------------------------------
# convex polygons, held as ccw vertex tuple lists (every measure)


def gauge_bodies(bodies) -> list:
    """(ccw vertex tuple list, largest vertex norm) per body: the form `gauges` takes."""
    tuples = [body.as_tuples() for body in bodies]
    return [(verts, math.sqrt(max(x * x + y * y for x, y in verts))) for verts in tuples]


class _PolyZeroCellSampler:
    def __init__(self, measure: LineMeasure, time: float = 1.0, r_max_factor: float = DEFAULT_R_MAX_FACTOR):
        _check_time(time)
        self.kappa = measure.kappa
        self.kt = kappa_total(measure.kappa)
        self.time = time
        self.r0 = 4.0 / (self.kt * time)
        self.r_max = self.r0 * r_max_factor

    def sample(self, rng):
        """Vertex tuple list of the zero cell: B_r clipped by every line so far, doubling r
        until all of its vertices lie strictly inside B_r, when no further line can cut it."""
        lines = []  # (unit normal from the origin towards the line, distance)
        r_lo, r = 0.0, self.r0
        while True:
            # the disc lines of B_r that miss B_r_lo: a Poisson population of mass
            # 2 * (r - r_lo) * kt, independent of earlier rounds; none passes through the origin
            count = int(rng.poisson(self.time * 2.0 * r * self.kt))
            lines += [(c, s, off) if off > 0.0 else (-c, -s, -off)
                      for _, c, s, off in disc_lines(self.kappa, rng, count, 0.0, 0.0, r) if abs(off) > r_lo]
            verts = _clip_all([(-r, -r), (r, -r), (r, r), (-r, r)], lines)
            if verts is None:
                raise SimulationAbort("zero cell collapsed below the area tolerance")
            if all(x * x + y * y < (r - EPS_GEOM) ** 2 for x, y in verts):
                return verts
            r_lo, r = r, 2.0 * r
            if r > self.r_max:
                raise SimulationAbort(
                    f"zero cell still unbounded at radius {r:.3e}; "
                    "the directional measure may not span the plane"
                )

    def cells(self, rng, m: int) -> list:
        """m zero cells as ccw vertex tuple lists, drawn one at a time."""
        return [self.sample(rng) for _ in range(m)]

    gauge_bodies = staticmethod(gauge_bodies)

    def gauges(self, rng, bodies, scale: float, m: int) -> np.ndarray:
        """(m, n_bodies) array: per zero cell and body of `gauge_bodies`, the largest c <= 1
        with c * body inside scale * zero cell.

        A line at distance d cuts c * body out of scale * cell exactly when c > scale * d / h, h the
        body's support in the line's normal; no line with h <= 0 cuts any c * body with c >= 0, so
        the body need not contain the origin. As h is at most the largest vertex norm R, only lines
        hitting B_(R / scale) can bring c below 1: by Crofton those hitting radius rho = max R / scale
        are one Poisson draw of mass 2 * rho * kt. A body no line cuts gets exactly 1.0.
        """
        return np.array(self._gauge_rows(rng, bodies, scale, m)).reshape(m, len(bodies))

    def _gauge_rows(self, rng, bodies, scale: float, m: int) -> list:  # the rows of `gauges` in one flat list
        rho = max(r for _, r in bodies) / scale
        mean = self.time * 2.0 * rho * self.kt
        rows = []
        for _ in range(m):
            g = [1.0] * len(bodies)
            for _, c, s, off in disc_lines(self.kappa, rng, int(rng.poisson(mean)), 0.0, 0.0, rho):
                # scale * distance, and the unit normal from the origin towards the line
                d, c, s = (scale * off, c, s) if off > 0.0 else (-scale * off, -c, -s)
                for j, (verts, r) in enumerate(bodies):
                    if d < g[j] * r:
                        h = max([c * x + s * y for x, y in verts])
                        if h > 0.0:
                            g[j] = min(g[j], d / h)
            rows += g
        return rows

    def path_gauges(self, rng, bodies, m: int, n_steps: int, f: float):
        """Gauges of m paths' start cells, then of each step's m fresh f-scaled cells: one path at a time."""
        rows = []
        for _ in range(m):
            rows += self._gauge_rows(rng, bodies, 1.0, 1) + self._gauge_rows(rng, bodies, f, n_steps)
        yield from np.array(rows).reshape(m, n_steps + 1, len(bodies)).swapaxes(0, 1)


def _zero_cell_sampler(measure: LineMeasure, time: float = 1.0, r_max_factor: float = DEFAULT_R_MAX_FACTOR):
    """The zero-cell sampler of the measure's cell representation."""
    cls = _RectBatchZeroCells if axis_weights(measure.kappa) is not None else _PolyZeroCellSampler
    return cls(measure, time, r_max_factor)


def sample_zero_cell(
    measure: LineMeasure,
    rng,
    time: float = 1.0,
    r_max_factor: float = DEFAULT_R_MAX_FACTOR,
) -> ConvexPolygon:
    """Sample the zero cell of the Poisson line tessellation at the given time.

    The containment law is P(cell contains K) = exp(-time * Lambda([K])) for
    any convex K with the origin in its interior.
    """
    _check_time(time)
    return ConvexPolygon._trusted(_zero_cell_sampler(measure, time, r_max_factor).cells(rng, 1)[0])


# ---------------------------------------------------------------------------
# the renormalized path


@dataclass(frozen=True)
class ZeroCellPath:
    """A finite segment of the stationary renormalized zero-cell sequence."""

    a: float
    cells: tuple

    def __len__(self):
        return len(self.cells)

    def validate(self) -> None:
        """Check origin-interiority of every cell and the one-step nesting relation."""
        for i, cell in enumerate(self.cells):
            if not contains_origin_interior(cell):
                raise AssertionError(f"cell {i} does not contain the origin in its interior")
        for i in range(len(self.cells) - 1):
            if not contains(self.cells[i], scale(self.cells[i + 1], 1.0 / self.a)):
                raise AssertionError(f"nesting violated between cells {i} and {i + 1}")


@dataclass(frozen=True)
class IndicatorSequence:
    """0-1 containment bits of one body along a zero-cell path."""

    body: ConvexPolygon
    bits: np.ndarray


def sample_gamma_path(measure: LineMeasure, a: float, n_steps: int, rng) -> ZeroCellPath:
    """Stationary renormalized zero-cell path with indices 0..n_steps.

    Index 0 is a stationary zero cell; each subsequent cell is the a-scaled
    previous cell intersected with an independent (a/(a-1))-scaled zero cell,
    so every marginal keeps the stationary containment law.
    """
    if not 1.0 < a < math.inf:
        raise ValueError(f"renormalization base must be finite and exceed 1, got {a}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    f = a / (a - 1.0)
    # raw vertex lists: a polygon's canonical rotation would change the clip order
    sampler = _zero_cell_sampler(measure)
    cells = sampler.cells(rng, 1)
    for fresh in sampler.cells(rng, n_steps):
        verts = _intersect_tuples([(a * x, a * y) for x, y in cells[-1]], [(f * x, f * y) for x, y in fresh])
        if verts is None:
            raise SimulationAbort("path cell collapsed below the area tolerance")
        cells.append(verts)
    return ZeroCellPath(a, tuple(ConvexPolygon._trusted(verts) for verts in cells))


def indicators(path: ZeroCellPath, body: ConvexPolygon) -> IndicatorSequence:
    """Containment bits 1{cell_n contains body} along the path."""
    if not contains_origin_interior(body):
        raise ValueError("body must contain the origin in its interior")
    bits = np.fromiter((contains(c, body) for c in path.cells), dtype=np.uint8, count=len(path.cells))
    return IndicatorSequence(body, bits)


def indicators_pair(path: ZeroCellPath, body: ConvexPolygon, a: float | None = None):
    """Indicator sequences for the body and its a-scaled copy, from the same path."""
    base = indicators(path, body)
    scaled = indicators(path, scale(body, path.a if a is None else a))
    return base, scaled


# ---------------------------------------------------------------------------
# the indicator-path engine (consumed by the Monte Carlo harness)


class _GaugePathEngine:
    """Containment bits along renormalized paths, from per-body gauges capped at 1.

    a * cell ∩ f * fresh has gauge min(a * gauge, gauge of f * fresh) and contains the body
    when it is >= 1, so D' = min(a * D, g) with g the capped gauge of f * fresh, drawn by the
    sampler of the measure's cell representation, gives the same bits. The fresh gauge is
    scaled by f inside `gauges`, so an uncut body gets exactly 1.0: a cap of 1/f multiplied
    back by f can round below 1 and clear every later bit.
    """

    def __init__(self, measure: LineMeasure, a: float, bodies, time: float = 1.0):
        self.sampler = _zero_cell_sampler(measure, time)
        self.a = a
        self.f = a / (a - 1.0)
        self.bodies = self.sampler.gauge_bodies(bodies)

    def run_block(self, rng, m: int, n_steps: int) -> np.ndarray:
        """uint8 array (m, n_steps + 1, n_bodies) of containment bits."""
        bits = np.empty((m, n_steps + 1, len(self.bodies)), dtype=np.uint8)
        columns = self.sampler.path_gauges(rng, self.bodies, m, n_steps, self.f)
        g = next(columns)
        bits[:, 0] = g >= 1.0
        for n, fresh in enumerate(columns, 1):
            g = np.minimum(self.a * g, fresh)
            bits[:, n] = g >= 1.0
        return bits

    def path_start(self, rng):
        """Initial stationary cell for a streamed single path: (state, bits row)."""
        g = self.sampler.gauges(rng, self.bodies, 1.0, 1)[0]
        return g.tolist(), (g >= 1.0).astype(np.uint8)

    def path_steps(self, state, rng, n_steps: int):
        """Advance a streamed path by n_steps: (bits (n_steps, n_bodies), state)."""
        a = self.a
        rows = []
        for fresh in self.sampler.gauges(rng, self.bodies, self.f, n_steps).tolist():
            state = [min(a * x, y) for x, y in zip(state, fresh)]
            rows.append(state)
        return (np.array(rows) >= 1.0).astype(np.uint8).reshape(n_steps, len(self.bodies)), state


make_path_engine = _GaugePathEngine  # (measure, a, bodies, time=1.0): the harness's constructor


# ---------------------------------------------------------------------------
# serialization


def write_path_csv(path: ZeroCellPath, fileobj, body: ConvexPolygon | None = None) -> None:
    """CSV rows n, vertex_count, area, contains_K (blank when no body given)."""
    fileobj.write("n,vertex_count,area,contains_K\n")
    for n, cell in enumerate(path.cells):
        flag = "" if body is None else str(int(contains(cell, body)))
        fileobj.write(f"{n},{cell.n_vertices},{cell.area!r},{flag}\n")


def write_path_jsonl(path: ZeroCellPath, fileobj) -> None:
    """One JSON object per line: {"n": ..., "vertices": [[x, y], ...]}."""
    for n, cell in enumerate(path.cells):
        fileobj.write(json.dumps({"n": n, "vertices": cell.to_json()}) + "\n")
