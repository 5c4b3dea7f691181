"""Zero-cell sampling and the renormalized stationary zero-cell path.

The zero cell at time t is the cell containing the origin, realized as the
intersection of origin-side half-planes of a Poisson line population. A cell
takes its lines by adaptive radius doubling: the population hitting the ball
B_R first, then fresh annulus populations (hitting B_2R but not B_R) until the
box B_R clipped by every line so far lies strictly inside the current ball.

The renormalized path with base a > 1 starts from a stationary zero cell and
iterates cell_{n+1} = (a * cell_n) intersect (a/(a-1) * fresh zero cell).
Path engines make bits only: axis cells are rectangle bound arrays, and other
measures use a body's gauge in s * cell, capped at 1, which sees only the lines
hitting B_{R/s}. Polygons serve output only (`sample_zero_cell`, `sample_gamma_path`).
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
    _clip_cell,
    _intersect_tuples,
    box_of,
    contains,
    contains_origin_interior,
    rects_contain_boxes,
    scale,
)
from .measure import LineMeasure, _check_time, _sample_directions, axis_weights, kappa_total

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

    The adaptive-doubling population of the polygon sampler, with the annulus
    lines of all still-active cells drawn in one batch and scattered to their
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
            # lines hitting B_r, not B_r_lo: offset measure 2*(r - r_lo) at every phi, so phi ~ kappa
            count = int(rng.poisson(self.time * 2.0 * (r - r_lo) * self.kt))
            phi = _sample_directions(self.kappa, rng, count)
            mag = r_lo + rng.random(count) * (r - r_lo)
            neg = rng.random(count) < 0.5
            # a zero-magnitude draw would put a line through the origin; measure-zero event
            mag[mag == 0.0] = 0.5 * (r_lo + r) if r_lo > 0.0 else 0.5 * r
            for ph, off in zip(phi.tolist(), np.where(neg, -mag, mag).tolist()):
                c, s = math.cos(ph), math.sin(ph)
                lines.append((c, s, off) if off > 0.0 else (-c, -s, -off))
            verts = [(-r, -r), (r, -r), (r, r), (-r, r)]
            for c, s, d in lines:
                verts = _clip_cell(verts, c, s, d)
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

    def gauges(self, rng, bodies, scale: float) -> list:
        """Per body of `gauge_bodies`, the largest c <= 1 with c * body inside scale * zero cell.

        A line at distance d cuts c * body out of scale * cell exactly when c > scale * d / h,
        h the body's support in the line's normal, and no line with h <= 0 cuts any c * body
        with c >= 0, so the body need not contain the origin. As h is at most the largest
        vertex norm R, only lines hitting the ball of radius R / scale can bring c below 1:
        by Crofton those hitting radius rho = max R / scale are one Poisson draw of mass
        2 * rho * kt. A body no line cuts gets exactly 1.0.
        """
        rho = max(r for _, r in bodies) / scale
        count = int(rng.poisson(self.time * 2.0 * rho * self.kt))
        phi = _sample_directions(self.kappa, rng, count).tolist()
        lines = []  # (scale * distance, unit normal from the origin towards the line)
        for ph, u in zip(phi, rng.random(count).tolist()):
            off = rho * (2.0 * u - 1.0)
            c, s = math.cos(ph), math.sin(ph)
            lines.append((scale * off, c, s) if off > 0.0 else (-scale * off, -c, -s))
        out = []
        for verts, r in bodies:
            g = 1.0
            for d, c, s in lines:
                if d < g * r:
                    h = max([c * x + s * y for x, y in verts])
                    if h > 0.0:
                        g = min(g, d / h)
            out.append(g)
        return out


def _zero_cell_tuples(measure: LineMeasure, rng, time: float = 1.0, r_max_factor: float = DEFAULT_R_MAX_FACTOR):
    """One zero cell as a ccw vertex tuple list, from the sampler of the measure's representation."""
    if axis_weights(measure.kappa) is not None:
        rect = _RectBatchZeroCells(measure, time, r_max_factor).sample(rng, 1)
        x0, x1, y0, y1 = (float(v[0]) for v in rect)
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    return _PolyZeroCellSampler(measure, time, r_max_factor).sample(rng)


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
    return ConvexPolygon._trusted(_zero_cell_tuples(measure, rng, time, r_max_factor))


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
    cells = [_zero_cell_tuples(measure, rng)]
    for _ in range(n_steps):
        fresh = _zero_cell_tuples(measure, rng)
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
# indicator-path engines (consumed by the Monte Carlo harness)
#
# Engines make bits only: the rectangle engine steps axis cells held as bound arrays
# (`_walk` is its renormalized step), the polygon engine steps capped gauges.


class _RectPathEngine:
    """Axis measures: a run of n cells is a (4, n) array of rows x0, x1, y0, y1."""

    def __init__(self, measure: LineMeasure, a: float, bodies, time: float = 1.0):
        self.batch = _RectBatchZeroCells(measure, time)
        self.a = a
        self.f = a / (a - 1.0)
        self.boxes = [box_of(b.vertices) for b in bodies]

    def _walk(self, state, rng, n: int) -> np.ndarray:
        """The n path cells after the last cell of `state`; fresh cells drawn in one batch."""
        fresh = zip(*(v.tolist() for v in self.batch.sample(rng, n)))
        x0, x1, y0, y1 = state[:, -1].tolist()
        a, f = self.a, self.f
        out = []
        for fx0, fx1, fy0, fy1 in fresh:
            x0 = max(a * x0, f * fx0)
            x1 = min(a * x1, f * fx1)
            y0 = max(a * y0, f * fy0)
            y1 = min(a * y1, f * fy1)
            out.append((x0, x1, y0, y1))
        return np.array(out, dtype=float).reshape(n, 4).T

    def _contain(self, cells) -> np.ndarray:
        return rects_contain_boxes(*cells, self.boxes)

    def run_block(self, rng, m: int, n_steps: int) -> np.ndarray:
        """uint8 array (m, n_steps + 1, n_bodies) of containment bits; the m paths step together."""
        bits = np.empty((m, n_steps + 1, len(self.boxes)), dtype=np.uint8)
        x0, x1, y0, y1 = self.batch.sample(rng, m)
        bits[:, 0, :] = rects_contain_boxes(x0, x1, y0, y1, self.boxes)
        for n in range(1, n_steps + 1):
            fx0, fx1, fy0, fy1 = self.batch.sample(rng, m)
            x0 = np.maximum(self.a * x0, self.f * fx0)
            x1 = np.minimum(self.a * x1, self.f * fx1)
            y0 = np.maximum(self.a * y0, self.f * fy0)
            y1 = np.minimum(self.a * y1, self.f * fy1)
            bits[:, n, :] = rects_contain_boxes(x0, x1, y0, y1, self.boxes)
        return bits

    def path_start(self, rng):
        """Initial stationary cell for a streamed single path: (state, bits row)."""
        state = np.array(self.batch.sample(rng, 1))
        return state, self._contain(state)[0]

    def path_steps(self, state, rng, n_steps: int):
        """Advance a streamed path by n_steps: (bits (n_steps, n_bodies), state)."""
        cells = self._walk(state, rng, n_steps)
        return self._contain(cells), (cells[:, -1:] if n_steps else state)


class _PolyPathEngine:
    """General measures: bits come from per-body gauges capped at 1, the streamed state.

    a * cell ∩ f * fresh has gauge min(a * gauge, gauge of f * fresh) and contains the body
    when it is >= 1, so min(a * D, g) with g the capped gauge of f * fresh gives the same
    bits. The fresh gauge is scaled by f inside `gauges`, so an uncut body gets exactly 1.0:
    a cap of 1/f multiplied back by f can round below 1 and clear every later bit.
    """

    def __init__(self, measure: LineMeasure, a: float, bodies, time: float = 1.0):
        self.sampler = _PolyZeroCellSampler(measure, time)
        self.a = a
        self.f = a / (a - 1.0)
        self.bodies = gauge_bodies(bodies)

    def _gauge_rows(self, g, rng, n: int) -> np.ndarray:
        """(n + 1, n_bodies) capped gauges: row 0 is g, then the n path cells after it."""
        rows = [g]
        a, f = self.a, self.f
        for _ in range(n):
            fresh = self.sampler.gauges(rng, self.bodies, f)
            rows.append([min(a * x, y) for x, y in zip(rows[-1], fresh)])
        return np.array(rows).reshape(n + 1, len(self.bodies))

    def run_block(self, rng, m: int, n_steps: int) -> np.ndarray:
        """uint8 array (m, n_steps + 1, n_bodies) of containment bits, one path at a time."""
        bits = np.empty((m, n_steps + 1, len(self.bodies)), dtype=np.uint8)
        for row in bits:
            row[:] = self._gauge_rows(self.sampler.gauges(rng, self.bodies, 1.0), rng, n_steps) >= 1.0
        return bits

    def path_start(self, rng):
        """Initial stationary cell for a streamed single path: (state, bits row)."""
        state = self.sampler.gauges(rng, self.bodies, 1.0)
        return state, (np.array(state) >= 1.0).astype(np.uint8)

    def path_steps(self, state, rng, n_steps: int):
        """Advance a streamed path by n_steps: (bits (n_steps, n_bodies), state)."""
        rows = self._gauge_rows(state, rng, n_steps)
        return (rows[1:] >= 1.0).astype(np.uint8), rows[-1].tolist()


def make_path_engine(measure: LineMeasure, a: float, bodies, time: float = 1.0):
    """Pick the engine of the measure's cell representation."""
    if axis_weights(measure.kappa) is not None:
        return _RectPathEngine(measure, a, bodies, time)
    return _PolyPathEngine(measure, a, bodies, time)


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
