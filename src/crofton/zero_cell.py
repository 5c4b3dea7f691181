"""Zero-cell sampling and the renormalized stationary zero-cell path.

The zero cell at time t is the cell containing the origin, realized as the
intersection of origin-side half-planes of a Poisson line population. Lines
are materialized lazily by adaptive radius doubling: the population hitting
the ball B_R is sampled first, and fresh independent annulus populations
(hitting B_2R but not B_R) are added until the cell provably lies strictly
inside the current ball, at which point no unseen line can cut it.

The renormalized path with base a > 1 starts from a stationary zero cell and
iterates cell_{n+1} = (a * cell_n) intersect (a/(a-1) * fresh zero cell).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import SimulationAbort
from .geometry import (
    EPS_GEOM,
    ConvexPolygon,
    _clip_cell,
    _contains_tuples,
    _intersect_tuples,
    _rect_to_polygon,
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
        x0 = np.full(m, -math.inf)
        y0 = np.full(m, -math.inf)
        x1 = np.full(m, math.inf)
        y1 = np.full(m, math.inf)
        active = np.arange(m)
        r_lo, r = 0.0, self.r0
        while active.size:
            counts = rng.poisson(self.time * 2.0 * (r - r_lo) * self.kt, active.size)
            tot = int(counts.sum())
            u_dir = rng.random(tot)
            mag = r_lo + rng.random(tot) * (r - r_lo)
            neg = rng.random(tot) < 0.5
            mag[mag == 0.0] = 0.5 * (r_lo + r) if r_lo > 0.0 else 0.5 * r
            off = np.where(neg, -mag, mag)
            owner = np.repeat(active, counts)
            vertical = u_dir < self.p_vertical
            pos = off > 0.0
            np.minimum.at(x1, owner[vertical & pos], off[vertical & pos])
            np.maximum.at(x0, owner[vertical & ~pos], off[vertical & ~pos])
            np.minimum.at(y1, owner[~vertical & pos], off[~vertical & pos])
            np.maximum.at(y0, owner[~vertical & ~pos], off[~vertical & ~pos])
            ex0 = np.maximum(x0[active], -r)
            ex1 = np.minimum(x1[active], r)
            ey0 = np.maximum(y0[active], -r)
            ey1 = np.minimum(y1[active], r)
            corner = np.maximum(ex0 * ex0, ex1 * ex1) + np.maximum(ey0 * ey0, ey1 * ey1)
            # done cells lie strictly inside the ball, so their line-only bounds are final
            active = active[corner >= (r - EPS_GEOM) ** 2]
            if stats is not None:
                stats.setdefault("active_per_round", []).append(int(active.size))
            r_lo, r = r, 2.0 * r
            if r > self.r_max and active.size:
                raise SimulationAbort(
                    f"{active.size} zero cells still unbounded at radius {r:.3e}"
                )
        return x0, x1, y0, y1


# ---------------------------------------------------------------------------
# convex polygons, held as ccw vertex tuple lists (every measure)


def _annulus_lines(kappa, kt: float, time: float, r_lo: float, r_hi: float, rng):
    """Fresh lines hitting B_r_hi but not B_r_lo: (phi, offset) arrays.

    Per direction the admissible offsets have Lebesgue measure 2*(r_hi - r_lo),
    independent of phi, so the direction marginal is exactly normalized kappa.
    """
    count = int(rng.poisson(time * 2.0 * (r_hi - r_lo) * kt))
    phi = _sample_directions(kappa, rng, count)
    mag = r_lo + rng.random(count) * (r_hi - r_lo)
    neg = rng.random(count) < 0.5
    # a zero-magnitude draw would put a line through the origin; measure-zero event
    mag[mag == 0.0] = 0.5 * (r_lo + r_hi) if r_lo > 0.0 else 0.5 * r_hi
    offset = np.where(neg, -mag, mag)
    return phi, offset


class _PolyZeroCellSampler:
    def __init__(self, measure: LineMeasure, time: float = 1.0, r_max_factor: float = DEFAULT_R_MAX_FACTOR):
        self.kappa = measure.kappa
        self.kt = kappa_total(measure.kappa)
        self.time = time
        self.r0 = 4.0 / (self.kt * time)
        self.r_max = self.r0 * r_max_factor

    def sample(self, rng):
        """Vertex tuple list of the zero cell at the given time."""
        lines: list[tuple[float, float]] = []
        r_lo, r = 0.0, self.r0
        while True:
            phi, offset = _annulus_lines(self.kappa, self.kt, self.time, r_lo, r, rng)
            lines.extend(zip(phi.tolist(), offset.tolist()))
            verts = [(-r, -r), (r, -r), (r, r), (-r, r)]
            for ph, off in lines:
                c, s = math.cos(ph), math.sin(ph)
                if off > 0.0:
                    verts = _clip_cell(verts, c, s, off)
                else:
                    verts = _clip_cell(verts, -c, -s, -off)
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
    if axis_weights(measure.kappa) is not None:
        rect = _RectBatchZeroCells(measure, time, r_max_factor).sample(rng, 1)
        return _rect_to_polygon([float(v[0]) for v in rect])
    return ConvexPolygon._trusted(_PolyZeroCellSampler(measure, time, r_max_factor).sample(rng))


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
    if a <= 1.0:
        raise ValueError(f"renormalization base must exceed 1, got {a}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    engine = make_path_engine(measure, a, ())
    start = engine._start(rng)
    cells = engine._polygons(start) + engine._polygons(engine._walk(start, rng, n_steps))
    return ZeroCellPath(a, tuple(cells))


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
# Each engine holds path cells in its representation: a run of cells is `cells`,
# and a streamed path carries its last cell as a run of one. `_walk` is the one
# renormalized step of a streamed path, `_contain` the one containment test; the
# polygon walk yields its cells one at a time, so each is tested and dropped.


class _RectPathEngine:
    """Axis measures: a run of n cells is a (4, n) array of rows x0, x1, y0, y1."""

    def __init__(self, measure: LineMeasure, a: float, bodies, time: float = 1.0):
        self.batch = _RectBatchZeroCells(measure, time)
        self.a = a
        self.f = a / (a - 1.0)
        self.boxes = [box_of(b.vertices) for b in bodies]

    def _start(self, rng) -> np.ndarray:
        return np.array(self.batch.sample(rng, 1))

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

    def _polygons(self, cells) -> list:
        return [_rect_to_polygon(c) for c in cells.T.tolist()]

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
        state = self._start(rng)
        return state, self._contain(state)[0]

    def path_steps(self, state, rng, n_steps: int):
        """Advance a streamed path by n_steps: (bits (n_steps, n_bodies), state)."""
        cells = self._walk(state, rng, n_steps)
        return self._contain(cells), (cells[:, -1:] if n_steps else state)


class _PolyPathEngine:
    """General measures: a run of cells is a list of ccw vertex tuple lists."""

    def __init__(self, measure: LineMeasure, a: float, bodies, time: float = 1.0):
        self.sampler = _PolyZeroCellSampler(measure, time)
        self.a = a
        self.f = a / (a - 1.0)
        self.bodies = [b.as_tuples() for b in bodies]

    def _start(self, rng) -> list:
        return [self.sampler.sample(rng)]

    def _walk(self, state, rng, n: int):
        """Yield the n path cells after the last cell of `state`, one at a time."""
        verts = state[-1]
        a, f = self.a, self.f
        for _ in range(n):
            fresh = self.sampler.sample(rng)
            verts = _intersect_tuples(
                [(a * x, a * y) for x, y in verts],
                [(f * x, f * y) for x, y in fresh],
            )
            if verts is None:
                raise SimulationAbort("path cell collapsed below the area tolerance")
            yield verts

    def _contain(self, cells, out):
        """Test each cell as it comes into the next row of `out`; returns the last cell."""
        verts = None
        for row, verts in zip(out, cells):
            row[:] = [_contains_tuples(verts, bv) for bv in self.bodies]
        return verts

    def _polygons(self, cells) -> list:
        return [ConvexPolygon._trusted(verts) for verts in cells]

    def run_block(self, rng, m: int, n_steps: int) -> np.ndarray:
        """uint8 array (m, n_steps + 1, n_bodies) of containment bits, one path at a time."""
        bits = np.empty((m, n_steps + 1, len(self.bodies)), dtype=np.uint8)
        for r in range(m):
            start = self._start(rng)
            self._contain(chain(start, self._walk(start, rng, n_steps)), bits[r])
        return bits

    def path_start(self, rng):
        """Initial stationary cell for a streamed single path: (state, bits row)."""
        state = self._start(rng)
        bits = np.empty((1, len(self.bodies)), dtype=np.uint8)
        self._contain(state, bits)
        return state, bits[0]

    def path_steps(self, state, rng, n_steps: int):
        """Advance a streamed path by n_steps: (bits (n_steps, n_bodies), state)."""
        bits = np.empty((n_steps, len(self.bodies)), dtype=np.uint8)
        last = self._contain(self._walk(state, rng, n_steps), bits)
        return bits, ([last] if n_steps else state)


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
