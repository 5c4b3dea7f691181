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
# line population, shared by both cell representations


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


# ---------------------------------------------------------------------------
# axis-aligned fast representation (measures supported on phi in {0, pi/2})


class _RectZeroCellSampler:
    """Zero cells for axis measures are rectangles; clipping is interval arithmetic."""

    def __init__(self, measure: LineMeasure, time: float = 1.0, r_max_factor: float = DEFAULT_R_MAX_FACTOR):
        wx_wy = axis_weights(measure.kappa)
        if wx_wy is None:
            raise ValueError("rect sampler needs an axis-aligned discrete measure")
        self.kappa = measure.kappa
        self.kt = kappa_total(measure.kappa)
        self.time = time
        self.r0 = 4.0 / (self.kt * time)
        self.r_max = self.r0 * r_max_factor

    def sample(self, rng):
        """Rectangle (x0, x1, y0, y1) distributed as the zero cell at the given time."""
        x0 = y0 = -math.inf
        x1 = y1 = math.inf
        r_lo, r = 0.0, self.r0
        while True:
            phi, offset = _annulus_lines(self.kappa, self.kt, self.time, r_lo, r, rng)
            vertical = phi < 0.25 * math.pi  # atoms are exactly 0 or pi/2
            vo = offset[vertical]
            ho = offset[~vertical]
            if vo.size:
                pos = vo[vo > 0.0]
                negs = vo[vo < 0.0]
                if pos.size:
                    x1 = min(x1, float(pos.min()))
                if negs.size:
                    x0 = max(x0, float(negs.max()))
            if ho.size:
                pos = ho[ho > 0.0]
                negs = ho[ho < 0.0]
                if pos.size:
                    y1 = min(y1, float(pos.min()))
                if negs.size:
                    y0 = max(y0, float(negs.max()))
            ex0, ex1 = max(x0, -r), min(x1, r)
            ey0, ey1 = max(y0, -r), min(y1, r)
            corner = max(ex0 * ex0, ex1 * ex1) + max(ey0 * ey0, ey1 * ey1)
            if corner < (r - EPS_GEOM) ** 2:
                return ex0, ex1, ey0, ey1
            r_lo, r = r, 2.0 * r
            if r > self.r_max:
                raise SimulationAbort(
                    f"zero cell still unbounded at radius {r:.3e}; "
                    "the directional measure may not span the plane"
                )


class _RectBatchZeroCells:
    """Vectorized sampler of many independent zero cells (axis measures only).

    Same adaptive-doubling population as the scalar sampler, with the annulus
    lines of all still-active cells drawn in one batch and scattered to their
    owners; used by the Monte Carlo engines where zero cells dominate runtime.
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
# generic polygon representation


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


def _make_sampler(measure: LineMeasure, time: float, r_max_factor: float = DEFAULT_R_MAX_FACTOR):
    if axis_weights(measure.kappa) is not None:
        return _RectZeroCellSampler(measure, time, r_max_factor)
    return _PolyZeroCellSampler(measure, time, r_max_factor)


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
    sampler = _make_sampler(measure, time, r_max_factor)
    out = sampler.sample(rng)
    if isinstance(sampler, _RectZeroCellSampler):
        return _rect_to_polygon(out)
    return ConvexPolygon._trusted(out)


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
    sampler = _make_sampler(measure, 1.0)
    f = a / (a - 1.0)
    cells = []
    if isinstance(sampler, _RectZeroCellSampler):
        x0, x1, y0, y1 = sampler.sample(rng)
        cells.append(_rect_to_polygon((x0, x1, y0, y1)))
        for _ in range(n_steps):
            fx0, fx1, fy0, fy1 = sampler.sample(rng)
            x0 = max(a * x0, f * fx0)
            x1 = min(a * x1, f * fx1)
            y0 = max(a * y0, f * fy0)
            y1 = min(a * y1, f * fy1)
            cells.append(_rect_to_polygon((x0, x1, y0, y1)))
    else:
        verts = sampler.sample(rng)
        cells.append(ConvexPolygon._trusted(verts))
        for _ in range(n_steps):
            fresh = sampler.sample(rng)
            verts = _intersect_tuples(
                [(a * x, a * y) for x, y in verts],
                [(f * x, f * y) for x, y in fresh],
            )
            if verts is None:
                raise SimulationAbort("path cell collapsed below the area tolerance")
            cells.append(ConvexPolygon._trusted(verts))
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


class _RectPathEngine:
    """Vectorized indicator paths: all replications of a block step together."""

    def __init__(self, measure: LineMeasure, a: float, bodies, time: float = 1.0):
        self.batch = _RectBatchZeroCells(measure, time)
        self.a = a
        self.f = a / (a - 1.0)
        # the test of geometry.rects_contain_boxes with its tolerance folded into the
        # boxes once, since the streamed path (_bits_one) tests one scalar cell per step
        self.boxes = [
            (bx0 + EPS_GEOM, bx1 - EPS_GEOM, by0 + EPS_GEOM, by1 - EPS_GEOM)
            for bx0, bx1, by0, by1 in (box_of(b.vertices) for b in bodies)
        ]

    def _bits(self, x0, x1, y0, y1, out):
        for k, (bx0, bx1, by0, by1) in enumerate(self.boxes):
            out[:, k] = (x0 <= bx0) & (x1 >= bx1) & (y0 <= by0) & (y1 >= by1)

    def run_block(self, rng, m: int, n_steps: int) -> np.ndarray:
        """uint8 array (m, n_steps + 1, n_bodies) of containment indicators."""
        bits = np.empty((m, n_steps + 1, len(self.boxes)), dtype=np.uint8)
        x0, x1, y0, y1 = self.batch.sample(rng, m)
        self._bits(x0, x1, y0, y1, bits[:, 0, :])
        for n in range(1, n_steps + 1):
            fx0, fx1, fy0, fy1 = self.batch.sample(rng, m)
            x0 = np.maximum(self.a * x0, self.f * fx0)
            x1 = np.minimum(self.a * x1, self.f * fx1)
            y0 = np.maximum(self.a * y0, self.f * fy0)
            y1 = np.minimum(self.a * y1, self.f * fy1)
            self._bits(x0, x1, y0, y1, bits[:, n, :])
        return bits

    def path_start(self, rng):
        """Initial stationary cell for a streamed single path: (state, bits row)."""
        x0, x1, y0, y1 = self.batch.sample(rng, 1)
        state = (float(x0[0]), float(x1[0]), float(y0[0]), float(y1[0]))
        return state, self._bits_one(state)

    def path_steps(self, state, rng, n_steps: int):
        """Advance a streamed path: fresh cells batch-sampled, folded sequentially."""
        fx0, fx1, fy0, fy1 = self.batch.sample(rng, n_steps)
        x0, x1, y0, y1 = state
        a, f = self.a, self.f
        bits = np.empty((n_steps, len(self.boxes)), dtype=np.uint8)
        for i in range(n_steps):
            x0 = max(a * x0, f * fx0[i])
            x1 = min(a * x1, f * fx1[i])
            y0 = max(a * y0, f * fy0[i])
            y1 = min(a * y1, f * fy1[i])
            bits[i] = self._bits_one((x0, x1, y0, y1))
        return bits, (x0, x1, y0, y1)

    def _bits_one(self, state):
        x0, x1, y0, y1 = state
        return [
            1 if (x0 <= bx0 and x1 >= bx1 and y0 <= by0 and y1 >= by1) else 0
            for bx0, bx1, by0, by1 in self.boxes
        ]


class _PolyPathEngine:
    """Scalar fallback for general directional measures."""

    def __init__(self, measure: LineMeasure, a: float, bodies, time: float = 1.0):
        self.sampler = _PolyZeroCellSampler(measure, time)
        self.a = a
        self.f = a / (a - 1.0)
        self.bodies = [b.as_tuples() for b in bodies]

    def run_block(self, rng, m: int, n_steps: int) -> np.ndarray:
        bits = np.empty((m, n_steps + 1, len(self.bodies)), dtype=np.uint8)
        for r in range(m):
            verts = self.sampler.sample(rng)
            for k, bv in enumerate(self.bodies):
                bits[r, 0, k] = _contains_tuples(verts, bv)
            for n in range(1, n_steps + 1):
                verts = self._step(verts, rng)
                for k, bv in enumerate(self.bodies):
                    bits[r, n, k] = _contains_tuples(verts, bv)
        return bits

    def _step(self, verts, rng):
        fresh = self.sampler.sample(rng)
        out = _intersect_tuples(
            [(self.a * x, self.a * y) for x, y in verts],
            [(self.f * x, self.f * y) for x, y in fresh],
        )
        if out is None:
            raise SimulationAbort("path cell collapsed below the area tolerance")
        return out

    def path_start(self, rng):
        verts = self.sampler.sample(rng)
        return verts, [_contains_tuples(verts, bv) for bv in self.bodies]

    def path_steps(self, state, rng, n_steps: int):
        bits = np.empty((n_steps, len(self.bodies)), dtype=np.uint8)
        verts = state
        for i in range(n_steps):
            verts = self._step(verts, rng)
            for k, bv in enumerate(self.bodies):
                bits[i, k] = _contains_tuples(verts, bv)
        return bits, verts


def make_path_engine(measure: LineMeasure, a: float, bodies, time: float = 1.0):
    """Pick the fastest exact engine for the measure."""
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
