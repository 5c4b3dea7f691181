"""Window tessellations: the cell-splitting jump process and Poisson line arrangements.

The splitting process starts from the trivial tessellation of a convex window;
each cell independently waits an exponential lifetime with rate equal to its
line-hitting mass, then is divided by a line drawn from the measure restricted
to lines hitting that cell. It is run one generation of cells at a time, for
many independent runs at once. The Poisson line tessellation instead drops a
single Poisson population of lines on the window. Both are exact samplers of
their window marginals; refinement (nesting one tessellation into the cells of
another) and superposition of line populations are provided alongside.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationAbort
from .geometry import (
    EPS_GEOM,
    ConvexPolygon,
    _area2,
    _intersect_tuples,
    _rect_to_polygon,
    box_of,
    contains,
    contains_origin_interior,
    intersection,
    rects_contain_boxes,
    split,
)
from .measure import (
    LineMeasure,
    _check_time,
    axis_weights,
    lambda_of,
    sample_hitting,
    sample_poisson_hitting,
)

__all__ = [
    "Tessellation",
    "StitState",
    "StitBatch",
    "PoissonLines",
    "stit_batch",
    "stit_run",
    "stit_run_detailed",
    "pht_sample_lines",
    "tessellation_from_lines",
    "pht_run",
    "superpose",
    "nest",
    "restrict",
    "zero_cell_of",
    "touches_boundary",
]

DEFAULT_MAX_JUMPS = 10_000_000


@dataclass(frozen=True)
class Tessellation:
    """A finite partition of a convex window into convex cells."""

    window: ConvexPolygon
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        self.check_area_partition()

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def check_area_partition(self, rel_tol: float = 1e-8) -> None:
        """Cheap partition certificate: cell areas must sum to the window area."""
        total = sum(c.area for c in self.cells)
        if abs(total - self.window.area) > rel_tol * self.window.area:
            raise AssertionError(
                f"cells cover {total:.12g} of window area {self.window.area:.12g}"
            )

    def validate(self) -> None:
        """Full partition check: area sum, containment, pairwise disjoint interiors."""
        self.check_area_partition()
        for c in self.cells:
            if not contains(self.window, c):
                raise AssertionError("cell leaks outside the window")
        cells = [c.as_tuples() for c in self.cells]
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                inter = _intersect_tuples(cells[i], cells[j])
                if inter is not None and 0.5 * abs(_area2(inter)) > 1e-10:
                    raise AssertionError(f"cells {i} and {j} overlap")

    def to_json(self):
        return {
            "kind": "tessellation",
            "window": self.window.to_json(),
            "cells": [c.to_json() for c in self.cells],
        }

    @classmethod
    def from_json(cls, data) -> "Tessellation":
        return cls(
            ConvexPolygon.from_json(data["window"]),
            tuple(ConvexPolygon.from_json(c) for c in data["cells"]),
        )


@dataclass(frozen=True)
class StitState:
    """Endpoint of a splitting-process run: tessellation, last jump time, jump count."""

    tessellation: Tessellation
    clock: float
    jumps: int


@dataclass(frozen=True)
class PoissonLines:
    """A sampled line population hitting a window (the generator of a line tessellation)."""

    window: ConvexPolygon
    lines: tuple

    def tessellation(self) -> Tessellation:
        return tessellation_from_lines(self.window, self.lines)


# ---------------------------------------------------------------------------
# the cell-splitting process


def _is_axis_box(window: ConvexPolygon) -> bool:
    if window.n_vertices != 4:
        return False
    v = window.vertices
    for i in range(4):
        dx, dy = v[(i + 1) % 4] - v[i]
        if abs(dx) > EPS_GEOM and abs(dy) > EPS_GEOM:
            return False
    return True


class _RectCells:
    """Axis rectangles as rows (x0, x1, y0, y1) of a float array; vertical lines have mass wx.

    A missing zero cell is a NaN row, which meets to NaN and contains nothing.
    """

    def __init__(self, wx: float, wy: float):
        self.wx, self.wy = wx, wy

    def rates(self, rects: np.ndarray) -> np.ndarray:
        return self.wx * (rects[:, 1] - rects[:, 0]) + self.wy * (rects[:, 3] - rects[:, 2])

    def cut(self, rects: np.ndarray, rates: np.ndarray, rng) -> np.ndarray:
        """Both children of every rectangle, all low sides first, then all high sides."""
        n = len(rects)
        u_dir, u_off = rng.random((2, n))
        # flat index of the lower bound (x0 or y0) each cut moves the other way
        lo = np.where(u_dir * rates < self.wx * (rects[:, 1] - rects[:, 0]), 0, 2) + np.arange(0, 4 * n, 4)
        out = np.concatenate((rects, rects))
        flat = out.reshape(-1)
        a, b = flat[lo], flat[lo + 1]
        flat[lo + 1] = flat[lo + 4 * n] = a + u_off * (b - a)
        return out

    def polygons(self, rects: np.ndarray) -> list:
        return [_rect_to_polygon(row) for row in rects.tolist()]

    def zero_cells(self, c: np.ndarray, owner: np.ndarray, m: int) -> np.ndarray:
        hit = (c[:, 0] < -EPS_GEOM) & (c[:, 1] > EPS_GEOM) & (c[:, 2] < -EPS_GEOM) & (c[:, 3] > EPS_GEOM)
        out = np.full((m, 4), np.nan)
        out[owner[hit]] = c[hit]
        return out

    def meet(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # raise the lower bounds x0, y0; lower the upper ones
        return np.where(np.arange(4) % 2 == 0, np.maximum(a, b), np.minimum(a, b))

    def contain(self, rects: np.ndarray, bodies) -> np.ndarray:
        return rects_contain_boxes(*rects.T, [box_of(b.vertices) for b in bodies])


class _PolyCells:
    """Cells as an object array of polygons, for any measure and window; a missing zero cell is None."""

    def __init__(self, measure: LineMeasure):
        self.measure = measure

    def rates(self, polys: np.ndarray) -> np.ndarray:
        return np.array([lambda_of(self.measure, p) for p in polys])

    def cut(self, polys: np.ndarray, rates, rng) -> np.ndarray:
        """Both children of every polygon, all low sides first, then all high sides."""
        out = np.empty((2, len(polys)), dtype=object)
        for i, cell in enumerate(polys):
            for _ in range(64):  # grazing lines are a measure-zero event
                parts = split(cell, sample_hitting(self.measure, cell, rng))
                if parts is not None:
                    break
            else:
                raise SimulationAbort("could not split a cell with 64 sampled lines")
            out[:, i] = parts
        return out.ravel()

    def polygons(self, polys: np.ndarray) -> list:
        return list(polys)

    def zero_cells(self, polys: np.ndarray, owner: np.ndarray, m: int) -> list:
        out = [None] * m
        for cell, run in zip(polys, owner):
            if out[run] is None and contains_origin_interior(cell):
                out[run] = cell
        return out

    def meet(self, a: list, b: list) -> list:
        return [None if p is None or q is None else intersection(p, q) for p, q in zip(a, b)]

    def contain(self, polys: list, bodies) -> np.ndarray:
        out = np.zeros((len(polys), len(bodies)), dtype=bool)
        for r, cell in enumerate(polys):
            if cell is not None:
                out[r] = [contains(cell, body) for body in bodies]
        return out


@dataclass(frozen=True)
class StitBatch:
    """Final cells of m independent splitting runs on one window.

    Axis measures on box windows keep the cells as rows (x0, x1, y0, y1) of a
    (k, 4) array, any other measure as a (k,) object array of polygons; kind
    knows which. owner[i] is the run of cell i; clock and jumps hold each
    run's last split time and split count.
    """

    window: ConvexPolygon
    kind: object
    cells: np.ndarray
    owner: np.ndarray
    clock: np.ndarray
    jumps: np.ndarray

    @property
    def n_cells(self) -> int:
        """Cells over all runs."""
        return len(self.owner)

    def tessellation(self, run: int = 0) -> Tessellation:
        mine = self.cells if len(self.clock) == 1 else self.cells[self.owner == run]
        return Tessellation(self.window, self.kind.polygons(mine))

    def zero_cells(self):
        """Per run, the cell with the origin in its interior, in the format of cells;
        a NaN row, or None, when the origin lies on a cell boundary."""
        return self.kind.zero_cells(self.cells, self.owner, len(self.clock))

    def zero_cells_contain(self, bodies, meet: "StitBatch | None" = None) -> np.ndarray:
        """(m, k) bools: the zero cell of run r contains body j.

        With meet, each zero cell is first intersected with the zero cell of
        the same run of the other batch. A missing zero cell contains nothing.
        """
        zero = self.zero_cells()
        if meet is not None:
            zero = self.kind.meet(zero, meet.zero_cells())
        return self.kind.contain(zero, bodies)


def stit_batch(
    measure: LineMeasure,
    window: ConvexPolygon,
    t: float,
    rng,
    m: int,
    max_jumps: int = DEFAULT_MAX_JUMPS,
) -> StitBatch:
    """Run m independent splitting processes to time t, one generation of cells at a time.

    Every live cell dies at birth + Exp(1) / Lambda([cell]). A cell that dies
    after t is final; any other is cut by one line from the measure restricted
    to it, and both children are born at its death. By competing exponentials
    and memorylessness this is the law of the global-clock jump chain (Nagel &
    Weiss, Adv. Appl. Prob. 37, 2005). max_jumps caps the splits of each run.
    """
    _check_time(t)
    ww = axis_weights(measure.kappa)
    if ww is not None and _is_axis_box(window):
        kind, first = _RectCells(*ww), np.array([box_of(window.vertices)])
    else:
        kind, first = _PolyCells(measure), np.array([window], dtype=object)
    cells, birth, owner = np.repeat(first, m, axis=0), np.zeros(m), np.arange(m)
    jumps = np.zeros(m, dtype=np.int64)
    final, final_birth, final_owner = [], [], []
    while True:
        rates = kind.rates(cells)
        death = birth + rng.standard_exponential(len(owner)) / rates
        done = death > t
        final.append(cells[done])
        final_birth.append(birth[done])
        final_owner.append(owner[done])
        if done.all():
            break
        live = ~done
        owner, death = owner[live], death[live]
        jumps += np.bincount(owner, minlength=m)
        if jumps.max() > max_jumps:
            raise SimulationAbort(f"jump cap {max_jumps} exceeded by time {death.max():.6g}")
        cells = kind.cut(cells[live], rates[live], rng)
        birth, owner = np.concatenate((death, death)), np.concatenate((owner, owner))
    # the children of a run's last split are final, so its clock is their birth
    owner, birth, clock = np.concatenate(final_owner), np.concatenate(final_birth), np.zeros(m)
    np.maximum.at(clock, owner, birth)
    return StitBatch(window, kind, np.concatenate(final), owner, clock, jumps)


def stit_run_detailed(
    measure: LineMeasure,
    window: ConvexPolygon,
    t: float,
    rng,
    max_jumps: int = DEFAULT_MAX_JUMPS,
) -> StitState:
    """Run the splitting process to time t and keep the clock and jump count."""
    batch = stit_batch(measure, window, t, rng, 1, max_jumps)
    return StitState(batch.tessellation(), float(batch.clock[0]), int(batch.jumps[0]))


def stit_run(
    measure: LineMeasure,
    window: ConvexPolygon,
    t: float,
    rng,
    max_jumps: int = DEFAULT_MAX_JUMPS,
) -> Tessellation:
    """Sample the splitting-process tessellation of the window at time t."""
    return stit_run_detailed(measure, window, t, rng, max_jumps).tessellation


# ---------------------------------------------------------------------------
# Poisson line tessellations


def pht_sample_lines(measure: LineMeasure, window: ConvexPolygon, t: float, rng) -> PoissonLines:
    """Poisson(t * Lambda([window])) many i.i.d. window-hitting lines."""
    _check_time(t)
    return PoissonLines(window, tuple(sample_poisson_hitting(measure, window, t, rng)))


def tessellation_from_lines(window: ConvexPolygon, lines) -> Tessellation:
    """Cells of the line arrangement inside a convex window, by iterative splitting."""
    frags = [window]
    for line in lines:
        nxt = []
        for frag in frags:
            parts = split(frag, line)
            if parts is None:
                nxt.append(frag)
            else:
                nxt.extend(parts)
        frags = nxt
    return Tessellation(window, tuple(frags))


def pht_run(measure: LineMeasure, window: ConvexPolygon, t: float, rng) -> Tessellation:
    """Sample the Poisson line tessellation of the window at time t."""
    return pht_sample_lines(measure, window, t, rng).tessellation()


def superpose(a: PoissonLines, b: PoissonLines) -> Tessellation:
    """Tessellation generated by the union of two line populations on one window."""
    if not a.window.close_to(b.window):
        raise ValueError("superpose requires identical windows")
    return tessellation_from_lines(a.window, a.lines + b.lines)


# ---------------------------------------------------------------------------
# nesting and restriction


def _ordered_cells(tess: Tessellation):
    """Cells with the origin-interior cell first, when there is one."""
    idx = None
    for i, c in enumerate(tess.cells):
        if contains_origin_interior(c):
            idx = i
            break
    if idx is None:
        return list(tess.cells)
    return [tess.cells[idx], *tess.cells[:idx], *tess.cells[idx + 1 :]]


def nest(outer: Tessellation, inner_seq) -> Tessellation:
    """Refine each cell of the outer tessellation by one inner tessellation.

    Cell k of the outer tessellation (origin cell enumerated first) is
    intersected with the cells of inner_seq[k]; empty-interior pieces vanish.
    """
    inner_seq = list(inner_seq)
    ordered = _ordered_cells(outer)
    if len(inner_seq) < len(ordered):
        raise ValueError(f"need {len(ordered)} inner tessellations, got {len(inner_seq)}")
    out = []
    for k, cell in enumerate(ordered):
        inner = inner_seq[k]
        if not inner.window.close_to(outer.window):
            raise ValueError("nest requires inner tessellations on the same window")
        if inner.n_cells == 1:
            out.append(cell)
            continue
        pieces = (intersection(piece, cell) for piece in inner.cells)
        out.extend(p for p in pieces if p is not None)
    return Tessellation(outer.window, tuple(out))


def restrict(tess: Tessellation, window: ConvexPolygon) -> Tessellation:
    """The tessellation induced on a sub-window (cells clipped, empty pieces dropped)."""
    pieces = (intersection(cell, window) for cell in tess.cells)
    return Tessellation(window, tuple(p for p in pieces if p is not None))


def zero_cell_of(tess: Tessellation) -> ConvexPolygon | None:
    """The cell containing the origin in its interior, or None (origin on a boundary)."""
    for c in tess.cells:
        if contains_origin_interior(c):
            return c
    return None


def touches_boundary(cell: ConvexPolygon, window: ConvexPolygon, tol: float = EPS_GEOM) -> bool:
    """True when some cell vertex lies within tol of the window boundary."""
    for a, b, c in window.edge_halfplanes():
        nrm = math.hypot(a, b)
        for x, y in cell.vertices:
            if abs(a * x + b * y - c) <= tol * nrm:
                return True
    return False
