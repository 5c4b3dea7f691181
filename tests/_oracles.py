"""Independent oracles used by the tests.

Each oracle recomputes a quantity by a route structurally different from the
library implementation it checks: brute-force vertex enumeration for clipping,
numeric quadrature for the isotropic hitting mass, ray casting for
containment, the literal per-cell clock race for the splitting process,
crossing counting for arrangement cell counts, a four-array copy of the
axis zero-cell sampler that pins the batch sampler's output bit for bit, the
clip-every-round polygon sampler, which pins the polygon sampler bit for bit,
a clip-and-contain path engine, which on the capped gauges' own lines pins the
gauge path bits bit for bit and on the doubling route pins the cells of
`sample_gamma_path` vertex for vertex, a rectangle path engine that steps
bound arrays and tests boxes, which pins the axis gauge path bits bit for bit,
the exact law of the path bits, which draws no line at all, and renewal sets
read off the path bits, which cross-check the delay estimators. Disc-line
draws come in two numpy forms: the former two-call draw (directions, then
offsets), which pins the one-draw `measure.disc_lines` for isotropic and
discrete measures, and the one-draw order itself, which the same-lines
oracles use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.spatial import ConvexHull

from crofton.errors import SimulationAbort
from crofton.geometry import (
    EPS_GEOM,
    ConvexPolygon,
    Direction,
    _clip_cell,
    _contains_tuples,
    _intersect_tuples,
    box_of,
    rects_contain_boxes,
    width,
)
from crofton.measure import Discrete, Isotropic, LineMeasure, Mixture, lambda_of, sample_hitting
from crofton.tessellation import DEFAULT_MAX_JUMPS
from crofton.zero_cell import _RectBatchZeroCells
from crofton.geometry import split as geom_split


def random_convex_polygon(rng, n_points_max: int = 12, radius: float = 1.0, center=(0.0, 0.0)):
    """Convex hull of random points in a disk; retried until nondegenerate."""
    while True:
        n = int(rng.integers(3, n_points_max + 1))
        ang = rng.random(n) * 2.0 * math.pi
        rad = radius * np.sqrt(rng.random(n))
        pts = np.column_stack([center[0] + rad * np.cos(ang), center[1] + rad * np.sin(ang)])
        try:
            hull = ConvexHull(pts)
        except Exception:
            continue
        verts = pts[hull.vertices]
        try:
            return ConvexPolygon(verts)
        except ValueError:
            continue


def random_hitting_line(rng, polygon: ConvexPolygon, margin_frac: float = 0.05):
    """A line through the polygon interior, kept away from grazing by a margin."""
    phi = rng.random() * math.pi
    n = (math.cos(phi), math.sin(phi))
    proj = polygon.vertices @ n
    lo, hi = proj.min(), proj.max()
    m = margin_frac * (hi - lo)
    from crofton.geometry import Line

    return Line(Direction(phi), lo + m + rng.random() * (hi - lo - 2 * m))


def clip_by_vertex_enumeration(polygon: ConvexPolygon, a: float, b: float, c: float):
    """Polygon cut {ax + by <= c} as the hull of kept vertices plus edge crossings."""
    verts = polygon.as_tuples()
    n = len(verts)
    pts = []
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        d0 = a * x0 + b * y0 - c
        d1 = a * x1 + b * y1 - c
        if d0 <= 0:
            pts.append((x0, y0))
        if (d0 < 0 < d1) or (d1 < 0 < d0):
            t = d0 / (d0 - d1)
            pts.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    if len(pts) < 3:
        return None
    arr = np.array(pts)
    try:
        hull = ConvexHull(arr)
    except Exception:
        return None
    out = arr[hull.vertices]
    area = 0.5 * abs(
        float(np.sum(out[:, 0] * np.roll(out[:, 1], -1) - np.roll(out[:, 0], -1) * out[:, 1]))
    )
    if area < 1e-12:
        return None
    return ConvexPolygon(out)


def isotropic_lambda_by_quadrature(polygon: ConvexPolygon, mass: float = 1.0) -> float:
    """Hitting mass of the isotropic measure by direct quadrature of the width.

    The width is piecewise smooth with kinks where the supporting vertex
    changes, i.e. at the edge-normal angles; those are passed as breakpoints.
    """
    verts = polygon.as_tuples()
    kinks = set()
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        kinks.add(math.atan2(x0 - x1, y1 - y0) % math.pi)
    val, _ = quad(
        lambda phi: width(polygon, Direction(phi)),
        0.0,
        math.pi,
        points=sorted(kinks),
        limit=200,
    )
    return mass * val / math.pi


def ray_casting_contains(polygon: ConvexPolygon, x: float, y: float) -> bool:
    """Point-in-polygon by crossing number (no signed-distance machinery)."""
    verts = polygon.as_tuples()
    crossings = 0
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            t = (y - y0) / (y1 - y0)
            if x0 + t * (x1 - x0) > x:
                crossings += 1
    return crossings % 2 == 1


def containment_oracle(outer: ConvexPolygon, inner: ConvexPolygon, rng, n_interior: int = 400):
    """Ray-casting verdict on inward-nudged vertices and random interior points.

    Returns True / False / None; None means the sampled margin is below 1e-6
    and the oracle abstains.
    """
    cx = float(inner.vertices[:, 0].mean())
    cy = float(inner.vertices[:, 1].mean())
    nudge = 1e-6
    pts = []
    for x, y in inner.vertices:
        d = math.hypot(x - cx, y - cy)
        if d > 10 * nudge:
            pts.append((x - nudge * (x - cx) / d, y - nudge * (y - cy) / d))
    w = rng.dirichlet(np.ones(inner.n_vertices), size=n_interior)
    pts.extend((float(px), float(py)) for px, py in w @ inner.vertices)
    # the verdict comes from ray casting; edge distances only gate abstention
    margin = max(
        (a * x + b * y - c) / math.hypot(a, b)
        for a, b, c in outer.edge_halfplanes()
        for x, y in inner.vertices
    )
    if abs(margin) <= 1e-6:
        return None
    outside = [p for p in pts if not ray_casting_contains(outer, *p)]
    return not outside


def literal_split_process_cells(measure, window: ConvexPolygon, t: float, rng):
    """The construction with fresh unit-exponential marks per cell per jump and
    window-measure line rejection: the first sampled window line hitting the
    chosen cell performs the split."""
    cells = [window]
    clock = 0.0
    for _ in range(DEFAULT_MAX_JUMPS):
        waits = [rng.exponential() / lambda_of(measure, c) for c in cells]
        i = int(np.argmin(waits))
        if clock + waits[i] > t:
            return cells
        clock += waits[i]
        while True:
            line = sample_hitting(measure, window, rng)
            parts = geom_split(cells[i], line)
            if parts is not None:
                break
        cells[i : i + 1] = list(parts)
    raise RuntimeError("oracle jump cap exceeded")


def arrangement_cell_count(window: ConvexPolygon, lines) -> int:
    """Cells of a line arrangement in a convex window: 1 + sum(1 + interior crossings)."""
    from crofton.geometry import contains_point

    count = 1
    seen = []
    for phi, r in lines:
        crossings = 0
        for phi2, r2 in seen:
            det = math.sin(phi2 - phi)
            if abs(det) < 1e-12:
                continue
            x = (r * math.sin(phi2) - r2 * math.sin(phi)) / det
            y = (r2 * math.cos(phi) - r * math.cos(phi2)) / det
            if contains_point(window, x, y, tol=-1e-9):
                crossings += 1
        count += 1 + crossings
        seen.append((phi, r))
    return count


def four_scatter_rect_zero_cells(batch, rng, m: int, stats: dict):
    """The axis sampler written with one bound array and one masked scatter per side.

    Same draws, in the same order, as `_RectBatchZeroCells.sample`; each side's
    bound is a min or max over its own lines, so the outputs must agree bit for bit.
    """
    x0 = np.full(m, -math.inf)
    y0 = np.full(m, -math.inf)
    x1 = np.full(m, math.inf)
    y1 = np.full(m, math.inf)
    active = np.arange(m)
    r_lo, r = 0.0, batch.r0
    while active.size:
        counts = rng.poisson(batch.time * 2.0 * (r - r_lo) * batch.kt, active.size)
        tot = int(counts.sum())
        u_dir = rng.random(tot)
        mag = r_lo + rng.random(tot) * (r - r_lo)
        neg = rng.random(tot) < 0.5
        mag[mag == 0.0] = 0.5 * (r_lo + r) if r_lo > 0.0 else 0.5 * r
        off = np.where(neg, -mag, mag)
        owner = np.repeat(active, counts)
        vertical = u_dir < batch.p_vertical
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
        active = active[corner >= (r - EPS_GEOM) ** 2]
        stats.setdefault("active_per_round", []).append(int(active.size))
        r_lo, r = r, 2.0 * r
    return x0, x1, y0, y1


def _kappa_mass(kappa) -> float:
    if isinstance(kappa, Mixture):
        return sum(w * _kappa_mass(m) for m, w in kappa.components)
    return kappa.mass if isinstance(kappa, Isotropic) else sum(w for _, w in kappa.atoms)


def _kappa_width(kappa) -> int:
    if isinstance(kappa, Mixture):
        return 1 + max(_kappa_width(m) for m, _ in kappa.components)
    return 1


def _pick(weights, u: np.ndarray) -> np.ndarray:
    """Index of the weight each uniform picks by cumulative weight, clamped to the last."""
    cum = np.cumsum(weights)
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), len(cum) - 1)


def _atom_directions(kappa, u: np.ndarray) -> np.ndarray:
    """One direction of an isotropic or discrete kappa per uniform."""
    if isinstance(kappa, Isotropic):
        return u * math.pi
    return np.array([p for p, _ in kappa.atoms])[_pick([w for _, w in kappa.atoms], u)]


def _component_picks(kappa, u: np.ndarray):
    """(component, mask of the uniforms that picked it) per component of a mixture."""
    comp = _pick([w * _kappa_mass(m) for m, w in kappa.components], u)
    return [(m, comp == j) for j, (m, _) in enumerate(kappa.components)]


def two_call_directions(kappa, rng, n: int) -> np.ndarray:
    """n directions of the normalized kappa, drawn the way `disc_lines` drew them before it
    made one uniform draw per batch: one numpy draw per level, a mixture's components
    drawing in turn for the lines that picked them."""
    if not isinstance(kappa, Mixture):
        return _atom_directions(kappa, rng.random(n))
    out = np.empty(n)
    for m, mask in _component_picks(kappa, rng.random(n)):
        k = int(mask.sum())
        if k:
            out[mask] = two_call_directions(m, rng, k)
    return out


def two_call_disc_draw(kappa, rng, count: int):
    """(directions, offset uniforms) of count disc lines by the two-call draw: the directions,
    then count uniforms for the offsets."""
    return two_call_directions(kappa, rng, count), rng.random(count)


def _row_directions(kappa, u: np.ndarray) -> np.ndarray:
    """One direction per row of the (n, width) uniform array u, each row read from its front."""
    if not isinstance(kappa, Mixture):
        return _atom_directions(kappa, u[:, 0])
    out = np.empty(len(u))
    for m, mask in _component_picks(kappa, u[:, 0]):
        out[mask] = _row_directions(m, u[mask, 1:])
    return out


def one_draw_disc_draw(kappa, rng, count: int):
    """(directions, offset uniforms) of count disc lines in the order of `disc_lines`: one
    draw of (w + 1) * count uniforms, line i's direction from row i of the first w * count
    taken as a (count, w) array, its offset uniform from the last count."""
    w = _kappa_width(kappa)
    u = rng.random((w + 1) * count)
    return _row_directions(kappa, u[:w * count].reshape(count, w)), u[w * count:]


def clip_every_round_zero_cell(sampler, rng):
    """The polygon sampler that clips the box B_r by all lines in every doubling round.

    Same draws, in the same order, and the same stopping rule as
    `_PolyZeroCellSampler.sample`, written as whole-array numpy draws: in the
    round of radius r, a Poisson(t * 2r * kt) count of lines hitting B_r, with
    offsets r * (2u - 1), of which those with |offset| > r_lo (the previous
    radius) are kept; stop once every clipped vertex lies strictly inside the
    ball of radius r - EPS_GEOM. The sampler must return the same vertex lists
    bit for bit and leave the generator in the same state, so a change to its
    draws, its thinning, its clip order or its stopping radius shows here.
    """
    lines = []
    r_lo, r = 0.0, sampler.r0
    while True:
        count = int(rng.poisson(sampler.time * 2.0 * r * sampler.kt))
        phi, u = one_draw_disc_draw(sampler.kappa, rng, count)
        offset = r * (2.0 * u - 1.0)
        keep = np.abs(offset) > r_lo
        lines.extend(zip(phi[keep].tolist(), offset[keep].tolist()))
        verts = [(-r, -r), (r, -r), (r, r), (-r, r)]
        for ph, off in lines:
            c, s = math.cos(ph), math.sin(ph)
            clipped = _clip_cell(verts, c, s, off) if off > 0.0 else _clip_cell(verts, -c, -s, -off)
            if clipped is None:
                raise SimulationAbort("zero cell collapsed below the area tolerance")
            verts = clipped[0]
        if all(x * x + y * y < (r - EPS_GEOM) ** 2 for x, y in verts):
            return verts
        r_lo, r = r, 2.0 * r
        if r > sampler.r_max:
            raise SimulationAbort(
                f"zero cell still unbounded at radius {r:.3e}; "
                "the directional measure may not span the plane"
            )


def capped_zero_cell(sampler, rng, reach: float, scale: float):
    """The box of radius rho = reach / scale, clipped by the zero cell's lines that hit the ball B_rho.

    Same draws, in the same order, as `_PolyZeroCellSampler.gauges(rng, bodies, scale, 1)` for
    bodies whose largest vertex norm is `reach`. No other line meets c * body for
    c <= 1 / scale, which lies in B_rho, so such a c * body lies in this polygon exactly
    when it lies in the zero cell.
    """
    rho = reach / scale
    count = int(rng.poisson(sampler.time * 2.0 * rho * sampler.kt))
    phi, u = one_draw_disc_draw(sampler.kappa, rng, count)
    offset = rho * (2.0 * u - 1.0)
    verts = [(-rho, -rho), (rho, -rho), (rho, rho), (-rho, rho)]
    for ph, off in zip(phi.tolist(), offset.tolist()):
        c, s = math.cos(ph), math.sin(ph)
        clipped = _clip_cell(verts, c, s, off) if off > 0.0 else _clip_cell(verts, -c, -s, -off)
        if clipped is None:
            raise SimulationAbort("zero cell collapsed below the area tolerance")
        verts = clipped[0]
    return verts


def law_paths(lam: float, a: float, m: int, n: int, rng) -> np.ndarray:
    """uint8 (m, n + 1, 2) path bits of K and aK drawn from their exact law; no line is drawn.

    By Crofton the gauge of K in a zero cell (the largest c with cK inside it) is
    Exp(lam) with lam = Lambda([K]), and fresh cells are independent, so the gauge of
    path cell k is G_0 = g_0 and G_k = min(a * G_(k-1), f * g_k), f = a / (a - 1), with
    g_k ~ Exp(lam) i.i.d.; cell k contains K when G_k >= 1 and aK when G_k >= a.
    """
    f = a / (a - 1.0)
    g = rng.exponential(1.0 / lam, (m, n + 1))
    for k in range(1, n + 1):
        g[:, k] = np.minimum(a * g[:, k - 1], f * g[:, k])
    return np.stack([g >= 1.0, g >= a], axis=2).astype(np.uint8)


def coverage_calibration(make_report, n_meta: int = 20, base_seed: int = 0) -> float:
    """Fraction of meta-runs whose 99% CI covers the analytic value."""
    covered = 0
    for i in range(n_meta):
        rep = make_report(base_seed + i)
        lo, hi = rep.ci99
        if lo <= rep.analytic <= hi:
            covered += 1
    return covered / n_meta


class ClippedPolygonPaths:
    """A polygon path engine that builds every path cell and tests containment.

    Each cell is a * cell ∩ f * fresh, clipped vertex by vertex, and its bits are
    closed containment within EPS_GEOM; the streamed state is the last cell. Its
    zero cells come from `clip_every_round_zero_cell` (the doubling route): then
    `cells` makes the same draws and clips, in the same order, as
    `sample_gamma_path`. With `capped` they come from `capped_zero_cell` at scale 1
    for the start and f for a fresh cell: then it makes the same draws, in the same
    order, as the path engine of `make_path_engine`, whose bits come from capped gauges.
    """

    def __init__(self, sampler, a: float, bodies, capped: bool = False):
        self.sampler = sampler
        self.a = a
        self.f = a / (a - 1.0)
        self.bodies = [b.as_tuples() for b in bodies]
        self.capped = capped
        self.reach = max(math.sqrt(max(x * x + y * y for x, y in verts)) for verts in self.bodies)

    def _cell(self, rng, scale: float):
        if self.capped:
            return capped_zero_cell(self.sampler, rng, self.reach, scale)
        return clip_every_round_zero_cell(self.sampler, rng)

    def _walk(self, verts, rng, n: int):
        a, f = self.a, self.f
        for _ in range(n):
            fresh = self._cell(rng, f)
            verts = _intersect_tuples([(a * x, a * y) for x, y in verts], [(f * x, f * y) for x, y in fresh])
            if verts is None:
                raise SimulationAbort("path cell collapsed below the area tolerance")
            yield verts

    def _contain(self, cells, out):
        verts = None
        for row, verts in zip(out, cells):
            row[:] = [_contains_tuples(verts, bv) for bv in self.bodies]
        return verts

    def cells(self, rng, n_steps: int) -> list:
        """Vertex lists of one path's cells 0..n_steps."""
        start = self._cell(rng, 1.0)
        return [start, *self._walk(start, rng, n_steps)]

    def run_block(self, rng, m: int, n_steps: int) -> np.ndarray:
        bits = np.empty((m, n_steps + 1, len(self.bodies)), dtype=np.uint8)
        for r in range(m):
            self._contain(self.cells(rng, n_steps), bits[r])
        return bits

    def path_start(self, rng):
        state = self._cell(rng, 1.0)
        bits = np.empty((1, len(self.bodies)), dtype=np.uint8)
        self._contain([state], bits)
        return state, bits[0]

    def path_steps(self, state, rng, n_steps: int):
        bits = np.empty((n_steps, len(self.bodies)), dtype=np.uint8)
        last = self._contain(self._walk(state, rng, n_steps), bits)
        return bits, (state if last is None else last)


class RectanglePaths:
    """Axis measures: a path engine that steps rectangles, a run of n cells being a (4, n)
    array of rows x0, x1, y0, y1, and tests their bounds against the bodies' boxes.

    Same draws, in the same order, as the gauge path engine of `make_path_engine` on an
    axis measure: all m start cells, then m fresh cells per step in `run_block`, and one
    batch of n fresh cells per `path_steps(state, rng, n)`. Its containment ties are those
    of `rects_contain_boxes`, so the bits must agree bit for bit.
    """

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


@dataclass(frozen=True)
class RenewalSetSample:
    """Indices with containment bit 1 within one simulated path window."""

    times: tuple

    def __post_init__(self):
        ts = tuple(int(t) for t in self.times)
        object.__setattr__(self, "times", ts)
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("renewal times must be strictly increasing")

    @property
    def gaps(self) -> tuple:
        return tuple(b - a for a, b in zip(self.times, self.times[1:]))


def renewal_sets(paths: np.ndarray) -> list:
    """Per-path renewal sets extracted from a simulated indicator array."""
    out = []
    for row in paths[:, :, 0]:
        out.append(RenewalSetSample(tuple(np.flatnonzero(row).tolist())))
    return out
