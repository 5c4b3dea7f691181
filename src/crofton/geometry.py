"""Planar convex geometry: polygons, half-plane clipping, widths, containment.

All coordinates are float64 in length units. Degeneracy is handled with two
explicit tolerances: EPS_GEOM for collinearity / on-boundary decisions and
EPS_AREA below which a region counts as empty.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS_GEOM = 1e-9
EPS_AREA = 1e-12

# consecutive output vertices closer than this are merged after clipping
_EPS_DUP = 1e-12
_EPS_ONLINE = 1e-12

__all__ = [
    "EPS_GEOM",
    "EPS_AREA",
    "Direction",
    "Line",
    "HalfPlane",
    "ConvexPolygon",
    "clip",
    "split",
    "halfplane_intersection",
    "width",
    "scale",
    "translate",
    "contains",
    "contains_point",
    "contains_origin_interior",
    "intersection",
    "box_of",
    "rects_contain_boxes",
    "centered_square",
    "box",
    "regular_polygon",
]


def _check_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite coordinate: {v!r}")


@dataclass(frozen=True)
class Direction:
    """An undirected planar direction, as the normal angle phi in [0, pi)."""

    phi: float

    def __post_init__(self):
        _check_finite(self.phi)
        if not 0.0 <= self.phi < math.pi:
            raise ValueError(f"direction angle must lie in [0, pi), got {self.phi}")

    @property
    def normal(self) -> tuple[float, float]:
        return (math.cos(self.phi), math.sin(self.phi))


@dataclass(frozen=True)
class Line:
    """The line {p : p . n(phi) = offset}, n(phi) = (cos phi, sin phi)."""

    direction: Direction
    offset: float

    def __post_init__(self):
        _check_finite(self.offset)

    @property
    def normal(self) -> tuple[float, float]:
        return self.direction.normal


@dataclass(frozen=True)
class HalfPlane:
    """One side of a line: side=+1 keeps {p.n >= offset}, side=-1 keeps {p.n <= offset}."""

    line: Line
    side: int

    def __post_init__(self):
        if self.side not in (+1, -1):
            raise ValueError(f"side must be +1 or -1, got {self.side}")

    def as_leq(self) -> tuple[float, float, float]:
        """Return (a, b, c) with the half-plane written as a*x + b*y <= c."""
        nx, ny = self.line.normal
        if self.side == -1:
            return nx, ny, self.line.offset
        return -nx, -ny, -self.line.offset


# ---------------------------------------------------------------------------
# low-level kernel on plain vertex lists (tuples), used by the samplers

def _area2(verts) -> float:
    """Twice the signed area (positive for counter-clockwise order)."""
    s = 0.0
    x0, y0 = verts[-1]
    for x1, y1 in verts:
        s += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return s


def _clip_leq(verts, a: float, b: float, c: float):
    """Clip a convex ccw vertex list by {a*x + b*y <= c}; returns a list, maybe < 3 long."""
    out = []
    n = len(verts)
    px, py = verts[-1]
    dp = a * px + b * py - c
    for i in range(n):
        qx, qy = verts[i]
        dq = a * qx + b * qy - c
        if dp <= _EPS_ONLINE:
            out.append((px, py))
            if dq > _EPS_ONLINE and dp < -_EPS_ONLINE:
                t = dp / (dp - dq)
                out.append((px + t * (qx - px), py + t * (qy - py)))
        elif dq <= _EPS_ONLINE:
            t = dp / (dp - dq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
        px, py, dp = qx, qy, dq
    return out


def _tidy(verts):
    """Merge near-duplicate consecutive vertices and drop collinear middles."""
    n = len(verts)
    if n < 3:
        return verts
    kept = []
    for x, y in verts:
        if kept and abs(x - kept[-1][0]) <= _EPS_DUP and abs(y - kept[-1][1]) <= _EPS_DUP:
            continue
        kept.append((x, y))
    if len(kept) >= 2 and abs(kept[0][0] - kept[-1][0]) <= _EPS_DUP and abs(kept[0][1] - kept[-1][1]) <= _EPS_DUP:
        kept.pop()
    if len(kept) < 3:
        return kept
    out = []
    m = len(kept)
    for i in range(m):
        ax, ay = kept[i - 1]
        bx, by = kept[i]
        cx, cy = kept[(i + 1) % m]
        e1x, e1y = bx - ax, by - ay
        e2x, e2y = cx - bx, cy - by
        cross = e1x * e2y - e1y * e2x
        tol = 1e-12 * (1.0 + math.hypot(e1x, e1y) * math.hypot(e2x, e2y))
        if cross > tol:
            out.append((bx, by))
    return out


def _clip_cell(verts, a: float, b: float, c: float):
    """Clip and tidy: (vertex list, twice its area), or None when the remaining region is empty."""
    out = _tidy(_clip_leq(verts, a, b, c))
    if len(out) < 3:
        return None
    area2 = _area2(out)
    if area2 <= 2.0 * EPS_AREA:
        return None
    return out, area2


def _clip_all(verts, constraints):
    """Clip by each (a, b, c) constraint a*x + b*y <= c in turn; None once the region is empty."""
    for a, b, c in constraints:
        clipped = _clip_cell(verts, a, b, c)
        if clipped is None:
            return None
        verts = clipped[0]
    return verts


def _edges(verts):
    """The ccw vertex list as (a, b, c) constraints a*x + b*y <= c, one per edge."""
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        a, b = y1 - y0, x0 - x1  # outward normal of a ccw edge
        yield a, b, a * x0 + b * y0


def _intersect_tuples(avt, bvt):
    """Clip the ccw vertex list avt by every edge of the ccw list bvt; None when empty."""
    return _clip_all(avt, _edges(bvt))


def _contains_tuples(cell_verts, body_verts, tol: float = EPS_GEOM) -> bool:
    """Closed containment of one ccw vertex list in another, ties within tol inside."""
    for a, b, c in _edges(cell_verts):
        limit = c + tol * math.hypot(a, b)
        for x, y in body_verts:
            if a * x + b * y > limit:
                return False
    return True


def _rotate_canonical(verts) -> tuple:
    """The vertex cycle as a tuple starting at its lexicographically smallest vertex."""
    k = min(range(len(verts)), key=verts.__getitem__)
    return (*verts[k:], *verts[:k])


def _perimeter(verts) -> float:
    """Sum of the edge lengths of a ccw vertex list."""
    dx, dy = [], []
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        dx.append(x1 - x0)
        dy.append(y1 - y0)
    return float(np.hypot(dx, dy).sum())


# ---------------------------------------------------------------------------


class ConvexPolygon:
    """An immutable strictly convex polygon with counter-clockwise vertices.

    The vertices are held as a tuple of Python float pairs, rotated so the
    lexicographically smallest vertex comes first. The read-only (n, 2)
    float64 array `vertices` and the perimeter are built on first use.
    """

    __slots__ = ("_verts", "_area", "_array", "_perimeter")

    def __init__(self, vertices):
        verts = [(float(x), float(y)) for x, y in np.asarray(vertices, dtype=float).reshape(-1, 2)]
        if len(verts) < 3:
            raise ValueError("a convex polygon needs at least 3 vertices")
        for x, y in verts:
            _check_finite(x, y)
        n = len(verts)
        for i in range(n):
            ax, ay = verts[i - 1]
            bx, by = verts[i]
            cx, cy = verts[(i + 1) % n]
            cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            if cross <= EPS_GEOM * EPS_GEOM:
                raise ValueError(
                    "vertices must be strictly convex in counter-clockwise order "
                    f"(cross product {cross:.3e} at vertex {i})"
                )
        # EPS_AREA guards clipping-derived slivers; a constructed polygon only
        # needs a nonempty interior
        area = 0.5 * _area2(verts)
        if area <= 0.0:
            raise ValueError(f"polygon area {area:.3e} must be positive")
        self._init_trusted(verts, area)

    def _init_trusted(self, verts, area):
        self._verts = _rotate_canonical(verts)
        self._area = float(area)
        self._array = None
        self._perimeter = None

    @classmethod
    def _trusted(cls, verts, area2: float | None = None) -> "ConvexPolygon":
        """Build from a known-valid ccw list of float pairs, skipping validation;
        area2, twice the area, when the caller has it already."""
        p = cls.__new__(cls)
        p._init_trusted(verts, 0.5 * (_area2(verts) if area2 is None else area2))
        return p

    # -- basic accessors ----------------------------------------------------

    @property
    def vertices(self) -> np.ndarray:
        if self._array is None:
            self._array = np.array(self._verts, dtype=float)
            self._array.setflags(write=False)
        return self._array

    @property
    def n_vertices(self) -> int:
        return len(self._verts)

    @property
    def area(self) -> float:
        return self._area

    @property
    def perimeter(self) -> float:
        if self._perimeter is None:
            self._perimeter = _perimeter(self._verts)
        return self._perimeter

    def as_tuples(self) -> tuple:
        """The vertices as a tuple of (x, y) Python float pairs."""
        return self._verts

    def edge_halfplanes(self):
        """The polygon as a list of (a, b, c) constraints a*x + b*y <= c."""
        return list(_edges(self.as_tuples()))

    def __repr__(self):
        return f"ConvexPolygon({self.n_vertices} vertices, area={self._area:.6g})"

    def close_to(self, other: "ConvexPolygon", tol: float = EPS_GEOM) -> bool:
        """Vertex-cycle equality within tol.

        Both vertex arrays start at their lexicographically smallest vertex,
        but round-off can pick different starts for one polygon, so every
        rotation of the other cycle is tried after the canonical one.
        """
        n = self.n_vertices
        if n != other.n_vertices:
            return False
        return any(
            bool(np.all(np.abs(self.vertices - np.roll(other.vertices, k, axis=0)) <= tol))
            for k in range(n)
        )

    def to_json(self):
        """JSON representation: array of [x, y] pairs, counter-clockwise."""
        return [[float(x), float(y)] for x, y in self._verts]

    @classmethod
    def from_json(cls, data) -> "ConvexPolygon":
        return cls(data)


# ---------------------------------------------------------------------------
# constructors


def _rect_to_polygon(rect) -> ConvexPolygon:
    """The axis rectangle (x0, x1, y0, y1) as a polygon."""
    x0, x1, y0, y1 = rect
    return ConvexPolygon._trusted([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def centered_square(side: float) -> ConvexPolygon:
    """Axis-aligned square of the given side length centered at the origin."""
    h = 0.5 * side
    return ConvexPolygon([(-h, -h), (h, -h), (h, h), (-h, h)])


def box(x0: float, y0: float, x1: float, y1: float) -> ConvexPolygon:
    return ConvexPolygon([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def regular_polygon(k: int, circumradius: float = 1.0, phase: float = 0.0) -> ConvexPolygon:
    if k < 3:
        raise ValueError("need at least 3 vertices")
    ang = phase + 2.0 * math.pi * np.arange(k) / k
    return ConvexPolygon(np.column_stack([circumradius * np.cos(ang), circumradius * np.sin(ang)]))


# ---------------------------------------------------------------------------
# operations


def clip(polygon: ConvexPolygon, hp: HalfPlane) -> ConvexPolygon | None:
    """Intersect a polygon with a half-plane; None when the interior vanishes."""
    return halfplane_intersection([hp], polygon)


def split(polygon: ConvexPolygon, line: Line) -> tuple[ConvexPolygon, ConvexPolygon] | None:
    """Cut a polygon by a line into its two sides; None when the line misses the interior."""
    nx, ny = line.normal
    verts = polygon.as_tuples()
    lo = _clip_cell(verts, nx, ny, line.offset)
    hi = _clip_cell(verts, -nx, -ny, -line.offset)
    if lo is None or hi is None:
        return None
    return ConvexPolygon._trusted(*lo), ConvexPolygon._trusted(*hi)


def halfplane_intersection(hps, bound: ConvexPolygon) -> ConvexPolygon | None:
    """Intersect a bounding polygon with every half-plane in the list."""
    verts = _clip_all(bound.as_tuples(), (hp.as_leq() for hp in hps))
    return None if verts is None else ConvexPolygon._trusted(verts)


def width(polygon: ConvexPolygon, direction: Direction) -> float:
    """Length of the projection of the polygon onto the direction's normal."""
    nx, ny = direction.normal
    proj = polygon.vertices @ (nx, ny)
    return float(proj.max() - proj.min())


def scale(polygon: ConvexPolygon, c: float) -> ConvexPolygon:
    """Vertex-wise scaling about the origin; c < 0 reflects, c = 0 is rejected.

    Point reflection is a half-turn, so ccw orientation survives either sign.
    """
    _check_finite(c)
    if c == 0.0:
        raise ValueError("scale factor must be nonzero")
    return ConvexPolygon._trusted([(float(c * x), float(c * y)) for x, y in polygon.as_tuples()])


def translate(polygon: ConvexPolygon, dx: float, dy: float) -> ConvexPolygon:
    _check_finite(dx, dy)
    return ConvexPolygon._trusted([(x + dx, y + dy) for x, y in polygon.as_tuples()])


def contains_point(polygon: ConvexPolygon, x: float, y: float, tol: float = EPS_GEOM) -> bool:
    """Closed containment of a point, with on-boundary points counted inside."""
    for a, b, c in polygon.edge_halfplanes():
        scale_ab = math.hypot(a, b)
        if a * x + b * y - c > tol * scale_ab:
            return False
    return True


def contains(outer: ConvexPolygon, inner: ConvexPolygon) -> bool:
    """Closed containment: every vertex of inner lies in outer (ties count as contained)."""
    return _contains_tuples(outer.as_tuples(), inner.as_tuples())


def intersection(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon | None:
    """The common part of two convex polygons; None when its interior vanishes."""
    out = _intersect_tuples(a.as_tuples(), b.as_tuples())
    return None if out is None else ConvexPolygon._trusted(out)


def box_of(vertices) -> tuple[float, float, float, float]:
    """Bounding box (x0, x1, y0, y1) of an (n, 2) vertex array."""
    xs, ys = zip(*np.asarray(vertices, dtype=float).tolist())
    return min(xs), max(xs), min(ys), max(ys)


def rects_contain_boxes(x0, x1, y0, y1, boxes, tol: float = EPS_GEOM) -> np.ndarray:
    """(m, k) bools: axis rectangle i, given by four (m,) bound arrays, contains box j.

    A box (bx0, bx1, by0, by1) lies in a rectangle exactly when any convex
    body with that bounding box does; ties within tol count as contained, and
    NaN bounds contain nothing.
    """
    out = np.empty((len(x0), len(boxes)), dtype=bool)
    for j, (bx0, bx1, by0, by1) in enumerate(boxes):
        out[:, j] = (x0 <= bx0 + tol) & (x1 >= bx1 - tol) & (y0 <= by0 + tol) & (y1 >= by1 - tol)
    return out


def contains_origin_interior(polygon: ConvexPolygon) -> bool:
    """True when the origin lies strictly inside (distance > EPS_GEOM to every edge)."""
    for a, b, c in polygon.edge_halfplanes():
        if c <= EPS_GEOM * math.hypot(a, b):
            return False
    return True
