import math

import numpy as np
import pytest

from crofton.geometry import (
    ConvexPolygon,
    _area2,
    _clip_leq,
    _rotate_canonical,
    _tidy,
    Direction,
    HalfPlane,
    Line,
    box,
    centered_square,
    clip,
    contains,
    contains_origin_interior,
    contains_point,
    halfplane_intersection,
    regular_polygon,
    scale,
    split,
    translate,
    width,
)

from _oracles import (
    clip_by_vertex_enumeration,
    containment_oracle,
    random_convex_polygon,
    random_hitting_line,
)

UNIT = box(0.0, 0.0, 1.0, 1.0)


def hp(phi, offset, side):
    return HalfPlane(Line(Direction(phi), offset), side)


class TestClip:
    def test_axis_aligned_cut(self):
        out = clip(UNIT, hp(0.0, 0.5, +1))  # keep x >= 0.5
        assert out.close_to(box(0.5, 0.0, 1.0, 1.0))

    def test_disjoint_halfplane_is_empty(self):
        assert clip(UNIT, hp(0.0, 2.0, +1)) is None

    def test_diagonal_cut_matches_vertex_enumeration_oracle(self):
        # keep x + y <= 1
        n = 1.0 / math.sqrt(2.0)
        out = clip(UNIT, hp(math.pi / 4, n, -1))
        expected = clip_by_vertex_enumeration(UNIT, n, n, n * 1.0)
        assert out.close_to(expected, tol=1e-9)
        assert abs(out.area - 0.5) < 1e-12

    def test_random_cuts_match_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            poly = random_convex_polygon(rng)
            line = random_hitting_line(rng, poly)
            a, b = line.normal
            got = clip(poly, HalfPlane(line, -1))
            expected = clip_by_vertex_enumeration(poly, a, b, line.offset)
            assert got is not None and expected is not None
            assert abs(got.area - expected.area) < 1e-9

    def test_clip_monotone_result_inside_input(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            poly = random_convex_polygon(rng)
            line = random_hitting_line(rng, poly)
            out = clip(poly, HalfPlane(line, +1))
            assert out is not None
            assert contains(poly, out)


class TestSplit:
    def test_vertical_halves(self):
        parts = split(UNIT, Line(Direction(0.0), 0.5))
        assert parts is not None
        areas = sorted(p.area for p in parts)
        assert areas == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_missing_line_gives_no_split(self):
        assert split(UNIT, Line(Direction(0.0), 2.0)) is None

    def test_area_additivity_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            poly = random_convex_polygon(rng, radius=1.0 + 3.0 * rng.random())
            parts = split(poly, random_hitting_line(rng, poly))
            assert parts is not None
            total = parts[0].area + parts[1].area
            assert abs(total - poly.area) <= 1e-9 * poly.area


class TestHalfplaneIntersection:
    def test_empty_list_returns_bound(self):
        bound = box(-2.0, -2.0, 2.0, 2.0)
        assert halfplane_intersection([], bound).close_to(bound)

    def test_unit_square_from_four_halfplanes(self):
        bound = box(-2.0, -2.0, 2.0, 2.0)
        hps = [
            hp(0.0, 0.0, +1),  # x >= 0
            hp(0.0, 1.0, -1),  # x <= 1
            hp(math.pi / 2, 0.0, +1),  # y >= 0
            hp(math.pi / 2, 1.0, -1),  # y <= 1
        ]
        assert halfplane_intersection(hps, bound).close_to(UNIT, tol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        bound = box(-3.0, -3.0, 3.0, 3.0)
        for _ in range(50):
            hps = []
            for _ in range(20):
                phi = rng.random() * math.pi
                offset = 0.2 + 2.0 * rng.random()
                side = -1 if rng.random() < 0.5 else +1
                # keep the side containing the origin
                hps.append(hp(phi, offset if side < 0 else -offset, side))
            ref = halfplane_intersection(hps, bound)
            assert ref is not None
            for _ in range(5):
                perm = list(hps)
                rng.shuffle(perm)
                out = halfplane_intersection(perm, bound)
                assert out.close_to(ref, tol=1e-9)


class TestWidth:
    def test_axis_width_of_unit_square(self):
        assert width(UNIT, Direction(0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_width_of_unit_square(self):
        assert width(UNIT, Direction(math.pi / 4)) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            poly = random_convex_polygon(rng)
            c = 0.1 + 5.0 * rng.random()
            phi = Direction(rng.random() * math.pi)
            assert abs(width(scale(poly, c), phi) - c * width(poly, phi)) <= 1e-12 * max(
                1.0, c * width(poly, phi)
            )

    def test_width_positive(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            poly = random_convex_polygon(rng)
            assert width(poly, Direction(rng.random() * math.pi)) > 0.0


class TestScale:
    def test_identity(self):
        assert scale(UNIT, 1.0).close_to(UNIT)

    def test_double_centered_square(self):
        assert scale(centered_square(2.0), 2.0).close_to(centered_square(4.0))

    def test_area_scales_quadratically(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            poly = random_convex_polygon(rng)
            c = 0.2 + 4.0 * rng.random()
            assert abs(scale(poly, c).area - c * c * poly.area) <= 1e-10 * c * c * poly.area

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            scale(UNIT, 0.0)

    def test_negative_factor_reflects(self):
        out = scale(centered_square(2.0), -1.5)
        assert out.close_to(centered_square(3.0))


class TestContains:
    def test_reflexive(self):
        assert contains(UNIT, UNIT)

    def test_overhanging_rectangle(self):
        assert not contains(UNIT, box(-1.0, 0.0, 2.0, 1.0))

    def test_agreement_with_ray_casting_oracle(self):
        rng = np.random.default_rng(31)
        decided = 0
        for _ in range(1000):
            outer = random_convex_polygon(rng, radius=1.5)
            if rng.random() < 0.5:
                inner = random_convex_polygon(rng, radius=1.2)
            else:  # force many contained cases
                inner = scale(outer, 0.3 + 0.6 * rng.random())
            verdict = containment_oracle(outer, inner, rng)
            if verdict is None:
                continue
            decided += 1
            assert contains(outer, inner) == verdict
        assert decided > 900

    def test_partial_order_properties(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            p = random_convex_polygon(rng)
            assert contains(p, p)
        for _ in range(200):
            a = random_convex_polygon(rng)
            b = random_convex_polygon(rng)
            if contains(a, b) and contains(b, a):
                assert a.n_vertices == b.n_vertices
                assert a.close_to(b, tol=1e-8)
        hits = 0
        for _ in range(500):
            a = random_convex_polygon(rng, radius=2.0)
            b = clip_like(a, rng)
            c = clip_like(b, rng)
            if contains(a, b) and contains(b, c):
                hits += 1
                assert contains(a, c)
        assert hits > 100


def clip_like(poly, rng):
    """A random sub-polygon (by shrinking toward an interior point)."""
    v = poly.vertices
    w = rng.dirichlet(np.ones(len(v)))
    cx, cy = w @ v
    f = 0.3 + 0.6 * rng.random()
    return ConvexPolygon([(cx + f * (x - cx), cy + f * (y - cy)) for x, y in v])


class TestOriginInterior:
    def test_centered_square(self):
        assert contains_origin_interior(centered_square(2.0))

    def test_origin_on_boundary(self):
        assert not contains_origin_interior(UNIT)

    def test_origin_outside(self):
        assert not contains_origin_interior(box(1.0, 1.0, 2.0, 2.0))


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (float("nan"), 1.0)])

    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)])

    def test_rejects_collinear(self):
        with pytest.raises(ValueError):
            ConvexPolygon([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])

    def test_rejects_nonfinite_direction(self):
        with pytest.raises(ValueError):
            Direction(float("inf"))
        with pytest.raises(ValueError):
            Direction(-0.1)
        with pytest.raises(ValueError):
            HalfPlane(Line(Direction(0.0), 0.0), 2)

    def test_translate_and_contains_point(self):
        sq = translate(centered_square(1.0), 3.0, 4.0)
        assert contains_point(sq, 3.0, 4.0)
        assert not contains_point(sq, 0.0, 0.0)

    def test_json_round_trip(self):
        p = regular_polygon(7, 1.3, 0.4)
        assert ConvexPolygon.from_json(p.to_json()).close_to(p, tol=0.0)

    def test_close_to_ignores_round_off_in_the_start_vertex(self):
        # the left edge leans by 1e-15, so the canonical start moves to the top-left vertex
        exact = box(-1.0, -1.0, 1.0, 1.0)
        noisy = ConvexPolygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0 - 1e-15, 1.0)])
        assert noisy.vertices[0].tolist() != exact.vertices[0].tolist()
        assert noisy.close_to(exact) and exact.close_to(noisy)
        assert not noisy.close_to(exact, tol=0.0)
        assert not box(-1.0, -1.0, 1.0, 2.0).close_to(exact)


def numpy_perimeter(polygon):
    """The perimeter formula the polygon's cached perimeter must reproduce bit for bit."""
    v = polygon.vertices
    return float(np.sum(np.hypot(*(np.roll(v, -1, 0) - v).T)))


def random_cyclic_polygon(rng, n: int):
    """n vertices on a circle of random centre and radius, at sorted random angles."""
    while True:
        ang = np.sort(rng.random(n)) * 2.0 * math.pi
        r = 10.0 ** rng.uniform(-2.0, 2.0)
        cx, cy = rng.uniform(-5.0, 5.0, 2)
        try:
            return ConvexPolygon(np.column_stack([cx + r * np.cos(ang), cy + r * np.sin(ang)]))
        except ValueError:
            continue


class TestVertexTuples:
    def test_perimeter_equals_the_numpy_formula_bit_for_bit(self):
        # the tuple edges must reach np.hypot and np.sum as the array formula's do
        rng = np.random.default_rng(2024)
        for n in range(3, 13):
            for _ in range(1000):
                p = random_cyclic_polygon(rng, n)
                assert p.perimeter == numpy_perimeter(p), n

    def test_vertices_are_the_read_only_tuples_from_the_smallest_vertex(self):
        rng = np.random.default_rng(11)
        polys = [random_convex_polygon(rng) for _ in range(100)]
        polys += [c for p in polys for c in split(p, random_hitting_line(rng, p))]
        for p in polys:
            v = p.vertices
            assert not v.flags.writeable and p.vertices is v
            assert v.tolist() == [list(t) for t in p.as_tuples()]
            assert p.as_tuples()[0] == min(p.as_tuples())
            assert p.n_vertices == len(p.as_tuples())

    def test_split_children_carry_the_area_of_their_own_clip(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            p = random_convex_polygon(rng)
            line = random_hitting_line(rng, p)
            nx, ny = line.normal
            sides = [(nx, ny, line.offset), (-nx, -ny, -line.offset)]
            for child, (a, b, c) in zip(split(p, line), sides):
                verts = _tidy(_clip_leq(p.as_tuples(), a, b, c))
                assert child.as_tuples() == _rotate_canonical(verts)
                assert child.area == 0.5 * _area2(verts)
                assert child.area == pytest.approx(0.5 * _area2(child.as_tuples()), rel=1e-12)
