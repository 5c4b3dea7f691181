import io
import json
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from _oracles import (
    ClippedPolygonPaths,
    RectanglePaths,
    capped_zero_cell,
    clip_every_round_zero_cell,
    four_scatter_rect_zero_cells,
    law_paths,
)
from crofton.errors import SimulationAbort
from crofton.geometry import (
    EPS_GEOM,
    ConvexPolygon,
    _contains_tuples,
    box_of,
    centered_square,
    contains,
    contains_origin_interior,
    rects_contain_boxes,
    regular_polygon,
    scale,
)
from crofton.measure import Discrete, Isotropic, LineMeasure, Mixture, discrete_xy, isotropic, lambda_of
from crofton.montecarlo import Experiment, ExperimentSpec, two_sample_containment_test
from crofton.rng import substream
from crofton.verify import pht_zero_cell_events
from crofton.zero_cell import (
    _PolyZeroCellSampler,
    _RectBatchZeroCells,
    IndicatorSequence,
    gauge_bodies,
    indicators,
    indicators_pair,
    make_path_engine,
    sample_gamma_path,
    sample_zero_cell,
    write_path_csv,
    write_path_jsonl,
)

XY = discrete_xy()
XY_UNEQUAL = LineMeasure(Discrete(((0.0, 0.3), (0.5 * math.pi, 1.1))))
K_UNIT = centered_square(1.0)  # Lambda([K]) = 1 under XY
GENERAL = {
    "isotropic": isotropic(),
    "isotropic-2.5": isotropic(2.5),
    "three-atoms": LineMeasure(Discrete(((0.0, 0.4), (1.0, 0.7), (2.2, 0.5)))),
    "mixture": LineMeasure(
        Mixture(((Isotropic(0.5), 1.0), (Discrete(((0.0, 0.25), (0.5 * math.pi, 0.25))), 1.0)))
    ),
}
AXIS = {"discrete-xy": XY, "unequal-weights": XY_UNEQUAL}
MEASURES = {**GENERAL, **AXIS}
HEXAGON = regular_polygon(6, 0.5, 0.2)
# bodies without the origin in their interior: one with a vertex at it, one away from it
CORNER = ConvexPolygon([(0.0, 0.0), (0.6, 0.0), (0.0, 0.6)])
AWAY = ConvexPolygon([(0.15, 0.05), (0.5, 0.1), (0.2, 0.4)])
BODY_FAMILIES = {
    "square": (K_UNIT, scale(K_UNIT, 2.0)),
    "hexagon": (HEXAGON, scale(HEXAGON, 0.4), scale(HEXAGON, 1.7), scale(HEXAGON, 3.0)),
    "off-origin": (CORNER, scale(CORNER, 2.0), AWAY, scale(AWAY, 2.5)),
}


def same_state(rng_a, rng_b) -> bool:
    return repr(rng_a.bit_generator.state) == repr(rng_b.bit_generator.state)


def one_direction_measure(phi: float) -> LineMeasure:
    """Every line parallel: `Discrete` refuses such a measure, so its atoms are set unvalidated."""
    kappa = object.__new__(Discrete)
    object.__setattr__(kappa, "atoms", ((phi, 1.0),))
    return LineMeasure(kappa)


def path_oracle(measure: LineMeasure, a: float, bodies):
    """The bit-for-bit reference of the gauge path engine: rectangles for axis measures, else clipping."""
    if measure in AXIS.values():
        return RectanglePaths(measure, a, bodies)
    return ClippedPolygonPaths(_PolyZeroCellSampler(measure), a, bodies, capped=True)


def batch_contains(x0, x1, y0, y1, body):
    v = body.vertices
    eps = 1e-9
    return (
        (x0 <= v[:, 0].min() + eps)
        & (x1 >= v[:, 0].max() - eps)
        & (y0 <= v[:, 1].min() + eps)
        & (y1 >= v[:, 1].max() - eps)
    )


class TestZeroCellSampler:
    def test_containment_probability_axis_measure(self):
        n = 100_000
        x0, x1, y0, y1 = _RectBatchZeroCells(XY).sample(substream(42, 0), n)
        freq = float(batch_contains(x0, x1, y0, y1, K_UNIT).mean())
        se = math.sqrt(math.exp(-1.0) * (1 - math.exp(-1.0)) / n)
        assert abs(freq - math.exp(-1.0)) <= 3.0 * se

    def test_containment_probability_mixture_measure(self):
        m = LineMeasure(
            Mixture(((Isotropic(0.5), 1.0), (Discrete(((0.0, 0.25), (0.5 * math.pi, 0.25))), 1.0)))
        )
        body = centered_square(1.0)
        lam = lambda_of(m, body)
        rng = substream(49, 0)
        n = 10_000
        hits = sum(contains(sample_zero_cell(m, rng), body) for _ in range(n))
        target = math.exp(-lam)
        se = math.sqrt(target * (1 - target) / n)
        assert abs(hits / n - target) <= 3.0 * se

    def test_containment_probability_isotropic_measure(self):
        m = isotropic(1.0)
        body = centered_square(math.pi / 4.0)  # perimeter pi -> Lambda = 1
        assert lambda_of(m, body) == pytest.approx(1.0, abs=1e-12)
        rng = substream(43, 0)
        n = 20_000
        hits = sum(contains(sample_zero_cell(m, rng), body) for _ in range(n))
        se = math.sqrt(math.exp(-1.0) * (1 - math.exp(-1.0)) / n)
        assert abs(hits / n - math.exp(-1.0)) <= 3.0 * se

    def test_axis_cell_is_rectangle_with_exponential_edges(self):
        # each one-sided Poisson offset process has rate 1/2: Exp(1/2) edge distances
        n = 100_000
        x0, x1, y0, y1 = _RectBatchZeroCells(XY).sample(substream(44, 0), n)
        cell = sample_zero_cell(XY, substream(44, 1))
        assert cell.n_vertices == 4
        edges = np.concatenate([-x0, x1, -y0, y1])
        se = 2.0 / math.sqrt(len(edges))
        assert abs(edges.mean() - 2.0) <= 3.0 * se

    def test_rect_and_polygon_samplers_draw_one_axis_cell_law(self):
        # two routes to one law: the polygon sampler thins disc lines, the rectangle sampler
        # draws annulus lines; each side distance is compared by a two-sample KS test,
        # Bonferroni 0.01 over the 8 sides
        n = 2000
        for k, (measure, t) in enumerate(((XY, 1.0), (XY_UNEQUAL, 0.37))):
            sampler = _PolyZeroCellSampler(measure, t)
            rng = substream(45, k)
            poly = []
            for _ in range(n):
                verts = sampler.sample(rng)
                xs = sorted({round(x, 9) for x, _ in verts})
                ys = sorted({round(y, 9) for _, y in verts})
                assert len(xs) == 2 and len(ys) == 2  # an axis rectangle
                poly.append((xs[1], -xs[0], ys[1], -ys[0]))
            x0, x1, y0, y1 = _RectBatchZeroCells(measure, t).sample(substream(46, k), n)
            for got, want in zip(np.array(poly).T, (x1, -x0, y1, -y0)):
                assert ks_2samp(got, want).pvalue > 0.01 / 8

    @pytest.mark.parametrize("measure", [
        XY,
        XY_UNEQUAL,
        LineMeasure(Discrete(((0.5 * math.pi, 1.1), (0.0, 0.3)))),
        LineMeasure(Discrete(((0.0, 0.2), (0.0, 0.5), (0.5 * math.pi, 0.9)))),
    ], ids=["discrete-xy", "unequal", "half-pi-atom-first", "repeated-zero-atom"])
    def test_batch_sampler_matches_four_scatter_oracle_bit_for_bit(self, measure):
        for t in (1.0, 0.37, 2.0, 7.5):
            batch = _RectBatchZeroCells(measure, t)
            for m in (1, 2, 7, 4096):
                for seed in range(10):
                    stats, want_stats = {}, {}
                    got = batch.sample(substream(70 + seed, m), m, stats=stats)
                    want = four_scatter_rect_zero_cells(batch, substream(70 + seed, m), m, want_stats)
                    assert all(np.array_equal(g, w) for g, w in zip(got, want))
                    assert stats["active_per_round"] == want_stats["active_per_round"]

    def test_axis_gauges_keep_the_containment_ties(self):
        # a box side within EPS_GEOM outside a sampled rectangle's bound counts as contained, as
        # in rects_contain_boxes, and one 2 * EPS_GEOM outside does not; random draws meet such
        # a tie with probability about 1e-9, so only a built case shows a dropped tolerance
        sampler = _RectBatchZeroCells(XY)
        for seed in range(5):
            rect = [float(v[0]) for v in sampler.sample(substream(seed, 75), 1)]
            for side in range(4):  # x0, x1, y0, y1
                for shift, inside in ((0.5 * EPS_GEOM, True), (2.0 * EPS_GEOM, False)):
                    bounds = [0.5 * v for v in rect]
                    bounds[side] = rect[side] + (shift if side % 2 else -shift)
                    bx0, bx1, by0, by1 = bounds
                    body = ConvexPolygon([(bx0, by0), (bx1, by0), (bx1, by1), (bx0, by1)])
                    assert rects_contain_boxes(*np.array(rect)[:, None], [box_of(body.vertices)])[0, 0] == inside
                    g = sampler.gauges(substream(seed, 75), sampler.gauge_bodies([body]), 1.0, 1)
                    assert g.shape == (1, 1) and (g[0, 0] >= 1.0) == inside and g[0, 0] <= 1.0
                    _, bits = make_path_engine(XY, 2.0, [body]).path_start(substream(seed, 75))
                    assert bits.tolist() == [int(inside)]

    def test_doubling_rounds_shrink_and_terminate(self):
        stats = {}
        n = 200_000
        _RectBatchZeroCells(XY).sample(substream(46, 0), n, stats=stats)
        active = stats["active_per_round"]
        assert active[-1] == 0  # termination within the radius cap for every sample
        assert all(b < a for a, b in zip(active, active[1:]) if a > 0)

    def test_radius_cap_aborts(self):
        with pytest.raises(SimulationAbort):
            # cap the radius at the initial value; some draw leaves the cell unbounded
            _RectBatchZeroCells(XY, r_max_factor=1.0).sample(substream(47, 0), 512)

    @pytest.mark.parametrize("name", ["isotropic", "three-atoms", "mixture"])
    def test_polygon_sampler_matches_clip_every_round_oracle_bit_for_bit(self, name):
        for t in (0.37, 1.0, 2.5):
            sampler = _PolyZeroCellSampler(GENERAL[name], t)
            for seed in range(2000):
                rng, want_rng = substream(seed, 71), substream(seed, 71)
                assert sampler.sample(rng) == clip_every_round_zero_cell(sampler, want_rng)
                assert same_state(rng, want_rng)

    @pytest.mark.parametrize("measure,factor", [
        (isotropic(), 1.0),
        (one_direction_measure(0.3), 64.0),
    ], ids=["radius-cap", "one-direction"])
    def test_polygon_sampler_aborts_when_unbounded_at_the_cap(self, measure, factor):
        sampler = _PolyZeroCellSampler(measure, r_max_factor=factor)
        message = "still unbounded at radius .*the directional measure may not span the plane"
        rng = substream(72, 0)
        with pytest.raises(SimulationAbort, match=message):
            for _ in range(200):
                sampler.sample(rng)
        # the capped gauges draw once, with no doubling: finite, and equal to the same-lines oracle
        bodies = BODY_FAMILIES["hexagon"]
        pairs = gauge_bodies(bodies)
        reach = max(r for _, r in pairs)
        rng, want_rng = substream(72, 0), substream(72, 0)
        for _ in range(200):
            got = sampler.gauges(rng, pairs, 1.0, 1)[0]
            cell = capped_zero_cell(sampler, want_rng, reach, 1.0)
            assert all(math.isfinite(g) and 0.0 <= g <= 1.0 for g in got)
            assert [g >= 1.0 for g in got] == [_contains_tuples(cell, b.as_tuples()) for b in bodies]
        assert same_state(rng, want_rng)

    def test_time_parameter_scales_the_law(self):
        # cell(t) scaled by t has the containment law of cell(1)
        n = 30_000
        t = 2.0
        b = _RectBatchZeroCells(XY, time=t)
        x0, x1, y0, y1 = b.sample(substream(48, 0), n)
        freq_t = float(batch_contains(t * x0, t * x1, t * y0, t * y1, K_UNIT).mean())
        se = math.sqrt(math.exp(-1.0) / n)
        assert abs(freq_t - math.exp(-1.0)) <= 3.5 * se

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            sample_zero_cell(XY, substream(1, 0), time=0.0)
        for t in (math.nan, -1.0):
            with pytest.raises(ValueError, match="time must be finite and positive"):
                _PolyZeroCellSampler(isotropic(), t)


class TestGammaPath:
    def test_marginal_stationarity(self):
        spec = ExperimentSpec(XY, 2.0, K_UNIT, replications=100_000, path_length=10, seed=50)
        bits = Experiment(spec).paths[:, :, 0]
        freqs = [bits[:, n].mean() for n in (0, 5, 10)]
        se = math.sqrt(2.0 * math.exp(-1.0) * (1 - math.exp(-1.0)) / bits.shape[0])
        for i in range(len(freqs)):
            for j in range(i + 1, len(freqs)):
                assert abs(freqs[i] - freqs[j]) <= 3.0 * se

    def test_joint_adjacent_containment(self):
        spec = ExperimentSpec(XY, 2.0, K_UNIT, replications=100_000, path_length=2, seed=51)
        bits = Experiment(spec).paths[:, :, 0]
        joint = float((bits[:, 0] & bits[:, 1]).mean())
        target = math.exp(-1.5)
        se = math.sqrt(target * (1 - target) / bits.shape[0])
        assert abs(joint - target) <= 3.0 * se

    def test_nesting_invariant_holds_pathwise(self):
        for seed in range(30):
            path = sample_gamma_path(XY, 2.0, 8, substream(52, seed))
            path.validate()
        for seed in range(10):
            path = sample_gamma_path(isotropic(), 1.7, 5, substream(53, seed))
            path.validate()

    def test_cells_contain_origin(self):
        path = sample_gamma_path(XY, 3.0, 12, substream(54, 0))
        for cell in path.cells:
            assert contains_origin_interior(cell)
        for measure in (XY, isotropic()):
            assert len(sample_gamma_path(measure, 3.0, 0, substream(54, 1))) == 1

    def test_rejects_bad_base(self):
        for measure in (XY, isotropic()):
            for a in (1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="renormalization base"):
                    sample_gamma_path(measure, a, 3, substream(55, 0))

    @pytest.mark.parametrize("name", ["isotropic", "three-atoms", "mixture"])
    def test_cells_match_the_doubling_route_vertex_for_vertex(self, name):
        measure = GENERAL[name]
        for a in (2.0, 3.5):
            oracle = ClippedPolygonPaths(_PolyZeroCellSampler(measure), a, (K_UNIT,))
            for n_steps in (0, 1, 6):
                for seed in range(20):
                    rng, want_rng = substream(seed, 74), substream(seed, 74)
                    got = [cell.as_tuples() for cell in sample_gamma_path(measure, a, n_steps, rng).cells]
                    want = [ConvexPolygon._trusted(verts).as_tuples() for verts in oracle.cells(want_rng, n_steps)]
                    assert got == want and same_state(rng, want_rng)


class TestIndicators:
    def test_tiny_body_bits_all_one(self):
        lam = 1e-6
        tiny = centered_square(lam)  # Lambda = side for the axis measure
        spec = ExperimentSpec(XY, 2.0, tiny, replications=10_000, path_length=5, seed=56)
        bits = Experiment(spec).paths[:, :, 0]
        target = math.exp(-lam)
        se = math.sqrt(max(target * (1 - target), 1e-12) / bits.shape[0])
        for n in range(6):
            assert bits[:, n].mean() >= target - 3.0 * se - 1e-9

    def test_reflexive_containment_at_start(self):
        path = sample_gamma_path(XY, 2.0, 3, substream(57, 0))
        seq = indicators(path, path.cells[0])
        assert seq.bits[0] == 1

    def test_monotone_in_the_body(self):
        for seed in range(20):
            path = sample_gamma_path(XY, 2.0, 8, substream(58, seed))
            small = indicators(path, centered_square(0.5))
            large = indicators(path, centered_square(1.5))
            assert np.all(large.bits <= small.bits)

    def test_rejects_body_missing_origin(self):
        path = sample_gamma_path(XY, 2.0, 2, substream(59, 0))
        from crofton.geometry import box

        with pytest.raises(ValueError):
            indicators(path, box(1.0, 1.0, 2.0, 2.0))

    def test_scaled_body_inclusion_no_violations(self):
        # a 1 for the scaled body forces 1s for the body at this and the previous index
        spec = ExperimentSpec(XY, 2.0, K_UNIT, replications=100_000, path_length=10, seed=60)
        paths = Experiment(spec).paths
        bk, bak = paths[:, :, 0], paths[:, :, 1]
        viol = bak[:, 1:] & ~(bk[:, 1:] & bk[:, :-1])
        assert int(viol.sum()) == 0

    @pytest.mark.parametrize("measure, body", [
        (isotropic(), centered_square(math.pi / 4.0)),
        (XY, K_UNIT),
    ], ids=["isotropic", "discrete-xy"])
    def test_indicator_pair_matches_experiment_bits_in_law(self, measure, body):
        # the engines draw no polygon, so the polygon cells of sample_gamma_path and the
        # engine's bits agree in law only; Lambda([body]) = 1, 14 bits per path, Bonferroni at 0.01
        engine = make_path_engine(measure, 2.0, (body, scale(body, 2.0)))

        def polygon_bits(rng, m):
            out = []
            for _ in range(m):
                iK, iaK = indicators_pair(sample_gamma_path(measure, 2.0, 6, rng), body)
                assert isinstance(iK, IndicatorSequence) and np.all(iaK.bits <= iK.bits)
                out.append(np.concatenate([iK.bits, iaK.bits]))
            return np.array(out)

        def engine_bits(rng, m):
            return engine.run_block(rng, m, 6).transpose(0, 2, 1).reshape(m, 14)

        names = [f"{b}[{n}]" for b in ("K", "aK") for n in range(7)]
        res = two_sample_containment_test(polygon_bits, engine_bits, names, 2000, seed=61, body_names=names)
        assert res.passed, res.to_dict()

    @pytest.mark.parametrize("name", list(MEASURES))
    def test_gauge_engine_matches_clipping_oracle_bit_for_bit(self, name):
        measure = MEASURES[name]
        # at a = 19/9, f = a / (a - 1) times its reciprocal rounds below 1
        f = (19 / 9) / (19 / 9 - 1.0)
        assert f * (1.0 / f) < 1.0
        for family, bodies in BODY_FAMILIES.items():
            for a, salt in ((2.0, 2), (3.5, 3), (19 / 9, 7)):
                engine = make_path_engine(measure, a, bodies)
                oracle = path_oracle(measure, a, bodies)
                for m in (1, 7, 30):
                    for n_steps in (0, 1, 6):
                        key = 100 * n_steps + 10 * len(family) + salt
                        rng, want_rng = substream(m, key), substream(m, key)
                        got = engine.run_block(rng, m, n_steps)
                        assert np.array_equal(got, oracle.run_block(want_rng, m, n_steps))
                        assert got.shape == (m, n_steps + 1, len(bodies)) and same_state(rng, want_rng)

    @pytest.mark.parametrize("name", list(MEASURES))
    def test_streamed_gauge_path_matches_oracle_in_any_chunking(self, name):
        bodies = BODY_FAMILIES["hexagon"] + BODY_FAMILIES["off-origin"]
        engine = make_path_engine(MEASURES[name], 2.0, bodies)
        oracle = path_oracle(MEASURES[name], 2.0, bodies)

        def stream(eng, seed, chunks):
            rng = substream(seed, 73)
            state, first = eng.path_start(rng)
            rows = [first[None, :]]
            for n in chunks:
                chunk, state = eng.path_steps(state, rng, n)
                assert chunk.shape == (n, len(bodies))
                rows.append(chunk)
            return np.vstack(rows).astype(np.uint8), repr(rng.bit_generator.state)

        for seed in range(3):
            runs = []
            for chunks in ((201,), (0, 1, 6, 50, 144, 0)):
                # an axis path draws each chunk's fresh cells in one batch, so its stream
                # depends on the chunking: engine and oracle run in the same chunking
                bits, st = stream(engine, seed, chunks)
                want_bits, want_st = stream(oracle, seed, chunks)
                assert bits.shape == (202, len(bodies))
                assert np.array_equal(bits, want_bits) and st == want_st
                runs.append((bits, st))
            if name in GENERAL:
                assert np.array_equal(runs[0][0], runs[1][0]) and runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("name", ["isotropic", "three-atoms", "discrete-xy"])
    def test_capped_engine_joint_bits_match_independent_routes(self, name):
        # the joint bits of K and aK at steps 0-3 as one of 3^4 patterns per path (aK inside
        # forces K inside), against the exact law, which draws no line, and against the
        # doubling route, which shares no line draw with the cap; Bonferroni at 0.01
        measure = MEASURES[name]
        bodies = (K_UNIT, scale(K_UNIT, 2.0))
        engine = make_path_engine(measure, 2.0, bodies)
        doubling = ClippedPolygonPaths(_PolyZeroCellSampler(measure), 2.0, bodies)
        lam = lambda_of(measure, K_UNIT)

        def patterns(run):
            def block(rng, m):
                bits = run(rng, m).astype(int)
                assert np.all(bits[:, :, 1] <= bits[:, :, 0])
                code = bits.sum(axis=2) @ 3 ** np.arange(4)
                return code[:, None] == np.arange(81)

            return block

        gauge = patterns(lambda rng, m: engine.run_block(rng, m, 3))
        others = (
            (patterns(lambda rng, m: law_paths(lam, 2.0, m, 3, rng)), 20_000, 75),
            (patterns(lambda rng, m: doubling.run_block(rng, m, 3)), 5_000, 76),
        )
        for other, n, seed in others:
            res = two_sample_containment_test(gauge, other, range(81), n, seed)
            assert res.passed, res.to_dict()

    def test_conditional_scaled_containment(self):
        # P(cell contains aK | cell contains K) = exp(-(a-1) Lambda([K]))
        n = 200_000
        x0, x1, y0, y1 = _RectBatchZeroCells(XY).sample(substream(62, 0), n)
        in_k = batch_contains(x0, x1, y0, y1, K_UNIT)
        in_2k = batch_contains(x0, x1, y0, y1, scale(K_UNIT, 2.0))
        est = float(in_2k[in_k].mean())
        target = math.exp(-1.0)
        se = math.sqrt(target * (1 - target) / int(in_k.sum()))
        assert abs(est - target) <= 3.0 * se

    def test_conditional_power_scaled_containment(self):
        # P(cell contains a^2 K | cell contains K) = exp(-(a^2 - 1) Lambda([K]))
        n = 1_000_000
        x0, x1, y0, y1 = _RectBatchZeroCells(XY).sample(substream(63, 0), n)
        in_k = batch_contains(x0, x1, y0, y1, K_UNIT)
        in_4k = batch_contains(x0, x1, y0, y1, scale(K_UNIT, 4.0))
        est = float(in_4k[in_k].mean())
        target = math.exp(-3.0)
        se = math.sqrt(target * (1 - target) / int(in_k.sum()))
        assert abs(est - target) <= 3.0 * se

    @pytest.mark.parametrize("name", ["isotropic", "three-atoms", "discrete-xy"])
    def test_pht_events_match_clipped_cell_containment(self, name):
        # the Poisson side of the containment comparisons: gauges of 1/prescale bodies, capped at 1,
        # against containment in clipped cells, or for an axis measure in the sampled rectangles
        bodies = (K_UNIT, HEXAGON) + BODY_FAMILIES["off-origin"]
        for t, prescale in ((1.0, 1.0), (0.5, 0.5), (2.0, 2.0)):
            rng, want_rng = substream(74, int(4 * t)), substream(74, int(4 * t))
            got = pht_zero_cell_events(MEASURES[name], bodies, t, prescale)(rng, 300)
            if name in AXIS:
                rects = _RectBatchZeroCells(MEASURES[name], t).sample(want_rng, 300)
                want = rects_contain_boxes(*rects, [box_of(b.vertices / prescale) for b in bodies])
            else:
                sampler = _PolyZeroCellSampler(GENERAL[name], t)
                scaled = [scale(b, 1.0 / prescale).as_tuples() for b in bodies]
                reach = max(math.sqrt(max(x * x + y * y for x, y in verts)) for verts in scaled)
                cells = [capped_zero_cell(sampler, want_rng, reach, 1.0) for _ in range(300)]
                want = np.array([[_contains_tuples(c, b) for b in scaled] for c in cells])
            assert np.array_equal(got, want) and same_state(rng, want_rng)
            assert 0 < int(got.sum()) < got.size


class TestSerialization:
    def test_csv_row_count_and_flags(self):
        path = sample_gamma_path(XY, 2.0, 10, substream(64, 0))
        buf = io.StringIO()
        write_path_csv(path, buf, K_UNIT)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,vertex_count,area,contains_K"
        assert len(lines) == 12
        flags = [int(row.split(",")[3]) for row in lines[1:]]
        assert flags == [int(contains(c, K_UNIT)) for c in path.cells]

    def test_jsonl_round_trip(self):
        path = sample_gamma_path(XY, 2.0, 4, substream(65, 0))
        buf = io.StringIO()
        write_path_jsonl(path, buf)
        rows = [json.loads(line) for line in buf.getvalue().strip().splitlines()]
        assert [r["n"] for r in rows] == list(range(5))
        assert rows[2]["vertices"] == path.cells[2].to_json()
