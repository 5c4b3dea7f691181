import io
import json
import math

import numpy as np
import pytest

from _oracles import four_scatter_rect_zero_cells
from crofton.errors import SimulationAbort
from crofton.geometry import centered_square, contains, contains_origin_interior, scale
from crofton.measure import Discrete, Isotropic, LineMeasure, Mixture, discrete_xy, isotropic, lambda_of
from crofton.montecarlo import Experiment, ExperimentSpec
from crofton.rng import substream
from crofton.zero_cell import (
    _PolyZeroCellSampler,
    _RectBatchZeroCells,
    IndicatorSequence,
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

    def test_rect_and_polygon_paths_agree_on_same_stream(self):
        for measure, t in ((XY, 1.0), (XY_UNEQUAL, 0.37)):
            for i in range(50):
                rect = [float(v[0]) for v in _RectBatchZeroCells(measure, t).sample(substream(45, i), 1)]
                poly = _PolyZeroCellSampler(measure, t).sample(substream(45, i))
                xs = sorted({round(x, 9) for x, _ in poly})
                ys = sorted({round(y, 9) for _, y in poly})
                assert xs == [round(rect[0], 9), round(rect[1], 9)]
                assert ys == [round(rect[2], 9), round(rect[3], 9)]

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
        with pytest.raises(ValueError):
            sample_gamma_path(XY, 1.0, 3, substream(55, 0))


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

    def test_indicator_pair_matches_experiment_bits(self):
        # on one stream, the public per-path API and the streamed engine produce identical bits
        for measure, body in ((XY, K_UNIT), (isotropic(), centered_square(math.pi / 4.0))):
            path = sample_gamma_path(measure, 2.0, 6, substream(61, 5))
            iK, iaK = indicators_pair(path, body)
            assert isinstance(iK, IndicatorSequence)
            engine = make_path_engine(measure, 2.0, (body, scale(body, 2.0)))
            rng = substream(61, 5)
            state, first = engine.path_start(rng)
            rest, _ = engine.path_steps(state, rng, 6)
            bits = np.vstack([first, rest]).astype(np.uint8)
            assert np.array_equal(iK.bits, bits[:, 0])
            assert np.array_equal(iaK.bits, bits[:, 1])
            assert np.all(iaK.bits <= iK.bits)

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
