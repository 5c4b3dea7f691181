import math

import numpy as np
import pytest
from scipy.stats import ttest_ind

import crofton.verify as verify_mod
from crofton.errors import SimulationAbort
from crofton.geometry import _rect_to_polygon, box, centered_square, contains, intersection, scale
from crofton.measure import Discrete, LineMeasure, discrete_xy, isotropic, sample_poisson_hitting
from crofton.montecarlo import two_sample_containment_test
from crofton.rng import substream
from crofton.tessellation import (
    PoissonLines,
    Tessellation,
    nest,
    pht_run,
    pht_sample_lines,
    restrict,
    stit_batch,
    stit_run,
    stit_run_detailed,
    superpose,
    tessellation_from_lines,
    touches_boundary,
    zero_cell_of,
)
from crofton.verify import stit_zero_cell_events

from _oracles import arrangement_cell_count, literal_split_process_cells

XY = discrete_xy()
ISO = isotropic()
W1 = centered_square(1.0)  # Lambda([W]) = 1
W2 = centered_square(2.0)  # Lambda([W]) = 2
BOTH = pytest.mark.parametrize("measure", [XY, ISO], ids=["discrete-xy", "isotropic"])


class TestSplittingProcess:
    def test_trivial_probability(self):
        rng = substream(201, 0)
        n = 100_000
        trivial = sum(stit_run(XY, W1, 1.0, rng).n_cells == 1 for _ in range(n))
        p = math.exp(-1.0)
        assert abs(trivial / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    def test_short_time_never_jumps(self):
        rng = substream(202, 0)
        assert all(stit_run(XY, W1, 1e-9, rng).n_cells == 1 for _ in range(10_000))

    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_cell_count_matches_literal_construction_oracle(self, t):
        # the literal race: fresh unit-exponential marks each jump, line rejection
        # from the window measure; compare total cell counts by a two-sample t-test
        n = 10_000
        rng_a, rng_b = substream(203, 0), substream(203, 1)
        fast = [stit_run(XY, W1, t, rng_a).n_cells for _ in range(n)]
        literal = [len(literal_split_process_cells(XY, W1, t, rng_b)) for _ in range(n)]
        assert ttest_ind(fast, literal, equal_var=False).pvalue > 0.01

    def test_generic_polygon_path_matches_rect_path(self):
        # the same law must come out of the interval fast path and the generic path
        n = 10_000
        window = box(-0.5, -0.5, 0.5, 0.5)
        rng_a, rng_b = substream(204, 0), substream(204, 1)
        fast = [stit_run(XY, window, 2.0, rng_a).n_cells for _ in range(n)]
        m_rot = LineMeasure(Discrete(((1e-13, 0.5), (0.5 * math.pi, 0.5))))  # defeats fast path
        generic = [stit_run(m_rot, window, 2.0, rng_b).n_cells for _ in range(n)]
        assert ttest_ind(fast, generic, equal_var=False).pvalue > 0.01

    def test_state_bookkeeping(self):
        state = stit_run_detailed(XY, W1, 2.0, substream(205, 0))
        assert state.jumps == state.tessellation.n_cells - 1
        assert 0.0 <= state.clock <= 2.0

    def test_partition_invariants_after_runs(self):
        for seed in range(60):
            tess = stit_run(XY, W2, 1.5, substream(206, seed))
            tess.validate()
        for seed in range(20):
            tess = stit_run(isotropic(), W2, 1.0, substream(207, seed))
            tess.validate()

    def test_jump_cap_aborts(self):
        with pytest.raises(SimulationAbort):
            stit_run(XY, centered_square(10.0), 5.0, substream(208, 0), max_jumps=10)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_non_finite_or_nonpositive_time_rejected(self, t):
        rng = substream(208, 1)
        for run in (stit_run, stit_run_detailed, pht_sample_lines):
            with pytest.raises(ValueError, match="finite and positive"):
                run(XY, W1, t, rng)
        with pytest.raises(ValueError, match="finite and positive"):
            stit_batch(ISO, W1, t, rng, 3)
        with pytest.raises(ValueError, match="finite and positive"):
            sample_poisson_hitting(XY, W1, t, rng)

    @BOTH
    def test_batch_runs_partition_the_window(self, measure):
        t, m = 1.5, 40
        batch = stit_batch(measure, W2, t, substream(208, 2), m)
        counts = np.bincount(batch.owner, minlength=m)
        assert np.array_equal(batch.jumps, counts - 1)
        assert np.all((batch.clock >= 0.0) & (batch.clock <= t))
        assert np.all(batch.clock[counts == 1] == 0.0)
        for r in range(m):
            tess = batch.tessellation(r)  # checks that the areas add up to the window
            assert tess.n_cells == counts[r]
        batch.tessellation(int(np.argmax(counts))).validate()
        zero = batch.zero_cells()
        for r in range(m):
            cell = zero[r] if isinstance(zero, list) else _rect_to_polygon(zero[r])
            assert cell.close_to(zero_cell_of(batch.tessellation(r)))

    @BOTH
    def test_zero_cell_containment_matches_literal_construction_oracle(self, measure):
        # the batch driver against the literal clock race on containment frequencies,
        # for a centred body and a wide one reaching close to the window boundary
        bodies = [centered_square(0.5), box(-0.45, -0.05, 0.45, 0.05)]

        def literal(rng, m):
            out = np.empty((m, len(bodies)), dtype=bool)
            for r in range(m):
                cell = zero_cell_of(Tessellation(W1, literal_split_process_cells(measure, W1, 2.0, rng)))
                out[r] = [cell is not None and contains(cell, b) for b in bodies]
            return out

        batch = stit_zero_cell_events(measure, W1, 2.0, bodies)
        res = two_sample_containment_test(batch, literal, bodies, 5000, seed=231)
        assert res.passed

    def test_restriction_consistency(self):
        # running in the big window and restricting must match running in the small one
        k = centered_square(0.6)
        n = 20_000

        def big(rng, m):
            out = np.empty((m, 1), dtype=bool)
            for r in range(m):
                tess = restrict(stit_run(XY, W2, 1.0, rng), W1)
                cell = zero_cell_of(tess)
                out[r, 0] = cell is not None and contains(cell, k)
            return out

        def small(rng, m):
            out = np.empty((m, 1), dtype=bool)
            for r in range(m):
                cell = zero_cell_of(stit_run(XY, W1, 1.0, rng))
                out[r, 0] = cell is not None and contains(cell, k)
            return out

        res = two_sample_containment_test(big, small, [k], n, seed=209)
        assert res.passed


class TestSplittingEvents:
    def test_one_run_per_event_and_no_rejection(self, monkeypatch):
        calls = []

        def counting(measure, window, t, rng, m, *args):
            calls.append(m)
            return stit_batch(measure, window, t, rng, m, *args)

        monkeypatch.setattr(verify_mod, "stit_run", counting)
        body = centered_square(0.5)
        events = stit_zero_cell_events(XY, W2, 0.5, [body])(substream(232, 0), 400)
        assert calls == [400]
        # replaying the same runs gives every event, zero cells on the window boundary included
        zero = stit_batch(XY, W2, 0.5, substream(232, 0), 400).zero_cells()
        on_boundary = np.any(np.abs(np.abs(zero) - 1.0) <= 1e-9, axis=1)
        assert on_boundary.sum() > 100
        assert events[:, 0].tolist() == [contains(_rect_to_polygon(row), body) for row in zero]

    def test_containment_law_at_a_small_window(self):
        # P(zero cell contains K) = exp(-t Lambda([K])) for K inside the window; rejecting
        # zero cells that touch the window boundary would bias this far beyond 3 sigma
        n = 100_000
        hits = stit_zero_cell_events(XY, W2, 1.0, [W1])(substream(233, 0), n)[:, 0].mean()
        p = math.exp(-1.0)
        assert abs(hits - p) <= 3.0 * math.sqrt(p * (1 - p) / n)


class TestPoissonLineTessellation:
    def test_no_lines_is_trivial(self):
        tess = tessellation_from_lines(W1, [])
        assert tess.n_cells == 1 and tess.cells[0].close_to(W1)

    def test_zero_cell_containment_probability(self):
        # no line hits K  <=>  the zero cell contains K
        k = centered_square(1.0)
        rng = substream(210, 0)
        n = 100_000
        hits = 0
        for _ in range(n):
            lines = pht_sample_lines(XY, W2, 1.0, rng).lines
            ok = True
            for line in lines:
                nx, ny = line.normal
                proj = k.vertices @ (nx, ny)
                if proj.min() < line.offset < proj.max():
                    ok = False
                    break
            hits += ok
        p = math.exp(-1.0)
        assert abs(hits / n - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    def test_cell_count_matches_arrangement_oracle(self):
        rng = substream(211, 0)
        measures = [XY, LineMeasure(Discrete(((0.1, 0.4), (0.9, 0.4), (2.2, 0.4))))]
        for m in measures:
            for _ in range(50):
                sample = pht_sample_lines(m, W2, 1.2, rng)
                expected = arrangement_cell_count(
                    W2, [(ln.direction.phi, ln.offset) for ln in sample.lines]
                )
                assert sample.tessellation().n_cells == expected

    def test_partition_invariants(self):
        for seed in range(40):
            pht_run(XY, W2, 1.5, substream(212, seed)).validate()
        for seed in range(15):
            pht_run(isotropic(), W2, 1.0, substream(213, seed)).validate()


class TestSuperpose:
    def test_empty_second_population(self):
        rng = substream(214, 0)
        a = pht_sample_lines(XY, W1, 1.0, rng)
        b = PoissonLines(W1, ())
        assert superpose(a, b).n_cells == a.tessellation().n_cells

    def test_refinement_never_loses_cells(self):
        rng = substream(215, 0)
        for _ in range(100):
            a = pht_sample_lines(XY, W1, 0.8, rng)
            b = pht_sample_lines(XY, W1, 0.8, rng)
            merged = superpose(a, b).n_cells
            assert merged >= max(a.tessellation().n_cells, b.tessellation().n_cells)

    def test_rejects_mismatched_windows(self):
        rng = substream(216, 0)
        a = pht_sample_lines(XY, W1, 1.0, rng)
        b = pht_sample_lines(XY, W2, 1.0, rng)
        with pytest.raises(ValueError):
            superpose(a, b)

    def test_superposition_law_matches_single_run(self):
        # populations at t and s superposed ~ one population at t + s
        k = centered_square(1.0)
        n = 50_000

        def direct(rng, m):
            out = np.empty((m, 1), dtype=bool)
            for r in range(m):
                tess = pht_run(XY, W2, 1.0, rng)
                cell = zero_cell_of(tess)
                out[r, 0] = cell is not None and contains(cell, k)
            return out

        def merged(rng, m):
            out = np.empty((m, 1), dtype=bool)
            for r in range(m):
                a = pht_sample_lines(XY, W2, 0.5, rng)
                b = pht_sample_lines(XY, W2, 0.5, rng)
                cell = zero_cell_of(superpose(a, b))
                out[r, 0] = cell is not None and contains(cell, k)
            return out

        res = two_sample_containment_test(direct, merged, [k], n, seed=217)
        assert res.passed


class TestNest:
    def test_identity_inner(self):
        tess = stit_run(XY, W1, 1.5, substream(218, 0))
        trivial = Tessellation(W1, (W1,))
        out = nest(tess, [trivial] * tess.n_cells)
        assert out.n_cells == tess.n_cells

    def test_trivial_outer(self):
        inner = stit_run(XY, W1, 1.5, substream(219, 0))
        out = nest(Tessellation(W1, (W1,)), [inner])
        assert out.n_cells == inner.n_cells

    def test_needs_enough_inner_tessellations(self):
        tess = stit_run(XY, W1, 3.0, substream(220, 0))
        if tess.n_cells > 1:
            with pytest.raises(ValueError):
                nest(tess, [Tessellation(W1, (W1,))])

    def test_rejects_mismatched_windows(self):
        tess = stit_run(XY, W1, 1.0, substream(221, 0))
        with pytest.raises(ValueError):
            nest(tess, [Tessellation(W2, (W2,))] * tess.n_cells)

    def test_nested_partition_is_valid(self):
        rng = substream(222, 0)
        for _ in range(40):
            outer = stit_run(XY, W1, 1.0, rng)
            inner = [stit_run(XY, W1, 1.0, rng) for _ in range(outer.n_cells)]
            nest(outer, inner).validate()

    @BOTH
    def test_zero_cell_of_refinement_is_outer_meet_first_inner(self, measure):
        # the shortcut behind the nested verify events: only inner_seq[0] reaches the zero cell
        rng = substream(234, 0)
        for _ in range(30):
            outer = stit_run(measure, W2, 0.5, rng)
            inner = [stit_run(measure, W2, 0.5, rng) for _ in range(outer.n_cells)]
            want = zero_cell_of(nest(outer, inner))
            got = intersection(zero_cell_of(outer), zero_cell_of(inner[0]))
            assert want.close_to(got)

    def test_nesting_law_reduced(self):
        # time-additivity of the splitting process under refinement (reduced size;
        # the acceptance suite runs the stated size)
        k = centered_square(1.0)
        n = 20_000

        def direct(rng, m):
            out = np.empty((m, 1), dtype=bool)
            for r in range(m):
                cell = zero_cell_of(stit_run(XY, W2, 1.0, rng))
                out[r, 0] = cell is not None and contains(cell, k)
            return out

        def nested(rng, m):
            out = np.empty((m, 1), dtype=bool)
            for r in range(m):
                outer = stit_run(XY, W2, 0.5, rng)
                inner = [stit_run(XY, W2, 0.5, rng) for _ in range(outer.n_cells)]
                cell = zero_cell_of(nest(outer, inner))
                out[r, 0] = cell is not None and contains(cell, k)
            return out

        res = two_sample_containment_test(direct, nested, [k], n, seed=223)
        assert res.passed


class TestScalingLawSplittingRoute:
    def test_scaled_time_two_matches_time_one(self):
        # 2 * (zero cell of a t=2 run in W) ~ zero cell of a t=1 run in 2W, with the
        # boundary conditioning mapped consistently under the scaling
        n = 4000
        w_small = centered_square(10.0)
        w_big = centered_square(20.0)
        bodies = [centered_square(1.0), centered_square(0.5)]

        def side_a(rng, m):
            out = np.empty((m, 2), dtype=bool)
            for r in range(m):
                while True:
                    cell = zero_cell_of(stit_run(XY, w_small, 2.0, rng))
                    if cell is not None and not touches_boundary(cell, w_small):
                        break
                cell = scale(cell, 2.0)
                for i, b in enumerate(bodies):
                    out[r, i] = contains(cell, b)
            return out

        def side_b(rng, m):
            out = np.empty((m, 2), dtype=bool)
            for r in range(m):
                while True:
                    cell = zero_cell_of(stit_run(XY, w_big, 1.0, rng))
                    if cell is not None and not touches_boundary(cell, w_big):
                        break
                for i, b in enumerate(bodies):
                    out[r, i] = contains(cell, b)
            return out

        res = two_sample_containment_test(side_a, side_b, bodies, n, seed=224)
        assert res.passed


class TestSerialization:
    def test_json_round_trip(self):
        tess = stit_run(XY, W2, 1.5, substream(225, 0))
        back = Tessellation.from_json(tess.to_json())
        assert back.n_cells == tess.n_cells
        assert back.window.close_to(tess.window)
        for a, b in zip(back.cells, tess.cells):
            assert a.close_to(b, tol=0.0)

    def test_partition_certificate_rejects_overlap(self):
        with pytest.raises(AssertionError):
            Tessellation(W1, (W1, W1))
