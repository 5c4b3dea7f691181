import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from _oracles import RenewalSetSample, coverage_calibration, law_paths, renewal_sets
from crofton.errors import InsufficientConditioningEvents
from crofton.geometry import centered_square
from crofton.measure import discrete_xy, isotropic
from crofton.montecarlo import (
    BLOCK,
    ConditionalPattern,
    Experiment,
    ExperimentSpec,
    Z99,
    ergodic_average,
    simulate_indicator_paths,
    two_sample_containment_test,
)
from crofton.rng import substream
from crofton.verify import pht_zero_cell_events

XY = discrete_xy()
K = centered_square(1.0)


def spec_with(seed=1, reps=20_000, length=6, workers=1, measure=XY, a=2.0, body=K):
    return ExperimentSpec(measure, a, body, reps, length, seed, workers)


class TestDeterminism:
    @pytest.mark.parametrize("measure,reps,length", [
        (XY, BLOCK + 500, 6),
        (isotropic(), BLOCK + 4, 1),
    ], ids=["discrete-xy", "isotropic"])
    def test_worker_count_does_not_change_results(self, measure, reps, length):
        # more replications than one block so the partition actually varies
        one = simulate_indicator_paths(spec_with(seed=77, reps=reps, length=length, workers=1, measure=measure))
        two = simulate_indicator_paths(spec_with(seed=77, reps=reps, length=length, workers=2, measure=measure))
        assert np.array_equal(one, two)

    def test_repeated_runs_identical(self):
        a = Experiment(spec_with(seed=5)).estimate_q(1)
        b = Experiment(spec_with(seed=5)).estimate_q(1)
        assert a == b

    def test_seed_changes_results(self):
        a = Experiment(spec_with(seed=5)).estimate_q(1)
        b = Experiment(spec_with(seed=6)).estimate_q(1)
        assert a.estimate != b.estimate

    def test_spec_digest_stable_and_seed_sensitive(self):
        d1 = spec_with(seed=5).digest()
        d2 = spec_with(seed=5).digest()
        d3 = spec_with(seed=6).digest()
        assert d1 == d2 and d1 != d3


class TestEstimators:
    def test_q_estimates_within_three_sigma(self):
        ex = Experiment(spec_with(seed=8, reps=50_000))
        for n in (1, 3):
            rep = ex.estimate_q(n)
            assert rep.within(3.0)
            assert rep.ci99[0] <= rep.estimate <= rep.ci99[1]

    def test_interarrival_frequencies(self):
        ex = Experiment(spec_with(seed=9, reps=2000, length=160))
        reports = ex.estimate_interarrival(6)
        assert all(r.within(3.5) for r in reports)
        assert sum(r.estimate for r in reports) <= 1.0 + 1e-12

    def test_gap_estimators_match_a_per_start_loop(self):
        length, max_gap = 30, 6
        bits = (np.random.default_rng(3).random((60, length + 1, 2)) < 0.3).astype(np.uint8)
        bits[0] = 0  # a path with no ones
        bits[1] = 0
        bits[1, [0, max_gap + 3], 0] = 1  # a path whose next one lies beyond max_gap
        ex = Experiment(spec_with(reps=60, length=length))
        ex._paths = bits
        cols = length + 1 - max_gap
        gaps = []  # per path, the gap (0 when beyond max_gap) from each start
        for row in bits[:, :, 0]:
            gaps.append([next((g for g in range(1, max_gap + 1) if row[c + g]), 0)
                         for c in range(cols) if row[c]])
        starts = sum(len(gs) for gs in gaps)
        reports = ex.estimate_interarrival(max_gap)
        for g, rep in enumerate(reports, start=1):
            x = np.array([gs.count(g) for gs in gaps], dtype=float)
            y = np.array([len(gs) for gs in gaps], dtype=float)
            assert rep.n == starts and rep.estimate == x.sum() / starts
            se = math.sqrt(sum((x - rep.analytic * y) ** 2)) / starts
            assert rep.stderr == pytest.approx(se, rel=1e-12)
        seen = [g for gs in gaps for g in gs if g]
        mean_gap = ex.estimate_mean_gap(max_gap)
        assert mean_gap.n == len(seen) and mean_gap.estimate == sum(seen) / len(seen)

    def test_mean_gap_holds_one_gap_mask_at_a_time(self):
        ex = Experiment(spec_with(seed=10, reps=4000, length=160))
        ex.paths  # simulate before measuring the estimator alone
        tracemalloc.start()
        try:
            ex.estimate_mean_gap(60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6  # sixty 4000x101 boolean masks held at once take 24 MB

    def test_conditional_pattern_counts_are_complementary(self):
        ex = Experiment(spec_with(seed=10, reps=30_000))
        kept = ex.estimate_conditional_pattern(ConditionalPattern((0, 3), (1, 2), (2,)))
        dropped = ex.estimate_conditional_pattern(ConditionalPattern((0, 3), (1, 2), ()))
        assert kept.n == dropped.n
        assert kept.estimate + dropped.estimate == pytest.approx(1.0, abs=1e-12)
        assert kept.within(3.0) and dropped.within(3.0)

    def test_stationary_delay_reports(self):
        ex = Experiment(spec_with(seed=11, reps=3000, length=160))
        span, fwd, missing = ex.estimate_stationary_delay(3)
        assert missing == 0
        assert all(r.within(3.5) for r in span + fwd)
        # the length-biased spanning gap stochastically dominates the plain gap:
        # its empirical CDF sits below on the common support
        gaps = ex.estimate_interarrival(6)
        cdf_span = np.cumsum([r.estimate for r in span])
        cdf_gap = np.cumsum([r.estimate for r in gaps[: len(span)]])
        assert np.all(cdf_span <= cdf_gap)

    def test_renewal_sets_cross_check_delay_estimator(self):
        # recompute the spanning gap around the midpoint from the extracted sets
        ex = Experiment(spec_with(seed=11, reps=3000, length=160))
        span, _, _ = ex.estimate_stationary_delay(3)
        mid = 80
        hits = 0
        total = 0
        for s in renewal_sets(ex.paths):
            nxt = next((t for t in s.times if t >= mid), None)
            prev = max((t for t in s.times if t < mid), default=None)
            if nxt is None or prev is None:
                continue
            total += 1
            hits += (nxt - prev) == 1
        assert total > 0
        assert hits / total == pytest.approx(span[0].estimate, abs=1e-12)

    def test_renewal_set_validation(self):
        assert RenewalSetSample((1, 4, 9)).gaps == (3, 5)
        with pytest.raises(ValueError):
            RenewalSetSample((3, 3))

    def test_insufficient_conditioning_raises(self):
        ex = Experiment(spec_with(seed=12, reps=120))
        with pytest.raises(InsufficientConditioningEvents):
            ex.estimate_q(1)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            ConditionalPattern((0, 3), (0, 1), (1,)).validate(6)  # run touches interval start
        with pytest.raises(ValueError):
            ConditionalPattern((0, 3), (1, 2), (1,)).validate(6)  # J not interior
        with pytest.raises(ValueError):
            ConditionalPattern((0, 5), (1, 2, 3, 4), (2,)).validate(3)  # beyond path
        ConditionalPattern((0, 5), (1, 3), ()).validate(6)  # two runs, one zero between


class TestErgodic:
    def test_average_matches_density(self):
        body = centered_square(0.25)  # Lambda = 0.25
        spec = ExperimentSpec(XY, 2.0, body, 1, 30_000, 13)
        rep = ergodic_average(spec)
        assert rep.analytic == pytest.approx(math.exp(-0.25), abs=1e-12)
        assert rep.within(4.0)

    def test_shift_invariance_bound(self):
        spec = ExperimentSpec(XY, 2.0, K, 1, 30_000, 14)
        from crofton.zero_cell import make_path_engine
        engine = make_path_engine(XY, 2.0, (K,))
        state, first = engine.path_start(substream(14, 0))
        bits = [first[0]]
        j = 1
        while len(bits) < spec.path_length + 1:
            chunk, state = engine.path_steps(state, substream(14, j), min(BLOCK, spec.path_length + 1 - len(bits)))
            bits.extend(chunk[:, 0].tolist())
            j += 1
        bits = np.array(bits, dtype=float)
        full = bits.mean()
        dropped = bits[100:].mean()
        assert abs(full - dropped) <= 100.0 / len(bits) + 1e-12

    def test_requires_long_path(self):
        with pytest.raises(ValueError):
            ergodic_average(ExperimentSpec(XY, 2.0, K, 1, 500, 15))


class TestTwoSample:
    def test_null_calibration(self):
        bodies = [K, centered_square(0.5)]
        gen = pht_zero_cell_events(XY, bodies)
        passes = 0
        runs = 40
        for i in range(runs):
            res = two_sample_containment_test(gen, gen, bodies, 4000, seed=1000 + i)
            passes += res.passed
        assert passes >= runs - 3

    def test_detects_a_real_difference(self):
        bodies = [K]
        gen_a = pht_zero_cell_events(XY, bodies, time=1.0)
        gen_b = pht_zero_cell_events(XY, bodies, time=1.3)
        res = two_sample_containment_test(gen_a, gen_b, bodies, 20_000, seed=16)
        assert not res.passed

    def test_report_fields(self):
        bodies = [K, centered_square(0.5), centered_square(1.5)]
        gen_a = pht_zero_cell_events(XY, bodies, time=1.0)
        gen_b = pht_zero_cell_events(XY, bodies, time=1.3)
        res = two_sample_containment_test(gen_a, gen_b, bodies, 2000, seed=17)
        d = res.to_dict()
        assert set(d) == {
            "bodies", "freq_a", "freq_b", "zscores", "pvalues", "n_a", "n_b", "level", "passed",
        }
        # the standard-library normal tail and quantile agree with scipy's
        assert Z99 == norm.ppf(0.995)
        for z, p in zip(d["zscores"], d["pvalues"]):
            assert p == pytest.approx(2.0 * norm.sf(abs(z)), rel=1e-13)


class TestCalibration:
    def test_ci99_coverage(self):
        def make_report(seed):
            return Experiment(spec_with(seed=seed, reps=4000, length=2)).estimate_q(1)

        frac = coverage_calibration(make_report, n_meta=20, base_seed=300)
        assert frac >= 0.95

    @pytest.mark.parametrize("target,reps,length", [
        ("q", 1200, 6),
        ("p", 96, 80),
    ])
    def test_exact_law_first_attempt_rejection_rate(self, target, reps, length):
        # verdicts at the paths-isotropic benchmark sizes, fed bits of the exact law:
        # their first attempts must fail no more often than their 3-sigma checks allow
        spec = spec_with(reps=reps, length=length, measure=isotropic())
        n_seeds = 10_000
        fails = 0
        for seed in range(n_seeds):
            ex = Experiment(spec)
            ex._paths = law_paths(spec.lambda_k, spec.a, reps, length, substream(seed, 0))
            reports = ex.estimate_q_many((1, 2, 3, 4, 5)) if target == "q" else ex.estimate_interarrival(6)
            fails += not all(r.within(3.0) for r in reports)
        rate = fails / n_seeds
        if target == "q":
            nominal = 1.0 - (1.0 - math.erfc(3.0 / math.sqrt(2.0))) ** 5  # 1.34%
            assert rate <= nominal + 3.0 * math.sqrt(nominal * (1.0 - nominal) / n_seeds)
        else:
            # six checks allow 1.61%, and a Wald standard error (centred on the estimate)
            # fails about 2.7%. The score error leaves about 1.8-1.9%: the rest is a lower-tail
            # skew of the self-normalized cluster sums over 96 paths at p[3..6], still open.
            assert rate <= 0.025


class TestSpecValidation:
    def test_bad_spec_values(self):
        with pytest.raises(ValueError):
            spec_with(reps=0)
        with pytest.raises(ValueError):
            spec_with(length=0)
        with pytest.raises(ValueError):
            spec_with(a=1.0)

    def test_lambda_k_and_params(self):
        s = spec_with()
        assert s.lambda_k == pytest.approx(1.0, abs=1e-12)
        assert s.params.a == 2.0

    def test_isotropic_engine_also_works(self):
        body = centered_square(math.pi / 4.0)
        spec = ExperimentSpec(isotropic(), 2.0, body, 3000, 3, 18)
        rep = Experiment(spec).estimate_q(1)
        assert rep.within(3.5)
