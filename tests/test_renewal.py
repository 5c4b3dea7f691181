import math

import numpy as np
import pytest

from crofton.renewal import (
    RegenParams,
    TailTooHeavy,
    conditional_pattern_prob,
    joint_q_probability,
    marginal_thinning_ratio,
    mean_recurrence,
    p_by_inclusion_exclusion,
    p_by_renewal_recursion,
    p_vector,
    q_vector,
    stationary_delay,
)

P12 = RegenParams(1.0, 2.0)
GRID = [RegenParams(1.0, 2.0), RegenParams(0.5, 1.5), RegenParams(2.0, 3.0)]


class TestQVector:
    def test_explicit_values(self):
        q = q_vector(P12, 5)
        assert q.q(1) == pytest.approx(0.606530659713, abs=1e-12)
        assert q.q(2) == pytest.approx(0.472366552741, abs=1e-12)
        assert q.q(3) == pytest.approx(0.416862019679, abs=1e-12)
        assert q.q(4) == pytest.approx(0.391605626677, abs=1e-12)
        assert q.q(5) == pytest.approx(0.379557188183, abs=1e-12)

    def test_limit_is_exp_minus_lambda(self):
        q = q_vector(P12, 50)
        assert abs(q.q(50) - math.exp(-1.0)) < 1e-12

    def test_strictly_decreasing_in_unit_interval(self):
        for params in GRID:
            vals = q_vector(params, 100).values
            assert np.all(vals > 0.0) and np.all(vals < 1.0)
            # strictly decreasing until a^-n underflows the float resolution
            assert np.all(np.diff(vals) <= 0.0)
            assert np.all(np.diff(vals[:20]) < 0.0)

    def test_large_base_degenerates_to_iid(self):
        params = RegenParams(1.0, 1e6)
        vals = q_vector(params, 10).values
        assert np.all(np.abs(vals - math.exp(-1.0)) < 1e-6)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RegenParams(0.0, 2.0)
        with pytest.raises(ValueError):
            RegenParams(1.0, 1.0)


class TestInterarrival:
    def test_p1_is_q1(self):
        q = q_vector(P12, 5)
        assert p_by_inclusion_exclusion(q, 1) == pytest.approx(q.q(1), abs=0.0)
        assert p_by_renewal_recursion(q, 1).p(1) == pytest.approx(q.q(1), abs=0.0)

    def test_p2_two_term_expansion(self):
        q = q_vector(P12, 5)
        expected = q.q(2) - q.q(1) ** 2
        assert p_by_inclusion_exclusion(q, 2) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.104487111570, abs=1e-12)

    def test_p3_brute_force_four_subsets(self):
        q = q_vector(P12, 5)
        expected = q.q(3) - 2.0 * q.q(1) * q.q(2) + q.q(1) ** 3
        assert p_by_inclusion_exclusion(q, 3) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.066982586107, abs=1e-12)

    def test_cross_method_agreement(self):
        for params in GRID:
            q = q_vector(params, 15)
            rec = p_by_renewal_recursion(q, 15)
            for n in range(1, 16):
                assert abs(p_by_inclusion_exclusion(q, n) - rec.p(n)) < 1e-10

    def test_nonnegative_and_summing_to_one(self):
        for params in GRID:
            p = p_by_renewal_recursion(q_vector(params, 200), 200)
            assert p.values.min() >= -1e-12
            assert p.values.sum() == pytest.approx(1.0, abs=1e-9)

    def test_cost_cap(self):
        q = q_vector(P12, 30)
        with pytest.raises(ValueError):
            p_by_inclusion_exclusion(q, 23)


class TestMeanRecurrence:
    def test_equals_exp_lambda(self):
        for params, n in ((P12, 400), (RegenParams(0.5, 2.0), 400), (RegenParams(2.0, 3.0), 400)):
            p = p_by_renewal_recursion(q_vector(params, n), n)
            mr = mean_recurrence(p)
            assert abs(mr.value - math.exp(params.lambda_k)) < 1e-6
            assert mr.tail_mass < 1e-10
            assert mr.mean_tail_bound < 1e-6

    def test_tail_too_heavy(self):
        p = p_by_renewal_recursion(q_vector(P12, 5), 5)
        with pytest.raises(TailTooHeavy):
            mean_recurrence(p)
        with pytest.raises(TailTooHeavy):
            stationary_delay(p)

    def test_truncation_grows_until_the_tail_is_light(self):
        assert len(p_vector(P12).values) == 400  # lambda = 1 passes at the first truncation
        p = p_vector(RegenParams(3.0, 2.0))  # tail mass 1.1e-7 at N = 400
        assert len(p.values) == 800
        assert mean_recurrence(p).value == pytest.approx(math.exp(3.0), rel=1e-9)
        with pytest.raises(TailTooHeavy):
            p_vector(RegenParams(9.0, 2.0))  # needs more than the largest truncation


class TestStationaryDelay:
    def test_normalizations(self):
        law = stationary_delay(p_by_renewal_recursion(q_vector(P12, 400), 400))
        assert law.spanning.sum() == pytest.approx(1.0, abs=1e-9)
        assert law.forward.sum() == pytest.approx(1.0, abs=1e-9)

    def test_spanning_one(self):
        law = stationary_delay(p_by_renewal_recursion(q_vector(P12, 400), 400))
        assert law.spanning[0] == pytest.approx(math.exp(-1.5), abs=1e-9)

    def test_forward_zero_is_renewal_density(self):
        law = stationary_delay(p_by_renewal_recursion(q_vector(P12, 400), 400))
        assert law.forward[0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_length_biased_dominates_plain(self):
        p = p_by_renewal_recursion(q_vector(P12, 400), 400)
        law = stationary_delay(p)
        cdf_span = np.cumsum(law.spanning)
        cdf_plain = np.cumsum(p.values)
        assert np.all(cdf_span <= cdf_plain + 1e-12)


class TestConditionalLaw:
    def test_single_one(self):
        assert conditional_pattern_prob(P12, 1, 0) == pytest.approx(0.606530659713, abs=1e-12)

    def test_empty_pattern(self):
        assert conditional_pattern_prob(P12, 0, 0) == 1.0

    def test_two_ones_one_zero(self):
        assert conditional_pattern_prob(P12, 2, 1) == pytest.approx(0.144749281023, abs=1e-12)

    def test_not_an_independent_thinning(self):
        keep = conditional_pattern_prob(P12, 1, 0)
        thin = marginal_thinning_ratio(P12, 1)
        assert thin == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert abs(keep - thin) > 1e-3

    def test_scaled_power_ratios(self):
        assert marginal_thinning_ratio(P12, 2) == pytest.approx(math.exp(-3.0), abs=1e-15)


class TestJointProbability:
    def test_single_index(self):
        assert joint_q_probability(P12, [4]) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_adjacent_pair(self):
        assert joint_q_probability(P12, [0, 1]) == pytest.approx(math.exp(-1.5), abs=1e-15)

    def test_triple(self):
        assert joint_q_probability(P12, [0, 1, 2]) == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_chapman_consistency_with_q(self):
        # joint over (0, n) must factor as P(V_0 = 1) q_n
        q = q_vector(P12, 50)
        for n in range(1, 51):
            expected = math.exp(-1.0) * q.q(n)
            assert joint_q_probability(P12, [0, n]) == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            joint_q_probability(P12, [0, 0])
        with pytest.raises(ValueError):
            joint_q_probability(P12, [3, 1])
        with pytest.raises(ValueError):
            joint_q_probability(P12, [])
