import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare, kstest

from crofton.geometry import Direction, box, centered_square, regular_polygon, scale, translate, width
from crofton.measure import (
    Discrete,
    Isotropic,
    LineMeasure,
    Mixture,
    disc_lines,
    discrete_xy,
    isotropic,
    kappa_from_config,
    kappa_to_config,
    lambda_of,
    sample_hitting,
    sample_poisson_hitting,
)
from crofton.rng import substream

from _oracles import isotropic_lambda_by_quadrature, random_convex_polygon, two_call_disc_draw

UNIT = box(0.0, 0.0, 1.0, 1.0)
MIXTURE = LineMeasure(Mixture(((Isotropic(0.5), 1.0), (Discrete(((0.3, 1.0), (1.1, 0.5))), 0.7))))
# width 3: a component pick, then the nested mixture's own pick and its component's uniform
NESTED = Mixture(((Isotropic(0.5), 1.0),
                  (Mixture(((Discrete(((0.3, 1.0), (1.1, 0.5))), 1.0), (Isotropic(1.0), 0.5))), 0.7)))
ONE_WIDTH = {
    "isotropic": Isotropic(),
    "isotropic:2.5": Isotropic(2.5),
    "discrete-xy": discrete_xy().kappa,
    "three-atoms": Discrete(((0.0, 0.4), (1.0, 0.7), (2.2, 0.5))),
}


class TestLambdaOf:
    def test_discrete_xy_unit_square(self):
        assert lambda_of(discrete_xy(), UNIT) == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_unit_square_cauchy_formula(self):
        assert lambda_of(isotropic(1.0), UNIT) == pytest.approx(4.0 / math.pi, abs=1e-12)

    def test_isotropic_matches_quadrature_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            poly = random_convex_polygon(rng, radius=2.0)
            got = lambda_of(isotropic(1.7), poly)
            assert got == pytest.approx(isotropic_lambda_by_quadrature(poly, 1.7), rel=1e-9)

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        measures = [discrete_xy(), isotropic(0.8), MIXTURE]
        for m in measures:
            for _ in range(30):
                poly = random_convex_polygon(rng)
                base = lambda_of(m, poly)
                for c in (0.5, 2.0, 7.3):
                    assert lambda_of(m, scale(poly, c)) == pytest.approx(c * base, rel=1e-10)

    def test_monotone_in_the_body(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            outer = random_convex_polygon(rng, radius=2.0)
            inner = scale(outer, 0.2 + 0.7 * rng.random())
            for m in (discrete_xy(), isotropic()):
                assert lambda_of(m, inner) <= lambda_of(m, outer) + 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            poly = random_convex_polygon(rng)
            moved = translate(poly, 10.0 * rng.standard_normal(), 10.0 * rng.standard_normal())
            assert lambda_of(discrete_xy(), moved) == pytest.approx(
                lambda_of(discrete_xy(), poly), rel=1e-10
            )


class TestSampleHitting:
    def test_direction_frequencies_two_equal_atoms(self):
        rng = substream(101, 0)
        n = 100_000
        vertical = sum(sample_hitting(discrete_xy(), UNIT, rng).direction.phi < 0.1 for _ in range(n))
        se = math.sqrt(0.25 / n)
        assert abs(vertical / n - 0.5) <= 3.0 * se

    def test_every_sampled_line_hits_the_body(self):
        poly = regular_polygon(5, 1.2, 0.3)
        moved = translate(poly, 5.0, -3.0)
        cases = [  # (stream, measures, body, lines per measure)
            (substream(103, 0), (discrete_xy(), isotropic()), poly, 50_000),
            (substream(103, 1), (MIXTURE,), poly, 10_000),
            (substream(103, 2), (discrete_xy(), isotropic(), MIXTURE), moved, 10_000),
        ]
        for rng, measures, body, n in cases:
            for m in measures:
                for _ in range(n):
                    line = sample_hitting(m, body, rng)
                    nx, ny = line.normal
                    proj = body.vertices @ (nx, ny)
                    assert proj.min() - 1e-12 <= line.offset <= proj.max() + 1e-12

    def test_exact_hit_probability_unequal_atoms(self):
        # P(direction j) = weight_j * width_j / Lambda([body]); rectangle makes it exact
        body = box(-1.0, -0.25, 1.0, 0.25)  # widths: x -> 2, y -> 0.5
        m = LineMeasure(Discrete(((0.0, 1.0), (0.5 * math.pi, 2.0))))
        p_vertical = 1.0 * 2.0 / (1.0 * 2.0 + 2.0 * 0.5)
        rng = substream(107, 0)
        n = 100_000
        hits = sum(sample_hitting(m, body, rng).direction.phi < 0.1 for _ in range(n))
        # Wilson 99% interval must cover the exact probability
        z = 2.5758293035489004
        ph = hits / n
        mid = (ph + z * z / (2 * n)) / (1 + z * z / n)
        half = z * math.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / (1 + z * z / n)
        assert mid - half <= p_vertical <= mid + half

    def test_isotropic_offsets_uniform_on_hit_interval(self):
        # 64-gon is disk-like; normalized offsets must be uniform per direction bucket
        disc = regular_polygon(64, 1.0)
        m = isotropic()
        for body, rng in ((disc, substream(109, 0)), (translate(disc, -4.0, 7.0), substream(109, 1))):
            by_bucket = [[] for _ in range(8)]
            for _ in range(20_000):
                line = sample_hitting(m, body, rng)
                nx, ny = line.normal
                proj = body.vertices @ (nx, ny)
                u = (line.offset - proj.min()) / (proj.max() - proj.min())
                by_bucket[min(7, int(line.direction.phi / math.pi * 8))].append(u)
            for bucket in by_bucket:
                stat = kstest(bucket, "uniform")
                assert stat.pvalue > 0.01

    def test_mixture_component_frequencies(self):
        # component choice must weight each component by its own hitting mass
        iso = Isotropic(0.5)
        disc = Discrete(((0.0, 1.0), (0.5 * math.pi, 1.0)))
        m = LineMeasure(Mixture(((iso, 1.0), (disc, 1.0))))
        body = centered_square(1.0)
        from crofton.measure import lambda_of as lam

        p_disc = lam(disc, body) / (lam(iso, body) + lam(disc, body))
        rng = substream(115, 0)
        n = 30_000
        axis_hits = 0
        for _ in range(n):
            line = sample_hitting(m, body, rng)
            phi = line.direction.phi
            # the discrete component emits exactly axis directions
            axis_hits += min(phi, abs(phi - 0.5 * math.pi)) < 1e-9
        assert abs(axis_hits / n - p_disc) <= 3.0 * math.sqrt(p_disc * (1 - p_disc) / n)

    def test_isotropic_direction_density_proportional_to_width(self):
        # width of a long thin box concentrates directions near its short axis
        thin = box(-2.0, -0.1, 2.0, 0.1)
        n = 40_000
        # P(phi in [pi/4, 3pi/4]) = integral of width over that arc / total; the law is
        # translation-invariant, so the moved box has the same target
        lo, hi = math.pi / 4, 3 * math.pi / 4
        from scipy.integrate import quad

        num, _ = quad(lambda p: width(thin, Direction(p)), lo, hi)
        den, _ = quad(lambda p: width(thin, Direction(p)), 0.0, math.pi)
        target = num / den
        for body, rng in ((thin, substream(113, 0)), (translate(thin, 6.0, -4.0), substream(113, 1))):
            phis = np.array([sample_hitting(isotropic(), body, rng).direction.phi for _ in range(n)])
            est = float(((phis >= lo) & (phis < hi)).mean())
            assert abs(est - target) <= 3.0 * math.sqrt(target * (1 - target) / n)


class _Uniforms:
    """A generator stand-in whose `random(n)` returns n copies of u and records n."""

    def __init__(self, u: float):
        self.u, self.sizes = u, []

    def random(self, n):
        self.sizes.append(n)
        return np.full(n, self.u)


class TestDiscLines:
    @pytest.mark.parametrize("name", sorted(ONE_WIDTH))
    def test_one_draw_gives_the_two_call_lines_and_end_state(self, name):
        # one uniform draw per batch draws the doubles of a direction draw followed by an
        # offset draw, so every isotropic and discrete stream is the two-call draw's
        kappa = ONE_WIDTH[name]
        cx, cy, r = 0.3, -1.7, 2.5
        for count in range(41):
            rng, want_rng = substream(count, 61), substream(count, 61)
            phis, us = two_call_disc_draw(kappa, want_rng, count)
            want = [(p, math.cos(p), math.sin(p), cx * math.cos(p) + cy * math.sin(p) + r * (2.0 * u - 1.0))
                    for p, u in zip(phis.tolist(), us.tolist())]
            assert disc_lines(kappa, rng, count, cx, cy, r) == want
            assert repr(rng.bit_generator.state) == repr(want_rng.bit_generator.state)

    def test_mixture_component_and_direction_law(self):
        # n = 60,000 disc lines of NESTED: masses 0.5 (isotropic), 0.7 * 1.0 (atom 0.3),
        # 0.7 * 0.5 (atom 1.1) and 0.7 * 0.5 (isotropic) of 1.9; chi-square of the atom
        # counts and KS of the other directions against uniform on [0, pi), each at level 1e-3
        rng = substream(137, 0)
        counts = (1, 2, 3, 7, 11, 16) * 1500
        phis = np.array([line[0] for count in counts for line in disc_lines(NESTED, rng, count, 0.0, 0.0, 1.0)])
        assert len(phis) == 60_000
        atom_3, atom_11 = phis == 0.3, phis == 1.1
        observed = [atom_3.sum(), atom_11.sum(), len(phis) - atom_3.sum() - atom_11.sum()]
        expected = len(phis) * np.array([0.7, 0.35, 0.85]) / 1.9
        assert chisquare(observed, expected).pvalue > 1e-3
        uniform = phis[~(atom_3 | atom_11)]
        assert kstest(uniform / math.pi, "uniform").pvalue > 1e-3

    @pytest.mark.parametrize("kappa", [Isotropic(), ONE_WIDTH["three-atoms"], NESTED],
                             ids=["isotropic", "three-atoms", "nested-mixture"])
    def test_angles_stay_below_pi_at_the_largest_uniform(self, kappa):
        # u = 1 - 2^-53, the largest double below 1, picks the last atom or component, and
        # pi * u rounds below pi; u = 0 picks the first
        for u in (0.0, 1.0 - 2.0**-53):
            rng = _Uniforms(u)
            lines = disc_lines(kappa, rng, 5, 0.0, 0.0, 1.0)
            assert len(lines) == 5 and all(0.0 <= phi < math.pi for phi, *_ in lines)
            assert all(Direction(phi).phi == phi for phi, *_ in lines)
        width = 3 if kappa is NESTED else 1
        assert rng.sizes == [5 * (width + 1)]


class TestPoissonHitting:
    @pytest.mark.parametrize(
        "m, body, salt, n",
        [
            (discrete_xy(), centered_square(2.0), 0, 100_000),  # Lambda = 2
            (isotropic(), translate(regular_polygon(6, 1.0), 3.0, -2.0), 1, 40_000),
            (MIXTURE, translate(regular_polygon(5, 1.2, 0.3), 5.0, -3.0), 2, 40_000),
        ],
        ids=["discrete-xy", "isotropic-hexagon", "mixture-pentagon"],
    )
    def test_mean_and_dispersion(self, m, body, salt, n):
        # the disc lines kept by the body must number Poisson(t * Lambda([body]))
        lam = lambda_of(m, body)
        rng = substream(127, salt)
        counts = np.array([len(sample_poisson_hitting(m, body, 1.0, rng)) for _ in range(n)])
        assert abs(counts.mean() - lam) <= 3.0 * math.sqrt(lam / n)
        # Poisson variance equals the mean; variance of the sample variance ~ 2 mu^2/n + mu/n
        var = counts.var(ddof=1)
        se_var = math.sqrt((2 * lam * lam + lam) / n)
        assert abs(var - lam) <= 3.0 * se_var

    def test_superposition_matches_single_run_counts(self):
        m = discrete_xy()
        body = centered_square(1.0)
        t, s = 0.7, 1.3
        rng = substream(131, 0)
        n = 20_000
        direct = np.array([len(sample_poisson_hitting(m, body, t + s, rng)) for _ in range(n)])
        merged = np.array(
            [
                len(sample_poisson_hitting(m, body, t, rng)) + len(sample_poisson_hitting(m, body, s, rng))
                for _ in range(n)
            ]
        )
        top = max(direct.max(), merged.max())
        table = np.array(
            [np.bincount(direct, minlength=top + 1), np.bincount(merged, minlength=top + 1)]
        )
        table = table[:, table.sum(axis=0) > 5]
        assert chi2_contingency(table).pvalue > 0.01

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            sample_poisson_hitting(discrete_xy(), UNIT, 0.0, substream(1, 0))


class TestMeasureValidation:
    def test_single_direction_rejected(self):
        with pytest.raises(ValueError):
            Discrete(((0.3, 1.0),))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            Discrete(((0.0, 1.0), (1.0, 0.0)))
        with pytest.raises(ValueError):
            Isotropic(0.0)

    def test_config_round_trip(self):
        m = Mixture(((Isotropic(0.5), 1.0), (Discrete(((0.0, 0.5), (1.2, 0.7))), 2.0)))
        assert kappa_from_config(kappa_to_config(m)) == m
