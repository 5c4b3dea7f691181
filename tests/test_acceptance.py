"""Acceptance suite: every stated law at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v` (add -s to stream the lines).
Statistical criteria go through the verification layer and inherit its
retry-once-then-fail policy at the stated levels.
"""
import math
import time

import numpy as np
import pytest

from crofton.geometry import (
    Direction,
    HalfPlane,
    Line,
    box,
    centered_square,
    halfplane_intersection,
    scale,
    split,
    width,
)
from crofton.measure import discrete_xy
from crofton.montecarlo import ExperimentSpec, simulate_indicator_paths
from crofton.rng import substream
from crofton.verify import (
    verify_conditional,
    verify_ergodic,
    verify_nesting_law,
    verify_p,
    verify_q,
    verify_renewal,
    verify_scaling,
    verify_stit_vs_pht,
)
from crofton.zero_cell import _RectBatchZeroCells

from _oracles import random_convex_polygon, random_hitting_line

XY = discrete_xy()
K = centered_square(1.0)  # Lambda([K]) = 1


def announce(num: int, name: str, passed: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    assert passed, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def renewal_report():
    return verify_renewal(XY, K, replications=4000, path_length=160, seed=130)


@pytest.fixture(scope="module")
def conditional_report():
    return verify_conditional(XY, K, replications=100_000, seed=160)


def test_criterion_01_zero_cell_containment():
    t0 = time.time()
    n = 100_000
    target = math.exp(-1.0)

    def attempt(seed):
        x0, x1, y0, y1 = _RectBatchZeroCells(XY).sample(substream(seed, 0), n)
        v = K.vertices
        freq = float(
            (
                (x0 <= v[:, 0].min() + 1e-9)
                & (x1 >= v[:, 0].max() - 1e-9)
                & (y0 <= v[:, 1].min() + 1e-9)
                & (y1 >= v[:, 1].max() - 1e-9)
            ).mean()
        )
        sigma = math.sqrt(target * (1.0 - target) / n)
        return abs(freq - target) <= 3.0 * sigma, freq, sigma

    ok, freq, sigma = attempt(100)
    if not ok:
        ok, freq, sigma = attempt(100 + 1_000_003)
    elapsed = time.time() - t0
    announce(
        1,
        "zero-cell containment",
        ok and elapsed <= 30.0,
        f"(freq={freq:.5f}, target={target:.5f}, sigma={sigma:.4f}, {elapsed:.1f}s)",
    )


def test_criterion_02_transition_probabilities():
    t0 = time.time()
    rep = verify_q(XY, K, a=2.0, ns=(1, 2, 3, 4, 5), replications=100_000, seed=120)
    elapsed = time.time() - t0
    ev = rep.attempts[-1]["evidence"]
    zs = ", ".join(f"{e['zscore']:+.2f}" for e in ev)
    announce(2, "transition probabilities", rep.passed and elapsed <= 120.0,
             f"(z: {zs}; {elapsed:.1f}s)")


def test_criterion_03_interarrival_law():
    rep = verify_p(XY, K, max_gap=6, replications=4000, path_length=160, seed=125)
    ev = rep.attempts[-1]["evidence"]
    gap_z = ", ".join(f"{g['zscore']:+.2f}" for g in ev["gaps"])
    announce(
        3,
        "interarrival law",
        rep.passed,
        f"(cross-method diff={ev['max_cross_method_diff']:.1e}, gap z: {gap_z})",
    )


def test_criterion_04_mean_recurrence(renewal_report):
    ev = renewal_report.attempts[-1]["evidence"]
    exact_err = abs(ev["exact_mean"] - math.e)
    mg = ev["mean_gap"]
    ok = (
        renewal_report.passed
        and exact_err < 1e-6
        and abs(mg["zscore"]) <= 3.0
        and mg["n"] >= 100_000
    )
    announce(
        4,
        "mean recurrence",
        ok,
        f"(exact err={exact_err:.1e}, MC z={mg['zscore']:+.2f}, gaps={mg['n']})",
    )


def test_criterion_05_stationary_delay_laws(renewal_report):
    ev = renewal_report.attempts[-1]["evidence"]
    spans = [r["zscore"] for r in ev["spanning"]]
    fwds = [r["zscore"] for r in ev["forward"]]
    ok = renewal_report.passed and all(abs(z) <= 3.0 for z in spans + fwds)
    announce(
        5,
        "stationary delay laws",
        ok,
        f"(max |z| spanning={max(abs(z) for z in spans):.2f}, forward={max(abs(z) for z in fwds):.2f})",
    )


def test_criterion_06_conditional_thinning_law(conditional_report):
    ev = conditional_report.attempts[-1]["evidence"]
    pats = ev["patterns"]
    counts = [p["n"] for p in pats]
    ok = (
        conditional_report.passed
        and all(abs(p["zscore"]) <= 3.0 for p in pats)
        and all(c >= 1000 for c in counts)
    )
    pat_z = ", ".join(f"{p['zscore']:+.2f}" for p in pats)
    announce(6, "conditional thinning law", ok, f"(z: {pat_z}; events {counts})")


def test_criterion_07_non_thinning_strict_inequality(conditional_report):
    ev = conditional_report.attempts[-1]["evidence"]
    ok = (
        conditional_report.passed
        and ev["analytic_gap"] > 1e-3
        and ev["separation_sigmas"] >= 10.0
    )
    announce(
        7,
        "non-thinning inequality",
        ok,
        f"(analytic gap={ev['analytic_gap']:.4f}, separation={ev['separation_sigmas']:.0f} sigma)",
    )


def test_criterion_08_scaling_law():
    rep = verify_scaling(XY, times=(0.5, 2.0), replications=40_000, seed=140)
    ev = rep.attempts[-1]["evidence"]
    pv = {k: min(v["pvalues"]) for k, v in ev.items()}
    announce(8, "scaling law", rep.passed, f"(min p-values {pv})")


def test_criterion_09_stit_pht_zero_cell_identity():
    t0 = time.time()
    rep = verify_stit_vs_pht(XY, replications=30_000, window_mass=20.0, seed=145)
    ev = rep.attempts[-1]["evidence"]
    announce(
        9,
        "splitting/Poisson zero-cell identity",
        rep.passed,
        f"(min p-value={min(ev['pvalues']):.3f}, {time.time()-t0:.0f}s)",
    )


def test_criterion_10_nesting_law():
    t0 = time.time()
    rep = verify_nesting_law(XY, K, t=0.5, s_time=0.5, replications=100_000, seed=150)
    ev = rep.attempts[-1]["evidence"]
    announce(
        10,
        "nesting law",
        rep.passed,
        f"(p-value={ev['pvalues'][0]:.3f}, {time.time()-t0:.0f}s)",
    )


def test_criterion_11_ergodic_average():
    rep = verify_ergodic(XY, K, path_length=100_000, seed=155)
    ev = rep.attempts[-1]["evidence"][0]
    announce(
        11,
        "ergodic average",
        rep.passed,
        f"(avg={ev['estimate']:.5f}, target={ev['analytic']:.5f}, z={ev['zscore']:+.2f})",
    )


def test_criterion_12_geometry_oracles():
    rng = np.random.default_rng(2718)
    violations = 0
    for _ in range(1000):  # split additivity
        poly = random_convex_polygon(rng, radius=1.0 + 2.0 * rng.random())
        parts = split(poly, random_hitting_line(rng, poly))
        if parts is None or abs(parts[0].area + parts[1].area - poly.area) > 1e-9 * poly.area:
            violations += 1
    bound = box(-3.0, -3.0, 3.0, 3.0)
    for _ in range(1000):  # permutation-invariant half-plane intersection
        hps = []
        for _ in range(12):
            phi = rng.random() * math.pi
            off = 0.2 + 2.0 * rng.random()
            side = -1 if rng.random() < 0.5 else +1
            hps.append(HalfPlane(Line(Direction(phi), off if side < 0 else -off), side))
        ref = halfplane_intersection(hps, bound)
        perm = list(hps)
        rng.shuffle(perm)
        out = halfplane_intersection(perm, bound)
        if ref is None or out is None or not out.close_to(ref, tol=1e-9):
            violations += 1
    for _ in range(1000):  # width scaling linearity
        poly = random_convex_polygon(rng)
        c = 0.1 + 5.0 * rng.random()
        phi = Direction(rng.random() * math.pi)
        if abs(width(scale(poly, c), phi) - c * width(poly, phi)) > 1e-12 * max(
            1.0, c * width(poly, phi)
        ):
            violations += 1
    announce(12, "geometry oracles", violations == 0, f"(violations={violations}/3000)")


def test_criterion_13_determinism(tmp_path):
    from crofton.cli import main

    ok = True
    detail = []
    # command-level byte identity
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["sample", "stit", "--t", "1", "--window", "square:1", "--seed", "7"]
    main(argv + ["--out", str(a)])
    main(argv + ["--out", str(b)])
    same_cli = a.read_bytes() == b.read_bytes()
    ok &= same_cli
    detail.append(f"cli bytes={'ok' if same_cli else 'DIFF'}")
    # worker-count independence of the harness
    reps = 5000
    one = simulate_indicator_paths(ExperimentSpec(XY, 2.0, K, reps, 6, 99, workers=1))
    two = simulate_indicator_paths(ExperimentSpec(XY, 2.0, K, reps, 6, 99, workers=2))
    same_workers = np.array_equal(one, two)
    ok &= same_workers
    detail.append(f"workers={'ok' if same_workers else 'DIFF'}")
    # verify-report byte identity, including across different worker counts
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    vargv = ["verify", "q", "--seed", "11", "--reps", "8000", "--n", "1..1"]
    main(vargv + ["--out", str(r1), "--workers", "1"])
    main(vargv + ["--out", str(r2), "--workers", "2"])
    same_rep = r1.read_bytes() == r2.read_bytes()
    ok &= same_rep
    detail.append(f"report bytes={'ok' if same_rep else 'DIFF'}")
    announce(13, "determinism", ok, f"({', '.join(detail)})")
