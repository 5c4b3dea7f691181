"""A reduced-size tour of the verification targets.

Each target simulates its law and tests it at the stated level; the full-size
suite lives in tests/test_acceptance.py and behind the `crofton verify` CLI.
"""
import time

from crofton import centered_square, discrete_xy
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

xy = discrete_xy()
k = centered_square(1.0)

runs = [
    ("q", lambda: verify_q(xy, k, ns=(1, 2, 3), replications=20_000, seed=1)),
    ("p", lambda: verify_p(xy, k, max_gap=4, replications=1500, seed=2)),
    ("renewal", lambda: verify_renewal(xy, k, replications=1500, seed=3)),
    # the rarest conditioning pattern needs >= 1000 events, hence the larger run
    ("conditional", lambda: verify_conditional(xy, k, replications=100_000, seed=4)),
    ("ergodic", lambda: verify_ergodic(xy, k, path_length=20_000, seed=5)),
    ("scaling", lambda: verify_scaling(xy, times=(0.5, 2.0), replications=10_000, seed=6)),
    ("stit-vs-pht", lambda: verify_stit_vs_pht(xy, replications=3_000, seed=7)),
    ("nesting-law", lambda: verify_nesting_law(xy, k, replications=10_000, seed=8)),
]

for name, fn in runs:
    t0 = time.time()
    report = fn()
    status = "PASS" if report.passed else "FAIL"
    print(f"{name:12s} {status}   ({time.time() - t0:.1f}s, {len(report.attempts)} attempt(s))")
