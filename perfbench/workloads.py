"""Benchmark workloads: the `crofton verify` operations each workload cycles through.

Every workload checks its laws for the body K = square:1 with base a = 2. An
operation is one `crofton verify` call; a workload repeats its cycle of
operations, each with its own seed derived from the run's `--seed`.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

BODY = "square:1"
A = 2.0


@dataclass(frozen=True)
class Verdict:
    """One `crofton verify` call at a fixed size.

    `samples` is the number of containment samples one attempt draws: path
    cells (paths x (path length + 1)), or zero cells scored against the body
    family (both sides of a two-sample test).
    """

    target: str
    measure: str
    flags: tuple
    samples: int

    def argv(self, seed: int, out: str) -> list:
        return [
            "verify", self.target, "--measure", self.measure, "--body", BODY,
            "--a", str(A), *self.flags, "--seed", str(seed), "--workers", "1", "--out", out,
        ]

    def describe(self) -> dict:
        return {"target": self.target, "measure": self.measure,
                "flags": list(self.flags), "samples_per_attempt": self.samples}


def paths(target: str, measure: str, reps: int, path_length: int) -> Verdict:
    """A path-engine verdict: `reps` renormalized paths of `path_length` steps."""
    if target in ("q", "conditional"):
        # both targets fix the path length themselves (6 steps: indices 0..6)
        flags = ("--reps", str(reps))
    elif target == "ergodic":
        flags = ("--path-length", str(path_length))
    else:
        flags = ("--reps", str(reps), "--path-length", str(path_length))
    return Verdict(target, measure, flags, reps * (path_length + 1))


def two_sample(target: str, measure: str, n: int, cells_per_event: int = 2) -> Verdict:
    """A two-sample verdict with n events per side (`scaling` runs two such tests)."""
    return Verdict(target, measure, ("--reps", str(n)), cells_per_event * n)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: tuple

    def verdict(self, k: int) -> Verdict:
        return self.cycle[k % len(self.cycle)]

    def describe(self) -> dict:
        return {"why": self.why, "cycle": [v.describe() for v in self.cycle]}


def op_seed(workload: str, seed: int, k: int) -> int:
    """Seed of operation k: a fixed hash of (workload, run seed, k)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000_000


XY, ISO = "discrete-xy", "isotropic"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paths-axis",
            "axis path engine and batch zero cells at acceptance sizes; estimators and renewal forms do the rest",
            (
                paths("q", XY, 100_000, 6),
                paths("p", XY, 4000, 160),
                paths("renewal", XY, 4000, 160),
                paths("conditional", XY, 100_000, 6),
                paths("ergodic", XY, 1, 100_000),
                two_sample("scaling", XY, 40_000, cells_per_event=4),
            ),
        ),
        Workload(
            "paths-isotropic",
            "polygon zero cells and clipping in the general-measure path engine; estimators are negligible",
            (
                # no renewal verdict: at a feasible size (128 paths) its delay-law
                # checks fail 18% of attempts, because a Wald standard error is
                # too small for counts of a few events
                paths("q", ISO, 1200, 6),
                paths("p", ISO, 96, 80),
                paths("ergodic", ISO, 1, 10_000),
            ),
        ),
        Workload(
            "splitting",
            "splitting chains for both measures, cell polygons, nest, zero_cell_of, contains; measure sampling and splits per jump",
            (
                two_sample("stit-vs-pht", XY, 150),
                two_sample("nesting-law", XY, 600),
                two_sample("nesting-law", ISO, 150),
            ),
        ),
    )
}
