"""Checks of the benchmark itself at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py

Digests repeat across runs and survive tracing, layer self times add up to
the traced wall time, a raised exception is counted as a failed operation,
and the report check rejects a report whose evidence was altered.
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import crofton.verify  # noqa: E402
from crofton.cli import main  # noqa: E402

import run  # noqa: E402
from ops import check_report, run_op  # noqa: E402
from tracing import LAYERS, Recorder, layer_metrics, traced  # noqa: E402
from workloads import Workload, paths, two_sample  # noqa: E402

TINY = Workload(
    "tiny",
    "every traced layer at a size that runs in seconds",
    (
        paths("q", "discrete-xy", 400, 6),
        paths("ergodic", "discrete-xy", 1, 10_000),
        two_sample("scaling", "discrete-xy", 500, cells_per_event=4),
        two_sample("stit-vs-pht", "discrete-xy", 20),
        two_sample("nesting-law", "discrete-xy", 40),
        paths("q", "isotropic", 500, 6),
        two_sample("nesting-law", "isotropic", 20),
    ),
)


def _run(tmp_path, rec=None):
    n = len(TINY.cycle)
    return run.run_ops(main, TINY, 5, 0.0, str(tmp_path / "out.json"), count=n, rec=rec)


def test_digests_repeat_and_tracing_changes_nothing(tmp_path):
    first, _ = _run(tmp_path)
    second, plain_wall = _run(tmp_path)
    original = crofton.verify.stit_run
    rec = Recorder()
    with traced(rec):
        third, wall = _run(tmp_path, rec)
    assert crofton.verify.stit_run is original
    digests = [r.digest for r in first]
    assert None not in digests
    assert digests == [r.digest for r in second] == [r.digest for r in third]
    assert all(not r.failed and not r.problems for r in first + third)

    m = {k: v for k, (v, _unit) in layer_metrics(rec, wall, plain_wall).items()}
    covered = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert covered + m["trace.unattributed_s"] == pytest.approx(wall, rel=1e-12)
    assert m["zero_cell.path_cell_steps"] == 400 * 7 + 10_001 + 500 * 7
    assert m["zero_cell.zero_cells"] > 0 and m["tessellation.stit_runs"] > 0
    assert m["geometry.split_calls"] == m["measure.sample_hitting_calls"] > 0
    assert m["verify.attempts"] == sum(r.attempts for r in third)


def test_raised_exception_is_a_failed_operation(tmp_path):
    res = run_op(main, paths("q", "discrete-xy", 50, 6), 3, str(tmp_path / "out.json"))
    assert res.failed and res.exception == "InsufficientConditioningEvents"
    assert res.samples == 0


def test_report_check_rejects_altered_evidence(tmp_path):
    verdict = paths("q", "discrete-xy", 400, 6)
    out = tmp_path / "out.json"
    res = run_op(main, verdict, 5, str(out))
    assert res.rc == 0 and res.problems == []
    doc = json.loads(out.read_text())
    doc["report"]["attempts"][0]["evidence"][2]["analytic"] += 1e-3
    assert check_report(doc, verdict, 5, 0, "verify q: PASS\n")


def test_tail_keeps_ten_verdicts_beyond_it():
    value, level, n = run.tail([float(i) for i in range(40)])
    assert (value, level, n) == (29.0, 0.75, 40)


def test_gauge_brackets_each_operation(tmp_path):
    results, _ = run.run_ops(main, TINY, 5, 0.0, str(tmp_path / "out.json"), count=2, gauge=True)
    assert all(r.ref_s > 0 for r in results)
    assert run.scaled(2.0, run.REF_NOMINAL_S / 2) == pytest.approx(4.0)
