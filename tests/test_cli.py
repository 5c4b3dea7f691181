import json
import math
import subprocess
import sys

import numpy as np
import pytest

from crofton.cli import main
from crofton.config import Config, load_config, resolve_body, resolve_measure
from crofton.errors import ConfigError
from crofton.geometry import box, centered_square
from crofton.measure import kappa_total
from crofton.svg import render_svg
from crofton.tessellation import Tessellation


class TestConfig:
    def test_round_trip(self):
        cfg = Config(measure="isotropic:1.5", a=3.0, body="ngon:6:0.7", seed=42)
        again = Config.from_dict(cfg.to_dict())
        assert again == cfg
        assert Config.from_dict(again.to_dict()) == again

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            Config.from_dict({"seeed": 1})

    def test_flag_overrides_win(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"a": 3.0, "seed": 1}))
        cfg = load_config(str(p), {"a": 4.0, "seed": None})
        assert cfg.a == 4.0 and cfg.seed == 1

    def test_bad_json_reports_position(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{bad json")
        with pytest.raises(ConfigError, match=r":1:"):
            load_config(str(p), {})

    def test_shape_specs(self):
        assert resolve_body("square:2").close_to(centered_square(2.0))
        assert resolve_body("rect:4x2").close_to(box(-2.0, -1.0, 2.0, 1.0))
        assert resolve_body("ngon:6:1").n_vertices == 6
        assert resolve_body([[0, 0], [1, 0], [0, 1]]).n_vertices == 3
        with pytest.raises(ConfigError):
            resolve_body("blob:1")
        with pytest.raises(ConfigError):
            resolve_body("square:abc")

    def test_measure_specs(self):
        assert resolve_measure("discrete-xy").lambda_of(centered_square(1.0)) == pytest.approx(1.0)
        assert kappa_total(resolve_measure("isotropic:2").kappa) == pytest.approx(2.0)
        m = resolve_measure({"kind": "discrete", "atoms": [[0.0, 0.5], [1.5707963, 0.5]]})
        assert m.lambda_of(centered_square(1.0)) == pytest.approx(1.0, abs=1e-7)
        with pytest.raises(ConfigError):
            resolve_measure("nope")
        with pytest.raises(ConfigError):
            resolve_measure({"kind": "discrete", "atoms": [[0.0, 0.5]]})

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("CROFTON_WORKERS", "3")
        assert Config(workers=1).effective_workers() == 3
        monkeypatch.delenv("CROFTON_WORKERS")
        assert Config(workers=2).effective_workers() == 2


class TestSampleCommands:
    @pytest.mark.parametrize(
        "spec",
        [
            ["stit", "--window", "square:1"],
            ["pht", "--window", "square:2"],
            ["stit", "--measure", "isotropic", "--window", "ngon:6:1"],
            ["pht", "--measure", "isotropic", "--window", "ngon:6:1"],
        ],
        ids=" ".join,
    )
    def test_stit_sample_byte_identical(self, tmp_path, spec):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["sample", *spec, "--t", "1", "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["kind"] == "tessellation"
        assert doc["meta"]["seed"] == 7
        assert doc["meta"]["config"]["t"] == 1.0

    def test_gamma_path_row_count_and_check(self, tmp_path, capsys):
        out = tmp_path / "path.csv"
        rc = main(
            ["sample", "gamma-path", "--a", "2", "--N", "10", "--seed", "3", "--check",
             "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 12  # header + 11 path rows
        meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert meta["seed"] == 3

    @pytest.mark.parametrize("file_data", [None, {"path_length": None}])
    def test_gamma_path_writes_six_csv_steps_by_default_and_says_so(self, tmp_path, capsys, file_data):
        out = tmp_path / "path.csv"
        argv = ["sample", "gamma-path", "--seed", "3", "--out", str(out)]
        if file_data is not None:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(file_data))
            argv += ["--config", str(cfg)]
        assert main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,vertex_count,area,contains_K"
        assert len(lines) == 8  # header + 7 path rows
        meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert meta["config"]["format"] == "csv" and meta["config"]["path_length"] == 6

    @pytest.mark.parametrize(
        "file_format, flag, written",
        [(None, "json", "json"), ("json", None, "json"), ("csv", None, "csv"), ("json", "csv", "csv")],
    )
    def test_gamma_path_format_from_file_or_flag(self, tmp_path, capsys, file_format, flag, written):
        out = tmp_path / "path.out"
        argv = ["sample", "gamma-path", "--N", "3", "--seed", "3", "--out", str(out)]
        if file_format is not None:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"format": file_format}))
            argv += ["--config", str(cfg)]
        if flag is not None:
            argv += ["--format", flag]
        assert main(argv) == 0
        if written == "json":
            doc = json.loads(out.read_text())
            assert doc["kind"] == "zero-cell-path" and len(doc["cells"]) == 4
            meta = doc["meta"]
        else:
            assert len(out.read_text().splitlines()) == 5  # header + 4 path rows
            meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert meta["config"]["format"] == written

    @pytest.mark.parametrize("kind", ["stit", "pht", "zerocell"])
    def test_json_only_kinds_refuse_a_csv_flag(self, tmp_path, capsys, kind):
        out = tmp_path / "x.json"
        assert main(["sample", kind, "--format", "csv", "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"sample {kind} writes JSON only" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["sample", "stit"], ["sample", "zerocell"], ["verify", "q"]], ids=" ".join)
    def test_json_only_commands_refuse_csv_from_a_file(self, tmp_path, capsys, argv):
        cfg, out = tmp_path / "c.json", tmp_path / "x.json"
        cfg.write_text(json.dumps({"format": "csv"}))
        assert main([*argv, "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{' '.join(argv)} writes JSON only" in err
        assert not out.exists()

    def test_json_only_default_run_says_json(self, tmp_path):
        # a default run and an explicit json format from a flag or a file write the same bytes
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"format": "json"}))
        runs = {"default": [], "flag": ["--format", "json"], "file": ["--config", str(cfg)]}
        blobs = {}
        for name, extra in runs.items():
            out = tmp_path / f"{name}.json"
            assert main(["sample", "zerocell", "--measure", "isotropic", "--seed", "4", *extra,
                         "--out", str(out)]) == 0
            blobs[name] = out.read_bytes()
        assert blobs["flag"] == blobs["default"] == blobs["file"]
        assert json.loads(blobs["default"])["meta"]["config"]["format"] == "json"

    def test_zerocell_axis_measure_is_rectangle(self, tmp_path):
        out = tmp_path / "zc.json"
        assert main(["sample", "zerocell", "--measure", "discrete-xy", "--seed", "5",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "polygon"
        v = np.array(doc["vertices"])
        assert len(v) == 4
        assert len(set(np.round(v[:, 0], 9))) == 2 and len(set(np.round(v[:, 1], 9))) == 2

    def test_pht_sample_with_svg(self, tmp_path):
        out, svg = tmp_path / "t.json", tmp_path / "t.svg"
        assert main(["sample", "pht", "--t", "2", "--window", "square:2", "--seed", "9",
                     "--out", str(out), "--svg", str(svg)]) == 0
        doc = json.loads(out.read_text())
        n_cells = len(doc["cells"])
        assert svg.read_text().count("<polygon") == n_cells

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["sample", "zerocell", "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"cannot write {out}" in err

    def test_seed_required(self, capsys):
        assert main(["sample", "stit", "--window", "square:1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_bad_window_spec(self, capsys):
        assert main(["sample", "stit", "--seed", "1", "--window", "nope:1"]) == 2

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_time_is_a_config_error(self, t, capsys):
        assert main(["sample", "stit", "--t", t, "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite and positive" in err

    def test_simulation_abort_maps_to_exit_3(self, monkeypatch, capsys):
        import crofton.cli as cli_mod
        from crofton.errors import SimulationAbort

        def boom(*a, **k):
            raise SimulationAbort("jump cap")

        monkeypatch.setattr(cli_mod, "stit_run", boom)
        assert main(["sample", "stit", "--seed", "1"]) == 3
        assert "abort" in capsys.readouterr().err


class TestAnalyticCommand:
    def test_q_values(self, capsys):
        assert main(["analytic", "q", "--lambda", "1", "--a", "2", "--n", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["0.606530659713", "0.472366552741", "0.416862019679"]

    def test_rho(self, capsys):
        assert main(["analytic", "rho", "--lambda", "1"]) == 0
        assert capsys.readouterr().out.strip() == "2.718281828459"

    def test_p_values(self, capsys):
        assert main(["analytic", "p", "--lambda", "1", "--a", "2", "--n", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["0.606530659713", "0.104487111570", "0.066982586107"]

    def test_delay_and_conditional(self, capsys):
        assert main(["analytic", "delay", "--lambda", "1", "--a", "2", "--n", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("spanning[1] 0.223130160148")
        assert out[1].startswith("forward[0] 0.367879441171")
        # the default truncation holds 400 terms, so --n 399 is the last index it can print
        assert main(["analytic", "delay", "--lambda", "1", "--n", "399"]) == 0
        assert capsys.readouterr().out.strip().splitlines()[-1].startswith("forward[399] ")
        assert main(["analytic", "conditional", "--lambda", "1", "--a", "2",
                     "--sizes", "2,1"]) == 0
        assert capsys.readouterr().out.strip() == "0.144749281023"

    def test_delay_grows_the_truncation(self, capsys):
        # tail mass 1.1e-7 at the default 400 terms; the truncation doubles instead of failing
        assert main(["analytic", "delay", "--lambda", "3", "--n", "0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [f"forward[0] {math.exp(-3.0):.12f}"]

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["--lambda", "1", "--n", "400"], "truncation at N = 400"),
            # the truncation has doubled up to its cap and the tail is still too heavy
            (["--lambda", "8"], "largest truncation N = 51200"),
            (["--lambda", "1", "--n", "-1"], "--n -1 must be >= 0"),
        ],
    )
    def test_delay_refusals_are_config_errors(self, argv, fragment, capsys):
        assert main(["analytic", "delay", *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and fragment in err

    def test_csv_format(self, capsys):
        assert main(["analytic", "q", "--lambda", "1", "--a", "2", "--n", "2",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "index,value"
        assert out[1] == "1,0.606530659713"


class TestRenderCommand:
    def test_grid_of_100_cells(self, tmp_path):
        cells = [box(i, j, i + 1, j + 1) for i in range(10) for j in range(10)]
        tess = Tessellation(box(0, 0, 10, 10), tuple(cells))
        geom = tmp_path / "g.json"
        geom.write_text(json.dumps(tess.to_json()))
        out = tmp_path / "g.svg"
        assert main(["render", "--input", str(geom), "--out", str(out)]) == 0
        assert out.read_text().count("<polygon") == 100

    def test_same_input_same_bytes(self, tmp_path):
        tess = Tessellation(box(0, 0, 2, 1), (box(0, 0, 1, 1), box(1, 0, 2, 1)))
        assert render_svg(tess) == render_svg(tess)

    def test_trivial_tessellation_single_polygon(self):
        w = centered_square(1.0)
        svg = render_svg(Tessellation(w, (w,)))
        assert svg.count("<polygon") == 1
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')

    def test_zero_cell_path_nested_outlines(self, tmp_path):
        from crofton.measure import discrete_xy
        from crofton.rng import substream
        from crofton.zero_cell import sample_gamma_path

        path = sample_gamma_path(discrete_xy(), 2.0, 5, substream(70, 0))
        svg = render_svg(path)
        assert svg.count("<polygon") == 6
        doc = {"kind": "zero-cell-path", "a": 2.0, "cells": [c.to_json() for c in path.cells]}
        geom = tmp_path / "p.json"
        geom.write_text(json.dumps(doc))
        out = tmp_path / "p.svg"
        assert main(["render", "--input", str(geom), "--out", str(out)]) == 0
        assert out.read_text() == svg

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "blob"},
            [1, 2],
            {"kind": "zero-cell-path"},
            # one unit cell in a 2x2 window: the cells do not cover it
            {"kind": "tessellation", "window": box(0, 0, 2, 2).to_json(),
             "cells": [box(0, 0, 1, 1).to_json()]},
        ],
        ids=["unknown-kind", "top-level-list", "missing-key", "uncovered-window"],
    )
    def test_unknown_kind_rejected(self, doc, tmp_path, capsys):
        geom = tmp_path / "g.json"
        geom.write_text(json.dumps(doc))
        assert main(["render", "--input", str(geom), "--out", str(tmp_path / "o.svg")]) == 2
        assert capsys.readouterr().err.count("\n") == 1


class TestVerifyCommand:
    def test_verify_q_small(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        rc = main(["verify", "q", "--seed", "7", "--reps", "20000", "--n", "1..2",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["target"] == "q"
        assert doc["report"]["passed"] is True
        assert doc["meta"]["config"]["seed"] == 7
        assert "PASS" in capsys.readouterr().out

    def test_verify_report_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "q", "--seed", "11", "--reps", "8000", "--n", "1..1"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_statistical_failure_maps_to_exit_1(self, monkeypatch, tmp_path):
        import crofton.cli as cli_mod
        from crofton.verify import VerifyReport

        failed = VerifyReport("q", False, [{"seed": 1, "passed": False, "evidence": []}])
        monkeypatch.setitem(cli_mod.VERIFY_TARGETS, "q", lambda **kw: failed)
        rc = main(["verify", "q", "--seed", "1", "--out", str(tmp_path / "r.json")])
        assert rc == 1

    def test_unwritable_output_is_refused_before_simulating(self, monkeypatch, tmp_path, capsys):
        import crofton.cli as cli_mod

        calls = []

        def stub(*a, **kw):
            calls.append(kw)
            raise AssertionError("simulated before checking the output")

        monkeypatch.setitem(cli_mod.VERIFY_TARGETS, "q", stub)
        monkeypatch.setattr(cli_mod, "sample_zero_cell", stub)
        out = tmp_path / "missing" / "r.json"
        for argv in (["verify", "q", "--reps", "100000", "--seed", "5", "--out", str(out)],
                     ["sample", "zerocell", "--seed", "5", "--svg", str(out)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"cannot write {out}" in err
        assert calls == []

    def test_config_values_reach_the_target(self, monkeypatch, tmp_path):
        import crofton.cli as cli_mod
        from crofton.verify import VERIFY_TARGETS, VerifyReport

        calls = []

        def stub(**kw):
            calls.append(kw)
            return VerifyReport("stub", True, [{"seed": kw["seed"], "passed": True, "evidence": []}])

        for target in VERIFY_TARGETS:
            monkeypatch.setitem(cli_mod.VERIFY_TARGETS, target, stub)
        monkeypatch.delenv("CROFTON_WORKERS", raising=False)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"replications": 2000, "path_length": 80, "t": 3.0}))
        out = tmp_path / "r.json"
        # every flag on every target: each gets the values its signature declares, and no other
        flags = ["--seed", "1", "--config", str(cfg), "--measure", "isotropic", "--body", "square:2",
                 "--a", "3", "--workers", "2", "--n", "1..2", "--max-gap", "4", "--out", str(out)]
        paths = {"seed", "measure", "body", "a", "workers", "replications"}
        expected = {
            "q": paths | {"ns"},
            "p": paths | {"path_length", "max_gap"},
            "renewal": paths | {"path_length"},
            "conditional": paths,
            "ergodic": {"seed", "measure", "body", "a", "path_length"},
            "scaling": {"seed", "measure", "replications"},
            "stit-vs-pht": {"seed", "measure", "replications"},
            # the config's t does not feed the nesting law's times
            "nesting-law": {"seed", "measure", "body", "replications"},
        }
        assert set(expected) == set(VERIFY_TARGETS)
        values = {"seed": 1, "measure": resolve_measure("isotropic"), "a": 3.0, "workers": 2,
                  "replications": 2000, "path_length": 80, "ns": (1, 2), "max_gap": 4}
        for target, names in expected.items():
            assert main(["verify", target, *flags]) == 0
            kw = calls[-1]
            assert set(kw) == names, target
            assert all(kw[k] == v for k, v in values.items() if k in names), target
            assert "body" not in names or kw["body"].close_to(resolve_body("square:2"))
        meta = json.loads(out.read_text())["meta"]["config"]
        assert meta["replications"] == 2000 and meta["path_length"] == 80
        assert main(["verify", "p", "--seed", "1", "--config", str(cfg), "--reps", "300",
                     "--out", str(out)]) == 0
        assert calls[-1]["replications"] == 300 and calls[-1]["path_length"] == 80
        # without a file or flag the target keeps its own defaults, and the report says null
        assert main(["verify", "p", "--seed", "1", "--out", str(out)]) == 0
        assert "replications" not in calls[-1] and "path_length" not in calls[-1]
        meta = json.loads(out.read_text())["meta"]["config"]
        assert meta["replications"] is None and meta["path_length"] is None

    @pytest.mark.parametrize("spec", ["3..1", "x", "1..x", "1.."])
    def test_bad_index_range_is_a_config_error(self, spec, tmp_path, capsys):
        assert main(["verify", "q", "--n", spec, "--seed", "1", "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--n {spec!r} must be an index N or a nonempty range LO..HI" in err

    def test_renewal_with_a_heavy_tail_is_refused(self, tmp_path, capsys):
        # lambda = 3: the gap mass beyond the censor (6.18) dwarfs any reachable stderr,
        # so the run is refused before it simulates instead of reporting a certain FAIL
        out = tmp_path / "r.json"
        rc = main(["verify", "renewal", "--body", "square:3", "--seed", "2", "--out", str(out)])
        assert rc == 2
        assert "censor bias bound 6.18" in capsys.readouterr().err
        assert not out.exists()
        # lambda = 2: 0.139 beyond the censor against 0.1 x 0.039 expected, also a certain FAIL
        assert main(["verify", "renewal", "--body", "square:2", "--seed", "2", "--out", str(out)]) == 2

    def test_nesting_law_target_wiring(self, tmp_path):
        out = tmp_path / "n.json"
        rc = main(["verify", "nesting-law", "--seed", "3", "--reps", "2000",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["report"]["target"] == "nesting-law"

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "crofton.cli", "analytic", "rho", "--lambda", "0.5"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"{math.exp(0.5):.12f}"


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is the tests' independent reference
    code = (
        "import sys, crofton, crofton.cli\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
