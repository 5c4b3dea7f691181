"""Command-line front end: sample, verify, analytic, render.

Exit codes: 0 success, 1 statistical verification failure, 2 configuration
error, 3 simulation abort (radius or jump cap). Every report echoes the
resolved configuration, the seed, and the generator family, so any run can be
reproduced bit for bit.
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import io
import json
import math
import sys

from .config import Config, load_config, resolve_body, resolve_measure
from .errors import ConfigError, SimulationAbort
from .geometry import ConvexPolygon
from .renewal import (
    RegenParams,
    conditional_pattern_prob,
    p_by_renewal_recursion,
    p_vector,
    q_vector,
    stationary_delay,
)
from .rng import GENERATOR_FAMILY, master_stream
from .svg import render_svg
from .tessellation import Tessellation, pht_run, stit_run
from .verify import VERIFY_TARGETS
from .zero_cell import (
    ZeroCellPath,
    sample_gamma_path,
    sample_zero_cell,
    write_path_csv,
)

_JSON_KW = {"sort_keys": True, "indent": 1}
# read once at import: a traced benchmark run later rebinds targets to (*args, **kwargs) wrappers
_TARGET_PARAMS = {name: frozenset(inspect.signature(fn).parameters) for name, fn in VERIFY_TARGETS.items()}


def _meta(command: str, cfg: Config) -> dict:
    resolved = cfg.to_dict()
    # output destinations and worker counts do not affect content and must not
    # break byte-identity across repeated or differently-parallelized runs
    for key in ("out", "svg", "workers"):
        resolved.pop(key, None)
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return {
        "command": command,
        "config": resolved,
        "seed": cfg.seed,
        "generator": GENERATOR_FAMILY,
        "spec_digest": hashlib.sha256(blob.encode()).hexdigest()[:16],
    }


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _write_file(out_path, text)


def _write_svg(obj, svg_path: str | None) -> None:
    if svg_path:
        _write_file(svg_path, render_svg(obj))


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args) -> int:
    cfg = load_config(
        args.config,
        {
            "measure": args.measure,
            "a": args.a,
            "body": args.body,
            "window": args.window,
            "t": args.t,
            "seed": args.seed,
            "path_length": args.n,
            "out": args.out,
            "svg": args.svg,
            "format": args.format,
        },
        # gamma-path writes 6 steps as CSV unless a config file or a flag says otherwise
        defaults={"format": "csv", "path_length": 6} if args.kind == "gamma-path" else None,
    )
    if args.kind != "gamma-path" and cfg.format != "json":
        raise ConfigError(f"sample {args.kind} writes JSON only, not {cfg.format}")
    seed = cfg.require_seed()
    measure = resolve_measure(cfg.measure)
    rng = master_stream(seed)
    meta = _meta(f"sample {args.kind}", cfg)

    if args.kind in ("stit", "pht"):
        window = resolve_body(cfg.window)
        run = stit_run if args.kind == "stit" else pht_run
        tess = run(measure, window, cfg.t, rng)
        doc = tess.to_json()
        doc["meta"] = meta
        _emit(json.dumps(doc, **_JSON_KW), cfg.out)
        _write_svg(tess, cfg.svg)
        return 0

    if args.kind == "zerocell":
        cell = sample_zero_cell(measure, rng, cfg.t)
        doc = {"kind": "polygon", "vertices": cell.to_json(), "meta": meta}
        _emit(json.dumps(doc, **_JSON_KW), cfg.out)
        _write_svg(cell, cfg.svg)
        return 0

    body = resolve_body(cfg.body)
    path = sample_gamma_path(measure, cfg.a, cfg.path_length, rng)
    if args.check:
        path.validate()
    if cfg.format == "csv":
        buf = io.StringIO()
        write_path_csv(path, buf, body)
        _emit(buf.getvalue(), cfg.out)
        sys.stdout.write(json.dumps(meta, sort_keys=True) + "\n")
    else:
        doc = {
            "kind": "zero-cell-path",
            "a": path.a,
            "cells": [c.to_json() for c in path.cells],
            "meta": meta,
        }
        _emit(json.dumps(doc, **_JSON_KW), cfg.out)
    _write_svg(path, cfg.svg)
    return 0


# ---------------------------------------------------------------------------
# verify


def _parse_range(text: str):
    lo, sep, hi = text.partition("..")
    try:
        ns = tuple(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        ns = ()
    if not ns:
        raise ConfigError(f"--n {text!r} must be an index N or a nonempty range LO..HI")
    return ns


def cmd_verify(args) -> int:
    cfg = load_config(
        args.config,
        {
            "measure": args.measure,
            "a": args.a,
            "body": args.body,
            "seed": args.seed,
            "replications": args.reps,
            "path_length": args.path_length,
            "workers": args.workers,
            "out": args.out,
        },
    )
    if cfg.format != "json":
        raise ConfigError(f"verify {args.target} writes JSON only, not {cfg.format}")
    seed = cfg.require_seed()
    measure = resolve_measure(cfg.measure)
    body = resolve_body(cfg.body)
    workers = cfg.effective_workers()

    target = args.target
    values = {
        "seed": seed,
        "measure": measure,
        "body": body,
        "a": cfg.a,
        "workers": workers,
        # replications and path_length come from the file or a flag; None keeps the target's default
        "replications": cfg.replications,
        "path_length": cfg.path_length,
        "ns": None if args.n is None else _parse_range(args.n),
        "max_gap": args.max_gap,
    }
    # a value the target does not declare is dropped, not refused: one set of flags serves every target
    params = _TARGET_PARAMS[target]
    report = VERIFY_TARGETS[target](**{k: v for k, v in values.items() if v is not None and k in params})
    doc = {"meta": _meta(f"verify {target}", cfg), "report": report.to_dict()}
    _emit(json.dumps(doc, **_JSON_KW), cfg.out)
    sys.stdout.write(f"verify {target}: {'PASS' if report.passed else 'FAIL'}\n")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# analytic


def _print_values(values, labels, fmt: str, out) -> None:
    if fmt == "csv":
        out.write("index,value\n")
        for k, v in zip(labels, values):
            out.write(f"{k},{v:.12f}\n")
    elif fmt == "json":
        out.write(json.dumps({str(k): round(v, 12) for k, v in zip(labels, values)}, sort_keys=True) + "\n")
    else:
        for v in values:
            out.write(f"{v:.12f}\n")


def cmd_analytic(args) -> int:
    params = RegenParams(args.lam, args.a)
    out = sys.stdout
    if args.target == "q":
        q = q_vector(params, args.n)
        _print_values(q.values, range(1, args.n + 1), args.format, out)
        return 0
    if args.target == "p":
        p = p_by_renewal_recursion(q_vector(params, args.n), args.n)
        _print_values(p.values, range(1, args.n + 1), args.format, out)
        return 0
    if args.target == "rho":
        # the closed form; mean_recurrence(p) recovers it from the p vector to ~1e-12
        _print_values([math.exp(params.lambda_k)], ["rho"], args.format, out)
        return 0
    if args.target == "delay":
        if args.n < 0:
            raise ConfigError(f"--n {args.n} must be >= 0")
        law = stationary_delay(p_vector(params))
        k, n_terms = args.n, len(law.forward)
        if k >= n_terms:
            raise ConfigError(f"--n {k} is past the delay law's truncation at N = {n_terms} terms")
        if args.format == "plain":
            for i in range(1, k + 1):
                out.write(f"spanning[{i}] {law.spanning[i - 1]:.12f}\n")
            for i in range(0, k + 1):
                out.write(f"forward[{i}] {law.forward[i]:.12f}\n")
        else:
            labels = [f"spanning[{i}]" for i in range(1, k + 1)] + [
                f"forward[{i}]" for i in range(0, k + 1)
            ]
            values = [law.spanning[i - 1] for i in range(1, k + 1)] + [
                law.forward[i] for i in range(0, k + 1)
            ]
            _print_values(values, labels, args.format, out)
        return 0
    if args.target == "conditional":
        j, z = (int(v) for v in args.sizes.split(","))
        _print_values([conditional_pattern_prob(params, j, z)], [f"({j},{z})"], args.format, out)
        return 0
    raise ConfigError(f"unknown analytic target {args.target!r}")


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    try:
        with open(args.input) as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read {args.input}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{args.input}:{e.lineno}:{e.colno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{args.input}: expected a geometry object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in ("tessellation", "polygon", "zero-cell-path"):
        raise ConfigError(f"unknown geometry kind {kind!r}")
    try:
        if kind == "tessellation":
            obj = Tessellation.from_json(data)
        elif kind == "polygon":
            obj = ConvexPolygon.from_json(data["vertices"])
        else:
            obj = ZeroCellPath(
                float(data["a"]), tuple(ConvexPolygon.from_json(c) for c in data["cells"])
            )
        svg = render_svg(obj)
    # a missing key, a wrong type, a degenerate polygon, cells that do not tile the window
    except (KeyError, TypeError, ValueError, AssertionError) as e:
        raise ConfigError(f"{args.input}: malformed {kind} ({type(e).__name__}: {e})") from e
    _write_file(args.out, svg)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="crofton",
        description="Random planar tessellations, zero cells, and renewal-law verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample geometry and write JSON/CSV/SVG")
    sp.add_argument("kind", choices=["stit", "pht", "zerocell", "gamma-path"])
    sp.add_argument("--config")
    sp.add_argument("--measure")
    sp.add_argument("--window")
    sp.add_argument("--body")
    sp.add_argument("--a", type=float)
    sp.add_argument("--t", type=float)
    sp.add_argument("--n", "--N", dest="n", type=int, help="path length for gamma-path")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.add_argument("--svg")
    sp.add_argument("--check", action="store_true", help="validate path invariants")
    sp.add_argument("--format", choices=["json", "csv"], help="gamma-path output (default csv)")
    sp.set_defaults(fn=cmd_sample)

    vp = sub.add_parser("verify", help="run a named verification experiment")
    vp.add_argument("target", choices=sorted(VERIFY_TARGETS))
    vp.add_argument("--config")
    vp.add_argument("--measure")
    vp.add_argument("--body")
    vp.add_argument("--a", type=float)
    vp.add_argument("--n", help="index range for q, e.g. 1..5")
    vp.add_argument("--max-gap", dest="max_gap", type=int)
    vp.add_argument("--reps", type=int, help="replications / two-sample size")
    vp.add_argument("--path-length", dest="path_length", type=int)
    vp.add_argument("--workers", type=int)
    vp.add_argument("--seed", type=int)
    vp.add_argument("--out")
    vp.set_defaults(fn=cmd_verify)

    an = sub.add_parser("analytic", help="print closed-form vectors and constants")
    an.add_argument("target", choices=["q", "p", "rho", "delay", "conditional"])
    an.add_argument("--lambda", dest="lam", type=float, required=True)
    an.add_argument("--a", type=float, default=2.0)
    an.add_argument("--n", type=int, default=5)
    an.add_argument("--sizes", default="1,0", help="J,Z sizes for conditional")
    an.add_argument("--format", choices=["plain", "csv", "json"], default="plain")
    an.set_defaults(fn=cmd_analytic)

    rp = sub.add_parser("render", help="render geometry JSON to SVG")
    rp.add_argument("--input", required=True)
    rp.add_argument("--out", required=True)
    rp.set_defaults(fn=cmd_render)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    except SimulationAbort as e:
        sys.stderr.write(f"simulation abort: {e}\n")
        return 3
    except ValueError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
