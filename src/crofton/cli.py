"""Command-line front end: sample, verify, analytic, render.

Exit codes: 0 success, 1 statistical verification failure, 2 configuration
error, 3 simulation abort (radius or jump cap). Every report echoes the
resolved configuration, the seed, and the generator family, so any run can be
reproduced bit for bit.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys
from dataclasses import replace

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


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w") as f:
            f.write(text)


def _write_svg(obj, svg_path: str | None) -> None:
    if svg_path:
        with open(svg_path, "w") as f:
            f.write(render_svg(obj))


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
        },
    )
    seed = cfg.require_seed()
    if args.kind == "gamma-path" and cfg.path_length is None:
        cfg = replace(cfg, path_length=6)
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

    if args.kind == "gamma-path":
        body = resolve_body(cfg.body)
        path = sample_gamma_path(measure, cfg.a, cfg.path_length, rng)
        if args.check:
            path.validate()
        fmt = args.format or ("csv" if cfg.format == "json" else cfg.format)
        if fmt == "csv":
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

    raise ConfigError(f"unknown sample kind {args.kind!r}")


# ---------------------------------------------------------------------------
# verify


def _parse_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return (int(text),)


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
    seed = cfg.require_seed()
    measure = resolve_measure(cfg.measure)
    body = resolve_body(cfg.body)
    workers = cfg.effective_workers()

    target = args.target
    fn = VERIFY_TARGETS[target]
    kwargs: dict = {"seed": seed}
    if target in ("q", "p", "renewal", "conditional", "ergodic", "nesting-law"):
        kwargs["body"] = body
    # replications and path_length come from the file or a flag; None keeps the target's default
    if target in ("q", "p", "renewal", "conditional"):
        kwargs.update(measure=measure, a=cfg.a, workers=workers)
        if cfg.replications is not None:
            kwargs["replications"] = cfg.replications
    if target == "q" and args.n is not None:
        kwargs["ns"] = _parse_range(args.n)
    if target == "p" and args.max_gap is not None:
        kwargs["max_gap"] = args.max_gap
    if target == "ergodic":
        kwargs.update(measure=measure, a=cfg.a)
    if target in ("p", "renewal", "ergodic") and cfg.path_length is not None:
        kwargs["path_length"] = cfg.path_length
    if target in ("scaling", "stit-vs-pht", "nesting-law"):
        kwargs["measure"] = measure
        if cfg.replications is not None:
            kwargs["n"] = cfg.replications

    report = fn(**kwargs)
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
        law = stationary_delay(p_vector(params))
        k = args.n
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
    kind = data.get("kind")
    if kind == "tessellation":
        obj = Tessellation.from_json(data)
    elif kind == "polygon":
        obj = ConvexPolygon.from_json(data["vertices"])
    elif kind == "zero-cell-path":
        obj = ZeroCellPath(
            float(data["a"]), tuple(ConvexPolygon.from_json(c) for c in data["cells"])
        )
    else:
        raise ConfigError(f"unknown geometry kind {kind!r}")
    with open(args.out, "w") as f:
        f.write(render_svg(obj))
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
