"""Configuration for the command-line tools: JSON file plus flag overrides (flags win)."""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

from .errors import ConfigError
from .geometry import ConvexPolygon, centered_square, regular_polygon
from .measure import LineMeasure, discrete_xy, isotropic, kappa_from_config

WORKERS_ENV = "CROFTON_WORKERS"


@dataclass(frozen=True)
class Config:
    """Resolved experiment configuration; all fields JSON-representable."""

    measure: object = "discrete-xy"
    a: float = 2.0
    body: object = "square:1"
    window: object = "square:2"
    t: float = 1.0
    # None: the verify target's own default (sample gamma-path: 6 steps)
    replications: int | None = None
    path_length: int | None = None
    seed: int | None = None
    workers: int = 1
    out: str | None = None
    svg: str | None = None
    format: str = "json"

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict, source: str = "config") -> "Config":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{source}: unknown keys {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not (math.isfinite(self.a) and self.a > 1.0):
            raise ConfigError(f"a must exceed 1, got {self.a}")
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise ConfigError(f"t must be finite and positive, got {self.t}")
        if self.replications is not None and self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.path_length is not None and self.path_length < 0:
            raise ConfigError("path_length must be >= 0")
        if self.workers < 0:
            raise ConfigError("workers must be >= 0")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        resolve_measure(self.measure)
        resolve_body(self.body)
        resolve_body(self.window)

    def merged(self, overrides: dict) -> "Config":
        data = self.to_dict()
        data.update({k: v for k, v in overrides.items() if v is not None})
        return Config.from_dict(data, source="flags")

    def require_seed(self) -> int:
        if self.seed is None:
            raise ConfigError("seed is required (wall-clock seeding is not supported)")
        return int(self.seed)

    def effective_workers(self) -> int:
        env = os.environ.get(WORKERS_ENV)
        if env is not None:
            try:
                return max(1, int(env))
            except ValueError as e:
                raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from e
        return max(1, self.workers)


def load_config(path: str | None, overrides: dict, defaults: dict | None = None) -> Config:
    """Config file (optional) merged with non-None flag overrides; refuses unwritable outputs.

    defaults are a command's own values for keys that neither the file nor a flag
    sets; a null in the file counts as unset for them.
    """
    defaults = defaults or {}
    if path is None:
        base = Config(**defaults)
    else:
        try:
            with open(path) as f:
                data = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
        data = {k: v for k, v in data.items() if v is not None or k not in defaults}
        base = Config.from_dict({**defaults, **data}, source=path)
    cfg = base.merged(overrides)
    for out in filter(None, (cfg.out, cfg.svg)):
        if not os.access(os.path.dirname(os.path.abspath(out)), os.W_OK | os.X_OK):
            raise ConfigError(f"cannot write {out}: its directory is missing or not writable")
    return cfg


# ---------------------------------------------------------------------------
# shape and measure specs


def resolve_body(spec) -> ConvexPolygon:
    """Named shape ("square:1", "rect:2x1", "ngon:6:0.5[:phase]") or explicit vertices."""
    if isinstance(spec, ConvexPolygon):
        return spec
    if isinstance(spec, (list, tuple)):
        try:
            return ConvexPolygon(spec)
        except ValueError as e:
            raise ConfigError(f"bad vertex list: {e}") from e
    if not isinstance(spec, str):
        raise ConfigError(f"body/window spec must be a name or vertex list, got {spec!r}")
    parts = spec.split(":")
    try:
        if parts[0] == "square" and len(parts) == 2:
            return centered_square(float(parts[1]))
        if parts[0] == "rect" and len(parts) == 2:
            w, h = (float(v) for v in parts[1].split("x"))
            return ConvexPolygon(
                [(-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2)]
            )
        if parts[0] == "ngon" and len(parts) in (3, 4):
            phase = float(parts[3]) if len(parts) == 4 else 0.0
            return regular_polygon(int(parts[1]), float(parts[2]), phase)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad shape spec {spec!r}: {e}") from e
    raise ConfigError(f"unknown shape spec {spec!r}")


def resolve_measure(spec) -> LineMeasure:
    """Named measure ("discrete-xy", "isotropic[:mass]") or a kind-tagged dict."""
    if isinstance(spec, LineMeasure):
        return spec
    if isinstance(spec, dict):
        try:
            return LineMeasure(kappa_from_config(spec))
        except (KeyError, ValueError, TypeError) as e:
            raise ConfigError(f"bad measure spec: {e}") from e
    if not isinstance(spec, str):
        raise ConfigError(f"measure spec must be a name or dict, got {spec!r}")
    parts = spec.split(":")
    try:
        if parts[0] == "discrete-xy" and len(parts) == 1:
            return discrete_xy()
        if parts[0] == "isotropic" and len(parts) in (1, 2):
            return isotropic(float(parts[1]) if len(parts) == 2 else 1.0)
    except ValueError as e:
        raise ConfigError(f"bad measure spec {spec!r}: {e}") from e
    raise ConfigError(f"unknown measure spec {spec!r}")
