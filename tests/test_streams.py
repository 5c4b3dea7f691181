"""Stream pins: the SHA-256 of the `--out` bytes of a few small runs.

Each run draws from one seeded stream, so its bytes change when a draw, a clip
order or a float of the splitting, zero-cell or gauge code changes. A change
that alters a stream on purpose updates its pin here and records the change,
with the reason, in CHANGES.md; an unintended change shows as a failure here,
long before thousands of redrawn statistical verdicts would show it. The pins
were taken with numpy 2.4 and glibc's libm on x86-64 Linux; another libm may
round a cosine differently and so change the bytes.

    PYTHONPATH=src python tests/test_streams.py

prints every pin's name and current digest, marking those that differ from
their pin, so a deliberate stream change copies the new digests into `PINS`
in place of editing them by hand.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from crofton.cli import main

THREE_ATOMS = {"kind": "discrete", "atoms": [[0.0, 0.4], [1.0, 0.7], [2.2, 0.5]]}

# name: (argv, config file contents or None, digest of the --out bytes)
PINS = {
    "nesting-law-isotropic": (
        ["verify", "nesting-law", "--measure", "isotropic", "--reps", "20", "--seed", "1", "--workers", "1"],
        None,
        "145f2403681debf5646dcf95de77bda8d979de446079e32cc811ef590952db5f",
    ),
    "stit-vs-pht-discrete-xy": (
        ["verify", "stit-vs-pht", "--measure", "discrete-xy", "--reps", "20", "--seed", "2", "--workers", "1"],
        None,
        "7828c7ac3199dcc71edb5f9701a7b6301cc5b238b47bfc28b54ae433d33f19c3",
    ),
    "sample-stit-isotropic": (
        ["sample", "stit", "--measure", "isotropic", "--window", "square:2", "--t", "3", "--seed", "3"],
        None,
        "008b0ecfee05d421f2b801f687aafdf3823a177c239b86ef3a93855a16553edf",
    ),
    "sample-zerocell-isotropic": (
        ["sample", "zerocell", "--measure", "isotropic", "--seed", "4"],
        None,
        "cd813b03f7b39c5d13151785a45f42d4f01fbeec24d0d5dfcd1bbd0ecb10984c",
    ),
    # the gauge kernel of general-measure paths: start cells, step cells and one long path
    "q-isotropic": (
        ["verify", "q", "--measure", "isotropic", "--reps", "600", "--seed", "5", "--workers", "1"],
        None,
        "6f3bc4b42729a3f0858245b9f308577d4fcd2c4c37892350c0fce89d8b128daa",
    ),
    "ergodic-isotropic": (
        ["verify", "ergodic", "--measure", "isotropic", "--path-length", "10000", "--seed", "6", "--workers", "1"],
        None,
        "329e280c032f87f98201bfc6fb902e7d060c883ea692f06932d32ab550a158dc",
    ),
    "q-three-atoms": (
        ["verify", "q", "--reps", "600", "--seed", "7", "--workers", "1"],
        {"measure": THREE_ATOMS, "body": "square:0.5"},
        "01fe8f304bc410eafa80e93477baf6c0db6730677dd7648d4b4cfa7d62760d08",
    ),
}


def digest(name: str, workdir: Path) -> str:
    """SHA-256 of the `--out` bytes of the pinned run, which must exit 0."""
    argv, config, _ = PINS[name]
    out = workdir / f"{name}.out"
    if config is not None:
        cfg = workdir / f"{name}.config.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_out_bytes_match_the_pin(name, tmp_path, capsys):
    assert digest(name, tmp_path) == PINS[name][2]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(PINS):
            with contextlib.redirect_stdout(io.StringIO()):
                now = digest(name, Path(tmp))
            flag = "" if now == PINS[name][2] else "  changed"
            sys.stdout.write(f"{name}  {now}{flag}\n")
