"""Stream pins: the SHA-256 of the `--out` bytes of a few small runs.

Each run draws from one seeded stream, so its bytes change when a draw, a clip
order or a float of the splitting or zero-cell code changes. A change that
alters a stream on purpose updates its pin here and records the change, with
the reason, in CHANGES.md; an unintended change shows as a failure here, long
before thousands of redrawn statistical verdicts would show it. The pins were
taken with numpy 2.4 and glibc's libm on x86-64 Linux; another libm may round
a cosine differently and so change the bytes.
"""
import hashlib

import pytest

from crofton.cli import main

PINS = {
    "nesting-law-isotropic": (
        ["verify", "nesting-law", "--measure", "isotropic", "--reps", "20", "--seed", "1", "--workers", "1"],
        "145f2403681debf5646dcf95de77bda8d979de446079e32cc811ef590952db5f",
    ),
    "stit-vs-pht-discrete-xy": (
        ["verify", "stit-vs-pht", "--measure", "discrete-xy", "--reps", "20", "--seed", "2", "--workers", "1"],
        "7828c7ac3199dcc71edb5f9701a7b6301cc5b238b47bfc28b54ae433d33f19c3",
    ),
    "sample-stit-isotropic": (
        ["sample", "stit", "--measure", "isotropic", "--window", "square:2", "--t", "3", "--seed", "3"],
        "008b0ecfee05d421f2b801f687aafdf3823a177c239b86ef3a93855a16553edf",
    ),
    "sample-zerocell-isotropic": (
        ["sample", "zerocell", "--measure", "isotropic", "--seed", "4"],
        "cd813b03f7b39c5d13151785a45f42d4f01fbeec24d0d5dfcd1bbd0ecb10984c",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_out_bytes_match_the_pin(name, tmp_path, capsys):
    argv, pin = PINS[name]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == pin
