"""Set-up of one fresh benchmark process: import crofton and build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds this took as its last line; run.py starts it several times
and reports the median as `setup_s`.
"""
import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from crofton.cli import build_parser  # noqa: E402
from crofton.config import load_config, resolve_body, resolve_measure  # noqa: E402
from workloads import WORKLOADS, op_seed  # noqa: E402


def build_inputs(name: str, seed: int) -> list:
    """Parsed arguments, resolved measure and body of one cycle of the workload's operations."""
    parser = build_parser()
    inputs = []
    for k, verdict in enumerate(WORKLOADS[name].cycle):
        args = parser.parse_args(verdict.argv(op_seed(name, seed, k), "out.json"))
        cfg = load_config(None, {"measure": args.measure, "body": args.body, "a": args.a, "seed": args.seed})
        inputs.append((args, resolve_measure(cfg.measure), resolve_body(cfg.body)))
    return inputs


if __name__ == "__main__":
    build_inputs(sys.argv[1], int(sys.argv[2]))
    print(time.perf_counter() - t0)
