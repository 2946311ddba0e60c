"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stock-table --seed 1 \
        --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it is a JSON object with provenance, sample counts and
summaries; both are also written under ``perfbench/out/``.

The program is imported from ``src/`` of the current directory; the
run fails (exit code 2, no result) when that source tree is missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import harness

WORKLOAD_NAMES = ("stock-table", "adult-scale", "sparse-claims",
                  "serve-stream")


def _seed(text: str) -> int:
    """A non-negative integer: NumPy generators reject negative seeds."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="only time set-up in this interpreter (used "
                             "by the benchmark itself for repeat samples)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {source / 'repro'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    if args.probe_setup:
        try:
            setup_s = harness.probe_setup(args.workload, args.seed)
        finally:
            harness.stop_children()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    # Locate the package without importing it: importing is set-up work.
    origin = importlib.util.find_spec("repro").origin
    if Path(origin).resolve() != (source / "repro" / "__init__.py").resolve():
        print(f"error: repro resolves to {origin}, not to {source}",
              file=sys.stderr)
        return 2
    try:
        report = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            root=root, out_dir=Path(__file__).resolve().parent / "out")
    finally:
        harness.stop_children()
    print(json.dumps(report["detail"], default=str))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
