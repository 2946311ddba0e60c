"""Record the stored ``stock-table`` scores the benchmark checks against.

Usage, from the root of a checkout::

    python3 perfbench/record_expected.py --seeds 0-63

For each seed, fits every method as the timed workload does, refits it
on the ``sparse`` backend, and stores the scores only when both agree
exactly.  Rerun it only when a change is meant to alter the scores.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-63",
                        help="generator seeds, e.g. 0-63 or 1,5,9")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    import harness
    import spans
    import workloads

    stock = workloads.StockTable()
    path = workloads.EXPECTED_STOCK
    stored = (json.loads(path.read_text()) if path.is_file()
              else {"scale": 1, "seeds": {}})
    for seed in parse_seeds(args.seeds):
        meter = harness.Meter(spans.NullRecorder())
        inputs = stock.build(seed, 1.0, meter)
        config = stock.prepare(inputs, None)
        scores = stock.body(inputs, meter, None, config)["scores"]
        refit = stock.refit_scores(config)
        problem = workloads.compare_scores(scores, refit, 0)
        if problem or sum(meter.failed.values()):
            print(f"seed {seed}: not stored ({problem or meter.errors})",
                  file=sys.stderr)
            return 1
        stored["seeds"][str(seed)] = scores
        print(f"seed {seed}: stored", flush=True)
    stored["seeds"] = dict(sorted(stored["seeds"].items(),
                                  key=lambda item: int(item[0])))
    path.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
