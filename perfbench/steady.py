"""Check the benchmark's steadiness: run workloads over several seeds.

For each workload, runs ``run.py`` once per seed (untraced), then prints
every end-to-end metric's median and its quartile spread -- the distance
between the first and third quartile as a share of the median -- next to
the metric's bound from ``BENCHMARK.json``.  Usage, from the checkout
root::

    python3 perfbench/steady.py --seeds 1-10 [--workloads table2-vec,...] [--log runs.jsonl]

Exits non-zero when a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--log", default=None, help="append every result line to this file")
    args = parser.parse_args(argv)
    spec = harness.load_benchmark_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    worst = 0
    for workload in workloads:
        values = {metric["name"]: [] for metric in spec["end_to_end"]}
        failed = attempted = incorrect = 0
        longest = 0.0
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, *spec["command"][1:], "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
            started = time.monotonic()
            output = subprocess.run(command, cwd=harness.ROOT, capture_output=True,
                                    text=True, timeout=900, check=True).stdout
            wall_s = time.monotonic() - started
            result = json.loads(output.strip().splitlines()[-1])
            if args.log:
                with open(args.log, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps({"workload": workload, "seed": seed,
                                             "wall_s": wall_s, **result}) + "\n")
            failed += result["failed"]
            incorrect += not result["correct"]
            longest = max(longest, wall_s)
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload}: attempted {attempted}, failed {failed}, "
              f"incorrect runs {incorrect}, longest run {longest:.0f} s")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            center = harness.median(series)
            spread = harness.quartile_spread(series) if center else float("inf")
            flag = ""
            if spread > metric["bound"]:
                flag, worst = "  OVER BOUND", 1
            print(f"  {metric['name']:<14} median {center:10.4g} "
                  f"spread {spread:6.3f} (bound {metric['bound']}){flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
