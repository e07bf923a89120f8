"""Record the ``verify-spice`` reference values that the workload checks against.

For each model seed, builds the ``table2`` combined model exactly as the
workload's set-up does, verifies it on the lane SPICE engine and stores
the measured performances and mean errors in ``recorded.json``.  Run from
the checkout root::

    python3 perfbench/record.py 0 1000 2000 2009

Re-record only when the program's transistor-level results are meant to
change; the workload reports any other difference as a wrong output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import flows  # noqa: E402


def record(seed: int) -> dict:
    from repro.core.flow import HierarchicalFlow

    flow = HierarchicalFlow.from_scenario(flows.verify_scenario(seed))
    model = flow.circuit_stage().model
    report = flow.verification_stage(model, verification_evaluator=flow.spice_evaluator())
    summary = report.summary()
    return {
        "measured": flows.verification_values(report),
        "mean_errors": {name: summary[f"mean_error_{name}"] for name in flows.VERIFIED},
    }


def main(argv=None) -> int:
    seeds = [int(seed) for seed in (argv if argv is not None else sys.argv[1:])]
    recorded = flows.load_recorded()
    for seed in seeds:
        recorded["verify_spice"][str(seed)] = record(seed)
        print(f"model seed {seed}: {recorded['verify_spice'][str(seed)]['mean_errors']}",
              flush=True)
    recorded["verify_spice"] = dict(
        sorted(recorded["verify_spice"].items(), key=lambda item: int(item[0]))
    )
    flows.RECORDED_PATH.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
