"""Run one benchmark workload and print its metrics (see ``perfbench/README.md``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table2-vec --seed 3 --seconds 20 --trace 0

The last line of standard output is the JSON result; the lines before it
are the same metrics as a table, plus notes.  ``--trace 1`` makes the
traced run, which reports the per-layer metrics instead.

``BENCHMARK.json`` lists the workloads on which the program completes
every operation.  ``vco-sweep-5-serial`` and ``service-smoke`` run the
same way but are left out of it: the program fails on a share of their
operations (see the README's known defects), and they report it.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = ("table2-vec", "vco-sweep-5-serial", "verify-spice", "service-smoke")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end_values(measured) -> dict:
    op_s = measured.op_s
    return {
        "setup_s": harness.median(measured.setup_s),
        # Without one successful operation the window per attempt stands in.
        "op_s_p50": (harness.median(op_s) if op_s
                     else measured.window_s / max(measured.tally.attempted, 1)),
        "peak_rss_mb": measured.peak_rss_mb,
    }


def per_layer_values(measured, spec) -> dict:
    values = {metric["name"]: 0.0 for metric in spec}  # layers a workload never enters
    values.update(measured.layer)
    values.update(measured.quality)
    values["bench.fail_ratio"] = measured.tally.fail_ratio
    values["bench.op_s_mean"] = mean(measured.op_s)
    values["bench.ref_op_s_mean"] = mean(measured.ref_op_s)
    values["bench.host_slowdown"] = measured.host_slowdown
    return values


def timing_note(measured) -> str:
    if not measured.op_s:
        return "  no operation completed"
    note = (f"  operation time over {len(measured.op_s)} operation(s): "
            f"mean {mean(measured.op_s):.4g} s, median {harness.median(measured.op_s):.4g} s, "
            f"{len(measured.op_s) / measured.throughput_s:.4g} completed per second")
    if not measured.ref_op_s:
        return note
    return (f"{note}; mean at the reference host speed {mean(measured.ref_op_s):.4g} s "
            f"(host slowdown {measured.host_slowdown:.3f})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (harness.ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {harness.ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.ROOT / "src"))
    if args.probe_setup:
        import flows

        flows.probe_setup(args.workload, args.seed, args.out)
        print("READY", flush=True)
        return 0
    spec = harness.load_benchmark_spec()

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    children = harness.Children()
    work = harness.make_work_dir(args.workload)
    try:
        if args.workload == "service-smoke":
            import service

            measured = service.run_service(
                args.seed, args.seconds, bool(args.trace), children, work
            )
        elif args.workload == "verify-spice":
            import flows

            measured = flows.run_verify(args.seed, args.seconds, bool(args.trace), children, work)
        else:
            import flows

            measured = flows.run_flows(
                args.workload, args.seed, args.seconds, bool(args.trace), children, work
            )
    finally:
        children.stop_all()
        harness.remove_work_dir(work)
    measured.notes.append(timing_note(measured))
    if args.trace:
        values = per_layer_values(measured, spec["per_layer"])
        harness.emit(measured.tally, values, spec["per_layer"], measured.notes)
    else:
        harness.emit(measured.tally, end_to_end_values(measured), spec["end_to_end"],
                     measured.notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
