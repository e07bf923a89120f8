"""Shared plumbing of the benchmark: statistics, failure accounting, the
measurement window, child processes and the result line.

Nothing here imports the ``repro`` package, so the self-tests can exercise
it without the program under test.
"""

from __future__ import annotations

import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout root (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for caches, service databases and model pickles; removed
#: at the end of every run and listed in the root ``.gitignore``.
WORK_ROOT = ROOT / ".perfbench-work"

#: Samples that must lie beyond a high percentile before it is reported.
MIN_TAIL_SAMPLES = 10

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


# -- statistics ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """The median; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median.

    Uses :func:`statistics.quantiles` with ``n=4`` (the ``exclusive``
    method), which is how the benchmark's steadiness is judged.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def _rank(n: int, pct: float) -> int:
    # Rounded first so that 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` % at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return float(sorted(values)[_rank(len(values), pct) - 1])


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``pct`` percentile."""
    return n - _rank(n, pct)


def tail_percentile(
    values: Sequence[float], candidates: Iterable[float] = (99.9, 99.0, 90.0)
) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ``MIN_TAIL_SAMPLES`` samples beyond it.

    Returns ``(pct, value)``, or ``None`` when even the lowest candidate
    has fewer samples beyond it -- a tail estimated from fewer samples is
    not reported at all.
    """
    for pct in sorted(candidates, reverse=True):
        if samples_beyond(len(values), pct) >= MIN_TAIL_SAMPLES:
            return pct, percentile(values, pct)
    return None


# -- failure accounting -------------------------------------------------------------------


class Tally:
    """Attempted and failed operations of one run, with the failure causes.

    An operation fails when it raises, times out or produces a wrong
    output; only the last kind makes the run's outputs incorrect.  No
    failure ever aborts the run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.causes: Counter = Counter()

    def ok(self) -> None:
        self.attempted += 1

    def error(self, cause: str) -> None:
        """The operation raised or timed out."""
        self.attempted += 1
        self.failed += 1
        self.causes[cause] += 1

    def wrong(self, cause: str) -> None:
        """The operation finished but its output failed a check."""
        self.error(cause)
        self.correct = False

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def exception_cause(error: BaseException) -> str:
    """A short, stable label for a failure cause: type plus first message line."""
    message = str(error).splitlines()[0] if str(error) else ""
    return f"{type(error).__name__}: {message}"[:120]


@dataclass
class Measured:
    """What a workload hands back to ``run.py``."""

    tally: Tally
    setup_s: List[float]
    op_s: List[float]  # wall times of the completed untraced operations
    window_s: float
    throughput_s: float  # time base of the completed-per-second note
    peak_rss_mb: float
    quality: Dict[str, float]
    layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    # Traced runs only: the same operations at the reference host speed.
    ref_op_s: List[float] = field(default_factory=list)

    @property
    def host_slowdown(self) -> float:
        """Median of measured over reference-speed operation time (1 when not sampled)."""
        if not self.ref_op_s:
            return 1.0
        return median([raw / ref for raw, ref in zip(self.op_s, self.ref_op_s)])


def failed_setup(tally: Tally, error: BaseException, elapsed_s: float) -> Measured:
    """The result of a run whose set-up failed: one failed operation, nothing timed.

    ``elapsed_s`` -- the time set-up ran before it failed -- stands in for
    ``setup_s`` and the window, so the run still prints its result line.
    """
    tally.error(f"set-up: {exception_cause(error)}")
    return Measured(
        tally=tally,
        setup_s=[elapsed_s],
        op_s=[],
        window_s=elapsed_s,
        throughput_s=elapsed_s,
        peak_rss_mb=peak_rss_mb_self(),
        quality={},
        notes=[f"set-up failed after {elapsed_s:.1f} s; no operation ran"],
    )


# -- host speed ---------------------------------------------------------------------------

#: Iterations of the speed probe's fixed pure-Python loop.
PROBE_ITERATIONS = 20_000

#: Seconds between speed probes while an operation runs.
PROBE_INTERVAL_S = 0.2

#: The probe's duration at the reference host speed.
PROBE_REFERENCE_S = 0.0015


class SpeedSampler:
    """Samples the host's speed while an in-process operation runs.

    A diagnostic of traced runs only; the gated metrics are times as
    measured.  A ``SIGALRM`` timer interrupts the operation every
    :data:`PROBE_INTERVAL_S` seconds and times a fixed pure-Python loop
    in the same thread, so the samples see the speed the operation saw.
    :meth:`reference_seconds` rescales the operation's time, without the
    probes' own time, to the speed at which the probe takes
    :data:`PROBE_REFERENCE_S`.  The rescaled time misreads operations
    whose main thread waits on other threads or processes.  Main thread
    only.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    def _probe(self, signum, frame) -> None:
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        """Mean probe time over the reference: above 1 on a slow host."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / PROBE_REFERENCE_S

    def reference_seconds(self, wall_seconds: float) -> float:
        return (wall_seconds - self.spent) / self.slowdown


# -- the measurement window ---------------------------------------------------------------


def run_window(
    seconds: float,
    operation: Callable[[int], bool],
    max_attempts: int = 4,
    hard_limit: float = 90.0,
) -> Tuple[int, float]:
    """Call ``operation(0), operation(1), ...`` for about ``seconds`` seconds.

    ``operation`` returns whether it completed (raised or timed-out
    operations did not).  The next operation starts only while it is
    expected to finish inside the window, judged by the previous one's
    duration, so a run lasts about ``seconds`` whatever an operation
    costs.  Until one operation has completed, up to ``max_attempts`` run
    regardless of the window, so a run that meets a failing scenario seed
    still times a complete operation; none starts after ``hard_limit``
    seconds.  Returns the number of operations and the window's length.
    """
    start = time.perf_counter()
    index = 0
    completed = False
    while True:
        began = time.perf_counter()
        completed = operation(index) or completed
        index += 1
        now = time.perf_counter()
        fits = (now - start) + (now - began) <= seconds
        retry = not completed and index < max_attempts
        if now - start >= hard_limit or not (fits or retry):
            return index, now - start


def scenario_seed(seed: int, index: int) -> int:
    """The scenario seed of operation ``index`` in a run with workload seed ``seed``.

    Plain arithmetic, never filtered by outcome, so any seed the program
    fails on shows up as a failure.
    """
    return 1000 * seed + index


# -- work directory and child processes ---------------------------------------------------


class Children:
    """Child processes of one run; every one is stopped and reaped on exit."""

    def __init__(self) -> None:
        self._processes: List[subprocess.Popen] = []

    def popen(self, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        # A new session lets stop() reach grandchildren (service workers).
        process = subprocess.Popen(list(argv), start_new_session=True, **kwargs)
        self._processes.append(process)
        return process

    def stop(self, process: subprocess.Popen, grace: float = 15.0) -> None:
        """SIGTERM the child's process group, then SIGKILL it after ``grace`` s."""
        if process.poll() is None:
            _signal_group(process, signal.SIGTERM)
            try:
                process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
        # Kill stragglers in the group even when the leader already exited,
        # and wait until the group is gone.
        _signal_group(process, signal.SIGKILL)
        process.wait()
        deadline = time.monotonic() + 5.0
        while _signal_group(process, 0) and time.monotonic() < deadline:
            time.sleep(0.02)
        for stream in (process.stdout, process.stderr):
            if stream is not None:
                stream.close()
        if process in self._processes:
            self._processes.remove(process)

    def stop_all(self) -> None:
        for process in list(self._processes):
            self.stop(process, grace=5.0)


def read_line(process: subprocess.Popen, timeout: float) -> bytes:
    """The child's first line of standard output, read within ``timeout`` seconds.

    Reads the pipe unbuffered (a line is all the caller ever reads) and
    raises ``TimeoutError`` when the line does not arrive in time; the
    caller's :class:`Children` stops the child.  Returns what was read
    when the child closes its output first.
    """
    fd = process.stdout.fileno()
    data = b""
    deadline = time.monotonic() + timeout
    while not data.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise TimeoutError(f"no output line from {process.args[0]} within {timeout:.0f} s")
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        data += chunk
    return data


def _signal_group(process: subprocess.Popen, signum: int) -> bool:
    """Signal the child's process group; ``False`` once the group is gone."""
    try:
        os.killpg(process.pid, signum)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def child_env() -> Dict[str, str]:
    """Environment of child Python processes: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_work_dir(workload: str) -> Path:
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only succeeds once no concurrent run uses it
    except OSError:
        pass


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_tree(pid: int) -> float:
    """Largest peak resident memory (``VmHWM``) in the process tree under ``pid``."""
    peak = 0.0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024.0)
            with open(f"/proc/{current}/task/{current}/children", encoding="ascii") as handle:
                pending.extend(int(child) for child in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return peak


# -- the result line ----------------------------------------------------------------------


def load_benchmark_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def emit(
    tally: Tally,
    values: Dict[str, float],
    spec: Sequence[Dict[str, str]],
    notes: Sequence[str] = (),
) -> None:
    """Print the human-readable table, then the JSON result as the last line.

    ``spec`` is the ``end_to_end`` or ``per_layer`` list of
    ``BENCHMARK.json``; every metric it names must be in ``values``.
    Values it does not name (layers only the workloads outside
    ``BENCHMARK.json`` enter) are printed in the table but left out of
    the JSON result.
    """
    missing = [metric["name"] for metric in spec if metric["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    for note in notes:
        print(note)
    for metric in spec:
        print(f"  {metric['name']:<46} {values[metric['name']]:>14.6g} {metric['unit']}")
    named = {metric["name"] for metric in spec}
    for name in sorted(set(values) - named):
        print(f"  {name:<46} {values[name]:>14.6g} (not in BENCHMARK.json)")
    print(f"  attempted {tally.attempted}, failed {tally.failed}, "
          f"fail_ratio {tally.fail_ratio:.4f}, correct {tally.correct}")
    for cause, count in sorted(tally.causes.items()):
        print(f"  failure x{count}: {cause}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric["name"]: {"value": float(values[metric["name"]]), "unit": metric["unit"]}
            for metric in spec
        },
    }
    sys.stdout.flush()
    print(json.dumps(result, allow_nan=False), flush=True)
