"""The ``service-smoke`` workload: a closed loop against ``repro serve``.

One generator process runs two client threads against ``repro serve
--workers 1``, started as a child process.  Each client submits a
``fast-smoke`` job with its own seed (vectorised), follows the job's SSE
stream to the ``end`` frame, fetches the report, reads the job row, then
re-submits the same configuration -- a deduplicated hit -- and fetches its
report again.  A client starts its next job only after the previous one
finished and a seeded random think time of up to 0.2 s (closed loop, 2
clients).
"""

from __future__ import annotations

import random
import re
import subprocess
import sys
import threading
import time
import urllib.error
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness

CLIENTS = 2
#: A job that has not reached its ``end`` frame by then counts as failed.
JOB_DEADLINE_S = 30.0
#: Socket timeout; also bounds how long an SSE stream may stay silent.
SOCKET_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 60.0
#: Upper end of a client's uniform think time before each job (the
#: service's claim and SSE poll interval).
THINK_S = 0.2
#: Index of the set-up warm-up job's seed (measured jobs count up from 0).
WARMUP_INDEX = 999

_LISTENING = re.compile(rb"listening on (http://\S+)")


def _overrides(seed: int) -> Dict[str, object]:
    return {"seed": seed, "evaluation": "vectorised"}


@dataclass
class Server:
    process: subprocess.Popen
    url: str


def start_server(cache: Path, children: harness.Children) -> Server:
    """``repro serve --workers 1`` on a free port, once it answers with a worker published."""
    from repro.service.client import ServiceClient

    argv = [sys.executable, "-m", "repro.experiments.cli", "serve", "--port", "0",
            "--workers", "1", "--cache-dir", str(cache), "--log-level", "warning"]
    process = children.popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             env=harness.child_env(), cwd=str(cache.parent))
    match = _LISTENING.search(harness.read_line(process, READY_TIMEOUT_S))
    if match is None:
        raise RuntimeError(f"repro serve did not start (exit {process.poll()})")
    server = Server(process, match.group(1).decode())
    client = ServiceClient(server.url, timeout=SOCKET_TIMEOUT_S)
    client.wait_until_ready(timeout=READY_TIMEOUT_S)
    deadline = time.monotonic() + READY_TIMEOUT_S
    while client.health()["workers"] < 1:
        if time.monotonic() >= deadline:
            raise RuntimeError("repro serve published no worker")
        time.sleep(0.05)
    return server


@dataclass
class Samples:
    """What the client threads record (guarded by ``lock``)."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    next_index: int = 0
    job_s: List[float] = field(default_factory=list)
    api_ms: Dict[str, List[float]] = field(default_factory=dict)
    queue_wait_s: List[float] = field(default_factory=list)
    exec_s: List[float] = field(default_factory=list)
    notify_s: List[float] = field(default_factory=list)
    sse_events: int = 0
    last_done: float = 0.0

    def take_index(self) -> int:
        with self.lock:
            index = self.next_index
            self.next_index += 1
            return index

    def request(self, route: str, seconds: float) -> None:
        with self.lock:
            self.api_ms.setdefault(route, []).append(1000.0 * seconds)


def _timed(samples: Samples, route: str, call, *args):
    started = time.perf_counter()
    result = call(*args)
    samples.request(route, time.perf_counter() - started)
    return result


def one_job(client, seed: int, samples: Samples) -> Tuple[Optional[float], Optional[str], bool]:
    """One submit -> SSE ``end`` -> report round trip plus the dedup hit.

    Returns ``(round-trip seconds or None, failure or None, wrong_output)``.
    """
    from repro.experiments.registry import get_scenario

    expected_hash = get_scenario("fast-smoke").with_overrides(**_overrides(seed)).config_hash()
    started = time.perf_counter()
    deadline = time.monotonic() + JOB_DEADLINE_S
    job = _timed(samples, "submit", client.submit, "fast-smoke", _overrides(seed))
    if not job.get("created") or job["id"] != expected_hash:
        return None, f"submit of a new seed was not a fresh job {expected_hash}", True
    state, events = None, 0
    for event in client.stream_events(job["id"]):
        if event.get("event") == "end":
            state = event["state"]
            break
        events += 1
        if time.monotonic() >= deadline:
            break
    ended_wall = time.time()
    with samples.lock:
        samples.sse_events += events
    if state is None:
        return None, f"no end frame within {JOB_DEADLINE_S:.0f} s", False
    if state != "done":
        row = client.job(job["id"])
        return None, f"job {state}: {_last_error(row)}", False
    report = _timed(samples, "report", client.report, job["id"])
    round_trip = time.perf_counter() - started
    row = _timed(samples, "job", client.job, job["id"])
    dedup = _timed(samples, "dedup_submit", client.submit, "fast-smoke", _overrides(seed))
    again = _timed(samples, "report", client.report, job["id"])
    with samples.lock:
        samples.queue_wait_s.append(row["started_at"] - row["submitted_at"])
        samples.exec_s.append(row["finished_at"] - row["started_at"])
        samples.notify_s.append(ended_wall - row["finished_at"])
    problem = None
    if report.get("config_hash") != expected_hash:
        problem = "report is for another configuration"
    elif not {"circuit", "system", "yield"} <= set(report.get("stages_present", ())):
        problem = f"report lacks stages: {report.get('stages_present')}"
    elif dedup.get("created") or dedup.get("id") != job["id"]:
        problem = "re-submission was not deduplicated onto the finished job"
    elif again.get("summary") != report.get("summary"):
        problem = "deduplicated report differs from the first one"
    if problem is not None:
        return None, problem, True
    return round_trip, None, False


def _last_error(row: dict) -> str:
    error = row.get("error") or ""
    return error.strip().splitlines()[-1][:100] if error.strip() else "no error recorded"


def _client_loop(url: str, seed: int, seconds: float, window_start: float, samples: Samples,
                 tally: harness.Tally, think: random.Random) -> None:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(url, timeout=SOCKET_TIMEOUT_S)
    while True:
        # A random think time puts submissions at random phases of the
        # worker's 0.2 s claim poll, so that the closed loop does not lock
        # onto it.
        time.sleep(think.uniform(0.0, THINK_S))
        began = time.perf_counter()
        job_seed = harness.scenario_seed(seed, samples.take_index())
        try:
            round_trip, problem, wrong = one_job(client, job_seed, samples)
        except (ServiceError, urllib.error.URLError, OSError, KeyError, ValueError) as error:
            round_trip, problem, wrong = None, harness.exception_cause(error), False
        now = time.perf_counter()
        with samples.lock:
            if problem is None:
                tally.ok()
                samples.job_s.append(round_trip)
                samples.last_done = now
            elif wrong:
                tally.wrong(f"seed {job_seed}: {problem}")
            else:
                tally.error(f"seed {job_seed}: {problem}")
        if (now - window_start) + (now - began) > seconds:
            return


def _server_ms_mean(url: str) -> float:
    """Mean server-side handling time of the JSON routes, from ``/v1/metrics``."""
    import urllib.request

    with urllib.request.urlopen(url + "/v1/metrics", timeout=SOCKET_TIMEOUT_S) as response:
        text = response.read().decode("utf-8")
    total = count = 0.0
    for line in text.splitlines():
        if line.startswith("repro_http_request_seconds_") and "/events" not in line:
            name, value = line.rsplit(" ", 1)
            if name.startswith("repro_http_request_seconds_sum"):
                total += float(value)
            elif name.startswith("repro_http_request_seconds_count"):
                count += float(value)
    return 1000.0 * total / count if count else 0.0


def start_warm_server(cache: Path, warmup_seed: int, children: harness.Children) -> Server:
    """:func:`start_server`, then one job round trip, so the worker is warm."""
    from repro.service.client import ServiceClient

    server = start_server(cache, children)
    client = ServiceClient(server.url, timeout=SOCKET_TIMEOUT_S)
    warmup = client.submit("fast-smoke", _overrides(warmup_seed))
    client.wait(warmup["id"], timeout=READY_TIMEOUT_S, poll_interval=0.02)
    return server


def run_service(
    seed: int,
    seconds: float,
    trace: bool,
    children: harness.Children,
    work: Path,
) -> harness.Measured:
    tally = harness.Tally()
    setup_s: List[float] = []
    server: Optional[Server] = None
    warmup_seed = harness.scenario_seed(seed, WARMUP_INDEX)
    for repeat in range(harness.SETUP_REPEATS):
        started = time.perf_counter()
        try:
            candidate = start_warm_server(work / f"service-{repeat}", warmup_seed, children)
        except Exception as error:  # noqa: BLE001 - a failed set-up is counted too
            # Every server started so far is stopped by the caller's Children.
            return harness.failed_setup(tally, error, time.perf_counter() - started)
        setup_s.append(time.perf_counter() - started)
        if server is not None:
            children.stop(server.process)
        server = candidate

    samples = Samples()
    window_start = time.perf_counter()
    threads = [
        threading.Thread(target=_client_loop, daemon=True,
                         args=(server.url, seed, seconds, window_start, samples, tally,
                               random.Random(f"{seed}-{client}")))
        for client in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 3 * JOB_DEADLINE_S)
    if any(thread.is_alive() for thread in threads):
        tally.error("client thread did not finish")
    window_s = time.perf_counter() - window_start
    try:
        server_ms = _server_ms_mean(server.url) if trace else 0.0
    except (urllib.error.URLError, OSError, ValueError) as error:
        tally.error(f"metrics scrape: {harness.exception_cause(error)}")
        server_ms = 0.0
    peak_rss = harness.peak_rss_mb_tree(server.process.pid)
    children.stop(server.process)

    busy_s = (samples.last_done - window_start) if samples.last_done else window_s
    all_api = [v for values in samples.api_ms.values() for v in values]
    tail = harness.tail_percentile(samples.job_s)
    api_tail = harness.tail_percentile(all_api)
    notes = [
        f"service-smoke: {tally.attempted} job(s) from {CLIENTS} closed-loop clients "
        f"in {window_s:.1f} s, {len(all_api)} API requests",
        f"  job round trip tail: "
        + (f"p{tail[0]:g} {tail[1]:.3f} s" if tail else
           f"not reported ({len(samples.job_s)} samples)"),
        f"  API latency tail: "
        + (f"p{api_tail[0]:g} {api_tail[1]:.1f} ms" if api_tail else
           f"not reported ({len(all_api)} samples)"),
    ]
    measured = harness.Measured(
        tally=tally,
        setup_s=setup_s,
        op_s=samples.job_s,
        window_s=window_s,
        throughput_s=busy_s,
        peak_rss_mb=peak_rss,
        quality={"quality.yield_pct_mean": 0.0, "quality.system_hv_mean": 0.0,
                 "quality.verify_err_max": 0.0},
        notes=notes,
    )
    if trace:
        jobs = max(len(samples.job_s), 1)

        def p50(values: List[float]) -> float:
            return harness.median(values) if values else 0.0

        measured.layer = {
            "service.job.queue_wait_s_p50": p50(samples.queue_wait_s),
            "service.job.exec_s_p50": p50(samples.exec_s),
            "service.job.notify_s_p50": p50(samples.notify_s),
            "service.http.api_ms_p50": p50(all_api),
            "service.http.submit_ms_p50": p50(samples.api_ms.get("submit", [])),
            "service.http.dedup_submit_ms_p50": p50(samples.api_ms.get("dedup_submit", [])),
            "service.http.job_ms_p50": p50(samples.api_ms.get("job", [])),
            "service.http.report_ms_p50": p50(samples.api_ms.get("report", [])),
            "service.http.server_ms_mean": server_ms,
            "service.http.requests_per_job": len(all_api) / jobs,
            "service.sse.events_per_job": samples.sse_events / jobs,
            # No wrapper runs inside the service loop: the traced run only
            # reads the job rows and one /v1/metrics scrape after the window.
            "bench.trace_overhead_pct": 0.0,
            "bench.traced_op_s": p50(samples.job_s),
            "bench.unattributed_s": 0.0,
            "bench.runtime_warnings": 0.0,
        }
    return measured
