"""The ``serve-mixed`` workload: ``repro serve`` driven open-loop over
HTTP.

The daemon runs as a subprocess with its default isolated workers and
a private, empty verdict cache and journal.  One process offers load
at a few fixed rates, one rate after another: a sender thread posts
each request when it is due (Poisson arrivals drawn from the seed) and
a poller thread follows the accepted jobs to completion.  Each uses one
connection at a time, so at most two are open.  Every latency is timed
from the moment the request was due, so a stall in the sender shows in
the requests that queued behind it.  The poller asks after each job
every :data:`POLL_EVERY_S` and never faster than one request per
:data:`POLL_GAP_S` in all, so its own traffic stays small beside the
offered load; ``load.polls_per_s`` reports it.

Most requests repeat a pool of verdicts warmed before measuring (the
daemon answers them from its cache at admission); every
:data:`MISS_EVERY`-th request is a fresh ``check``/``lint``/``analyze``
job that a spawned worker must compute, store and journal.  The share
of fresh jobs is an assumption (no record of real traffic exists);
the rates are set against the daemon's capacity measured for this mix
(see ``README.md``).
"""

from __future__ import annotations

import http.client
import json
import os
import heapq
import queue
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import answers
from harness import (
    Tracer,
    Verdicts,
    at_reference,
    attribute,
    median,
    reference_slice,
    tail,
)

#: Offered rates (requests per second), lowest first.  The nominal one
#: is about a quarter of the daemon's measured capacity for this mix,
#: far enough below it that a queue does not amplify the host's speed
#: swings.
RATES = (4, 8, 72)
#: Share of the measured seconds spent at each rate.
RATE_SHARES = (0.12, 0.76, 0.12)
#: Index of the nominal rate: the gated tail is taken at it, the
#: medians at it and the rates below it.
NOMINAL = 1
#: Every MISS_EVERY-th request is a fresh job (an assumed mix).
MISS_EVERY = 8
#: A rate meets the limit when its tail latency stays under this, no
#: request fails and the backlog is gone this long after the last send.
LIMIT_MS = 1500.0
#: Server spawns per run; setup_s is their median.
SETUPS = 5
#: The daemon's default worker count; warming keeps at most this many
#: jobs in flight, so the warm-up never builds a queue.
WORKERS = 2
#: Each accepted job is polled this long after it was accepted and
#: again this often until it is done.
POLL_EVERY_S = 0.05
#: At most one poll per POLL_GAP_S over all jobs (50 per second).
POLL_GAP_S = 0.02
#: How long a phase may take to drain, and the poller to stop, before
#: the jobs still open are counted as failed.
DRAIN_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 15.0
#: The sender takes a reference slice (the host's speed, see
#: ``harness.reference_slice``) at most this often, and only when the
#: next request is due at least SLICE_ROOM_S later.
SLICE_EVERY_S = 0.25
SLICE_ROOM_S = 0.03
#: A time measured over an interval is scaled by the median of the
#: slices taken from this long before it began to this long after it
#: ended (the host's speed changes within seconds).
SLICE_WINDOW_S = 1.0

#: Verdicts warmed into the cache before measuring; hits repeat these.
POOL = [
    {"kind": "check", "system": name, "params": {"seed": seed}}
    for name in ("rm", "relay", "chain", "peterson", "fischer", "fischer-tight")
    for seed in (0, 1)
] + [
    {"kind": "lint", "system": name}
    for name in ("rm", "relay", "chain", "fischer", "peterson", "tournament")
]

_FRESH_CHECK = ("rm", "relay", "chain", "peterson", "fischer", "fischer-tight")
_FRESH_LINT = ("relay", "chain", "fischer", "peterson", "tournament")
_FRESH_ANALYZE = [
    (name, strict)
    for strict in (False, True)
    for name in ("rm", "relay", "chain", "fischer", "fischer-tight", "peterson", "tournament")
]


def fresh_body(index: int, seed: int) -> Dict[str, object]:
    """The ``index``-th fresh job of a run: never in the pool and never
    repeated within the run.  The kinds cycle in a fixed order, so every
    seed offers the same mix of work."""
    kind = ("check", "lint", "check", "analyze")[index % 4]
    if kind == "analyze" and index // 4 < len(_FRESH_ANALYZE):
        name, strict = _FRESH_ANALYZE[index // 4]
        return {"kind": "analyze", "system": name, "params": {"strict": strict}}
    if kind == "lint":
        return {
            "kind": "lint",
            "system": _FRESH_LINT[index % len(_FRESH_LINT)],
            "params": {"max_states": 5_000 + index},
        }
    return {
        "kind": "check",
        "system": _FRESH_CHECK[index % len(_FRESH_CHECK)],
        "params": {"seed": 1_000 + 1_000 * seed + index},
    }


def schedule(seed: int, seconds: float) -> List[List[Tuple[float, Dict[str, object], bool]]]:
    """Per rate: ``(due offset, body, is_fresh)`` for every request.  A
    rate offers exactly ``rate * duration`` requests at uniformly drawn
    instants (Poisson arrivals conditioned on their count), so every
    seed offers the same amount of work."""
    rng = random.Random(seed)
    phases = []
    count = 0
    fresh = 0
    for rate, share in zip(RATES, RATE_SHARES):
        duration = seconds * share
        offsets = sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))
        phase = []
        for at in offsets:
            count += 1
            if count % MISS_EVERY == 0:
                phase.append((at, fresh_body(fresh, seed), True))
                fresh += 1
            else:
                phase.append((at, POOL[rng.randrange(len(POOL))], False))
        phases.append(phase)
    return phases


def verdict_right(body: Dict[str, object], result: Dict[str, object]) -> bool:
    return bool(result.get("ok")) == answers.expected_ok(str(body["system"]))


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------


def call(address: Tuple[str, int], method: str, path: str,
         body: Optional[Dict[str, object]] = None, timeout: float = 60.0):
    """One request on a fresh connection: ``(status, json body)``."""
    conn = http.client.HTTPConnection(address[0], address[1], timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(
            method, path, body=payload,
            headers={"Content-Type": "application/json", "Connection": "close"},
        )
        response = conn.getresponse()
        data = response.read()
        return response.status, (json.loads(data) if data else {})
    finally:
        conn.close()


class Server:
    """One ``python -m repro serve`` subprocess in its own session, so
    stopping it also stops every worker it spawned."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> float:
        """Spawn and wait for ``/v1/readyz``; returns the seconds taken."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        begun = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--journal", str(self.work / "journal.jsonl"),
                "--backend", "dir:" + str(self.work / "cache"),
                "--seed", str(self.seed),
            ],
            cwd=str(self.root), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("serving on "):
            raise RuntimeError("repro serve did not start: {!r}".format(line))
        host, port = line.split()[2].rsplit(":", 1)
        self.address = (host, int(port))
        while True:
            try:
                status, _ = call(self.address, "GET", "/v1/readyz", timeout=5.0)
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter() - begun
            if time.perf_counter() - begun > 60:
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.002)

    def stop(self) -> None:
        """SIGTERM (a graceful drain), then SIGKILL to the whole session
        if it lingers; always waits for the process."""
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
        if process.stdout is not None:
            process.stdout.close()


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------


class Sample:
    __slots__ = ("phase", "due", "fresh", "latency", "admit", "wall", "refused", "settled")

    def __init__(self, phase: int, due: float, fresh: bool):
        self.phase = phase
        self.due = due
        self.fresh = fresh
        self.latency: Optional[float] = None
        self.admit: Optional[float] = None
        self.wall: Optional[float] = None
        self.refused = False
        #: Set once the sample has its outcome, under the drive lock.
        self.settled = False


def refuse(sample: Sample, verdicts: Verdicts) -> None:
    """Settle a request that got no verdict.  Call under the lock."""
    sample.refused = True
    sample.settled = True
    verdicts.refused()


class Poller(threading.Thread):
    """Follows accepted jobs until they are done, polling the job that
    is due first and keeping :data:`POLL_GAP_S` between polls."""

    def __init__(self, address, traced: bool, verdicts: Verdicts, lock: threading.Lock):
        super().__init__(daemon=True)
        self.address = address
        self.tracer = Tracer(traced)
        self.verdicts = verdicts
        self.lock = lock
        self.inbox: "queue.Queue" = queue.Queue()
        #: Jobs handed over and not yet done; guarded by ``lock``.
        self.outstanding = 0
        #: Set under ``lock`` once the run stops taking outcomes.
        self.closed = False
        self.polls = 0
        self.stopping = threading.Event()
        self.abandoned = threading.Event()
        self.error: Optional[Exception] = None

    def follow(self, job_id: str, sample: Sample, body: Dict[str, object]) -> None:
        with self.lock:
            self.outstanding += 1
        self.inbox.put((time.perf_counter() + POLL_EVERY_S, job_id, sample, body))

    def run(self) -> None:
        try:
            self._loop()
        except Exception as exc:  # re-raised by the sender
            self.error = exc

    def _loop(self) -> None:
        due: List[Tuple[float, str, Sample, Dict[str, object]]] = []
        last_poll = 0.0
        while not self.abandoned.is_set():
            if not due and self.stopping.is_set() and self.inbox.empty():
                return
            wait = 0.1 if not due else max(
                0.0, max(due[0][0], last_poll + POLL_GAP_S) - time.perf_counter()
            )
            try:
                job = self.inbox.get(timeout=wait) if wait else self.inbox.get_nowait()
            except queue.Empty:
                job = None
            if job is not None:
                heapq.heappush(due, job)
                continue
            if not due:
                continue
            _, job_id, sample, body = heapq.heappop(due)
            last_poll = time.perf_counter()
            self.polls += 1
            with self.tracer.span("serve.poll"):
                status, payload = call(self.address, "GET", "/v1/jobs/" + job_id, timeout=10.0)
            if status == 200 and payload.get("state") != "done":
                heapq.heappush(due, (time.perf_counter() + POLL_EVERY_S, job_id, sample, body))
                continue
            now = time.perf_counter()
            result = payload.get("result") or {}
            with self.lock:
                if self.closed:
                    return
                self.outstanding -= 1
                if status != 200 or result.get("status") not in ("ok", "verdict"):
                    refuse(sample, self.verdicts)
                    continue
                sample.latency = now - sample.due
                sample.wall = result.get("wall")
                sample.settled = True
                self.verdicts.record(
                    verdict_right(body, result),
                    "{} -> {}".format(body, result.get("detail")),
                )

    def wait_idle(self, timeout: float) -> bool:
        """Wait until every job handed over is done."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline and self.error is None:
            with self.lock:
                if self.outstanding == 0:
                    return True
            time.sleep(POLL_GAP_S)
        return False

    def finish(self, samples: List[Sample]) -> None:
        """Stop following jobs: wait for the open ones up to
        :data:`STOP_TIMEOUT_S`, then count every request still without
        an outcome as failed and take no outcome after that."""
        self.stopping.set()
        self.join(timeout=STOP_TIMEOUT_S)
        self.abandoned.set()
        with self.lock:
            self.closed = True
            for sample in samples:
                if not sample.settled:
                    refuse(sample, self.verdicts)
        self.join(timeout=STOP_TIMEOUT_S)


def warm(address) -> None:
    """Compute every pool verdict once so later repeats are cache hits.
    At most :data:`WORKERS` jobs are in flight, so the daemon's queue
    stays empty and ``serve.queue_depth_max`` shows only the measured
    phases."""
    waiting = list(POOL)
    running: List[str] = []
    deadline = time.perf_counter() + 120
    while waiting or running:
        while waiting and len(running) < WORKERS:
            body = waiting.pop(0)
            status, payload = call(address, "POST", "/v1/jobs", body)
            if status == 202:
                running.append(payload["job_id"])
            elif status != 200:
                raise RuntimeError("warming {} failed: {} {}".format(body, status, payload))
        for job_id in list(running):
            status, payload = call(address, "GET", "/v1/jobs/" + job_id)
            if status != 200:
                raise RuntimeError("warming job {} failed: {}".format(job_id, status))
            if payload.get("state") == "done":
                running.remove(job_id)
        if time.perf_counter() > deadline:
            raise RuntimeError("warming did not finish")
        time.sleep(0.02)


def drive(address, phases, tracer: Tracer) -> Dict[str, object]:
    """Offer every phase in turn; returns samples and per-phase timing."""
    verdicts = Verdicts()
    lock = threading.Lock()
    poller = Poller(address, tracer.enabled, verdicts, lock)
    poller.start()
    samples: List[Sample] = []
    lags: List[float] = []
    drains: List[Optional[float]] = []
    # (when, seconds) of every reference slice.
    slices = [(time.perf_counter(), reference_slice())]
    last_slice = slices[0][0]
    phases_wall = 0.0
    try:
        for index, phase in enumerate(phases):
            started = time.perf_counter()
            with tracer.span("bench.phase"):
                t0 = time.perf_counter()
                for offset, body, fresh in phase:
                    due = t0 + offset
                    with tracer.span("load.idle"):
                        now = time.perf_counter()
                        if due - now > SLICE_ROOM_S and now - last_slice > SLICE_EVERY_S:
                            slices.append((now, reference_slice()))
                            last_slice = now
                        delay = due - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                    sample = Sample(index, due, fresh)
                    sent = time.perf_counter()
                    lags.append(sent - due)
                    with tracer.span("serve.post"):
                        status, payload = call(address, "POST", "/v1/jobs", body)
                    answered = time.perf_counter()
                    with lock:
                        samples.append(sample)
                        if status == 200:
                            sample.latency = answered - due
                            sample.settled = True
                            verdicts.record(
                                verdict_right(body, payload.get("result") or {}),
                                "{} -> {}".format(body, payload),
                            )
                        elif status == 202:
                            sample.admit = answered - sent
                        else:
                            refuse(sample, verdicts)
                    if status == 202:
                        poller.follow(payload["job_id"], sample, body)
                last_due = t0 + (phase[-1][0] if phase else 0.0)
                with tracer.span("load.drain"):
                    drained = poller.wait_idle(timeout=DRAIN_TIMEOUT_S)
                drains.append(time.perf_counter() - last_due if drained else None)
            phases_wall += time.perf_counter() - started
            if poller.error is not None:
                raise poller.error
        slices.append((time.perf_counter(), reference_slice()))
    finally:
        poller.finish(samples)
    return {
        "verdicts": verdicts,
        "samples": samples,
        "lags": lags,
        "drains": drains,
        "slices": slices,
        "wall": phases_wall,
        "polls": poller.polls,
        "poll_spans": poller.tracer.spans,
    }


def _ms(values: List[float]) -> Tuple[float, float, float, int]:
    p50 = 1e3 * median(values)
    value, pct, n = tail(values)
    return p50, 1e3 * value, pct, n


def serve_metrics(run: Dict[str, object], stats_before, stats_after, seconds: float,
                  tracer: Tracer) -> Dict[str, object]:
    samples: List[Sample] = run["samples"]
    never = seconds  # a refused request never got an answer in the run
    slices: List[Tuple[float, float]] = run["slices"]
    run_slice = median([x for _, x in slices])

    def scale(begin: float, end: float) -> float:
        """Factor taking a time measured from ``begin`` to ``end`` to the
        reference speed: the slices around it, or the run's median."""
        near = [x for when, x in slices
                if begin - SLICE_WINDOW_S <= when <= end + SLICE_WINDOW_S]
        return at_reference(1.0, median(near) if near else run_slice)

    def latency(s: Sample) -> float:
        if s.refused or s.latency is None:
            return never
        return s.latency * scale(s.due, s.due + s.latency)

    phases = []
    for index, rate in enumerate(RATES):
        mine = [s for s in samples if s.phase == index]
        lat = [latency(s) for s in mine]
        p50, tail_ms, pct, n = _ms(lat)
        drain = run["drains"][index]
        ok = (
            bool(mine)
            and not any(s.refused for s in mine)
            and tail_ms <= LIMIT_MS
            and drain is not None
            and drain <= LIMIT_MS / 1e3
        )
        answered = [s for s in mine if not s.refused and s.latency is not None]
        # A rate over a whole phase takes the run's median slice: the
        # sender is too busy to take slices at the highest rate.
        span = at_reference(
            max((s.due + s.latency for s in answered), default=0.0)
            - min((s.due for s in mine), default=0.0),
            run_slice,
        )
        phases.append({
            "rate_rps": rate, "requests": len(mine), "p50_ms": p50, "tail_ms": tail_ms,
            "tail_percentile": pct, "samples": n,
            "drain_s": drain, "meets_limit": ok,
            "verdicts_per_s": len(answered) / span if span > 0 else 0.0,
        })
    nominal = phases[NOMINAL]
    steady = [s for s in samples if s.phase <= NOMINAL]
    hits = [latency(s) for s in steady if not s.fresh]
    misses = [latency(s) for s in steady if s.fresh]
    fresh_done = [s for s in samples if s.fresh and s.wall is not None and s.latency is not None]

    def at_due(s: Sample) -> float:
        return scale(s.due, s.due + s.latency)

    hit_p50, hit_tail, hit_pct, hit_n = _ms(hits)
    miss_p50, miss_tail, miss_pct, miss_n = _ms(misses)
    _, lag_tail, lag_pct, _ = _ms(run["lags"])
    passing = [p["rate_rps"] for p in phases if p["meets_limit"]]
    cache_before, cache_after = stats_before["cache"], stats_after["cache"]
    lookups = (cache_after["hits"] - cache_before["hits"]) + (
        cache_after["misses"] - cache_before["misses"]
    )
    shed_before = stats_before["telemetry"]["counters"].get("serve.shed", 0)
    shed_after = stats_after["telemetry"]["counters"].get("serve.shed", 0)
    gauges = stats_after["telemetry"]["gauges"].get("serve.queue_depth", {})
    out: Dict[str, object] = {
        "phases": phases,
        # At the highest rate the daemon is saturated: its completion
        # rate there is its capacity.
        "verdicts_per_s": phases[-1]["verdicts_per_s"],
        # The median verdict the daemon computes.  A cache hit's few
        # milliseconds are mostly thread wake-ups, which a shared host
        # delays by up to 3x from one run to the next; hits are
        # reported as hit_p50_ms.
        "verdict_p50_ms": miss_p50,
        "verdict_tail_ms": nominal["tail_ms"],
        "tail_percentile": nominal["tail_percentile"],
        "samples": nominal["samples"],
        "hit_p50_ms": hit_p50, "hit_tail_ms": hit_tail,
        "hit_tail_percentile": hit_pct, "hit_samples": hit_n,
        "miss_p50_ms": miss_p50, "miss_tail_ms": miss_tail,
        "miss_tail_percentile": miss_pct, "miss_samples": miss_n,
        "max_rate_rps": max(passing) if passing else 0.0,
        "cache.hit_ratio": (cache_after["hits"] - cache_before["hits"]) / lookups if lookups else 0.0,
        "cache.stores": cache_after["stores"] - cache_before["stores"],
        "serve.admit_ms": 1e3 * median(
            [s.admit * scale(s.due, s.due + s.admit) for s in samples if s.admit is not None]
        ),
        "serve.exec_ms": 1e3 * median([s.wall * at_due(s) for s in fresh_done]),
        "serve.overhead_ms": 1e3 * median(
            [(s.latency - s.wall) * at_due(s) for s in fresh_done if s.phase <= NOMINAL]
        ),
        "serve.queue_depth_max": gauges.get("max", 0),
        "serve.shed": shed_after - shed_before,
        "host.ref_ms": 1e3 * run_slice,
        "load.lag_ms": lag_tail,
        "lag_percentile": lag_pct,
        "load.polls_per_s": run["polls"] / run["wall"] if run["wall"] else 0.0,
    }
    if tracer.enabled:
        # The sender's spans account for the phases' wall time; the
        # poller runs beside it.
        layers, residual = attribute(tracer.spans, run["wall"])
        spans = len(tracer.spans) + len(run["poll_spans"])
        out.update(layers=layers, unattributed_s=residual,
                   trace_overhead_s=_span_cost() * spans)
    return out


def _span_cost(calls: int = 20_000) -> float:
    """Measured cost of recording one span."""
    tracer = Tracer(True)
    begun = time.perf_counter()
    for _ in range(calls):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - begun) / calls


def run_serve(root: Path, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    work = root / "perfbench" / "out" / "work-{}".format(os.getpid())
    tracer = Tracer(trace)
    setups = []
    server = Server(root, work, seed)
    try:
        for attempt in range(SETUPS):
            before = reference_slice()
            spawn = server.start()
            setups.append(at_reference(spawn, (before + reference_slice()) / 2))
            if attempt < SETUPS - 1:
                server.stop()
        warm(server.address)
        before = call(server.address, "GET", "/v1/stats")[1]
        run = drive(server.address, schedule(seed, seconds), tracer)
        after = call(server.address, "GET", "/v1/stats")[1]
    finally:
        server.stop()
        shutil.rmtree(work, ignore_errors=True)
    metrics = serve_metrics(run, before, after, seconds, tracer)
    metrics["setup_s"] = median(setups)
    metrics["setups"] = setups
    metrics["verdicts"] = run["verdicts"]
    if trace:
        metrics["spans"] = [tracer.spans, run["poll_spans"]]
    return metrics
