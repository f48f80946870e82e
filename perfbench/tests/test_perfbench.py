"""The benchmark's own tests: span accounting, determinism of the
seeded counts and verdicts, agreement with the CLI, and the exit path
when there is no program to measure.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import answers
import batch
import serveload
from conftest import BENCH, ROOT
from harness import (
    REFERENCE_S,
    Span,
    Tracer,
    Verdicts,
    at_reference,
    attribute,
    reference_slice,
    self_times,
    tail,
)

# ----------------------------------------------------------------------
# Span accounting
# ----------------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("bench.round", 0.0, 10.0),
        Span("zones.query", 1.0, 5.0, parent=0),
        Span("timed.build", 2.0, 3.0, parent=1),
        Span("ioa.explore", 6.0, 9.0, parent=0),
    ]
    assert self_times(spans) == [3.0, 3.0, 1.0, 3.0]
    layers, residual = attribute(spans, wall=11.0)
    assert layers == {"zones.query": 3.0, "timed.build": 1.0, "ioa.explore": 3.0}
    # bench.round's own 3 s plus 1 s outside every span.
    assert residual == 4.0


def _small_round():
    return [
        batch.fischer_safe_job(3),
        batch.fischer_tight_job(),
        batch.rm_bounds_job(),
        batch.peterson_job(),
        batch.explore_job("gen:fischer-3"),
        batch.analyze_job("relay"),
        batch.rm_sim_job(7, runs=2, steps=60),
        batch.relay_sweep_job(0, horizon=Fraction(4)),
    ]


def test_traced_round_accounts_for_its_wall_time():
    result = batch.run_round(_small_round(), Verdicts(), traced=True)
    spans = result.spans
    for span in spans:
        assert span.end >= span.start
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    assert all(own >= -1e-9 for own in self_times(spans))
    layers, residual = attribute(spans, result.wall)
    assert sum(layers.values()) + residual == pytest.approx(result.wall, abs=1e-9)
    assert 0.0 <= residual <= 0.10 * result.wall
    assert {"zones.query", "ioa.explore", "analyze.discharge", "sim.run"} <= set(layers)


def test_untraced_round_records_no_spans():
    tracer = Tracer(False)
    with tracer.span("zones.query"):
        pass
    assert tracer.spans == []


def test_round_scales_each_job_by_the_slices_around_it(monkeypatch):
    # Slices of 1, 3 and 2 reference units: the first job ran at half
    # the reference speed (mean 2), the second at 1/2.5 of it.
    slow = iter([REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S])

    def fake_slice():
        time.sleep(0.05)
        return next(slow)

    def job(ctx):
        time.sleep(0.01)
        return True, "", None

    monkeypatch.setattr(batch, "reference_slice", fake_slice)
    result = batch.run_round([batch.Job("a", job), batch.Job("b", job)], Verdicts(), False)
    assert result.slices == [REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S]
    assert result.latencies[0] == pytest.approx(result.raw_latencies[0] / 2)
    assert result.latencies[1] == pytest.approx(result.raw_latencies[1] / 2.5)
    # The slices' 0.15 s is not part of the round.
    assert sum(result.raw_latencies) <= result.wall < 0.1


def test_at_reference_scales_by_the_slice():
    assert at_reference(0.5, 2 * REFERENCE_S) == pytest.approx(0.25)
    assert 0.0 < reference_slice() < 1.0


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))
    value, percentile, samples = tail(values)
    assert (value, percentile, samples) == (90, 90.0, 100)
    assert sum(1 for v in values if v > value) == 10
    assert tail([5.0, 1.0])[0] == 5.0


def test_batch_percentiles_read_the_typical_round():
    # Eleven rounds of five quick jobs and one slow job whose latency
    # drifts from round to round.
    rounds = []
    for index in range(11):
        latencies = [0.001 * (job + 1) for job in range(5)] + [1.0 + 0.01 * index]
        rounds.append(batch.RoundResult(
            sum(latencies), latencies, Counter(), [], latencies, [REFERENCE_S]))
    out = batch.batch_metrics({"plain": rounds, "traced": [], "verdicts": Verdicts()})
    # The tail is the slow job's median, where the pooled samples give
    # its fastest round.
    assert out["verdict_tail_ms"] == pytest.approx(1050.0)
    assert out["pooled_tail_ms"] == pytest.approx(1000.0)
    assert (out["tail_percentile"], out["samples"]) == (100.0 * 56 / 66, 66)
    assert out["verdict_p50_ms"] == pytest.approx(3.5)
    assert out["verdicts_per_s"] == pytest.approx(6 / 1.065)


# ----------------------------------------------------------------------
# Known answers
# ----------------------------------------------------------------------


def test_known_answers_follow_the_theorems():
    k, c1, c2, l = (answers.RM_PARAMS[x] for x in ("k", "c1", "c2", "l"))
    assert answers.RM_FIRST_GRANT == (k * c1, k * c2 + l)
    assert answers.RM_GRANT_GAP == (k * c1 - l, k * c2 + l)
    n, d1, d2 = (answers.RELAY_PARAMS[x] for x in ("n", "d1", "d2"))
    assert answers.RELAY_END_TO_END == (n * d1, n * d2)
    s1, s2 = answers.PETERSON_STEP
    assert answers.PETERSON_FIRST_ENTRY == (3 * s1, 3 * s2)
    assert answers.FISCHER_SAFE["b"] > answers.FISCHER_SAFE["a"]
    assert answers.FISCHER_TIGHT["b"] <= answers.FISCHER_TIGHT["a"]


def test_verdicts_tell_known_defects_from_wrong_answers():
    verdicts = Verdicts()
    verdicts.record(True)
    verdicts.record(False, "check rm", "check-rm-truncated")
    verdicts.refused()
    assert (verdicts.attempted, verdicts.wrong, verdicts.failed) == (3, 1, 2)
    assert verdicts.correct()
    verdicts.record(False, "fischer-4 found a violation")
    assert not verdicts.correct()


def _cli_check(name: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "repro", "check", name, "--no-cache", "--json",
         "--seed", str(seed)],
        capture_output=True, text=True, cwd=str(ROOT),
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", ["rm", "chain"])
def test_check_job_gives_the_cli_verdict(name):
    entry = _cli_check(name, seed=5)
    right, _, defect = batch.check_job(name, 5).run(batch.Context(Tracer(False)))
    assert entry["ok"] == (right if answers.expected_ok(name) else not right)
    if name == "rm":
        # The known defect: the CLI's verdict is wrong, and the
        # benchmark says so and names it.
        assert entry["truncated"] and not entry["ok"]
        assert (right, defect) == (False, "check-rm-truncated")


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


def _verdict_signature(seed: int, make_round):
    verdicts = Verdicts()
    result = batch.run_round(make_round(seed), verdicts, traced=False)
    return result.counts, verdicts


@pytest.mark.parametrize("workload", ["verify-mapping", "verify-symbolic"])
def test_counts_and_verdicts_repeat_for_a_seed(workload):
    make_round = batch.ROUNDS[workload]
    counts_a, verdicts_a = _verdict_signature(3, make_round)
    counts_b, verdicts_b = _verdict_signature(3, make_round)
    for name in ("ioa.states", "zones.nodes", "core.steps_checked", "sim.steps"):
        assert counts_a[name] == counts_b[name]
    assert verdicts_a.wrong == verdicts_b.wrong
    assert verdicts_a.known_defects == verdicts_b.known_defects
    assert verdicts_a.unexpected == verdicts_b.unexpected == []
    _, verdicts_c = _verdict_signature(4, make_round)
    assert (verdicts_c.attempted, verdicts_c.wrong, verdicts_c.known_defects) == (
        verdicts_a.attempted, verdicts_a.wrong, verdicts_a.known_defects,
    )


def test_symbolic_counts_match_the_invariants():
    counts, verdicts = _verdict_signature(1, batch.symbolic_round)
    assert verdicts.wrong == 0
    # fischer n=3 and n=4 sweeps visit 328 + 2805 zone nodes among others.
    assert counts["zones.nodes"] > 328 + 2805
    assert counts["ioa.states"] >= 28 + 152 + 752


def test_serve_schedule_is_seeded_and_fixed_size():
    first = serveload.schedule(9, seconds=10)
    assert first == serveload.schedule(9, seconds=10)
    other = serveload.schedule(10, seconds=10)
    assert [len(p) for p in first] == [len(p) for p in other]
    assert [len(p) for p in first] == [
        round(rate * 10 * share)
        for rate, share in zip(serveload.RATES, serveload.RATE_SHARES)
    ]
    fresh = [json.dumps(body, sort_keys=True) for p in first for _, body, f in p if f]
    assert len(fresh) == len(set(fresh))
    pool = {json.dumps(body, sort_keys=True) for body in serveload.POOL}
    assert not pool & set(fresh)
    kinds = Counter(json.loads(b)["kind"] for b in fresh)
    assert set(kinds) == {"check", "lint", "analyze"}


class _StubDaemon(BaseHTTPRequestHandler):
    """Accepts every job; the first never finishes and the second
    vanishes (its polls answer 404)."""

    protocol_version = "HTTP/1.1"
    posts = 0
    polls = 0

    def _answer(self, status, body):
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        type(self).posts += 1
        self._answer(202, {"job_id": ("stuck", "gone")[(self.posts - 1) % 2]})

    def do_GET(self):  # noqa: N802
        type(self).polls += 1
        if self.path.endswith("/stuck"):
            self._answer(200, {"state": "running"})
        else:
            self._answer(404, {"error": "unknown job"})

    def log_message(self, *args):
        pass


def test_jobs_that_never_finish_count_as_failed(monkeypatch):
    monkeypatch.setattr(serveload, "DRAIN_TIMEOUT_S", 0.5)
    monkeypatch.setattr(serveload, "STOP_TIMEOUT_S", 0.5)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubDaemon)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        body = serveload.fresh_body(0, seed=1)
        phases = [[(0.0, body, True), (0.01, body, True)]]
        run = serveload.drive(server.server_address, phases, Tracer(False))
        verdicts = run["verdicts"]
        assert (verdicts.attempted, verdicts.failed, verdicts.wrong) == (2, 2, 0)
        assert all(s.refused and s.settled for s in run["samples"])
        assert run["drains"] == [None]
        # The stuck job was polled at most once per POLL_GAP_S while the
        # phase drained, and nothing is recorded after the run ends.
        assert _StubDaemon.polls <= 2 + (0.5 + 0.5) / serveload.POLL_GAP_S
        time.sleep(0.2)
        assert verdicts.attempted == 2
    finally:
        server.shutdown()
        server.server_close()


# ----------------------------------------------------------------------
# Whole runs
# ----------------------------------------------------------------------


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=str(cwd), timeout=timeout,
    )


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    out = _run(tmp_path, "--workload", "verify-symbolic", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_batch_run_prints_every_end_to_end_metric_nonzero():
    out = _run(ROOT, "--workload", "verify-symbolic", "--seed", "2", "--seconds", "2",
               "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


def test_serve_run_prints_every_per_layer_metric():
    out = _run(ROOT, "--workload", "serve-mixed", "--seed", "2", "--seconds", "4",
               "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["correct"] and result["attempted"] > 0
    assert result["metrics"]["cache.stores"]["value"] > 0
