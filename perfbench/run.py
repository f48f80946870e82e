"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload verify-mapping --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/`` and nowhere else.  Lines before the last are a
human-readable report; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``
(untraced); with ``--trace 1`` they are its per-layer ones, and the
spans are written to ``perfbench/out/``.  A layer a workload does not
exercise reads 0.

Workloads: ``verify-mapping`` and ``verify-symbolic`` (closed loops in
this process, see ``batch.py``) and ``serve-mixed`` (an open loop
against a ``repro serve`` subprocess, see ``serveload.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-mapping", "verify-symbolic", "serve-mixed")
#: Fresh interpreters started per batch run; setup_s is their median.
SETUP_PROBES = 9
#: Import probes per serve-mixed run (its setup_s comes from server spawns).
SERVE_IMPORT_PROBES = 3


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to run
    without it rather than measure some other installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: no program to measure: {} has no repro package".format(src))
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _setup_probe(workload: str, seed: int) -> None:
    """Child mode: import the program and prepare the first job, then
    report the import time and exit."""
    begun = time.perf_counter()
    if workload == "serve-mixed":
        import repro.cli  # noqa: F401
        import repro.runner.worker  # noqa: F401
        import repro.serve.app  # noqa: F401

        imported = time.perf_counter()
    else:
        import batch

        imported = time.perf_counter()
        batch.ROUNDS[workload](seed)
    print(json.dumps({"import_s": imported - begun}), flush=True)


def _probe_setups(workload: str, seed: int, count: int):
    """Start ``count`` fresh interpreters; returns (setup seconds,
    import seconds) lists at the reference speed, each scaled by the
    mean of the reference slices taken just before and after it."""
    from harness import at_reference, reference_slice

    setups, imports = [], []
    for _ in range(count):
        before = reference_slice()
        begun = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", workload,
             "--seed", str(seed)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
        )
        line = child.stdout.readline()
        setup = time.perf_counter() - begun
        child.stdout.close()
        if child.wait() != 0 or not line:
            sys.exit("perfbench: setup probe failed")
        speed = (before + reference_slice()) / 2
        setups.append(at_reference(setup, speed))
        imports.append(at_reference(json.loads(line)["import_s"], speed))
    return setups, imports


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Everything the run measured, as one dict."""
    from harness import median

    if workload == "serve-mixed":
        from serveload import run_serve

        _, imports = _probe_setups(workload, seed, SERVE_IMPORT_PROBES)
        out = run_serve(ROOT, seed, seconds, trace)
        out["peak_rss_mb"] = max(
            _rss_mb(resource.RUSAGE_SELF), _rss_mb(resource.RUSAGE_CHILDREN)
        )
    else:
        setups, imports = _probe_setups(workload, seed, SETUP_PROBES)
        import batch

        jobs = batch.ROUNDS[workload](seed)
        loop = batch.closed_loop(
            jobs, batch.rounds_for(workload, seconds), trace, time_cap_s=3 * seconds
        )
        out = batch.batch_metrics(loop)
        out["verdicts"] = loop["verdicts"]
        out["setup_s"] = median(setups)
        out["setups"] = setups
        out["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
        if trace:
            out["spans"] = [r.spans for r in loop["traced"]]
    out["startup.import_s"] = median(imports)
    return out


def collect(out, per_layer) -> dict:
    """Every metric this run produced, by name."""
    verdicts = out["verdicts"]
    values = {
        "setup_s": out["setup_s"],
        "verdicts_per_s": out["verdicts_per_s"],
        "verdict_p50_ms": out["verdict_p50_ms"],
        "verdict_tail_ms": out["verdict_tail_ms"],
        "peak_rss_mb": out["peak_rss_mb"],
        "ok_share": 1.0 - verdicts.failed / verdicts.attempted,
        "wrong_verdicts": verdicts.wrong,
        "failed_share": verdicts.failed / verdicts.attempted,
        "startup.import_s": out["startup.import_s"],
    }
    counts = out.get("counts", {})
    for name in ("ioa.states", "core.steps_checked", "sim.steps", "zones.nodes"):
        values[name] = counts.get(name, 0)
    obligations = counts.get("analyze.obligations", 0)
    values["analyze.proved_ratio"] = (
        counts.get("analyze.proved", 0) / obligations if obligations else 0.0
    )
    for name, _ in per_layer:
        if name in out and name not in values:
            values[name] = out[name]
    for span_name, seconds in out.get("layers", {}).items():
        values[span_name + "_s"] = seconds
    if "unattributed_s" in out:
        values["bench.unattributed_s"] = out["unattributed_s"]
        values["bench.trace_overhead_s"] = out["trace_overhead_s"]
    return values


def _report(workload: str, seed: int, out: dict, values: dict, units: dict) -> None:
    from harness import REFERENCE_S

    verdicts = out["verdicts"]
    print("perfbench {} seed={}".format(workload, seed))
    for name, value in values.items():
        print("  {:<24} {:>14.6g} {}".format(name, value, units.get(name, "")))
    print("  setups                 {}".format(" ".join("{:.3f}".format(x) for x in out["setups"])))
    print("  tail percentile        p{:.1f} of {} samples".format(
        out["tail_percentile"], out["samples"]))
    print("  times are at the reference speed; host.ref_ms {:.4f} against {:.4f}".format(
        out["host.ref_ms"], 1e3 * REFERENCE_S))
    if "measured_p50_ms" in out:
        print("  as measured            p50 {:.3f} ms, tail {:.3f} ms".format(
            out["measured_p50_ms"], out["measured_tail_ms"]))
    if "pooled_p50_ms" in out:
        print("  pooled samples         p50 {:.3f} ms, tail {:.3f} ms".format(
            out["pooled_p50_ms"], out["pooled_tail_ms"]))
    if "rounds" in out:
        print("  rounds                 {} (median {:.3f} s): {}".format(
            out["rounds"], out["round_wall_s"],
            " ".join("{:.3f}".format(w) for w in out["round_walls"])))
    for phase in out.get("phases", ()):
        print("  rate {rate_rps:>3} rps: {requests} requests, p50 {p50_ms:.1f} ms, "
              "tail {tail_ms:.1f} ms (p{tail_percentile:.1f}), drain {drain_s} s, "
              "meets limit: {meets_limit}".format(**phase))
    print("  verdicts: attempted {} wrong {} failed {}".format(
        verdicts.attempted, verdicts.wrong, verdicts.failed))
    for defect, count in verdicts.known_defects.items():
        print("  known defect {} x{}".format(defect, count))
    for detail in verdicts.unexpected:
        print("  WRONG: {}".format(detail))


def _write_spans(workload: str, seed: int, groups) -> Path:
    """One JSON line per span.  ``group`` is the traced round of a batch
    run, or the thread (0 sender, 1 poller) of ``serve-mixed``;
    ``parent`` is the ``id`` of the parent span in the same group."""
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / "spans-{}-{}.jsonl".format(workload, seed)
    with open(path, "w") as fh:
        for group, spans in enumerate(groups):
            for span_index, span in enumerate(spans):
                fh.write(json.dumps({
                    "group": group, "id": span_index, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "job": span.job,
                }) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _load_program()
    if args.setup_probe:
        _setup_probe(args.setup_probe, args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    out = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    values = collect(out, per_layer)
    _report(args.workload, args.seed, out, values, dict(end_to_end + per_layer))
    if args.trace:
        print("  spans written to {}".format(_write_spans(args.workload, args.seed, out["spans"])))
        wanted = per_layer
    else:
        wanted = end_to_end
    metrics = {}
    for name, unit in wanted:
        value = values.get(name, 0)
        if isinstance(value, float) and not math.isfinite(value):
            raise SystemExit("perfbench: {} is not finite".format(name))
        metrics[name] = {"value": value, "unit": unit}
    verdicts = out["verdicts"]
    print(json.dumps({
        "correct": verdicts.correct(),
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
