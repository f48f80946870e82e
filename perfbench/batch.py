"""The two batch workloads: closed loops of verdict jobs run in-process
through the library's public entry points, with the verdict cache
bypassed (no cache object is ever created).

``verify-mapping`` repeats the paper's mapping-method verdicts:
simulate-and-check runs of ``repro rm``/``repro relay``, ``repro
check rm|relay|chain``, long exhaustive mapping sweeps and the
Theorem 7.1 canonical mapping.  ``verify-symbolic`` repeats the
symbolic ones: zone safety sweeps and refutations, exact separation
bounds, untimed exploration and ``analyze`` over every shipped system.

A round is the workload's job list, drawn once from the seed; a run
repeats a fixed number of whole rounds, so every count a round makes
is the same in each round and the same for every run with that seed.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

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

from repro.analysis.bounds import gaps, occurrence_times, separations_after
from repro.analysis.recurrence import peterson_first_entry_chain
from repro.analyze import analyze_names, analyze_system
from repro.core import (
    CanonicalMapping,
    ExhaustiveFirstEstimator,
    check_chain_on_run,
    check_mapping_exhaustive,
    check_mapping_on_run,
    dummify,
    dummify_conditions,
    project,
    time_of_boundmap,
    time_of_conditions,
    undum,
)
from repro.faults import Budget
from repro.faults.targets import build_perturb_target
from repro.ioa.explorer import explore
from repro.par.surface import explore_automaton, mapping_specs
from repro.sim import Simulator, UniformStrategy
from repro.sim.trace import timed_behavior_of_run
from repro.systems import (
    GRANT,
    SIGNAL,
    RelayParams,
    RelaySystem,
    ResourceManagerParams,
    ResourceManagerSystem,
    relay_hierarchy,
    resource_manager,
    resource_manager_mapping,
    )
from repro.systems.extensions.fischer import (
    FischerParams,
    fischer_system,
    mutual_exclusion_violated,
)
from repro.systems.extensions.peterson import (
    ENTER,
    PetersonParams,
    both_critical,
    peterson_system,
)
from repro.timed import Interval
from repro.zones import absolute_event_bounds, event_separation_bounds, search_reachable_state

#: Outcome of one job: (matches the known answer, detail, defect id).
Outcome = Tuple[bool, str, Optional[str]]


class Job(NamedTuple):
    name: str
    run: Callable[["Context"], Outcome]


class Context:
    """What a job reports into: the tracer and the round's work counts."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.counts: Counter = Counter()

    def span(self, name: str):
        return self.tracer.span(name)


def _budget() -> Budget:
    # The defaults of `repro check`.
    return Budget(max_states=200_000, max_steps=2_000_000, wall_time=60.0)


# ----------------------------------------------------------------------
# verify-mapping
# ----------------------------------------------------------------------


def rm_sim_job(base_seed: int, runs: int = 3, steps: int = 150) -> Job:
    """`repro rm --seed base_seed --seeds runs --steps steps`."""

    def run(ctx: Context) -> Outcome:
        with ctx.span("timed.build"):
            system = ResourceManagerSystem(ResourceManagerParams(**answers.RM_PARAMS))
            mapping = resource_manager_mapping(system)
        right = True
        for seed in range(base_seed, base_seed + runs):
            with ctx.span("sim.run"):
                seq = Simulator(
                    system.algorithm, UniformStrategy(random.Random(seed))
                ).run(max_steps=steps)
            ctx.counts["sim.steps"] += len(seq)
            with ctx.span("core.check_run"):
                outcome = check_mapping_on_run(mapping, seq)
            ctx.counts["core.steps_checked"] += outcome.steps_checked
            with ctx.span("sim.trace"):
                times = occurrence_times(
                    timed_behavior_of_run(system.timed.automaton, seq), GRANT
                )
            right = (
                right
                and outcome.ok
                and bool(times)
                and answers.within(answers.RM_FIRST_GRANT, times[0])
                and all(answers.within(answers.RM_GRANT_GAP, g) for g in gaps(times))
            )
        return right, "rm runs from seed {}".format(base_seed), None

    return Job("rm-sim[{}]".format(base_seed), run)


def relay_sim_job(base_seed: int, runs: int = 3, steps: int = 120) -> Job:
    """`repro relay --seed base_seed --seeds runs --steps steps`."""
    n = answers.RELAY_PARAMS["n"]

    def run(ctx: Context) -> Outcome:
        with ctx.span("timed.build"):
            system = RelaySystem(RelayParams(**answers.RELAY_PARAMS))
            chain = relay_hierarchy(system)
        right = True
        for seed in range(base_seed, base_seed + runs):
            with ctx.span("sim.run"):
                seq = Simulator(
                    system.algorithm, UniformStrategy(random.Random(seed))
                ).run(max_steps=steps)
            ctx.counts["sim.steps"] += len(seq)
            with ctx.span("core.check_run"):
                outcome = check_chain_on_run(chain, seq)
            ctx.counts["core.steps_checked"] += outcome.steps_checked
            with ctx.span("sim.trace"):
                events = undum(project(seq)).events
                delays = separations_after(events, SIGNAL(0), SIGNAL(n))
            right = (
                right
                and outcome.ok
                and bool(delays)
                and all(answers.within(answers.RELAY_END_TO_END, d) for d in delays)
            )
        return right, "relay runs from seed {}".format(base_seed), None

    return Job("relay-sim[{}]".format(base_seed), run)


def check_job(name: str, seed: int) -> Job:
    """`repro check <name> --seed <seed> --no-cache`: exploration,
    exhaustive mapping sweeps and the proof battery, with the same
    defaults and the same ``ok`` rule as the command."""

    def run(ctx: Context) -> Outcome:
        with ctx.span("timed.build"):
            automaton, cap = explore_automaton(name)
            specs = mapping_specs(name)
        with ctx.span("ioa.explore"):
            result = explore(automaton, max_states=cap, budget=_budget())
        ctx.counts["ioa.states"] += len(result.reachable)
        mappings = []
        exhausted = result.exhausted_budget
        for label, mapping, grid, horizon in specs:
            with ctx.span("core.exhaustive"):
                outcome = check_mapping_exhaustive(
                    mapping, grid=grid, horizon=horizon, budget=_budget()
                )
            ctx.counts["core.steps_checked"] += outcome.steps_checked
            exhausted = exhausted or outcome.exhausted_budget
            mappings.append({"mapping": label, "ok": outcome.ok})
        with ctx.span("faults.battery"):
            target = build_perturb_target(name, seeds=3, steps=80, seed=seed)
            battery = target.evaluate(Fraction(0), _budget())
        exhausted = exhausted or battery.exhausted_budget
        entry = {
            "states": len(result.reachable),
            "truncated": result.truncated,
            "mappings": mappings,
            "battery_ok": battery.ok,
        }
        ok = (
            not result.truncated
            and all(m["ok"] for m in mappings)
            and battery.ok
        )
        right = ok == answers.expected_ok(name) and not exhausted
        defect = None if right else answers.check_defect(name, entry)
        return right, "check {} seed {}: ok={} {}".format(name, seed, ok, entry), defect

    return Job("check-{}[{}]".format(name, seed), run)


def rm_sweep_job(grid=Fraction(1, 4), horizon=Fraction(14)) -> Job:
    """Exhaustive Section 4.3 mapping check on every grid execution."""

    def run(ctx: Context) -> Outcome:
        with ctx.span("timed.build"):
            mapping = resource_manager_mapping(
                ResourceManagerSystem(ResourceManagerParams(**answers.RM_PARAMS))
            )
        with ctx.span("core.exhaustive"):
            outcome = check_mapping_exhaustive(mapping, grid=grid, horizon=horizon)
        ctx.counts["core.steps_checked"] += outcome.steps_checked
        return outcome.ok, "rm sweep: " + outcome.detail, None

    return Job("sweep-rm", run)


def relay_sweep_job(level: int, grid=Fraction(1, 2), horizon=Fraction(6)) -> Job:
    """Exhaustive check of one level of the Section 6 hierarchy."""

    def run(ctx: Context) -> Outcome:
        with ctx.span("timed.build"):
            mapping = relay_hierarchy(RelaySystem(RelayParams(**answers.RELAY_PARAMS))).mappings[level]
        with ctx.span("core.exhaustive"):
            outcome = check_mapping_exhaustive(mapping, grid=grid, horizon=horizon)
        ctx.counts["core.steps_checked"] += outcome.steps_checked
        return outcome.ok, "relay[{}] sweep: {}".format(level, outcome.detail), None

    return Job("sweep-relay[{}]".format(level), run)


def canonical_job(horizon=Fraction(4)) -> Job:
    """Theorem 7.1: the canonical mapping of the dummified resource
    manager (k=2, c1=c2=2, l=1), checked on every grid execution."""

    def run(ctx: Context) -> Outcome:
        with ctx.span("timed.build"):
            system = ResourceManagerSystem(
                ResourceManagerParams(k=2, c1=Fraction(2), c2=Fraction(2), l=Fraction(1))
            )
            dummified = dummify(system.timed, Interval(1, 1))
            algorithm = time_of_boundmap(dummified)
            requirements = time_of_conditions(
                dummified.automaton, dummify_conditions([system.g1, system.g2]), name="B~"
            )
        with ctx.span("core.canonical"):
            estimator = ExhaustiveFirstEstimator(
                algorithm, grid=Fraction(1, 2), window=Fraction(12)
            )
            outcome = check_mapping_exhaustive(
                CanonicalMapping(algorithm, requirements, estimator),
                grid=Fraction(1, 2),
                horizon=horizon,
            )
        ctx.counts["core.steps_checked"] += outcome.steps_checked
        return outcome.ok, "canonical mapping: " + outcome.detail, None

    return Job("canonical-rm", run)


def mapping_round(seed: int) -> List[Job]:
    rng = random.Random(seed)
    jobs: List[Job] = []
    # Five rm and seven relay simulate-and-check jobs put the median
    # latency in the middle of the relay cluster, not on its edge.
    jobs += [rm_sim_job(rng.randrange(1_000_000)) for _ in range(5)]
    jobs += [relay_sim_job(rng.randrange(1_000_000)) for _ in range(7)]
    jobs += [check_job(name, rng.randrange(1_000)) for name in ("rm", "relay", "chain")]
    jobs.append(rm_sweep_job())
    jobs += [relay_sweep_job(level) for level in range(4)]
    jobs.append(canonical_job())
    rng.shuffle(jobs)
    return jobs


# ----------------------------------------------------------------------
# verify-symbolic
# ----------------------------------------------------------------------


def fischer_safe_job(n: int) -> Job:
    def run(ctx: Context) -> Outcome:
        with ctx.span("timed.build"):
            timed = fischer_system(FischerParams(n=n, **answers.FISCHER_SAFE))
        with ctx.span("zones.query"):
            result = search_reachable_state(timed, mutual_exclusion_violated)
        ctx.counts["zones.nodes"] += result.nodes
        right = result.state is None and not result.truncated
        return right, "fischer n={} found {!r}".format(n, result.state), None

    return Job("fischer-{}".format(n), run)


def fischer_tight_job() -> Job:
    def run(ctx: Context) -> Outcome:
        with ctx.span("timed.build"):
            timed = fischer_system(FischerParams(n=2, **answers.FISCHER_TIGHT))
        with ctx.span("zones.query"):
            result = search_reachable_state(timed, mutual_exclusion_violated)
        ctx.counts["zones.nodes"] += result.nodes
        state = result.state
        right = (
            state is not None
            and mutual_exclusion_violated(state)
            and answers.fischer_double_critical(state)
        )
        return right, "fischer-tight counterexample {!r}".format(state), None

    return Job("fischer-tight", run)


def _bounds_match(bounds, interval) -> bool:
    return (
        answers.exact(interval, bounds.lo, bounds.hi)
        and not bounds.lo_strict
        and not bounds.hi_strict
        and not bounds.exhausted_budget
    )


def peterson_job() -> Job:
    """`repro peterson`: exact contended first entry, the recurrence
    cross-check, and mutual exclusion."""
    s1, s2 = answers.PETERSON_STEP

    def run(ctx: Context) -> Outcome:
        with ctx.span("timed.build"):
            params = PetersonParams(s1=s1, s2=s2)
            entry_system = peterson_system(params)
            mutex_system = peterson_system(PetersonParams(s1=s1, s2=s2, e=s2, repeat=True))
        with ctx.span("zones.query"):
            bounds = event_separation_bounds(entry_system, {ENTER(1), ENTER(2)}, occurrence=1)
            mutex = search_reachable_state(mutex_system, both_critical)
        ctx.counts["zones.nodes"] += bounds.nodes + mutex.nodes
        with ctx.span("analysis.recurrence"):
            operational = peterson_first_entry_chain(params.step_interval).total()
        right = (
            _bounds_match(bounds, answers.PETERSON_FIRST_ENTRY)
            and answers.exact(answers.PETERSON_FIRST_ENTRY, operational.lo, operational.hi)
            and mutex.state is None
            and not mutex.truncated
        )
        return right, "peterson {!r} recurrence {!r}".format(bounds, operational), None

    return Job("peterson", run)


def rm_bounds_job() -> Job:
    """`repro zones rm`: exact first GRANT and GRANT gap."""

    def run(ctx: Context) -> Outcome:
        with ctx.span("timed.build"):
            timed = resource_manager(ResourceManagerParams(**answers.RM_PARAMS))
        with ctx.span("zones.query"):
            first = absolute_event_bounds(timed, GRANT)
            gap = event_separation_bounds(timed, GRANT, occurrence=2, reset_on=[GRANT])
        ctx.counts["zones.nodes"] += first.nodes + gap.nodes
        right = _bounds_match(first, answers.RM_FIRST_GRANT) and _bounds_match(
            gap, answers.RM_GRANT_GAP
        )
        return right, "rm first {!r} gap {!r}".format(first, gap), None

    return Job("bounds-rm", run)


def explore_job(name: str) -> Job:
    """Untimed reachability of a generated system."""
    expected = answers.GEN_STATES[name]

    def run(ctx: Context) -> Outcome:
        with ctx.span("timed.build"):
            automaton, cap = explore_automaton(name)
        with ctx.span("ioa.explore"):
            result = explore(automaton, max_states=cap)
        states = len(result.reachable)
        ctx.counts["ioa.states"] += states
        right = not result.truncated and (expected is None or states == expected)
        return right, "{}: {} states".format(name, states), None

    return Job("explore-" + name, run)


def analyze_job(name: str) -> Job:
    """`repro analyze <name>`: static discharge, verdict and bounds."""

    def run(ctx: Context) -> Outcome:
        with ctx.span("analyze.discharge"):
            report = analyze_system(name)
        verdicts = [o.verdict.value for o in report.obligations]
        ctx.counts["analyze.obligations"] += len(verdicts)
        ctx.counts["analyze.proved"] += verdicts.count("PROVED")
        right = (not report.fails(strict=False)) == answers.expected_ok(name)
        for bound in report.bounds:
            expected = answers.DERIVED_BOUNDS.get((name, bound.label))
            if expected is not None:
                right = right and answers.exact(expected, bound.derived.lo, bound.derived.hi)
        return right, "analyze {}: {}".format(name, report.summary_line()), None

    return Job("analyze-" + name, run)


def symbolic_round(seed: int) -> List[Job]:
    jobs = [fischer_safe_job(3), fischer_safe_job(4), fischer_tight_job()]
    jobs += [peterson_job(), rm_bounds_job()]
    jobs += [explore_job(name) for name in answers.GEN_STATES]
    jobs += [analyze_job(name) for name in analyze_names()]
    random.Random(seed).shuffle(jobs)
    return jobs


ROUNDS = {"verify-mapping": mapping_round, "verify-symbolic": symbolic_round}

#: A run of ``--seconds s`` makes ``round(s / ROUND_SECONDS)`` rounds (at
#: least one): a fixed amount of work, so sample counts and percentiles
#: do not depend on how fast the host happens to be.  At the declared
#: 25 s that is 3 and 11 rounds, as the tail rule needs: with 3 rounds
#: the ``verify-mapping`` tail is the median ``check chain`` (with 2 it
#: would be ``check rm``, whose battery work varies with the seed), with
#: 11 the ``verify-symbolic`` tail is the median Fischer n=4 sweep.
ROUND_SECONDS = {"verify-mapping": 8.0, "verify-symbolic": 2.2}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------


class RoundResult(NamedTuple):
    #: Seconds the round's jobs and bookkeeping took, reference slices
    #: excluded.
    wall: float
    #: Each job's latency at the reference speed (see ``at_reference``).
    latencies: List[float]
    counts: Counter
    spans: list
    #: Each job's latency as measured.
    raw_latencies: List[float]
    #: The reference slices taken before the first job and after each.
    slices: List[float]


def run_round(jobs: List[Job], verdicts: Verdicts, traced: bool) -> RoundResult:
    """Run every job once.  A reference slice before the first job and
    after each one gives the host's speed around each job; a job's
    latency is scaled by the mean of the slices on either side."""
    tracer = Tracer(traced)
    ctx = Context(tracer)
    latencies, raw_latencies = [], []
    slices = [reference_slice()]
    start = time.perf_counter()
    slicing = 0.0
    with tracer.span("bench.round"):
        for job in jobs:
            tracer.job = job.name
            begun = time.perf_counter()
            with tracer.span("bench.job"):
                try:
                    right, detail, defect = job.run(ctx)
                except Exception as exc:  # a crashed job is a wrong verdict
                    right, detail, defect = False, "{}: {!r}".format(job.name, exc), None
            raw = time.perf_counter() - begun
            verdicts.record(right, detail, defect)
            sliced = time.perf_counter()
            slices.append(reference_slice())
            slicing += time.perf_counter() - sliced
            raw_latencies.append(raw)
            latencies.append(at_reference(raw, (slices[-2] + slices[-1]) / 2))
    wall = time.perf_counter() - start - slicing
    return RoundResult(wall, latencies, ctx.counts, tracer.spans, raw_latencies, slices)


def closed_loop(jobs: List[Job], rounds: int, trace: bool,
                time_cap_s: float) -> Dict[str, object]:
    """Run ``rounds`` whole rounds, or fewer once ``time_cap_s`` has
    passed (a safety valve for a badly overloaded host; it changes the
    sample count, which the report shows).  A traced run alternates
    untraced and traced rounds (at least one of each), so the tracing
    overhead is the difference of their median walls."""
    verdicts = Verdicts()
    plain: List[RoundResult] = []
    traced: List[RoundResult] = []
    start = time.perf_counter()
    for index in range(max(rounds, 2 if trace else 1)):
        if plain and (traced or not trace) and time.perf_counter() - start > time_cap_s:
            break
        want_trace = trace and index % 2 == 1
        (traced if want_trace else plain).append(run_round(jobs, verdicts, want_trace))
    return {"verdicts": verdicts, "plain": plain, "traced": traced}


def _round_scale(r: RoundResult) -> float:
    """Factor taking a round's measured seconds to the reference speed."""
    return at_reference(1.0, median(r.slices))


def batch_metrics(loop: Dict[str, object]) -> Dict[str, object]:
    """End-to-end figures from the untraced rounds; per-layer figures
    (per round) from the traced ones.  Every time is at the reference
    speed, except ``measured_*`` and ``round_wall*``."""
    plain: List[RoundResult] = loop["plain"]
    traced: List[RoundResult] = loop["traced"]
    pooled = [x for r in plain for x in r.latencies]
    # The typical round: each job at its median latency over the rounds.
    # Its percentiles (over every round, so the tail rule sees the run's
    # sample count) read one job's median, not one sample, and do not
    # jump when a single sample catches the host in a fast or slow moment.
    typical = [median(job) for job in zip(*(r.latencies for r in plain))]
    measured = [median(job) for job in zip(*(r.raw_latencies for r in plain))]
    tail_s, tail_pct, samples = tail(typical * len(plain))
    pooled_tail_s, _, _ = tail(pooled)
    out: Dict[str, object] = {
        "verdicts_per_s": len(typical) / sum(typical),
        "verdict_p50_ms": 1e3 * median(typical),
        "verdict_tail_ms": 1e3 * tail_s,
        "tail_percentile": tail_pct,
        "samples": samples,
        "pooled_p50_ms": 1e3 * median(pooled),
        "pooled_tail_ms": 1e3 * pooled_tail_s,
        "measured_p50_ms": 1e3 * median(measured),
        "measured_tail_ms": 1e3 * tail(measured * len(plain))[0],
        "host.ref_ms": 1e3 * median([x for r in plain for x in r.slices]),
        "rounds": len(plain),
        "round_wall_s": median([r.wall for r in plain]),
        "round_walls": [r.wall for r in plain],
        "counts": dict(plain[0].counts),
    }
    if traced:
        layers: Dict[str, float] = {}
        residual = 0.0
        for r in traced:
            scale = _round_scale(r) / len(traced)
            own, rest = attribute(r.spans, r.wall)
            for name, value in own.items():
                layers[name] = layers.get(name, 0.0) + value * scale
            residual += rest * scale
        out.update(
            layers=layers,
            unattributed_s=residual,
            trace_overhead_s=median([r.wall * _round_scale(r) for r in traced])
            - median([r.wall * _round_scale(r) for r in plain]),
        )
    return out
