"""The table-driven ``time(A, U)`` step kernel against independent oracles.

The kernel answers enabledness, class enabledness and post-states from
the base automaton's memo tables.  These tests replay the exhaustive
sweeps the mapping checks run and compare every step the kernel takes:

- against :class:`ExplicitBoundmapTime` (the Section 3.2 rules written
  out directly) wherever the swept source is ``time(A, b)``;
- against the untabled base automaton (``enabled_actions`` and
  ``transitions``) on every source, including the intermediate
  ``B_k`` automata of the hierarchies, which have no explicit twin.

They also pin the checker's outcomes (pass, refutation and budget cut)
to the values the untabled kernel produced, and check the estimator's
memo against fresh searches.
"""

import copy
import random
from fractions import Fraction as F

import pytest

from repro.core import (
    CanonicalMapping,
    ExhaustiveFirstEstimator,
    check_chain_on_run,
    check_mapping_exhaustive,
    check_mapping_on_run,
    dummify,
    dummify_conditions,
    time_of_boundmap,
    time_of_conditions,
)
from repro.core.boundmap_time import ExplicitBoundmapTime
from repro.core.discretize import discrete_options
from repro.core.time_state import Prediction, TimeState
from repro.faults import Budget
from repro.sim import Simulator, UniformStrategy
from repro.sim.strategies import ExtremalStrategy
from repro.systems import (
    RelayParams,
    RelaySystem,
    ResourceManagerParams,
    ResourceManagerSystem,
    relay_hierarchy,
    resource_manager_mapping,
)
from repro.systems.extensions import ChainSystem
from repro.timed.interval import Interval

from tests.systems.test_mapping_rm import _mapping_against, _mutated_requirements

RM = dict(k=3, c1=F(2), c2=F(3), l=F(1))
RELAY = dict(n=3, d1=F(1), d2=F(2))
EPS = F(1, 1000)  # finer than every sweep grid


def _exhaustive_detail(grid, horizon):
    return "exhaustive over grid={!r} horizon={!r}".format(grid, horizon)


class _Differential:
    """Stands in for the swept source automaton: answers with the
    table-driven kernel and checks each answer against the oracles."""

    def __init__(self, general, explicit=None):
        self._general = general
        self._explicit = explicit
        self.steps = 0
        self.states = 0

    def __getattr__(self, name):
        return getattr(self._general, name)

    def successors(self, state, action, t):
        got = self._general.successors(state, action, t)
        base = self._general.base
        allowed = self._general.time_violation(state, action, t) is None
        untabled = list(dict.fromkeys(base.transitions(state.astate, action)))
        assert [post.astate for post in got] == (untabled if allowed else [])
        if self._explicit is not None:
            assert got == self._explicit.successors(state, action, t)
        self.steps += 1
        return got

    def schedulable_actions(self, state):
        got = self._general.schedulable_actions(state)
        windows = [
            (action, self._general.time_window(state, action))
            for action in self._general.base.enabled_actions(state.astate)
        ]
        assert got == [(a, w[0], w[1]) for a, w in windows if w is not None]
        if self._explicit is not None:
            for action, window in windows:
                self._check_window(state, action, window)
        self.states += 1
        return got

    def _check_window(self, state, action, window):
        """The window's ends are exactly where the explicit rules start
        and stop accepting ``action``."""
        rejects = self._explicit.time_violation
        if window is None:
            assert rejects(state, action, state.now) is not None
            deadline = self._general.deadline(state)
            if deadline != float("inf"):
                assert rejects(state, action, deadline) is not None
            return
        lo, hi = window
        assert rejects(state, action, lo) is None
        assert rejects(state, action, lo - EPS) is not None
        if hi != float("inf"):
            assert rejects(state, action, hi) is None
            assert rejects(state, action, hi + EPS) is not None


def _differential_sweep(mapping, grid, horizon, explicit=None):
    swept = copy.copy(mapping)
    swept.source = _Differential(mapping.source, explicit)
    outcome = check_mapping_exhaustive(swept, grid=grid, horizon=horizon)
    assert swept.source.steps == outcome.steps_checked > 0
    return outcome


class TestSweepsAgreeWithOracles:
    def test_rm_sweep(self):
        system = ResourceManagerSystem(ResourceManagerParams(**RM))
        grid, horizon = F(1, 4), F(14)
        outcome = _differential_sweep(
            resource_manager_mapping(system),
            grid,
            horizon,
            explicit=ExplicitBoundmapTime(system.timed),
        )
        assert (outcome.ok, outcome.steps_checked, outcome.detail) == (
            True,
            27230,
            _exhaustive_detail(grid, horizon),
        )

    @pytest.mark.parametrize("level,steps", [(0, 727), (1, 973), (2, 2548), (3, 2286)])
    def test_relay_level_sweeps(self, level, steps):
        system = RelaySystem(RelayParams(**RELAY))
        mapping = relay_hierarchy(system).mappings[level]
        explicit = None
        if mapping.source is system.algorithm:
            explicit = ExplicitBoundmapTime(system.dummified)
        assert (level == 0) == (explicit is not None)
        grid, horizon = F(1, 2), F(6)
        outcome = _differential_sweep(mapping, grid, horizon, explicit=explicit)
        assert (outcome.ok, outcome.steps_checked, outcome.detail) == (
            True,
            steps,
            _exhaustive_detail(grid, horizon),
        )

    def test_chain_sweeps(self):
        system = ChainSystem([Interval(1, 2), Interval(2, 3)])
        grid, horizon = F(1, 2), F(6)
        steps = []
        for mapping in system.hierarchy():
            explicit = None
            if mapping.source is system.algorithm:
                explicit = ExplicitBoundmapTime(system.dummified)
            outcome = _differential_sweep(mapping, grid, horizon, explicit=explicit)
            assert outcome.ok and outcome.detail == _exhaustive_detail(grid, horizon)
            steps.append(outcome.steps_checked)
        assert steps == [583, 937, 1252]


class _FreshlyChecked:
    """Answers from the memoising estimator, and checks every answer
    against a new estimator that has never seen a state."""

    def __init__(self, estimator):
        self.estimator = estimator
        self.states = []

    def first_bounds(self, state, condition):
        got = self.estimator.first_bounds(state, condition)
        fresh = ExhaustiveFirstEstimator(
            self.estimator.automaton, self.estimator.grid, self.estimator.window
        )
        assert got == fresh.first_bounds(state, condition)
        self.states.append(state)
        return got


class TestEstimatorMemo:
    def _canonical(self):
        system = ResourceManagerSystem(
            ResourceManagerParams(k=2, c1=F(2), c2=F(2), l=F(1))
        )
        dummified = dummify(system.timed, Interval(1, 1))
        algorithm = time_of_boundmap(dummified)
        requirements = time_of_conditions(
            dummified.automaton, dummify_conditions([system.g1, system.g2]), name="B~"
        )
        estimator = ExhaustiveFirstEstimator(algorithm, grid=F(1, 2), window=F(12))
        return algorithm, requirements, _FreshlyChecked(estimator)

    def test_memoised_first_bounds_match_fresh_searches(self):
        algorithm, requirements, checked = self._canonical()
        outcome = check_mapping_exhaustive(
            CanonicalMapping(algorithm, requirements, checked),
            grid=F(1, 2),
            horizon=F(4),
        )
        assert (outcome.ok, outcome.steps_checked) == (True, 81)
        # The memo answered repeats: fewer searches than containment checks.
        assert 0 < len(checked.estimator._bounds) < len(checked.states)

    def test_memo_keeps_conditions_apart(self):
        # G1 and G2 share Π = {GRANT}, so the canonical check alone would
        # not notice answers filed under the wrong condition; the boundmap
        # conditions all have different Π and S sets.
        algorithm, requirements, checked = self._canonical()
        start = next(iter(algorithm.start_states()))
        states = [start]
        for action, t in discrete_options(algorithm, start, F(1, 2), F(4)):
            states.extend(algorithm.successors(start, action, t))
        answers = set()
        for state in states:
            for cond in algorithm.conditions:
                got = checked.first_bounds(state, cond)
                answers.add(got)
                assert checked.estimator.first_bounds(state, cond) == got
        assert len(answers) > 1


# ----------------------------------------------------------------------
# Outcomes pinned to the untabled kernel's
# ----------------------------------------------------------------------


def _state(astate, now, *preds):
    return TimeState(astate, now, tuple(Prediction(ft, lt) for ft, lt in preds))


class TestPinnedOutcomes:
    def _gap_refutation(self):
        system = ResourceManagerSystem(
            ResourceManagerParams(k=2, c1=F(2), c2=F(3), l=F(1))
        )
        bad = _mutated_requirements(system, g2_interval=Interval(4, 6))
        return system, _mapping_against(system, bad)

    GAP_SOURCE = _state(("clockstate", 2), F(4), (F(6), F(7)), (F(4), F(5)))
    GAP_TARGET = _state(("clockstate", 2), F(4), (0, float("inf")), (F(8), F(10)))
    GAP_DETAIL = (
        "containment fails for mutated after (GRANT, Fraction(4, 1)): target "
        "state {!r} is outside the image of {!r}".format(GAP_TARGET, GAP_SOURCE)
    )

    def test_refuted_mapping_exhaustive(self):
        _system, mapping = self._gap_refutation()
        outcome = check_mapping_exhaustive(mapping, grid=F(1, 2), horizon=F(14))
        assert (outcome.ok, outcome.steps_checked, outcome.detail) == (
            False,
            77,
            self.GAP_DETAIL,
        )
        assert outcome.failing_source_state == self.GAP_SOURCE
        assert outcome.failing_target_state == self.GAP_TARGET
        assert not outcome.exhausted_budget

    @pytest.mark.parametrize("seed,steps", [(0, 5), (1, 7), (2, 6), (3, 8)])
    def test_refuted_mapping_on_runs(self, seed, steps):
        system, mapping = self._gap_refutation()
        run = Simulator(
            system.algorithm, ExtremalStrategy(random.Random(seed))
        ).run(max_steps=200)
        outcome = check_mapping_on_run(mapping, run)
        assert (outcome.ok, outcome.steps_checked, outcome.detail) == (
            False,
            steps,
            self.GAP_DETAIL,
        )
        assert outcome.failing_source_state == self.GAP_SOURCE
        assert outcome.failing_target_state == self.GAP_TARGET

    def test_refuted_initial_condition(self):
        system = ResourceManagerSystem(
            ResourceManagerParams(k=1, c1=F(2), c2=F(3), l=F(1))
        )
        bad = _mutated_requirements(system, g1_interval=Interval(2, 3))
        outcome = check_mapping_exhaustive(
            _mapping_against(system, bad), grid=F(1, 2), horizon=F(8)
        )
        source = _state(("clockstate", 1), 0, (F(2), F(3)), (0, F(1)))
        target = _state(("clockstate", 1), 0, (2, 3), (0, float("inf")))
        assert (outcome.ok, outcome.steps_checked) == (False, 0)
        assert outcome.detail == (
            "initial condition fails for mutated: target state {!r} is outside "
            "the image of {!r}".format(target, source)
        )
        assert outcome.failing_source_state == source
        assert outcome.failing_target_state == target

    def test_chain_on_run(self):
        system = RelaySystem(RelayParams(**RELAY))
        run = Simulator(system.algorithm, UniformStrategy(random.Random(5))).run(
            max_steps=120
        )
        outcome = check_chain_on_run(relay_hierarchy(system), run)
        assert (outcome.ok, outcome.steps_checked, outcome.detail) == (True, 120, "")


def _budget_cut(steps):
    return (True, steps, "budget exhausted after {} steps".format(steps), True)


def _fields(outcome):
    return (outcome.ok, outcome.steps_checked, outcome.detail, outcome.exhausted_budget)


class TestBudgetCuts:
    def _rm(self):
        system = ResourceManagerSystem(ResourceManagerParams(**RM))
        return system, resource_manager_mapping(system)

    def test_step_budget_mid_sweep(self):
        _system, mapping = self._rm()
        outcome = check_mapping_exhaustive(
            mapping, grid=F(1, 4), horizon=F(14), budget=Budget(max_steps=5000)
        )
        assert _fields(outcome) == _budget_cut(5000)

    def test_state_budget_mid_sweep(self):
        _system, mapping = self._rm()
        outcome = check_mapping_exhaustive(
            mapping, grid=F(1, 4), horizon=F(14), budget=Budget(max_states=700)
        )
        assert _fields(outcome) == _budget_cut(2279)

    def test_step_budget_mid_run_check(self):
        system, mapping = self._rm()
        run = Simulator(system.algorithm, UniformStrategy(random.Random(5))).run(
            max_steps=150
        )
        outcome = check_mapping_on_run(mapping, run, budget=Budget(max_steps=61))
        assert _fields(outcome) == _budget_cut(61)

    def test_step_budget_mid_chain_check(self):
        system = RelaySystem(RelayParams(**RELAY))
        run = Simulator(system.algorithm, UniformStrategy(random.Random(5))).run(
            max_steps=120
        )
        outcome = check_chain_on_run(
            relay_hierarchy(system), run, budget=Budget(max_steps=101)
        )
        assert _fields(outcome) == _budget_cut(25)
