"""Seeded simulator runs pinned to known timed words.

The simulator collects its states and events and builds the
:class:`TimedSequence` once at the end; these tests pin what the
step-by-step construction produced, so any change in the order of
enabled actions, the dedup of post-states or the strategy's view of
the options shows up as a different word.  Each run is pinned by its
length, its first events and a digest of the whole timed word and
state sequence.
"""

import hashlib
import random
from fractions import Fraction as F

import pytest

from repro.core import time_of_conditions
from repro.errors import SchedulingDeadlockError
from repro.faults import Budget
from repro.faults.perturb import drop_actions
from repro.sim import Simulator, UniformStrategy
from repro.systems import (
    GRANT,
    RelayParams,
    RelaySystem,
    ResourceManagerParams,
    ResourceManagerSystem,
)
from repro.core.time_state import Prediction, TimeState
from repro.timed.conditions import boundmap_conditions
from repro.timed.timed_sequence import timed_word

RM = dict(k=3, c1=F(2), c2=F(3), l=F(1))
RELAY = dict(n=3, d1=F(1), d2=F(2))


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _rm():
    return ResourceManagerSystem(ResourceManagerParams(**RM))


def _relay():
    return RelaySystem(RelayParams(**RELAY))


RM_RUNS = {
    0: ("3e3a4531d6f96c40", "c92a310036693f4e", ("ELSE", F(11, 16)), ("TICK", F(33, 16))),
    1: ("e15c992c5d8e44c5", "22a5248f61a3eeab", ("ELSE", F(1)), ("ELSE", F(35, 16))),
    2: ("8480c27e8a987b6e", "e3e8f9b873f4d023", ("ELSE", F(0)), ("ELSE", F(1))),
}

RELAY_RUNS = {
    0: ("8753796591adb943", "b33f4cae347d2661", ("SIGNAL(0)", F(11, 16)), ("SIGNAL(1)", F(7, 4))),
    1: ("78af76cc6815207a", "b8c5affd35e8a59f", ("NULL", F(1)), ("NULL", F(35, 16))),
    2: ("f713e4b5000bcd9d", "9a6b7613f9232f29", ("NULL", F(0)), ("NULL", F(1))),
}


def _check_run(run, length, pinned):
    word_digest, states_digest, first, third = pinned
    word = timed_word(run)
    assert len(run) == length
    assert (repr(word[0][0]), word[0][1]) == first
    assert (repr(word[2][0]), word[2][1]) == third
    assert _digest(word) == word_digest
    assert _digest(run.states) == states_digest


@pytest.mark.parametrize("seed", sorted(RM_RUNS))
def test_rm_runs_keep_their_timed_words(seed):
    run = Simulator(_rm().algorithm, UniformStrategy(random.Random(seed))).run(
        max_steps=150
    )
    _check_run(run, 150, RM_RUNS[seed])


@pytest.mark.parametrize("seed", sorted(RELAY_RUNS))
def test_relay_runs_keep_their_timed_words(seed):
    run = Simulator(_relay().algorithm, UniformStrategy(random.Random(seed))).run(
        max_steps=120
    )
    _check_run(run, 120, RELAY_RUNS[seed])


def test_budget_cut_run_is_the_pinned_prefix():
    budget = Budget(max_steps=37)
    run = Simulator(_rm().algorithm, UniformStrategy(random.Random(9))).run(
        max_steps=150, budget=budget
    )
    assert budget.exhausted
    assert len(run) == 37
    assert _digest(timed_word(run)) == "1a389842fd9b8091"
    assert _digest(run.last_state) == "10b2eed59a7d1419"


@pytest.mark.parametrize(
    "seed,now,preds,deadline",
    [
        (0, F(121, 16), ((F(153, 16), F(169, 16)), (F(113, 16), F(129, 16))), F(129, 16)),
        (1, F(135, 16), ((F(167, 16), F(183, 16)), (F(135, 16), F(151, 16))), F(151, 16)),
    ],
)
def test_deadlock_mid_run_carries_state_condition_deadline(seed, now, preds, deadline):
    # The nominal boundmap conditions over a base that never grants:
    # LOCAL's deadline comes due with no action able to meet it.
    system = _rm()
    dropped = drop_actions(system.timed, [GRANT]).automaton
    auto = time_of_conditions(
        dropped, boundmap_conditions(system.timed), name="rm-drop-grant"
    )
    with pytest.raises(SchedulingDeadlockError) as info:
        Simulator(auto, UniformStrategy(random.Random(seed))).run(max_steps=200)
    error = info.value
    assert error.state == TimeState(
        ("clockstate", 0), now, tuple(Prediction(ft, lt) for ft, lt in preds)
    )
    assert error.condition == "LOCAL"
    assert error.deadline == deadline
