"""Tests for the per-automaton step tables."""

import pickle
from fractions import Fraction as F

from repro.core.time_automaton import time_of_boundmap, time_of_conditions
from repro.ioa.actions import ActionSignature
from repro.ioa.partition import Partition, PartitionClass
from repro.ioa.table import TableAutomaton
from repro.timed.boundmap import Boundmap, TimedAutomaton
from repro.timed.conditions import boundmap_conditions
from repro.timed.interval import Interval


class CountingTable(TableAutomaton):
    """A table automaton that counts the questions it is asked."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.transition_calls = 0
        self.enabled_calls = 0

    def transitions(self, state, action):
        self.transition_calls += 1
        return super().transitions(state, action)

    def is_enabled(self, state, action):
        self.enabled_calls += 1
        return super().is_enabled(state, action)


def branching():
    sig = ActionSignature(inputs={"poke"}, outputs={"b", "a"})
    return CountingTable(
        "branching",
        sig,
        start=["s"],
        steps=[
            ("s", "a", "t"),
            ("s", "a", "u"),
            ("s", "a", "t"),  # a duplicate post-state
            ("s", "poke", "s"),
            ("t", "poke", "t"),
            ("t", "b", "s"),
            ("u", "poke", "u"),
        ],
        partition=Partition([PartitionClass("A", {"a"}), PartitionClass("B", {"b"})]),
    )


class TestStepTables:
    def test_actions_sorted_by_repr_once(self):
        tables = branching().step_tables
        assert tables.actions == ("a", "b", "poke")

    def test_enabled_in_action_order_and_memoised(self):
        auto = branching()
        tables = auto.step_tables
        assert tables.enabled("s") == ("a", "poke")
        asked = auto.enabled_calls
        assert tables.enabled("s") == ("a", "poke")
        assert auto.enabled_calls == asked
        assert list(tables.enabled("t")) == auto.enabled_actions("t")

    def test_any_enabled_reads_the_same_entry(self):
        auto = branching()
        tables = auto.step_tables
        assert tables.any_enabled("s", frozenset({"a"}))
        assert not tables.any_enabled("s", frozenset({"b"}))
        asked = auto.enabled_calls
        assert tables.any_enabled("t", frozenset({"b"}))
        assert not tables.any_enabled("t", frozenset({"a"}))
        assert auto.enabled_calls == asked + len(tables.actions)

    def test_posts_deduplicated_and_memoised(self):
        auto = branching()
        tables = auto.step_tables
        assert tables.posts("s", "a") == ("t", "u")
        assert tables.posts("s", "b") == ()
        asked = auto.transition_calls
        assert tables.posts("s", "a") == ("t", "u")
        assert tables.posts("s", "b") == ()
        assert auto.transition_calls == asked

    def test_one_table_per_automaton_object(self):
        first, second = branching(), branching()
        assert first.step_tables is first.step_tables
        assert first.step_tables is not second.step_tables

    def test_tables_are_not_pickled(self):
        auto = branching()
        auto.step_tables.posts("s", "a")
        assert "_step_tables" in auto.__dict__
        copy = pickle.loads(pickle.dumps(auto))
        assert "_step_tables" not in copy.__dict__
        assert copy.step_tables.posts("s", "a") == ("t", "u")
        assert copy.step_tables is not auto.step_tables


class TestSharedBySourceAndTarget:
    def test_time_automata_over_one_base_share_the_tables(self):
        auto = branching()
        timed = TimedAutomaton(auto, Boundmap({"A": Interval(1, 2), "B": Interval(0, 3)}))
        source = time_of_boundmap(timed)
        target = time_of_conditions(auto, boundmap_conditions(timed)[:1], name="target")
        start = source.initial("s")
        posts = source.successors(start, "a", F(1))
        asked = (auto.transition_calls, auto.enabled_calls)
        # The target asks about the same A-steps: every answer is a lookup.
        target_posts = target.successors(target.initial("s"), "a", F(1))
        assert [p.astate for p in target_posts] == [p.astate for p in posts] == ["t", "u"]
        assert (auto.transition_calls, auto.enabled_calls) == asked

    def test_time_automaton_pickles_without_tables(self):
        auto = branching()
        plain = time_of_conditions(auto, [], name="plain")
        plain.schedulable_actions(plain.initial("s"))
        copy = pickle.loads(pickle.dumps(plain))
        assert copy._pi_masks == {}
        assert copy.schedulable_actions(copy.initial("s")) == plain.schedulable_actions(
            plain.initial("s")
        )
