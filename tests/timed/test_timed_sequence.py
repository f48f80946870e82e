"""Tests for timed sequences (Section 2.2)."""

import pytest

from repro.errors import TimedSequenceError
from repro.timed.timed_sequence import TimedEvent, TimedSequence, timed_word


def seq_abc():
    return TimedSequence(
        ("s0", "s1", "s2", "s3"),
        (("a", 1), ("b", 2), ("c", 2)),
    )


class TestConstruction:
    def test_length_mismatch(self):
        with pytest.raises(TimedSequenceError):
            TimedSequence(("s0",), (("a", 1),))

    def test_decreasing_times_rejected(self):
        with pytest.raises(TimedSequenceError):
            TimedSequence(("s0", "s1", "s2"), (("a", 2), ("b", 1)))

    def test_first_time_below_zero_rejected(self):
        # t_0 = 0 by definition, so a negative first event time is invalid.
        with pytest.raises(TimedSequenceError):
            TimedSequence(("s0", "s1"), (("a", -1),))

    def test_equal_times_allowed(self):
        seq_abc()

    def test_tuples_normalised_to_events(self):
        seq = TimedSequence(("s0", "s1"), (("a", 1),))
        assert isinstance(seq.events[0], TimedEvent)


class TestAccessors:
    def test_t_end(self):
        assert seq_abc().t_end == 2
        assert TimedSequence.initial("s").t_end == 0

    def test_paper_indexing(self):
        seq = seq_abc()
        assert seq.time(0) == 0
        assert seq.time(1) == 1
        assert seq.action(1) == "a"
        assert seq.state(0) == "s0"
        assert seq.state(3) == "s3"

    def test_len_counts_events(self):
        assert len(seq_abc()) == 3

    def test_triples(self):
        triples = list(seq_abc().triples())
        assert triples[0][0] == "s0"
        assert triples[0][1].action == "a"
        assert triples[0][2] == "s1"

    def test_first_last_state(self):
        seq = seq_abc()
        assert seq.first_state == "s0" and seq.last_state == "s3"


class TestDerivedSequences:
    def test_ord_strips_times(self):
        ex = seq_abc().ord()
        assert ex.actions == ("a", "b", "c")
        assert ex.states == ("s0", "s1", "s2", "s3")

    def test_timed_schedule(self):
        assert timed_word(seq_abc()) == (("a", 1), ("b", 2), ("c", 2))

    def test_timed_behavior_with_set(self):
        beh = seq_abc().timed_behavior({"a", "c"})
        assert [ev.action for ev in beh] == ["a", "c"]

    def test_timed_behavior_with_predicate(self):
        beh = seq_abc().timed_behavior(lambda act: act != "b")
        assert [ev.action for ev in beh] == ["a", "c"]


class TestEditing:
    def test_extend(self):
        seq = TimedSequence.initial("s0").extend("a", 1, "s1")
        assert len(seq) == 1 and seq.last_state == "s1"

    def test_extend_monotonicity_enforced(self):
        seq = TimedSequence.initial("s0").extend("a", 5, "s1")
        with pytest.raises(TimedSequenceError):
            seq.extend("b", 4, "s2")

    def test_extend_below_time_zero_rejected(self):
        with pytest.raises(TimedSequenceError):
            TimedSequence.initial("s0").extend("a", -1, "s1")

    def test_extend_reports_like_the_constructor(self):
        seq = seq_abc()
        with pytest.raises(TimedSequenceError) as extended:
            seq.extend("d", 1, "s4")
        with pytest.raises(TimedSequenceError) as built:
            TimedSequence(seq.states + ("s4",), seq.events + (("d", 1),))
        assert str(extended.value) == str(built.value)

    def test_extend_equals_the_built_sequence(self):
        seq = TimedSequence.initial("s0")
        for (action, time), state in zip((("a", 1), ("b", 2), ("c", 2)), ("s1", "s2", "s3")):
            longer = seq.extend(action, time, state)
            assert len(seq) + 1 == len(longer)  # the original is untouched
            seq = longer
        assert seq == seq_abc() and hash(seq) == hash(seq_abc())
        assert seq.events == seq_abc().events

    def test_prefix(self):
        assert len(seq_abc().prefix(2)) == 2

    def test_prefix_out_of_range(self):
        with pytest.raises(TimedSequenceError):
            seq_abc().prefix(9)

    def test_is_prefix_of(self):
        full = seq_abc()
        assert full.prefix(1).is_prefix_of(full)
        assert full.is_prefix_of(full)
        assert not full.is_prefix_of(full.prefix(1))

    def test_equality_and_hash(self):
        assert seq_abc() == seq_abc()
        assert hash(seq_abc()) == hash(seq_abc())
        assert seq_abc() != seq_abc().prefix(2)
