"""Memoised step facts of one I/O automaton.

The ``time(A, U)`` step kernel (:mod:`repro.core.time_automaton`) and
the boundmap conditions ``cond(C)`` (:func:`repro.timed.conditions.cond_of_class`)
ask the same few questions of the untimed automaton ``A`` at every
timed step: which actions are enabled in an ``A``-state, whether a
partition class is enabled there, and what the post-states of an
action are.  The answers depend on the ``A``-state alone, so a
:class:`StepTables` computes each of them once and looks it up after
that.

The tables rely on the :class:`~repro.ioa.automaton.IOAutomaton`
purity contract: ``transitions`` (and ``is_enabled``) are pure
functions of their arguments and the automaton does not change after
construction.  One :class:`StepTables` belongs to one automaton object
(:attr:`IOAutomaton.step_tables`) and lives exactly as long; it is
never pickled.  Two threads filling the same entry compute equal
values, so the last write is as good as the first.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Tuple

__all__ = ["StepTables"]


class StepTables:
    """Per-``A``-state memo of enabled actions, class enabledness and
    deduplicated post-states.

    :attr:`actions` is the automaton's signature sorted by ``repr``
    once, the order every enabled-action tuple follows.
    """

    __slots__ = ("automaton", "actions", "_enabled", "_posts")

    def __init__(self, automaton):
        self.automaton = automaton
        self.actions: Tuple[Hashable, ...] = tuple(
            sorted(automaton.signature.all_actions, key=repr)
        )
        # astate -> (enabled actions in `actions` order, same as a set)
        self._enabled: Dict[Hashable, Tuple[Tuple[Hashable, ...], FrozenSet[Hashable]]] = {}
        # (astate, action) -> post-states, duplicates removed, first-seen order
        self._posts: Dict[Tuple[Hashable, Hashable], Tuple[Hashable, ...]] = {}

    def _enabled_entry(self, astate: Hashable):
        entry = self._enabled.get(astate)
        if entry is None:
            is_enabled = self.automaton.is_enabled
            enabled = tuple(a for a in self.actions if is_enabled(astate, a))
            entry = self._enabled[astate] = (enabled, frozenset(enabled))
        return entry

    def enabled(self, astate: Hashable) -> Tuple[Hashable, ...]:
        """The actions enabled in ``astate``, in :attr:`actions` order."""
        return self._enabled_entry(astate)[0]

    def any_enabled(self, astate: Hashable, actions: FrozenSet[Hashable]) -> bool:
        """True when some action of ``actions`` is enabled in ``astate``;
        for a partition class ``C`` this is ``astate ∈ enabled(A, C)``."""
        return not self._enabled_entry(astate)[1].isdisjoint(actions)

    def posts(self, astate: Hashable, action: Hashable) -> Tuple[Hashable, ...]:
        """The distinct post-states of ``action`` from ``astate`` (empty
        when it is not enabled)."""
        key = (astate, action)
        posts = self._posts.get(key)
        if posts is None:
            posts = self._posts[key] = tuple(
                dict.fromkeys(self.automaton.transitions(astate, action))
            )
        return posts
