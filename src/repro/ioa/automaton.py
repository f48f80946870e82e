"""The I/O automaton abstraction (paper Section 2.1).

An :class:`IOAutomaton` is a *description*: a signature, a set of start
states, a transition relation and a partition of the locally controlled
actions.  States are arbitrary hashable values; the automaton object
itself is immutable and holds no execution state, which makes
exploration, simulation and lockstep replay straightforward.

Purity contract: ``transitions`` and ``is_enabled`` are pure functions
of their arguments, and an automaton does not change once built.  The
memoised :attr:`IOAutomaton.step_tables` rely on it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import AutomatonError, NotEnabledError
from repro.ioa.actions import ActionSignature
from repro.ioa.partition import Partition, PartitionClass
from repro.ioa.step_tables import StepTables

__all__ = ["IOAutomaton", "Step"]

#: A step is a (pre-state, action, post-state) triple, as in the paper.
Step = Tuple[Hashable, Hashable, Hashable]


class IOAutomaton(ABC):
    """Abstract base class for I/O automata.

    Subclasses implement :meth:`start_states`, :attr:`signature`,
    :meth:`transitions` and (for timed use) :attr:`partition`.  All
    derived notions — enabledness, steps, enabled classes — are provided
    here.
    """

    #: Optional human-readable name, used in diagnostics.
    name: str = "automaton"

    @property
    @abstractmethod
    def signature(self) -> ActionSignature:
        """The action signature of the automaton."""

    @abstractmethod
    def start_states(self) -> Iterator[Hashable]:
        """Iterate over the start states (``start(A)``)."""

    @abstractmethod
    def transitions(self, state: Hashable, action: Hashable) -> Iterable[Hashable]:
        """All post-states ``s`` with ``(state, action, s) ∈ steps(A)``.

        Must return an empty iterable when the action is not enabled.
        Input actions must be enabled in every state (input enabledness);
        :meth:`check_input_enabled` spot-checks this.
        """

    @property
    def partition(self) -> Partition:
        """``part(A)``: by default, one singleton class per locally
        controlled action.  Subclasses modelling multi-action processes
        override this."""
        return Partition.singletons(sorted(self.signature.locally_controlled, key=repr))

    # ------------------------------------------------------------------
    # Derived notions
    # ------------------------------------------------------------------

    def is_enabled(self, state: Hashable, action: Hashable) -> bool:
        """True if some step ``(state, action, s)`` exists."""
        for _ in self.transitions(state, action):
            return True
        return False

    def enabled_actions(self, state: Hashable) -> List[Hashable]:
        """All actions enabled in ``state`` (signature order is not
        significant; the result is sorted by repr for determinism)."""
        return [
            a
            for a in sorted(self.signature.all_actions, key=repr)
            if self.is_enabled(state, a)
        ]

    def is_step(self, pre: Hashable, action: Hashable, post: Hashable) -> bool:
        """True if ``(pre, action, post) ∈ steps(A)``."""
        return any(post == s for s in self.transitions(pre, action))

    def unique_transition(self, state: Hashable, action: Hashable) -> Hashable:
        """The unique post-state for a deterministic action.

        Raises :class:`NotEnabledError` if no step exists and
        :class:`AutomatonError` if the action is nondeterministic here.
        """
        posts = list(self.transitions(state, action))
        if not posts:
            raise NotEnabledError(
                "action {!r} is not enabled in state {!r} of {}".format(
                    action, state, self.name
                )
            )
        if len(posts) > 1:
            raise AutomatonError(
                "action {!r} is nondeterministic in state {!r} of {} "
                "({} successors)".format(action, state, self.name, len(posts))
            )
        return posts[0]

    def class_enabled(self, state: Hashable, cls: PartitionClass) -> bool:
        """``state ∈ enabled(A, C)``: some action of class ``cls`` is
        enabled."""
        return any(self.is_enabled(state, a) for a in cls.actions)

    def enabled_classes(self, state: Hashable) -> List[PartitionClass]:
        """The partition classes with an enabled action in ``state``."""
        return [c for c in self.partition if self.class_enabled(state, c)]

    @property
    def step_tables(self) -> StepTables:
        """This automaton's memoised step facts (enabled actions, class
        enabledness, post-states per ``A``-state), built on first use
        and kept as long as the automaton object."""
        tables = self.__dict__.get("_step_tables")
        if tables is None:
            tables = self.__dict__["_step_tables"] = StepTables(self)
        return tables

    def __getstate__(self):
        # The tables are a cache of this object's answers: never pickled.
        state = self.__dict__.copy()
        state.pop("_step_tables", None)
        return state

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------

    def validate(self, sample_states: Optional[Iterable[Hashable]] = None) -> None:
        """Cheap well-formedness checks: the partition matches the
        signature, and input enabledness holds on ``sample_states``
        (default: the start states)."""
        self.partition.validate_against(self.signature)
        states = list(sample_states) if sample_states is not None else list(self.start_states())
        self.check_input_enabled(states)

    def check_input_enabled(self, states: Iterable[Hashable]) -> None:
        """Assert that every input action is enabled in each given state."""
        for state in states:
            for action in self.signature.inputs:
                if not self.is_enabled(state, action):
                    raise AutomatonError(
                        "{} is not input-enabled: input {!r} disabled in "
                        "state {!r}".format(self.name, action, state)
                    )

    def __repr__(self) -> str:
        return "<{} {!r}>".format(type(self).__name__, self.name)
