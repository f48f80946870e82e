"""The known-answer table every verdict is checked against.

Written by hand from the paper's theorems and the project's stated
invariants; nothing here is computed by the tool under test.

- Theorem 4.4, resource manager with k=3, c1=2, c2=3, l=1: the first
  GRANT lies in [k*c1, k*c2 + l] = [6, 10] and the gap between
  consecutive GRANTs in [k*c1 - l, k*c2 + l] = [5, 10].
- Theorem 6.4, signal relay with n=3, d1=1, d2=2: SIGNAL_0 to SIGNAL_n
  lies in [n*d1, n*d2] = [3, 6].
- Peterson with step bounds [s1, s2] = [1, 2]: the contended first
  entry takes three winner steps, [3*s1, 3*s2] = [3, 6].
- Fischer with set delay [0, a] and check delay [b, 2b] keeps mutual
  exclusion iff b > a: a=1, b=2 is safe for every n; the "tight"
  variant a = b = 1 is refuted by a reachable double-critical state.
- Untimed Fischer state counts: gen:fischer-2/3/4 = 28/152/752.
- Every shipped mapping and mapping hierarchy holds (Sections 4.3, 6
  and the Theorem 7.1 canonical mapping).
- ``fischer-tight`` is the one deliberately broken shipped system:
  ``analyze`` and ``check`` must refute it and pass everything else.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional, Tuple

RM_PARAMS = {"k": 3, "c1": Fraction(2), "c2": Fraction(3), "l": Fraction(1)}
RM_FIRST_GRANT = (Fraction(6), Fraction(10))
RM_GRANT_GAP = (Fraction(5), Fraction(10))

RELAY_PARAMS = {"n": 3, "d1": Fraction(1), "d2": Fraction(2)}
RELAY_END_TO_END = (Fraction(3), Fraction(6))

PETERSON_STEP = (Fraction(1), Fraction(2))
PETERSON_FIRST_ENTRY = (Fraction(3), Fraction(6))

FISCHER_SAFE = {"a": Fraction(1), "b": Fraction(2)}
FISCHER_TIGHT = {"a": Fraction(1), "b": Fraction(1)}

#: Untimed reachable-state counts; ``None`` means only "complete, not
#: truncated" is known.
GEN_STATES: Dict[str, Optional[int]] = {
    "gen:fischer-2": 28,
    "gen:fischer-3": 152,
    "gen:fischer-4": 752,
    "gen:fischer-5": None,
    "gen:relay_tree-3x2": None,
}

#: Shipped systems whose verdict must be a refutation.
EXPECTED_BROKEN = frozenset({"fischer-tight"})

#: Exact bounds ``analyze`` must derive, per (system, bound label).
DERIVED_BOUNDS = {
    ("rm", "first-grant"): RM_FIRST_GRANT,
    ("rm", "grant-gap"): RM_GRANT_GAP,
    ("relay", "end-to-end"): RELAY_END_TO_END,
    ("peterson", "first-entry"): PETERSON_FIRST_ENTRY,
}

#: Known defects: wrong verdicts the benchmark counts (in
#: ``wrong_verdicts``, ``failed`` and ``ok_share``) without declaring
#: the run's outputs incorrect.  A wrong verdict matches an entry only
#: when it shows the entry's exact signature.
KNOWN_DEFECTS = {
    "check-rm-truncated": (
        "`repro check rm` reports ok: false because the untimed exploration "
        "of rm's base automaton stops at its 4,000-state cap (without time "
        "the manager's timer decreases without bound); every mapping and "
        "the proof battery hold"
    ),
}


def within(interval: Tuple[object, object], value) -> bool:
    lo, hi = interval
    return lo <= value <= hi


def exact(interval: Tuple[object, object], lo, hi) -> bool:
    return (Fraction(lo), Fraction(hi)) == interval


def expected_ok(system: str) -> bool:
    """The verdict ``check``/``analyze``/``lint`` must give for a
    shipped system (True: passes)."""
    return system not in EXPECTED_BROKEN


def check_defect(system: str, entry: dict) -> Optional[str]:
    """The ledger entry a wrong ``check`` verdict matches, if any."""
    mappings_ok = all(m["ok"] for m in entry["mappings"])
    if (
        system == "rm"
        and entry["truncated"]
        and entry["states"] == 4_000
        and mappings_ok
        and entry["battery_ok"]
    ):
        return "check-rm-truncated"
    return None


def fischer_double_critical(state) -> bool:
    """Independent re-check of a Fischer counterexample: the A-state is
    ``(x, locals)`` and at least two processes are critical."""
    _, local_states = state
    return sum(1 for phase in local_states if phase == "critical") >= 2
