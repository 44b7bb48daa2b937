"""Wire-format helpers for cross-process synthesis payloads.

The engine ships everything between processes as plain dicts/lists (see
``RoutingStrategy.to_payload`` / ``MemorylessStrategy.to_payload``); the
only encoding that lives here is the warm-start value map, whose keys are
routing-model states (Rect patterns or label strings) like a strategy's
``values``.

Since the solver became two-sided (interval value iteration), a warm seed
is only meaningful for one *side* of the bracket: reward and ``Pmax``
seeds warm the monotone lower iterate, ``Pmin`` seeds the upper one.  The
payload therefore carries an explicit ``side`` tag, and rehydration
validates it against the side the consuming query needs —
cross-objective reuse of a cached seed (e.g. feeding ``Rmin`` values to a
``Pmin`` solve) now fails loudly at the process boundary instead of being
silently rejected deep inside the solver.
"""

from __future__ import annotations

from repro.modelcheck.strategy import _state_from_token, _state_token

#: Valid bounding sides for a warm-start seed.
SEED_SIDES = ("lower", "upper")


def side_for_objective(objective) -> str:
    """The interval side a warm seed feeds for a query objective.

    ``Pmin`` iterates its contracting bound downward from 1 (the upper
    side); every other objective (``Pmax``, ``Rmin``, ``Rmax``) warms the
    monotone lower iterate.  Accepts an ``Objective`` or ``None`` (the
    engine's "default query" — a reward query, hence lower).
    """
    return "upper" if getattr(objective, "name", None) == "PMIN" else "lower"


def warm_values_to_payload(
    warm_values: dict | None, side: str = "lower"
) -> dict | None:
    """Encode a ``{pattern: value}`` warm-start map with its bounding side."""
    if warm_values is None:
        return None
    if side not in SEED_SIDES:
        raise ValueError(f"unknown warm-seed side {side!r}")
    return {
        "side": side,
        "entries": [[_state_token(s), float(v)] for s, v in warm_values.items()],
    }


def warm_values_from_payload(
    payload: "dict | list | None", expected_side: str | None = None
) -> dict | None:
    """Inverse of :func:`warm_values_to_payload`, validating the side tag.

    ``expected_side`` is the side the consuming solve will feed the seed
    into; a mismatched payload raises ``ValueError`` (a wrong-side seed is
    a caller bug — it would at best be rejected by the solver's Bellman
    validation, at worst mask a query mix-up).  Bare lists (the pre-side
    wire format, still produced by in-memory round-trip callers) default
    to ``"lower"``.
    """
    if payload is None:
        return None
    if isinstance(payload, dict):
        side = payload.get("side")
        if side not in SEED_SIDES:
            raise ValueError(f"warm-seed payload has invalid side {side!r}")
        entries = payload["entries"]
    else:
        side = "lower"
        entries = payload
    if expected_side is not None and side != expected_side:
        raise ValueError(
            f"warm-seed payload is {side}-side but the query needs "
            f"{expected_side}-side values"
        )
    return {_state_from_token(t): float(v) for t, v in entries}
