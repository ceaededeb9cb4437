"""Report value types returned by checkers and verifiers.

Reports are immutable, JSON-serializable, and deterministic: witnesses are
always the lexicographically first violation found (threshold, then event in
canonical enumeration order, then state order), so identical inputs produce
byte-identical serialized reports.

A check's kernel returns its first violation as bit indices (its "hit");
:func:`_first_violation` turns the hit into a report and
:func:`_witness_at`, the only place a :class:`Witness` is built, turns state
indices and event bits into names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from .errors import AssumptionViolated

if TYPE_CHECKING:
    from .events import SigmaAlgebra

_Hit = TypeVar("_Hit")


def format_rational(q: Fraction) -> str:
    """Render a rational as 'p/q', or a bare integer when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`. Rejects floats and decimals."""
    text = text.strip()
    if "." in text or "e" in text or "E" in text:
        raise ValueError(f"decimal notation is not accepted: {text!r}")
    return Fraction(text)


@dataclass(frozen=True)
class Witness:
    """One point of the quantified domain at which a claim fails.

    Fields that do not apply to a given check are None. ``other_state`` holds
    the second state of pairwise witnesses such as dominance failures.
    """

    state: str | None = None
    event: tuple[str, ...] | None = None
    threshold: Fraction | None = None
    other_state: str | None = None
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "state": self.state,
            "event": list(self.event) if self.event is not None else None,
            "threshold": format_rational(self.threshold) if self.threshold is not None else None,
            "other_state": self.other_state,
            "note": self.note,
        }


def _witness_at(
    sigma: SigmaAlgebra,
    *,
    state: int | None = None,
    other: int | None = None,
    combo: int | None = None,
    mask: int | None = None,
    threshold: Fraction | None = None,
    note: str = "",
) -> Witness:
    """The witness naming state indices ``state``/``other`` and the event
    given by its canonical index ``combo`` or by its state mask ``mask``."""
    space = sigma.space
    if combo is not None:
        mask = sigma.event_masks[combo]
    return Witness(
        state=None if state is None else space.states[state],
        event=None if mask is None else space.names_of(mask),
        threshold=threshold,
        other_state=None if other is None else space.states[other],
        note=note,
    )


def _witnesses(hit: _Hit | None, witness_of: Callable[[_Hit], Witness]) -> tuple[Witness, ...]:
    """No witness for a kernel that found nothing, else the one for its hit."""
    return () if hit is None else (witness_of(hit),)


def _first_violation(
    name: str, hit: _Hit | None, scope: str, witness_of: Callable[[_Hit], Witness]
) -> CheckReport:
    """The report of a check decided by one kernel: it passes iff the kernel
    found no violation, and otherwise names the first one."""
    return CheckReport(name, hit is None, _witnesses(hit, witness_of), scope)


def _precondition(holds: bool, diagnostic: bool, message: str) -> str:
    """A verifier's scope suffix for its preconditions: "" when they hold
    (``holds``), a diagnostic mark when they fail and ``diagnostic`` is set;
    otherwise raise AssumptionViolated(message)."""
    if holds:
        return ""
    if diagnostic:
        return " (diagnostic: preconditions not met)"
    raise AssumptionViolated(message)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a single axiom or property check.

    ``scope`` describes the quantified domain that was exhausted, ``children``
    carry the sub-checks of compound checks (e.g. regularity).
    """

    name: str
    passed: bool
    witnesses: tuple[Witness, ...] = ()
    scope: str = ""
    children: tuple["CheckReport", ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "passed": self.passed,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "scope": self.scope,
            "children": [c.to_dict() for c in self.children],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class HypothesisResult:
    """Named hypothesis of a theorem together with its re-verified verdict."""

    name: str
    holds: bool

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "holds": self.holds}


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying a theorem statement on one model.

    For an iff-claim, ``lhs`` and ``rhs`` are the two sides evaluated
    independently and ``equivalent`` records whether they agree.  Claims that
    only assert conclusions under hypotheses leave ``lhs``/``equivalent`` as
    None and put the conclusion verdict in ``rhs`` (or in ``checks``).
    Multi-part statements carry one nested report per part.
    """

    claim: str
    lhs: bool | None = None
    rhs: bool | None = None
    equivalent: bool | None = None
    hypotheses: tuple[HypothesisResult, ...] = ()
    witnesses: tuple[Witness, ...] = ()
    parts: tuple["VerificationReport", ...] = ()
    checks: tuple[CheckReport, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def hypotheses_met(self) -> bool:
        return all(h.holds for h in self.hypotheses)

    @property
    def falsified(self) -> bool:
        """True when some asserted part of the claim fails on this model."""
        if self.equivalent is not None and not self.equivalent:
            return True
        if self.equivalent is None and self.lhs is not None and self.rhs is not None:
            # only the forward implication is asserted in this configuration
            if self.lhs and not self.rhs:
                return True
        if self.lhs is None and self.rhs is False:
            return True
        if any(p.hypotheses_met and p.falsified for p in self.parts):
            return True
        if any(not c.passed for c in self.checks):
            return True
        return False

    @property
    def status(self) -> str:
        if not self.hypotheses_met:
            return "hypothesis-not-met"
        return "falsified" if self.falsified else "verified"

    def to_dict(self) -> dict[str, Any]:
        return {
            "claim": self.claim,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "equivalent": self.equivalent,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "witnesses": [w.to_dict() for w in self.witnesses],
            "parts": [p.to_dict() for p in self.parts],
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
            "status": self.status,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)
