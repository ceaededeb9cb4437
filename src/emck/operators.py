"""Possibility correspondences, epistemic models, and belief operators.

A model is the tuple (space, algebra, prior, possibility correspondence,
type mapping).  The knowledge operator K and the p-belief operators B^p are
computed from it pointwise; both return events of the same algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .beliefs import Prior, TypeMapping, _level, _type_measurability_violation, as_threshold
from .caching import cached_property
from .errors import InvalidAtoms, NotInducible, NotMeasurable
from .events import Event, SigmaAlgebra


@dataclass(frozen=True)
class PossibilityCorrespondence:
    """P: state -> event; cells[i] is the mask of P at state index i."""

    sigma: SigmaAlgebra
    cells: tuple[int, ...]

    def __post_init__(self):
        if len(self.cells) != len(self.sigma.space):
            raise InvalidAtoms(
                f"expected one cell per state ({len(self.sigma.space)}), "
                f"got {len(self.cells)}"
            )
        for i, mask in enumerate(self.cells):
            if not self.sigma.is_measurable_mask(mask):
                name = self.sigma.space.states[i]
                raise NotMeasurable(
                    f"P({name}) = {self.sigma.space.names_of(mask)} is not in Sigma"
                )

    def cell(self, state: str) -> Event:
        return Event(self.sigma, self.cells[self.sigma.space.index[state]])

    @cached_property
    def is_partition(self) -> bool:
        """True when P is induced by an equivalence relation: reflexive,
        transitive and euclidean."""
        return self._partition_violation is None

    @cached_property
    def _partition_violation(self) -> tuple[str, tuple[int, int]] | None:
        """The first of reflexive, transitive and euclidean that P breaks,
        with its first ``_relational_violation`` pair."""
        for kind in ("reflexive", "transitive", "euclidean"):
            pair = _relational_violation(self.cells, kind)
            if pair is not None:
                return kind, pair
        return None


def _relational_violation(cells: tuple[int, ...], kind: str) -> tuple[int, int] | None:
    """First (omega, omega') breaking a relational property of P: omega not in
    P(omega) (reflexive, with omega' = omega), or omega' in P(omega) with
    P(omega') not inside P(omega) (transitive) or P(omega) not inside
    P(omega') (euclidean)."""
    for i, cell in enumerate(cells):
        if kind == "reflexive":
            if not (cell >> i & 1):
                return i, i
            continue
        rest = cell
        while rest:
            j = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if kind == "transitive" and cells[j] & ~cell:
                return i, j
            if kind == "euclidean" and cell & ~cells[j]:
                return i, j
    return None


def poss_from_partition(
    sigma: SigmaAlgebra, blocks: Iterable[Iterable[str]]
) -> PossibilityCorrespondence:
    """Build the correspondence sending each state to its block."""
    space = sigma.space
    cells = [0] * len(space)
    seen = 0
    for block in blocks:
        mask = space.mask_of(block)
        if mask & seen:
            raise InvalidAtoms("partition blocks overlap")
        seen |= mask
        for i in range(len(space)):
            if mask >> i & 1:
                cells[i] = mask
    if seen != space.full_mask:
        raise InvalidAtoms(
            f"partition misses states {space.names_of(space.full_mask & ~seen)}"
        )
    return PossibilityCorrespondence(sigma, tuple(cells))


@dataclass(frozen=True)
class EpistemicModel:
    """A single-agent model (space, algebra, prior, P, t).

    Construction checks structure only: one algebra throughout, and a
    measurable P and t.  A cell may have prior measure zero; the positive-cell
    assumption mu(P(.)) > 0 is a hypothesis of the claims that need it
    (``has_null_cells``), not a condition of the model.
    """

    sigma: SigmaAlgebra
    prior: Prior
    poss: PossibilityCorrespondence
    types: TypeMapping

    def __post_init__(self):
        self.sigma.check_same(self.prior.sigma, "prior uses a different sigma-algebra")
        self.sigma.check_same(
            self.poss.sigma, "possibility correspondence uses a different sigma-algebra"
        )
        self.sigma.check_same(self.types.sigma, "type mapping uses a different sigma-algebra")
        if not self.sigma.is_powerset:
            space = self.sigma.space
            if hit := _type_measurability_violation(self.types):
                raise NotMeasurable(
                    f"type mapping not measurable: {hit[1]} at {space.states[hit[0]]}"
                )
            if (emask := _poss_measurability_violation(self.poss)) is not None:
                raise NotMeasurable(
                    f"possibility correspondence not measurable at event "
                    f"{space.names_of(emask)}"
                )

    @property  # a search reads it about once per model: a cache would not pay
    def _first_null_cell(self) -> int | None:
        return _first_state(_null_cell_mask(self.prior, self.poss.cells))

    @property
    def has_null_cells(self) -> bool:
        return self._first_null_cell is not None

    @cached_property
    def regular(self) -> bool:
        """Additive probability types plus Invariance, Entailment and
        Self-Evidence; decided once per model."""
        from .axioms import _regular_verdict  # axioms imports this module

        return _regular_verdict(self)

    @cached_property
    def is_discrete(self) -> bool:
        """Powerset algebra with strictly positive weight on every state."""
        return self.sigma.is_powerset and min(self.prior.int_weights[1]) > 0

    @property
    def space(self):
        return self.sigma.space

    def t(self, state: str, event: Event) -> Fraction:
        return self.types.value(state, event)

    def event(self, names: Iterable[str]) -> Event:
        return self.sigma.event(names)


def _first_state(mask: int) -> int | None:
    """The lowest state of a mask; None for the empty mask."""
    return (mask & -mask).bit_length() - 1 if mask else None


def _null_cell_mask(prior: Prior, cells: tuple[int, ...]) -> int:
    """The states omega whose cell ``cells[omega]`` has prior measure zero."""
    table = prior.int_table[1]
    combo_of = prior.sigma.combo_of
    out = 0
    for i, cell in enumerate(cells):
        if table[combo_of(cell)] == 0:
            out |= 1 << i
    return out


def _k_mask(cells: tuple[int, ...], emask: int) -> int:
    out = 0
    bit = 1
    for cell in cells:
        if not cell & ~emask:
            out |= bit
        bit <<= 1
    return out


def _b_mask(tables: tuple[tuple[int, ...], ...], combo: int, level: int) -> int:
    """B^p at the event ``combo``: the states whose entry reaches ``level``.

    ``tables`` and D come from ``TypeMapping.int_tables`` and ``level`` is
    ``_level(p, D)``; for B^1 it is D itself."""
    out = 0
    bit = 1
    for table in tables:
        if table[combo] >= level:
            out |= bit
        bit <<= 1
    return out


def qualitative_belief(model: EpistemicModel, event: Event) -> Event:
    """K(E) = the states whose whole cell lies inside E."""
    model.sigma.check_same(event.sigma, "event belongs to a different sigma-algebra")
    mask = _k_mask(model.poss.cells, event.mask)
    if not model.sigma.is_measurable_mask(mask):
        raise NotMeasurable(
            f"K({event!r}) = {model.sigma.space.names_of(mask)} is not in Sigma"
        )
    return Event(model.sigma, mask)


def p_belief(model: EpistemicModel, p: Fraction, event: Event) -> Event:
    """B^p(E) = the states that assign E probability at least p."""
    p = as_threshold(p)
    model.sigma.check_same(event.sigma, "event belongs to a different sigma-algebra")
    combo = model.sigma.combo_index(event.mask)
    d, tables = model.types.int_tables
    mask = _b_mask(tables, combo, _level(p, d))
    if not model.sigma.is_measurable_mask(mask):
        raise NotMeasurable(
            f"B^{p}({event!r}) = {model.sigma.space.names_of(mask)} is not in Sigma"
        )
    return Event(model.sigma, mask)


def _poss_measurability_violation(poss: PossibilityCorrespondence) -> int | None:
    """The mask of the first event E whose K(E) is not an event."""
    sigma = poss.sigma
    for mask in sigma.event_masks:
        if not sigma.is_measurable_mask(_k_mask(poss.cells, mask)):
            return mask
    return None


def poss_from_operator(
    sigma: SigmaAlgebra,
    operator: Mapping[Event, Event] | Callable[[Event], Event],
) -> PossibilityCorrespondence:
    """Recover the unique P inducing a knowledge operator.

    The operator must satisfy monotonicity, (finite) conjunction, and
    necessitation; those three are exactly what make K(E) = {omega : P(omega)
    subset of E} solvable, with P(omega) the intersection of all events known
    at omega.
    """
    events = sigma.events()
    get = operator.__getitem__ if isinstance(operator, Mapping) else operator
    k_masks = []
    for ev in events:
        image = get(ev)
        sigma.check_same(image.sigma, "operator image uses a different sigma-algebra")
        k_masks.append(image.mask)

    full = sigma.space.full_mask
    if k_masks[len(events) - 1] != full:
        raise NotInducible(
            "necessitation fails: K(Omega) != Omega",
            witness=("necessitation", events[-1].members),
        )
    n_events = len(events)
    for f in range(n_events):
        e = (f - 1) & f
        while True:
            if k_masks[e] & ~k_masks[f]:
                raise NotInducible(
                    f"monotonicity fails: K({events[e]!r}) not inside K({events[f]!r})",
                    witness=("monotonicity", events[e].members, events[f].members),
                )
            if e == 0:
                break
            e = (e - 1) & f
    for e in range(n_events):
        for f in range(n_events):
            joint = k_masks[e] & k_masks[f]
            if joint & ~k_masks[e & f]:
                raise NotInducible(
                    f"conjunction fails at K({events[e]!r}) and K({events[f]!r})",
                    witness=("conjunction", events[e].members, events[f].members),
                )

    cells = []
    for i in range(len(sigma.space)):
        cell = full
        for idx in range(n_events):
            if k_masks[idx] >> i & 1:
                cell &= events[idx].mask
        cells.append(cell)
    poss = PossibilityCorrespondence(sigma, tuple(cells))
    for idx in range(n_events):
        if _k_mask(poss.cells, events[idx].mask) != k_masks[idx]:
            raise NotInducible(
                f"operator is not induced by any correspondence at {events[idx]!r}",
                witness=("round-trip", events[idx].members),
            )
    return poss
