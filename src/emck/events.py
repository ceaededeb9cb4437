"""Finite state spaces, sigma-algebras given by atom partitions, and events.

States live in a fixed declaration order and subsets of the space are
bitmasks over that order (bit i = state i).  A sigma-algebra on a finite
space is determined by its partition into atoms; its events are exactly the
unions of atoms, so a k-atom algebra has 2^k events, enumerable in a
canonical order (atom-combination counting: the empty event first, then
atom 0, atom 1, their union, ...).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .caching import cached_property
from .errors import (
    AlgebraMismatch,
    DuplicateState,
    InvalidAtoms,
    InvalidStateName,
    NotMeasurable,
    TooManyAtoms,
)

# Exhaustive "for all events" loops are 2^k; keep k small by default.
DEFAULT_MAX_ATOMS = 16
ENV_MAX_ATOMS = "EMCK_MAX_ATOMS"


def max_atoms_limit() -> int:
    """The atom cap for exhaustive event enumeration (env-overridable)."""
    raw = os.environ.get(ENV_MAX_ATOMS)
    if raw is None:
        return DEFAULT_MAX_ATOMS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_MAX_ATOMS} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{ENV_MAX_ATOMS} must be positive, got {value}")
    return value


def check_name(name, kind: str) -> None:
    """Refuse a ``kind`` ("state", "agent" or "event") name that the model
    text cannot carry: it has no quoting, so a name is a nonempty string
    holding no whitespace and none of ``#:;={}``."""
    if not isinstance(name, str) or not name:
        raise InvalidStateName(f"{kind} names must be nonempty strings, got {name!r}")
    if any(c.isspace() or c in "#:;={}" for c in name):
        raise InvalidStateName(f"{kind} name {name!r} contains whitespace or one of #:;={{}}")


@dataclass(frozen=True)
class StateSpace:
    """An ordered tuple of distinct state names, each one the model text can
    carry (:func:`check_name`)."""

    states: tuple[str, ...]

    def __post_init__(self):
        if not self.states:
            raise InvalidStateName("a state space needs at least one state")
        seen = set()
        for name in self.states:
            check_name(name, "state")
            if name in seen:
                raise DuplicateState(f"duplicate state name {name!r}")
            seen.add(name)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self) -> Iterator[str]:
        return iter(self.states)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.states)}

    @property
    def full_mask(self) -> int:
        return (1 << len(self.states)) - 1

    def mask_of(self, names: Iterable[str]) -> int:
        """Bitmask of a set of states given by name."""
        mask = 0
        for name in names:
            try:
                mask |= 1 << self.index[name]
            except KeyError:
                raise KeyError(f"unknown state {name!r}") from None
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(s for i, s in enumerate(self.states) if mask >> i & 1)


def make_space(names: Iterable[str]) -> StateSpace:
    return StateSpace(tuple(names))


@dataclass(frozen=True)
class SigmaAlgebra:
    """A sigma-algebra on a finite space, stored as its atom partition.

    Atoms are bitmasks ordered by their smallest member state, so equal
    partitions always compare equal regardless of construction order.
    """

    space: StateSpace
    atoms: tuple[int, ...]

    def __post_init__(self):
        full = self.space.full_mask
        union = 0
        for atom in self.atoms:
            if atom == 0:
                raise InvalidAtoms("atoms must be nonempty")
            if atom & ~full:
                raise InvalidAtoms(f"atom mask {atom:#x} leaves the state space")
            if atom & union:
                raise InvalidAtoms("atoms must be pairwise disjoint")
            union |= atom
        if union != full:
            missing = self.space.names_of(full & ~union)
            raise InvalidAtoms(f"atoms do not cover the space, missing {missing}")
        ordered = tuple(sorted(self.atoms, key=lambda m: (m & -m)))
        if ordered != self.atoms:
            object.__setattr__(self, "atoms", ordered)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @cached_property
    def is_powerset(self) -> bool:
        return all(atom.bit_count() == 1 for atom in self.atoms)

    @cached_property
    def atom_index_of_state(self) -> tuple[int, ...]:
        out = [0] * len(self.space)
        for j, atom in enumerate(self.atoms):
            for i in range(len(self.space)):
                if atom >> i & 1:
                    out[i] = j
        return tuple(out)

    def check_same(self, other: "SigmaAlgebra", message: str) -> None:
        """Raise AlgebraMismatch(message) unless ``other`` is this algebra."""
        if other is not self and other != self:
            raise AlgebraMismatch(message)

    def is_measurable_mask(self, mask: int) -> bool:
        """True when the mask is a union of atoms."""
        if mask & ~self.space.full_mask:
            return False
        for atom in self.atoms:
            overlap = mask & atom
            if overlap and overlap != atom:
                return False
        return True

    def is_measurable(self, names: Iterable[str]) -> bool:
        return self.is_measurable_mask(self.space.mask_of(names))

    def combo_index(self, mask: int) -> int:
        """Canonical index of a measurable mask among the 2^k events."""
        idx = 0
        rest = mask
        for j, atom in enumerate(self.atoms):
            if mask & atom:
                if (mask & atom) != atom:
                    raise NotMeasurable(
                        f"{self.space.names_of(mask)} is not a union of atoms"
                    )
                idx |= 1 << j
                rest &= ~atom
        if rest:
            raise NotMeasurable(f"mask {mask:#x} leaves the state space")
        return idx

    @cached_property
    def combo_of(self) -> Callable[[int], int]:
        """The mask -> canonical index selector for hot loops.

        On a powerset algebra the canonical order is the mask order, so this
        is the bare identity rather than :meth:`combo_index`.
        """
        if self.is_powerset:
            return lambda mask: mask
        return self.combo_index

    def cover_combo(self, mask: int) -> int:
        """Canonical index of the smallest event containing the given state set."""
        if self.is_powerset:
            return mask
        covered = 0
        for atom in self.atoms:
            if atom & mask:
                covered |= atom
        return self.combo_index(covered)

    def mask_of_combo(self, idx: int) -> int:
        mask = 0
        for j, atom in enumerate(self.atoms):
            if idx >> j & 1:
                mask |= atom
        return mask

    @cached_property
    def event_masks(self) -> tuple[int, ...]:
        """All event masks in canonical enumeration order (index = combo)."""
        if self.n_atoms > max_atoms_limit():
            raise TooManyAtoms(
                f"{self.n_atoms} atoms exceed the enumeration cap "
                f"{max_atoms_limit()} (override with {ENV_MAX_ATOMS})"
            )
        return tuple(self.mask_of_combo(i) for i in range(1 << self.n_atoms))

    def event(self, names: Iterable[str]) -> "Event":
        mask = self.space.mask_of(names)
        if not self.is_measurable_mask(mask):
            raise NotMeasurable(f"{tuple(names)} is not a union of atoms")
        return Event(self, mask)

    def event_from_mask(self, mask: int) -> "Event":
        if not self.is_measurable_mask(mask):
            raise NotMeasurable(
                f"{self.space.names_of(mask & self.space.full_mask)} is not a union of atoms"
            )
        return Event(self, mask)

    @property
    def empty_event(self) -> "Event":
        return Event(self, 0)

    @property
    def full_event(self) -> "Event":
        return Event(self, self.space.full_mask)

    def events(self) -> tuple["Event", ...]:
        """Every event, in canonical order. Raises TooManyAtoms above the cap."""
        return tuple(Event(self, m) for m in self.event_masks)


def sigma_powerset(space: StateSpace) -> SigmaAlgebra:
    return SigmaAlgebra(space, tuple(1 << i for i in range(len(space))))


def sigma_from_atoms(space: StateSpace, blocks: Iterable[Iterable[str]]) -> SigmaAlgebra:
    return SigmaAlgebra(space, tuple(space.mask_of(block) for block in blocks))


def is_measurable(sigma: SigmaAlgebra, subset: Iterable[str]) -> bool:
    return sigma.is_measurable(subset)


@dataclass(frozen=True)
class Event:
    """A measurable subset of the space, tied to its sigma-algebra."""

    sigma: SigmaAlgebra
    mask: int

    @property
    def members(self) -> tuple[str, ...]:
        return self.sigma.space.names_of(self.mask)

    def __contains__(self, state: str) -> bool:
        return bool(self.mask >> self.sigma.space.index[state] & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __repr__(self) -> str:
        return "{" + ",".join(self.members) + "}"

    def _check_same(self, other: "Event") -> None:
        self.sigma.check_same(other.sigma, "events belong to different sigma-algebras")

    def complement(self) -> "Event":
        return Event(self.sigma, self.sigma.space.full_mask & ~self.mask)

    def intersect(self, other: "Event") -> "Event":
        self._check_same(other)
        return Event(self.sigma, self.mask & other.mask)

    def union(self, other: "Event") -> "Event":
        self._check_same(other)
        return Event(self.sigma, self.mask | other.mask)

    def difference(self, other: "Event") -> "Event":
        self._check_same(other)
        return Event(self.sigma, self.mask & ~other.mask)

    def symmetric_difference(self, other: "Event") -> "Event":
        self._check_same(other)
        return Event(self.sigma, self.mask ^ other.mask)

    def is_subset(self, other: "Event") -> bool:
        self._check_same(other)
        return not (self.mask & ~other.mask)

    def is_empty(self) -> bool:
        return self.mask == 0

    __invert__ = complement
    __and__ = intersect
    __or__ = union
    __sub__ = difference
    __xor__ = symmetric_difference
    __le__ = is_subset
