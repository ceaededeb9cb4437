"""Priors, general set functions, type mappings, and the order sets they induce.

All numeric values are exact rationals.  A set function stores one value per
event of its algebra, indexed by the canonical event order, so "for all
events" is a literal loop over the table.  Nothing here assumes additivity:
capacities and arbitrary [0,1]-valued tables are first-class, and their
properties are established by checks, never by construction: each flag of
``SetFunction`` (``normalized``, ``monotone``, ``additive``, ``convex``,
``one_intersection``) is its own cached local check, and ``classification``
gathers the five.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping

from .caching import cached_property
from .errors import (
    ConditioningOnNull,
    IncompleteCapacity,
    NotMeasurable,
    PriorNotNormalized,
    RationalOutOfRange,
)
from .events import Event, SigmaAlgebra
from .reports import CheckReport, _first_violation, _witness_at

ZERO = Fraction(0)
ONE = Fraction(1)


def _subset_sums(weights: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Sum of the atom weights in every event, indexed by canonical event order."""
    table = [ZERO] * (1 << len(weights))
    for idx in range(1, len(table)):
        low = idx & -idx
        table[idx] = table[idx ^ low] + weights[low.bit_length() - 1]
    return tuple(table)


def _integer_table(values: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    """(D, every value times D), D the least common denominator of the values."""
    d = lcm(*(v.denominator for v in values))
    return d, tuple(v.numerator * (d // v.denominator) for v in values)


def _rescale(scaled: tuple[int, tuple[int, ...]], d: int) -> tuple[int, ...]:
    """An ``_integer_table`` (D', ints) as ints times D, for D a multiple of D'."""
    di, ints = scaled
    return ints if di == d else tuple(n * (d // di) for n in ints)


def _thresholds(d: int, tables: Iterable[tuple[int, ...]]) -> tuple[Fraction, ...]:
    """{0, 1} plus every value n / D of the integer tables, ascending."""
    return tuple(Fraction(n, d) for n in sorted({0, d}.union(*tables)))


def _level(p: Fraction, d: int) -> int:
    """ceil(p * d).  For integers n and d > 0 and any rational p, n >= p * d
    iff n >= ceil(p * d): an integer table compares against this level
    exactly."""
    return -(-p.numerator * d // p.denominator)


def as_fraction(value) -> Fraction:
    """Coerce to an exact rational; floats are rejected to keep arithmetic exact."""
    if isinstance(value, float):
        raise TypeError(f"floats are not exact, got {value!r}; use Fraction or 'p/q'")
    return Fraction(value)


def as_threshold(value) -> Fraction:
    """Coerce a belief threshold p with :func:`as_fraction`; it must lie in [0, 1]."""
    p = as_fraction(value)
    if p < 0 or p > 1:
        raise RationalOutOfRange(f"belief threshold {p} outside [0, 1]")
    return p


@dataclass(frozen=True)
class Prior:
    """A countably additive probability measure, stored as one weight per atom."""

    sigma: SigmaAlgebra
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        weights = tuple(as_fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != self.sigma.n_atoms:
            raise PriorNotNormalized(
                f"expected {self.sigma.n_atoms} atom weights, got {len(weights)}"
            )
        if any(w < 0 for w in weights):
            raise PriorNotNormalized("prior weights must be nonnegative")
        if sum(weights) != 1:
            raise PriorNotNormalized(f"prior weights sum to {sum(weights)}, not 1")

    @cached_property
    def combo_table(self) -> tuple[Fraction, ...]:
        """Measure of every event, indexed by canonical event order."""
        return _subset_sums(self.weights)

    @cached_property
    def int_table(self) -> tuple[int, tuple[int, ...]]:
        """(D, ``combo_table`` times D), its exact integer form."""
        return _integer_table(self.combo_table)

    def measure_mask(self, mask: int) -> Fraction:
        return self.combo_table[self.sigma.combo_index(mask)]

    def measure_of(self, event: Event) -> Fraction:
        self.sigma.check_same(event.sigma, "event and prior use different sigma-algebras")
        return self.measure_mask(event.mask)

    def to_set_function(self) -> "SetFunction":
        return SetFunction(self.sigma, self.combo_table)


def uniform_prior(sigma: SigmaAlgebra) -> Prior:
    k = sigma.n_atoms
    return Prior(sigma, tuple(Fraction(1, k) for _ in range(k)))


def measure_of(prior: Prior, event: Event) -> Fraction:
    return prior.measure_of(event)


def conditional(prior: Prior, e: Event, given: Event) -> Fraction:
    """mu(e | given); conditioning on a null event is undefined."""
    denom = prior.measure_of(given)
    if denom == 0:
        raise ConditioningOnNull(f"mu({given!r}) = 0")
    return prior.measure_of(e.intersect(given)) / denom


def almost_contains(prior: Prior, e: Event, f: Event) -> bool:
    """e is contained in f up to a mu-null set: mu(e \\ f) = 0."""
    return prior.measure_of(e.difference(f)) == 0


def almost_equal(prior: Prior, e: Event, f: Event) -> bool:
    """e and f agree up to a mu-null set: mu(e symdiff f) = 0."""
    return prior.measure_of(e.symmetric_difference(f)) == 0


def expectation(prior: Prior, f: Callable[[str], Fraction] | Mapping[str, Fraction]) -> Fraction:
    """Integral of a measurable (atom-constant) function against the prior."""
    get = f.__getitem__ if isinstance(f, Mapping) else f
    space = prior.sigma.space
    total = ZERO
    for j, atom in enumerate(prior.sigma.atoms):
        members = space.names_of(atom)
        value = as_fraction(get(members[0]))
        for other in members[1:]:
            if as_fraction(get(other)) != value:
                raise NotMeasurable(
                    f"function is not constant on atom {members}: "
                    f"f({members[0]})={value} but f({other})={get(other)}"
                )
        total += value * prior.weights[j]
    return total


@dataclass(frozen=True)
class Classification:
    """Which structural properties a set function satisfies on its algebra."""

    normalized: bool
    monotone: bool
    additive: bool
    convex: bool
    one_intersection: bool


@dataclass(frozen=True)
class SetFunction:
    """An arbitrary [0,1]-valued function on the events of a sigma-algebra.

    table[i] is the value at the i-th event in canonical order.  The value at
    the empty event is *not* assumed to be zero.
    """

    sigma: SigmaAlgebra
    table: tuple[Fraction, ...]

    def __post_init__(self):
        table = tuple(as_fraction(v) for v in self.table)
        object.__setattr__(self, "table", table)
        if len(table) != (1 << self.sigma.n_atoms):
            raise IncompleteCapacity(
                f"expected {1 << self.sigma.n_atoms} event values, got {len(table)}"
            )
        for v in table:
            if v < 0 or v > 1:
                raise RationalOutOfRange(f"set-function value {v} outside [0, 1]")

    def value(self, event: Event) -> Fraction:
        self.sigma.check_same(event.sigma, "event and set function use different sigma-algebras")
        return self.table[self.sigma.combo_index(event.mask)]

    @cached_property
    def int_table(self) -> tuple[int, tuple[int, ...]]:
        """(D, ``table`` times D), its exact integer form."""
        return _integer_table(self.table)

    # Each flag is a local check on the Boolean lattice of atom combos, where
    # bit j of an event index stands for atom j: a condition on every pair of
    # events follows from the same condition on covering or elementary pairs
    # (Shapley 1971; Grabisch 2016).

    @cached_property
    def normalized(self) -> bool:
        """v(empty) = 0 and v(Omega) = 1."""
        return self.table[0] == 0 and self.table[-1] == 1

    @cached_property
    def monotone(self) -> bool:
        """v(S) <= v(S u {j}) on every covering pair, O(k 2^k)."""
        table = self.table
        return all(
            table[s] <= table[s | 1 << j]
            for j in range(self.sigma.n_atoms)
            for s in range(len(table))
            if not s >> j & 1
        )

    @cached_property
    def additive(self) -> bool:
        """v equals the subset sums of its singleton values, which forces
        v(empty) = 0, O(k 2^k)."""
        table = self.table
        return table == _subset_sums(tuple(table[1 << j] for j in range(self.sigma.n_atoms)))

    @cached_property
    def convex(self) -> bool:
        """Supermodular: v(S u {i, j}) + v(S) >= v(S u {i}) + v(S u {j}) on
        every elementary pair, O(k^2 2^k)."""
        table = self.table
        k = self.sigma.n_atoms
        return all(
            table[s | 1 << i | 1 << j] + table[s] >= table[s | 1 << i] + table[s | 1 << j]
            for i in range(k)
            for j in range(i + 1, k)
            for s in range(len(table))
            if not s & (1 << i | 1 << j)
        )

    @cached_property
    def one_intersection(self) -> bool:
        """The events of value 1 are closed under pairwise intersection."""
        ones = [e for e, v in enumerate(self.table) if v == 1]
        closed = set(ones)
        return all(e & f in closed for a, e in enumerate(ones) for f in ones[a + 1 :])

    @property
    def classification(self) -> Classification:
        """All five flags at once."""
        return Classification(
            self.normalized, self.monotone, self.additive, self.convex, self.one_intersection
        )


def set_function_from_atom_weights(
    sigma: SigmaAlgebra, weights: Iterable[Fraction]
) -> SetFunction:
    """The additive set function with the given atom weights (weights sum <= 1
    is not required; the table must still stay inside [0,1])."""
    ws = tuple(as_fraction(w) for w in weights)
    if len(ws) != sigma.n_atoms:
        raise IncompleteCapacity(f"expected {sigma.n_atoms} atom weights, got {len(ws)}")
    return SetFunction(sigma, _subset_sums(ws))


def set_function_from_values(
    sigma: SigmaAlgebra, values: Mapping[Event, Fraction] | Mapping[int, Fraction]
) -> SetFunction:
    """Build a set function from an explicit event -> value map (must be total)."""
    table: list[Fraction | None] = [None] * (1 << sigma.n_atoms)
    for key, v in values.items():
        mask = key.mask if isinstance(key, Event) else key
        table[sigma.combo_index(mask)] = as_fraction(v)
    for idx, entry in enumerate(table):
        if entry is None:
            names = sigma.space.names_of(sigma.event_masks[idx])
            raise IncompleteCapacity(f"missing value for event {names}")
    return SetFunction(sigma, tuple(table))  # type: ignore[arg-type]


def dirac_type(sigma: SigmaAlgebra, state: str) -> SetFunction:
    """The 0/1 set function putting all mass on the atom of ``state``."""
    i = sigma.space.index[state]
    table = tuple(
        ONE if mask >> i & 1 else ZERO for mask in sigma.event_masks
    )
    return SetFunction(sigma, table)


@dataclass(frozen=True)
class TypeMapping:
    """One set function per state: state omega's beliefs t(omega, .)."""

    sigma: SigmaAlgebra
    per_state: tuple[SetFunction, ...]

    def __post_init__(self):
        if len(self.per_state) != len(self.sigma.space):
            raise IncompleteCapacity(
                f"expected one set function per state "
                f"({len(self.sigma.space)}), got {len(self.per_state)}"
            )
        for sf in self.per_state:
            self.sigma.check_same(sf.sigma, "type mapping mixes sigma-algebras")

    def value(self, state: str, event: Event) -> Fraction:
        return self.per_state[self.sigma.space.index[state]].value(event)

    @cached_property
    def int_tables(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(D, every state's table times D), D the least common denominator
        of every value: the one table form the verdict kernels read.  B^p
        compares it with the level ``_level(p, D)``, and t(omega, E) = 1
        reads as an entry equal to D."""
        scaled = [sf.int_table for sf in self.per_state]
        d = lcm(*(di for di, _ in scaled))
        return d, tuple(_rescale(s, d) for s in scaled)

    @cached_property
    def order_masks(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(up, down, bracket) masks per state index.

        up[i] holds the states whose type pointwise dominates state i's type,
        down[i] those dominated by it, bracket[i] their intersection (the
        states with identical type).
        """
        n = len(self.per_state)
        tables = self.int_tables[1]
        dominates = [[False] * n for _ in range(n)]
        for i in range(n):
            ti = tables[i]
            for j in range(n):
                tj = tables[j]
                dominates[i][j] = ti is tj or all(a <= b for a, b in zip(ti, tj))
        ups, downs, brackets = [], [], []
        for i in range(n):
            up = 0
            down = 0
            for j in range(n):
                if dominates[i][j]:
                    up |= 1 << j
                if dominates[j][i]:
                    down |= 1 << j
            ups.append(up)
            downs.append(down)
            brackets.append(up & down)
        return tuple(ups), tuple(downs), tuple(brackets)

    @cached_property
    def thresholds(self) -> tuple[Fraction, ...]:
        """{0, 1} plus every value attained by some t(omega, E), ascending.

        For any p in [0, 1], B^p(E) equals B^v(E) where v is the smallest
        threshold >= p (1 is always present), so a universally quantified
        statement over p in [0, 1] holds iff it holds at these finitely many
        values; see the step-function note in the README.
        """
        return _thresholds(*self.int_tables)


def type_mapping_constant(sigma: SigmaAlgebra, setfn: SetFunction) -> TypeMapping:
    return TypeMapping(sigma, tuple(setfn for _ in range(len(sigma.space))))


def _order_event(types: TypeMapping, state: str, which: int) -> Event:
    mask = types.order_masks[which][types.sigma.space.index[state]]
    if not types.sigma.is_measurable_mask(mask):
        names = types.sigma.space.names_of(mask)
        kind = ("upper", "lower", "bracket")[which]
        raise NotMeasurable(f"{kind} order set {names} of state {state!r} is not in Sigma")
    return Event(types.sigma, mask)


def up_set(types: TypeMapping, state: str) -> Event:
    """States whose type pointwise dominates t(state, .)."""
    return _order_event(types, state, 0)


def down_set(types: TypeMapping, state: str) -> Event:
    """States whose type is pointwise dominated by t(state, .)."""
    return _order_event(types, state, 1)


def bracket(types: TypeMapping, state: str) -> Event:
    """States with exactly the same type as ``state`` (up intersect down)."""
    return _order_event(types, state, 2)


def _type_measurability_violation(
    types: TypeMapping,
) -> tuple[int, int | None, int, str] | None:
    """(state, other state, event mask, note) of the first event on which
    t(., E) is not constant on an atom, or of the first order set outside
    the algebra; None when the type mapping is measurable."""
    sigma = types.sigma
    tables = types.int_tables[1]
    atom_members = [
        [i for i in range(len(tables)) if atom >> i & 1] for atom in sigma.atoms
    ]
    for combo, mask in enumerate(sigma.event_masks):
        for first, *rest in atom_members:
            for other in rest:
                if tables[other][combo] != tables[first][combo]:
                    return first, other, mask, "t(., E) not constant on atom"
    ups, downs, _ = types.order_masks
    for i in range(len(tables)):
        for kind, mask in (("upper", ups[i]), ("lower", downs[i])):
            if not sigma.is_measurable_mask(mask):
                return i, None, mask, f"{kind} order set not in Sigma"
    return None


def type_measurability_check(types: TypeMapping) -> CheckReport:
    """t(., E) must be constant on atoms for every E, and every up/down set
    must itself be an event of the algebra."""
    sigma = types.sigma
    scope = (
        f"all {1 << sigma.n_atoms} events x {sigma.n_atoms} atoms, "
        f"plus order sets of {len(types.per_state)} states"
    )
    return _first_violation(
        "type-measurability",
        _type_measurability_violation(types),
        scope,
        lambda hit: _witness_at(sigma, state=hit[0], other=hit[1], mask=hit[2], note=hit[3]),
    )
