"""Priors, general set functions, type mappings, and the order sets they induce.

All numeric values are exact rationals.  A set function stores one value per
event of its algebra, indexed by the canonical event order, so "for all
events" is a literal loop over the table.  Priors and set functions are
stored only as integer tables (D, ints), D the least common denominator,
and built from them by ``from_ints``; a ``Fraction`` is built only for the
one value an accessor (``SetFunction.value``, ``Prior.measure_of``)
returns.  Nothing here assumes additivity: capacities and arbitrary
[0,1]-valued tables are first-class, and their properties are established
by checks, never by construction: each flag of
``SetFunction`` (``normalized``, ``monotone``, ``additive``, ``convex``,
``one_intersection``) is its own cached local check.  ``monotone`` and
``additive`` loop over index tables of the algebra's lattice of atom combos
(``SigmaAlgebra.covering_pairs``, ``SigmaAlgebra.lowest_atom_splits``),
built once per algebra, and so once per family for the draws and streams of
``modelgen``, which share the family's algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import and_, le
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

ZERO = Fraction(0)


def _subset_sums(weights: tuple) -> tuple:
    """Sum of the atom weights in every event, indexed by canonical event
    order; the sums are ints or ``Fraction``s as the weights are."""
    table = [weights[0] * 0] * (1 << len(weights))
    for idx in range(1, len(table)):
        low = idx & -idx
        table[idx] = table[idx ^ low] + weights[low.bit_length() - 1]
    return tuple(table)


def _integer_table(ratios: Iterable[tuple[int, int]]) -> tuple[int, tuple[int, ...]]:
    """(D, every ratio n / d times D), D the least common multiple of the
    denominators d > 0."""
    ratios = tuple(ratios)
    d = lcm(*{q for _, q in ratios})
    return d, tuple([n * (d // q) for n, q in ratios])


def _lowest_terms(d: int, ints: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(d, ints) divided by gcd(d, *ints): the one integer form of the
    values ints[i] / d, whichever (d, ints) they were written with."""
    g = gcd(d, *ints)
    return (d, ints) if g == 1 else (d // g, tuple(n // g for n in ints))


def _check_denominator(d: int) -> None:
    if d < 1:
        raise RationalOutOfRange(f"denominator {d} is not positive")


def _rescale(scaled: tuple[int, tuple[int, ...]], d: int) -> tuple[int, ...]:
    """An ``_integer_table`` (D', ints) as ints times D, for D a multiple of D'."""
    di, ints = scaled
    return ints if di == d else tuple(n * (d // di) for n in ints)


def _levels(d: int, tables: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """{0, D} plus every entry n of the integer tables, ascending: the
    levels ``_level(p, D)`` of the thresholds p = n / D, which a sweep over
    the thresholds compares the tables with."""
    return tuple(sorted({0, d}.union(*tables)))


def _level(p: Fraction, d: int) -> int:
    """ceil(p * d).  For integers n and d > 0 and any rational p, n >= p * d
    iff n >= ceil(p * d): an integer table compares against this level
    exactly."""
    return -(-p.numerator * d // p.denominator)


def as_fraction(value) -> Fraction:
    """Coerce to an exact rational; floats are rejected to keep arithmetic exact."""
    if type(value) is Fraction:  # immutable: no copy needed
        return value
    if isinstance(value, float):
        raise TypeError(f"floats are not exact, got {value!r}; use Fraction or 'p/q'")
    return Fraction(value)


def as_threshold(value) -> Fraction:
    """Coerce a belief threshold p with :func:`as_fraction`; it must lie in [0, 1]."""
    p = as_fraction(value)
    if p < 0 or p > 1:
        raise RationalOutOfRange(f"belief threshold {p} outside [0, 1]")
    return p


@dataclass(frozen=True, init=False)
class Prior:
    """A countably additive probability measure, stored as one weight per
    atom in its exact integer form ``int_weights`` = (D, ints): atom j
    weighs ints[j] / D, with D the least common denominator.  Equality and
    hashing read (sigma, ``int_weights``), which is canonical."""

    sigma: SigmaAlgebra
    int_weights: tuple[int, tuple[int, ...]]

    def __init__(self, sigma: SigmaAlgebra, weights: Iterable[Fraction]):
        self._assign(sigma, *_integer_table(as_fraction(w).as_integer_ratio() for w in weights))

    @classmethod
    def from_ints(cls, sigma: SigmaAlgebra, d: int, ints: Iterable[int]) -> "Prior":
        """The prior whose atom j weighs ints[j] / d."""
        prior = cls.__new__(cls)
        prior._assign(sigma, d, ints)
        return prior

    def _assign(self, sigma: SigmaAlgebra, d: int, ints: Iterable[int]) -> None:
        ints = tuple(ints)
        if len(ints) != sigma.n_atoms:
            raise PriorNotNormalized(f"expected {sigma.n_atoms} atom weights, got {len(ints)}")
        _check_denominator(d)
        if min(ints) < 0:
            raise PriorNotNormalized("prior weights must be nonnegative")
        if sum(ints) != d:
            raise PriorNotNormalized(f"prior weights sum to {Fraction(sum(ints), d)}, not 1")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "int_weights", _lowest_terms(d, ints))

    @cached_property
    def int_table(self) -> tuple[int, tuple[int, ...]]:
        """(D, the measure of every event times D), indexed by canonical
        event order; D is that of ``int_weights``."""
        d, ints = self.int_weights
        return d, _subset_sums(ints)

    @cached_property
    def conditionals(self) -> dict[int, "SetFunction | None"]:
        """mu(. | C) by the state mask of C, or None where mu(C) = 0, for
        every cell C that ``theorems._conditional`` has been asked: by the
        product identity (``theorems._product_mask``) and by the Bayes types
        (``theorems.bayes_type_from_poss``).  Each is built once per
        (prior, C) and shared by every correspondence and agent of the
        prior."""
        return {}

    @cached_property
    def cell_masks(self) -> dict[int, int]:
        """The states with a null cell on the correspondence constant at
        each cell mask C that the block count
        (``theorems._theorem_main_block``) has asked: decided once per
        (prior, C)."""
        return {}

    def measure_mask(self, mask: int) -> Fraction:
        d, table = self.int_table
        return Fraction(table[self.sigma.combo_index(mask)], d)

    def measure_of(self, event: Event) -> Fraction:
        self.sigma.check_same(event.sigma, "event and prior use different sigma-algebras")
        return self.measure_mask(event.mask)

    def to_set_function(self) -> "SetFunction":
        return SetFunction.from_ints(self.sigma, *self.int_table)


def uniform_prior(sigma: SigmaAlgebra) -> Prior:
    k = sigma.n_atoms
    return Prior.from_ints(sigma, k, (1,) * k)


def conditional(prior: Prior, e: Event, given: Event) -> Fraction:
    """mu(e | given); conditioning on a null event is undefined."""
    denom = prior.measure_of(given)
    if denom == 0:
        raise ConditioningOnNull(f"mu({given!r}) = 0")
    return prior.measure_of(e.intersect(given)) / denom


def expectation(prior: Prior, f: Callable[[str], Fraction] | Mapping[str, Fraction]) -> Fraction:
    """Integral of a measurable (atom-constant) function against the prior."""
    get = f.__getitem__ if isinstance(f, Mapping) else f
    space = prior.sigma.space
    d, weights = prior.int_weights
    total = ZERO
    for atom, weight in zip(prior.sigma.atoms, weights):
        members = space.names_of(atom)
        value = as_fraction(get(members[0]))
        for other in members[1:]:
            if as_fraction(get(other)) != value:
                raise NotMeasurable(
                    f"function is not constant on atom {members}: "
                    f"f({members[0]})={value} but f({other})={get(other)}"
                )
        total += value * weight
    return total / d


@dataclass(frozen=True, init=False)
class SetFunction:
    """An arbitrary [0,1]-valued function on the events of a sigma-algebra.

    Stored in its exact integer form ``int_table`` = (D, ints): the value at
    the i-th event in canonical order is ints[i] / D, with D the least
    common denominator.  Equality and hashing read (sigma, ``int_table``),
    which is canonical.  The value at the empty event is *not* assumed to be
    zero.
    """

    sigma: SigmaAlgebra
    int_table: tuple[int, tuple[int, ...]]

    def __init__(self, sigma: SigmaAlgebra, table: Iterable[Fraction]):
        self._assign(sigma, *_integer_table(as_fraction(v).as_integer_ratio() for v in table))

    @classmethod
    def from_ints(cls, sigma: SigmaAlgebra, d: int, ints: Iterable[int]) -> "SetFunction":
        """The set function whose value at the i-th event is ints[i] / d."""
        sf = cls.__new__(cls)
        sf._assign(sigma, d, ints)
        return sf

    def _assign(self, sigma: SigmaAlgebra, d: int, ints: Iterable[int]) -> None:
        ints = tuple(ints)
        if len(ints) != (1 << sigma.n_atoms):
            raise IncompleteCapacity(
                f"expected {1 << sigma.n_atoms} event values, got {len(ints)}"
            )
        _check_denominator(d)
        if min(ints) < 0 or max(ints) > d:
            bad = next(n for n in ints if n < 0 or n > d)
            raise RationalOutOfRange(f"set-function value {Fraction(bad, d)} outside [0, 1]")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "int_table", _lowest_terms(d, ints))

    def value(self, event: Event) -> Fraction:
        self.sigma.check_same(event.sigma, "event and set function use different sigma-algebras")
        d, ints = self.int_table
        return Fraction(ints[self.sigma.combo_index(event.mask)], d)

    # Each flag is a local check on the Boolean lattice of atom combos, where
    # bit j of an event index stands for atom j: a condition on every pair of
    # events follows from the same condition on covering or elementary pairs
    # (Shapley 1971; Grabisch 2016).

    @cached_property
    def normalized(self) -> bool:
        """v(empty) = 0 and v(Omega) = 1."""
        d, ints = self.int_table
        return ints[0] == 0 and ints[-1] == d

    @cached_property
    def monotone(self) -> bool:
        """v(S) <= v(S u {j}) on every covering pair
        (``SigmaAlgebra.covering_pairs``), O(k 2^k)."""
        ints = self.int_table[1]
        for s, t in self.sigma.covering_pairs:
            if ints[s] > ints[t]:
                return False
        return True

    @cached_property
    def additive(self) -> bool:
        """v(S) = v({j}) + v(S - {j}) on every lowest-atom split
        (``SigmaAlgebra.lowest_atom_splits``): v is the subset sums of its
        singleton values, and the split of a singleton forces v(empty) = 0,
        O(2^k)."""
        ints = self.int_table[1]
        for s, j, rest in self.sigma.lowest_atom_splits:
            if ints[s] != ints[j] + ints[rest]:
                return False
        return True

    @cached_property
    def convex(self) -> bool:
        """Supermodular: v(S u {i, j}) + v(S) >= v(S u {i}) + v(S u {j}) on
        every elementary pair, O(k^2 2^k)."""
        ints = self.int_table[1]
        k = self.sigma.n_atoms
        return all(
            ints[s | 1 << i | 1 << j] + ints[s] >= ints[s | 1 << i] + ints[s | 1 << j]
            for i in range(k)
            for j in range(i + 1, k)
            for s in range(len(ints))
            if not s & (1 << i | 1 << j)
        )

    @cached_property
    def one_intersection(self) -> bool:
        """The events of value 1 are closed under pairwise intersection."""
        d, ints = self.int_table
        ones = [e for e, n in enumerate(ints) if n == d]
        closed = set(ones)
        return all(e & f in closed for a, e in enumerate(ones) for f in ones[a + 1 :])


def set_function_from_atom_weights(
    sigma: SigmaAlgebra, weights: Iterable[Fraction]
) -> SetFunction:
    """The additive set function with the given atom weights (weights sum <= 1
    is not required; the table must still stay inside [0,1])."""
    d, ints = _integer_table(as_fraction(w).as_integer_ratio() for w in weights)
    if len(ints) != sigma.n_atoms:
        raise IncompleteCapacity(f"expected {sigma.n_atoms} atom weights, got {len(ints)}")
    return SetFunction.from_ints(sigma, d, _subset_sums(ints))


def dirac_type(sigma: SigmaAlgebra, state: str) -> SetFunction:
    """The 0/1 set function putting all mass on the atom of ``state``."""
    i = sigma.space.index[state]
    return SetFunction.from_ints(sigma, 1, tuple(mask >> i & 1 for mask in sigma.event_masks))


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
    def cell_masks(self) -> dict[int, tuple[int, int]]:
        """The per-state masks that read no prior, on the correspondence
        constant at each cell mask C that the block count
        (``theorems._theorem_main_block``) has asked: (the states failing
        Entailment or Self-Evidence, those failing bracket containment).
        Each is decided once per (type mapping, C)."""
        return {}

    @cached_property
    def order_masks(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(up, down, bracket) masks per state index.

        up[i] holds the states whose type pointwise dominates state i's type,
        down[i] those dominated by it, bracket[i] their intersection (the
        states with identical type).  Each unordered pair of states is
        decided once: equal tables (a shared mu(. | C), say) go into both
        sets, else one pointwise comparison per direction, as far as the
        first entry that breaks it.
        """
        tables = self.int_tables[1]
        ups = [1 << i for i in range(len(tables))]
        downs = ups.copy()
        for i, ti in enumerate(tables):
            for j in range(i + 1, len(tables)):
                tj = tables[j]
                if ti == tj:
                    ups[i] |= 1 << j
                    downs[i] |= 1 << j
                    ups[j] |= 1 << i
                    downs[j] |= 1 << i
                elif all(map(le, ti, tj)):
                    ups[i] |= 1 << j
                    downs[j] |= 1 << i
                elif all(map(le, tj, ti)):
                    ups[j] |= 1 << i
                    downs[i] |= 1 << j
        return tuple(ups), tuple(downs), tuple(map(and_, ups, downs))

    @cached_property
    def thresholds(self) -> tuple[Fraction, ...]:
        """{0, 1} plus every value attained by some t(omega, E), ascending.

        For any p in [0, 1], B^p(E) equals B^v(E) where v is the smallest
        threshold >= p (1 is always present), so a universally quantified
        statement over p in [0, 1] holds iff it holds at these finitely many
        values; see the step-function note in the README.
        """
        d = self.int_tables[0]
        return tuple(Fraction(n, d) for n in self.levels)

    @cached_property
    def levels(self) -> tuple[int, ...]:
        """The ``thresholds`` as integer levels on the D of ``int_tables``:
        the form the sweeps iterate, building a threshold only for a hit."""
        return _levels(*self.int_tables)


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


def _type_measurability_violation(types: TypeMapping) -> tuple[int, str] | None:
    """(state, note) of the first event on which t(., E) is not constant on
    an atom; None when the type mapping is measurable.

    The order sets need no check of their own: once the states of each atom
    have equal tables at every event, whether omega' is in up(omega) or
    down(omega) depends only on the atom of omega', so every up and down
    set (and every bracket) is a union of atoms, and so is in Sigma.
    """
    sigma = types.sigma
    tables = types.int_tables[1]
    atom_members = [
        [i for i in range(len(tables)) if atom >> i & 1] for atom in sigma.atoms
    ]
    for combo in range(len(sigma.event_masks)):
        for first, *rest in atom_members:
            for other in rest:
                if tables[other][combo] != tables[first][combo]:
                    return first, "t(., E) not constant on atom"
    return None
