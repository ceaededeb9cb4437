"""Deterministic model enumeration, seeded random sampling, and the
counterexample search harness that drives the verifiers over model streams.

Mode names describe the family of type tables ("random-capacity" etc.);
:func:`enumerate_models` walks the full grid of that family in lexicographic
order, while :func:`random_model` draws one sample from it.

:func:`search_counterexample` runs one loop body for every claim: it asks
for the status the claim's kernels declare in ``_DECLARED_STATUS`` (keyed by
verifier), or its report's status when it declares none, and builds a report
for the counterexample it returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from math import comb
from typing import Callable, Iterable, Iterator

from .axioms import (
    _certainty_mask,
    _containment_violation,
    _invariance_violation,
    _types_probability_violation,
)
from .beliefs import ZERO, Prior, SetFunction, TypeMapping, set_function_from_atom_weights
from .errors import AssumptionViolated, ConditioningOnNull, ResourceLimit
from .events import SigmaAlgebra, StateSpace, make_space, sigma_from_atoms, sigma_powerset
from .multiagent import (
    InteractiveModel,
    agreement_sweep,
    verify_cor_ck,
    verify_cor_ta_common,
)
from .operators import EpistemicModel, PossibilityCorrespondence
from .reports import CheckReport, VerificationReport
from .theorems import (
    _theorem_main_status,
    bayes_type_from_poss,
    verify_cor_main,
    verify_cor_regular,
    verify_cor_ta,
    verify_cor_unaware,
    verify_prop1,
    verify_prop2,
    verify_theorem_main,
    verify_theorem_main_product,
)

SIGMA_MODES = ("powerset", "random-partition")
TYPE_MODES = ("bayes", "random-additive", "random-capacity", "random-monotone-capacity")
POSS_MODES = ("partition", "reflexive", "arbitrary-nonempty")

# Largest list of component candidates (priors, correspondences, capacity
# tables per state, type mappings per algebra) an exhaustive sweep builds;
# longer lists are refused before anything is built.
MAX_GRID = 2_000_000

# Consecutive draws the require filter may reject before a random search
# gives up.
MAX_REJECTED_DRAWS = 1000

# Redraws of the prior (one agent) or of a cell (several agents) before a
# Bayes-type draw gives up on positive-measure cells.
MAX_BAYES_REDRAWS = 64


@dataclass(frozen=True)
class GenParams:
    """Grid description for model generation.

    ``weight_denominator`` fixes the rational grid {0, 1/d, ..., 1} for prior
    and type weights.  ``require`` filters the stream by re-checked axiom
    flags.  ``budget`` caps the number of models a search will visit (random
    searches must set it).
    """

    n_states: int = 2
    weight_denominator: int = 2
    sigma_mode: str = "powerset"
    type_mode: str = "bayes"
    poss_mode: str = "partition"
    require: tuple[str, ...] = ()
    seed: int = 0
    budget: int | None = None
    full_support: bool = False
    n_agents: int = 1

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("n_states must be at least 1")
        if self.weight_denominator < 1:
            raise ValueError("weight_denominator must be at least 1")
        if self.n_agents < 1:
            raise ValueError("n_agents must be at least 1")
        for value, allowed, label in (
            (self.sigma_mode, SIGMA_MODES, "sigma_mode"),
            (self.type_mode, TYPE_MODES, "type_mode"),
            (self.poss_mode, POSS_MODES, "poss_mode"),
        ):
            if value not in allowed:
                raise ValueError(f"unknown {label}: {value!r}")
        unknown = [f for f in self.require if f not in REQUIRE_FLAGS]
        if unknown:
            raise ValueError(f"unknown require flags: {unknown}")


REQUIRE_FLAGS: dict[str, Callable[[EpistemicModel], bool]] = {
    "regular": lambda m: m.regular,
    "invariance": lambda m: _invariance_violation(m) is None,
    "entailment": lambda m: not _certainty_mask(m, m.poss.cells),
    "self-evidence": lambda m: _containment_violation(m, 0) is None,
    "probability-types": lambda m: _types_probability_violation(m) is None,
    "partition": lambda m: m.poss.is_partition,
    "discrete": lambda m: m.is_discrete,
    "full-support": lambda m: all(w > 0 for w in m.prior.weights),
    "positive-cells": lambda m: not m.has_null_cells,
    "monotone-types": lambda m: all(sf.monotone for sf in m.types.per_state),
    "one-intersection": lambda m: all(sf.one_intersection for sf in m.types.per_state),
}


def satisfies_require(model: EpistemicModel, flags: Iterable[str]) -> bool:
    return all(REQUIRE_FLAGS[f](model) for f in flags)


def _satisfies_interactive(imodel: InteractiveModel, flags: Iterable[str]) -> bool:
    return all(
        satisfies_require(m, flags) for m in imodel.agent_models
    )


# ---------------------------------------------------------------------------
# combinatorial building blocks


def weight_tuples(
    parts: int, denominator: int, positive: bool = False
) -> Iterator[tuple[Fraction, ...]]:
    """All ordered splits of 1 into ``parts`` multiples of 1/denominator,
    lexicographic by numerator sequence."""

    def rec(remaining: int, slots: int):
        if slots == 1:
            if remaining > 0 or not positive:
                yield (remaining,)
            return
        lo = 1 if positive else 0
        for c in range(lo, remaining - (slots - 1) * lo + 1):
            for rest in rec(remaining - c, slots - 1):
                yield (c, *rest)

    for counts in rec(denominator, parts):
        yield tuple(Fraction(c, denominator) for c in counts)


def partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions of range(n) as tuples of index blocks, in the order
    induced by assigning each element to the earliest possible block."""

    def rec(i: int, blocks: list[list[int]]):
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def _bell(n: int) -> int:
    """Number of set partitions of n elements."""
    bells = [1]
    for m in range(n):
        bells.append(sum(comb(m, i) * bells[i] for i in range(m + 1)))
    return bells[n]


def _space_for(n_states: int) -> StateSpace:
    return make_space([str(i + 1) for i in range(n_states)])


def _sigmas(params: GenParams, space: StateSpace) -> Iterator[SigmaAlgebra]:
    """The family's algebras, each built only when the stream reaches it."""
    if params.sigma_mode == "powerset":
        yield sigma_powerset(space)
        return
    for blocks in partitions(len(space)):
        yield sigma_from_atoms(space, [[space.states[i] for i in blk] for blk in blocks])


def _atom_partition_cells(sigma: SigmaAlgebra, blocks) -> tuple[int, ...]:
    """Per-state cell masks for a partition of the algebra's atoms."""
    group_mask = {}
    for blk in blocks:
        mask = 0
        for atom_index in blk:
            mask |= sigma.atoms[atom_index]
        for atom_index in blk:
            group_mask[atom_index] = mask
    return tuple(group_mask[j] for j in sigma.atom_index_of_state)


def _poss_list(params: GenParams, sigma: SigmaAlgebra) -> list[PossibilityCorrespondence]:
    if params.poss_mode == "partition":
        return [
            PossibilityCorrespondence(sigma, _atom_partition_cells(sigma, blocks))
            for blocks in partitions(sigma.n_atoms)
        ]
    # cells are chosen per atom and broadcast to the atom's states: a
    # correspondence constant on atoms is exactly what keeps the induced
    # operators inside the algebra
    nonempty = [m for m in sigma.event_masks if m]
    per_atom: list[list[int]] = []
    for own in sigma.atoms:
        if params.poss_mode == "reflexive":
            per_atom.append([m for m in nonempty if m & own == own])
        else:
            per_atom.append(nonempty)
    atom_of = sigma.atom_index_of_state
    return [
        PossibilityCorrespondence(sigma, tuple(combo[j] for j in atom_of))
        for combo in product(*per_atom)
    ]


def _refuse_over_grid(count: int, what: str) -> None:
    if count > MAX_GRID:
        raise ResourceLimit(f"{count} {what}; shrink the grid or use random search")


def _family_counts(params: GenParams, sigma: SigmaAlgebra) -> list[tuple[int, str]]:
    """The length of every component list of the algebra's family, counted
    without building it.  The monotone capacity tables are counted by
    listing their values (see ``_capacity_grid``), so only the grid they are
    drawn from is counted here."""
    k = sigma.n_atoms
    d = params.weight_denominator
    counts = []
    if params.type_mode == "random-additive":
        counts.append((comb(d + k - 1, k - 1) ** k, "type mappings per algebra"))
    elif params.type_mode != "bayes":
        tables = (d + 1) ** (1 << k)
        counts.append((tables, "capacity tables per state"))
        if params.type_mode == "random-capacity":
            counts.append((tables**k, "type mappings per algebra"))
    priors = comb(d - 1, k - 1) if params.full_support else comb(d + k - 1, k - 1)
    counts.append((priors, "priors per algebra"))
    posses = {
        "partition": _bell(k),
        "reflexive": (1 << (k - 1)) ** k,
        "arbitrary-nonempty": ((1 << k) - 1) ** k,
    }[params.poss_mode]
    counts.append((posses, "possibility correspondences per algebra"))
    return counts


def _monotone_values(grid: list[Fraction], n_events: int) -> list[tuple[Fraction, ...]]:
    """Every monotone table over the event combos with values on the grid,
    in lexicographic order: the value at combo c runs up the grid from the
    largest value at its lower covers c - {j}."""
    out = []
    ranks = [0] * n_events

    def rec(c: int) -> None:
        if c == n_events:
            out.append(tuple(grid[r] for r in ranks))
            return
        lo = 0
        rest = c
        while rest:
            bit = rest & -rest
            rest ^= bit
            lo = max(lo, ranks[c ^ bit])
        for r in range(lo, len(grid)):
            ranks[c] = r
            rec(c + 1)

    rec(0)
    return out


def _capacity_grid(sigma: SigmaAlgebra, params: GenParams) -> list[SetFunction]:
    d = params.weight_denominator
    grid = [Fraction(i, d) for i in range(d + 1)]
    n_events = 1 << sigma.n_atoms
    if params.type_mode != "random-monotone-capacity":
        return [SetFunction(sigma, t) for t in product(grid, repeat=n_events)]
    values = _monotone_values(grid, n_events)
    _refuse_over_grid(len(values) ** sigma.n_atoms, "type mappings per algebra")
    return [SetFunction(sigma, t) for t in values]


def _type_vectors(params: GenParams, sigma: SigmaAlgebra) -> list[TypeMapping]:
    """Every type mapping on the grid, constant on atoms by construction."""
    if params.type_mode == "random-additive":
        per_atom = [
            set_function_from_atom_weights(sigma, w)
            for w in weight_tuples(sigma.n_atoms, params.weight_denominator)
        ]
    else:
        per_atom = _capacity_grid(sigma, params)
    atom_of = sigma.atom_index_of_state
    return [
        TypeMapping(sigma, tuple(combo[j] for j in atom_of))
        for combo in product(per_atom, repeat=sigma.n_atoms)
    ]


def enumerate_models(params: GenParams) -> Iterator[EpistemicModel]:
    """Lexicographic, duplicate-free stream over the whole parameter grid.

    Order: algebra, then prior, then type mapping, then correspondence.
    Component objects are shared across the stream so derived data (order
    sets, set-function flags, cell indices) is computed once per component.
    In bayes mode the types are derived from (prior, cell); (prior, poss)
    pairs with a null cell admit no such model and are skipped.  An algebra
    whose family has a component list longer than ``MAX_GRID`` raises
    ResourceLimit before any of its components is built.
    """
    space = _space_for(params.n_states)
    for sigma in _sigmas(params, space):
        for count, what in _family_counts(params, sigma):
            _refuse_over_grid(count, what)
        priors = [
            Prior(sigma, w)
            for w in weight_tuples(
                sigma.n_atoms, params.weight_denominator, params.full_support
            )
        ]
        posses = _poss_list(params, sigma)
        if params.type_mode == "bayes":
            for prior in priors:
                for poss in posses:
                    try:
                        types = bayes_type_from_poss(sigma, prior, poss)
                    except ConditioningOnNull:
                        continue
                    model = EpistemicModel(sigma, prior, poss, types)
                    if satisfies_require(model, params.require):
                        yield model
            continue
        vectors = _type_vectors(params, sigma)
        for prior in priors:
            for types in vectors:
                for poss in posses:
                    model = EpistemicModel(sigma, prior, poss, types)
                    if satisfies_require(model, params.require):
                        yield model


# ---------------------------------------------------------------------------
# seeded random sampling


def _random_counts(k: int, d: int, positive: bool, rng: random.Random) -> list[int]:
    if positive and d < k:
        raise ValueError("denominator too small for a full-support draw")
    counts = [1] * k if positive else [0] * k
    for _ in range(d - k if positive else d):
        counts[rng.randrange(k)] += 1
    return counts


def _random_weights(
    k: int, d: int, positive: bool, rng: random.Random
) -> tuple[Fraction, ...]:
    return tuple(Fraction(c, d) for c in _random_counts(k, d, positive, rng))


def _random_blocks(items: Iterable, rng: random.Random) -> list[list]:
    """A random set partition: each item opens a new block or joins one of
    the blocks so far, uniformly."""
    blocks: list[list] = []
    for item in items:
        i = rng.randrange(len(blocks) + 1)
        if i == len(blocks):
            blocks.append([item])
        else:
            blocks[i].append(item)
    return blocks


def _random_sigma(params: GenParams, space: StateSpace, rng: random.Random) -> SigmaAlgebra:
    if params.sigma_mode == "powerset":
        return sigma_powerset(space)
    return sigma_from_atoms(space, _random_blocks(space.states, rng))


def _random_poss(
    params: GenParams, sigma: SigmaAlgebra, rng: random.Random
) -> PossibilityCorrespondence:
    if params.poss_mode == "partition":
        blocks = _random_blocks(range(sigma.n_atoms), rng)
        return PossibilityCorrespondence(sigma, _atom_partition_cells(sigma, blocks))
    # per-atom draws broadcast to states keep the correspondence measurable
    per_atom = []
    for own in sigma.atoms:
        while True:
            mask = own if params.poss_mode == "reflexive" else 0
            for atom in sigma.atoms:
                if atom != own and rng.getrandbits(1):
                    mask |= atom
            if params.poss_mode == "arbitrary-nonempty" and rng.getrandbits(1):
                mask |= own
            if mask:
                break
        per_atom.append(mask)
    return PossibilityCorrespondence(
        sigma, tuple(per_atom[j] for j in sigma.atom_index_of_state)
    )


def _random_table(
    sigma: SigmaAlgebra, params: GenParams, rng: random.Random
) -> SetFunction:
    d = params.weight_denominator
    n_events = 1 << sigma.n_atoms
    if params.type_mode == "random-additive":
        return set_function_from_atom_weights(
            sigma, _random_weights(sigma.n_atoms, d, False, rng)
        )
    values = [Fraction(rng.randint(0, d), d) for _ in range(n_events)]
    if params.type_mode == "random-monotone-capacity":
        # assigning sorted values along any linear extension of the subset
        # order makes the table monotone
        order = sorted(range(n_events), key=lambda c: (bin(c).count("1"), c))
        values.sort()
        table = [ZERO] * n_events
        for rank, combo in enumerate(order):
            table[combo] = values[rank]
        return SetFunction(sigma, tuple(table))
    return SetFunction(sigma, tuple(values))


def _random_types(
    sigma: SigmaAlgebra, params: GenParams, rng: random.Random
) -> TypeMapping:
    per_atom = [_random_table(sigma, params, rng) for _ in range(sigma.n_atoms)]
    return TypeMapping(
        sigma, tuple(per_atom[j] for j in sigma.atom_index_of_state)
    )


def random_model(params: GenParams, seed: int) -> EpistemicModel:
    """One reproducible draw from the family described by ``params``."""
    rng = random.Random(seed)
    space = _space_for(params.n_states)
    sigma = _random_sigma(params, space, rng)
    prior = Prior(
        sigma, _random_weights(sigma.n_atoms, params.weight_denominator, params.full_support, rng)
    )
    poss = _random_poss(params, sigma, rng)
    if params.type_mode == "bayes":
        for _ in range(MAX_BAYES_REDRAWS):
            try:
                types = bayes_type_from_poss(sigma, prior, poss)
                return EpistemicModel(sigma, prior, poss, types)
            except ConditioningOnNull:
                prior = Prior(
                    sigma,
                    _random_weights(
                        sigma.n_atoms, params.weight_denominator, params.full_support, rng
                    ),
                )
        raise ResourceLimit("could not draw a prior giving positive cells")
    types = _random_types(sigma, params, rng)
    return EpistemicModel(sigma, prior, poss, types)


def random_interactive_model(params: GenParams, seed: int) -> InteractiveModel:
    """One reproducible interactive draw: shared algebra and prior, per-agent
    correspondences and types."""
    rng = random.Random(seed)
    space = _space_for(params.n_states)
    sigma = _random_sigma(params, space, rng)
    prior = Prior(
        sigma, _random_weights(sigma.n_atoms, params.weight_denominator, params.full_support, rng)
    )
    names = tuple(f"a{i + 1}" for i in range(params.n_agents))
    posses = []
    types = []
    for _ in names:
        poss = _random_poss(params, sigma, rng)
        if params.type_mode == "bayes":
            for _ in range(MAX_BAYES_REDRAWS):
                try:
                    types.append(bayes_type_from_poss(sigma, prior, poss))
                    break
                except ConditioningOnNull:
                    poss = _random_poss(params, sigma, rng)
            else:
                raise ResourceLimit("could not draw cells of positive measure")
        else:
            types.append(_random_types(sigma, params, rng))
        posses.append(poss)
    return InteractiveModel(sigma, prior, names, tuple(posses), tuple(types))


# ---------------------------------------------------------------------------
# counterexample search


# Every claim that ``emck verify`` and ``emck search`` accept, in the order
# they list them.
CLAIMS: dict[str, tuple[str, Callable]] = {
    "theorem-main": ("single", verify_theorem_main),
    "theorem-main-product": ("single", verify_theorem_main_product),
    "prop-1": ("single", verify_prop1),
    "prop-2": ("single", verify_prop2),
    "prop-3": ("interactive", agreement_sweep),
    "cor-main": ("single", verify_cor_main),
    "cor-unaware": ("single", verify_cor_unaware),
    "cor-regular": ("single", verify_cor_regular),
    "cor-ta": ("single", verify_cor_ta),
    "cor-ck": ("interactive", verify_cor_ck),
    "cor-ta-common": ("interactive", verify_cor_ta_common),
}

# Statuses the kernels decide without building a report, keyed by verifier;
# a claim whose verifier is not here is decided by its report's status.
_DECLARED_STATUS: dict[Callable, Callable[[EpistemicModel], str]] = {
    verify_theorem_main: lambda m: _theorem_main_status(m, product=False),
    verify_theorem_main_product: lambda m: _theorem_main_status(m, product=True),
}


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a counterexample search.

    ``models_checked`` counts models whose claim verdict was evaluated;
    ``hypothesis_skips`` counts models visited but outside the claim's
    hypotheses.  ``found`` carries the first falsifying model, if any.
    """

    claim: str
    found: bool
    models_checked: int
    hypothesis_skips: int
    model: EpistemicModel | InteractiveModel | None = None
    report: VerificationReport | CheckReport | None = None

    def summary(self) -> str:
        if self.found:
            return (
                f"Found(claim={self.claim}, models_checked={self.models_checked}, "
                f"hypothesis_skips={self.hypothesis_skips})"
            )
        return (
            f"NotFound(claim={self.claim}, models_checked={self.models_checked}, "
            f"hypothesis_skips={self.hypothesis_skips})"
        )


def _random_stream(
    params: GenParams,
    draw: Callable[[GenParams, int], EpistemicModel | InteractiveModel],
    accept: Callable[[EpistemicModel | InteractiveModel, tuple[str, ...]], bool],
) -> Iterator[EpistemicModel | InteractiveModel]:
    """The accepted draws at consecutive seeds from ``params.seed``."""
    if params.budget is None:
        raise ValueError("random search needs a budget")
    attempts = 0
    seed = params.seed
    while True:
        if attempts >= MAX_REJECTED_DRAWS:
            raise ResourceLimit(
                f"require filter rejected {attempts} consecutive draws"
            )
        model = draw(params, seed)
        seed += 1
        attempts += 1
        if accept(model, params.require):
            attempts = 0
            yield model


def search_counterexample(
    claim: str, params: GenParams, mode: str = "enumerate"
) -> SearchResult:
    """Run a registered verifier over a model stream and return the first
    model falsifying its asserted content, or an exact count of models on
    which the claim held.

    Models outside the claim's hypotheses (AssumptionViolated, or a
    hypothesis-not-met status) are counted separately and never treated as
    counterexamples.  A claim with a declared status runs its verifier only
    on the counterexample.
    """
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim: {claim!r}; known: {sorted(CLAIMS)}")
    if mode not in ("enumerate", "random"):
        raise ValueError(f"unknown search mode: {mode!r}")
    kind, verifier = CLAIMS[claim]
    if kind == "interactive" and mode != "random":
        raise ValueError("interactive claims are searched by random sampling")
    if mode == "enumerate":
        stream = enumerate_models(params)
    elif kind == "single":
        stream = _random_stream(params, random_model, satisfies_require)
    else:
        stream = _random_stream(params, random_interactive_model, _satisfies_interactive)

    def report_of(model):
        report = verifier(model)
        if isinstance(report, CheckReport):
            report = VerificationReport(claim=claim, checks=(report,))
        return report

    status_of = _DECLARED_STATUS.get(verifier) or (lambda m: report_of(m).status)
    checked = 0
    skips = 0
    for model in islice(stream, params.budget):
        try:
            status = status_of(model)
        except AssumptionViolated:
            status = "hypothesis-not-met"
        if status == "hypothesis-not-met":
            skips += 1
            continue
        checked += 1
        if status == "falsified":
            return SearchResult(claim, True, checked, skips, model, report_of(model))
    return SearchResult(claim, False, checked, skips)
