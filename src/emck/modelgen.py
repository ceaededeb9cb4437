"""Deterministic model enumeration, seeded random sampling, and the
counterexample search harness that drives the claims over model streams.

Mode names describe the family of type tables ("random-capacity" etc.);
:func:`enumerate_models` walks the full grid of that family in lexicographic
order, one (algebra, prior, type mapping) block of correspondences at a time
(``_blocks``), while :func:`random_model` draws one whole sample from it.
A random search draws as ``random_model`` does, but stops a draw at its
first table outside a type-local flag (``axioms.TYPE_FLAGS``) of
``require``; it keeps the draws, and seeds, that ``require`` keeps.

Every claim is one :class:`Claim` record in ``CLAIMS``, built by
``_declared`` from its parts in ``theorems._PARTS``; its hypotheses are the
``REQUIRE_FLAGS`` kernels among the conditions of its first part.
:func:`search_counterexample` runs one loop body for every claim: it skips
each model on which a hypothesis kernel fails, asks every other model for
the claim's status, which the one part rule ``theorems._parts_status``
decides from the claim's kernels without building a report, and builds the
report only for the counterexample it returns.  A claim with a block count
also counts a whole block by status without building its models: an
exhaustive search reads the same walk, with each block so counted that
holds no counterexample given as its (checked, skipped) pair instead of
its models.

A family's state space and its powerset algebra are built once per process
(``_space_for``, ``_powerset``) and shared by every draw and stream of the
family, so the algebra's derived tables (``SigmaAlgebra.event_masks``,
``combo_of``, the index tables of the set-function flags) are built once;
a random-partition draw builds its own algebra on the shared space.  Every
``functools.cache`` memo here is keyed by family parameters, integers
alone, so no model component is kept across calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial
from itertools import islice, product
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .axioms import REQUIRE_FLAGS, TYPE_FLAGS, _Hits
from .beliefs import Prior, SetFunction, TypeMapping, _subset_sums
from .errors import ConditioningOnNull, ResourceLimit
from .events import (
    SigmaAlgebra,
    StateSpace,
    make_space,
    max_atoms_limit,
    sigma_from_atoms,
    sigma_powerset,
)
from .multiagent import (
    _INTERACTIVE_KERNELS,
    InteractiveModel,
    verify_cor_ck,
    verify_cor_ta_common,
    verify_prop3,
)
from .operators import EpistemicModel, PossibilityCorrespondence
from .reports import VerificationReport
from .theorems import (
    _KERNELS,
    _PARTS,
    Part,
    _block_statuses,
    _parts_status,
    _theorem_main_block,
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

# Consecutive draws the require filter may reject, or that fall outside a
# full-support family, before a random search gives up.
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
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be at least 0")
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
        powerset = self.sigma_mode == "powerset"
        if self.full_support and powerset and self.weight_denominator < self.n_states:
            raise ValueError("denominator too small for a full-support prior on the powerset")


def satisfies_require(model: EpistemicModel | InteractiveModel, flags: Iterable[str]) -> bool:
    """Every flag holds on the model, or on every agent's model: its kernel
    finds no hit there."""
    models = model.agent_models if isinstance(model, InteractiveModel) else (model,)
    return all(REQUIRE_FLAGS[f](m) is None for m in models for f in flags)


# ---------------------------------------------------------------------------
# combinatorial building blocks


def _weight_counts(
    parts: int, denominator: int, positive: bool = False
) -> Iterator[tuple[int, ...]]:
    """Every composition of ``denominator`` into ``parts`` parts, positive
    ones if ``positive``, lexicographic: the numerators of the ordered splits
    of 1 into ``parts`` multiples of 1/denominator."""

    def rec(remaining: int, slots: int):
        if slots == 1:
            if remaining > 0 or not positive:
                yield (remaining,)
            return
        lo = 1 if positive else 0
        for c in range(lo, remaining - (slots - 1) * lo + 1):
            for rest in rec(remaining - c, slots - 1):
                yield (c, *rest)

    return rec(denominator, parts)


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


@cache
def _space_for(n_states: int) -> StateSpace:
    """The family's state space, "1" to "n": one per ``n_states``."""
    return make_space([str(i + 1) for i in range(n_states)])


@cache
def _powerset(n_states: int, max_atoms: int) -> SigmaAlgebra:
    """The powerset algebra of ``_space_for(n_states)``, one per (n, atom
    cap): ``SigmaAlgebra.event_masks`` refuses above the cap, so under a
    lowered cap the family gets a fresh algebra, which refuses as any fresh
    one does."""
    return sigma_powerset(_space_for(n_states))


def _sigmas(params: GenParams, space: StateSpace) -> Iterator[SigmaAlgebra]:
    """The family's algebras, each built only when the stream reaches it."""
    if params.sigma_mode == "powerset":
        yield _powerset(len(space), max_atoms_limit())
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


def _atom_cells(params: GenParams, sigma: SigmaAlgebra) -> list[list[int]] | None:
    """The candidate cells of each atom in the reflexive and
    arbitrary-nonempty modes, whose correspondences are every choice of one
    candidate per atom; None in partition mode, whose correspondences are
    not such a product.  Cells are chosen per atom and broadcast to the
    atom's states: a correspondence constant on atoms is exactly what keeps
    the induced operators inside the algebra."""
    if params.poss_mode == "partition":
        return None
    nonempty = [m for m in sigma.event_masks if m]
    if params.poss_mode == "reflexive":
        return [[m for m in nonempty if m & own == own] for own in sigma.atoms]
    return [nonempty] * sigma.n_atoms


def _poss_list(
    sigma: SigmaAlgebra, per_atom: list[list[int]] | None
) -> list[PossibilityCorrespondence]:
    """The algebra's correspondences: every choice of one cell of
    ``per_atom[j]`` for each atom j, or every partition of its atoms when
    ``per_atom`` is None."""
    if per_atom is None:
        return [
            PossibilityCorrespondence(sigma, _atom_partition_cells(sigma, blocks))
            for blocks in partitions(sigma.n_atoms)
        ]
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


def _monotone_values(grid: Sequence, n_events: int) -> list[tuple]:
    """Every monotone table over the event combos with values on the
    ascending grid, in lexicographic order: the value at combo c runs up the
    grid from the largest value at its lower covers c - {j}."""
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
    n_events = 1 << sigma.n_atoms
    if params.type_mode != "random-monotone-capacity":
        tables = product(range(d + 1), repeat=n_events)
        return [SetFunction.from_ints(sigma, d, t) for t in tables]
    values = _monotone_values(range(d + 1), n_events)
    _refuse_over_grid(len(values) ** sigma.n_atoms, "type mappings per algebra")
    return [SetFunction.from_ints(sigma, d, t) for t in values]


def _type_vectors(params: GenParams, sigma: SigmaAlgebra) -> list[TypeMapping]:
    """Every type mapping on the grid, constant on atoms by construction."""
    d = params.weight_denominator
    if params.type_mode == "random-additive":
        per_atom = [
            SetFunction.from_ints(sigma, d, _subset_sums(counts))
            for counts in _weight_counts(sigma.n_atoms, d)
        ]
    else:
        per_atom = _capacity_grid(sigma, params)
    atom_of = sigma.atom_index_of_state
    return [
        TypeMapping(sigma, tuple(combo[j] for j in atom_of))
        for combo in product(per_atom, repeat=sigma.n_atoms)
    ]


def _components(
    params: GenParams, sigma: SigmaAlgebra
) -> tuple[list[Prior], list[TypeMapping] | None]:
    """The algebra's priors and type mappings (None in bayes mode, where the
    types are derived), after refusing a family with a component list longer
    than ``MAX_GRID`` before any of its components is built."""
    for count, what in _family_counts(params, sigma):
        _refuse_over_grid(count, what)
    d = params.weight_denominator
    priors = [
        Prior.from_ints(sigma, d, counts)
        for counts in _weight_counts(sigma.n_atoms, d, params.full_support)
    ]
    if params.type_mode == "bayes":
        return priors, None
    return priors, _type_vectors(params, sigma)


def _block_models(
    prior: Prior,
    types: TypeMapping | None,
    posses: Callable[[], list[PossibilityCorrespondence]],
    require: tuple[str, ...],
) -> Iterator[EpistemicModel]:
    """The models (prior, types, P) of a block, one per P of ``posses()``
    that passes ``require``.  With ``types`` None (bayes mode) the types
    follow from (prior, P), and a P with a null cell admits no model."""
    sigma = prior.sigma
    for poss in posses():
        try:
            model_types = bayes_type_from_poss(sigma, prior, poss) if types is None else types
        except ConditioningOnNull:
            continue
        model = EpistemicModel(sigma, prior, poss, model_types)
        if satisfies_require(model, require):
            yield model


def _blocks(params: GenParams) -> Iterator[tuple]:
    """The family in enumeration order (algebra, prior, type mapping, then
    correspondence), one (prior, types, per_atom, models) block at a time:
    ``types`` is None in bayes mode and ``per_atom`` (``_atom_cells``) in
    partition mode.  An algebra's correspondences are listed once, when one
    of its blocks' ``models`` is first iterated."""
    for sigma in _sigmas(params, _space_for(params.n_states)):
        priors, vectors = _components(params, sigma)
        per_atom = _atom_cells(params, sigma)
        posses = cache(partial(_poss_list, sigma, per_atom))
        for prior in priors:
            for types in [None] if vectors is None else vectors:
                yield prior, types, per_atom, _block_models(
                    prior, types, posses, params.require
                )


def enumerate_models(params: GenParams) -> Iterator[EpistemicModel]:
    """Lexicographic, duplicate-free stream over the whole parameter grid:
    the models of each block of ``_blocks`` in turn.

    Component objects are shared across the stream so derived data (order
    sets, set-function flags, integer tables) is computed once per
    component.  An algebra whose family has a component list longer than
    ``MAX_GRID`` raises ResourceLimit before any of its components is built.
    """
    for *_, models in _blocks(params):
        yield from models


# ---------------------------------------------------------------------------
# seeded random sampling


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for n >= 1, and the rng state it leaves: the
    first ``getrandbits(n.bit_length())`` below n, as CPython's
    ``Random._randbelow_with_getrandbits`` draws it."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _random_counts(k: int, d: int, positive: bool, rng: random.Random) -> list[int]:
    counts = [1] * k if positive else [0] * k
    for _ in range(d - k if positive else d):
        counts[_below(rng, k)] += 1
    return counts


def _random_blocks(items: Iterable, rng: random.Random) -> list[list]:
    """A random set partition: each item opens a new block or joins one of
    the blocks so far, uniformly."""
    blocks: list[list] = []
    for item in items:
        i = _below(rng, len(blocks) + 1)
        if i == len(blocks):
            blocks.append([item])
        else:
            blocks[i].append(item)
    return blocks


def _random_sigma(params: GenParams, rng: random.Random) -> SigmaAlgebra:
    """The family's one powerset algebra, or a random partition algebra of
    its one space."""
    if params.sigma_mode == "powerset":
        return _powerset(params.n_states, max_atoms_limit())
    space = _space_for(params.n_states)
    return sigma_from_atoms(space, _random_blocks(space.states, rng))


def _random_prior(params: GenParams, sigma: SigmaAlgebra, rng: random.Random) -> Prior:
    d = params.weight_denominator
    return Prior.from_ints(sigma, d, _random_counts(sigma.n_atoms, d, params.full_support, rng))


def _random_cells(params: GenParams, sigma: SigmaAlgebra, rng: random.Random) -> tuple[int, ...]:
    """The per-state cell masks of a random correspondence."""
    if params.poss_mode == "partition":
        return _atom_partition_cells(sigma, _random_blocks(range(sigma.n_atoms), rng))
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
    return tuple(per_atom[j] for j in sigma.atom_index_of_state)


def _random_table(
    sigma: SigmaAlgebra, params: GenParams, rng: random.Random
) -> SetFunction:
    d = params.weight_denominator
    n_events = 1 << sigma.n_atoms
    if params.type_mode == "random-additive":
        return SetFunction.from_ints(
            sigma, d, _subset_sums(tuple(_random_counts(sigma.n_atoms, d, False, rng)))
        )
    # one value per event, each drawn as randint(0, d) is
    values = [_below(rng, d + 1) for _ in range(n_events)]
    if params.type_mode == "random-monotone-capacity":
        # assigning sorted values along any linear extension of the subset
        # order makes the table monotone
        values.sort()
        table = [0] * n_events
        for rank, combo in enumerate(_by_size(n_events)):
            table[combo] = values[rank]
        return SetFunction.from_ints(sigma, d, table)
    return SetFunction.from_ints(sigma, d, values)


@cache
def _by_size(n_events: int) -> tuple[int, ...]:
    """The event combos by number of atoms, then index: a linear extension
    of the subset order."""
    return tuple(sorted(range(n_events), key=lambda c: (bin(c).count("1"), c)))


def _draw(
    params: GenParams, seed: int, agents: int = 0, screen: tuple[str, ...] = ()
) -> EpistemicModel | InteractiveModel | None:
    """The draw at ``seed``: ``random_model``'s with ``agents`` 0, else an
    interactive one with that many agents.  The rng gives the algebra, the
    prior's counts, then each agent's cells and its tables atom by atom.  A
    drawn table that fails a ``TYPE_FLAGS`` test of ``screen`` stops the
    draw, which gives None having built no model component, as does an
    algebra with more atoms than a full-support prior's denominator: no
    model of the family has it.  Bayes types are derived, and never
    stopped."""
    rng = random.Random(seed)
    sigma = _random_sigma(params, rng)
    if params.full_support and params.weight_denominator < sigma.n_atoms:
        return None
    if params.type_mode == "bayes":
        prior, posses, types = _bayes_draw(params, sigma, rng, agents)
    else:
        d = params.weight_denominator
        counts = _random_counts(sigma.n_atoms, d, params.full_support, rng)
        tests = [TYPE_FLAGS[flag] for flag in screen]
        cells, tables = [], []
        for _ in range(agents or 1):
            cells.append(_random_cells(params, sigma, rng))
            tables.append([])
            for _ in range(sigma.n_atoms):
                table = _random_table(sigma, params, rng)
                for test in tests:
                    if not test(table):
                        return None
                tables[-1].append(table)
        prior = Prior.from_ints(sigma, d, counts)
        posses = [PossibilityCorrespondence(sigma, c) for c in cells]
        atom_of = sigma.atom_index_of_state
        types = [TypeMapping(sigma, tuple(t[j] for j in atom_of)) for t in tables]
    if not agents:
        return EpistemicModel(sigma, prior, posses[0], types[0])
    names = tuple(f"a{i + 1}" for i in range(agents))
    return InteractiveModel(sigma, prior, names, tuple(posses), tuple(types))


def _bayes_draw(
    params: GenParams, sigma: SigmaAlgebra, rng: random.Random, agents: int
) -> tuple[Prior, list[PossibilityCorrespondence], list[TypeMapping]]:
    """The prior, then each agent's correspondence and its types mu(. | cell).
    On a null cell a single-agent draw redraws the prior, and an interactive
    draw the agent's cells."""
    prior = _random_prior(params, sigma, rng)
    posses, types = [], []
    for _ in range(agents or 1):
        poss = PossibilityCorrespondence(sigma, _random_cells(params, sigma, rng))
        for _ in range(MAX_BAYES_REDRAWS):
            try:
                types.append(bayes_type_from_poss(sigma, prior, poss))
                break
            except ConditioningOnNull:
                if agents:
                    poss = PossibilityCorrespondence(sigma, _random_cells(params, sigma, rng))
                else:
                    prior = _random_prior(params, sigma, rng)
        else:
            raise ResourceLimit(
                "could not draw cells of positive measure"
                if agents
                else "could not draw a prior giving positive cells"
            )
        posses.append(poss)
    return prior, posses, types


def random_model(params: GenParams, seed: int) -> EpistemicModel:
    """One reproducible draw from the family described by ``params``."""
    return _in_family(_draw(params, seed))


def random_interactive_model(params: GenParams, seed: int) -> InteractiveModel:
    """One reproducible interactive draw: shared algebra and prior, per-agent
    correspondences and types."""
    return _in_family(_draw(params, seed, params.n_agents))


def _in_family(model: EpistemicModel | InteractiveModel | None):
    """An unscreened ``_draw``, None only outside a full-support family."""
    if model is None:
        raise ValueError("denominator too small for a full-support draw")
    return model


# ---------------------------------------------------------------------------
# counterexample search


@dataclass(frozen=True)
class Claim:
    """A claim: the model it takes (``kind``, "single" or "interactive"),
    its ``parts`` (``theorems.Part``), its ``hypotheses``, the names of the
    ``REQUIRE_FLAGS`` kernels that hold on every model inside it, and
    ``report``, its public verifier, which takes the ``diagnostic`` keyword
    if ``diagnostic``.  ``block``, if set, counts by status
    (hypothesis-not-met included) the models (prior, types, P) whose P
    gives atom j a cell of ``per_atom[j]``, building none of them."""

    kind: str
    parts: tuple[Part, ...]
    hypotheses: tuple[str, ...]
    report: Callable[..., VerificationReport]
    diagnostic: bool = False
    block: Callable[[Prior, TypeMapping, list[list[int]]], dict[str, int]] | None = None

    def status(
        self, model: EpistemicModel | InteractiveModel, checked: tuple[str, ...] = ()
    ) -> str:
        """The claim's status on ``model``, decided by the part rule from the
        kernels of its kind, each asked at most once, without building a
        report: hypothesis-not-met where a condition of its first part
        fails, else verified or falsified.  The kernels ``checked``, which
        the caller has seen hold on ``model``, are not asked again."""
        kernels = _INTERACTIVE_KERNELS if self.kind == "interactive" else _KERNELS
        return _parts_status(self.parts, _Hits(kernels, model, checked).holds)


def _declared(
    name: str,
    report: Callable,
    interactive: bool = False,
    diagnostic: bool = False,
    block: Callable | None = None,
) -> Claim:
    """The claim of the parts ``theorems._PARTS[name]``: its hypotheses are
    the ``REQUIRE_FLAGS`` names among the conditions of its first part, and
    ``block``, if given, counts its blocks by the same parts, read from
    their ``_block_statuses`` table, built here once."""
    parts = _PARTS[name]
    return Claim(
        "interactive" if interactive else "single",
        parts,
        tuple(flag for flag in parts[0].asserted if flag in REQUIRE_FLAGS),
        report,
        diagnostic,
        block and partial(block, statuses=_block_statuses(parts)),
    )


# Every claim that ``emck verify`` and ``emck search`` accept, in the order
# they list them.
CLAIMS: dict[str, Claim] = {
    "theorem-main": _declared("theorem-main", verify_theorem_main, block=_theorem_main_block),
    "theorem-main-product": _declared(
        "theorem-main-product", verify_theorem_main_product, block=_theorem_main_block
    ),
    "prop-1": _declared("prop-1", verify_prop1),
    "prop-2": _declared("prop-2", verify_prop2),
    "prop-3": _declared("prop-3", verify_prop3, interactive=True),
    "cor-main": _declared("cor-main", verify_cor_main, diagnostic=True),
    "cor-unaware": _declared("cor-unaware", verify_cor_unaware, diagnostic=True),
    "cor-regular": _declared("cor-regular", verify_cor_regular),
    "cor-ta": _declared("cor-ta", verify_cor_ta, diagnostic=True),
    "cor-ck": _declared("cor-ck", verify_cor_ck, interactive=True),
    "cor-ta-common": _declared(
        "cor-ta-common", verify_cor_ta_common, interactive=True, diagnostic=True
    ),
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
    report: VerificationReport | None = None

    def summary(self) -> str:
        return (
            f"{'Found' if self.found else 'NotFound'}(claim={self.claim}, "
            f"models_checked={self.models_checked}, hypothesis_skips={self.hypothesis_skips})"
        )


def _random_stream(params: GenParams, agents: int) -> Iterator[EpistemicModel | InteractiveModel]:
    """The draws (``_draw`` with ``agents``) at consecutive seeds from
    ``params.seed`` that pass ``params.require``, each stopped at its first
    table outside a type-local flag of it."""
    if params.budget is None:
        raise ValueError("random search needs a budget")
    screen = tuple(flag for flag in params.require if flag in TYPE_FLAGS)
    attempts = 0
    seed = params.seed
    while True:
        if attempts >= MAX_REJECTED_DRAWS:
            raise ResourceLimit(
                f"require filter rejected {attempts} consecutive draws"
                if params.require
                else f"rejected {attempts} consecutive draws outside the full-support family"
            )
        model = _draw(params, seed, agents, screen)
        seed += 1
        attempts += 1
        if model is not None and satisfies_require(model, params.require):
            attempts = 0
            yield model


def _family_stream(
    params: GenParams, block: Callable | None
) -> Iterator[EpistemicModel | tuple[int, int]]:
    """The models of ``enumerate_models``, up to ``params.budget`` of them,
    with each block that the claim's ``block`` count can count, that holds
    no counterexample and that fits in the rest of the budget given as its
    (checked, skipped) pair instead.  Every other block is expanded; a loop
    that asks for more after the last model of a block counted as
    falsified met no falsified model in it, and the stream raises."""
    budget = params.budget
    seen = 0
    if budget == 0:
        return
    for prior, types, per_atom, models in _blocks(params):
        rest = None if budget is None else budget - seen
        falsified = fits = None
        # a filter reads built models, so only an unfiltered block of given
        # types and per-atom cells is counted
        if block and types is not None and per_atom is not None and not params.require:
            counts = block(prior, types, per_atom)
            falsified = counts.get("falsified", 0)
            pair = (counts.get("verified", 0) + falsified, counts.get("hypothesis-not-met", 0))
            fits = rest is None or sum(pair) <= rest
        if fits and not falsified:
            yield pair
            seen += sum(pair)
        else:
            for model in islice(models, rest):
                yield model
                seen += 1
            if fits:
                raise RuntimeError(
                    "internal inconsistency: the block count found "
                    f"{falsified} falsified models in a block whose models all hold"
                )
        if seen == budget:
            return


def _model_search(
    name: str, models: Iterable[EpistemicModel | InteractiveModel | tuple[int, int]]
) -> SearchResult:
    """The per-model loop: each model outside the claim's hypotheses is
    skipped, and the claim's status is asked of every other one in turn,
    until the first counterexample, the one model whose report is built.  A
    (checked, skipped) pair in the stream counts a block of models that no
    model of it falsifies."""
    claim = CLAIMS[name]
    checked = skips = 0
    for model in models:
        if isinstance(model, tuple):
            checked += model[0]
            skips += model[1]
            continue
        if not satisfies_require(model, claim.hypotheses):
            skips += 1
            continue
        status = claim.status(model, claim.hypotheses)
        if status not in ("verified", "falsified"):
            raise RuntimeError(
                f"internal inconsistency: {name} has status {status!r} on a model "
                "inside its declared hypotheses"
            )
        checked += 1
        if status == "falsified":
            return SearchResult(name, True, checked, skips, model, claim.report(model))
    return SearchResult(name, False, checked, skips)


def search_counterexample(
    claim: str, params: GenParams, mode: str = "enumerate"
) -> SearchResult:
    """Run a claim over a model stream and return the first
    model falsifying its asserted content, or an exact count of models on
    which the claim held.

    Models on which a kernel that the claim names in ``hypotheses`` fails
    are counted separately and never treated as counterexamples.  The
    claim's report is built only for the counterexample, and an exhaustive
    search of a claim with a block count counts, without building them, the
    blocks of models that it can decide.
    """
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim: {claim!r}; known: {sorted(CLAIMS)}")
    if mode not in ("enumerate", "random"):
        raise ValueError(f"unknown search mode: {mode!r}")
    kind = CLAIMS[claim].kind
    if kind == "interactive" and mode != "random":
        raise ValueError("interactive claims are searched by random sampling")
    if mode == "enumerate":
        return _model_search(claim, _family_stream(params, CLAIMS[claim].block))
    stream = _random_stream(params, 0 if kind == "single" else params.n_agents)
    return _model_search(claim, islice(stream, params.budget))
