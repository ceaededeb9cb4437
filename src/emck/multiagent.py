"""Interactive models: several agents sharing one probability space, with
per-agent correspondences and type mappings, plus mutual and common belief
operators and the agreement checker.  The interactive claims' kernels are
``_INTERACTIVE_KERNELS``, from which their verifiers read every verdict.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Callable
from math import lcm, prod

from .axioms import (
    REQUIRE_FLAGS,
    _event_sweep,
    _event_witness,
    _Hits,
    _operator_law_hits,
    _truth_axiom_kernels,
    _truth_axiom_checks,
    is_regular,
)
from .beliefs import Prior, TypeMapping, _level, _levels, _rescale, as_threshold
from .caching import cached_property
from .errors import InvariantError, ResourceLimit
from .events import Event, SigmaAlgebra, check_name
from .operators import EpistemicModel, PossibilityCorrespondence, _b_mask, _k_mask
from .reports import (
    CheckReport,
    VerificationReport,
    _first_violation,
    _format_ratio,
    _precondition,
    _witness_at,
)
from .theorems import _claim_report


@dataclass(frozen=True)
class InteractiveModel:
    """Shared (space, algebra, prior) with one (P_i, t_i) pair per agent.

    Agent names are distinct and pass :func:`~emck.events.check_name`; like
    :class:`EpistemicModel`, the model holds any cells, null ones included.
    """

    sigma: SigmaAlgebra
    prior: Prior
    agents: tuple[str, ...]
    posses: tuple[PossibilityCorrespondence, ...]
    types: tuple[TypeMapping, ...]

    def __post_init__(self):
        if len(self.agents) == 0:
            raise InvariantError("an interactive model needs at least one agent")
        for name in self.agents:
            check_name(name, "agent")
        if len(set(self.agents)) != len(self.agents):
            raise InvariantError("agent names must be unique")
        if not (len(self.agents) == len(self.posses) == len(self.types)):
            raise InvariantError(
                "agents, correspondences, and type mappings must align"
            )
        self.agent_models  # eager: runs every per-agent validation

    @cached_property
    def agent_models(self) -> tuple[EpistemicModel, ...]:
        return tuple(
            EpistemicModel(self.sigma, self.prior, poss, types)
            for poss, types in zip(self.posses, self.types)
        )

    def agent_model(self, name: str) -> EpistemicModel:
        if name not in self.agents:
            raise KeyError(f"unknown agent: {name!r}")
        return self.agent_models[self.agents.index(name)]

    @property
    def space(self):
        return self.sigma.space

    @cached_property
    def is_discrete(self) -> bool:
        return self.agent_models[0].is_discrete

    @cached_property
    def reach_masks(self) -> tuple[int, ...]:
        """States reachable in one or more steps of the union relation
        Q(omega) = union over agents of P_i(omega)."""
        n = len(self.space)
        q = [0] * n
        for poss in self.posses:
            for i, cell in enumerate(poss.cells):
                q[i] |= cell
        reach = list(q)
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = reach[i]
                rest = acc
                while rest:
                    j = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    acc |= reach[j]
                if acc != reach[i]:
                    reach[i] = acc
                    changed = True
        return tuple(reach)

    @cached_property
    def int_tables(self) -> tuple[int, tuple[tuple[tuple[int, ...], ...], ...]]:
        """(D, every agent's ``TypeMapping.int_tables`` rescaled to D), D the
        least common denominator of every agent's type values: the one table
        form of the multi-agent kernels, so B^p has one level for all agents."""
        d = lcm(*(types.int_tables[0] for types in self.types))
        return d, tuple(
            tuple(_rescale((di, table), d) for table in tables)
            for di, tables in (types.int_tables for types in self.types)
        )

    @cached_property
    def thresholds(self) -> tuple[Fraction, ...]:
        """{0, 1} plus every value attained by any agent's type, ascending."""
        d = self.int_tables[0]
        return tuple(Fraction(n, d) for n in self.levels)

    @cached_property
    def levels(self) -> tuple[int, ...]:
        """The ``thresholds`` as integer levels on the D of ``int_tables``."""
        d, agents = self.int_tables
        return _levels(d, (table for tables in agents for table in tables))

    @cached_property
    def common_k_masks(self) -> tuple[int, ...]:
        """C(E) of every event E, by combo: the one table of the common
        qualitative operator that the sweep and the verifiers read."""
        return tuple(_common_k_mask(self, emask) for emask in self.sigma.event_masks)

    @cached_property
    def common_one_masks(self) -> tuple[int, ...]:
        """C^1(E) of every event E, by combo."""
        one = self.int_tables[0]
        return tuple([_common_b_mask(self, c, one) for c in range(len(self.sigma.event_masks))])

    @cached_property
    def common_k_laws(self) -> tuple[tuple[int, int] | None, ...]:
        """``axioms._operator_law_hits`` of C, which, C(E) being an event,
        looks C up by the combo of its argument."""
        combo_of = self.sigma.combo_of
        c_masks = self.common_k_masks
        return _operator_law_hits(self.sigma, lambda mask: c_masks[combo_of(mask)])

    @cached_property
    def regular(self) -> bool:
        """Every agent's model is regular; decided once per model."""
        return all(m.regular for m in self.agent_models)

    def event(self, names) -> Event:
        return self.sigma.event(names)


def _check_event(imodel: InteractiveModel, event: Event) -> None:
    imodel.sigma.check_same(event.sigma, "event belongs to a different algebra")


# ---------------------------------------------------------------------------
# mutual and common operators


def _mutual_k(imodel: InteractiveModel, emask: int) -> int:
    m = imodel.space.full_mask
    for poss in imodel.posses:
        m &= _k_mask(poss.cells, emask)
        if not m:
            break
    return m


def _mutual_b(imodel: InteractiveModel, combo: int, level: int) -> int:
    """Everyone p-believes the event ``combo``, for ``level`` = ceil(p D) on
    the common D of ``InteractiveModel.int_tables``."""
    m = imodel.space.full_mask
    for tables in imodel.int_tables[1]:
        m &= _b_mask(tables, combo, level)
        if not m:
            break
    return m


def mutual_qualitative(imodel: InteractiveModel, event: Event) -> Event:
    """States where every agent qualitatively believes the event."""
    _check_event(imodel, event)
    return Event(imodel.sigma, _mutual_k(imodel, event.mask))


def mutual_p_belief(imodel: InteractiveModel, p, event: Event) -> Event:
    """States where every agent assigns the event probability at least p."""
    _check_event(imodel, event)
    p = as_threshold(p)
    combo = imodel.sigma.combo_of(event.mask)
    level = _level(p, imodel.int_tables[0])
    return Event(imodel.sigma, _mutual_b(imodel, combo, level))


def _common_k_mask(imodel: InteractiveModel, emask: int) -> int:
    reach = imodel.reach_masks
    out = 0
    bit = 1
    for r in reach:
        if r & ~emask == 0:
            out |= bit
        bit <<= 1
    return out


def _iterative_common_k(imodel: InteractiveModel, emask: int) -> int:
    """Intersection of the first |states| iterates of the mutual operator.

    Walks longer than the state count revisit already-reachable states, so
    truncating the infinite intersection there is exact.
    """
    acc = imodel.space.full_mask
    x = emask
    for _ in range(len(imodel.space)):
        x = _mutual_k(imodel, x)
        acc &= x
    return acc


def common_qualitative(imodel: InteractiveModel, event: Event) -> Event:
    """C(E): states from which every chain of considered-possible states,
    across all agents, stays inside E.

    Computed from the transitive closure of the union relation and
    cross-checked against the iterated mutual operator; a mismatch would be
    an internal defect, not a property of the model.
    """
    _check_event(imodel, event)
    mask = _common_k_mask(imodel, event.mask)
    if mask != _iterative_common_k(imodel, event.mask):
        raise RuntimeError(
            "internal inconsistency: closure and iteration disagree"
        )
    return Event(imodel.sigma, mask)


def _common_b_mask(imodel: InteractiveModel, combo: int, level: int) -> int:
    """Intersection of all iterates X_(n+1) = mutual-B^p(X_n) from the event,
    for the ``_mutual_b`` level of p.

    The iterates live in the finite algebra and the map is deterministic, so
    the sequence is eventually periodic; accumulation stops once an input
    event repeats, at which point every later iterate has been seen.
    """
    combo_of = imodel.sigma.combo_of
    acc = imodel.space.full_mask
    cur = combo
    seen: set[int] = set()
    while cur not in seen:
        seen.add(cur)
        m = _mutual_b(imodel, cur, level)
        acc &= m
        cur = combo_of(m)
    return acc


def common_p_belief(imodel: InteractiveModel, p, event: Event) -> Event:
    """C^p(E): the intersection of every finite depth of 'everyone p-believes'."""
    _check_event(imodel, event)
    p = as_threshold(p)
    combo = imodel.sigma.combo_of(event.mask)
    level = _level(p, imodel.int_tables[0])
    return Event(imodel.sigma, _common_b_mask(imodel, combo, level))


# ---------------------------------------------------------------------------
# interactive checks and verifiers


def is_regular_interactive(imodel: InteractiveModel) -> CheckReport:
    """Regularity agent by agent; the model is regular iff every agent is."""
    children = tuple(
        replace(is_regular(m), name=f"regular[{name}]")
        for name, m in zip(imodel.agents, imodel.agent_models)
    )
    return CheckReport(
        "regular-interactive",
        all(c.passed for c in children),
        (),
        f"all {len(imodel.agents)} agents",
        children,
    )


def verify_cor_ck(imodel: InteractiveModel) -> VerificationReport:
    """Discrete regular case: common qualitative belief is common knowledge.

    Asserts C(E) = C^1(E) for every event, and Truth Axiom, Positive
    Introspection, and Negative Introspection for C.  On models that are not
    discrete or not regular the checks still run but nothing is asserted.
    """
    hits = _Hits(_INTERACTIVE_KERNELS, imodel)
    sigma = imodel.sigma
    scope = f"all {1 << sigma.n_atoms} events"
    checks = tuple(
        _first_violation(name, hits[name], scope, _event_witness(sigma, note))
        for name, note in (
            ("c-equals-c1", "C(E) and C^1(E) disagree at this state"),
            ("c-truth-axiom", "state in C(E) but not in E"),
            ("c-positive-introspection", "state in C(E) but not in C(C(E))"),
            ("c-negative-introspection", "state outside C(E) but not in C(not C(E))"),
        )
    )
    return _claim_report("cor-ck", hits.holds, checks=checks)


# Most value vectors an agreement check enumerates for one event.
MAX_VALUE_VECTORS = 100_000


def _agreement_profiles(imodel: InteractiveModel, combo: int, budget: int):
    """(number of value vectors, profiles) for the event with index ``combo``:
    every value vector whose values differ, in enumeration order, as (value
    vector, mask of the states holding it, spread, whether C of that mask is
    nonempty).  Values and spreads are integers on the common D of
    ``InteractiveModel.int_tables``; none of it depends on a threshold."""
    per_agent = []
    for tables in imodel.int_tables[1]:
        levels: dict[int, int] = {}
        for i, table in enumerate(tables):
            levels[table[combo]] = levels.get(table[combo], 0) | 1 << i
        per_agent.append(sorted(levels.items()))
    total = prod(len(levels) for levels in per_agent)
    if total > budget:
        raise ResourceLimit(f"{total} value vectors exceed the budget of {budget}")
    full = imodel.space.full_mask
    profiles = []
    for profile in product(*per_agent):
        vector = tuple(r for r, _ in profile)
        spread = max(vector) - min(vector)
        if not spread:
            continue
        d = full
        for _, mask in profile:
            d &= mask
            if not d:
                break
        profiles.append((vector, d, spread, _common_k_mask(imodel, d) != 0))
    return total, profiles


def _agreement_violation(imodel: InteractiveModel, level: int, profiles):
    """First violation at the threshold p of integer level ``level`` =
    ceil(p D) among an event's ``_agreement_profiles``: (integer value
    vector, the mask of states holding it, "p" or "k" for the common belief
    that breaks the bound).  With s the integer spread on the common D,
    spread > 1 - p iff s > D - ceil(p D), so each profile costs one integer
    comparison."""
    if not profiles:
        return None
    d = imodel.int_tables[0]
    combo_of = imodel.sigma.combo_of
    for vector, states, spread, common_k in profiles:
        if spread > d - level and _common_b_mask(imodel, combo_of(states), level):
            return vector, states, "p"
        if common_k:
            return vector, states, "k"
    return None


def verify_agreement(
    imodel: InteractiveModel, p, event: Event, budget: int = MAX_VALUE_VECTORS
) -> CheckReport:
    """No agreeing to disagree: for every vector of posterior values the
    agents can jointly hold about the event, common p-belief in that value
    profile bounds the spread of the values by 1 - p, and common qualitative
    belief forces them to be equal.

    Enumerates every attainable value vector exactly; raises ResourceLimit
    rather than sampling if there are more than ``budget`` of them.
    """
    _check_event(imodel, event)
    p = as_threshold(p)
    _precondition(imodel.regular, False, "agreement requires a regular interactive model")
    return _agreement_report(imodel, p, imodel.sigma.combo_of(event.mask), budget)


def _agreement_report(
    imodel: InteractiveModel, p: Fraction, combo: int, budget: int
) -> CheckReport:
    """The report of ``verify_agreement`` at the threshold ``p`` and the
    event of index ``combo``."""
    sigma = imodel.sigma
    total, profiles = _agreement_profiles(imodel, combo, budget)
    hit = _agreement_violation(imodel, _level(p, imodel.int_tables[0]), profiles)

    def witness(hit):
        vector, d, kind = hit
        scale = imodel.int_tables[0]
        values = ", ".join(
            f"{name}={_format_ratio(r, scale)}"
            for name, r in zip(imodel.agents, vector)
        )
        if kind == "p":
            note = f"C^p of the value profile ({values}) is nonempty but the spread exceeds 1-p"
        else:
            note = f"C of the value profile ({values}) is nonempty but the values differ"
        return _witness_at(sigma, mask=d, threshold=p, note=note)

    return _first_violation("agreement", hit, f"{total} value vectors for one event", witness)


def agreement_sweep(imodel: InteractiveModel) -> CheckReport:
    """verify_agreement over every critical threshold and every event; only
    the first failing pair, if any, gets its own report."""
    hits = _Hits(_INTERACTIVE_KERNELS, imodel)
    _precondition(hits.holds("regular"), False, "agreement requires a regular interactive model")
    return _sweep_report(hits)


def verify_prop3(imodel: InteractiveModel) -> VerificationReport:
    """No agreeing to disagree: ``agreement_sweep``'s check, nested in the
    claim's report and read from the same hits."""
    hits = _Hits(_INTERACTIVE_KERNELS, imodel)
    _precondition(hits.holds("regular"), False, "agreement requires a regular interactive model")
    return _claim_report("prop-3", hits.holds, checks=(_sweep_report(hits),))


def _sweep_report(hits: _Hits) -> CheckReport:
    """``agreement_sweep``'s check of the regular model ``hits.model``."""
    imodel = hits.model
    hit = hits["agreement"]
    d = imodel.int_tables[0]
    levels = imodel.levels
    if hit is not None:
        k, combo = hit
        return _agreement_report(imodel, Fraction(levels[k], d), combo, MAX_VALUE_VECTORS)
    pairs = len(levels) * len(imodel.sigma.event_masks)
    return CheckReport("agreement-sweep", True, (), f"{pairs} (threshold, event) pairs")


def _agreement_pair_sweep(imodel: InteractiveModel) -> tuple[int, int] | None:
    """(level index, event combo) of the least (threshold, event) pair at
    which ``verify_agreement`` fails, or None.

    Each event is decided in one pass over its value profiles, the groups of
    states holding one value vector: a vector that no state holds never
    breaks the bound, since every cell of a regular model is nonempty and
    t(omega, empty) = 0.  A profile with C(S) nonempty fails at the first
    threshold.  Otherwise, as C^p(S) shrinks as p grows on a regular model,
    it fails first at the least level above D - spread, or nowhere, so one
    ``_common_b_mask`` there decides it.  The first failing pair is the
    least (level, event), as in the per-pair loop, and each event's count of
    value vectors is checked in event order, so a ResourceLimit surfaces at
    the same pair as there.  Both facts hold on a regular model, the only
    kind that ``agreement_sweep`` and the status of prop-3 ask it about.
    """
    sigma = imodel.sigma
    combo_of = sigma.combo_of
    d, agents = imodel.int_tables
    levels = imodel.levels
    c_masks = imodel.common_k_masks
    decided: dict[tuple[int, int], int] = {}  # C^level(S) by (combo of S, level index)
    first = None  # (level index, combo) of the least failing pair so far
    # each event's values, one tuple over the states per agent
    for combo, values in enumerate(zip(*(zip(*tables) for tables in agents))):
        total = prod(len(set(column)) for column in values)
        if total > MAX_VALUE_VECTORS:
            raise ResourceLimit(
                f"{total} value vectors exceed the budget of {MAX_VALUE_VECTORS}"
            )
        groups: dict[tuple[int, ...], int] = {}
        for i, vector in enumerate(zip(*values)):
            groups[vector] = groups.get(vector, 0) | 1 << i
        for vector, states in groups.items():
            spread = max(vector) - min(vector)
            if not spread:
                continue
            held = combo_of(states)
            if c_masks[held]:
                first = 0, combo
                break
            k = bisect_right(levels, d - spread)
            # a later event wins only below the least failing level so far
            if first is not None and k >= first[0]:
                continue
            if (held, k) not in decided:
                decided[held, k] = _common_b_mask(imodel, held, levels[k])
            if decided[held, k]:
                first = k, combo
        if first is not None and first[0] == 0:
            break
    return first


def verify_cor_ta_common(
    imodel: InteractiveModel, diagnostic: bool = False
) -> VerificationReport:
    """Truth Axiom up to measure zero for the common operators: C(E) and
    C^1(E) exceed E only by events that are null under the prior and under
    every agent's type at every state."""
    hits = _Hits(_INTERACTIVE_KERNELS, imodel)
    _precondition(hits.holds("regular"), diagnostic, "requires a regular interactive model")
    n = len(imodel.space)
    checks = _truth_axiom_checks(
        imodel.sigma,
        hits,
        ("c", "c1"),
        tuple((f"t_{name}", i) for name in imodel.agents for i in range(n)),
        f" x {len(imodel.agents)} agents x {n} states",
    )
    return _claim_report("cor-ta-common", hits.holds, checks=checks)


def _c_equals_c1_violation(imodel: InteractiveModel) -> tuple[int, int] | None:
    """(event combo, state) where C(E) and C^1(E) first disagree."""
    c, c1 = imodel.common_k_masks, imodel.common_one_masks
    return _event_sweep(imodel.sigma, lambda combo: c[combo] ^ c1[combo])


def _agent_tables(imodel: InteractiveModel) -> tuple[tuple[int, ...], ...]:
    """Every agent's integer type table at every state, agent by agent."""
    return tuple(table for tables in imodel.int_tables[1] for table in tables)


# The kernels of the interactive claims, by name: the two ``REQUIRE_FLAGS``
# that read an interactive model, and each statement that a claim asserts.
_INTERACTIVE_KERNELS: dict[str, Callable[[InteractiveModel], object]] = {
    **{name: REQUIRE_FLAGS[name] for name in ("discrete", "regular")},
    "agreement": lambda im: _agreement_pair_sweep(im),
    "c-equals-c1": lambda im: _c_equals_c1_violation(im),
    "c-truth-axiom": lambda im: im.common_k_laws[0],
    "c-positive-introspection": lambda im: im.common_k_laws[1],
    "c-negative-introspection": lambda im: im.common_k_laws[2],
    **_truth_axiom_kernels("c", lambda im: im.common_k_masks.__getitem__, _agent_tables),
    **_truth_axiom_kernels("c1", lambda im: im.common_one_masks.__getitem__, _agent_tables),
}
