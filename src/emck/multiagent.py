"""Interactive models: several agents sharing one probability space, with
per-agent correspondences and type mappings, plus mutual and common belief
operators and the agreement checker.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import lcm, prod

from .axioms import (
    _event_sweep,
    _event_witness,
    _operator_law_hits,
    _truth_axiom_report,
    is_regular,
)
from .beliefs import Prior, TypeMapping, _level, _rescale, _thresholds, as_threshold
from .caching import cached_property
from .errors import InvariantError, ResourceLimit
from .events import Event, SigmaAlgebra, check_name
from .operators import EpistemicModel, PossibilityCorrespondence, _b_mask, _k_mask
from .reports import (
    CheckReport,
    HypothesisResult,
    VerificationReport,
    _first_violation,
    _precondition,
    _witness_at,
    format_rational,
)


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
        d, agents = self.int_tables
        return _thresholds(d, (table for tables in agents for table in tables))

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
    sigma = imodel.sigma
    combo_of = sigma.combo_of
    n_events = 1 << sigma.n_atoms
    # C of every event, computed once; C(E) is always an event, so the laws
    # look it up by the combo of their argument
    c_masks = [_common_k_mask(imodel, emask) for emask in sigma.event_masks]
    one = imodel.int_tables[0]
    eq_hit = _event_sweep(
        sigma, lambda combo: c_masks[combo] ^ _common_b_mask(imodel, combo, one)
    )
    ta_hit, pi_hit, ni_hit = _operator_law_hits(sigma, lambda mask: c_masks[combo_of(mask)])
    checks = tuple(
        _first_violation(name, hit, f"all {n_events} events", _event_witness(sigma, note))
        for name, hit, note in (
            ("c-equals-c1", eq_hit, "C(E) and C^1(E) disagree at this state"),
            ("c-truth-axiom", ta_hit, "state in C(E) but not in E"),
            ("c-positive-introspection", pi_hit, "state in C(E) but not in C(C(E))"),
            ("c-negative-introspection", ni_hit, "state outside C(E) but not in C(not C(E))"),
        )
    )
    return VerificationReport(
        claim="cor-ck",
        hypotheses=(
            HypothesisResult("discrete", imodel.is_discrete),
            HypothesisResult("regular", imodel.regular),
        ),
        checks=checks,
    )


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


def _agreement_violation(imodel: InteractiveModel, p: Fraction, profiles):
    """First violation at threshold p among an event's ``_agreement_profiles``:
    (integer value vector, the mask of states holding it, "p" or "k" for the
    common belief that breaks the bound).  With s the integer spread on the
    common D, spread > 1 - p iff s > D - ceil(p D), so each profile costs one
    integer comparison."""
    if not profiles:
        return None
    d = imodel.int_tables[0]
    level = _level(p, d)
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
    sigma = imodel.sigma
    total, profiles = _agreement_profiles(imodel, sigma.combo_of(event.mask), budget)
    hit = _agreement_violation(imodel, p, profiles)

    def witness(hit):
        vector, d, kind = hit
        scale = imodel.int_tables[0]
        values = ", ".join(
            f"{name}={format_rational(Fraction(r, scale))}"
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
    _precondition(imodel.regular, False, "agreement requires a regular interactive model")
    sigma = imodel.sigma
    n_events = 1 << sigma.n_atoms
    # each event's profiles are built on first use, in the sweep's order, so a
    # ResourceLimit surfaces at the same (threshold, event) pair as per pair
    profiles: list = [None] * n_events
    for p in imodel.thresholds:
        for combo in range(n_events):
            if profiles[combo] is None:
                profiles[combo] = _agreement_profiles(imodel, combo, MAX_VALUE_VECTORS)[1]
            if _agreement_violation(imodel, p, profiles[combo]) is not None:
                return verify_agreement(imodel, p, Event(sigma, sigma.event_masks[combo]))
    pairs = len(imodel.thresholds) * n_events
    return CheckReport("agreement-sweep", True, (), f"{pairs} (threshold, event) pairs")


def verify_cor_ta_common(
    imodel: InteractiveModel, diagnostic: bool = False
) -> CheckReport:
    """Truth Axiom up to measure zero for the common operators: C(E) and
    C^1(E) exceed E only by events that are null under the prior and under
    every agent's type at every state."""
    diagnosed = _precondition(imodel.regular, diagnostic, "requires a regular interactive model")
    sigma = imodel.sigma
    one, agent_tables = imodel.int_tables
    labelled = tuple((f"t_{name}", tables) for name, tables in zip(imodel.agents, agent_tables))
    operators = (
        ("c", lambda combo: _common_k_mask(imodel, sigma.event_masks[combo])),
        ("c1", lambda combo: _common_b_mask(imodel, combo, one)),
    )
    return _truth_axiom_report(
        "almost-sure-truth-axiom-common",
        "common operators" + diagnosed,
        sigma,
        imodel.prior.int_table[1],
        operators,
        labelled,
        f" x {len(imodel.agents)} agents x {len(sigma.space)} states",
    )
