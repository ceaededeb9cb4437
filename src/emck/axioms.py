"""Consistency axioms linking the prior, the possibility correspondence, and
the type mapping, plus the Kripke-style relational properties of P.

Every check is exhaustive over its (finite) quantified domain and reports the
lexicographically first violation: thresholds ascending, then events in
canonical order, then states in declaration order.  The private ``_*`` kernels
return raw violation data and are shared by the public report builders and by
the theorem verifiers, so there is a single source of truth per axiom.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .beliefs import ONE, ZERO
from .events import SigmaAlgebra
from .operators import EpistemicModel, _b_mask, _k_mask
from .reports import CheckReport, Witness

# ---------------------------------------------------------------------------
# kernels


def _types_probability_violation(model: EpistemicModel) -> int | None:
    """First state whose type is not a normalized additive measure."""
    for i, sf in enumerate(model.types.per_state):
        c = sf.classification
        if not (c.normalized and c.additive):
            return i
    return None


def _invariance_violation(model: EpistemicModel) -> int | None:
    """First event (combo index) where mu(E) != integral of t(., E)."""
    sigma = model.sigma
    prior_table = model.prior.combo_table
    weighted = [
        (w, model.types.per_state[(atom & -atom).bit_length() - 1].table)
        for w, atom in zip(model.prior.weights, sigma.atoms)
        if w != 0
    ]
    for combo in range(1 << sigma.n_atoms):
        total = ZERO
        for w, table in weighted:
            total += w * table[combo]
        if total != prior_table[combo]:
            return combo
    return None


def _entailment_violation(model: EpistemicModel) -> int | None:
    """First state with t(omega, P(omega)) != 1."""
    combos = model.poss.cell_combos
    for i, sf in enumerate(model.types.per_state):
        if sf.table[combos[i]] != 1:
            return i
    return None


def _containment_violation(model: EpistemicModel, which: int) -> tuple[int, int] | None:
    """First (omega, omega') with omega' in P(omega) outside an order set of
    omega's type: the up set (Self-Evidence), the down set, or the bracket,
    for ``which`` = 0, 1, 2."""
    masks = model.types.order_masks[which]
    for i, cell in enumerate(model.poss.cells):
        out = cell & ~masks[i]
        if out:
            return i, (out & -out).bit_length() - 1
    return None


def _certainty_violation(model: EpistemicModel, which: int) -> int | None:
    """First state with t(omega, S(omega)) != 1 for S = up/down/bracket."""
    masks = model.types.order_masks[which]
    combo_of = model.sigma.combo_of
    for i, sf in enumerate(model.types.per_state):
        if sf.table[combo_of(masks[i])] != 1:
            return i
    return None


def _regular_verdict(model: EpistemicModel) -> bool:
    """Fast conjunction used by theorem verifiers (cheapest test first)."""
    return (
        _entailment_violation(model) is None
        and _containment_violation(model, 0) is None
        and _types_probability_violation(model) is None
        and _invariance_violation(model) is None
    )


# ---------------------------------------------------------------------------
# report builders


def check_invariance(model: EpistemicModel) -> CheckReport:
    """mu(E) must equal the expectation of t(., E) under mu, for every E."""
    sigma = model.sigma
    combo = _invariance_violation(model)
    witnesses = ()
    if combo is not None:
        witnesses = (Witness(event=sigma.space.names_of(sigma.event_masks[combo])),)
    scope = f"all {1 << sigma.n_atoms} events"
    return CheckReport("invariance", combo is None, witnesses, scope)


def check_entailment(model: EpistemicModel) -> CheckReport:
    """Everyone is certain of their own information: t(omega, P(omega)) = 1."""
    i = _entailment_violation(model)
    witnesses = ()
    if i is not None:
        name = model.sigma.space.states[i]
        witnesses = (
            Witness(
                state=name,
                event=model.sigma.space.names_of(model.poss.cells[i]),
                note=f"t({name}, P({name})) = {model.types.per_state[i].table[model.poss.cell_combos[i]]}",
            ),
        )
    return CheckReport("entailment", i is None, witnesses, f"all {len(model.space)} states")


def _pair_witnesses(
    model: EpistemicModel, pair: tuple[int, int] | None, note: str
) -> tuple[Witness, ...]:
    if pair is None:
        return ()
    i, j = pair
    states = model.space.states
    return (Witness(state=states[i], other_state=states[j], note=note),)


def _containment_report(
    model: EpistemicModel, name: str, which: int, note: str
) -> CheckReport:
    pair = _containment_violation(model, which)
    return CheckReport(
        name,
        pair is None,
        _pair_witnesses(model, pair, note),
        f"all {len(model.space)}^2 state pairs",
    )


def check_self_evidence(model: EpistemicModel) -> CheckReport:
    """P(omega) lies inside the upper order set of omega's type."""
    return _containment_report(
        model, "self-evidence", 0, "t(omega, .) <= t(omega', .) fails for omega' in P(omega)"
    )


def check_down_containment(model: EpistemicModel) -> CheckReport:
    """P(omega) lies inside the lower order set of omega's type."""
    return _containment_report(
        model, "down-containment", 1, "t(omega', .) <= t(omega, .) fails for omega' in P(omega)"
    )


def _certainty_report(model: EpistemicModel, name: str, which: int) -> CheckReport:
    i = _certainty_violation(model, which)
    witnesses = ()
    if i is not None:
        kind = ("up_set", "down_set", "bracket")[which]
        mask = model.types.order_masks[which][i]
        value = model.types.per_state[i].table[model.sigma.combo_of(mask)]
        witnesses = (
            Witness(
                state=model.space.states[i],
                event=model.sigma.space.names_of(mask),
                note=f"t(omega, {kind}(omega)) = {value}",
            ),
        )
    return CheckReport(name, i is None, witnesses, f"all {len(model.space)} states")


def check_certainty(model: EpistemicModel, almost_surely: bool = False) -> CheckReport:
    """t(omega, [t(omega)]) = 1 at every state (or at mu-almost every state).

    The almost-sure variant only requires the violating states to form a
    mu-null event; both variants are reported by the CLI, the exact one is
    authoritative.
    """
    if not almost_surely:
        return _certainty_report(model, "certainty", 2)
    brackets = model.types.order_masks[2]
    combo_of = model.sigma.combo_of
    violators = 0
    first = None
    for i, sf in enumerate(model.types.per_state):
        if sf.table[combo_of(brackets[i])] != 1:
            violators |= 1 << i
            if first is None:
                first = i
    passed = violators == 0 or model.prior.combo_table[combo_of(violators)] == 0
    witnesses = ()
    if not passed:
        witnesses = (
            Witness(
                state=model.space.states[first],
                event=model.sigma.space.names_of(violators),
                note="violating states have positive measure",
            ),
        )
    return CheckReport(
        "certainty-almost-sure", passed, witnesses, f"all {len(model.space)} states"
    )


def check_positive_certainty(model: EpistemicModel) -> CheckReport:
    """t(omega, up_set(omega)) = 1 at every state."""
    return _certainty_report(model, "positive-certainty", 0)


def check_down_certainty(model: EpistemicModel) -> CheckReport:
    """t(omega, down_set(omega)) = 1 at every state."""
    return _certainty_report(model, "down-certainty", 1)


# ---------------------------------------------------------------------------
# introspection inclusions quantified over thresholds and events


def _inclusion_sweep(model: EpistemicModel, mode: str):
    """First (p, E) violation of one of the four introspection inclusions.

    mode is 'b1-pos' (B^p E <= B^1 B^p E), 'b1-neg', 'k-pos', or 'k-neg'.
    Quantifying p over the critical thresholds decides the claim for every
    p in [0, 1] because each B^p steps only at attained values.
    """
    sigma = model.sigma
    tables = tuple(sf.table for sf in model.types.per_state)
    cells = model.poss.cells
    combo_of = sigma.combo_of
    full = sigma.space.full_mask
    negated = mode.endswith("neg")
    use_k = mode.startswith("k")
    for p in model.types.thresholds:
        for combo in range(1 << sigma.n_atoms):
            b = _b_mask(tables, combo, p)
            target = full & ~b if negated else b
            if use_k:
                outer = _k_mask(cells, target)
            else:
                outer = _b_mask(tables, combo_of(target), ONE)
            out = target & ~outer
            if out:
                return p, combo, (out & -out).bit_length() - 1
    return None


def _introspection_report(model: EpistemicModel, name: str, mode: str) -> CheckReport:
    sigma = model.sigma
    hit = _inclusion_sweep(model, mode)
    witnesses = ()
    if hit is not None:
        p, combo, i = hit
        witnesses = (
            Witness(
                state=sigma.space.states[i],
                event=sigma.space.names_of(sigma.event_masks[combo]),
                threshold=p,
            ),
        )
    scope = (
        f"{len(model.types.thresholds)} thresholds x {1 << sigma.n_atoms} events "
        f"x {len(model.space)} states"
    )
    return CheckReport(name, hit is None, witnesses, scope)


def check_p_introspection(model: EpistemicModel) -> CheckReport:
    """The four introspection inclusions for B^p, each swept over all p and E."""
    children = (
        _introspection_report(model, "b1-positive-introspection", "b1-pos"),
        _introspection_report(model, "b1-negative-introspection", "b1-neg"),
        _introspection_report(model, "k-positive-introspection", "k-pos"),
        _introspection_report(model, "k-negative-introspection", "k-neg"),
    )
    passed = all(c.passed for c in children)
    return CheckReport("p-introspection", passed, (), "see children", children)


# ---------------------------------------------------------------------------
# Truth Axiom up to measure zero


def _truth_reports(
    sigma: SigmaAlgebra,
    prior_table: tuple[Fraction, ...],
    label: str,
    belief_mask_of: Callable[[int], int],
    labelled_tables: tuple[tuple[str, tuple[tuple[Fraction, ...], ...]], ...],
    scope_suffix: str,
) -> tuple[CheckReport, CheckReport]:
    """``label``-truth-mu and ``label``-truth-types for the operator whose mask
    at event combo c is ``belief_mask_of(c)``: the first event whose slack
    (operator minus event) has positive measure under the prior, and the
    first whose slack has positive value under some table.

    ``labelled_tables`` pairs a witness-note prefix ("t", "t_alice") with one
    type table per state.  The slack need not be measurable, so it is
    measured through its smallest measurable cover.
    """
    space = sigma.space
    n_events = 1 << sigma.n_atoms
    mu_hit = None
    ty_hit = None
    for combo in range(n_events):
        slack = belief_mask_of(combo) & ~sigma.event_masks[combo]
        if not slack:
            continue
        cover = sigma.cover_combo(slack)
        if mu_hit is None and prior_table[cover] != 0:
            mu_hit = combo
        if ty_hit is None:
            ty_hit = next(
                (
                    (combo, prefix, i)
                    for prefix, tables in labelled_tables
                    for i, table in enumerate(tables)
                    if table[cover] != 0
                ),
                None,
            )
        if mu_hit is not None and ty_hit is not None:
            break
    mu_witnesses = ()
    if mu_hit is not None:
        mu_witnesses = (
            Witness(
                event=space.names_of(sigma.event_masks[mu_hit]),
                note=f"mu({label}(E) minus E) > 0",
            ),
        )
    ty_witnesses = ()
    if ty_hit is not None:
        combo, prefix, i = ty_hit
        ty_witnesses = (
            Witness(
                state=space.states[i],
                event=space.names_of(sigma.event_masks[combo]),
                note=f"{prefix}(omega, {label}(E) minus E) > 0",
            ),
        )
    scope = f"all {n_events} events"
    return (
        CheckReport(f"{label}-truth-mu", mu_hit is None, mu_witnesses, scope),
        CheckReport(
            f"{label}-truth-types", ty_hit is None, ty_witnesses, scope + scope_suffix
        ),
    )


# ---------------------------------------------------------------------------
# compound checks


def check_types_are_measures(model: EpistemicModel) -> CheckReport:
    i = _types_probability_violation(model)
    witnesses = ()
    if i is not None:
        c = model.types.per_state[i].classification
        witnesses = (
            Witness(
                state=model.space.states[i],
                note=f"normalized={c.normalized} additive={c.additive}",
            ),
        )
    return CheckReport(
        "probability-types", i is None, witnesses, f"all {len(model.space)} states"
    )


def is_regular(model: EpistemicModel) -> CheckReport:
    """Regularity: additive probability types plus Invariance, Entailment,
    and Self-Evidence, each re-checked exhaustively."""
    children = (
        check_types_are_measures(model),
        check_invariance(model),
        check_entailment(model),
        check_self_evidence(model),
    )
    passed = all(c.passed for c in children)
    return CheckReport("regular", passed, (), "conjunction of children", children)


def kripke_properties(model: EpistemicModel) -> CheckReport:
    """Relational properties of P and the matching operator laws of K.

    Each relational property is checked directly on the cells, its operator
    form (Truth Axiom, Positive/Negative Introspection) is checked over every
    event, and the two routes are required to agree; a disagreement would be
    an internal inconsistency, not a property of the model.  The top-level
    verdict is partition-ness (all three properties).
    """
    sigma = model.sigma
    space = sigma.space
    cells = model.poss.cells
    n = len(space)

    def relational(kind: str):
        for i in range(n):
            if kind == "reflexive":
                if not (cells[i] >> i & 1):
                    return i, i
                continue
            rest = cells[i]
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if kind == "transitive" and cells[j] & ~cells[i]:
                    return i, j
                if kind == "euclidean" and cells[i] & ~cells[j]:
                    return i, j
        return None

    def operator(kind: str):
        full = space.full_mask
        for combo in range(1 << sigma.n_atoms):
            emask = sigma.event_masks[combo]
            k = _k_mask(cells, emask)
            if kind == "truth-axiom":
                bad = k & ~emask
            elif kind == "positive-introspection":
                bad = k & ~_k_mask(cells, k)
            else:
                nk = full & ~k
                bad = nk & ~_k_mask(cells, nk)
            if bad:
                return combo, (bad & -bad).bit_length() - 1
        return None

    pairs = (
        ("reflexive", "truth-axiom"),
        ("transitive", "positive-introspection"),
        ("euclidean", "negative-introspection"),
    )
    children = []
    flags = {}
    for rel_name, op_name in pairs:
        rel = relational(rel_name)
        op = operator(op_name)
        if (rel is None) != (op is None):
            raise RuntimeError(
                f"internal inconsistency: {rel_name} and {op_name} disagree"
            )
        flags[rel_name] = rel is None
        rel_witnesses = ()
        if rel is not None:
            i, j = rel
            rel_witnesses = (
                Witness(state=space.states[i], other_state=space.states[j]),
            )
        children.append(
            CheckReport(rel_name, rel is None, rel_witnesses, f"all {n}^2 state pairs")
        )
        op_witnesses = ()
        if op is not None:
            combo, i = op
            op_witnesses = (
                Witness(
                    state=space.states[i],
                    event=space.names_of(sigma.event_masks[combo]),
                ),
            )
        children.append(
            CheckReport(op_name, op is None, op_witnesses, f"all {1 << sigma.n_atoms} events")
        )
    partition = all(flags.values())
    witnesses = ()
    if not partition:
        failing = next(name for name in flags if not flags[name])
        rel = relational(failing)
        i, j = rel  # type: ignore[misc]
        witnesses = (
            Witness(
                state=space.states[i],
                other_state=space.states[j],
                note=f"not {failing} at ({space.states[i]},{space.states[j]})",
            ),
        )
    return CheckReport("kripke", partition, witnesses, "partition iff all three", tuple(children))
