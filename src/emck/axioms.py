"""Consistency axioms linking the prior, the possibility correspondence, and
the type mapping, plus the Kripke-style relational properties of P.

Every check is exhaustive over its (finite) quantified domain and reports the
lexicographically first violation: thresholds ascending, then events in
canonical order, then states in declaration order.

A check runs in three steps.  Its private kernel returns the first
violation as raw indices (a state, an event combo, a threshold), or None; a
per-state condition has a ``_*_mask`` kernel instead, which takes the
components it reads (types, cells, prior) and returns the mask of failing
states.  The kernels are shared with the theorem verifiers and the factored
search, so each condition is decided in one place.  Kernels read only the
integer tables (``TypeMapping.int_tables``, ``Prior.int_table``);
``Fraction`` values appear in witness text.  ``_certainty_mask`` decides
every condition of the form t(omega, X(omega)) = 1: Entailment, the three
Certainty checks and almost-sure Certainty.  Two kernels serve every "for
all events" law:
``_event_sweep`` finds the first event at which a mask of offending states is
nonempty, and ``_operator_law_hits`` decides the Truth Axiom and both
introspections for any operator on state masks (K here and in the discrete
corollaries, C in the interactive one).  A hit -> witness mapping
(``_pair_witness``, ``_event_witness``, ``_inclusion_witness``,
``_certainty_witness`` or a local one) names the hit through
``reports._witness_at``, and ``reports._first_violation`` wraps verdict and
witness into the report.  The kernels that the claims name, the
``REQUIRE_FLAGS`` among them, return their first hit or None; a ``_Hits``
runs each at most once per model, for a claim's status and its report.  The
three type-local flags read ``TYPE_FLAGS``, one test per state's type, which
a random draw of ``modelgen`` also applies to each table as it draws it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .beliefs import Prior, SetFunction, TypeMapping
from .events import SigmaAlgebra
from .operators import EpistemicModel, _b_mask, _first_state, _k_mask, _relational_violation
from .reports import CheckReport, Witness, _first_violation, _format_ratio, _witnesses, _witness_at

# ---------------------------------------------------------------------------
# kernels


# The type-local ``REQUIRE_FLAGS``, each as the test of one state's type: a
# flag holds on a model iff its test holds on every state's table, so a
# random draw can stop at the first table that fails it.
TYPE_FLAGS: dict[str, Callable[[SetFunction], bool]] = {
    "probability-types": lambda sf: sf.normalized and sf.additive,
    "monotone-types": lambda sf: sf.monotone,
    "one-intersection": lambda sf: sf.one_intersection,
}


def _type_violation(types: TypeMapping, flag: str) -> int | None:
    """First state whose type fails the test ``TYPE_FLAGS[flag]``."""
    test = TYPE_FLAGS[flag]
    for i, sf in enumerate(types.per_state):
        if not test(sf):
            return i
    return None


def _types_probability_violation(types: TypeMapping) -> int | None:
    """First state whose type is not a normalized additive measure."""
    return _type_violation(types, "probability-types")


def _invariance_violation(prior: Prior, types: TypeMapping) -> int | None:
    """First event (combo index) where mu(E) != integral of t(., E).

    Decided on integers: with mu(E) = m[E] / D_mu, atom j of weight
    a_j / D_mu and t(omega_j, E) = b_j[E] / D at its first state, the
    condition is sum_j a_j b_j[E] = m[E] D.
    """
    d, tables = types.int_tables
    prior_ints = prior.int_table[1]
    weighted = [
        (prior_ints[1 << j], tables[(atom & -atom).bit_length() - 1])
        for j, atom in enumerate(types.sigma.atoms)
        if prior_ints[1 << j]
    ]
    for combo, m in enumerate(prior_ints):
        total = 0
        for a, ints in weighted:
            total += a * ints[combo]
        if total != m * d:
            return combo
    return None


def _containment_mask(types: TypeMapping, cells: tuple[int, ...], which: int) -> int:
    """The states omega whose cell ``cells[omega]`` leaves an order set of
    omega's type: the up set (Self-Evidence), the down set, or the bracket,
    for ``which`` = 0, 1, 2."""
    masks = types.order_masks[which]
    out = 0
    for i, cell in enumerate(cells):
        if cell & ~masks[i]:
            out |= 1 << i
    return out


def _containment_violation(model: EpistemicModel, which: int) -> tuple[int, int] | None:
    """First (omega, omega') with omega' in P(omega) outside the order set
    of ``_containment_mask``."""
    cells = model.poss.cells
    i = _first_state(_containment_mask(model.types, cells, which))
    if i is None:
        return None
    out = cells[i] & ~model.types.order_masks[which][i]
    return i, (out & -out).bit_length() - 1


def _certainty_mask(types: TypeMapping, masks: tuple[int, ...]) -> int:
    """The states omega with t(omega, X(omega)) != 1, for X(omega) the mask
    ``masks[omega]``: the cells P for Entailment, an order set of
    ``TypeMapping.order_masks`` for a Certainty condition."""
    d, tables = types.int_tables
    combo_of = types.sigma.combo_of
    out = 0
    for i, table in enumerate(tables):
        if table[combo_of(masks[i])] != d:
            out |= 1 << i
    return out


def _event_sweep(sigma: SigmaAlgebra, bad_of: Callable[[int], int]) -> tuple[int, int] | None:
    """(event combo, lowest state) of the first event whose mask
    ``bad_of(combo)`` of offending states is nonempty."""
    for combo in range(1 << sigma.n_atoms):
        bad = bad_of(combo)
        if bad:
            return combo, (bad & -bad).bit_length() - 1
    return None


def _operator_law_hits(
    sigma: SigmaAlgebra, op: Callable[[int], int]
) -> tuple[tuple[int, int] | None, ...]:
    """First hits of the Truth Axiom op(E) <= E, Positive Introspection
    op(E) <= op(op(E)) and Negative Introspection not-op(E) <= op(not-op(E))
    for an operator on state masks, each swept over every event E."""
    emasks = sigma.event_masks
    full = sigma.space.full_mask

    def unseen(mask: int) -> int:
        """The states of ``mask`` outside op(mask)."""
        return mask & ~op(mask)

    return (
        _event_sweep(sigma, lambda combo: op(emasks[combo]) & ~emasks[combo]),
        _event_sweep(sigma, lambda combo: unseen(op(emasks[combo]))),
        _event_sweep(sigma, lambda combo: unseen(full & ~op(emasks[combo]))),
    )


def _regular_mask(types: TypeMapping, cells: tuple[int, ...]) -> int:
    """The states failing Entailment or Self-Evidence: the per-state half of
    regularity."""
    return _certainty_mask(types, cells) | _containment_mask(types, cells, 0)


def _regular_whole(prior: Prior, types: TypeMapping) -> bool:
    """Additive probability types and Invariance: the half of regularity
    that reads no correspondence."""
    return (
        _types_probability_violation(types) is None
        and _invariance_violation(prior, types) is None
    )


def _regular_verdict(model: EpistemicModel) -> bool:
    """Fast conjunction used by theorem verifiers (cheapest test first)."""
    types = model.types
    return not _regular_mask(types, model.poss.cells) and _regular_whole(model.prior, types)


def _unless(holds: bool) -> bool | None:
    """The hit of a kernel decided as one truth value, with no point to
    name: None where it holds, else True."""
    return None if holds else True


# The claims' named hypotheses, one kernel each, read by the verifiers and
# by the ``require`` filters of ``modelgen``: each returns its first hit, or
# None where the hypothesis holds.  ``regular`` and ``discrete`` read an
# ``InteractiveModel`` as well.
REQUIRE_FLAGS: dict[str, Callable[[EpistemicModel], object]] = {
    "regular": lambda m: _unless(m.regular),
    "invariance": lambda m: _invariance_violation(m.prior, m.types),
    "entailment": lambda m: _first_state(_certainty_mask(m.types, m.poss.cells)),
    "self-evidence": lambda m: _containment_violation(m, 0),
    "probability-types": lambda m: _types_probability_violation(m.types),
    "partition": lambda m: m.poss._partition_violation,
    "discrete": lambda m: _unless(m.is_discrete),
    "full-support": lambda m: _unless(min(m.prior.int_weights[1]) > 0),
    "positive-cells": lambda m: m._first_null_cell,
    "monotone-types": lambda m: _unless(_type_violation(m.types, "monotone-types") is None),
    "one-intersection": lambda m: _unless(_type_violation(m.types, "one-intersection") is None),
}


class _Hits(dict):
    """The hit of each kernel of the table ``kernels`` on ``model``, by name,
    each kernel run when its name is first read: a status and the report
    built from the same hits ask each kernel at most once.  The kernels
    ``checked``, which the caller has seen hold, are not asked."""

    __slots__ = ("kernels", "model")

    def __init__(self, kernels: dict[str, Callable], model, checked: tuple[str, ...] = ()):
        self.kernels = kernels
        self.model = model
        for name in checked:
            self[name] = None

    def __missing__(self, name: str):
        hit = self[name] = self.kernels[name](self.model)
        return hit

    def holds(self, name: str) -> bool:
        """Whether the kernel ``name`` finds no hit on the model."""
        return self[name] is None


# ---------------------------------------------------------------------------
# report builders


def check_invariance(model: EpistemicModel) -> CheckReport:
    """mu(E) must equal the expectation of t(., E) under mu, for every E."""
    sigma = model.sigma
    return _first_violation(
        "invariance",
        _invariance_violation(model.prior, model.types),
        f"all {1 << sigma.n_atoms} events",
        lambda combo: _witness_at(sigma, combo=combo),
    )


def check_entailment(model: EpistemicModel) -> CheckReport:
    """Everyone is certain of their own information: t(omega, P(omega)) = 1."""
    cells = model.poss.cells
    return _first_violation(
        "entailment",
        _first_state(_certainty_mask(model.types, cells)),
        f"all {len(model.space)} states",
        _certainty_witness(model, cells, "t({state}, P({state})) = {value}"),
    )


def _pair_witness(sigma: SigmaAlgebra, note: str = "") -> Callable[[tuple[int, int]], Witness]:
    """Hit (omega, omega') of a pairwise kernel -> witness."""
    return lambda pair: _witness_at(sigma, state=pair[0], other=pair[1], note=note)


def _event_witness(sigma: SigmaAlgebra, note: str = "") -> Callable[[tuple[int, int]], Witness]:
    """Hit (event combo, omega) of an event sweep -> witness."""
    return lambda hit: _witness_at(sigma, state=hit[1], combo=hit[0], note=note)


def _containment_report(
    model: EpistemicModel, name: str, which: int, note: str
) -> CheckReport:
    return _first_violation(
        name,
        _containment_violation(model, which),
        f"all {len(model.space)}^2 state pairs",
        _pair_witness(model.sigma, note),
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


def _certainty_witness(
    model: EpistemicModel, masks: tuple[int, ...], note: str
) -> Callable[[int], Witness]:
    """Hit omega of ``_certainty_mask(model.types, masks)`` -> witness at X(omega).

    ``note`` is formatted with ``state`` (omega's name) and ``value``
    (t(omega, X(omega)))."""
    combo_of = model.sigma.combo_of

    def witness(i: int) -> Witness:
        d, ints = model.types.per_state[i].int_table
        value = _format_ratio(ints[combo_of(masks[i])], d)
        note_i = note.format(state=model.space.states[i], value=value)
        return _witness_at(model.sigma, state=i, mask=masks[i], note=note_i)

    return witness


def _certainty_report(model: EpistemicModel, name: str, which: int) -> CheckReport:
    """t(omega, S(omega)) = 1 for the order set S = up/down/bracket, for
    ``which`` = 0, 1, 2."""
    masks = model.types.order_masks[which]
    kind = ("up_set", "down_set", "bracket")[which]
    return _first_violation(
        name,
        _first_state(_certainty_mask(model.types, masks)),
        f"all {len(model.space)} states",
        _certainty_witness(model, masks, f"t(omega, {kind}(omega)) = {{value}}"),
    )


def check_certainty(model: EpistemicModel, almost_surely: bool = False) -> CheckReport:
    """t(omega, [t(omega)]) = 1 at every state (or at mu-almost every state).

    The almost-sure variant only requires the violating states to form a
    mu-null event; both variants are reported by the CLI, the exact one is
    authoritative.
    """
    if not almost_surely:
        return _certainty_report(model, "certainty", 2)
    violators = _certainty_mask(model.types, model.types.order_masks[2])
    null = model.prior.int_table[1][model.sigma.combo_of(violators)] == 0
    return _first_violation(
        "certainty-almost-sure",
        None if null else _first_state(violators),
        f"all {len(model.space)} states",
        lambda i: _witness_at(
            model.sigma, state=i, mask=violators, note="violating states have positive measure"
        ),
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
    """First (level, E, omega) violation of one of the four introspection
    inclusions, the level ceil(p D) of the threshold p on the D of
    ``TypeMapping.int_tables``.

    mode is 'b1-pos' (B^p E <= B^1 B^p E), 'b1-neg', 'k-pos', or 'k-neg'.
    Quantifying p over the critical thresholds decides the claim for every
    p in [0, 1] because each B^p steps only at attained values.  The sweep
    runs over their integer levels (``TypeMapping.levels``); a witness
    builds the threshold of its hit.
    """
    sigma = model.sigma
    d, tables = model.types.int_tables
    cells = model.poss.cells
    combo_of = sigma.combo_of
    full = sigma.space.full_mask
    negated = mode.endswith("neg")
    use_k = mode.startswith("k")
    for level in model.types.levels:
        for combo in range(1 << sigma.n_atoms):
            b = _b_mask(tables, combo, level)
            target = full & ~b if negated else b
            if use_k:
                outer = _k_mask(cells, target)
            else:
                outer = _b_mask(tables, combo_of(target), d)
            out = target & ~outer
            if out:
                return level, combo, (out & -out).bit_length() - 1
    return None


def _inclusion_witness(model: EpistemicModel) -> Callable[[tuple[int, int, int]], Witness]:
    """Hit (level, event combo, omega) of ``_inclusion_sweep`` -> witness
    at the threshold of that level."""
    d = model.types.int_tables[0]
    return lambda hit: _witness_at(
        model.sigma, state=hit[2], combo=hit[1], threshold=Fraction(hit[0], d)
    )


def _introspection_report(model: EpistemicModel, name: str, mode: str) -> CheckReport:
    scope = (
        f"{len(model.types.levels)} thresholds x {1 << model.sigma.n_atoms} events "
        f"x {len(model.space)} states"
    )
    return _first_violation(
        name, _inclusion_sweep(model, mode), scope, _inclusion_witness(model)
    )


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


def _truth_axiom_sweep(
    sigma: SigmaAlgebra, belief_mask_of: Callable[[int], int], tables: Sequence[tuple[int, ...]]
) -> tuple[int, int] | None:
    """(event combo, table index) of the first event E whose slack, the
    operator's mask ``belief_mask_of(E)`` minus E, has positive value under
    one of ``tables``, and of the first such table.  A table is an integer
    table by event combo (the prior's ``Prior.int_table``, or a type's);
    only its zeros matter.  The slack need not be measurable, so it is
    measured through its smallest measurable cover."""
    emasks = sigma.event_masks
    for combo in range(1 << sigma.n_atoms):
        slack = belief_mask_of(combo) & ~emasks[combo]
        if slack:
            cover = sigma.cover_combo(slack)
            for i, table in enumerate(tables):
                if table[cover]:
                    return combo, i
    return None


def _truth_axiom_kernels(
    label: str, op_of: Callable[..., Callable[[int], int]], types_of: Callable[..., Sequence]
) -> dict[str, Callable]:
    """The kernels ``label``-truth-mu and ``label``-truth-types of a model:
    the ``_truth_axiom_sweep`` of the operator ``op_of(model)`` under the
    prior, and under the type tables ``types_of(model)``."""
    return {
        f"{label}-truth-mu": lambda m: _truth_axiom_sweep(
            m.sigma, op_of(m), (m.prior.int_table[1],)
        ),
        f"{label}-truth-types": lambda m: _truth_axiom_sweep(m.sigma, op_of(m), types_of(m)),
    }


def _truth_axiom_checks(
    sigma: SigmaAlgebra,
    hits: _Hits,
    labels: tuple[str, ...],
    owners: tuple[tuple[str, int], ...],
    scope_suffix: str,
) -> tuple[CheckReport, ...]:
    """The checks ``label``-truth-mu and ``label``-truth-types for each
    operator label of ``labels``: the ``_truth_axiom_sweep`` hits of those
    names in ``hits``, under the prior and under the types.  ``owners[i]``
    names the type of table i of a types hit by its witness-note prefix
    ("t", "t_alice") and its state."""
    events = f"all {1 << sigma.n_atoms} events"
    checks = []
    for label in labels:
        checks += (
            _first_violation(
                f"{label}-truth-mu",
                hits[f"{label}-truth-mu"],
                events,
                lambda hit: _witness_at(sigma, combo=hit[0], note=f"mu({label}(E) minus E) > 0"),
            ),
            _first_violation(
                f"{label}-truth-types",
                hits[f"{label}-truth-types"],
                events + scope_suffix,
                lambda hit: _witness_at(
                    sigma, state=owners[hit[1]][1], combo=hit[0],
                    note=f"{owners[hit[1]][0]}(omega, {label}(E) minus E) > 0",
                ),
            ),
        )
    return tuple(checks)


# ---------------------------------------------------------------------------
# compound checks


def check_types_are_measures(model: EpistemicModel) -> CheckReport:
    def witness(i: int) -> Witness:
        sf = model.types.per_state[i]
        return _witness_at(
            model.sigma, state=i, note=f"normalized={sf.normalized} additive={sf.additive}"
        )

    return _first_violation(
        "probability-types",
        _types_probability_violation(model.types),
        f"all {len(model.space)} states",
        witness,
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
    return _kripke_report(model, REQUIRE_FLAGS["partition"](model))


def _kripke_report(model: EpistemicModel, failing) -> CheckReport:
    """The report of ``kripke_properties``, its verdict and witness read
    from ``failing``, the hit of the ``partition`` kernel."""
    sigma = model.sigma
    space = sigma.space
    cells = model.poss.cells
    laws = _operator_law_hits(sigma, lambda mask: _k_mask(cells, mask))
    pairs = (
        ("reflexive", "truth-axiom"),
        ("transitive", "positive-introspection"),
        ("euclidean", "negative-introspection"),
    )
    children = []
    for (rel_name, op_name), law in zip(pairs, laws):
        rel = _relational_violation(cells, rel_name)
        if (rel is None) != (law is None):
            raise RuntimeError(
                f"internal inconsistency: {rel_name} and {op_name} disagree"
            )
        children.append(
            _first_violation(
                rel_name, rel, f"all {len(space)}^2 state pairs", _pair_witness(sigma)
            )
        )
        children.append(
            _first_violation(
                op_name, law, f"all {1 << sigma.n_atoms} events", _event_witness(sigma)
            )
        )

    def partition_witness(hit) -> Witness:
        name, (i, j) = hit
        states = space.states
        note = f"not {name} at ({states[i]},{states[j]})"
        return _witness_at(sigma, state=i, other=j, note=note)

    return CheckReport(
        "kripke",
        failing is None,
        _witnesses(failing, partition_witness),
        "partition iff all three",
        tuple(children),
    )
