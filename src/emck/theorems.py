"""Verifiers for the single-agent characterization results, plus the two
canonical constructions (conditional types from a correspondence, and the
bracket correspondence from a type mapping).

Every iff-claim is decided by evaluating BOTH sides independently over their
full finite domains; the claims are test oracles, never implementation
shortcuts.  A report with status "falsified" therefore signals a genuine
counterexample or an internal defect, not an approximation artifact.
"""

from __future__ import annotations

from typing import Callable

from .axioms import (
    _certainty_mask,
    _certainty_witness,
    _containment_violation,
    _event_sweep,
    _event_witness,
    _first_state,
    _inclusion_sweep,
    _inclusion_witness,
    _invariance_violation,
    _operator_law_hits,
    _pair_witness,
    _truth_axiom_report,
    _types_probability_violation,
    is_regular,
    kripke_properties,
)
from .beliefs import ZERO, Prior, SetFunction, TypeMapping
from .errors import (
    AlgebraMismatch,
    AssumptionViolated,
    ConditioningOnNull,
    HypothesisNotMet,
    ResourceLimit,
)
from .events import SigmaAlgebra
from .operators import EpistemicModel, PossibilityCorrespondence, _b_mask, _k_mask
from .reports import (
    CheckReport,
    HypothesisResult,
    VerificationReport,
    Witness,
    _first_violation,
    _precondition,
    _witness_at,
    _witnesses,
    format_rational,
)

# ---------------------------------------------------------------------------
# kernels for the right-hand-side conditions of the main characterization


def _product_violation(model: EpistemicModel) -> tuple[int, int] | None:
    """(event combo, state) of the first state, and its first event, where
    t(omega, E) * mu(P(omega)) differs from mu(E & P(omega)).

    With positive cells this is exactly the Bayes condition
    t(omega, .) = mu(. | P(omega)); with null cells it is its product form.
    Decided on integers: with t(omega, E) = b[E] / D and mu(E) = m[E] / D_mu,
    the condition is b[E] m[P(omega)] = m[E & P(omega)] D.
    """
    sigma = model.sigma
    combo_of = sigma.combo_of
    d, tables = model.types.int_tables
    prior_ints = model.prior.int_table[1]
    emasks = sigma.event_masks
    n_events = 1 << sigma.n_atoms
    for i, table in enumerate(tables):
        cmask = model.poss.cells[i]
        mc = prior_ints[model.poss.cell_combos[i]]
        for combo in range(n_events):
            if table[combo] * mc != prior_ints[combo_of(emasks[combo] & cmask)] * d:
                return combo, i
    return None


def _bracket_equality_violation(model: EpistemicModel) -> int | None:
    """First omega with P(omega) != bracket(omega)."""
    brackets = model.types.order_masks[2]
    for i, cell in enumerate(model.poss.cells):
        if cell != brackets[i]:
            return i
    return None


def _almost_reverse_violation(model: EpistemicModel) -> int | None:
    """(iii): first omega where bracket(omega) exceeds P(omega) by more than
    a mu-null event."""
    brackets = model.types.order_masks[2]
    combo_of = model.sigma.combo_of
    prior_ints = model.prior.int_table[1]
    for i, cell in enumerate(model.poss.cells):
        slack = brackets[i] & ~cell
        if slack and prior_ints[combo_of(slack)] != 0:
            return i
    return None


def _theorem_main_status(model: EpistemicModel, product: bool) -> str:
    """Status of theorem-main (or, with ``product``, theorem-main-product),
    cheapest kernels first: regularity iff conditions (i)-(iii) when every
    cell is positive; with a mu-null cell theorem-main does not apply and the
    product form asserts only regularity implies (i)-(iii)."""
    positive = not model.has_null_cells
    if not (positive or product):
        return "hypothesis-not-met"
    lhs = model.regular
    if not (lhs or positive):
        return "verified"
    rhs = (
        _containment_violation(model, 2) is None
        and _almost_reverse_violation(model) is None
        and _product_violation(model) is None
    )
    return "verified" if lhs == rhs else "falsified"


def _condition_reports(
    model: EpistemicModel, product: bool
) -> tuple[CheckReport, CheckReport, CheckReport]:
    sigma = model.sigma
    n_states = len(model.space)

    def slack_witness(i: int) -> Witness:
        slack = model.types.order_masks[2][i] & ~model.poss.cells[i]
        value = model.prior.combo_table[sigma.combo_of(slack)]
        note = f"mu(bracket(omega) minus P(omega)) = {format_rational(value)}"
        return _witness_at(sigma, state=i, mask=slack, note=note)

    return (
        _first_violation(
            "product-identity" if product else "bayes-conditioning",
            _product_violation(model),
            f"all {n_states} states x {1 << sigma.n_atoms} events",
            _event_witness(sigma, "t(omega, E) * mu(P(omega)) != mu(E & P(omega))"),
        ),
        _first_violation(
            "bracket-containment",
            _containment_violation(model, 2),
            f"all {n_states} states",
            _pair_witness(sigma, "omega' in P(omega) but t(omega', .) != t(omega, .)"),
        ),
        _first_violation(
            "almost-sure-reverse-containment",
            _almost_reverse_violation(model),
            f"all {n_states} states",
            slack_witness,
        ),
    )


def _containment_measure_note(model: EpistemicModel) -> str:
    """Measure of the set of states whose bracket sits inside the cell.

    This is the aggregate reading of condition (iii); only the per-state
    reading enters the equivalence, so the aggregate is reported as a note.
    The set need not be measurable, in which case inner and outer measures
    are both given.
    """
    brackets = model.types.order_masks[2]
    smask = 0
    for i, cell in enumerate(model.poss.cells):
        if brackets[i] & ~cell == 0:
            smask |= 1 << i
    inner = outer = ZERO
    for w, atom in zip(model.prior.weights, model.sigma.atoms):
        if atom & ~smask == 0:
            inner += w
        if atom & smask:
            outer += w
    label = "mu(omega : bracket(omega) subset of P(omega))"
    if inner == outer:
        return f"{label} = {format_rational(inner)}"
    return (
        f"{label} in [{format_rational(inner)}, {format_rational(outer)}]"
        " (set not measurable)"
    )


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _side_summary(regular: CheckReport, conditions: tuple[CheckReport, ...]) -> tuple[str, str]:
    left = "regularity: " + " ".join(
        f"{c.name}={_flag(c.passed)}" for c in regular.children
    )
    right = "conditions: " + " ".join(
        f"{c.name}={_flag(c.passed)}" for c in conditions
    )
    return left, right


def _trail(*reports: CheckReport) -> tuple[Witness, ...]:
    out = []
    for r in reports:
        for c in r.children or (r,):
            out.extend(c.witnesses)
    return tuple(out)


def _theorem_main_report(model: EpistemicModel, claim: str) -> VerificationReport:
    """Both sides of the main characterization, evaluated independently, with
    the witness trail when ``_theorem_main_status`` falsifies ``claim``."""
    product = claim == "theorem-main-product"
    regular = is_regular(model)
    conditions = _condition_reports(model, product)
    lhs = regular.passed
    rhs = all(c.passed for c in conditions)
    positive = not model.has_null_cells
    notes = [*_side_summary(regular, conditions), _containment_measure_note(model)]
    if not positive:
        notes.append(
            "some cell is mu-null: only the forward implication is asserted"
        )
    asserted_failure = _theorem_main_status(model, product) == "falsified"
    return VerificationReport(
        claim=claim,
        lhs=lhs,
        rhs=rhs,
        equivalent=(lhs == rhs) if positive else None,
        hypotheses=() if product else (HypothesisResult("positive-cells", True),),
        witnesses=_trail(regular, *conditions) if asserted_failure else (),
        notes=tuple(notes),
    )


def verify_theorem_main(model: EpistemicModel) -> VerificationReport:
    """Regularity against the Bayes-and-almost-partition description.

    Left side: additive probability types plus Invariance, Entailment, and
    Self-Evidence.  Right side: (i) every type is the prior conditioned on
    the cell, (ii) each cell lies inside the bracket of its type, (iii) the
    bracket exceeds the cell only by a mu-null event.  Both sides are
    evaluated independently and must agree.
    """
    if model.has_null_cells:
        state = model.space.states[model._first_null_cell]
        raise AssumptionViolated(
            f"mu(P({state})) = 0; use verify_theorem_main_product"
        )
    return _theorem_main_report(model, "theorem-main")


def verify_theorem_main_product(model: EpistemicModel) -> VerificationReport:
    """Null-cell-tolerant variant of the main characterization.

    The Bayes condition is replaced by the product identity
    mu(E & P(omega)) = mu(P(omega)) * t(omega, E).  With positive cells the
    claim is the same two-sided equivalence; with null cells only the forward
    implication (regular implies product + containment conditions) is
    asserted, and ``equivalent`` is left None.
    """
    return _theorem_main_report(model, "theorem-main-product")


# ---------------------------------------------------------------------------
# canonical constructions


def bayes_type_from_poss(
    sigma: SigmaAlgebra, prior: Prior, poss: PossibilityCorrespondence
) -> TypeMapping:
    """The type mapping t(omega, .) = mu(. | P(omega)).

    This is the unique type mapping that can make (sigma, prior, poss)
    regular; whether it actually does depends on the shape of the cells and
    is decided by the caller.  Cells of measure zero are rejected.
    """
    sigma.check_same(poss.sigma, "correspondence is defined over a different algebra")
    combo_of = sigma.combo_of
    n_events = 1 << sigma.n_atoms
    emasks = sigma.event_masks
    by_cell: dict[int, SetFunction] = {}
    per_state = []
    for i, cmask in enumerate(poss.cells):
        sf = by_cell.get(cmask)
        if sf is None:
            mc = prior.combo_table[combo_of(cmask)]
            if mc == 0:
                raise ConditioningOnNull(
                    f"mu(P({poss.sigma.space.states[i]})) = 0"
                )
            sf = SetFunction(
                sigma,
                tuple(
                    prior.combo_table[combo_of(emasks[e] & cmask)] / mc
                    for e in range(n_events)
                ),
            )
            by_cell[cmask] = sf
        per_state.append(sf)
    return TypeMapping(sigma, tuple(per_state))


def poss_from_type(
    sigma: SigmaAlgebra, prior: Prior, types: TypeMapping
) -> PossibilityCorrespondence:
    """P(omega) := bracket(omega), the unique partition-valued correspondence
    compatible with regularity for the given types.

    The prior does not enter the construction; it is part of the signature
    because compatibility (and uniqueness) is a statement about the full
    model.
    """
    sigma.check_same(types.sigma, "type mapping is defined over a different algebra")
    poss = PossibilityCorrespondence(sigma, types.order_masks[2])
    if not poss.is_partition:
        raise RuntimeError("internal inconsistency: the bracket cells are not a partition")
    return poss


def _comparable(model_a: EpistemicModel, model_b: EpistemicModel) -> None:
    model_a.sigma.check_same(model_b.sigma, "models have different algebras")
    if model_a.prior.weights != model_b.prior.weights:
        raise AlgebraMismatch("models have different priors")


def verify_cor_unique_type(model_a: EpistemicModel, model_b: EpistemicModel) -> bool:
    """Uniqueness companions for regular models over a shared (Omega, Sigma, mu).

    With a shared correspondence: the type mappings must be identical.  With a
    shared type mapping: the correspondences may differ only on a mu-null set
    of states.  Both models must be regular; anything else is a hypothesis
    failure, not a verdict.
    """
    _comparable(model_a, model_b)
    for label, m in (("first", model_a), ("second", model_b)):
        if not m.regular:
            raise HypothesisNotMet(f"{label} model is not regular")
    same_poss = model_a.poss.cells == model_b.poss.cells
    same_types = model_a.types.int_tables == model_b.types.int_tables
    if same_poss:
        return same_types
    if same_types:
        # the cells at each state may differ only by a mu-null event
        return all(
            model_a.prior.measure_mask(ca ^ cb) == 0
            for ca, cb in zip(model_a.poss.cells, model_b.poss.cells)
        )
    raise HypothesisNotMet(
        "models share neither the correspondence nor the type mapping"
    )


# ---------------------------------------------------------------------------
# the discrete (powerset, full-support) case


def _k_equals_b1_report(model: EpistemicModel) -> CheckReport:
    sigma = model.sigma
    one, tables = model.types.int_tables
    cells = model.poss.cells
    hit = _event_sweep(
        sigma,
        lambda combo: _k_mask(cells, sigma.event_masks[combo]) ^ _b_mask(tables, combo, one),
    )
    return _first_violation(
        "k-equals-b1",
        hit,
        f"all {1 << sigma.n_atoms} events",
        _event_witness(sigma, "K(E) and B^1(E) disagree at this state"),
    )


def _strong_conjunction_report(model: EpistemicModel) -> CheckReport:
    """Closure of probability-one belief under arbitrary event conjunction.

    For monotone types the whole family of collections reduces to one check
    per state: the intersection D(omega) of all events with t(omega, .) = 1
    must itself carry belief one.  Without monotonicity the reduction is
    invalid and the collections are enumerated outright (feasible only for
    small algebras).  Either way the hit is (omega, intersection mask).
    """
    sigma = model.sigma
    combo_of = sigma.combo_of
    n_events = 1 << sigma.n_atoms
    full = sigma.space.full_mask
    one, tables = model.types.int_tables
    hit = None
    if all(sf.monotone for sf in model.types.per_state):
        for i, table in enumerate(tables):
            inter = full
            for combo in range(n_events):
                if table[combo] == one:
                    inter &= sigma.event_masks[combo]
            if table[combo_of(inter)] != one:
                hit = (i, inter)
                break
        scope = f"reduced to {len(tables)} states (monotone types)"
        note = "t(omega, intersection of 1-believed events) < 1"
    else:
        if n_events > 16:
            raise ResourceLimit(
                "non-monotone types with more than 16 events: collection sweep too large"
            )
        b1 = [_b_mask(tables, combo, one) for combo in range(n_events)]
        for coll in range(1 << n_events):
            inter_b = full
            inter_e = full
            rest = coll
            while rest:
                e = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                inter_b &= b1[e]
                inter_e &= sigma.event_masks[e]
            out = inter_b & ~b1[combo_of(inter_e)]
            if out:
                hit = ((out & -out).bit_length() - 1, inter_e)
                break
        scope = f"all {1 << n_events} event collections"
        note = "in every B^1 of the collection but not in B^1 of the intersection"
    return _first_violation(
        "strong-b1-conjunction",
        hit,
        scope,
        lambda h: _witness_at(sigma, state=h[0], mask=h[1], note=note),
    )


def _support_identity_report(model: EpistemicModel) -> CheckReport:
    """P(omega) must equal the set of states with positive singleton belief."""
    cells = model.poss.cells
    hit = None
    for i, table in enumerate(model.types.int_tables[1]):
        support = 0
        for j in range(len(cells)):
            if table[1 << j] > 0:
                support |= 1 << j
        if support != cells[i]:
            hit = i
            break
    note = "P(omega) != {omega' : t(omega, {omega'}) > 0}"
    return _first_violation(
        "support-identity",
        hit,
        f"all {len(cells)} states",
        lambda i: _witness_at(model.sigma, state=i, mask=cells[i], note=note),
    )


def verify_cor_main(model: EpistemicModel, diagnostic: bool = False) -> VerificationReport:
    """Discrete case: regular iff P equals the bracket and types are the
    Bayes conditionals; in that case qualitative belief is fully introspective
    knowledge and coincides with probability-one belief.

    ``diagnostic`` lets the verifier run on non-discrete models, reporting
    which conclusions break; the equivalence itself is then not asserted.
    """
    discrete = model.is_discrete
    _precondition(
        discrete, diagnostic, "model is not discrete (powerset algebra with full-support prior)"
    )
    lhs = model.regular

    eq_hit = _bracket_equality_violation(model)
    product_hit = _product_violation(model)
    rhs = eq_hit is None and product_hit is None

    notes = []
    witnesses = [
        *_witnesses(
            eq_hit,
            lambda i: _witness_at(
                model.sigma,
                state=i,
                mask=model.types.order_masks[2][i],
                note="P(omega) != bracket(omega)",
            ),
        ),
        *_witnesses(product_hit, _event_witness(model.sigma, "t(omega, E) != mu(E | P(omega))")),
    ]

    checks: tuple[CheckReport, ...] = ()
    if discrete and lhs:
        checks = (
            _k_equals_b1_report(model),
            kripke_properties(model),
            _strong_conjunction_report(model),
            _support_identity_report(model),
        )
    elif diagnostic:
        diag = [_k_equals_b1_report(model), kripke_properties(model)]
        try:
            diag.append(_strong_conjunction_report(model))
        except ResourceLimit as exc:
            notes.append(f"strong-b1-conjunction not evaluated: {exc}")
        if model.sigma.is_powerset:
            diag.append(_support_identity_report(model))
        else:
            notes.append("support-identity skipped: singletons are not all events")
        notes.extend(
            f"conclusion {c.name}: {'holds' if c.passed else 'fails'}" for c in diag
        )
        witnesses.extend(w for c in diag if not c.passed for w in c.witnesses)
    else:
        notes.append("conclusions not asserted: model is not regular")

    return VerificationReport(
        claim="cor-main",
        lhs=lhs,
        rhs=rhs,
        equivalent=(lhs == rhs) if discrete else None,
        hypotheses=(HypothesisResult("discrete", discrete),),
        witnesses=tuple(witnesses) if (discrete and lhs != rhs) or diagnostic else (),
        checks=checks,
        notes=tuple(notes),
    )


def verify_cor_unaware(model: EpistemicModel, diagnostic: bool = False) -> CheckReport:
    """No event is unawareness-prone: (not K)(E) and (not K)((not K)(E))
    never overlap in a discrete regular model."""
    discrete = model.is_discrete
    regular = model.regular
    diagnosed = _precondition(discrete and regular, diagnostic, "requires a discrete regular model")
    sigma = model.sigma
    cells = model.poss.cells
    # (not K)(E) & (not K)((not K)(E)) = (not K)(E) minus K((not K)(E)): the
    # states where E is unawareness-prone are exactly where Negative
    # Introspection of K fails.  (not K)(E) can fall outside the algebra on
    # exotic models; K extends to arbitrary state sets, so the law is swept on
    # raw masks.
    hit = _operator_law_hits(sigma, lambda mask: _k_mask(cells, mask))[2]
    return _first_violation(
        "no-unawareness",
        hit,
        f"all {1 << sigma.n_atoms} events" + diagnosed,
        _event_witness(sigma, "the agent neither knows E nor knows not knowing E"),
    )


# ---------------------------------------------------------------------------
# partition-vs-bracket equivalences


def verify_cor_regular(model: EpistemicModel) -> VerificationReport:
    """Three equivalences tying partitions to brackets.

    Part 1: (partition + the regularity axioms) iff (P = bracket and Bayes
    conditioning).  Part 2: under the regularity axioms, partition iff
    P = bracket.  Part 3: under P = bracket with additive probability types,
    Entailment + Invariance iff Bayes conditioning.  Cells of measure zero
    void the Bayes side, so positivity is tracked as a hypothesis.
    """
    positive = not model.has_null_cells
    partition = model.poss.is_partition
    additive = _types_probability_violation(model) is None
    inv = _invariance_violation(model) is None
    ent = not _certainty_mask(model, model.poss.cells)
    se = _containment_violation(model, 0) is None
    regular = additive and inv and ent and se
    p_is_bracket = _bracket_equality_violation(model) is None
    bayes = _product_violation(model) is None and positive

    lhs1 = partition and regular
    rhs1 = p_is_bracket and bayes

    part2 = VerificationReport(
        claim="cor-regular-part-2",
        lhs=partition,
        rhs=p_is_bracket,
        equivalent=(partition == p_is_bracket) if regular else None,
        hypotheses=(
            HypothesisResult("probability-types", additive),
            HypothesisResult("invariance", inv),
            HypothesisResult("entailment", ent),
            HypothesisResult("self-evidence", se),
        ),
    )
    part3 = VerificationReport(
        claim="cor-regular-part-3",
        lhs=ent and inv,
        rhs=bayes,
        equivalent=((ent and inv) == bayes)
        if (p_is_bracket and additive and positive)
        else None,
        hypotheses=(
            HypothesisResult("p-equals-bracket", p_is_bracket),
            HypothesisResult("probability-types", additive),
            HypothesisResult("positive-cells", positive),
        ),
    )
    notes = (
        f"(a): partition={_flag(partition)} regular={_flag(regular)}",
        f"(b): p-equals-bracket={_flag(p_is_bracket)} bayes-conditioning={_flag(bayes)}",
    )
    return VerificationReport(
        claim="cor-regular",
        lhs=lhs1,
        rhs=rhs1,
        equivalent=(lhs1 == rhs1) if positive else None,
        hypotheses=(HypothesisResult("positive-cells", positive),),
        parts=(part2, part3),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# almost-sure Truth Axiom


def verify_cor_ta(
    model: EpistemicModel, mode: str = "regular", diagnostic: bool = False
) -> CheckReport:
    """Truth Axiom up to measure zero for probability-one and qualitative
    belief: mu(B^1(E) minus E) = 0 and mu(K(E) minus E) = 0, and likewise
    with every type t(omega, .) in place of mu.

    mode "regular" requires a regular model and checks all four statements.
    mode "type-only" requires only Invariance, bracket Certainty, and
    mu(bracket(.)) > 0, and checks the B^1 statements (the correspondence
    plays no part in that variant).  K(E) may fall outside the algebra on
    models with a coarse algebra; the slack is then measured through its
    smallest measurable cover.
    """
    if mode not in ("regular", "type-only"):
        raise ValueError(f"unknown mode: {mode!r}")
    sigma = model.sigma
    prior_ints = model.prior.int_table[1]

    if mode == "regular":
        holds = model.regular
        message = "requires a regular model"
    else:
        brackets = model.types.order_masks[2]
        holds = (
            _invariance_violation(model) is None
            and not _certainty_mask(model, brackets)
            and all(prior_ints[sigma.combo_of(b)] > 0 for b in brackets)
        )
        message = "requires Invariance, Certainty, and positive-measure brackets"
    diagnosed = _precondition(holds, diagnostic, message)

    cells = model.poss.cells
    one, tables = model.types.int_tables
    operators = [("b1", lambda combo: _b_mask(tables, combo, one))]
    if mode == "regular":
        operators.append(("k", lambda combo: _k_mask(cells, sigma.event_masks[combo])))
    return _truth_axiom_report(
        "almost-sure-truth-axiom",
        f"mode={mode}" + diagnosed,
        sigma,
        prior_ints,
        operators,
        (("t", tables),),
        f" x {len(sigma.space)} states",
    )


# ---------------------------------------------------------------------------
# certainty and self-evidence against operator introspection


def _introspection_part(
    model: EpistemicModel,
    claim: str,
    lhs_hit,
    lhs_witness: Callable[..., Witness],
    mode: str,
    asserted: bool,
    hypotheses: tuple[HypothesisResult, ...] = (),
) -> VerificationReport:
    """One part of prop-1 or prop-2: an order-set condition on the types,
    decided by the caller's kernel (its first violation ``lhs_hit``), against
    the ``mode`` introspection inclusion swept over every threshold and event."""
    hit = _inclusion_sweep(model, mode)
    return VerificationReport(
        claim=claim,
        lhs=lhs_hit is None,
        rhs=hit is None,
        equivalent=((lhs_hit is None) == (hit is None)) if asserted else None,
        hypotheses=hypotheses,
        witnesses=_witnesses(lhs_hit, lhs_witness)
        + _witnesses(hit, _inclusion_witness(model.sigma)),
    )


def verify_prop1(model: EpistemicModel) -> VerificationReport:
    """Certainty of the order sets against B^1-introspection of beliefs.

    Part 1: t(., up_set(.)) = 1 iff B^p(E) lies in B^1(B^p(E)) for all p, E.
    Part 2 (needs t(., Omega) = 1): t(., down_set(.)) = 1 iff the complement
    inclusion holds for all p, E.  Hypotheses for both parts: finitely many
    events (structural), monotone types, and intersections of 1-believed
    events staying 1-believed.
    """
    monotone = all(sf.monotone for sf in model.types.per_state)
    one_int = all(sf.one_intersection for sf in model.types.per_state)
    unit_on_omega = not _certainty_mask(model, (model.space.full_mask,) * len(model.space))
    shared = (
        HypothesisResult("finite-algebra", True),
        HypothesisResult("monotone-types", monotone),
        HypothesisResult("one-intersection", one_int),
    )
    met = monotone and one_int
    up, down, _ = model.types.order_masks
    part1 = _introspection_part(
        model,
        "prop-1-part-1",
        _first_state(_certainty_mask(model, up)),
        _certainty_witness(model, up, "t(omega, up_set(omega)) != 1"),
        "b1-pos",
        met,
        shared,
    )
    part2 = _introspection_part(
        model,
        "prop-1-part-2",
        _first_state(_certainty_mask(model, down)),
        _certainty_witness(model, down, "t(omega, down_set(omega)) != 1"),
        "b1-neg",
        met and unit_on_omega,
        shared + (HypothesisResult("t-omega-equals-1", unit_on_omega),),
    )
    return VerificationReport(claim="prop-1", hypotheses=shared, parts=(part1, part2))


def verify_prop2(model: EpistemicModel) -> VerificationReport:
    """Order-set containment of cells against K-introspection of beliefs.

    Part 1: P(.) inside up_set(.) iff B^p(E) lies in K(B^p(E)) for all p, E.
    Part 2: P(.) inside down_set(.) iff the complement inclusion holds.
    No hypotheses beyond finiteness.
    """
    sigma = model.sigma
    part1 = _introspection_part(
        model,
        "prop-2-part-1",
        _containment_violation(model, 0),
        _pair_witness(sigma, "omega' in P(omega) without t(omega,.) <= t(omega',.)"),
        "k-pos",
        True,
    )
    part2 = _introspection_part(
        model,
        "prop-2-part-2",
        _containment_violation(model, 1),
        _pair_witness(sigma, "omega' in P(omega) without t(omega',.) <= t(omega,.)"),
        "k-neg",
        True,
    )
    return VerificationReport(claim="prop-2", parts=(part1, part2))
