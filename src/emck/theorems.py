"""Verifiers for the single-agent characterization results, plus the two
canonical constructions (conditional types from a correspondence, and the
bracket correspondence from a type mapping).

Every iff-claim is decided by evaluating BOTH sides independently over their
full finite domains; the claims are test oracles, never implementation
shortcuts.  A report with status "falsified" therefore signals a genuine
counterexample or an internal defect, not an approximation artifact.
"""

from __future__ import annotations

from .axioms import (
    _certainty_violation,
    _containment_violation,
    _entailment_violation,
    _inclusion_sweep,
    _invariance_violation,
    _pair_witnesses,
    _regular_verdict,
    _truth_reports,
    _types_probability_violation,
    is_regular,
    kripke_properties,
)
from .beliefs import ONE, ZERO, Prior, SetFunction, TypeMapping
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
    format_rational,
)

# ---------------------------------------------------------------------------
# kernels for the right-hand-side conditions of the main characterization


def _product_violation(model: EpistemicModel) -> tuple[int, int] | None:
    """First (state, event combo) where t(omega, E) * mu(P(omega)) differs
    from mu(E & P(omega)).

    With positive cells this is exactly the Bayes condition
    t(omega, .) = mu(. | P(omega)); with null cells it is its product form.
    Equality is tested by integer cross-multiplication to stay off the
    Fraction normalization path.
    """
    sigma = model.sigma
    combo_of = sigma.combo_of
    prior_table = model.prior.combo_table
    emasks = sigma.event_masks
    n_events = 1 << sigma.n_atoms
    for i, sf in enumerate(model.types.per_state):
        cmask = model.poss.cells[i]
        mc = prior_table[model.poss.cell_combos[i]]
        a, b = mc.numerator, mc.denominator
        table = sf.table
        for combo in range(n_events):
            t = table[combo]
            cap = prior_table[combo_of(emasks[combo] & cmask)]
            if t.numerator * a * cap.denominator != cap.numerator * t.denominator * b:
                return i, combo
    return None


def _almost_reverse_violation(model: EpistemicModel) -> int | None:
    """(iii): first omega where bracket(omega) exceeds P(omega) by more than
    a mu-null event."""
    brackets = model.types.order_masks[2]
    combo_of = model.sigma.combo_of
    prior_table = model.prior.combo_table
    for i, cell in enumerate(model.poss.cells):
        slack = brackets[i] & ~cell
        if slack and prior_table[combo_of(slack)] != 0:
            return i
    return None


def _theorem_main_verdicts(model: EpistemicModel) -> tuple[bool, bool]:
    """(regularity, conditions (i)-(iii)) with cheapest kernels first."""
    lhs = _regular_verdict(model)
    rhs = (
        _containment_violation(model, 2) is None
        and _almost_reverse_violation(model) is None
        and _product_violation(model) is None
    )
    return lhs, rhs


def _condition_reports(
    model: EpistemicModel, product: bool
) -> tuple[CheckReport, CheckReport, CheckReport]:
    sigma = model.sigma
    space = sigma.space
    n_events = 1 << sigma.n_atoms

    hit = _product_violation(model)
    witnesses = ()
    if hit is not None:
        i, combo = hit
        witnesses = (
            Witness(
                state=space.states[i],
                event=space.names_of(sigma.event_masks[combo]),
                note="t(omega, E) * mu(P(omega)) != mu(E & P(omega))",
            ),
        )
    first = CheckReport(
        "product-identity" if product else "bayes-conditioning",
        hit is None,
        witnesses,
        f"all {len(space)} states x {n_events} events",
    )

    pair = _containment_violation(model, 2)
    second = CheckReport(
        "bracket-containment",
        pair is None,
        _pair_witnesses(model, pair, "omega' in P(omega) but t(omega', .) != t(omega, .)"),
        f"all {len(space)} states",
    )

    i = _almost_reverse_violation(model)
    witnesses = ()
    if i is not None:
        brackets = model.types.order_masks[2]
        slack = brackets[i] & ~model.poss.cells[i]
        value = model.prior.combo_table[sigma.combo_of(slack)]
        witnesses = (
            Witness(
                state=space.states[i],
                event=space.names_of(slack),
                note=f"mu(bracket(omega) minus P(omega)) = {format_rational(value)}",
            ),
        )
    third = CheckReport(
        "almost-sure-reverse-containment",
        i is None,
        witnesses,
        f"all {len(space)} states",
    )
    return first, second, third


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
    regular = is_regular(model)
    conditions = _condition_reports(model, product=False)
    lhs = regular.passed
    rhs = all(c.passed for c in conditions)
    left_note, right_note = _side_summary(regular, conditions)
    witnesses = () if lhs == rhs else _trail(regular, *conditions)
    return VerificationReport(
        claim="theorem-main",
        lhs=lhs,
        rhs=rhs,
        equivalent=lhs == rhs,
        hypotheses=(HypothesisResult("positive-cells", True),),
        witnesses=witnesses,
        notes=(left_note, right_note, _containment_measure_note(model)),
    )


def verify_theorem_main_product(model: EpistemicModel) -> VerificationReport:
    """Null-cell-tolerant variant of the main characterization.

    The Bayes condition is replaced by the product identity
    mu(E & P(omega)) = mu(P(omega)) * t(omega, E).  With positive cells the
    claim is the same two-sided equivalence; with null cells only the forward
    implication (regular implies product + containment conditions) is
    asserted, and ``equivalent`` is left None.
    """
    regular = is_regular(model)
    conditions = _condition_reports(model, product=True)
    lhs = regular.passed
    rhs = all(c.passed for c in conditions)
    positive = not model.has_null_cells
    left_note, right_note = _side_summary(regular, conditions)
    notes = [left_note, right_note, _containment_measure_note(model)]
    if not positive:
        notes.append(
            "some cell is mu-null: only the forward implication is asserted"
        )
    equivalent = (lhs == rhs) if positive else None
    asserted_failure = (lhs != rhs) if positive else (lhs and not rhs)
    witnesses = _trail(regular, *conditions) if asserted_failure else ()
    return VerificationReport(
        claim="theorem-main-product",
        lhs=lhs,
        rhs=rhs,
        equivalent=equivalent,
        witnesses=witnesses,
        notes=tuple(notes),
    )


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
    if sigma is not poss.sigma and sigma != poss.sigma:
        raise AlgebraMismatch("correspondence is defined over a different algebra")
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
    if sigma is not types.sigma and sigma != types.sigma:
        raise AlgebraMismatch("type mapping is defined over a different algebra")
    poss = PossibilityCorrespondence(sigma, types.order_masks[2])
    if not poss.is_partition:
        raise RuntimeError("internal inconsistency: the bracket cells are not a partition")
    return poss


def _comparable(model_a: EpistemicModel, model_b: EpistemicModel) -> None:
    if model_a.sigma.space.states != model_b.sigma.space.states:
        raise AlgebraMismatch("models have different state spaces")
    if model_a.sigma.atoms != model_b.sigma.atoms:
        raise AlgebraMismatch("models have different algebras")
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
        if not _regular_verdict(m):
            raise HypothesisNotMet(f"{label} model is not regular")
    same_poss = model_a.poss.cells == model_b.poss.cells
    same_types = all(
        x.table == y.table
        for x, y in zip(model_a.types.per_state, model_b.types.per_state)
    )
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
    tables = tuple(sf.table for sf in model.types.per_state)
    cells = model.poss.cells
    hit = None
    for combo in range(1 << sigma.n_atoms):
        k = _k_mask(cells, sigma.event_masks[combo])
        b = _b_mask(tables, combo, ONE)
        if k != b:
            diff = k ^ b
            hit = (combo, (diff & -diff).bit_length() - 1)
            break
    witnesses = ()
    if hit is not None:
        combo, i = hit
        witnesses = (
            Witness(
                state=sigma.space.states[i],
                event=sigma.space.names_of(sigma.event_masks[combo]),
                note="K(E) and B^1(E) disagree at this state",
            ),
        )
    return CheckReport(
        "k-equals-b1", hit is None, witnesses, f"all {1 << sigma.n_atoms} events"
    )


def _strong_conjunction_report(model: EpistemicModel) -> CheckReport:
    """Closure of probability-one belief under arbitrary event conjunction.

    For monotone types the whole family of collections reduces to one check
    per state: the intersection D(omega) of all events with t(omega, .) = 1
    must itself carry belief one.  Without monotonicity the reduction is
    invalid and the collections are enumerated outright (feasible only for
    small algebras).
    """
    sigma = model.sigma
    space = sigma.space
    combo_of = sigma.combo_of
    n_events = 1 << sigma.n_atoms
    full = space.full_mask
    monotone = all(sf.classification.monotone for sf in model.types.per_state)
    hit = None
    if monotone:
        for i, sf in enumerate(model.types.per_state):
            d = full
            for combo in range(n_events):
                if sf.table[combo] == 1:
                    d &= sigma.event_masks[combo]
            if sf.table[combo_of(d)] != 1:
                hit = (i, d)
                break
        scope = f"reduced to {len(space)} states (monotone types)"
        witnesses = ()
        if hit is not None:
            i, d = hit
            witnesses = (
                Witness(
                    state=space.states[i],
                    event=space.names_of(d),
                    note="t(omega, intersection of 1-believed events) < 1",
                ),
            )
        return CheckReport("strong-b1-conjunction", hit is None, witnesses, scope)
    if n_events > 16:
        raise ResourceLimit(
            "non-monotone types with more than 16 events: collection sweep too large"
        )
    tables = tuple(sf.table for sf in model.types.per_state)
    b1 = [_b_mask(tables, combo, ONE) for combo in range(n_events)]
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
            hit = (coll, inter_e, (out & -out).bit_length() - 1)
            break
    witnesses = ()
    if hit is not None:
        _, inter_e, i = hit
        witnesses = (
            Witness(
                state=space.states[i],
                event=space.names_of(inter_e),
                note="in every B^1 of the collection but not in B^1 of the intersection",
            ),
        )
    return CheckReport(
        "strong-b1-conjunction",
        hit is None,
        witnesses,
        f"all {1 << n_events} event collections",
    )


def _support_identity_report(model: EpistemicModel) -> CheckReport:
    """P(omega) must equal the set of states with positive singleton belief."""
    space = model.sigma.space
    hit = None
    for i, sf in enumerate(model.types.per_state):
        support = 0
        for j in range(len(space)):
            if sf.table[1 << j] > 0:
                support |= 1 << j
        if support != model.poss.cells[i]:
            hit = i
            break
    witnesses = ()
    if hit is not None:
        witnesses = (
            Witness(
                state=space.states[hit],
                event=space.names_of(model.poss.cells[hit]),
                note="P(omega) != {omega' : t(omega, {omega'}) > 0}",
            ),
        )
    return CheckReport(
        "support-identity", hit is None, witnesses, f"all {len(space)} states"
    )


def verify_cor_main(model: EpistemicModel, diagnostic: bool = False) -> VerificationReport:
    """Discrete case: regular iff P equals the bracket and types are the
    Bayes conditionals; in that case qualitative belief is fully introspective
    knowledge and coincides with probability-one belief.

    ``diagnostic`` lets the verifier run on non-discrete models, reporting
    which conclusions break; the equivalence itself is then not asserted.
    """
    discrete = model.is_discrete
    if not discrete and not diagnostic:
        raise AssumptionViolated(
            "model is not discrete (powerset algebra with full-support prior)"
        )
    regular = is_regular(model)
    lhs = regular.passed

    brackets = model.types.order_masks[2]
    eq_hit = next(
        (
            i
            for i, cell in enumerate(model.poss.cells)
            if cell != brackets[i]
        ),
        None,
    )
    product_hit = _product_violation(model)
    rhs = eq_hit is None and product_hit is None

    notes = []
    witnesses = []
    if eq_hit is not None:
        witnesses.append(
            Witness(
                state=model.space.states[eq_hit],
                event=model.sigma.space.names_of(brackets[eq_hit]),
                note="P(omega) != bracket(omega)",
            )
        )
    if product_hit is not None:
        i, combo = product_hit
        witnesses.append(
            Witness(
                state=model.space.states[i],
                event=model.sigma.space.names_of(model.sigma.event_masks[combo]),
                note="t(omega, E) != mu(E | P(omega))",
            )
        )

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
    regular = _regular_verdict(model)
    if not (discrete and regular) and not diagnostic:
        raise AssumptionViolated("requires a discrete regular model")
    sigma = model.sigma
    cells = model.poss.cells
    full = sigma.space.full_mask
    hit = None
    for combo in range(1 << sigma.n_atoms):
        nk = full & ~_k_mask(cells, sigma.event_masks[combo])
        # (not K)(E) can fall outside the algebra on exotic models; K extends
        # to arbitrary state sets, so it is applied to the raw complement
        nk2 = full & ~_k_mask(cells, nk)
        both = nk & nk2
        if both:
            hit = (combo, (both & -both).bit_length() - 1)
            break
    witnesses = ()
    if hit is not None:
        combo, i = hit
        witnesses = (
            Witness(
                state=sigma.space.states[i],
                event=sigma.space.names_of(sigma.event_masks[combo]),
                note="the agent neither knows E nor knows not knowing E",
            ),
        )
    scope = f"all {1 << sigma.n_atoms} events"
    if not (discrete and regular):
        scope += " (diagnostic: preconditions not met)"
    return CheckReport("no-unawareness", hit is None, witnesses, scope)


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
    regular = _regular_verdict(model)
    brackets = model.types.order_masks[2]
    p_is_bracket = all(
        cell == brackets[i] for i, cell in enumerate(model.poss.cells)
    )
    bayes = _product_violation(model) is None and positive

    lhs1 = partition and regular
    rhs1 = p_is_bracket and bayes

    additive = _types_probability_violation(model) is None
    inv = _invariance_violation(model) is None
    ent = _entailment_violation(model) is None
    se = _containment_violation(model, 0) is None

    part2 = VerificationReport(
        claim="cor-regular-part-2",
        lhs=partition,
        rhs=p_is_bracket,
        equivalent=(partition == p_is_bracket)
        if (additive and inv and ent and se)
        else None,
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
    prior_table = model.prior.combo_table
    tables = tuple(sf.table for sf in model.types.per_state)

    if mode == "regular":
        ok = _regular_verdict(model)
        if not ok and not diagnostic:
            raise AssumptionViolated("requires a regular model")
    else:
        brackets = model.types.order_masks[2]
        ok = (
            _invariance_violation(model) is None
            and _certainty_violation(model, 2) is None
            and all(prior_table[sigma.combo_of(b)] > 0 for b in brackets)
        )
        if not ok and not diagnostic:
            raise AssumptionViolated(
                "requires Invariance, Certainty, and positive-measure brackets"
            )

    cells = model.poss.cells
    operators = [("b1", lambda combo: _b_mask(tables, combo, ONE))]
    if mode == "regular":
        operators.append(("k", lambda combo: _k_mask(cells, sigma.event_masks[combo])))
    suffix = f" x {len(sigma.space)} states"
    children = [
        report
        for label, mask_of in operators
        for report in _truth_reports(
            sigma, prior_table, label, mask_of, (("t", tables),), suffix
        )
    ]
    scope = f"mode={mode}"
    if not ok:
        scope += " (diagnostic: preconditions not met)"
    return CheckReport(
        "almost-sure-truth-axiom",
        all(c.passed for c in children),
        (),
        scope,
        tuple(children),
    )


# ---------------------------------------------------------------------------
# certainty and self-evidence against operator introspection


def _up_witness(model: EpistemicModel, which: int) -> tuple[Witness, ...]:
    i = _certainty_violation(model, which)
    if i is None:
        return ()
    kind = ("up_set", "down_set", "bracket")[which]
    mask = model.types.order_masks[which][i]
    return (
        Witness(
            state=model.space.states[i],
            event=model.sigma.space.names_of(mask),
            note=f"t(omega, {kind}(omega)) != 1",
        ),
    )


def _sweep_witness(model: EpistemicModel, hit) -> tuple[Witness, ...]:
    if hit is None:
        return ()
    p, combo, i = hit
    sigma = model.sigma
    return (
        Witness(
            state=sigma.space.states[i],
            event=sigma.space.names_of(sigma.event_masks[combo]),
            threshold=p,
        ),
    )


def verify_prop1(model: EpistemicModel) -> VerificationReport:
    """Certainty of the order sets against B^1-introspection of beliefs.

    Part 1: t(., up_set(.)) = 1 iff B^p(E) lies in B^1(B^p(E)) for all p, E.
    Part 2 (needs t(., Omega) = 1): t(., down_set(.)) = 1 iff the complement
    inclusion holds for all p, E.  Hypotheses for both parts: finitely many
    events (structural), monotone types, and intersections of 1-believed
    events staying 1-believed.
    """
    monotone = all(sf.classification.monotone for sf in model.types.per_state)
    one_int = all(
        sf.classification.one_intersection for sf in model.types.per_state
    )
    unit_on_omega = all(sf.table[-1] == 1 for sf in model.types.per_state)
    shared = (
        HypothesisResult("finite-algebra", True),
        HypothesisResult("monotone-types", monotone),
        HypothesisResult("one-intersection", one_int),
    )
    met = monotone and one_int

    lhs1 = _certainty_violation(model, 0) is None
    hit1 = _inclusion_sweep(model, "b1-pos")
    part1 = VerificationReport(
        claim="prop-1-part-1",
        lhs=lhs1,
        rhs=hit1 is None,
        equivalent=(lhs1 == (hit1 is None)) if met else None,
        hypotheses=shared,
        witnesses=_up_witness(model, 0) + _sweep_witness(model, hit1),
    )

    lhs2 = _certainty_violation(model, 1) is None
    hit2 = _inclusion_sweep(model, "b1-neg")
    met2 = met and unit_on_omega
    part2 = VerificationReport(
        claim="prop-1-part-2",
        lhs=lhs2,
        rhs=hit2 is None,
        equivalent=(lhs2 == (hit2 is None)) if met2 else None,
        hypotheses=shared + (HypothesisResult("t-omega-equals-1", unit_on_omega),),
        witnesses=_up_witness(model, 1) + _sweep_witness(model, hit2),
    )
    return VerificationReport(
        claim="prop-1",
        hypotheses=shared,
        parts=(part1, part2),
    )


def verify_prop2(model: EpistemicModel) -> VerificationReport:
    """Order-set containment of cells against K-introspection of beliefs.

    Part 1: P(.) inside up_set(.) iff B^p(E) lies in K(B^p(E)) for all p, E.
    Part 2: P(.) inside down_set(.) iff the complement inclusion holds.
    No hypotheses beyond finiteness.
    """
    se_pair = _containment_violation(model, 0)
    hit1 = _inclusion_sweep(model, "k-pos")
    lhs1 = se_pair is None
    part1 = VerificationReport(
        claim="prop-2-part-1",
        lhs=lhs1,
        rhs=hit1 is None,
        equivalent=lhs1 == (hit1 is None),
        witnesses=_pair_witnesses(
            model, se_pair, "omega' in P(omega) without t(omega,.) <= t(omega',.)"
        )
        + _sweep_witness(model, hit1),
    )

    down_pair = _containment_violation(model, 1)
    hit2 = _inclusion_sweep(model, "k-neg")
    lhs2 = down_pair is None
    part2 = VerificationReport(
        claim="prop-2-part-2",
        lhs=lhs2,
        rhs=hit2 is None,
        equivalent=lhs2 == (hit2 is None),
        witnesses=_pair_witnesses(
            model, down_pair, "omega' in P(omega) without t(omega',.) <= t(omega,.)"
        )
        + _sweep_witness(model, hit2),
    )
    return VerificationReport(claim="prop-2", parts=(part1, part2))
