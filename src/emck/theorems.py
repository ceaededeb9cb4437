"""Verifiers for the single-agent characterization results, plus the two
canonical constructions (conditional types from a correspondence, and the
bracket correspondence from a type mapping).

Every iff-claim is decided by evaluating BOTH sides independently over their
full finite domains; the claims are test oracles, never implementation
shortcuts.  A report with status "falsified" therefore signals a genuine
counterexample or an internal defect, not an approximation artifact.

Every claim is declared once, as its parts in ``_PARTS``: each
:class:`Part` is one asserted equivalence between named kernels, or, with
no lhs, conclusions asserted under its conditions.  A kernel returns its
first hit, or None: ``_KERNELS`` here, ``multiagent._INTERACTIVE_KERNELS``
for the interactive claims.  One rule, ``_parts_status``, decides every
status, the status a search reads and the one every report stores.  Each
verifier reads its verdicts and witnesses from one ``axioms._Hits`` of the
same kernels, so it asks each kernel at most once.  Two builders make every
report, each storing the status the rule gives: ``_part_report``, the
report of an equivalence, which reads the part as the rule does
(``_asserted_as``), and ``_claim_report``, that of a claim with no sides of
its own.  So every claim's verifier returns a ``VerificationReport``, with
its conclusions nested as checks; a ``CheckReport`` is only ever the report
of one check, never that of a claim.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from .axioms import (
    REQUIRE_FLAGS,
    _certainty_mask,
    _certainty_witness,
    _containment_mask,
    _containment_violation,
    _event_sweep,
    _event_witness,
    _Hits,
    _inclusion_sweep,
    _inclusion_witness,
    _kripke_report,
    _operator_law_hits,
    _pair_witness,
    _regular_mask,
    _regular_whole,
    _truth_axiom_kernels,
    _truth_axiom_checks,
    _unless,
    is_regular,
)
from .beliefs import Prior, SetFunction, TypeMapping
from .errors import (
    AlgebraMismatch,
    AssumptionViolated,
    ConditioningOnNull,
    HypothesisNotMet,
    ResourceLimit,
)
from .events import SigmaAlgebra
from .operators import (
    EpistemicModel,
    PossibilityCorrespondence,
    _b_mask,
    _first_state,
    _k_mask,
    _null_cell_mask,
)
from .reports import (
    CheckReport,
    HypothesisResult,
    VerificationReport,
    Witness,
    _first_violation,
    _format_ratio,
    _precondition,
    _witness_at,
    _witnesses,
)


# ---------------------------------------------------------------------------
# kernels for the right-hand-side conditions of the main characterization


def _product_misses(
    prior: Prior, types: TypeMapping, cells: tuple[int, ...]
) -> Iterator[tuple[int, int]]:
    """(event combo, state) for each state, ascending, where
    t(omega, E) * mu(P(omega)) differs from mu(E & P(omega)), with E the
    first such event at that state.

    With positive cells this is exactly the Bayes condition
    t(omega, .) = mu(. | P(omega)); with null cells it is its product form.
    Decided on integers: with t(omega, E) = b[E] / D and mu(E) = m[E] / D_mu,
    the condition is b[E] m[P(omega)] = m[E & P(omega)] D, and E & P(omega)
    has the combo index of E bitwise and that of P(omega).
    """
    combo_of = types.sigma.combo_of
    d, tables = types.int_tables
    prior_ints = prior.int_table[1]
    for i, table in enumerate(tables):
        cc = combo_of(cells[i])
        mc = prior_ints[cc]
        for combo, value in enumerate(table):
            if value * mc != prior_ints[combo & cc] * d:
                yield combo, i
                break


def _conditional(prior: Prior, cell: int) -> SetFunction | None:
    """mu(. | C) for the event C of state mask ``cell``, or None where
    mu(C) = 0, built once per (prior, C) and kept in ``prior.conditionals``.
    Built on integers: with mu(E) = m[E] / D, the value at E is
    m[E & C] / m[C], and E & C is the bitwise and of the two combo
    indices."""
    memo = prior.conditionals
    if cell not in memo:
        sigma = prior.sigma
        combos = range(len(sigma.event_masks))  # raises TooManyAtoms above the cap
        cc = sigma.combo_of(cell)
        m = prior.int_table[1]
        memo[cell] = (
            SetFunction.from_ints(sigma, m[cc], tuple(m[e & cc] for e in combos)) if m[cc] else None
        )
    return memo[cell]


def _product_mask(prior: Prior, types: TypeMapping, cells: tuple[int, ...]) -> int:
    """The states failing the product identity of ``_product_misses``, as
    one equality: where mu(P(omega)) > 0 it holds exactly when t(omega, .)
    is mu(. | P(omega)), that is when the two lowest-terms integer tables
    are equal; at a null cell both of its sides are 0 at every event."""
    # the block count asks this per (block, cell): read the memo of
    # ``_conditional`` before calling it
    memo = prior.conditionals
    out = 0
    for i, sf in enumerate(types.per_state):
        cell = cells[i]
        bayes = memo[cell] if cell in memo else _conditional(prior, cell)
        if bayes is not None and sf.int_table != bayes.int_table:
            out |= 1 << i
    return out


def _bracket_equality_violation(model: EpistemicModel) -> int | None:
    """First omega with P(omega) != bracket(omega)."""
    brackets = model.types.order_masks[2]
    for i, cell in enumerate(model.poss.cells):
        if cell != brackets[i]:
            return i
    return None


def _almost_reverse_mask(prior: Prior, types: TypeMapping, cells: tuple[int, ...]) -> int:
    """(iii): the states omega where bracket(omega) exceeds the cell
    ``cells[omega]`` by more than a mu-null event."""
    brackets = types.order_masks[2]
    combo_of = types.sigma.combo_of
    prior_ints = prior.int_table[1]
    out = 0
    for i, cell in enumerate(cells):
        slack = brackets[i] & ~cell
        if slack and prior_ints[combo_of(slack)] != 0:
            out |= 1 << i
    return out


class Part(NamedTuple):
    """One asserted equivalence of a claim, each side and condition named by
    a kernel: the ``lhs`` kernels all hold iff the ``rhs`` kernels all hold,
    on a model where every ``asserted`` kernel holds, and only lhs implies
    rhs where the ``forward_only`` kernel holds too.  With no lhs, the part
    asserts its rhs conclusions.  The ``asserted`` names are the hypotheses
    of the part's report, and those of a claim's first part are the claim's
    own.  (A ``NamedTuple``, whose class builds at import about 1 ms faster
    than a frozen dataclass's.)"""

    name: str
    asserted: tuple[str, ...]
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]
    forward_only: str | None = None


def _asserted_as(part: Part, holds: Callable[[str], bool]) -> str | None:
    """How ``part`` is asserted on the model whose kernels ``holds`` decides:
    None where a condition fails, "forward" where only lhs implies rhs (its
    ``forward_only`` kernel holds), else "equivalence".  The rule and a
    part's report read a part this one way."""
    if not all(map(holds, part.asserted)):
        return None
    return "forward" if part.forward_only and holds(part.forward_only) else "equivalence"


def _falsifying_part(parts: tuple[Part, ...], holds: Callable[[str], bool]) -> Part | None:
    """The first of ``parts`` that is asserted and fails: its sides disagree,
    or, where only the forward implication is asserted, lhs holds and rhs
    fails.  No side of a part that is not asserted is asked, and no rhs of
    a forward-only part whose lhs fails."""
    for part in parts:
        asserted = _asserted_as(part, holds)
        if asserted is None:
            continue
        left = all(map(holds, part.lhs))
        if (left or asserted == "equivalence") and left != all(map(holds, part.rhs)):
            return part
    return None


def _parts_status(parts: tuple[Part, ...], holds: Callable[[str], bool]) -> str:
    """The one status rule of the claims: hypothesis-not-met where a
    condition of the first part fails, falsified where some part fails
    (``_falsifying_part``), else verified.  ``holds(name)`` decides the
    kernel ``name``, and is asked only where the rule needs it."""
    if not all(map(holds, parts[0].asserted)):
        return "hypothesis-not-met"
    return "verified" if _falsifying_part(parts, holds) is None else "falsified"


def _b1_of(model: EpistemicModel) -> Callable[[int], int]:
    """B^1 of the event of each combo, as a state mask."""
    one, tables = model.types.int_tables
    return lambda combo: _b_mask(tables, combo, one)


def _k_of(model: EpistemicModel) -> Callable[[int], int]:
    """K of the event of each combo, as a state mask."""
    cells, emasks = model.poss.cells, model.sigma.event_masks
    return lambda combo: _k_mask(cells, emasks[combo])


# The kernels that the single-agent parts name: the named hypotheses of
# ``REQUIRE_FLAGS``, each side of an equivalence and each conclusion.
_KERNELS: dict[str, Callable[[EpistemicModel], object]] = {
    **REQUIRE_FLAGS,
    "finite-algebra": lambda m: None,
    "null-cell": lambda m: _unless(m.has_null_cells),
    "p-equals-bracket": lambda m: _bracket_equality_violation(m),
    "product-identity": lambda m: _first_state(_product_mask(m.prior, m.types, m.poss.cells)),
    "bracket-containment": lambda m: _containment_violation(m, 2),
    "almost-sure-reverse-containment": lambda m: _first_state(
        _almost_reverse_mask(m.prior, m.types, m.poss.cells)
    ),
    "t-omega-equals-1": lambda m: _first_state(
        _certainty_mask(m.types, (m.space.full_mask,) * len(m.space))
    ),
    "positive-certainty": lambda m: _first_state(_certainty_mask(m.types, m.types.order_masks[0])),
    "down-certainty": lambda m: _first_state(_certainty_mask(m.types, m.types.order_masks[1])),
    "down-containment": lambda m: _containment_violation(m, 1),
    "b1-positive-introspection": lambda m: _inclusion_sweep(m, "b1-pos"),
    "b1-negative-introspection": lambda m: _inclusion_sweep(m, "b1-neg"),
    "k-positive-introspection": lambda m: _inclusion_sweep(m, "k-pos"),
    "k-negative-introspection": lambda m: _inclusion_sweep(m, "k-neg"),
    "k-equals-b1": lambda m: _k_equals_b1_violation(m),
    "strong-b1-conjunction": lambda m: _strong_conjunction_violation(m),
    "support-identity": lambda m: _support_identity_violation(m),
    # (not K)(E) can fall outside the algebra on exotic models; K extends to
    # arbitrary state sets, so the law is swept on raw masks
    "no-unawareness": lambda m: _operator_law_hits(
        m.sigma, lambda mask: _k_mask(m.poss.cells, mask)
    )[2],
    **_truth_axiom_kernels("b1", _b1_of, lambda m: m.types.int_tables[1]),
    **_truth_axiom_kernels("k", _k_of, lambda m: m.types.int_tables[1]),
}

# Regularity's two halves, the per-state one (``axioms._regular_mask``) and
# the whole-model one (``axioms._regular_whole``), and the main
# characterization's conditions (i)-(iii).
_REGULAR_CELL = ("entailment", "self-evidence")
_REGULAR_WHOLE = ("probability-types", "invariance")
_REGULARITY = _REGULAR_WHOLE + _REGULAR_CELL
_CONDITIONS = ("product-identity", "bracket-containment", "almost-sure-reverse-containment")
_PROP1_SHARED = ("finite-algebra", "monotone-types", "one-intersection")
_COR_MAIN = ("k-equals-b1", "partition", "strong-b1-conjunction", "support-identity")
_C_LAWS = ("c-truth-axiom", "c-positive-introspection", "c-negative-introspection")

# Every claim, by name, as its parts: theorem-main's sides are the four
# regularity conditions, the per-state ones asked first, and conditions
# (i)-(iii), and its product form asserts only the forward implication where
# some cell is mu-null; cor-regular's first part is the claim itself, and its
# two others are nested parts.  The
# one-sided claims assert their conclusions under their hypotheses; the
# kernels of prop-3, cor-ck and cor-ta-common are interactive.
_PARTS: dict[str, tuple[Part, ...]] = {
    "theorem-main": (
        Part("theorem-main", ("positive-cells",), _REGULAR_CELL + _REGULAR_WHOLE, _CONDITIONS),
    ),
    "theorem-main-product": (
        Part("theorem-main-product", (), _REGULAR_CELL + _REGULAR_WHOLE, _CONDITIONS, "null-cell"),
    ),
    "prop-1": (
        Part(
            "prop-1-part-1",
            _PROP1_SHARED,
            ("positive-certainty",),
            ("b1-positive-introspection",),
        ),
        Part(
            "prop-1-part-2",
            _PROP1_SHARED + ("t-omega-equals-1",),
            ("down-certainty",),
            ("b1-negative-introspection",),
        ),
    ),
    "prop-2": (
        Part("prop-2-part-1", (), ("self-evidence",), ("k-positive-introspection",)),
        Part("prop-2-part-2", (), ("down-containment",), ("k-negative-introspection",)),
    ),
    "cor-regular": (
        Part(
            "cor-regular",
            ("positive-cells",),
            ("partition", "regular"),
            ("p-equals-bracket", "positive-cells", "product-identity"),
        ),
        Part("cor-regular-part-2", _REGULARITY, ("partition",), ("p-equals-bracket",)),
        Part(
            "cor-regular-part-3",
            ("p-equals-bracket", "probability-types", "positive-cells"),
            ("entailment", "invariance"),
            ("positive-cells", "product-identity"),
        ),
    ),
    "cor-main": (
        Part("cor-main", ("discrete",), ("regular",), ("p-equals-bracket", "product-identity")),
        Part("cor-main-conclusions", ("discrete", "regular"), (), _COR_MAIN),
    ),
    "cor-unaware": (Part("cor-unaware", ("discrete", "regular"), (), ("no-unawareness",)),),
    "cor-ta": (
        Part(
            "cor-ta",
            ("regular",),
            (),
            ("b1-truth-mu", "b1-truth-types", "k-truth-mu", "k-truth-types"),
        ),
    ),
    "prop-3": (Part("prop-3", ("regular",), (), ("agreement",)),),
    "cor-ck": (Part("cor-ck", ("discrete", "regular"), (), ("c-equals-c1", *_C_LAWS)),),
    "cor-ta-common": (
        Part(
            "cor-ta-common",
            ("regular",),
            (),
            ("c-truth-mu", "c-truth-types", "c1-truth-mu", "c1-truth-types"),
        ),
    ),
}


def _hypotheses(part: Part, holds: Callable[[str], bool]) -> tuple[HypothesisResult, ...]:
    """The asserting conditions of ``part``, each decided by ``holds``."""
    return tuple(HypothesisResult(name, holds(name)) for name in part.asserted)


def _claim_report(claim: str, holds: Callable[[str], bool], **fields) -> VerificationReport:
    """The report of ``claim`` with no sides of its own: the status
    ``_parts_status`` gives its declared parts, and the asserting
    conditions of its first part as its hypotheses, each decided by
    ``holds``; ``fields`` add its nested parts and checks."""
    declared = _PARTS[claim]
    hypotheses = _hypotheses(declared[0], holds)
    return VerificationReport(claim, _parts_status(declared, holds), hypotheses=hypotheses, **fields)


def _part_report(
    declared: tuple[Part, ...], holds: Callable[[str], bool], **fields
) -> VerificationReport:
    """The report of the claim of the parts ``declared``, by its first part:
    both sides, whether they agree where the part asserts the equivalence,
    its asserting conditions as hypotheses, and the status
    ``_parts_status`` gives ``declared``, each decided by ``holds``.  A
    nested part's report is that of the part alone; ``fields`` add the
    verifier's witnesses, notes and nested parts."""
    part = declared[0]
    lhs = all(map(holds, part.lhs))
    rhs = all(map(holds, part.rhs))
    return VerificationReport(
        claim=part.name,
        status=_parts_status(declared, holds),
        lhs=lhs,
        rhs=rhs,
        equivalent=(lhs == rhs) if _asserted_as(part, holds) == "equivalence" else None,
        hypotheses=_hypotheses(part, holds),
        **fields,
    )


def _block_statuses(parts: tuple[Part, ...]) -> tuple[str, ...]:
    """The status of a model of ``_theorem_main_block`` by its flags: entry
    ``flags | whole << 3``, with the block's three cell flags and ``whole``
    the whole-model half of regularity, is the status ``_parts_status``
    gives ``parts`` (theorem-main's or theorem-main-product's).  Built once
    per claim."""

    def status(index: int) -> str:
        # the rule reads each flag in place of the kernels it joins
        holds = {
            "positive-cells": bool(index & 1),
            "null-cell": not index & 1,
            **dict.fromkeys(_REGULAR_CELL, bool(index & 2)),
            **dict.fromkeys(_CONDITIONS, bool(index & 4)),
            **dict.fromkeys(_REGULAR_WHOLE, bool(index & 8)),
        }.__getitem__
        return _parts_status(parts, holds)

    return tuple(map(status, range(16)))


def _theorem_main_block(
    prior: Prior, types: TypeMapping, per_atom: list[list[int]], statuses: tuple[str, ...]
) -> dict[str, int]:
    """The models (prior, types, P) whose correspondence gives the states of
    atom j a cell of ``per_atom[j]``, each choice once, counted by status,
    the entry of ``statuses`` (a claim's ``_block_statuses``) for their
    flags; builds none of them.

    Every per-state kernel (null cell, Entailment and Self-Evidence, and
    the three conditions of ``_CONDITIONS``) reads at omega only the
    cell P(omega), so it runs on the correspondence constant at each
    candidate cell, and an atom passes it with that cell when none of its
    states fails.  The kernels that read no prior (Entailment and
    Self-Evidence, bracket containment) run once per (type mapping, cell),
    kept in ``types.cell_masks``, and the null-cell rule, which reads no
    types, once per (prior, cell), kept in ``prior.cell_masks``; the two
    conditions that read both run once per block and cell, with mu(. | C)
    built once per (prior, cell).  A model's status depends only
    on whether every atom's cell is positive, passes the regularity side
    and passes the conditions, and on the whole-model kernels, so the block
    is counted by those three flags.
    """
    n = len(types.per_state)
    full = types.sigma.space.full_mask
    known = types.cell_masks
    nulls = prior.cell_masks
    fails = {}
    for cell in {c for cells in per_atom for c in cells}:
        constant = (cell,) * n
        if cell not in known:
            known[cell] = _regular_mask(types, constant), _containment_mask(types, constant, 2)
        if cell not in nulls:
            nulls[cell] = _null_cell_mask(prior, constant)
        irregular, unconditioned = known[cell]
        # where every state fails bracket containment, so do the conditions
        if unconditioned != full:
            unconditioned |= _almost_reverse_mask(prior, types, constant) | _product_mask(
                prior, types, constant
            )
        fails[cell] = nulls[cell], irregular, unconditioned
    # flags of an atom's cell, bit 0: the cell is positive; bit 1: the
    # atom's states pass the regularity side; bit 2: they pass conditions
    # (i)-(iii).  tally[flags] counts the correspondences on the atoms so
    # far whose flags, ANDed over those atoms, are ``flags``; only the
    # flags that occur are kept.
    tally = {7: 1}
    for atom, cells in zip(types.sigma.atoms, per_atom):
        at_atom = {}
        for cell in cells:
            null, irregular, unconditioned = fails[cell]
            flags = (
                (not null & atom) | (not irregular & atom) << 1 | (not unconditioned & atom) << 2
            )
            at_atom[flags] = at_atom.get(flags, 0) + 1
        joined = {}
        for a, count_a in tally.items():
            for b, count_b in at_atom.items():
                joined[a & b] = joined.get(a & b, 0) + count_a * count_b
        tally = joined
    counts = {}
    # bit 3 of a status index: the whole-model half of regularity, decided
    # where a flag needs it
    whole = None
    for flags, count in tally.items():
        if flags & 2:
            if whole is None:
                whole = _regular_whole(prior, types) << 3
            flags |= whole
        status = statuses[flags]
        counts[status] = counts.get(status, 0) + count
    return counts


def _condition_reports(
    model: EpistemicModel, product: bool
) -> tuple[CheckReport, CheckReport, CheckReport]:
    sigma = model.sigma
    n_states = len(model.space)

    def slack_witness(i: int) -> Witness:
        slack = model.types.order_masks[2][i] & ~model.poss.cells[i]
        d, table = model.prior.int_table
        value = _format_ratio(table[sigma.combo_of(slack)], d)
        note = f"mu(bracket(omega) minus P(omega)) = {value}"
        return _witness_at(sigma, state=i, mask=slack, note=note)

    return (
        _first_violation(
            "product-identity" if product else "bayes-conditioning",
            next(_product_misses(model.prior, model.types, model.poss.cells), None),
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
            _first_state(_almost_reverse_mask(model.prior, model.types, model.poss.cells)),
            f"all {n_states} states",
            slack_witness,
        ),
    )


def _containment_measure_note(model: EpistemicModel) -> str:
    """Measure of the set of states whose bracket sits inside the cell.

    This is the aggregate reading of condition (iii); only the per-state
    reading enters the equivalence, so the aggregate is reported as a note.
    The set is a union of atoms: a model's P and t are measurable, so the
    states of an atom share their cell and their bracket.
    """
    brackets = model.types.order_masks[2]
    smask = 0
    for i, cell in enumerate(model.poss.cells):
        if brackets[i] & ~cell == 0:
            smask |= 1 << i
    d, weights = model.prior.int_weights
    measure = sum(w for w, atom in zip(weights, model.sigma.atoms) if atom & smask)
    return f"mu(omega : bracket(omega) subset of P(omega)) = {_format_ratio(measure, d)}"


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _side_summary(holds: Callable[[str], bool], product: bool) -> tuple[str, str]:
    """Whether each condition of either side holds, as ``holds`` decides it:
    the regularity conditions in the order of ``is_regular``'s checks, and
    conditions (i)-(iii) under the names of ``_condition_reports``."""
    labels = ("product-identity" if product else "bayes-conditioning", *_CONDITIONS[1:])
    left = "regularity: " + " ".join(f"{name}={_flag(holds(name))}" for name in _REGULARITY)
    right = "conditions: " + " ".join(
        f"{label}={_flag(holds(name))}" for label, name in zip(labels, _CONDITIONS)
    )
    return left, right


def _trail(*reports: CheckReport) -> tuple[Witness, ...]:
    out = []
    for r in reports:
        for c in r.children or (r,):
            out.extend(c.witnesses)
    return tuple(out)


def _theorem_main_report(hits: _Hits, claim: str) -> VerificationReport:
    """Both sides of the main characterization on ``hits.model``, evaluated
    independently, each condition asked of ``hits`` once for the sides and
    their summary note, with the witness trail where ``claim``'s part fails
    (``_falsifying_part``), the one case that builds the condition reports."""
    model = hits.model
    parts = _PARTS[claim]
    product = claim == "theorem-main-product"
    notes = [*_side_summary(hits.holds, product), _containment_measure_note(model)]
    if not hits.holds("positive-cells"):
        notes.append("some cell is mu-null: only the forward implication is asserted")
    trail = ()
    if _falsifying_part(parts, hits.holds) is not None:
        trail = _trail(is_regular(model), *_condition_reports(model, product))
    return _part_report(parts, hits.holds, witnesses=trail, notes=tuple(notes))


def verify_theorem_main(model: EpistemicModel) -> VerificationReport:
    """Regularity against the Bayes-and-almost-partition description.

    Left side: additive probability types plus Invariance, Entailment, and
    Self-Evidence.  Right side: (i) every type is the prior conditioned on
    the cell, (ii) each cell lies inside the bracket of its type, (iii) the
    bracket exceeds the cell only by a mu-null event.  Both sides are
    evaluated independently and must agree.
    """
    hits = _Hits(_KERNELS, model)
    null = hits["positive-cells"]
    if null is not None:
        raise AssumptionViolated(
            f"mu(P({model.space.states[null]})) = 0; use verify_theorem_main_product"
        )
    return _theorem_main_report(hits, "theorem-main")


def verify_theorem_main_product(model: EpistemicModel) -> VerificationReport:
    """Null-cell-tolerant variant of the main characterization.

    The Bayes condition is replaced by the product identity
    mu(E & P(omega)) = mu(P(omega)) * t(omega, E).  With positive cells the
    claim is the same two-sided equivalence; with null cells only the forward
    implication (regular implies product + containment conditions) is
    asserted, and ``equivalent`` is left None.
    """
    return _theorem_main_report(_Hits(_KERNELS, model), "theorem-main-product")


# ---------------------------------------------------------------------------
# canonical constructions


def bayes_type_from_poss(
    sigma: SigmaAlgebra, prior: Prior, poss: PossibilityCorrespondence
) -> TypeMapping:
    """The type mapping t(omega, .) = mu(. | P(omega)).

    This is the unique type mapping that can make (sigma, prior, poss)
    regular; whether it actually does depends on the shape of the cells and
    is decided by the caller.  Cells of measure zero are rejected.  Each
    state's type is ``_conditional`` at its cell, built once per (prior,
    cell), so the correspondences of one prior share each mu(. | C).
    """
    sigma.check_same(poss.sigma, "correspondence is defined over a different algebra")
    per_state = []
    for i, cell in enumerate(poss.cells):
        sf = _conditional(prior, cell)
        if sf is None:
            raise ConditioningOnNull(f"mu(P({poss.sigma.space.states[i]})) = 0")
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
    if model_a.prior.int_weights != model_b.prior.int_weights:
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
        prior_ints = model_a.prior.int_table[1]
        combo_of = model_a.sigma.combo_of
        return all(
            prior_ints[combo_of(ca ^ cb)] == 0
            for ca, cb in zip(model_a.poss.cells, model_b.poss.cells)
        )
    raise HypothesisNotMet(
        "models share neither the correspondence nor the type mapping"
    )


# ---------------------------------------------------------------------------
# the discrete (powerset, full-support) case


def _k_equals_b1_violation(model: EpistemicModel) -> tuple[int, int] | None:
    """(event combo, state) where K(E) and B^1(E) first disagree."""
    k, b1 = _k_of(model), _b1_of(model)
    return _event_sweep(model.sigma, lambda combo: k(combo) ^ b1(combo))


def _strong_conjunction_violation(model: EpistemicModel) -> tuple[int, int] | None:
    """(omega, intersection mask) where probability-one belief first fails
    to be closed under arbitrary event conjunction.

    For monotone types the whole family of collections reduces to one check
    per state: the intersection D(omega) of all events with t(omega, .) = 1
    must itself carry belief one.  Without monotonicity the reduction is
    invalid and the collections are enumerated outright, which is refused
    with ResourceLimit above 16 events.
    """
    sigma = model.sigma
    combo_of = sigma.combo_of
    n_events = 1 << sigma.n_atoms
    full = sigma.space.full_mask
    one, tables = model.types.int_tables
    if REQUIRE_FLAGS["monotone-types"](model) is None:
        for i, table in enumerate(tables):
            inter = full
            for combo in range(n_events):
                if table[combo] == one:
                    inter &= sigma.event_masks[combo]
            if table[combo_of(inter)] != one:
                return i, inter
        return None
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
            return (out & -out).bit_length() - 1, inter_e
    return None


def _strong_conjunction_report(model: EpistemicModel, hits: _Hits) -> CheckReport:
    hit = hits["strong-b1-conjunction"]
    if hits.holds("monotone-types"):
        scope = f"reduced to {len(model.space)} states (monotone types)"
        note = "t(omega, intersection of 1-believed events) < 1"
    else:
        scope = f"all {1 << (1 << model.sigma.n_atoms)} event collections"
        note = "in every B^1 of the collection but not in B^1 of the intersection"
    return _first_violation(
        "strong-b1-conjunction",
        hit,
        scope,
        lambda h: _witness_at(model.sigma, state=h[0], mask=h[1], note=note),
    )


def _support_identity_violation(model: EpistemicModel) -> int | None:
    """First omega whose cell P(omega) is not the set of states with
    positive singleton belief (a powerset algebra's singletons)."""
    cells = model.poss.cells
    for i, table in enumerate(model.types.int_tables[1]):
        support = 0
        for j in range(len(cells)):
            if table[1 << j] > 0:
                support |= 1 << j
        if support != cells[i]:
            return i
    return None


def verify_cor_main(model: EpistemicModel, diagnostic: bool = False) -> VerificationReport:
    """Discrete case: regular iff P equals the bracket and types are the
    Bayes conditionals; in that case qualitative belief is fully introspective
    knowledge and coincides with probability-one belief.

    ``diagnostic`` lets the verifier run on non-discrete models, nesting
    the conclusion checks, as it does where they are asserted; the
    equivalence itself is then not asserted.  Witnesses are built only when
    they are reported: for a diagnostic, or when the equivalence fails.
    """
    hits = _Hits(_KERNELS, model)
    parts = _PARTS["cor-main"]
    discrete = hits.holds("discrete")
    _precondition(
        discrete, diagnostic, "model is not discrete (powerset algebra with full-support prior)"
    )
    sigma = model.sigma
    lhs = hits.holds("regular")
    rhs = all(map(hits.holds, parts[0].rhs))

    notes = []
    witnesses = []
    if (discrete and lhs != rhs) or diagnostic:
        witnesses += (
            *_witnesses(
                hits["p-equals-bracket"],
                lambda i: _witness_at(
                    sigma,
                    state=i,
                    mask=model.types.order_masks[2][i],
                    note="P(omega) != bracket(omega)",
                ),
            ),
            *_witnesses(
                next(_product_misses(model.prior, model.types, model.poss.cells), None),
                _event_witness(sigma, "t(omega, E) != mu(E | P(omega))"),
            ),
        )

    checks = []
    if (discrete and lhs) or diagnostic:
        # a discrete algebra is the powerset and regular types are monotone,
        # so neither guard below drops a conclusion that is asserted
        checks += (
            _first_violation(
                "k-equals-b1",
                hits["k-equals-b1"],
                f"all {1 << sigma.n_atoms} events",
                _event_witness(sigma, "K(E) and B^1(E) disagree at this state"),
            ),
            _kripke_report(model, hits["partition"]),
        )
        try:
            checks.append(_strong_conjunction_report(model, hits))
        except ResourceLimit as exc:
            notes.append(f"strong-b1-conjunction not evaluated: {exc}")
        if sigma.is_powerset:
            cells = model.poss.cells
            note = "P(omega) != {omega' : t(omega, {omega'}) > 0}"
            checks.append(
                _first_violation(
                    "support-identity",
                    hits["support-identity"],
                    f"all {len(cells)} states",
                    lambda i: _witness_at(sigma, state=i, mask=cells[i], note=note),
                )
            )
        else:
            notes.append("support-identity skipped: singletons are not all events")
    else:
        notes.append("conclusions not asserted: model is not regular")

    return _part_report(
        parts, hits.holds, witnesses=tuple(witnesses), checks=tuple(checks), notes=tuple(notes)
    )


def verify_cor_unaware(model: EpistemicModel, diagnostic: bool = False) -> VerificationReport:
    """No event is unawareness-prone: (not K)(E) and (not K)((not K)(E))
    never overlap in a discrete regular model.

    (not K)(E) & (not K)((not K)(E)) = (not K)(E) minus K((not K)(E)): the
    states where E is unawareness-prone are exactly where Negative
    Introspection of K fails."""
    hits = _Hits(_KERNELS, model)
    _precondition(
        hits.holds("discrete") and hits.holds("regular"),
        diagnostic,
        "requires a discrete regular model",
    )
    sigma = model.sigma
    check = _first_violation(
        "no-unawareness",
        hits["no-unawareness"],
        f"all {1 << sigma.n_atoms} events",
        _event_witness(sigma, "the agent neither knows E nor knows not knowing E"),
    )
    return _claim_report("cor-unaware", hits.holds, checks=(check,))


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
    holds = _Hits(_KERNELS, model).holds
    parts = _PARTS["cor-regular"]
    part2, part3 = (_part_report((part,), holds) for part in parts[1:])
    notes = (
        f"(a): partition={_flag(part2.lhs)} regular={_flag(all(map(holds, _REGULARITY)))}",
        f"(b): p-equals-bracket={_flag(part2.rhs)} bayes-conditioning={_flag(part3.rhs)}",
    )
    return _part_report(parts, holds, parts=(part2, part3), notes=notes)


# ---------------------------------------------------------------------------
# almost-sure Truth Axiom


def verify_cor_ta(model: EpistemicModel, diagnostic: bool = False) -> VerificationReport:
    """Truth Axiom up to measure zero for probability-one and qualitative
    belief on a regular model: mu(B^1(E) minus E) = 0 and
    mu(K(E) minus E) = 0, and likewise with every type t(omega, .) in place
    of mu.  K(E) may fall outside the algebra on models with a coarse
    algebra; the slack is then measured through its smallest measurable
    cover.
    """
    hits = _Hits(_KERNELS, model)
    _precondition(hits.holds("regular"), diagnostic, "requires a regular model")
    n = len(model.space)
    checks = _truth_axiom_checks(
        model.sigma, hits, ("b1", "k"), tuple(("t", i) for i in range(n)), f" x {n} states"
    )
    return _claim_report("cor-ta", hits.holds, checks=checks)


# ---------------------------------------------------------------------------
# certainty and self-evidence against operator introspection


def verify_prop1(model: EpistemicModel) -> VerificationReport:
    """Certainty of the order sets against B^1-introspection of beliefs.

    Part 1: t(., up_set(.)) = 1 iff B^p(E) lies in B^1(B^p(E)) for all p, E.
    Part 2 (needs t(., Omega) = 1): t(., down_set(.)) = 1 iff the complement
    inclusion holds for all p, E.  Hypotheses for both parts: finitely many
    events (structural), monotone types, and intersections of 1-believed
    events staying 1-believed.
    """
    hits = _Hits(_KERNELS, model)
    parts = tuple(
        _part_report(
            (part,),
            hits.holds,
            witnesses=(
                *_witnesses(
                    hits[part.lhs[0]],
                    _certainty_witness(model, mask, f"t(omega, {kind}(omega)) != 1"),
                ),
                *_witnesses(hits[part.rhs[0]], _inclusion_witness(model)),
            ),
        )
        for part, mask, kind in zip(
            _PARTS["prop-1"], model.types.order_masks, ("up_set", "down_set")
        )
    )
    return _claim_report("prop-1", hits.holds, parts=parts)


def verify_prop2(model: EpistemicModel) -> VerificationReport:
    """Order-set containment of cells against K-introspection of beliefs.

    Part 1: P(.) inside up_set(.) iff B^p(E) lies in K(B^p(E)) for all p, E.
    Part 2: P(.) inside down_set(.) iff the complement inclusion holds.
    No hypotheses beyond finiteness.
    """
    hits = _Hits(_KERNELS, model)
    pairs = ("t(omega,.) <= t(omega',.)", "t(omega',.) <= t(omega,.)")
    parts = tuple(
        _part_report(
            (part,),
            hits.holds,
            witnesses=(
                *_witnesses(
                    hits[part.lhs[0]],
                    _pair_witness(model.sigma, f"omega' in P(omega) without {pair}"),
                ),
                *_witnesses(hits[part.rhs[0]], _inclusion_witness(model)),
            ),
        )
        for part, pair in zip(_PARTS["prop-2"], pairs)
    )
    return _claim_report("prop-2", hits.holds, parts=parts)
