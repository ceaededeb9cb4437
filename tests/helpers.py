"""Shared test utilities: naive reference oracles and model builders.

The oracles here recompute operator values with plain sets, dicts and
Fractions — deliberately none of the bitmask machinery of the library — so
that agreement between the two is evidence of correctness rather than of
shared bugs.
"""

from __future__ import annotations

import io
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations, islice, product

from emck import (
    EpistemicModel,
    Event,
    InteractiveModel,
    PossibilityCorrespondence,
    Prior,
    ResourceLimit,
    SetFunction,
    SigmaAlgebra,
    TypeMapping,
    bayes_type_from_poss,
    parse_model,
    random_interactive_model,
    random_model,
    set_function_from_atom_weights,
)
from emck.cli import main as cli_main
from emck.modelgen import CLAIMS, SearchResult, satisfies_require
from emck.reports import CheckReport

F = Fraction


# ---------------------------------------------------------------------------
# set-based views of library objects


def members(event: Event) -> frozenset[str]:
    return frozenset(event.members)


def all_events(sigma: SigmaAlgebra):
    return sigma.events()


def cell_sets(model: EpistemicModel) -> dict[str, frozenset[str]]:
    return {s: members(model.poss.cell(s)) for s in model.space.states}


def type_table(model: EpistemicModel, state: str) -> dict[frozenset[str], Fraction]:
    return {members(e): model.t(state, e) for e in all_events(model.sigma)}


# ---------------------------------------------------------------------------
# naive oracles


def naive_k(model: EpistemicModel, event_states: frozenset[str]) -> frozenset[str]:
    cells = cell_sets(model)
    return frozenset(s for s in model.space.states if cells[s] <= event_states)


def naive_b(model: EpistemicModel, p: Fraction, event: Event) -> frozenset[str]:
    return frozenset(s for s in model.space.states if model.t(s, event) >= p)


def naive_up(model: EpistemicModel, state: str) -> frozenset[str]:
    mine = type_table(model, state)
    out = set()
    for other in model.space.states:
        theirs = type_table(model, other)
        if all(mine[e] <= theirs[e] for e in mine):
            out.add(other)
    return frozenset(out)


def naive_down(model: EpistemicModel, state: str) -> frozenset[str]:
    mine = type_table(model, state)
    out = set()
    for other in model.space.states:
        theirs = type_table(model, other)
        if all(theirs[e] <= mine[e] for e in mine):
            out.add(other)
    return frozenset(out)


def naive_bracket(model: EpistemicModel, state: str) -> frozenset[str]:
    return naive_up(model, state) & naive_down(model, state)


def naive_mutual_k(imodel: InteractiveModel, event_states: frozenset[str]) -> frozenset[str]:
    out = frozenset(imodel.space.states)
    for m in imodel.agent_models:
        out &= naive_k(m, event_states)
    return out


def naive_common_k(imodel: InteractiveModel, event_states: frozenset[str]) -> frozenset[str]:
    """Iterative definition: intersection of (everyone-knows)^n for n >= 1,
    stopping when the iterate repeats."""
    seen: list[frozenset[str]] = []
    current = event_states
    while True:
        current = naive_mutual_k(imodel, current)
        if current in seen:
            break
        seen.append(current)
    out = frozenset(imodel.space.states)
    for it in seen:
        out &= it
    return out


def naive_mutual_b(imodel: InteractiveModel, p: Fraction, event_states: frozenset[str]) -> frozenset[str]:
    sigma = imodel.sigma
    event = sigma.event(event_states)
    out = frozenset(imodel.space.states)
    for m in imodel.agent_models:
        out &= naive_b(m, p, event)
    return out


def naive_common_b(imodel: InteractiveModel, p: Fraction, event_states: frozenset[str]) -> frozenset[str]:
    seen: list[frozenset[str]] = []
    current = event_states
    while True:
        current = naive_mutual_b(imodel, p, current)
        if current in seen:
            break
        seen.append(current)
    out = frozenset(imodel.space.states)
    for it in seen:
        out &= it
    return out


def naive_agreement_violation(
    imodel: InteractiveModel, p: Fraction, combo: int
) -> tuple[tuple[Fraction, ...], frozenset[str], str] | None:
    """First (value vector, states holding it, "p" or "k") breaking the
    agreement bound at threshold p for the ``combo``-th event: vectors in
    lexicographic order of each agent's ascending posterior values; "p" when
    the values spread by more than 1 - p and are common p-belief, "k" when
    they differ and are common knowledge."""
    event = all_events(imodel.sigma)[combo]
    states = imodel.space.states
    posteriors = [{s: m.t(s, event) for s in states} for m in imodel.agent_models]
    for vector in product(*(sorted(set(post.values())) for post in posteriors)):
        spread = max(vector) - min(vector)
        if spread == 0:
            continue
        holders = frozenset(
            s for s in states if all(post[s] == r for post, r in zip(posteriors, vector))
        )
        if spread > 1 - p and naive_common_b(imodel, p, holders):
            return vector, holders, "p"
        if naive_common_k(imodel, holders):
            return vector, holders, "k"
    return None


def naive_is_partition(poss: PossibilityCorrespondence) -> bool:
    """Every state lies in its own cell, and any two cells are equal or
    disjoint."""
    cells = {s: members(poss.cell(s)) for s in poss.sigma.space.states}
    return all(s in cells[s] for s in cells) and all(
        a == b or not (a & b) for a in cells.values() for b in cells.values()
    )


def naive_classify(table: dict[frozenset[str], Fraction], universe: frozenset[str]):
    """Recompute the classification flags by brute-force quantification:
    monotone over every pair S <= T, additive as the sums of the atom
    values, convex over every pair of events."""
    events = list(table)
    normalized = table[universe] == 1 and table[frozenset()] == 0
    monotone = all(
        table[e] <= table[f] for e in events for f in events if e <= f
    )
    # the atoms are the least nonempty events; the empty sum makes v(empty) = 0
    atoms = [e for e in events if e and not any(f and f < e for f in events)]
    additive = all(
        table[e] == sum((table[a] for a in atoms if a <= e), Fraction(0)) for e in events
    )
    convex = all(
        table[e] + table[f] <= table[e & f] + table[e | f]
        for e, f in combinations(events, 2)
    )
    one_intersection = all(
        table[e & f] == 1
        for e, f in combinations(events, 2)
        if table[e] == 1 and table[f] == 1
    )
    return normalized, monotone, additive, convex, one_intersection


def flags(sf: SetFunction) -> tuple[bool, bool, bool, bool, bool]:
    """The five flags of a set function, in ``naive_classify``'s order."""
    return sf.normalized, sf.monotone, sf.additive, sf.convex, sf.one_intersection


# ---------------------------------------------------------------------------
# family counts


def family_split(params) -> tuple[int, int]:
    """(checked, skipped) of a ``theorem-main`` search over the family of
    ``params``, by counting alone: a model is skipped exactly where its
    prior gives some cell measure zero, so the skips are the null
    (prior, P) pairs times the type mappings, and every other model is
    checked.  Builds no model, no component and no library object.  Serves
    the families whose correspondences choose one cell per atom (reflexive,
    arbitrary-nonempty) with grid types (additive, capacity, monotone
    capacity), without ``require``."""
    if params.poss_mode == "partition" or params.type_mode == "bayes" or params.require:
        raise ValueError("family_split counts per-atom cells of grid types only")
    n, d = params.n_states, params.weight_denominator
    # algebras by number of atoms: the powerset, or one per set partition of
    # the states (Stirling numbers of the second kind)
    stirling = [[1]]
    for m in range(1, n + 1):
        row = stirling[-1]
        stirling.append(
            [0] + [(k * row[k] if k < m else 0) + row[k - 1] for k in range(1, m + 1)]
        )
    algebras = {n: 1} if params.sigma_mode == "powerset" else {
        k: stirling[n][k] for k in range(1, n + 1)
    }
    checked = skipped = 0
    for k, count in algebras.items():
        events = 1 << k
        if params.type_mode == "random-additive":
            tables = len([w for w in product(range(d + 1), repeat=k) if sum(w) == d])
        elif params.type_mode == "random-capacity":
            tables = (d + 1) ** events
        else:
            tables = sum(
                all(t[s] <= t[s | 1 << j] for s in range(events) for j in range(k))
                for t in product(range(d + 1), repeat=events)
            )
        mappings = tables**k
        own = [1 << j for j in range(k)]
        cells = [
            [c for c in range(1, events) if params.poss_mode != "reflexive" or c & own[j]]
            for j in range(k)
        ]
        for weights in product(range(d + 1), repeat=k):
            if sum(weights) != d or (params.full_support and 0 in weights):
                continue
            support = sum(1 << j for j in range(k) if weights[j])
            total = positive = 1
            for candidates in cells:
                total *= len(candidates)
                positive *= sum(1 for c in candidates if c & support)
            checked += count * mappings * positive
            skipped += count * mappings * (total - positive)
    return checked, skipped


# ---------------------------------------------------------------------------
# random search


def naive_random_search(claim: str, params) -> tuple[SearchResult | str, list[int], int]:
    """A random search by its definition: every whole draw of
    ``random_model`` (``random_interactive_model`` for an interactive claim)
    at consecutive seeds from ``params.seed`` is kept where it is in the
    family (the draw raises ``ValueError`` outside a full-support family)
    and ``satisfies_require`` holds on it, and the search gives up after
    1000 rejected draws in a row.  Returns the outcome (the ``SearchResult``, or
    the ``ResourceLimit`` message), the seeds of the kept draws and the
    number of draws made."""
    spec = CLAIMS[claim]
    draw = random_interactive_model if spec.kind == "interactive" else random_model
    seeds: list[int] = []
    made = 0

    def kept():
        nonlocal made
        rejected = 0
        while rejected < 1000:
            try:
                model = draw(params, params.seed + made)
            except ValueError:
                model = None
            made += 1
            if model is not None and satisfies_require(model, params.require):
                rejected = 0
                seeds.append(params.seed + made - 1)
                yield model
            else:
                rejected += 1
        if params.require:
            raise ResourceLimit(f"require filter rejected {rejected} consecutive draws")
        raise ResourceLimit(
            f"rejected {rejected} consecutive draws outside the full-support family"
        )

    checked = skips = 0
    try:
        for model in islice(kept(), params.budget):
            if not satisfies_require(model, spec.hypotheses):
                skips += 1
                continue
            checked += 1
            if spec.status(model) == "falsified":
                found = SearchResult(claim, True, checked, skips, model, spec.report(model))
                return found, seeds, made
    except ResourceLimit as exc:
        return str(exc), seeds, made
    return SearchResult(claim, False, checked, skips), seeds, made


# ---------------------------------------------------------------------------
# model builders


def w4_partition_poss() -> EpistemicModel:
    """The two-state capacity model with P equal to the bracket partition
    P(a) = {a}, P(b) = {b} instead of the total correspondence."""
    from emck.fixtures import two_state_capacity

    base = two_state_capacity()
    poss = PossibilityCorrespondence(base.sigma, (0b01, 0b10))
    return EpistemicModel(base.sigma, base.prior, poss, base.types)


# ---------------------------------------------------------------------------
# document oracles


def fraction_rational(text: str) -> Fraction:
    """A rational as ``Fraction(str)`` reads it, decimals and exponents
    refused: the oracle of the document reader's integer grammar."""
    text = text.strip()
    if "." in text or "e" in text or "E" in text:
        raise ValueError(f"decimal notation is not accepted: {text!r}")
    return Fraction(text)


def fraction_oracle_model(text: str) -> InteractiveModel:
    """The model of a well-formed document whose states are not named like
    section keywords, with its prior and every ``additive`` or
    ``capacity`` table rebuilt from ``Fraction``s: each token is read by
    :func:`fraction_rational` and handed to ``Prior(...)``,
    ``set_function_from_atom_weights`` or ``SetFunction(...)``, and
    ``bayes`` types are derived from that prior.  Only the algebra, the
    agents and the cells are taken from ``parse_model``."""
    doc = parse_model(text)
    imodel = doc.imodel
    sigma = imodel.sigma
    space = sigma.space
    rows: dict[str, dict[str, str]] = {}
    agent = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if m := re.fullmatch(r"prior:\s*(.*)", line):
            prior_row = m.group(1)
        elif m := re.fullmatch(r"agent\s+(\S+)\s*:", line):
            agent = m.group(1)
            rows[agent] = {}
        elif (m := re.fullmatch(r"(\S+?)\s*:\s*(.*)", line)) and m.group(1) in space.index:
            rows[agent][m.group(1)] = m.group(2)

    def atom_weights(row: str) -> list[Fraction]:
        per_atom = {}
        for entry in row.split():
            key, value = entry.split("=")
            per_atom[sigma.atom_index_of_state[space.index[key]]] = fraction_rational(value)
        return [per_atom[j] for j in range(sigma.n_atoms)]

    def capacity(row: str) -> SetFunction:
        per_event = {
            sigma.combo_index(space.mask_of(body.split())): fraction_rational(value)
            for body, value in re.findall(r"\{([^{}]*)\}\s*=\s*(\S+)", row)
        }
        return SetFunction(sigma, [per_event[combo] for combo in range(1 << sigma.n_atoms)])

    prior = Prior(sigma, atom_weights(prior_row))
    types = []
    for name, poss, decl in zip(imodel.agents, imodel.posses, doc.type_decls):
        if decl == "bayes":
            types.append(bayes_type_from_poss(sigma, prior, poss))
            continue
        if decl == "additive":
            per_state = [
                set_function_from_atom_weights(sigma, atom_weights(rows[name][s]))
                for s in space.states
            ]
        else:
            per_state = [capacity(rows[name][s]) for s in space.states]
        types.append(TypeMapping(sigma, tuple(per_state)))
    return InteractiveModel(sigma, prior, imodel.agents, imodel.posses, tuple(types))


# ---------------------------------------------------------------------------
# CLI runner


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the command-line entry point in-process; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_model(tmp_path, name: str, imodel_or_text) -> str:
    from emck.dslio import serialize_model

    path = os.path.join(str(tmp_path), name)
    if isinstance(imodel_or_text, str):
        text = imodel_or_text
    else:
        text = serialize_model(imodel_or_text)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def declare_broken_claim(monkeypatch) -> str:
    """Register the self-test claim "broken-selftest", declared as every
    claim is, by one part: its one conclusion is a kernel that fails on
    every regular model, and its report, built as every claim's is, nests
    one check that fails there too.  Returns its name."""
    import emck.modelgen as mg
    import emck.theorems as theorems
    from emck.axioms import _Hits

    name = "broken-selftest"

    def report(model):
        hits = _Hits(theorems._KERNELS, model)
        check = CheckReport(name, hits.holds(name), (), "self-test")
        return theorems._claim_report(name, hits.holds, checks=(check,))

    monkeypatch.setitem(theorems._KERNELS, name, lambda model: model.regular or None)
    monkeypatch.setitem(theorems._PARTS, name, (theorems.Part(name, (), (), (name,)),))
    monkeypatch.setitem(mg.CLAIMS, name, mg._declared(name, report))
    return name
