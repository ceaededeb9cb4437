"""Shared test utilities: naive reference oracles and model builders.

The oracles here recompute operator values with plain sets, dicts and
Fractions — deliberately none of the bitmask machinery of the library — so
that agreement between the two is evidence of correctness rather than of
shared bugs.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations, product

from emck import (
    EpistemicModel,
    Event,
    InteractiveModel,
    PossibilityCorrespondence,
    SigmaAlgebra,
)
from emck.cli import main as cli_main

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
    """Recompute the classification flags by brute-force quantification."""
    events = list(table)
    normalized = table[universe] == 1 and table[frozenset()] == 0
    monotone = all(
        table[e] <= table[f] for e in events for f in events if e <= f
    )
    additive = all(
        table[e | f] == table[e] + table[f]
        for e, f in combinations(events, 2)
        if not (e & f)
    ) and table[frozenset()] == 0
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
