"""Acceptance gate: one test per release criterion, exact rationals, zero tolerance.

Each criterion is a single test function so ``pytest -v`` prints exactly one
pass/fail line per criterion, in order.  The functions deliberately favour
exhaustive enumeration and frozen family sizes over sampling: every count
asserted below was computed independently and pins the scope of the claim,
so a silent change in the generators cannot shrink a check without failing.

The heavyweight item is criterion 1 (an exhaustive sweep of about 17.4
million models); the whole module runs in a few minutes.
"""

from __future__ import annotations

import random

from fractions import Fraction

from helpers import family_split, members, run_cli, write_model

from emck import (
    GenParams,
    ParseError,
    agreement_sweep,
    bracket,
    conditional,
    common_p_belief,
    common_qualitative,
    enumerate_models,
    eval_expr,
    is_regular,
    p_belief,
    parse_model,
    poss_from_type,
    qualitative_belief,
    random_interactive_model,
    random_model,
    search_counterexample,
    serialize_doc,
    serialize_model,
    verify_agreement,
    verify_cor_ck,
    verify_cor_main,
    verify_cor_unaware,
    verify_prop1,
)
from emck.fixtures import (
    as_interactive,
    null_state_slack,
    three_state_partition,
    two_agent_partitions,
    two_state_capacity,
)

F = Fraction


# ---------------------------------------------------------------------------
# criterion 1 — the regularity equivalence, exhaustively on small models


def test_c01_regularity_equivalence_exhaustive_on_small_additive_models():
    """is_regular never disagrees with the three-part characterisation
    (Bayes conditioning + bracket containment + its almost-sure converse)
    over every model with n <= 3 states, powerset algebra, prior and
    additive-type weights on the 1/4 grid, and arbitrary nonempty cells."""
    expected = {
        1: (1, 0),
        2: (875, 250),
        3: (10_681_875, 6_682_500),
    }
    for n, (checked, skips) in expected.items():
        params = GenParams(
            n_states=n,
            weight_denominator=4,
            type_mode="random-additive",
            poss_mode="arbitrary-nonempty",
        )
        result = search_counterexample("theorem-main", params)
        assert not result.found
        # frozen family split: models with a null cell sit outside the
        # equivalence's hypotheses and are counted, not silently dropped
        assert (result.models_checked, result.hypothesis_skips) == (checked, skips)
        assert family_split(params) == (checked, skips)


# ---------------------------------------------------------------------------
# criterion 2 — the constructive direction: Bayes types over a partition


def test_c02_bayes_conditioning_on_partitions_always_yields_regular_models():
    """Every partition with positive-measure cells on n <= 4 states and a
    1/6-grid prior gives a regular model once types are derived by Bayes
    conditioning.  The family sizes are frozen."""
    family_sizes = {1: 1, 2: 12, 3: 98, 4: 704}
    for n, expected in family_sizes.items():
        params = GenParams(
            n_states=n,
            weight_denominator=6,
            type_mode="bayes",
            poss_mode="partition",
        )
        count = 0
        for model in enumerate_models(params):
            count += 1
            assert is_regular(model).passed
        assert count == expected


# ---------------------------------------------------------------------------
# criterion 3 — the null-state fixture separates exact from almost-sure


def test_c03_null_state_fixture_is_regular_but_not_partitional():
    """The two-state fixture with a probability-zero state is regular while
    its correspondence is not a partition: the type-equality class of state
    a strictly contains P(a), and the excess has measure exactly zero."""
    model = null_state_slack()
    assert is_regular(model).passed
    assert not model.poss.is_partition

    cell = model.poss.cell("a")
    hull = bracket(model.types, "a")
    assert cell.is_subset(hull)
    assert cell != hull
    assert members(hull) - members(cell) == {"b"}
    assert model.prior.measure_of(hull.difference(cell)) == 0


# ---------------------------------------------------------------------------
# criterion 4 — p-belief as an up-set of down-set measures (capacities)


def test_c04_pbelief_characterisation_random_monotone_capacities_and_fixture():
    """Both directions of the p-belief characterisation hold on >= 10^4
    random monotone-capacity models whose down-sets meet in one point, with
    the second part checked whenever t(.,Omega) = 1; the two-state capacity
    fixture exhibits the documented both-sides-false witness."""
    total = 0
    for n, budget, seed in ((1, 2000, 101), (2, 5000, 102), (3, 5000, 103)):
        params = GenParams(
            n_states=n,
            weight_denominator=4,
            type_mode="random-monotone-capacity",
            poss_mode="arbitrary-nonempty",
            require=("one-intersection",),
            budget=budget,
            seed=seed,
        )
        result = search_counterexample("prop-1", params, mode="random")
        assert not result.found
        assert result.models_checked == budget
        total += result.models_checked
    assert total >= 10_000

    report = verify_prop1(two_state_capacity())
    assert report.status != "falsified"
    part1, part2 = report.parts
    assert (part1.lhs, part1.rhs, part1.equivalent) == (True, True, True)
    assert (part2.lhs, part2.rhs, part2.equivalent) == (False, False, True)
    witnesses = {(w.threshold, w.event, w.state) for w in part2.witnesses}
    assert (F(1), ("b",), "a") in witnesses


# ---------------------------------------------------------------------------
# criterion 5 — the intersection formula for p-belief, exhaustively


def test_c05_pbelief_intersection_formula_exhaustive_capacity_grid():
    """Neither direction of the belief/intersection equivalence is ever
    falsified over every two-state model with 1/2-grid capacity tables and
    every nonempty correspondence.  The claim does not involve the prior,
    so the single full-support 1/2-grid prior carries the whole family."""
    params = GenParams(
        n_states=2,
        weight_denominator=2,
        type_mode="random-capacity",
        poss_mode="arbitrary-nonempty",
        full_support=True,
    )
    result = search_counterexample("prop-2", params)
    assert not result.found
    assert result.models_checked == 59_049
    assert result.hypothesis_skips == 0


# ---------------------------------------------------------------------------
# the discrete regular family shared by criteria 6, 7 and 8


def _discrete_regular_family():
    """All Bayes-over-partition models with full-support 1/6-grid priors,
    n <= 4 states: the discrete regular models of criterion 2's family."""
    for n in (1, 2, 3, 4):
        params = GenParams(
            n_states=n,
            weight_denominator=6,
            type_mode="bayes",
            poss_mode="partition",
            full_support=True,
        )
        yield from enumerate_models(params)


# ---------------------------------------------------------------------------
# criterion 6 — knowledge coincides with certainty on discrete regular models


def test_c06_discrete_regular_models_knowledge_equals_certainty():
    """On every discrete regular model of the constructive family, K(E)
    equals probability-one belief for every event, the Kripke trio
    (truth, positive and negative introspection) holds, certainty satisfies
    strong finite conjunction, and each cell is the support of its type."""
    count = 0
    for model in _discrete_regular_family():
        count += 1
        report = verify_cor_main(model)
        assert report.status == "verified"
        assert {c.name for c in report.checks} == {
            "k-equals-b1",
            "kripke",
            "strong-b1-conjunction",
            "support-identity",
        }
    assert count == 211


# ---------------------------------------------------------------------------
# criterion 7 — no unawareness on discrete models; the null-state witness


def test_c07_no_unawareness_on_discrete_family_and_null_state_witness():
    """not-K(E) intersect not-K(not-K(E)) is empty for every event on every
    model of the discrete family; the null-state fixture, run in diagnostic
    mode, pins the unawareness witness to the measure-zero state b."""
    count = 0
    for model in _discrete_regular_family():
        count += 1
        assert verify_cor_unaware(model).status == "verified"
    assert count == 211

    fixture = null_state_slack()
    report = verify_cor_unaware(fixture, diagnostic=True)
    assert report.status == "hypothesis-not-met"
    (check,) = report.checks
    assert not check.passed
    hit = check.witnesses[0]
    assert (hit.event, hit.state) == (("a",), "b")
    assert fixture.prior.measure_of(fixture.event(["b"])) == 0


# ---------------------------------------------------------------------------
# criterion 8 — the correspondence is recovered from its Bayes types


def test_c08_possibility_correspondence_recovered_from_bayes_types():
    """poss_from_type inverts bayes_type_from_poss for every partition on
    n <= 4 states under every full-support 1/6-grid prior; the partition
    counts confirm every partition of each size is exercised."""
    seen: dict[int, set] = {1: set(), 2: set(), 3: set(), 4: set()}
    for model in _discrete_regular_family():
        recovered = poss_from_type(model.sigma, model.prior, model.types)
        assert recovered == model.poss
        seen[len(model.space.states)].add(model.poss.cells)
    # Bell numbers 1, 2, 5, 15: all partitions appeared
    assert {n: len(s) for n, s in seen.items()} == {1: 1, 2: 2, 3: 5, 4: 15}


# ---------------------------------------------------------------------------
# criterion 9 — certainty and knowledge imply truth almost surely


def test_c09_certainty_and_knowledge_imply_truth_almost_surely():
    """For every regular model in the two enumerated families, probability-
    one belief and knowledge can only exceed the event by a null set, and
    no type puts weight on that excess.  The regular members of the
    exhaustive additive family are collected through the equivalence
    established by criterion 1: they are exactly the Bayes-conditioning
    models whose type tables stay on the 1/4 grid and pass is_regular."""
    models = []
    regular_counts = {1: 0, 2: 0, 3: 0}
    for n in (1, 2, 3):
        params = GenParams(
            n_states=n,
            weight_denominator=4,
            type_mode="bayes",
            poss_mode="arbitrary-nonempty",
        )
        for model in enumerate_models(params):
            # the least common denominator of a table is 1, 2 or 4 exactly
            # when every value's denominator is
            on_grid = all(t.int_table[0] in (1, 2, 4) for t in model.types.per_state)
            if on_grid and is_regular(model).passed:
                regular_counts[n] += 1
                models.append(model)
    assert regular_counts == {1: 1, 2: 14, 3: 345}

    # the constructive family of criterion 2 (all regular, per that test)
    for n in (1, 2, 3, 4):
        params = GenParams(
            n_states=n,
            weight_denominator=6,
            type_mode="bayes",
            poss_mode="partition",
        )
        models.extend(enumerate_models(params))
    assert len(models) == 360 + 815

    one = F(1)
    for model in models:
        states = model.space.states
        for event in model.sigma.events():
            certain = p_belief(model, one, event)
            known = qualitative_belief(model, event)
            assert model.prior.measure_of(certain.difference(event)) == 0
            assert model.prior.measure_of(known.difference(event)) == 0
            excess = certain.difference(event)
            for state in states:
                assert model.t(state, excess) == 0


# ---------------------------------------------------------------------------
# criterion 10 — the agreement bound and common-certainty collapse


def test_c10_agreement_bound_on_fixture_and_random_discrete_models():
    """On the two-agent fixture and on 10^3 random two-agent discrete
    regular models, every posterior vector attainable inside a nonempty
    common-p-belief event satisfies |r_i - r_j| <= 1 - p (so common
    certainty, p = 1, forces equal posteriors), and qualitative common
    belief coincides with common certainty alongside the Kripke trio."""
    iw1 = two_agent_partitions()
    sweep = agreement_sweep(iw1)
    assert sweep.passed
    assert sweep.scope == "40 (threshold, event) pairs"
    # the sweep includes p = 1, the case that forces posterior equality
    assert F(1) in iw1.thresholds

    # the documented two-agent disagreement profile for the event {1}:
    # alice's posteriors are 1 and 0, bob's are 2/3 and 0, so no nonempty
    # common-certainty event can contain differing posteriors
    event = iw1.event(["1"])
    alice, bob = (iw1.agent_model(a) for a in ("alice", "bob"))
    assert conditional(iw1.prior, event, alice.poss.cell("1")) == 1
    assert conditional(iw1.prior, event, alice.poss.cell("2")) == 0
    assert conditional(iw1.prior, event, bob.poss.cell("1")) == F(2, 3)
    assert conditional(iw1.prior, event, bob.poss.cell("3")) == 0
    assert verify_agreement(iw1, F(1), event).passed
    assert verify_cor_ck(iw1).status == "verified"

    checked = 0
    for n_states, seeds in ((2, range(500)), (3, range(500, 1000))):
        params = GenParams(
            n_states=n_states,
            weight_denominator=6,
            n_agents=2,
            type_mode="bayes",
            poss_mode="partition",
            full_support=True,
        )
        for seed in seeds:
            imodel = random_interactive_model(params, seed=seed)
            assert imodel.is_discrete
            assert agreement_sweep(imodel).passed
            assert verify_cor_ck(imodel).status == "verified"
            checked += 1
    assert checked == 1000


# ---------------------------------------------------------------------------
# criterion 11 — infrastructure: round trips, differentials, fuzz, determinism


def test_c11_round_trip_eval_differential_parser_fuzz_and_cli_determinism(tmp_path):
    """The text format round-trips every fixture and 10^3 generated models;
    expression evaluation agrees with direct operator calls on every event
    of every fixture; 10^5 random strings never crash the parser (only
    located parse errors); repeated CLI runs are byte-identical."""
    # --- round trips: fixtures first
    fixtures = [
        as_interactive(three_state_partition()),
        as_interactive(null_state_slack()),
        as_interactive(two_state_capacity()),
        two_agent_partitions(),
    ]
    for imodel in fixtures:
        text = serialize_model(imodel)
        doc = parse_model(text)
        assert serialize_doc(doc) == text
        assert doc.imodel == imodel

    # --- round trips: 1000 generated models across the generator modes
    grids = (
        GenParams(n_states=3, weight_denominator=4, type_mode="random-additive",
                  poss_mode="arbitrary-nonempty"),
        GenParams(n_states=4, weight_denominator=3, type_mode="random-capacity",
                  poss_mode="reflexive"),
        GenParams(n_states=3, weight_denominator=6, type_mode="bayes",
                  poss_mode="partition", full_support=True),
        GenParams(n_states=4, weight_denominator=5,
                  type_mode="random-monotone-capacity",
                  poss_mode="arbitrary-nonempty", sigma_mode="random-partition"),
    )
    count = 0
    for offset, params in enumerate(grids):
        for seed in range(200):
            model = random_model(params, seed=1000 * offset + seed)
            imodel = as_interactive(model)
            text = serialize_model(imodel)
            doc = parse_model(text)
            assert serialize_doc(doc) == text
            assert doc.imodel == imodel
            count += 1
    two_agent = GenParams(n_states=3, weight_denominator=6, n_agents=2,
                          type_mode="bayes", poss_mode="partition",
                          full_support=True)
    for seed in range(200):
        imodel = random_interactive_model(two_agent, seed=seed)
        text = serialize_model(imodel)
        doc = parse_model(text)
        assert serialize_doc(doc) == text
        assert doc.imodel == imodel
        count += 1
    assert count == 1000

    # --- expression evaluation against direct operator calls
    thresholds = (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))
    for imodel in fixtures[:3]:
        model = imodel.agent_model("alice")
        for event in model.sigma.events():
            names = {"E": event}
            assert eval_expr(imodel, "K[alice](E)", names) == qualitative_belief(
                model, event
            )
            for p in thresholds:
                got = eval_expr(imodel, f"B[alice,{p}](E)", names)
                assert got == p_belief(model, p, event)
    iw1 = two_agent_partitions()
    for event in iw1.sigma.events():
        names = {"E": event}
        for agent in iw1.agents:
            expected = qualitative_belief(iw1.agent_model(agent), event)
            assert eval_expr(iw1, f"K[{agent}](E)", names) == expected
        assert eval_expr(iw1, "C(E)", names) == common_qualitative(iw1, event)
        for p in thresholds:
            got = eval_expr(iw1, f"Cp[{p}](E)", names)
            assert got == common_p_belief(iw1, p, event)

    # --- parser fuzz: random strings may only raise located parse errors
    rng = random.Random(20260825)
    alphabet = (
        "states:prior sigma agent poss type event powerset atoms"
        "\n\t #->;=0123456789/abcxyz{}|&~[](),."
    )
    for _ in range(100_000):
        text = "".join(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 60))
        )
        try:
            parse_model(text)
        except ParseError as exc:
            assert str(exc)
            assert exc.line is None or exc.line >= 1

    # --- fixed seeds give byte-identical command-line output
    w1 = write_model(tmp_path, "w1.emod", as_interactive(three_state_partition()))
    iw1_path = write_model(
        tmp_path, "iw1.emod", serialize_model(iw1) + "event E = {1}\n"
    )
    commands = [
        ("validate", w1),
        ("check", w1),
        ("verify", w1, "--claim", "theorem-main"),
        ("verify", iw1_path, "--claim", "prop-3"),
        ("eval", iw1_path, "--expr", "~B[alice,1/2](E) & Cp[1](E)"),
        ("canonical", w1, "--expand-types"),
        ("search", "--claim", "prop-2", "--states", "2", "--mode", "random",
         "--seed", "11", "--budget", "150", "--type-mode", "random-capacity"),
    ]
    for argv in commands:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
