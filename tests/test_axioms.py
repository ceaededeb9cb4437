"""Consistency-axiom checkers and the regularity predicate."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from emck import (
    EpistemicModel,
    NotMeasurable,
    PossibilityCorrespondence,
    Prior,
    SetFunction,
    TypeMapping,
    check_certainty,
    check_down_certainty,
    check_down_containment,
    check_entailment,
    check_invariance,
    check_p_introspection,
    check_positive_certainty,
    check_self_evidence,
    check_types_are_measures,
    dirac_type,
    is_regular,
    kripke_properties,
    make_space,
    partitions,
    poss_from_partition,
    sigma_from_atoms,
    sigma_powerset,
    type_mapping_constant,
    uniform_prior,
)
from emck.axioms import _certainty_mask, _invariance_violation
from emck.beliefs import expectation
from emck.fixtures import (
    null_state_slack,
    three_state_partition,
    two_state_capacity,
)

from helpers import (
    members,
    naive_bracket,
    naive_down,
    naive_is_partition,
    naive_up,
    w4_partition_poss,
)


def perturbed_w1() -> EpistemicModel:
    """The partition fixture with the type at state 1 replaced by a point
    mass at state 2 (breaks Invariance but keeps measurability)."""
    base = three_state_partition()
    types = TypeMapping(
        base.sigma,
        (dirac_type(base.sigma, "2"), base.types.per_state[1], base.types.per_state[2]),
    )
    return EpistemicModel(base.sigma, base.prior, base.poss, types)


def w2_with_tight_cell() -> EpistemicModel:
    """The null-state fixture with P(b) shrunk to {b}; entailment then fails
    at b because the type at b is the point mass at a."""
    base = null_state_slack()
    poss = PossibilityCorrespondence(base.sigma, (0b01, 0b10))
    return EpistemicModel(base.sigma, base.prior, poss, base.types)


class TestInvariance:
    def test_partition_model_satisfies_total_probability(self):
        assert check_invariance(three_state_partition()).passed

    def test_null_state_model_passes(self):
        assert check_invariance(null_state_slack()).passed

    def test_perturbed_type_fails_with_first_witness(self):
        report = check_invariance(perturbed_w1())
        assert not report.passed
        assert report.witnesses[0].event == ("1",)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_integer_kernel_finds_the_fraction_sums_first_miss(self, data):
        """Prior weights and type values over coprime denominators; each
        state's type is its Bayes conditional or an arbitrary table."""
        n = data.draw(st.integers(1, 3))
        states = [str(i + 1) for i in range(n)]
        sigma = sigma_powerset(make_space(states))
        denominators = st.sampled_from((1, 2, 3, 5, 7, 11, 13))

        def fraction() -> F:
            q = data.draw(denominators)
            return F(data.draw(st.integers(0, q)), q)

        head = [fraction() for _ in range(n - 1)]
        assume(sum(head) <= 1)
        prior = Prior(sigma, (*head, 1 - sum(head)))
        blocks = data.draw(st.sampled_from(list(partitions(n))))
        poss = poss_from_partition(sigma, [[states[i] for i in b] for b in blocks])
        per_state = []
        for cell in poss.cells:
            mu_cell = prior.measure_mask(cell)
            if mu_cell and data.draw(st.booleans()):
                table = [prior.measure_mask(mask & cell) / mu_cell for mask in sigma.event_masks]
            else:  # zero on the empty event, so a miss can come late
                table = [F(0), *(fraction() for _ in sigma.event_masks[1:])]
            per_state.append(SetFunction(sigma, tuple(table)))
        model = EpistemicModel(sigma, prior, poss, TypeMapping(sigma, tuple(per_state)))
        first_miss = next(
            (
                combo
                for combo, event in enumerate(sigma.events())
                if expectation(prior, lambda s: model.t(s, event)) != prior.measure_of(event)
            ),
            None,
        )
        assert _invariance_violation(prior, model.types) == first_miss


class TestCertaintyKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mask_holds_the_states_whose_set_has_a_fraction_value_below_one(self, data):
        """Prior weights and type values over coprime denominators and any
        cells; each state's type is its Bayes conditional, an earlier state's
        type, or an arbitrary table.  For the cells, the three order sets and
        Omega, the sets the kernel reads equal the naive ones, and its mask
        holds exactly the states omega with t(omega, X(omega)) != 1."""
        n = data.draw(st.integers(1, 3))
        states = [str(i + 1) for i in range(n)]
        sigma = sigma_powerset(make_space(states))
        denominators = st.sampled_from((1, 2, 3, 5, 7, 11, 13))

        def fraction() -> F:
            q = data.draw(denominators)
            return F(data.draw(st.integers(0, q)), q)

        head = [fraction() for _ in range(n - 1)]
        assume(sum(head) <= 1)
        prior = Prior(sigma, (*head, 1 - sum(head)))
        poss = PossibilityCorrespondence(
            sigma, tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in states)
        )
        per_state = []
        for cell in poss.cells:
            mu_cell = prior.measure_mask(cell)
            shape = data.draw(st.sampled_from(("bayes", "earlier", "arbitrary")))
            if shape == "bayes" and mu_cell:
                table = [prior.measure_mask(mask & cell) / mu_cell for mask in sigma.event_masks]
                per_state.append(SetFunction(sigma, tuple(table)))
            elif shape == "earlier" and per_state:
                per_state.append(data.draw(st.sampled_from(per_state)))
            else:
                per_state.append(SetFunction(sigma, tuple(fraction() for _ in sigma.event_masks)))
        model = EpistemicModel(sigma, prior, poss, TypeMapping(sigma, tuple(per_state)))
        space = sigma.space
        up, down, brackets = model.types.order_masks
        for masks, naive in (
            (poss.cells, lambda s: members(poss.cell(s))),
            (up, lambda s: naive_up(model, s)),
            (down, lambda s: naive_down(model, s)),
            (brackets, lambda s: naive_bracket(model, s)),
            ((space.full_mask,) * n, lambda s: frozenset(states)),
        ):
            assert [frozenset(space.names_of(m)) for m in masks] == [naive(s) for s in states]
            expected = space.mask_of(
                s for s in states if model.t(s, sigma.event(naive(s))) != 1
            )
            assert _certainty_mask(model.types, masks) == expected


class TestEntailment:
    def test_fixture_models_pass(self):
        assert check_entailment(three_state_partition()).passed
        assert check_entailment(null_state_slack()).passed

    def test_point_mass_outside_cell_fails_at_that_state(self):
        report = check_entailment(w2_with_tight_cell())
        assert not report.passed
        assert report.witnesses[0].state == "b"


class TestSelfEvidence:
    def test_identical_types_pass_both_directions(self):
        sigma = sigma_powerset(make_space(["1", "2"]))
        prior = uniform_prior(sigma)
        poss = PossibilityCorrespondence(sigma, (0b11, 0b11))
        types = type_mapping_constant(sigma, prior.to_set_function())
        model = EpistemicModel(sigma, prior, poss, types)
        assert check_self_evidence(model).passed
        assert check_down_containment(model).passed

    def test_null_state_model_passes(self):
        model = null_state_slack()
        assert check_self_evidence(model).passed
        assert check_down_containment(model).passed

    def test_capacity_model_with_total_poss_fails_at_pair(self):
        report = check_self_evidence(two_state_capacity())
        assert not report.passed
        hit = report.witnesses[0]
        assert (hit.state, hit.other_state) == ("b", "a")


class TestCertaintyFamily:
    def test_capacity_model_verdicts(self):
        model = two_state_capacity()
        assert check_positive_certainty(model).passed
        certainty = check_certainty(model)
        assert not certainty.passed
        assert certainty.witnesses[0].state == "a"
        down = check_down_certainty(model)
        assert not down.passed
        assert down.witnesses[0].state == "a"

    def test_partition_model_passes_all_three(self):
        model = three_state_partition()
        assert check_certainty(model).passed
        assert check_positive_certainty(model).passed
        assert check_down_certainty(model).passed

    def test_state_independent_type_passes_all_three(self):
        sigma = sigma_powerset(make_space(["1", "2"]))
        prior = uniform_prior(sigma)
        poss = PossibilityCorrespondence(sigma, (0b11, 0b11))
        types = type_mapping_constant(sigma, prior.to_set_function())
        model = EpistemicModel(sigma, prior, poss, types)
        assert check_certainty(model).passed
        assert check_positive_certainty(model).passed
        assert check_down_certainty(model).passed

    def test_additive_types_give_identical_verdicts(self):
        for model in (three_state_partition(), null_state_slack(), perturbed_w1()):
            a = check_certainty(model).passed
            b = check_positive_certainty(model).passed
            c = check_down_certainty(model).passed
            assert a == b == c

    def test_almost_sure_mode_is_weaker(self):
        # strict certainty fails at the capacity state, and the state has
        # positive prior mass, so the almost-sure reading fails too
        model = two_state_capacity()
        assert not check_certainty(model, almost_surely=True).passed
        # put all prior mass on b instead: the only violating state is null
        prior = Prior(model.sigma, (F(0), F(1)))
        shifted = EpistemicModel(model.sigma, prior, model.poss, model.types)
        assert not check_certainty(shifted).passed
        assert check_certainty(shifted, almost_surely=True).passed


class TestPIntrospection:
    def test_partition_model_passes_all_four(self):
        report = check_p_introspection(three_state_partition())
        assert report.passed
        assert [c.name for c in report.children] == [
            "b1-positive-introspection",
            "b1-negative-introspection",
            "k-positive-introspection",
            "k-negative-introspection",
        ]

    def test_capacity_model_negative_side_fails(self):
        report = check_p_introspection(w4_partition_poss())
        verdicts = {c.name: c for c in report.children}
        assert verdicts["b1-positive-introspection"].passed
        neg = verdicts["b1-negative-introspection"]
        assert not neg.passed
        hit = neg.witnesses[0]
        assert (hit.threshold, hit.event, hit.state) == (F(1), ("b",), "a")

    def test_constant_types_pass(self):
        sigma = sigma_powerset(make_space(["1", "2"]))
        prior = uniform_prior(sigma)
        poss = PossibilityCorrespondence(sigma, (0b11, 0b11))
        types = type_mapping_constant(sigma, prior.to_set_function())
        assert check_p_introspection(EpistemicModel(sigma, prior, poss, types)).passed


class TestRegularity:
    def test_partition_model_is_regular(self):
        report = is_regular(three_state_partition())
        assert report.passed
        assert [c.name for c in report.children] == [
            "probability-types",
            "invariance",
            "entailment",
            "self-evidence",
        ]

    def test_null_state_model_is_regular_without_being_partitional(self):
        model = null_state_slack()
        assert is_regular(model).passed
        assert not model.poss.is_partition

    def test_capacity_model_is_not_regular(self):
        report = is_regular(two_state_capacity())
        assert not report.passed
        verdicts = {c.name: c.passed for c in report.children}
        assert not verdicts["probability-types"]

    def test_types_are_measures_check(self):
        assert check_types_are_measures(three_state_partition()).passed
        assert not check_types_are_measures(two_state_capacity()).passed


class TestKripke:
    def test_partition_model(self):
        report = kripke_properties(three_state_partition())
        assert report.passed  # top level records "P induces a partition"
        assert all(c.passed for c in report.children)

    def test_nested_cells_fail_euclidean_and_negative_introspection(self):
        report = kripke_properties(null_state_slack())
        assert not report.passed
        verdicts = {c.name: c for c in report.children}
        assert verdicts["reflexive"].passed
        assert verdicts["transitive"].passed
        assert not verdicts["euclidean"].passed
        hit = verdicts["euclidean"].witnesses[0]
        assert (hit.state, hit.other_state) == ("b", "a")
        assert not verdicts["negative-introspection"].passed
        assert verdicts["truth-axiom"].passed
        assert verdicts["positive-introspection"].passed

    def test_total_correspondence_is_a_single_cell_partition(self):
        sigma = sigma_powerset(make_space(["1", "2"]))
        prior = uniform_prior(sigma)
        poss = PossibilityCorrespondence(sigma, (0b11, 0b11))
        types = type_mapping_constant(sigma, prior.to_set_function())
        assert kripke_properties(EpistemicModel(sigma, prior, poss, types)).passed

    def test_relational_and_operator_verdicts_agree(self):
        for model in (
            three_state_partition(),
            null_state_slack(),
            two_state_capacity(),
            w2_with_tight_cell(),
        ):
            verdicts = {c.name: c.passed for c in kripke_properties(model).children}
            assert verdicts["reflexive"] == verdicts["truth-axiom"]
            assert verdicts["transitive"] == verdicts["positive-introspection"]
            assert verdicts["euclidean"] == verdicts["negative-introspection"]


    def test_partition_verdicts_match_the_set_oracle_on_every_small_correspondence(self):
        verdicts = {True: set(), False: set()}
        for n in (1, 2, 3):
            space = make_space([str(i + 1) for i in range(n)])
            for blocks in partitions(n):
                sigma = sigma_from_atoms(space, [[space.states[i] for i in b] for b in blocks])
                prior = uniform_prior(sigma)
                types = type_mapping_constant(sigma, prior.to_set_function())
                for cells in product(sigma.event_masks, repeat=n):
                    poss = PossibilityCorrespondence(sigma, cells)
                    expected = naive_is_partition(poss)
                    assert poss.is_partition == expected
                    try:
                        model = EpistemicModel(sigma, prior, poss, types)
                    except NotMeasurable:
                        continue  # K leaves the algebra: not a model
                    assert kripke_properties(model).passed == expected
                    verdicts[expected].add(sigma.is_powerset)
        # both verdicts seen on powerset and on coarse algebras
        assert verdicts == {True: {True, False}, False: {True, False}}


class TestRegularConsequences:
    def test_entailment_self_evidence_monotone_imply_positive_certainty(self):
        for model in (three_state_partition(), null_state_slack()):
            assert check_entailment(model).passed
            assert check_self_evidence(model).passed
            assert check_positive_certainty(model).passed

    def test_null_events_agree_between_prior_and_types_when_regular(self):
        for model in (three_state_partition(), null_state_slack()):
            assert is_regular(model).passed
            for e in model.sigma.events():
                prior_null = model.prior.measure_of(e) == 0
                types_null = all(model.t(s, e) == 0 for s in model.space.states)
                assert prior_null == types_null
