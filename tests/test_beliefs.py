"""Priors, set functions, classification flags, and the dominance order sets."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from emck import (
    ConditioningOnNull,
    IncompleteCapacity,
    NotMeasurable,
    Prior,
    PriorNotNormalized,
    RationalOutOfRange,
    SetFunction,
    TypeMapping,
    bracket,
    dirac_type,
    down_set,
    make_space,
    measure_of,
    set_function_from_atom_weights,
    set_function_from_values,
    sigma_from_atoms,
    sigma_powerset,
    type_measurability_check,
    type_mapping_constant,
    up_set,
)
from emck.beliefs import almost_contains, almost_equal, conditional, expectation
from emck.fixtures import three_state_partition, two_state_capacity

from helpers import members, naive_bracket, naive_classify, naive_down, naive_up, type_table


VALUES = st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)])


@st.composite
def algebras(draw):
    """1-3 atoms: the powerset, or a coarse algebra whose last state shares
    an atom with an earlier one."""
    k = draw(st.integers(1, 3))
    coarse = draw(st.booleans())
    names = [str(i) for i in range(k + coarse)]
    blocks = [[name] for name in names[:k]]
    if coarse:
        blocks[draw(st.integers(0, k - 1))].append(names[k])
    return sigma_from_atoms(make_space(names), blocks)


@st.composite
def additive_tables(draw, sigma):
    """Atom weights summing to at most 1."""
    counts = draw(st.lists(st.integers(0, 3), min_size=sigma.n_atoms, max_size=sigma.n_atoms))
    denominator = max(1, sum(counts) + draw(st.integers(0, 2)))
    return set_function_from_atom_weights(sigma, (F(c, denominator) for c in counts))


def tables(sigma):
    """Arbitrary tables (v(empty) may be nonzero), additive tables, monotone
    tables (ascending in the canonical event order), and tables with many
    events of value 1."""
    n = 1 << sigma.n_atoms
    rows = st.lists(VALUES, min_size=n, max_size=n)
    mostly_ones = st.lists(st.sampled_from([F(0), F(1, 2), F(1), F(1), F(1)]), min_size=n, max_size=n)
    return st.one_of(rows, rows.map(sorted), mostly_ones).map(
        lambda values: SetFunction(sigma, tuple(values))
    ) | additive_tables(sigma)


@pytest.fixture
def sigma3():
    return sigma_powerset(make_space(["1", "2", "3"]))


@pytest.fixture
def prior3(sigma3):
    return Prior(sigma3, (F(1, 2), F(1, 4), F(1, 4)))


class TestPrior:
    def test_measure_of_event(self, sigma3, prior3):
        assert measure_of(prior3, sigma3.event(["2", "3"])) == F(1, 2)

    def test_full_space_has_measure_one(self, sigma3, prior3):
        assert measure_of(prior3, sigma3.full_event) == 1

    def test_empty_set_has_measure_zero(self, sigma3, prior3):
        assert measure_of(prior3, sigma3.empty_event) == 0

    def test_weights_must_sum_to_one(self, sigma3):
        with pytest.raises(PriorNotNormalized):
            Prior(sigma3, (F(1, 2), F(1, 4), F(1, 2)))

    def test_weights_must_be_nonnegative(self, sigma3):
        with pytest.raises(PriorNotNormalized):
            Prior(sigma3, (F(3, 2), F(-1, 4), F(-1, 4)))

    def test_one_weight_per_atom(self, sigma3):
        with pytest.raises(PriorNotNormalized):
            Prior(sigma3, (F(1, 2), F(1, 2)))

    def test_additivity_over_atoms(self, sigma3, prior3):
        for e in sigma3.events():
            total = sum(
                (w for w, atom in zip(prior3.weights, sigma3.atoms) if atom & e.mask),
                F(0),
            )
            assert measure_of(prior3, e) == total


class TestConditional:
    def test_bayes_ratio(self, sigma3, prior3):
        e = sigma3.event(["2"])
        given = sigma3.event(["2", "3"])
        assert conditional(prior3, e, given) == F(1, 2)

    def test_conditioning_event_on_itself(self, sigma3, prior3):
        given = sigma3.event(["1", "3"])
        assert conditional(prior3, given, given) == 1

    def test_null_conditioning_event_rejected(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        prior = Prior(sigma, (F(1), F(0)))
        with pytest.raises(ConditioningOnNull):
            conditional(prior, sigma.event(["a"]), sigma.event(["b"]))


class TestAlmostSurely:
    def test_set_containment_implies_almost_containment(self, sigma3, prior3):
        assert almost_contains(prior3, sigma3.event(["2"]), sigma3.event(["2", "3"]))

    def test_null_difference_counts_as_contained(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        prior = Prior(sigma, (F(1), F(0)))
        assert almost_contains(prior, sigma.full_event, sigma.event(["a"]))
        assert almost_equal(prior, sigma.full_event, sigma.event(["a"]))

    def test_positive_difference_is_detected(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        prior = Prior(sigma, (F(1, 2), F(1, 2)))
        assert not almost_contains(prior, sigma.full_event, sigma.event(["a"]))
        assert not almost_equal(prior, sigma.full_event, sigma.event(["a"]))


class TestExpectation:
    def test_constant_function(self, prior3):
        assert expectation(prior3, lambda s: F(7, 3)) == F(7, 3)

    def test_two_point_function(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        prior = Prior(sigma, (F(1, 2), F(1, 2)))
        assert expectation(prior, {"a": F(0), "b": F(1)}) == F(1, 2)

    def test_function_splitting_an_atom_rejected(self):
        sigma = sigma_from_atoms(make_space(["1", "2"]), [["1", "2"]])
        prior = Prior(sigma, (F(1),))
        with pytest.raises(NotMeasurable):
            expectation(prior, {"1": F(0), "2": F(1)})

    def test_indicator_recovers_measure(self, sigma3, prior3):
        for e in sigma3.events():
            indicator = {s: F(1) if s in e else F(0) for s in sigma3.space.states}
            assert expectation(prior3, indicator) == measure_of(prior3, e)


class TestSetFunctionValidation:
    def test_values_out_of_unit_interval_rejected(self, sigma3):
        good = [F(0)] * 8
        bad_high = list(good)
        bad_high[3] = F(3, 2)
        with pytest.raises(RationalOutOfRange):
            SetFunction(sigma3, tuple(bad_high))
        bad_low = list(good)
        bad_low[1] = F(-1, 4)
        with pytest.raises(RationalOutOfRange):
            SetFunction(sigma3, tuple(bad_low))

    def test_table_length_must_match_event_count(self, sigma3):
        with pytest.raises(IncompleteCapacity):
            SetFunction(sigma3, (F(0), F(1)))


class TestClassify:
    def test_point_mass_has_all_flags(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        flags = dirac_type(sigma, "a").classification
        assert (
            flags.normalized
            and flags.monotone
            and flags.additive
            and flags.convex
            and flags.one_intersection
        )

    def test_pure_capacity_is_not_additive(self):
        # v(empty) = v({a}) = v({b}) = 0 and v(Omega) = 1: the union {a} u {b}
        # carries mass that neither part does.
        sigma = sigma_powerset(make_space(["a", "b"]))
        v = SetFunction(sigma, (F(0), F(0), F(0), F(1)))
        flags = v.classification
        assert flags.normalized and flags.monotone and flags.convex
        assert not flags.additive
        assert flags.one_intersection

    def test_positive_mass_on_empty_set_is_not_normalized(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        v = SetFunction(sigma, (F(1, 2), F(1, 2), F(1, 2), F(1)))
        assert not v.classification.normalized

    def test_non_monotone_table_detected(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        v = SetFunction(sigma, (F(0), F(1), F(0), F(1, 2)))
        flags = v.classification
        assert not flags.monotone

    def test_one_intersection_failure_detected(self):
        # t({a}) = t({b}) = 1 but t({a} n {b}) = t(empty) = 0
        sigma = sigma_powerset(make_space(["a", "b"]))
        v = SetFunction(sigma, (F(0), F(1), F(1), F(1)))
        assert not v.classification.one_intersection

    def test_prior_as_set_function_has_all_flags(self, prior3):
        flags = prior3.to_set_function().classification
        assert (
            flags.normalized
            and flags.monotone
            and flags.additive
            and flags.convex
            and flags.one_intersection
        )

    def test_flags_match_naive_quantification(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        universe = frozenset(["a", "b"])
        grid = [F(0), F(1, 2), F(1)]
        for v0 in grid:
            for v1 in grid:
                for v2 in grid:
                    for v3 in grid:
                        sf = SetFunction(sigma, (v0, v1, v2, v3))
                        table = {members(e): sf.value(e) for e in sigma.events()}
                        flags = sf.classification
                        assert naive_classify(table, universe) == (
                            flags.normalized,
                            flags.monotone,
                            flags.additive,
                            flags.convex,
                            flags.one_intersection,
                        )

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_local_checks_match_naive_quantification(self, data):
        sigma = data.draw(algebras())
        sf = data.draw(tables(sigma))
        table = {members(e): sf.value(e) for e in sigma.events()}
        expected = naive_classify(table, frozenset(sigma.space.states))
        assert (sf.normalized, sf.monotone, sf.additive, sf.convex, sf.one_intersection) == expected
        flags = SetFunction(sigma, sf.table).classification
        assert (
            flags.normalized,
            flags.monotone,
            flags.additive,
            flags.convex,
            flags.one_intersection,
        ) == expected


class TestOrderSets:
    def test_shared_type_makes_everything_indistinguishable(self, sigma3, prior3):
        types = type_mapping_constant(sigma3, prior3.to_set_function())
        for s in sigma3.space.states:
            assert members(up_set(types, s)) == {"1", "2", "3"}
            assert members(down_set(types, s)) == {"1", "2", "3"}
            assert members(bracket(types, s)) == {"1", "2", "3"}

    def test_capacity_model_order_sets(self):
        model = two_state_capacity()
        t = model.types
        assert members(up_set(t, "a")) == {"a", "b"}
        assert members(up_set(t, "b")) == {"b"}
        assert members(down_set(t, "a")) == {"a"}
        assert members(bracket(t, "a")) == {"a"}
        assert members(bracket(t, "b")) == {"b"}

    def test_additive_types_collapse_the_order(self):
        model = three_state_partition()
        for s in model.space.states:
            up = members(up_set(model.types, s))
            assert up == members(down_set(model.types, s))
            assert up == members(bracket(model.types, s))

    def test_order_sets_match_naive_oracle(self):
        for model in (three_state_partition(), two_state_capacity()):
            for s in model.space.states:
                assert members(up_set(model.types, s)) == naive_up(model, s)
                assert members(down_set(model.types, s)) == naive_down(model, s)
                assert members(bracket(model.types, s)) == naive_bracket(model, s)

    def test_brackets_partition_the_space(self):
        for model in (three_state_partition(), two_state_capacity()):
            seen = set()
            for s in model.space.states:
                cell = members(bracket(model.types, s))
                assert s in cell
                for other in model.space.states:
                    other_cell = members(bracket(model.types, other))
                    assert other_cell == cell or not (other_cell & cell)
                seen |= cell
            assert seen == set(model.space.states)


class TestTypeMeasurability:
    def test_powerset_always_passes_atom_constancy(self, sigma3, prior3):
        types = type_mapping_constant(sigma3, prior3.to_set_function())
        assert type_measurability_check(types).passed

    def test_type_varying_inside_an_atom_fails_with_witness(self):
        sigma = sigma_from_atoms(make_space(["1", "2"]), [["1", "2"]])
        t1 = SetFunction(sigma, (F(0), F(1)))
        t2 = SetFunction(sigma, (F(0), F(1, 2)))
        types = TypeMapping.__new__(TypeMapping)
        object.__setattr__(types, "sigma", sigma)
        object.__setattr__(types, "per_state", (t1, t2))
        report = type_measurability_check(types)
        assert not report.passed
        assert report.witnesses

    def test_capacity_fixture_passes(self):
        assert type_measurability_check(two_state_capacity().types).passed


class TestConstructors:
    def test_atom_weights_expand_additively(self, sigma3):
        sf = set_function_from_atom_weights(sigma3, (F(1, 2), F(1, 4), F(1, 4)))
        assert sf.value(sigma3.event(["2", "3"])) == F(1, 2)
        assert sf.classification.additive

    def test_values_constructor_requires_total_table(self, sigma3):
        with pytest.raises(IncompleteCapacity):
            set_function_from_values(sigma3, {sigma3.full_event: F(1)})

    def test_dirac_is_the_indicator_of_membership(self, sigma3):
        sf = dirac_type(sigma3, "2")
        for e in sigma3.events():
            assert sf.value(e) == (1 if "2" in e else 0)
