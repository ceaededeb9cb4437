"""Priors, set functions, classification flags, and the dominance order sets."""

import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import emck.modelgen as mg
from emck import (
    ConditioningOnNull,
    GenParams,
    EpistemicModel,
    IncompleteCapacity,
    NotMeasurable,
    PossibilityCorrespondence,
    Prior,
    PriorNotNormalized,
    RationalOutOfRange,
    SetFunction,
    TypeMapping,
    bayes_type_from_poss,
    bracket,
    dirac_type,
    down_set,
    make_space,
    set_function_from_atom_weights,
    sigma_from_atoms,
    sigma_powerset,
    type_mapping_constant,
    up_set,
)
from emck.beliefs import _subset_sums, _type_measurability_violation, conditional, expectation
from emck.fixtures import three_state_partition, two_state_capacity

from helpers import flags, members, naive_bracket, naive_classify, naive_down, naive_up, type_table


VALUES = st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)])


@st.composite
def algebras(draw, max_atoms=3):
    """1 to ``max_atoms`` atoms: the powerset, or a coarse algebra whose
    last state shares an atom with an earlier one."""
    k = draw(st.integers(1, max_atoms))
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
        assert prior3.measure_of(sigma3.event(["2", "3"])) == F(1, 2)

    def test_full_space_has_measure_one(self, sigma3, prior3):
        assert prior3.measure_of(sigma3.full_event) == 1

    def test_empty_set_has_measure_zero(self, sigma3, prior3):
        assert prior3.measure_of(sigma3.empty_event) == 0

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
        d, ints = prior3.int_weights
        for e in sigma3.events():
            total = sum(
                (F(n, d) for n, atom in zip(ints, sigma3.atoms) if atom & e.mask),
                F(0),
            )
            assert prior3.measure_of(e) == total


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
            assert expectation(prior3, indicator) == prior3.measure_of(e)


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
        assert flags(dirac_type(sigma, "a")) == (True,) * 5

    def test_pure_capacity_is_not_additive(self):
        # v(empty) = v({a}) = v({b}) = 0 and v(Omega) = 1: the union {a} u {b}
        # carries mass that neither part does.
        sigma = sigma_powerset(make_space(["a", "b"]))
        v = SetFunction(sigma, (F(0), F(0), F(0), F(1)))
        assert flags(v) == (True, True, False, True, True)

    def test_positive_mass_on_empty_set_is_not_normalized(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        v = SetFunction(sigma, (F(1, 2), F(1, 2), F(1, 2), F(1)))
        assert not v.normalized

    def test_non_monotone_table_detected(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        v = SetFunction(sigma, (F(0), F(1), F(0), F(1, 2)))
        assert not v.monotone

    def test_one_intersection_failure_detected(self):
        # t({a}) = t({b}) = 1 but t({a} n {b}) = t(empty) = 0
        sigma = sigma_powerset(make_space(["a", "b"]))
        v = SetFunction(sigma, (F(0), F(1), F(1), F(1)))
        assert not v.one_intersection

    def test_prior_as_set_function_has_all_flags(self, prior3):
        assert flags(prior3.to_set_function()) == (True,) * 5

    @staticmethod
    def _assert_naive_flags(sf: SetFunction, seen: set) -> None:
        """The five flags of ``sf`` are their naive quantifications
        (``monotone`` and ``additive`` loop over the algebra's index
        tables); each (flag, verdict) met is added to ``seen``."""
        table = {members(e): sf.value(e) for e in sf.sigma.events()}
        got = flags(sf)
        assert got == naive_classify(table, frozenset(sf.sigma.space.states)), sf
        seen.update(enumerate(got))

    def test_flags_match_naive_quantification(self):
        """Every table on the 1/2 grid, v(empty) > 0 and unnormalized ones
        included, of every algebra of the n <= 2 families."""
        seen = set()
        tables = 0
        for sigma_mode in mg.SIGMA_MODES:
            for n in (1, 2):
                params = GenParams(
                    n_states=n, weight_denominator=2, sigma_mode=sigma_mode,
                    type_mode="random-capacity",
                )
                for sigma in mg._sigmas(params, mg._space_for(n)):
                    for sf in mg._capacity_grid(sigma, params):
                        self._assert_naive_flags(sf, seen)
                        tables += 1
        # n=1: 9 tables; n=2: 81 on the powerset and 9 on the coarse algebra
        assert tables == 9 + 81 + 9 + 9 + 81
        assert len(seen) == 10

    @pytest.mark.parametrize("n", [3, 4])
    def test_flags_match_naive_quantification_on_random_partition_algebras(self, n):
        """Random tables on random partition algebras: arbitrary ones, most
        unnormalized or with v(empty) > 0, and additive and monotone ones,
        so that each flag is met holding and failing."""
        rng = random.Random(n)
        params = GenParams(n_states=n, sigma_mode="random-partition")
        seen = set()
        for _ in range(300):
            sigma = mg._random_sigma(params, rng)
            n_events = 1 << sigma.n_atoms
            d = rng.randrange(1, 7)
            values = [rng.randrange(d + 1) for _ in range(n_events)]
            weights = [rng.randrange(d + 1) for _ in range(sigma.n_atoms)]
            while sum(weights) > d:
                weights[rng.randrange(sigma.n_atoms)] //= 2
            by_size = mg._by_size(n_events)
            ranked = sorted(values)
            monotone = [0] * n_events
            for rank, combo in enumerate(by_size):
                monotone[combo] = ranked[rank]
            for ints in (values, _subset_sums(tuple(weights)), monotone):
                self._assert_naive_flags(SetFunction.from_ints(sigma, d, ints), seen)
        assert len(seen) == 10

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_local_checks_match_naive_quantification(self, data):
        sigma = data.draw(algebras())
        sf = data.draw(tables(sigma))
        table = {members(e): sf.value(e) for e in sigma.events()}
        expected = naive_classify(table, frozenset(sigma.space.states))
        assert flags(sf) == expected
        assert flags(SetFunction(sigma, [sf.value(e) for e in sigma.events()])) == expected


    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_integer_additivity_matches_the_fraction_subset_sums(self, data):
        """Singleton values over coprime denominators, their subset sums, and
        one entry (the empty event included) redrawn or not: the flag,
        decided on the integer table, equals the comparison with the
        ``Fraction`` subset sums of the singleton values."""
        k = data.draw(st.integers(1, 4))
        sigma = sigma_powerset(make_space([str(i) for i in range(k)]))
        denominators = st.sampled_from((1, 2, 3, 5, 7, 11, 13))

        def fraction() -> F:
            q = data.draw(denominators)
            return F(data.draw(st.integers(0, q)), q)

        weights = [fraction() for _ in range(k)]
        total = sum(weights)
        if total > 1:
            weights = [w / total for w in weights]
        table = list(_subset_sums(tuple(weights)))
        if data.draw(st.booleans()):
            table[data.draw(st.integers(0, len(table) - 1))] = fraction()
        sf = SetFunction(sigma, tuple(table))
        values = tuple(sf.value(e) for e in sigma.events())
        singletons = tuple(values[1 << j] for j in range(k))
        assert sf.additive == (values == _subset_sums(singletons))
        d, ints = sf.int_table
        assert _subset_sums(tuple(ints[1 << j] for j in range(k))) == tuple(
            F(v) * d for v in _subset_sums(singletons)
        )


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
        assert _type_measurability_violation(types) is None

    def test_type_varying_inside_an_atom_fails_with_witness(self):
        sigma = sigma_from_atoms(make_space(["1", "2"]), [["1", "2"]])
        t1 = SetFunction(sigma, (F(0), F(1)))
        t2 = SetFunction(sigma, (F(0), F(1, 2)))
        types = TypeMapping(sigma, (t1, t2))
        assert _type_measurability_violation(types) == (0, "t(., E) not constant on atom")
        poss = PossibilityCorrespondence(sigma, (0b11, 0b11))
        message = r"type mapping not measurable: t\(\., E\) not constant on atom at 1"
        with pytest.raises(NotMeasurable, match=message):
            EpistemicModel(sigma, Prior(sigma, (F(1),)), poss, types)

    def test_capacity_fixture_passes(self):
        assert _type_measurability_violation(two_state_capacity().types) is None


class TestConstructors:
    def test_atom_weights_expand_additively(self, sigma3):
        sf = set_function_from_atom_weights(sigma3, (F(1, 2), F(1, 4), F(1, 4)))
        assert sf.value(sigma3.event(["2", "3"])) == F(1, 2)
        assert sf.additive

    def test_dirac_is_the_indicator_of_membership(self, sigma3):
        sf = dirac_type(sigma3, "2")
        for e in sigma3.events():
            assert sf.value(e) == (1 if "2" in e else 0)


# denominators of the drawn values: pairwise coprime, so least common
# denominators grow as products
DENOMINATORS = st.sampled_from((1, 2, 3, 5, 7, 11, 13))


@st.composite
def fractions(draw, low=0):
    """n / q for q in ``DENOMINATORS`` and low * q <= n <= q."""
    q = draw(DENOMINATORS)
    return F(draw(st.integers(low * q, q)), q)


@st.composite
def fraction_tables(draw, n_atoms):
    """One value per event: arbitrary, ascending in canonical order (so
    monotone), the subset sums of atom weights (additive), or mostly ones;
    then one entry redrawn or not."""
    n = 1 << n_atoms
    shape = draw(st.sampled_from(("any", "ascending", "additive", "ones")))
    if shape == "additive":
        weights = [draw(fractions()) for _ in range(n_atoms)]
        total = sum(weights)
        if total > 1:
            weights = [w / total for w in weights]
        values = list(_subset_sums(tuple(weights)))
    elif shape == "ones":
        mostly_ones = st.sampled_from([F(0), F(1, 2), F(1), F(1), F(1)])
        values = draw(st.lists(mostly_ones, min_size=n, max_size=n))
    else:
        values = [draw(fractions()) for _ in range(n)]
        if shape == "ascending":
            values.sort()
    if draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = draw(fractions())
    return tuple(values)


@st.composite
def priors_weights(draw, n_atoms):
    """Atom weights summing to 1, zeros allowed."""
    weights = [draw(fractions()) for _ in range(n_atoms)]
    total = sum(weights)
    if total == 0:
        return (F(1),) + (F(0),) * (n_atoms - 1)
    return tuple(w / total for w in weights)


@st.composite
def scaled(draw, values):
    """(d, ints) with ints[i] / d = values[i], d the least common
    denominator times 1, 2, 3 or 6, so not always in lowest terms."""
    d = lcm(*(v.denominator for v in values)) * draw(st.sampled_from((1, 2, 3, 6)))
    return d, tuple((v * d).numerator for v in values)


def _lcd_form(values):
    """Today's integer form of ``Fraction`` values: (D, values times D), D
    their least common denominator."""
    d = lcm(*(v.denominator for v in values))
    return d, tuple((v * d).numerator for v in values)


def _naive_measure(weights, sigma, mask):
    return sum((w for w, atom in zip(weights, sigma.atoms) if atom & mask), F(0))


def _raised(build):
    """(error class, message) that ``build()`` raises."""
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


class TestIntegerConstruction:
    """``from_ints`` and the ``Fraction`` constructors build the same objects,
    decide the same flags and refuse the same inputs with the same errors."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_set_function_from_ints_is_the_fraction_constructors(self, data):
        sigma = data.draw(algebras(max_atoms=4))
        values = data.draw(fraction_tables(sigma.n_atoms))
        d, ints = data.draw(scaled(values))
        by_ints = SetFunction.from_ints(sigma, d, ints)
        by_fractions = SetFunction(sigma, values)
        assert by_ints == by_fractions
        assert hash(by_ints) == hash(by_fractions)
        assert by_ints.int_table == by_fractions.int_table == _lcd_form(values)
        table = {members(e): values[c] for c, e in enumerate(sigma.events())}
        expected = naive_classify(table, frozenset(sigma.space.states))
        for sf in (by_ints, by_fractions):
            assert flags(sf) == expected
            assert tuple(sf.value(e) for e in sigma.events()) == values
        other = list(values)
        other[data.draw(st.integers(0, len(values) - 1))] += F(1, 17)
        if max(other) <= 1:
            assert SetFunction(sigma, other) != by_ints

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_prior_from_ints_is_the_fraction_constructors(self, data):
        sigma = data.draw(algebras(max_atoms=4))
        weights = data.draw(priors_weights(sigma.n_atoms))
        d, ints = data.draw(scaled(weights))
        by_ints = Prior.from_ints(sigma, d, ints)
        by_fractions = Prior(sigma, weights)
        assert by_ints == by_fractions
        assert hash(by_ints) == hash(by_fractions)
        combo = tuple(_naive_measure(weights, sigma, mask) for mask in sigma.event_masks)
        for prior in (by_ints, by_fractions):
            assert tuple(prior.measure_mask(atom) for atom in sigma.atoms) == weights
            assert tuple(prior.measure_of(e) for e in sigma.events()) == combo
            assert prior.int_weights == _lcd_form(weights)
            assert prior.int_table == _lcd_form(combo)
            assert prior.to_set_function() == SetFunction(sigma, combo)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_bad_table_raises_the_same_error_on_both_paths(self, data):
        sigma = data.draw(algebras(max_atoms=4))
        values = list(data.draw(fraction_tables(sigma.n_atoms)))
        n = len(values)
        if data.draw(st.booleans()):
            for _ in range(data.draw(st.integers(1, 2))):
                bad = data.draw(fractions(low=-1).filter(lambda v: v < 0)) if data.draw(
                    st.booleans()
                ) else 1 + data.draw(fractions().filter(lambda v: v > 0))
                values[data.draw(st.integers(0, n - 1))] = bad
            first = next(v for v in values if v < 0 or v > 1)
            expected = RationalOutOfRange, f"set-function value {first} outside [0, 1]"
        else:
            values = values[:-1] if data.draw(st.booleans()) else values + [F(0)]
            expected = IncompleteCapacity, f"expected {n} event values, got {len(values)}"
        d, ints = data.draw(scaled(values))
        assert _raised(lambda: SetFunction(sigma, values)) == expected
        assert _raised(lambda: SetFunction.from_ints(sigma, d, ints)) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_bad_prior_raises_the_same_error_on_both_paths(self, data):
        sigma = data.draw(algebras(max_atoms=4))
        weights = list(data.draw(priors_weights(sigma.n_atoms)))
        k = len(weights)
        change = data.draw(st.sampled_from(("length", "negative", "sum")))
        if change == "length":
            weights = weights[:-1] if data.draw(st.booleans()) else weights + [F(0)]
            expected = f"expected {k} atom weights, got {len(weights)}"
        elif change == "negative":
            weights[data.draw(st.integers(0, k - 1))] = -data.draw(fractions().filter(bool))
            expected = "prior weights must be nonnegative"
        else:
            weights[data.draw(st.integers(0, k - 1))] += data.draw(fractions(low=-1).filter(bool))
            if min(weights) < 0 or sum(weights) == 1:
                return
            expected = f"prior weights sum to {sum(weights)}, not 1"
        d, ints = data.draw(scaled(weights))
        assert _raised(lambda: Prior(sigma, weights)) == (PriorNotNormalized, expected)
        assert _raised(lambda: Prior.from_ints(sigma, d, ints)) == (PriorNotNormalized, expected)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_the_bayes_type_is_the_fraction_quotient(self, data):
        """t(omega, E) = mu(E & C) / mu(C) for the cell C of omega, each
        value a ``Fraction`` quotient of naive atom sums; a null cell is
        refused."""
        sigma = data.draw(algebras(max_atoms=4))
        weights = data.draw(priors_weights(sigma.n_atoms))
        prior = Prior(sigma, weights)
        n_combos = 1 << sigma.n_atoms
        per_atom = [
            sigma.event_masks[data.draw(st.integers(1, n_combos - 1))] for _ in sigma.atoms
        ]
        cells = tuple(per_atom[j] for j in sigma.atom_index_of_state)
        poss = PossibilityCorrespondence(sigma, cells)
        if any(_naive_measure(weights, sigma, cell) == 0 for cell in cells):
            with pytest.raises(ConditioningOnNull):
                bayes_type_from_poss(sigma, prior, poss)
            return
        types = bayes_type_from_poss(sigma, prior, poss)
        for sf, cell in zip(types.per_state, cells):
            mc = _naive_measure(weights, sigma, cell)
            expected = tuple(
                _naive_measure(weights, sigma, mask & cell) / mc for mask in sigma.event_masks
            )
            assert tuple(sf.value(e) for e in sigma.events()) == expected
            assert sf == SetFunction(sigma, expected)
