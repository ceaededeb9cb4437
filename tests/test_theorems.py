"""Two-sided verification of the characterization results and the canonical
constructors between correspondences and type mappings."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from emck import axioms, theorems
from emck import (
    AlgebraMismatch,
    AssumptionViolated,
    ConditioningOnNull,
    EpistemicModel,
    Event,
    GenParams,
    HypothesisNotMet,
    PossibilityCorrespondence,
    Prior,
    SetFunction,
    TypeMapping,
    bayes_type_from_poss,
    bracket,
    dirac_type,
    enumerate_models,
    format_rational,
    is_regular,
    make_space,
    parse_model,
    poss_from_partition,
    poss_from_type,
    random_interactive_model,
    random_model,
    search_counterexample,
    serialize_model,
    set_function_from_atom_weights,
    sigma_from_atoms,
    sigma_powerset,
    type_mapping_constant,
    uniform_prior,
    verify_cor_main,
    verify_cor_regular,
    verify_cor_ta,
    verify_cor_unaware,
    verify_cor_unique_type,
    verify_prop1,
    verify_prop2,
    verify_theorem_main,
    verify_theorem_main_product,
)
from emck.fixtures import (
    as_interactive,
    null_state_slack,
    three_state_partition,
    two_state_capacity,
)
from emck.modelgen import satisfies_require

from helpers import members, w4_partition_poss


def perturbed_w1() -> EpistemicModel:
    base = three_state_partition()
    types = TypeMapping(
        base.sigma,
        (dirac_type(base.sigma, "2"), base.types.per_state[1], base.types.per_state[2]),
    )
    return EpistemicModel(base.sigma, base.prior, base.poss, types)


def null_cell_model() -> EpistemicModel:
    """mu = (1, 0) with P(b) = {b} a null cell; types are point mass at a."""
    sigma = sigma_powerset(make_space(["a", "b"]))
    prior = Prior(sigma, (F(1), F(0)))
    poss = PossibilityCorrespondence(sigma, (0b01, 0b10))
    types = type_mapping_constant(sigma, dirac_type(sigma, "a"))
    return EpistemicModel(sigma, prior, poss, types)


class TestTheoremMain:
    def test_partition_model_equivalent_true(self):
        report = verify_theorem_main(three_state_partition())
        assert (report.lhs, report.rhs, report.equivalent) == (True, True, True)
        assert report.status == "verified"

    def test_null_state_model_true_with_strict_slack(self):
        model = null_state_slack()
        report = verify_theorem_main(model)
        assert (report.lhs, report.rhs, report.equivalent) == (True, True, True)
        # the almost-sure reverse containment is strict here
        br = bracket(model.types, "a")
        cell = model.poss.cell("a")
        assert cell.is_subset(br) and not br.is_subset(cell)
        assert model.prior.measure_of(br.difference(cell)) == 0

    def test_perturbed_model_false_on_both_sides(self):
        report = verify_theorem_main(perturbed_w1())
        assert (report.lhs, report.rhs, report.equivalent) == (False, False, True)
        assert report.status == "verified"

    def test_null_cells_need_the_product_form(self):
        with pytest.raises(AssumptionViolated):
            verify_theorem_main(null_cell_model())


    ADDITIVE = GenParams(
        n_states=3, weight_denominator=1, type_mode="random-additive",
        poss_mode="arbitrary-nonempty",
    )

    def _positive_models(self, count: int) -> list[EpistemicModel]:
        """``count`` models with positive cells, spread over the n=3
        additive arbitrary-cell family on 1/1 weights."""
        spread = islice(enumerate_models(self.ADDITIVE), 0, None, 97)
        models = list(islice((m for m in spread if not m.has_null_cells), count))
        assert len(models) == count
        return models

    def test_each_kernel_runs_once_per_report(self, monkeypatch):
        """The sides and their summary note read one set of hits, and a
        verified report builds no condition report: each kernel of either
        side runs once per ``verify_theorem_main``."""
        models = self._positive_models(50)
        calls = Counter()

        def counted(module, name):
            kernel = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("_invariance_violation", "_types_probability_violation", "_certainty_mask"):
            counted(axioms, name)
        for name in ("_almost_reverse_mask", "_product_mask"):
            counted(theorems, name)
        reports = [verify_theorem_main(m) for m in models]
        assert {r.status for r in reports} == {"verified"}
        assert calls == Counter(dict.fromkeys(calls, len(models))), calls
        assert len(calls) == 5

    def test_a_verified_report_builds_no_condition_report(self, monkeypatch):
        models = [three_state_partition(), null_state_slack(), *self._positive_models(5)]
        expected = [verify_theorem_main(m).to_dict() for m in models]

        def no_report(*args):
            raise AssertionError("condition report built")

        monkeypatch.setattr(theorems, "is_regular", no_report)
        monkeypatch.setattr(theorems, "_condition_reports", no_report)
        assert [verify_theorem_main(m).to_dict() for m in models] == expected

    def test_a_falsified_report_carries_the_witness_trail(self, monkeypatch):
        """Where the sides disagree, the report's witnesses are those of
        every regularity check and of every condition, in that order.  With
        condition (iii) read without its measure, the null slack of this
        regular model fails it."""

        def any_slack(prior, types, cells):
            brackets = types.order_masks[2]
            return sum(1 << i for i, cell in enumerate(cells) if brackets[i] & ~cell)

        monkeypatch.setattr(theorems, "_almost_reverse_mask", any_slack)
        model = null_state_slack()
        report = verify_theorem_main(model)
        assert (report.lhs, report.rhs, report.status) == (True, False, "falsified")
        conditions = theorems._condition_reports(model, False)
        assert report.witnesses == theorems._trail(is_regular(model), *conditions)
        assert report.witnesses == conditions[2].witnesses != ()

    def test_a_status_sweep_searches_no_witness_event(self, monkeypatch):
        """theorem-main's status reads the product identity from its mask
        alone: a model-by-model search (a ``require`` filter turns the
        block count off) meets models where the identity fails, and never
        asks ``_product_misses`` for the first failing event."""
        calls = Counter()
        product_mask, product_misses = theorems._product_mask, theorems._product_misses

        def counted_mask(*args):
            mask = product_mask(*args)
            calls["mask fails"] += mask != 0
            return mask

        def counted_misses(*args):
            calls["_product_misses"] += 1
            return product_misses(*args)

        monkeypatch.setattr(theorems, "_product_mask", counted_mask)
        monkeypatch.setattr(theorems, "_product_misses", counted_misses)
        result = search_counterexample(
            "theorem-main", replace(self.ADDITIVE, require=("monotone-types",))
        )
        assert not result.found and result.models_checked > 0
        assert calls["mask fails"] > 0
        assert calls["_product_misses"] == 0


class TestTheoremMainProduct:
    def test_fixtures_pass(self):
        for model in (three_state_partition(), null_state_slack()):
            report = verify_theorem_main_product(model)
            assert report.status != "falsified"

    def test_product_form_trivial_on_null_cells(self):
        # mu(E n P(b)) = 0 = mu(P(b)) * t(b, E) for every E, so the product
        # identity holds at the null-cell state regardless of the type there.
        report = verify_theorem_main_product(null_cell_model())
        assert any("product-identity=true" in note for note in report.notes)
        assert report.status != "falsified"

    def test_equivalence_only_asserted_with_positive_cells(self):
        report = verify_theorem_main_product(null_cell_model())
        assert report.equivalent is None


class TestBayesTypeFromPoss:
    def test_partition_conditionals(self):
        model = three_state_partition()
        types = bayes_type_from_poss(model.sigma, model.prior, model.poss)
        assert types.value("2", model.event(["2"])) == F(1, 2)
        assert types.value("1", model.event(["1"])) == 1
        assert types.per_state == model.types.per_state

    def test_conditioning_on_everything_returns_the_prior(self):
        sigma = sigma_powerset(make_space(["1", "2"]))
        prior = Prior(sigma, (F(1, 3), F(2, 3)))
        poss = PossibilityCorrespondence(sigma, (0b11, 0b11))
        types = bayes_type_from_poss(sigma, prior, poss)
        for s in sigma.space.states:
            for e in sigma.events():
                assert types.value(s, e) == prior.measure_of(e)

    def test_the_prior_keeps_one_conditional_per_cell(self):
        """Each mu(. | C) is built once per (prior, C): two correspondences
        of one prior, and the two agents of a Bayes draw, share the object
        of every cell they share."""
        model = three_state_partition()
        prior = Prior.from_ints(model.sigma, *model.prior.int_weights)
        coarse = PossibilityCorrespondence(model.sigma, (0b001, 0b110, 0b110))
        total = PossibilityCorrespondence(model.sigma, (0b111, 0b110, 0b111))
        a = bayes_type_from_poss(model.sigma, prior, coarse)
        b = bayes_type_from_poss(model.sigma, prior, total)
        assert a.per_state[1] is b.per_state[1] is prior.conditionals[0b110]
        assert b.per_state[0] is b.per_state[2] is prior.conditionals[0b111]
        assert set(prior.conditionals) == {0b001, 0b110, 0b111}
        params = GenParams(
            n_states=3, weight_denominator=6, n_agents=2, type_mode="bayes",
            full_support=True,
        )
        shared = 0
        for seed in range(20):
            imodel = random_interactive_model(params, seed)
            (p1, p2), (t1, t2) = imodel.posses, imodel.types
            for i, (c1, c2) in enumerate(zip(p1.cells, p2.cells)):
                if c1 == c2:
                    assert t1.per_state[i] is t2.per_state[i]
                    shared += 1
        assert shared > 0

    def test_null_cell_rejected(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        prior = Prior(sigma, (F(1), F(0)))
        poss = PossibilityCorrespondence(sigma, (0b01, 0b10))
        with pytest.raises(ConditioningOnNull):
            bayes_type_from_poss(sigma, prior, poss)


class TestPossFromType:
    def test_recovers_the_partition(self):
        model = three_state_partition()
        rec = poss_from_type(model.sigma, model.prior, model.types)
        assert rec.cells == model.poss.cells

    def test_constant_types_give_total_ignorance(self):
        sigma = sigma_powerset(make_space(["1", "2"]))
        prior = uniform_prior(sigma)
        types = type_mapping_constant(sigma, prior.to_set_function())
        rec = poss_from_type(sigma, prior, types)
        assert rec.cells == (0b11, 0b11)

    def test_null_state_types_merge_the_cells(self):
        model = null_state_slack()
        rec = poss_from_type(model.sigma, model.prior, model.types)
        assert rec.cells == (0b11, 0b11)
        assert rec.cells != model.poss.cells  # differs only on where mu is null

    def test_output_is_always_a_partition(self):
        for model in (three_state_partition(), null_state_slack(), two_state_capacity()):
            rec = poss_from_type(model.sigma, model.prior, model.types)
            assert rec.is_partition


class TestUniqueType:
    def test_identical_models_agree(self):
        assert verify_cor_unique_type(three_state_partition(), three_state_partition())

    def test_non_regular_comparand_is_a_hypothesis_failure(self):
        with pytest.raises(HypothesisNotMet):
            verify_cor_unique_type(three_state_partition(), perturbed_w1())

    def test_a_hypothesis_failure_is_an_assumption_violation(self):
        # so the CLI (exit 4) and the search (a skip) catch one class
        assert issubclass(HypothesisNotMet, AssumptionViolated)

    def test_shared_types_allow_null_disagreement_of_poss(self):
        w2 = null_state_slack()
        widened = EpistemicModel(
            w2.sigma,
            w2.prior,
            PossibilityCorrespondence(w2.sigma, (0b11, 0b11)),
            w2.types,
        )
        assert is_regular(widened).passed
        assert w2.poss.cells != widened.poss.cells
        assert verify_cor_unique_type(w2, widened)

    def test_models_over_other_states_are_refused(self):
        w1 = three_state_partition()
        sigma = sigma_powerset(make_space(["a", "b", "c"]))
        renamed = EpistemicModel(
            sigma,
            Prior.from_ints(sigma, *w1.prior.int_weights),
            PossibilityCorrespondence(sigma, w1.poss.cells),
            TypeMapping(
                sigma,
                tuple(SetFunction.from_ints(sigma, *sf.int_table) for sf in w1.types.per_state),
            ),
        )
        with pytest.raises(AlgebraMismatch, match="^models have different algebras$"):
            verify_cor_unique_type(w1, renamed)

    def test_models_over_other_atoms_are_refused(self):
        w1 = three_state_partition()
        sigma = sigma_from_atoms(w1.space, [["1"], ["2", "3"]])
        prior = Prior(sigma, (F(1, 2), F(1, 2)))
        poss = poss_from_partition(sigma, [["1"], ["2", "3"]])
        coarse = EpistemicModel(sigma, prior, poss, bayes_type_from_poss(sigma, prior, poss))
        with pytest.raises(AlgebraMismatch, match="^models have different algebras$"):
            verify_cor_unique_type(w1, coarse)

    def test_models_with_other_priors_are_refused(self):
        w1 = three_state_partition()
        other = EpistemicModel(w1.sigma, uniform_prior(w1.sigma), w1.poss, w1.types)
        with pytest.raises(AlgebraMismatch, match="^models have different priors$"):
            verify_cor_unique_type(w1, other)


class TestProductIdentityKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_integer_kernel_finds_the_fraction_products_first_miss(self, data):
        """Prior weights and type values over coprime denominators and any
        cells, null ones included; each state's type is its Bayes
        conditional, that conditional with one value redrawn, or an
        arbitrary table.  The equality kernel ``_product_mask`` agrees with
        the per-event misses."""
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
            shape = data.draw(st.sampled_from(("bayes", "redrawn", "arbitrary")))
            if mu_cell and shape != "arbitrary":
                table = [prior.measure_mask(mask & cell) / mu_cell for mask in sigma.event_masks]
                if shape == "redrawn":
                    table[data.draw(st.integers(0, len(table) - 1))] = fraction()
            else:
                table = [fraction() for _ in sigma.event_masks]
            per_state.append(SetFunction(sigma, tuple(table)))
        model = EpistemicModel(sigma, prior, poss, TypeMapping(sigma, tuple(per_state)))
        first_miss = next(
            (
                (combo, i)
                for i, state in enumerate(states)
                for combo, event in enumerate(sigma.events())
                if model.t(state, event) * prior.measure_of(poss.cell(state))
                != prior.measure_of(event.intersect(poss.cell(state)))
            ),
            None,
        )
        assert next(theorems._product_misses(prior, model.types, poss.cells), None) == first_miss
        # the equality kernel fails exactly at the states that miss somewhere
        misses = 0
        for _, i in theorems._product_misses(prior, model.types, poss.cells):
            misses |= 1 << i
        assert theorems._product_mask(prior, model.types, poss.cells) == misses


class TestCorMain:
    def test_partition_model_all_subchecks_pass(self):
        report = verify_cor_main(three_state_partition())
        assert (report.lhs, report.rhs, report.equivalent) == (True, True, True)
        assert all(c.passed for c in report.checks)
        names = [c.name for c in report.checks]
        assert "k-equals-b1" in names
        assert "strong-b1-conjunction" in names
        assert "support-identity" in names

    def test_non_discrete_model_rejected(self):
        with pytest.raises(AssumptionViolated):
            verify_cor_main(null_state_slack())

    def test_widened_cell_false_on_both_sides(self):
        base = three_state_partition()
        poss = PossibilityCorrespondence(base.sigma, (0b111, 0b110, 0b110))
        model = EpistemicModel(base.sigma, base.prior, poss, base.types)
        report = verify_cor_main(model)
        assert (report.lhs, report.rhs) == (False, False)
        assert report.equivalent
        assert not is_regular(model).passed


    def test_regularity_is_decided_without_building_its_report(self, monkeypatch):
        base = three_state_partition()
        poss = PossibilityCorrespondence(base.sigma, (0b111, 0b110, 0b110))
        widened = EpistemicModel(base.sigma, base.prior, poss, base.types)
        models = [base, null_state_slack(), two_state_capacity(), widened]
        expected = [verify_cor_main(m, diagnostic=True).to_dict() for m in models]

        def no_report(model):
            raise AssertionError("is_regular report built")

        monkeypatch.setattr(theorems, "is_regular", no_report)
        assert [verify_cor_main(m, diagnostic=True).to_dict() for m in models] == expected


class TestCorUnaware:
    def test_partition_model_has_no_unawareness(self):
        assert verify_cor_unaware(three_state_partition()).status == "verified"

    def test_null_state_model_diagnostic_witness(self):
        with pytest.raises(AssumptionViolated):
            verify_cor_unaware(null_state_slack())
        report = verify_cor_unaware(null_state_slack(), diagnostic=True)
        assert report.status == "hypothesis-not-met"
        (check,) = report.checks
        assert check.name == "no-unawareness" and not check.passed
        hit = check.witnesses[0]
        assert (hit.event, hit.state) == (("a",), "b")

    def test_single_state_model(self):
        sigma = sigma_powerset(make_space(["w"]))
        prior = uniform_prior(sigma)
        poss = poss_from_partition(sigma, [["w"]])
        types = type_mapping_constant(sigma, prior.to_set_function())
        assert verify_cor_unaware(EpistemicModel(sigma, prior, poss, types)).status == "verified"


class TestCorRegular:
    def test_partition_model_both_sides_true(self):
        report = verify_cor_regular(three_state_partition())
        assert (report.lhs, report.rhs, report.equivalent) == (True, True, True)

    def test_null_state_model_both_sides_false(self):
        # the nested correspondence is not a partition, and P(a) differs from
        # the bracket of a
        report = verify_cor_regular(null_state_slack())
        assert (report.lhs, report.rhs, report.equivalent) == (False, False, True)

    def test_constant_bayes_model_both_sides_true(self):
        sigma = sigma_powerset(make_space(["1", "2"]))
        prior = uniform_prior(sigma)
        poss = PossibilityCorrespondence(sigma, (0b11, 0b11))
        types = type_mapping_constant(sigma, prior.to_set_function())
        report = verify_cor_regular(EpistemicModel(sigma, prior, poss, types))
        assert (report.lhs, report.rhs, report.equivalent) == (True, True, True)

    def test_never_falsified_on_fixtures(self):
        for model in (
            three_state_partition(),
            null_state_slack(),
            perturbed_w1(),
            w4_partition_poss(),
        ):
            report = verify_cor_regular(model)
            assert "falsified" not in {report.status, *(part.status for part in report.parts)}


class TestCorTa:
    def test_partition_model_truth_holds_exactly(self):
        report = verify_cor_ta(three_state_partition())
        assert report.status == "verified"
        assert all(check.passed for check in report.checks)

    def test_null_state_model_truth_holds_almost_surely(self):
        model = null_state_slack()
        report = verify_cor_ta(model)
        assert report.status == "verified"
        assert all(check.passed for check in report.checks)
        # the slack is real: B^1({a}) strictly exceeds {a} on a null state
        from emck import p_belief

        b1 = p_belief(model, F(1), model.event(["a"]))
        assert members(b1) == {"a", "b"}

    def test_non_regular_model_fails_in_diagnostic_mode(self):
        sigma = sigma_powerset(make_space(["1", "2"]))
        prior = uniform_prior(sigma)
        poss = PossibilityCorrespondence(sigma, (0b11, 0b11))
        # each state is certain of the other state
        types = TypeMapping(sigma, (dirac_type(sigma, "2"), dirac_type(sigma, "1")))
        model = EpistemicModel(sigma, prior, poss, types)
        with pytest.raises(AssumptionViolated):
            verify_cor_ta(model)
        report = verify_cor_ta(model, diagnostic=True)
        assert report.status == "hypothesis-not-met"
        assert [(h.name, h.holds) for h in report.hypotheses] == [("regular", False)]
        assert not all(check.passed for check in report.checks)


class TestProp1:
    def test_capacity_fixture_part1_true_part2_false(self):
        report = verify_prop1(two_state_capacity())
        part1, part2 = report.parts
        assert (part1.lhs, part1.rhs, part1.equivalent) == (True, True, True)
        assert (part2.lhs, part2.rhs, part2.equivalent) == (False, False, True)
        assert part2.status != "hypothesis-not-met"
        assert report.status != "falsified"
        # the documented failure points on both sides of part 2
        by_note = {(w.threshold, w.event, w.state) for w in part2.witnesses}
        assert (F(1), ("b",), "a") in by_note
        assert (None, ("a",), "a") in by_note

    def test_partition_model_both_parts_true(self):
        report = verify_prop1(three_state_partition())
        for part in report.parts:
            assert (part.lhs, part.rhs, part.equivalent) == (True, True, True)

    def test_non_monotone_type_blocks_the_hypotheses(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        prior = uniform_prior(sigma)
        poss = PossibilityCorrespondence(sigma, (0b11, 0b11))
        v = SetFunction(sigma, (F(0), F(1), F(0), F(1, 2)))  # not monotone
        types = TypeMapping(sigma, (v, v))
        report = verify_prop1(EpistemicModel(sigma, prior, poss, types))
        assert all(part.status != "falsified" for part in report.parts)
        assert report.status == "hypothesis-not-met"

    def test_p_independence_of_the_correspondence(self):
        # the statement never mentions P: verdicts agree across choices of P
        with_total = verify_prop1(two_state_capacity())
        with_partition = verify_prop1(w4_partition_poss())
        for a, b in zip(with_total.parts, with_partition.parts):
            assert (a.lhs, a.rhs) == (b.lhs, b.rhs)


class TestProp2:
    def test_partition_model_all_four_statements_true(self):
        report = verify_prop2(three_state_partition())
        part1, part2 = report.parts
        assert (part1.lhs, part1.rhs, part1.equivalent) == (True, True, True)
        assert (part2.lhs, part2.rhs, part2.equivalent) == (True, True, True)

    def test_capacity_model_with_total_poss_agrees_false(self):
        report = verify_prop2(two_state_capacity())
        part1 = report.parts[0]
        assert (part1.lhs, part1.rhs, part1.equivalent) == (False, False, True)
        assert report.status != "falsified"

    def test_null_state_model_all_true(self):
        report = verify_prop2(null_state_slack())
        for part in report.parts:
            assert (part.lhs, part.rhs, part.equivalent) == (True, True, True)

    def test_no_hypotheses_needed(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        prior = uniform_prior(sigma)
        poss = PossibilityCorrespondence(sigma, (0b11, 0b11))
        v = SetFunction(sigma, (F(0), F(1), F(0), F(1, 2)))  # not monotone
        types = TypeMapping(sigma, (v, v))
        report = verify_prop2(EpistemicModel(sigma, prior, poss, types))
        assert report.hypotheses == ()
        assert report.status != "falsified"


class TestRoundTrip:
    def test_bayes_types_then_bracket_partition_recovers_poss(self):
        model = three_state_partition()
        types = bayes_type_from_poss(model.sigma, model.prior, model.poss)
        rec = poss_from_type(model.sigma, model.prior, types)
        assert rec.cells == model.poss.cells

    def test_derived_models_are_regular(self):
        sigma = sigma_powerset(make_space(["1", "2", "3", "4"]))
        prior = Prior(sigma, (F(1, 6), F(1, 3), F(1, 6), F(1, 3)))
        poss = poss_from_partition(sigma, [["1", "4"], ["2"], ["3"]])
        types = bayes_type_from_poss(sigma, prior, poss)
        model = EpistemicModel(sigma, prior, poss, types)
        assert is_regular(model).passed
        assert verify_theorem_main(model).status == "verified"


class TestReportNotes:
    """The notes and witnesses print measures from the integer tables; each
    equals the ``Fraction`` sum of ``Prior.measure_of`` over atoms."""

    PARAMS = GenParams(
        n_states=4,
        weight_denominator=4,
        sigma_mode="random-partition",
        type_mode="random-capacity",
        poss_mode="arbitrary-nonempty",
    )

    def test_the_containment_note_is_the_fraction_measure(self):
        """The set is a union of atoms on every model, so its measure is
        the sum over the atoms inside it."""
        for seed in range(60):
            model = random_model(self.PARAMS, seed)
            inside = {
                s
                for s in model.space.states
                if members(bracket(model.types, s)) <= members(model.poss.cell(s))
            }
            atoms = [Event(model.sigma, atom) for atom in model.sigma.atoms]
            assert all(members(a) <= inside or not members(a) & inside for a in atoms)
            measure = sum((model.prior.measure_of(a) for a in atoms if members(a) <= inside), F(0))
            assert theorems._containment_measure_note(model) == (
                f"mu(omega : bracket(omega) subset of P(omega)) = {format_rational(measure)}"
            )

    def test_the_slack_witness_note_is_the_fraction_measure(self):
        failures = 0
        for seed in range(60):
            model = random_model(self.PARAMS, seed)
            report = theorems._condition_reports(model, False)[2]
            for witness in report.witnesses:
                measure = model.prior.measure_of(model.event(witness.event))
                note = f"mu(bracket(omega) minus P(omega)) = {format_rational(measure)}"
                assert witness.note == note
                failures += 1
        assert failures > 0


class TestPreconditionWording:
    """Each verifier's precondition message and its not-regular note, verbatim."""

    def test_cor_main_not_discrete(self):
        with pytest.raises(AssumptionViolated) as exc:
            verify_cor_main(null_state_slack())
        assert str(exc.value) == (
            "model is not discrete (powerset algebra with full-support prior)"
        )

    def test_cor_main_notes_a_discrete_non_regular_model(self):
        base = three_state_partition()
        poss = PossibilityCorrespondence(base.sigma, (0b111, 0b110, 0b110))
        report = verify_cor_main(EpistemicModel(base.sigma, base.prior, poss, base.types))
        assert report.notes == ("conclusions not asserted: model is not regular",)

    def test_cor_unaware_requires_a_discrete_regular_model(self):
        with pytest.raises(AssumptionViolated) as exc:
            verify_cor_unaware(null_state_slack())
        assert str(exc.value) == "requires a discrete regular model"


class TestNullCellModels:
    """A model holds any cells; a mu-null cell is a hypothesis of the claims."""

    def test_the_api_and_the_text_agree_on_a_null_cell_model(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        prior = Prior(sigma, (F(1), F(0)))
        poss = poss_from_partition(sigma, [["a"], ["b"]])
        types = TypeMapping(
            sigma, tuple(set_function_from_atom_weights(sigma, w) for w in ((1, 0), (0, 1)))
        )
        model = EpistemicModel(sigma, prior, poss, types)
        assert model.has_null_cells
        assert parse_model(serialize_model(as_interactive(model))).model == model
        with pytest.raises(AssumptionViolated) as exc:
            verify_theorem_main(model)
        assert str(exc.value) == "mu(P(b)) = 0; use verify_theorem_main_product"
        report = verify_theorem_main_product(model)
        assert (report.lhs, report.rhs, report.status) == (True, True, "verified")


class TestRegularVerdictCache:
    def test_the_verifiers_decide_a_models_regularity_once(self, monkeypatch):
        calls = []
        verdict = axioms._regular_verdict
        monkeypatch.setattr(
            axioms, "_regular_verdict", lambda m: calls.append(m) or verdict(m)
        )
        for params in (
            GenParams(n_states=3, weight_denominator=4, full_support=True),
            GenParams(n_states=3, weight_denominator=2, type_mode="random-additive"),
        ):
            for seed in range(4):
                calls.clear()
                model = random_model(params, seed)
                satisfies_require(model, ("regular",))
                verify_theorem_main_product(model)
                verify_cor_main(model, diagnostic=True)
                verify_cor_unaware(model, diagnostic=True)
                verify_cor_ta(model, diagnostic=True)
                assert [id(m) for m in calls] == [id(model)]
