"""Possibility correspondences and the K / B^p operators."""

from fractions import Fraction as F

import pytest

from emck import reports
from emck import (
    EpistemicModel,
    NotInducible,
    NotMeasurable,
    PossibilityCorrespondence,
    Prior,
    RationalOutOfRange,
    SetFunction,
    TypeMapping,
    dirac_type,
    make_space,
    p_belief,
    poss_from_partition,
    poss_from_operator,
    qualitative_belief,
    sigma_from_atoms,
    sigma_powerset,
    type_mapping_constant,
    uniform_prior,
)
from emck.operators import _poss_measurability_violation
from emck.fixtures import (
    null_state_slack,
    three_state_partition,
    two_state_capacity,
)

from helpers import members, naive_b, naive_k, w4_partition_poss


class TestPossibilityCorrespondence:
    def test_cells_must_be_events(self):
        sigma = sigma_from_atoms(make_space(["1", "2"]), [["1", "2"]])
        with pytest.raises(NotMeasurable):
            PossibilityCorrespondence(sigma, (0b01, 0b11))

    def test_one_cell_per_state(self):
        sigma = sigma_powerset(make_space(["1", "2"]))
        with pytest.raises(Exception):
            PossibilityCorrespondence(sigma, (0b01,))

    def test_partition_detection(self):
        model = three_state_partition()
        assert model.poss.is_partition
        assert not null_state_slack().poss.is_partition

    def test_poss_from_partition_and_cells_agree(self):
        sigma = sigma_powerset(make_space(["1", "2", "3"]))
        a = poss_from_partition(sigma, [["1"], ["2", "3"]])
        b = PossibilityCorrespondence(sigma, (0b001, 0b110, 0b110))
        assert a.cells == b.cells == three_state_partition().poss.cells


class TestModelConstruction:
    def test_null_cell_model_constructs(self):
        sigma = sigma_powerset(make_space(["a", "b"]))
        prior = Prior(sigma, (F(1), F(0)))
        poss = poss_from_partition(sigma, [["a"], ["b"]])
        types = type_mapping_constant(sigma, dirac_type(sigma, "a"))
        model = EpistemicModel(sigma, prior, poss, types)
        assert model.has_null_cells

    def test_nonmeasurable_poss_rejected_on_coarse_algebra(self):
        sigma = sigma_from_atoms(make_space(["1", "2", "3"]), [["1", "2"], ["3"]])
        prior = Prior(sigma, (F(1, 2), F(1, 2)))
        # P(1) = {1,2} but P(2) = Omega: the set where P(.) is inside {1,2}
        # would be {1}, which splits the atom {1,2}.
        poss = PossibilityCorrespondence(sigma, (0b011, 0b111, 0b111))
        types = type_mapping_constant(sigma, prior.to_set_function())
        with pytest.raises(
            NotMeasurable, match=r"possibility correspondence not measurable at event \('1', '2'\)"
        ):
            EpistemicModel(sigma, prior, poss, types)

    def test_a_measurable_coarse_model_builds_no_check_report(self, monkeypatch):
        def no_report(*args, **kwargs):
            raise AssertionError("measurability report built")

        monkeypatch.setattr(reports.CheckReport, "__init__", no_report)
        sigma = sigma_from_atoms(make_space(["1", "2", "3"]), [["1", "2"], ["3"]])
        prior = Prior(sigma, (F(1, 2), F(1, 2)))
        poss = PossibilityCorrespondence(sigma, (0b011, 0b011, 0b100))
        types = type_mapping_constant(sigma, prior.to_set_function())
        model = EpistemicModel(sigma, prior, poss, types)
        assert not model.sigma.is_powerset

    def test_discrete_flag(self):
        assert three_state_partition().is_discrete
        assert not null_state_slack().is_discrete  # null singleton
        sigma = sigma_from_atoms(make_space(["1", "2"]), [["1", "2"]])
        prior = Prior(sigma, (F(1),))
        poss = PossibilityCorrespondence(sigma, (0b11, 0b11))
        types = type_mapping_constant(sigma, prior.to_set_function())
        assert not EpistemicModel(sigma, prior, poss, types).is_discrete


class TestQualitativeBelief:
    def test_necessitation(self):
        model = three_state_partition()
        assert qualitative_belief(model, model.sigma.full_event) == model.sigma.full_event

    def test_partition_model_knowledge(self):
        model = three_state_partition()
        assert members(qualitative_belief(model, model.event(["2", "3"]))) == {"2", "3"}
        assert members(qualitative_belief(model, model.event(["1", "2"]))) == {"1"}

    def test_nested_cell_model_knowledge(self):
        model = null_state_slack()
        assert members(qualitative_belief(model, model.event(["a"]))) == {"a"}

    def test_matches_naive_oracle_on_all_events(self):
        for model in (three_state_partition(), null_state_slack(), two_state_capacity()):
            for e in model.sigma.events():
                assert members(qualitative_belief(model, e)) == naive_k(model, members(e))

    def test_monotone_conjunctive_necessitation(self):
        for model in (three_state_partition(), null_state_slack(), w4_partition_poss()):
            events = model.sigma.events()
            assert qualitative_belief(model, model.sigma.full_event) == model.sigma.full_event
            for e in events:
                ke = qualitative_belief(model, e)
                for f in events:
                    kf = qualitative_belief(model, f)
                    if e.is_subset(f):
                        assert ke.is_subset(kf)
                    assert qualitative_belief(model, e.intersect(f)) == ke.intersect(kf)

    def test_every_state_knows_its_own_cell(self):
        for model in (three_state_partition(), null_state_slack(), two_state_capacity()):
            for s in model.space.states:
                assert s in qualitative_belief(model, model.poss.cell(s))


class TestPBelief:
    def test_zero_threshold_gives_everything(self):
        model = three_state_partition()
        for e in model.sigma.events():
            assert p_belief(model, F(0), e) == model.sigma.full_event

    def test_partition_model_half_belief(self):
        model = three_state_partition()
        assert members(p_belief(model, F(1, 2), model.event(["2"]))) == {"2", "3"}

    def test_capacity_model_certainty(self):
        model = two_state_capacity()
        b1_of_b = p_belief(model, F(1), model.event(["b"]))
        assert members(b1_of_b) == {"b"}
        assert p_belief(model, F(1), b1_of_b.complement()).is_empty()

    def test_threshold_out_of_range_rejected(self):
        model = three_state_partition()
        with pytest.raises(RationalOutOfRange):
            p_belief(model, F(3, 2), model.sigma.full_event)
        with pytest.raises(RationalOutOfRange):
            p_belief(model, F(-1, 2), model.sigma.full_event)

    def test_matches_naive_oracle_on_all_events_and_thresholds(self):
        for model in (three_state_partition(), null_state_slack(), two_state_capacity()):
            for p in model.types.thresholds:
                for e in model.sigma.events():
                    assert members(p_belief(model, p, e)) == naive_b(model, p, e)

    def test_antitone_in_threshold(self):
        for model in (three_state_partition(), two_state_capacity()):
            thresholds = model.types.thresholds
            for e in model.sigma.events():
                for lo, hi in zip(thresholds, thresholds[1:]):
                    assert p_belief(model, hi, e).is_subset(p_belief(model, lo, e))


class TestCriticalThresholds:
    def test_zero_one_types(self):
        model = null_state_slack()
        assert model.types.thresholds == (F(0), F(1))

    def test_partition_model_collects_bayes_values(self):
        assert three_state_partition().types.thresholds == (F(0), F(1, 2), F(1))

    def test_single_state_model(self):
        sigma = sigma_powerset(make_space(["w"]))
        prior = uniform_prior(sigma)
        poss = poss_from_partition(sigma, [["w"]])
        types = type_mapping_constant(sigma, prior.to_set_function())
        model = EpistemicModel(sigma, prior, poss, types)
        assert model.types.thresholds == (F(0), F(1))

    def test_step_function_reduction(self):
        """Between consecutive attained values, B^p equals B at the next
        threshold up; checking thresholds alone therefore decides all p."""
        model = three_state_partition()
        thresholds = model.types.thresholds
        probes = [F(1, 3), F(2, 3), F(99, 100), F(1, 100)]
        for p in probes:
            nxt = min(v for v in thresholds if v >= p)
            for e in model.sigma.events():
                assert p_belief(model, p, e) == p_belief(model, nxt, e)


class TestPossFromOperator:
    def test_identity_operator_yields_atoms(self):
        sigma = sigma_powerset(make_space(["1", "2", "3"]))
        rec = poss_from_operator(sigma, {e: e for e in sigma.events()})
        for i, s in enumerate(sigma.space.states):
            assert rec.cells[i] == sigma.space.mask_of([s])

    def test_recovers_nested_cells(self):
        model = null_state_slack()
        table = {e: qualitative_belief(model, e) for e in model.sigma.events()}
        rec = poss_from_operator(model.sigma, table)
        assert rec.cells == model.poss.cells

    def test_total_ignorance(self):
        sigma = sigma_powerset(make_space(["1", "2"]))
        full = sigma.full_event
        table = {e: (full if e == full else sigma.empty_event) for e in sigma.events()}
        rec = poss_from_operator(sigma, table)
        assert rec.cells == (0b11, 0b11)

    def test_round_trip_through_k(self):
        for model in (three_state_partition(), null_state_slack(), w4_partition_poss()):
            rec = poss_from_operator(
                model.sigma, lambda e, m=model: qualitative_belief(m, e)
            )
            assert rec.cells == model.poss.cells

    def test_non_inducible_operators_rejected(self):
        sigma = sigma_powerset(make_space(["1", "2"]))
        with pytest.raises(NotInducible):
            poss_from_operator(sigma, lambda e: e.complement())  # K(Omega) != Omega
        # monotonicity failure: swap K on the two singletons
        full, empty = sigma.full_event, sigma.empty_event
        e1, e2 = sigma.event(["1"]), sigma.event(["2"])
        with pytest.raises(NotInducible):
            poss_from_operator(sigma, {empty: e1, e1: empty, e2: empty, full: full})
        # conjunction failure: K too large on both singletons
        with pytest.raises(NotInducible):
            poss_from_operator(sigma, {empty: empty, e1: e1, e2: e2, full: full} | {empty: e1})


class TestPossMeasurability:
    def test_powerset_always_passes(self):
        for model in (three_state_partition(), null_state_slack()):
            assert _poss_measurability_violation(model.poss) is None

    def test_failure_names_a_witness_event(self):
        """K({1, 2}) = {1} splits the atom {1, 2}."""
        sigma = sigma_from_atoms(make_space(["1", "2", "3"]), [["1", "2"], ["3"]])
        poss = PossibilityCorrespondence(sigma, (0b011, 0b111, 0b111))
        assert _poss_measurability_violation(poss) == 0b011
