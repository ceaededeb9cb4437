"""Interactive models, common-belief fixpoints, and the agreement bound."""

from collections import Counter
from fractions import Fraction as F
from functools import partial
from itertools import product

import pytest

from emck import axioms, multiagent
from emck import (
    AssumptionViolated,
    CheckReport,
    Event,
    InteractiveModel,
    InvariantError,
    ResourceLimit,
    SetFunction,
    TypeMapping,
    agreement_sweep,
    common_p_belief,
    common_qualitative,
    is_regular_interactive,
    make_space,
    mutual_p_belief,
    mutual_qualitative,
    p_belief,
    qualitative_belief,
    sigma_powerset,
    type_mapping_constant,
    uniform_prior,
    verify_agreement,
    verify_cor_ck,
    verify_cor_ta_common,
)
from emck.beliefs import _level
from emck.fixtures import (
    as_interactive,
    null_state_slack,
    three_state_partition,
    two_agent_partitions,
)
from emck.modelgen import POSS_MODES, TYPE_MODES, GenParams, random_interactive_model

from helpers import (
    members,
    naive_agreement_violation,
    naive_common_b,
    naive_common_k,
    naive_mutual_k,
)


@pytest.fixture
def iw1():
    return two_agent_partitions()


def doubled(model) -> InteractiveModel:
    return InteractiveModel(
        model.sigma,
        model.prior,
        ("alice", "bob"),
        (model.poss, model.poss),
        (model.types, model.types),
    )


class TestConstruction:
    def test_at_least_one_agent(self):
        model = three_state_partition()
        with pytest.raises(InvariantError):
            InteractiveModel(model.sigma, model.prior, (), (), ())

    def test_duplicate_agent_names_rejected(self):
        model = three_state_partition()
        with pytest.raises(InvariantError):
            InteractiveModel(
                model.sigma,
                model.prior,
                ("alice", "alice"),
                (model.poss, model.poss),
                (model.types, model.types),
            )

    def test_regular_flag_requires_every_agent(self, iw1):
        report = is_regular_interactive(iw1)
        assert report.passed
        assert [c.name for c in report.children] == ["regular[alice]", "regular[bob]"]
        # break bob: constant point-mass type not matching his partition
        from emck import dirac_type

        bad_types = type_mapping_constant(iw1.sigma, dirac_type(iw1.sigma, "1"))
        bad = InteractiveModel(
            iw1.sigma,
            iw1.prior,
            iw1.agents,
            iw1.posses,
            (iw1.types[0], bad_types),
        )
        report = is_regular_interactive(bad)
        assert not report.passed
        verdicts = {c.name: c.passed for c in report.children}
        assert verdicts["regular[alice]"] and not verdicts["regular[bob]"]


class TestMutualOperators:
    def test_one_agent_reduces_to_k_and_b(self):
        model = three_state_partition()
        imodel = as_interactive(model)
        for e in model.sigma.events():
            assert mutual_qualitative(imodel, e) == qualitative_belief(model, e)
            for p in (F(0), F(1, 2), F(1)):
                assert mutual_p_belief(imodel, p, e) == p_belief(model, p, e)

    def test_identical_agents_change_nothing(self):
        model = three_state_partition()
        imodel = doubled(model)
        for e in model.sigma.events():
            assert mutual_qualitative(imodel, e) == qualitative_belief(model, e)

    def test_two_partitions_intersect(self, iw1):
        e = iw1.event(["2", "3"])
        assert members(mutual_qualitative(iw1, e)) == {"3"}
        assert members(mutual_qualitative(iw1, e)) == naive_mutual_k(iw1, {"2", "3"})


class TestCommonQualitative:
    def test_single_partitional_agent_collapses_to_k(self):
        model = three_state_partition()
        imodel = as_interactive(model)
        for e in model.sigma.events():
            assert common_qualitative(imodel, e) == qualitative_belief(model, e)

    def test_chained_cells_reach_everything(self, iw1):
        assert common_qualitative(iw1, iw1.event(["2", "3"])).is_empty()
        full = iw1.sigma.full_event
        assert common_qualitative(iw1, full) == full

    def test_matches_iterative_oracle(self, iw1):
        single = as_interactive(null_state_slack())
        for imodel in (iw1, single, doubled(three_state_partition())):
            for e in imodel.sigma.events():
                assert members(common_qualitative(imodel, e)) == naive_common_k(
                    imodel, members(e)
                )


class TestCommonPBelief:
    def test_equals_common_qualitative_at_one_in_discrete_regular(self, iw1):
        for e in iw1.sigma.events():
            assert common_p_belief(iw1, F(1), e) == common_qualitative(iw1, e)

    def test_single_agent_constant_type_thresholds_on_the_prior(self):
        sigma = sigma_powerset(make_space(["1", "2", "3"]))
        from emck import Prior, PossibilityCorrespondence

        prior = Prior(sigma, (F(1, 2), F(1, 4), F(1, 4)))
        poss = PossibilityCorrespondence(sigma, (0b111,) * 3)
        types = type_mapping_constant(sigma, prior.to_set_function())
        from emck import EpistemicModel

        imodel = as_interactive(EpistemicModel(sigma, prior, poss, types))
        for e in sigma.events():
            for p in (F(1, 4), F(1, 2), F(3, 4), F(1)):
                expected = (
                    sigma.full_event
                    if prior.measure_of(e) >= p
                    else sigma.empty_event
                )
                assert common_p_belief(imodel, p, e) == expected

    def test_full_event_is_a_fixed_point(self, iw1):
        full = iw1.sigma.full_event
        assert common_p_belief(iw1, F(1), full) == full

    def test_matches_iterative_oracle(self, iw1):
        for p in iw1.thresholds:
            for e in iw1.sigma.events():
                assert members(common_p_belief(iw1, p, e)) == naive_common_b(
                    iw1, p, members(e)
                )

    def test_common_qualitative_implies_common_p_belief(self, iw1):
        for p in iw1.thresholds:
            for e in iw1.sigma.events():
                assert common_qualitative(iw1, e).is_subset(common_p_belief(iw1, p, e))

    def test_monotone_in_event_antitone_in_p(self, iw1):
        events = iw1.sigma.events()
        ps = iw1.thresholds
        for e in events:
            for f in events:
                if e.is_subset(f):
                    assert common_qualitative(iw1, e).is_subset(
                        common_qualitative(iw1, f)
                    )
                    assert common_p_belief(iw1, F(1, 2), e).is_subset(
                        common_p_belief(iw1, F(1, 2), f)
                    )
            for lo, hi in zip(ps, ps[1:]):
                assert common_p_belief(iw1, hi, e).is_subset(
                    common_p_belief(iw1, lo, e)
                )


class TestCorCk:
    def test_two_partition_agents_pass(self, iw1):
        report = verify_cor_ck(iw1)
        assert report.status == "verified"
        assert {c.name: c.passed for c in report.checks} == {
            "c-equals-c1": True,
            "c-truth-axiom": True,
            "c-positive-introspection": True,
            "c-negative-introspection": True,
        }

    def test_single_agent_reduces_to_k_properties(self):
        report = verify_cor_ck(as_interactive(three_state_partition()))
        assert report.status == "verified"

    def test_non_regular_agent_reported_as_unmet_hypothesis(self, iw1):
        from emck import dirac_type

        bad_types = type_mapping_constant(iw1.sigma, dirac_type(iw1.sigma, "1"))
        bad = InteractiveModel(
            iw1.sigma, iw1.prior, iw1.agents, iw1.posses, (iw1.types[0], bad_types)
        )
        report = verify_cor_ck(bad)
        assert report.status == "hypothesis-not-met"
        assert {h.name: h.holds for h in report.hypotheses} == {
            "discrete": True,
            "regular": False,
        }


class TestAgreement:
    def test_two_partition_agents_certainty_bound(self, iw1):
        report = verify_agreement(iw1, F(1), iw1.event(["1"]))
        assert report.passed
        # the bound holds only trivially here: no value profile about {1} is
        # common 1-belief anywhere
        t_a = {s: iw1.types[0].value(s, iw1.event(["1"])) for s in iw1.space.states}
        t_b = {s: iw1.types[1].value(s, iw1.event(["1"])) for s in iw1.space.states}
        assert set(t_a.values()) == {F(1), F(0)}
        assert set(t_b.values()) == {F(2, 3), F(0)}
        for ra in set(t_a.values()):
            for rb in set(t_b.values()):
                d = frozenset(
                    s
                    for s in iw1.space.states
                    if t_a[s] == ra and t_b[s] == rb
                )
                assert naive_common_b(iw1, F(1), d) == frozenset()

    def test_zero_threshold_bound_is_vacuous(self, iw1):
        for e in iw1.sigma.events():
            assert verify_agreement(iw1, F(0), e).passed

    def test_single_agent_is_vacuous(self):
        imodel = as_interactive(three_state_partition())
        for e in imodel.sigma.events():
            assert verify_agreement(imodel, F(1, 2), e).passed

    def test_non_regular_model_rejected(self, iw1):
        from emck import dirac_type

        bad_types = type_mapping_constant(iw1.sigma, dirac_type(iw1.sigma, "1"))
        bad = InteractiveModel(
            iw1.sigma, iw1.prior, iw1.agents, iw1.posses, (iw1.types[0], bad_types)
        )
        with pytest.raises(AssumptionViolated):
            verify_agreement(bad, F(1), iw1.event(["1"]))

    def test_vector_budget_is_enforced(self, iw1):
        with pytest.raises(ResourceLimit):
            verify_agreement(iw1, F(1), iw1.event(["1"]), budget=1)

    def test_sweep_covers_all_thresholds_and_events(self, iw1):
        report = agreement_sweep(iw1)
        assert report.passed
        # thresholds of IW1: {0, 1/3, 1/2, 2/3, 1} (alice: 0,1/2,1; bob: 0,1/3,2/3,1)
        assert iw1.thresholds == (F(0), F(1, 3), F(1, 2), F(2, 3), F(1))
        assert report.scope == "40 (threshold, event) pairs"


C10 = GenParams(
    n_states=3,
    weight_denominator=6,
    n_agents=2,
    type_mode="bayes",
    poss_mode="partition",
    full_support=True,
)


class TestCachedInvariants:
    def test_sweep_decides_each_agents_regularity_once(self, monkeypatch):
        calls = []
        verdict = axioms._regular_verdict
        monkeypatch.setattr(
            axioms, "_regular_verdict", lambda m: calls.append(m) or verdict(m)
        )
        for seed in range(3):
            calls.clear()
            imodel = random_interactive_model(C10, seed=seed)
            assert agreement_sweep(imodel).passed
            assert verify_cor_ck(imodel).status == "verified"
            assert verify_cor_ta_common(imodel).status == "verified"
            assert [id(m) for m in calls] == [id(m) for m in imodel.agent_models]

    def test_cor_ck_computes_common_knowledge_once_per_event(self, monkeypatch):
        calls = []
        common_k = multiagent._common_k_mask
        monkeypatch.setattr(
            multiagent,
            "_common_k_mask",
            lambda imodel, emask: calls.append(emask) or common_k(imodel, emask),
        )
        for params in (C10, GenParams(n_states=3, sigma_mode="random-partition", n_agents=2)):
            for seed in range(4):
                calls.clear()
                imodel = random_interactive_model(params, seed=seed)
                verify_cor_ck(imodel)
                assert sorted(calls) == sorted(imodel.sigma.event_masks)

    @pytest.mark.parametrize("seed", range(4))
    def test_cached_model_reports_match_fresh_ones(self, seed):
        imodel = random_interactive_model(C10, seed=seed)
        for p in imodel.thresholds:
            for event in imodel.sigma.events():
                fresh = InteractiveModel(
                    imodel.sigma, imodel.prior, imodel.agents, imodel.posses, imodel.types
                )
                assert verify_agreement(fresh, p, event) == verify_agreement(imodel, p, event)

    def test_non_regular_model_is_rejected_on_every_call(self, iw1):
        from emck import dirac_type

        bad_types = type_mapping_constant(iw1.sigma, dirac_type(iw1.sigma, "1"))
        bad = InteractiveModel(
            iw1.sigma, iw1.prior, iw1.agents, iw1.posses, (iw1.types[0], bad_types)
        )
        for _ in range(2):
            for event in bad.sigma.events():
                with pytest.raises(AssumptionViolated):
                    verify_agreement(bad, F(1, 2), event)
            with pytest.raises(AssumptionViolated):
                verify_cor_ta_common(bad)
        assert verify_cor_ck(bad).status == "hypothesis-not-met"


class TestCorTaCommon:
    def test_two_partition_agents_pass(self, iw1):
        report = verify_cor_ta_common(iw1)
        assert report.status == "verified"
        assert all(check.passed for check in report.checks)

    def test_two_null_state_agents_pass_with_slack(self):
        imodel = doubled(null_state_slack())
        report = verify_cor_ta_common(imodel)
        assert report.status == "verified"
        assert all(check.passed for check in report.checks)
        # the slack is genuine: C^1({a}) = Omega strictly exceeds {a}
        c1 = common_p_belief(imodel, F(1), imodel.event(["a"]))
        assert members(c1) == {"a", "b"}

    def test_non_regular_needs_diagnostic_mode(self):
        model = three_state_partition()
        from emck import dirac_type

        bad_types = type_mapping_constant(model.sigma, dirac_type(model.sigma, "1"))
        bad = InteractiveModel(
            model.sigma, model.prior, ("a1",), (model.poss,), (bad_types,)
        )
        with pytest.raises(AssumptionViolated):
            verify_cor_ta_common(bad)
        report = verify_cor_ta_common(bad, diagnostic=True)
        assert report.status == "hypothesis-not-met"
        assert [(h.name, h.holds) for h in report.hypotheses] == [("regular", False)]
        assert not all(check.passed for check in report.checks)


def _reference_sweep(
    imodel: InteractiveModel, budget: int = multiagent.MAX_VALUE_VECTORS
) -> CheckReport:
    """verify_agreement at every critical threshold and every event, in
    order: the first failing report, else one report for the sweep."""
    sigma = imodel.sigma
    count = 0
    for p in imodel.thresholds:
        for mask in sigma.event_masks:
            report = verify_agreement(imodel, p, Event(sigma, mask), budget)
            count += 1
            if not report.passed:
                return report
    return CheckReport("agreement-sweep", True, (), f"{count} (threshold, event) pairs")


def _outcome(sweep, imodel):
    try:
        return sweep(imodel)
    except (AssumptionViolated, ResourceLimit) as exc:
        return type(exc), str(exc)


def _sweep_models() -> list[InteractiveModel]:
    """20 c10 draws, and 8 draws of each n=3 two-agent family on the 1/2
    grid in every type and possibility mode."""
    models = [random_interactive_model(C10, seed=seed) for seed in range(20)]
    for poss_mode in POSS_MODES:
        for type_mode in TYPE_MODES:
            params = GenParams(
                n_states=3,
                weight_denominator=2,
                n_agents=2,
                type_mode=type_mode,
                poss_mode=poss_mode,
            )
            models.extend(random_interactive_model(params, seed) for seed in range(8))
    return models


def _agreement_families() -> list[InteractiveModel]:
    """50 c10 draws, and 6 draws of each n=3 two-agent family on the 1/2,
    1/3 and 1/6 grids in every type and possibility mode."""
    models = [random_interactive_model(C10, seed=seed) for seed in range(50)]
    for type_mode, poss_mode, d, seed in product(TYPE_MODES, POSS_MODES, (2, 3, 6), range(6)):
        params = GenParams(
            n_states=3,
            weight_denominator=d,
            n_agents=2,
            type_mode=type_mode,
            poss_mode=poss_mode,
        )
        try:
            models.append(random_interactive_model(params, seed))
        except ResourceLimit:  # no cells of positive measure
            continue
    return models


class TestAgreementSweep:
    def test_sweep_equals_the_per_pair_loop(self):
        regular = 0
        for imodel in _sweep_models():
            assert _outcome(agreement_sweep, imodel) == _outcome(_reference_sweep, imodel)
            regular += imodel.regular
        assert regular > 20  # not only the c10 models reach the kernel

    def test_a_resource_limit_surfaces_at_the_same_pair(self, monkeypatch):
        """With budgets that some events exceed, the sweep raises where the
        per-pair loop does; with C(S) also broken for one state set, it
        returns the same report where an earlier event fails first."""
        outcomes = Counter()
        for broken in (False, True):
            if broken:
                self._break_common_k(monkeypatch)
            for budget in (1, 2, 4):
                monkeypatch.setattr(multiagent, "MAX_VALUE_VECTORS", budget)
                for imodel in _sweep_models():
                    outcome = _outcome(agreement_sweep, imodel)
                    assert outcome == _outcome(partial(_reference_sweep, budget=budget), imodel)
                    outcomes[outcome[0] if isinstance(outcome, tuple) else outcome.passed] += 1
        assert min(outcomes[ResourceLimit], outcomes[False], outcomes[True]) > 10, outcomes

    def test_a_sweep_asks_common_p_belief_once_per_state_set_and_level(self, monkeypatch):
        """Each value profile is decided by at most one C^p test, kept per
        (state set, level) for the rest of the sweep; a vector that no state
        holds is never asked."""
        calls = []
        kernel = multiagent._common_b_mask
        monkeypatch.setattr(
            multiagent,
            "_common_b_mask",
            lambda imodel, combo, level: calls.append((combo, level)) or kernel(imodel, combo, level),
        )
        asked = 0
        for seed in range(50):
            calls.clear()
            assert agreement_sweep(random_interactive_model(C10, seed=seed)).passed
            assert len(calls) == len(set(calls)), seed
            assert all(combo for combo, _ in calls), seed
            asked += len(calls)
        assert asked > 50  # the kernel is asked, so the count is not vacuous

    def test_a_passing_sweep_builds_no_per_pair_report(self, monkeypatch):
        calls = []
        build = multiagent._agreement_report
        monkeypatch.setattr(
            multiagent,
            "_agreement_report",
            lambda *args: calls.append(args) or build(*args),
        )
        for seed in range(5):
            assert agreement_sweep(random_interactive_model(C10, seed=seed)).passed
        assert calls == []

    @staticmethod
    def _broken_kernel_differential() -> Counter:
        """Sweep and per-pair loop on fresh models under the kernels as
        patched now: both reports, or both exceptions, are equal; the
        falsified reports counted by the kind of their witness."""
        kinds = Counter()
        models = [random_interactive_model(C10, seed=seed) for seed in range(100)]
        for imodel in (*models, *_sweep_models()):
            outcome = _outcome(agreement_sweep, imodel)
            assert outcome == _outcome(_reference_sweep, imodel)
            if isinstance(outcome, CheckReport) and not outcome.passed:
                kinds["p" if outcome.witnesses[0].note.startswith("C^p") else "k"] += 1
        return kinds

    def test_a_broken_common_p_belief_is_found_at_the_same_pair(self, monkeypatch):
        """C^p(S) read as every state at every level up to a middle one, for
        every nonempty S: a break that still shrinks as the level grows."""
        kernel = multiagent._common_b_mask

        def broken(imodel, combo, level):
            if combo and level <= imodel.levels[len(imodel.levels) // 2]:
                return imodel.space.full_mask
            return kernel(imodel, combo, level)

        monkeypatch.setattr(multiagent, "_common_b_mask", broken)
        assert self._broken_kernel_differential()["p"] >= 50

    @staticmethod
    def _break_common_k(monkeypatch) -> None:
        """C(S) read as every state for one chosen state set S."""
        kernel = multiagent._common_k_mask

        def broken(imodel, emask):
            return imodel.space.full_mask if emask == 0b100 else kernel(imodel, emask)

        monkeypatch.setattr(multiagent, "_common_k_mask", broken)

    def test_a_broken_common_knowledge_is_found_at_the_same_pair(self, monkeypatch):
        self._break_common_k(monkeypatch)
        assert self._broken_kernel_differential()["k"] >= 50


class TestAgreementFacts:
    """The two facts ``agreement_sweep`` rests on, over the c10 draws and the
    n=3 families on the 1/2, 1/3 and 1/6 grids."""

    def test_common_p_belief_shrinks_as_the_level_grows_on_regular_models(self):
        checked = 0
        for imodel in _agreement_families():
            if not imodel.regular:
                continue
            d = imodel.int_tables[0]
            for combo in range(1 << imodel.sigma.n_atoms):
                masks = [multiagent._common_b_mask(imodel, combo, level) for level in range(d + 1)]
                for lower, higher in zip(masks, masks[1:]):
                    assert higher & ~lower == 0, (imodel, combo)
                checked += 1
        assert checked > 500

    def test_no_hit_is_a_value_vector_that_no_state_holds(self):
        """Asked about one such vector alone, at any level, the kernel finds
        no violation: C of the empty set is empty where every cell is
        nonempty, and so is C^p for p > 0, as t(omega, empty) = 0."""
        empty = 0
        for imodel in _agreement_families():
            if not imodel.regular:
                continue
            d = imodel.int_tables[0]
            for combo in range(1 << imodel.sigma.n_atoms):
                _, profiles = multiagent._agreement_profiles(imodel, combo, 1000)
                for profile in profiles:
                    if profile[1]:
                        continue
                    for level in range(d + 1):
                        assert multiagent._agreement_violation(imodel, level, [profile]) is None
                    empty += 1
        assert empty > 100


class TestIntegerAgreementKernel:
    """The agreement kernel compares integers; the oracle is all Fractions."""

    def test_kernel_matches_the_fraction_oracle(self):
        off_grid = (F(1, 7), F(2, 5), F(5, 7))
        checks = regular = 0
        kinds = Counter()
        for type_mode, poss_mode, d, seed in product(TYPE_MODES, POSS_MODES, (2, 3, 6), range(6)):
            params = GenParams(
                n_states=3,
                weight_denominator=d,
                n_agents=2,
                type_mode=type_mode,
                poss_mode=poss_mode,
            )
            try:
                imodel = random_interactive_model(params, seed)
            except ResourceLimit:  # no cells of positive measure
                continue
            regular += imodel.regular
            names_of = imodel.space.names_of
            scale = imodel.int_tables[0]
            for combo in range(1 << imodel.sigma.n_atoms):
                _, profiles = multiagent._agreement_profiles(imodel, combo, 1000)
                for p in (*imodel.thresholds, *off_grid):
                    hit = multiagent._agreement_violation(imodel, _level(p, scale), profiles)
                    if hit is not None:
                        vector = tuple(F(r, scale) for r in hit[0])
                        hit = (vector, frozenset(names_of(hit[1])), hit[2])
                        kinds[hit[2]] += 1
                    assert hit == naive_agreement_violation(imodel, p, combo)
                    checks += 1
        assert checks > 10_000
        # both kinds of first witness occur, so the comparison is not vacuous
        assert kinds["p"] > 200 and kinds["k"] > 200
        assert regular > 20


class TestPreconditionWording:
    """The interactive verifiers' precondition messages, verbatim."""

    @pytest.fixture
    def bad(self, iw1):
        from emck import dirac_type

        bad_types = type_mapping_constant(iw1.sigma, dirac_type(iw1.sigma, "1"))
        return InteractiveModel(
            iw1.sigma, iw1.prior, iw1.agents, iw1.posses, (iw1.types[0], bad_types)
        )

    def test_cor_ta_common_requires_a_regular_interactive_model(self, bad):
        with pytest.raises(AssumptionViolated) as exc:
            verify_cor_ta_common(bad)
        assert str(exc.value) == "requires a regular interactive model"

    def test_agreement_requires_a_regular_interactive_model(self, bad):
        message = "agreement requires a regular interactive model"
        with pytest.raises(AssumptionViolated) as exc:
            verify_agreement(bad, F(1, 2), bad.event(["1"]))
        assert str(exc.value) == message
        with pytest.raises(AssumptionViolated) as exc:
            agreement_sweep(bad)
        assert str(exc.value) == message
