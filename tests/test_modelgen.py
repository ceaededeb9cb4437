"""Exhaustive and randomized model generation, and the counterexample search."""

from fractions import Fraction as F
from itertools import product

import pytest

import emck.modelgen as mg
import emck.theorems as theorems
from emck import (
    AssumptionViolated,
    GenParams,
    InvariantError,
    ResourceLimit,
    SetFunction,
    SigmaAlgebra,
    enumerate_models,
    is_regular,
    kripke_properties,
    partitions,
    random_interactive_model,
    random_model,
    search_counterexample,
    weight_tuples,
)
from emck.modelgen import REQUIRE_FLAGS, satisfies_require


class TestGenParams:
    def test_defaults_are_valid(self):
        GenParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_states": 0},
            {"weight_denominator": 0},
            {"n_agents": 0},
            {"sigma_mode": "fancy"},
            {"type_mode": "bayesian"},
            {"poss_mode": "total"},
            {"require": ("no-such-flag",)},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GenParams(**kwargs)


class TestBuildingBlocks:
    def test_weight_tuples_are_compositions(self):
        got = list(weight_tuples(2, 2))
        assert got == [
            (F(0), F(1)),
            (F(1, 2), F(1, 2)),
            (F(1), F(0)),
        ]

    def test_positive_weight_tuples_drop_zeros(self):
        got = list(weight_tuples(2, 2, positive=True))
        assert got == [(F(1, 2), F(1, 2))]

    def test_weight_tuple_counts(self):
        # compositions of d into n nonnegative parts: C(d + n - 1, n - 1)
        assert len(list(weight_tuples(3, 4))) == 15
        assert len(list(weight_tuples(1, 6))) == 1
        # positive compositions: C(d - 1, n - 1)
        assert len(list(weight_tuples(3, 6, positive=True))) == 10

    def test_partition_counts_are_bell_numbers(self):
        assert [len(list(partitions(n))) for n in range(1, 5)] == [1, 2, 5, 15]

    def test_partitions_cover_and_disjoint(self):
        for blocks in partitions(4):
            seen = [i for block in blocks for i in block]
            assert sorted(seen) == [0, 1, 2, 3]


class TestEnumerate:
    def test_single_state_grid_is_one_model(self):
        params = GenParams(n_states=1, weight_denominator=1)
        assert len(list(enumerate_models(params))) == 1

    def test_arbitrary_nonempty_poss_count(self):
        params = GenParams(
            n_states=2,
            weight_denominator=1,
            type_mode="random-additive",
            poss_mode="arbitrary-nonempty",
        )
        models = list(enumerate_models(params))
        posses = {m.poss.cells for m in models}
        assert len(posses) == 9  # 3 nonempty subsets per state

    def test_additive_type_table_count(self):
        params = GenParams(
            n_states=2,
            weight_denominator=2,
            type_mode="random-additive",
            poss_mode="partition",
        )
        models = list(enumerate_models(params))
        tables = {tuple(sf.table for sf in m.types.per_state) for m in models}
        assert len(tables) == 9  # 3 weight splits per state, squared

    def test_stream_is_deterministic(self):
        params = GenParams(
            n_states=2, weight_denominator=2, poss_mode="arbitrary-nonempty"
        )
        a = [
            (m.prior.weights, m.poss.cells, tuple(sf.table for sf in m.types.per_state))
            for m in enumerate_models(params)
        ]
        b = [
            (m.prior.weights, m.poss.cells, tuple(sf.table for sf in m.types.per_state))
            for m in enumerate_models(params)
        ]
        assert a == b

    def test_stream_is_duplicate_free(self):
        params = GenParams(
            n_states=2, weight_denominator=2, poss_mode="arbitrary-nonempty",
            type_mode="random-additive",
        )
        seen = set()
        for m in enumerate_models(params):
            key = (
                m.prior.weights,
                m.poss.cells,
                tuple(sf.table for sf in m.types.per_state),
            )
            assert key not in seen
            seen.add(key)

    def test_bayes_mode_derives_conditionals(self):
        params = GenParams(n_states=3, weight_denominator=2, poss_mode="partition")
        for m in enumerate_models(params):
            assert is_regular(m).passed

    def test_require_flags_are_rechecked(self):
        params = GenParams(
            n_states=2,
            weight_denominator=2,
            poss_mode="arbitrary-nonempty",
            require=("partition", "full-support"),
        )
        models = list(enumerate_models(params))
        assert models
        for m in models:
            assert m.poss.is_partition
            assert kripke_properties(m).passed
            assert all(w > 0 for w in m.prior.weights)
            assert satisfies_require(m, ("partition", "full-support"))

    def test_full_support_param_restricts_priors(self):
        base = GenParams(n_states=2, weight_denominator=2)
        strict = GenParams(n_states=2, weight_denominator=2, full_support=True)
        assert {m.prior.weights for m in enumerate_models(strict)} == {
            (F(1, 2), F(1, 2))
        }
        assert len({m.prior.weights for m in enumerate_models(base)}) == 3


class TestRandom:
    def test_same_seed_same_model(self):
        params = GenParams(
            n_states=3,
            weight_denominator=4,
            type_mode="random-capacity",
            poss_mode="arbitrary-nonempty",
        )
        a = random_model(params, seed=123)
        b = random_model(params, seed=123)
        assert a.prior.weights == b.prior.weights
        assert a.poss.cells == b.poss.cells
        assert all(x.table == y.table for x, y in zip(a.types.per_state, b.types.per_state))
        c = random_model(params, seed=124)
        different = (
            a.prior.weights != c.prior.weights
            or a.poss.cells != c.poss.cells
            or any(x.table != y.table for x, y in zip(a.types.per_state, c.types.per_state))
        )
        assert different

    def test_unconstrained_capacities_can_be_non_monotone(self):
        params = GenParams(
            n_states=2, weight_denominator=2, type_mode="random-capacity"
        )
        hit = False
        for seed in range(40):
            m = random_model(params, seed=seed)
            if any(not sf.classification.monotone for sf in m.types.per_state):
                hit = True
                break
        assert hit

    def test_monotone_capacities_are_always_monotone(self):
        params = GenParams(
            n_states=3, weight_denominator=3, type_mode="random-monotone-capacity",
            poss_mode="arbitrary-nonempty",
        )
        for seed in range(60):
            m = random_model(params, seed=seed)
            for sf in m.types.per_state:
                assert sf.classification.monotone

    def test_bayes_full_support_partition_is_regular(self):
        params = GenParams(
            n_states=4, weight_denominator=6, full_support=True
        )
        for seed in range(25):
            m = random_model(params, seed=seed)
            assert m.poss.is_partition
            assert is_regular(m).passed

    def test_random_interactive_builds_named_agents(self):
        params = GenParams(n_states=3, weight_denominator=4, n_agents=2, full_support=True)
        imodel = random_interactive_model(params, seed=5)
        assert imodel.agents == ("a1", "a2")
        again = random_interactive_model(params, seed=5)
        assert [p.cells for p in imodel.posses] == [p.cells for p in again.posses]

    def test_coarse_algebra_draws_are_always_valid_models(self):
        # regression: a correspondence that varies inside an atom makes the
        # knowledge operator land outside the algebra; draws now pick one
        # cell per atom
        for poss_mode in ("partition", "reflexive", "arbitrary-nonempty"):
            params = GenParams(
                n_states=3,
                weight_denominator=3,
                type_mode="random-capacity",
                poss_mode=poss_mode,
                sigma_mode="random-partition",
            )
            for seed in range(30):
                m = random_model(params, seed=seed)
                for atom in m.sigma.atoms:
                    states = [i for i in range(3) if atom >> i & 1]
                    cells = {m.poss.cells[i] for i in states}
                    assert len(cells) == 1

    def test_coarse_algebra_enumeration_keeps_cells_constant_on_atoms(self):
        params = GenParams(
            n_states=2,
            weight_denominator=1,
            type_mode="random-additive",
            poss_mode="arbitrary-nonempty",
            sigma_mode="random-partition",
        )
        seen_coarse = False
        for m in enumerate_models(params):
            if m.sigma.n_atoms == 1:
                seen_coarse = True
                assert m.poss.cells[0] == m.poss.cells[1]
        assert seen_coarse


class TestSearch:
    def test_main_claim_not_falsified_on_a_small_grid(self):
        params = GenParams(
            n_states=2,
            weight_denominator=2,
            type_mode="random-additive",
            poss_mode="arbitrary-nonempty",
        )
        result = search_counterexample("theorem-main", params)
        assert not result.found
        # 3 priors x 9 correspondences x 9 additive tables, minus the
        # null-cell grid points skipped under the positive-cell assumption
        assert result.models_checked == 153
        assert result.hypothesis_skips == 90
        assert result.models_checked + result.hypothesis_skips == 3 * 9 * 9

    def test_prop2_not_falsified_over_capacity_grid(self):
        params = GenParams(
            n_states=2,
            weight_denominator=1,
            type_mode="random-capacity",
            poss_mode="arbitrary-nonempty",
            full_support=False,
        )
        result = search_counterexample("prop-2", params)
        assert not result.found
        # 2 priors x 9 correspondences x (2^4)^2 tables on the 0/1 grid
        assert result.models_checked == 2 * 9 * 256

    def test_budget_caps_enumeration(self):
        params = GenParams(
            n_states=2,
            weight_denominator=2,
            type_mode="random-additive",
            poss_mode="arbitrary-nonempty",
            budget=10,
        )
        result = search_counterexample("theorem-main", params)
        assert not result.found
        assert result.models_checked + result.hypothesis_skips == 10

    def test_a_budget_that_ends_an_algebra_builds_no_model_of_the_next(self):
        # the one-atom algebra comes first, with 41^2 = 1,681 models (one
        # table per atom, on {}, Omega); the powerset's 41^4 = 2,825,761
        # capacity tables per state are refused as soon as its first model
        # is pulled
        params = GenParams(
            n_states=2,
            weight_denominator=40,
            sigma_mode="random-partition",
            type_mode="random-capacity",
            poss_mode="partition",
            budget=1681,
        )
        result = search_counterexample("theorem-main", params)
        assert not result.found
        assert (result.models_checked, result.hypothesis_skips) == (1681, 0)

    def test_random_mode_requires_budget(self):
        params = GenParams(n_states=2, weight_denominator=2)
        with pytest.raises(ValueError):
            search_counterexample("theorem-main", params, mode="random")

    def test_random_mode_counts_exactly(self):
        params = GenParams(
            n_states=2,
            weight_denominator=3,
            type_mode="random-monotone-capacity",
            poss_mode="arbitrary-nonempty",
            require=("one-intersection",),
            budget=200,
            seed=7,
        )
        result = search_counterexample("prop-1", params, mode="random")
        assert not result.found
        assert result.models_checked == 200

    def test_require_filter_gives_up_after_1000_consecutive_rejections(self, monkeypatch):
        # additive types almost never come out of this capacity family, so
        # every draw is rejected; the cap must not grow with the budget
        draws = []

        def counting_random_model(params, seed):
            draws.append(seed)
            if len(draws) > 1000:
                raise AssertionError("drew past the consecutive-rejection cap")
            return random_model(params, seed)

        monkeypatch.setattr(mg, "random_model", counting_random_model)
        params = GenParams(
            n_states=2,
            type_mode="random-capacity",
            poss_mode="arbitrary-nonempty",
            require=("regular",),
            budget=60,
            seed=5,
        )
        with pytest.raises(ResourceLimit, match="rejected 1000 consecutive draws"):
            search_counterexample("prop-1", params, mode="random")
        assert len(draws) == 1000

    def test_oversized_capacity_family_is_refused_before_any_table_is_built(
        self, monkeypatch
    ):
        built = []
        set_function = mg.SetFunction

        def counting_set_function(*args, **kwargs):
            built.append(args)
            return set_function(*args, **kwargs)

        monkeypatch.setattr(mg, "SetFunction", counting_set_function)
        params = GenParams(
            n_states=3,
            weight_denominator=3,
            type_mode="random-capacity",
            poss_mode="arbitrary-nonempty",
            budget=5,
        )
        # 4^8 = 65,536 tables per atom, 65,536^3 mappings
        with pytest.raises(ResourceLimit, match=f"^{65_536 ** 3} type mappings per algebra"):
            search_counterexample("prop-1", params)
        assert built == []

    @pytest.mark.parametrize(
        "params, refusal",
        [
            # the CLI's search defaults; C(123, 3) = 302,621 additive tables
            # per atom, to the 4th
            pytest.param(
                GenParams(
                    n_states=4,
                    weight_denominator=120,
                    type_mode="random-additive",
                    poss_mode="arbitrary-nonempty",
                    budget=1,
                ),
                f"{302_621 ** 4} type mappings per algebra",
                id="additive-types",
            ),
            # C(233, 3) priors, with or without full support
            pytest.param(
                GenParams(n_states=4, weight_denominator=230),
                "2081156 priors per algebra",
                id="priors",
            ),
            pytest.param(
                GenParams(n_states=4, weight_denominator=234, full_support=True),
                "2081156 priors per algebra",
                id="full-support-priors",
            ),
            # Bell(12), (2^5)^6 and (2^5 - 1)^5 correspondences
            pytest.param(
                GenParams(n_states=12, weight_denominator=1),
                "4213597 possibility correspondences per algebra",
                id="partitions",
            ),
            pytest.param(
                GenParams(n_states=6, weight_denominator=1, poss_mode="reflexive"),
                f"{32 ** 6} possibility correspondences per algebra",
                id="reflexive",
            ),
            pytest.param(
                GenParams(
                    n_states=5,
                    weight_denominator=1,
                    type_mode="random-additive",
                    poss_mode="arbitrary-nonempty",
                    budget=1,
                ),
                f"{31 ** 5} possibility correspondences per algebra",
                id="arbitrary-nonempty",
            ),
        ],
    )
    def test_oversized_family_is_refused_before_any_component_is_built(
        self, monkeypatch, params, refusal
    ):
        built = []

        def refusing(name):
            def build(*args, **kwargs):
                built.append(name)
                raise AssertionError(f"built a {name} before refusing the family")

            return build

        for name in (
            "Prior",
            "PossibilityCorrespondence",
            "SetFunction",
            "TypeMapping",
            "set_function_from_atom_weights",
        ):
            monkeypatch.setattr(mg, name, refusing(name))
        with pytest.raises(ResourceLimit, match=f"^{refusal};"):
            search_counterexample("theorem-main", params)
        assert built == []

    @pytest.mark.parametrize("sigma_mode", mg.SIGMA_MODES)
    @pytest.mark.parametrize("type_mode", mg.TYPE_MODES)
    @pytest.mark.parametrize("poss_mode", mg.POSS_MODES)
    def test_family_counts_match_the_built_lists(self, sigma_mode, type_mode, poss_mode):
        for n in (1, 2, 3):
            for d in (1, 2, 3):
                for full_support in (False, True):
                    params = GenParams(
                        n_states=n,
                        weight_denominator=d,
                        sigma_mode=sigma_mode,
                        type_mode=type_mode,
                        poss_mode=poss_mode,
                        full_support=full_support,
                    )
                    for sigma in mg._sigmas(params, mg._space_for(n)):
                        k = sigma.n_atoms
                        lists = {
                            "priors per algebra": lambda: list(
                                weight_tuples(k, d, full_support)
                            ),
                            "possibility correspondences per algebra": lambda: mg._poss_list(
                                params, sigma
                            ),
                            "capacity tables per state": lambda: list(
                                product(range(d + 1), repeat=1 << k)
                            ),
                            "type mappings per algebra": lambda: mg._type_vectors(
                                params, sigma
                            ),
                        }
                        for count, what in mg._family_counts(params, sigma):
                            if count <= 5_000:
                                assert count == len(lists[what]()), (params, sigma, what)

    def test_bell_numbers_count_the_partitions(self):
        assert [mg._bell(n) for n in range(8)] == [
            len(list(partitions(n))) for n in range(8)
        ]

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            search_counterexample("no-such-claim", GenParams())
        with pytest.raises(ValueError):
            search_counterexample("theorem-main", GenParams(), mode="bogus")

    def test_prop_3_has_no_agreement_alias(self):
        with pytest.raises(ValueError, match="unknown claim: 'agreement'"):
            search_counterexample("agreement", GenParams(n_agents=2, budget=1), mode="random")

    def test_interactive_claims_run_on_agent_streams(self):
        params = GenParams(
            n_states=2,
            weight_denominator=3,
            n_agents=2,
            full_support=True,
            budget=40,
            seed=3,
        )
        result = search_counterexample("prop-3", params, mode="random")
        assert not result.found
        assert result.models_checked == 40

    def test_harness_flags_a_deliberately_broken_claim(self):
        """Self-test: a verifier wired to reject regular partition models is
        caught immediately, proving the loop inspects real verdicts."""

        from emck import CheckReport

        def broken(model):
            ok = not is_regular(model).passed
            return CheckReport("broken-selftest", ok, (), "self-test")

        mg.CLAIMS["broken-selftest"] = ("single", broken)
        try:
            params = GenParams(n_states=2, weight_denominator=2)
            result = search_counterexample("broken-selftest", params)
            assert result.found
            assert result.model is not None
            assert result.report is not None
            assert result.report.status == "falsified"
            assert is_regular(result.model).passed
        finally:
            del mg.CLAIMS["broken-selftest"]

    def test_found_results_report_the_first_stream_index(self):
        from emck import CheckReport

        def broken(model):
            ok = not is_regular(model).passed
            return CheckReport("broken-selftest", ok, (), "self-test")

        mg.CLAIMS["broken-selftest"] = ("single", broken)
        try:
            params = GenParams(n_states=2, weight_denominator=2)
            first = next(iter(enumerate_models(params)))
            result = search_counterexample("broken-selftest", params)
            assert result.models_checked == 1
            assert result.model.prior.weights == first.prior.weights
            assert result.model.poss.cells == first.poss.cells
        finally:
            del mg.CLAIMS["broken-selftest"]


class TestDeclaredStatus:
    """The theorem-main claims declare a status decided by their kernels; the
    search asks it instead of building a report for every model."""

    @pytest.mark.parametrize("claim", ["theorem-main", "theorem-main-product"])
    def test_declared_status_equals_the_reports_status(self, claim):
        verifier = mg.CLAIMS[claim][1]
        declared = mg._DECLARED_STATUS[verifier]
        regular_null = nonregular_null = 0
        for sigma_mode, type_mode, poss_mode in product(
            mg.SIGMA_MODES, mg.TYPE_MODES, mg.POSS_MODES
        ):
            for n in (1, 2):
                # the unconstrained capacity grid has 3^4 tables per atom on
                # 1/2 weights (787,000 models at n=2, minutes of reports), so
                # it runs on the 1/1 grid only
                for d in (1,) if type_mode == "random-capacity" else (1, 2):
                    for full_support in (False, True):
                        params = GenParams(
                            n_states=n,
                            weight_denominator=d,
                            sigma_mode=sigma_mode,
                            type_mode=type_mode,
                            poss_mode=poss_mode,
                            full_support=full_support,
                        )
                        for model in enumerate_models(params):
                            try:
                                report_status = verifier(model).status
                            except AssumptionViolated:
                                report_status = "hypothesis-not-met"
                            assert declared(model) == report_status, (params, model)
                            if model.has_null_cells:
                                if is_regular(model).passed:
                                    regular_null += 1
                                else:
                                    nonregular_null += 1
        # the forward-only rule is exercised on both sides of its premise
        # (theorem-main skips every null-cell model before deciding it)
        assert regular_null > 0 and nonregular_null > 0

    def test_a_search_builds_no_report_until_it_finds_a_counterexample(self, monkeypatch):
        reports = []
        build = theorems._theorem_main_report
        monkeypatch.setattr(
            theorems,
            "_theorem_main_report",
            lambda model, claim: reports.append(claim) or build(model, claim),
        )
        params = GenParams(
            n_states=2,
            weight_denominator=2,
            type_mode="random-additive",
            poss_mode="arbitrary-nonempty",
        )
        for claim in ("theorem-main", "theorem-main-product"):
            result = search_counterexample(claim, params)
            assert not result.found and result.models_checked > 0
        assert reports == []

    @pytest.mark.parametrize("claim", ["theorem-main", "theorem-main-product"])
    def test_a_failing_kernel_is_reported_once_by_the_verifier(self, claim, monkeypatch):
        """With condition (iii) broken, the first model whose regularity side
        holds falsifies the claim; its report is the verifier's."""
        reports = []
        build = theorems._theorem_main_report
        monkeypatch.setattr(
            theorems,
            "_theorem_main_report",
            lambda model, claim: reports.append(claim) or build(model, claim),
        )
        monkeypatch.setattr(theorems, "_almost_reverse_violation", lambda model: 0)
        params = GenParams(
            n_states=2,
            weight_denominator=2,
            type_mode="random-additive",
            poss_mode="arbitrary-nonempty",
        )
        first = next(
            m
            for m in enumerate_models(params)
            if is_regular(m).passed
            and (claim == "theorem-main-product" or not m.has_null_cells)
        )
        result = search_counterexample(claim, params)
        assert reports == [claim]
        assert result.found
        assert result.model == first
        assert result.report.status == "falsified"
        assert result.report.lhs and not result.report.rhs


class TestFamilyStreams:
    def test_partition_algebras_are_built_as_the_stream_reaches_them(self, monkeypatch):
        built = []
        post_init = SigmaAlgebra.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(SigmaAlgebra, "__post_init__", counting)
        params = GenParams(
            n_states=8,
            weight_denominator=1,
            sigma_mode="random-partition",
            type_mode="bayes",
            poss_mode="partition",
            budget=1,
        )
        result = search_counterexample("theorem-main", params)
        assert result.models_checked + result.hypothesis_skips == 1
        # Bell(8) = 4,140 algebras in the family
        assert len(built) <= 2

    @pytest.mark.parametrize("sigma_mode", mg.SIGMA_MODES)
    def test_monotone_tables_are_the_monotone_part_of_the_grid_in_order(self, sigma_mode):
        for n in (1, 2, 3):
            for d in (1, 2, 3):
                params = GenParams(
                    n_states=n,
                    weight_denominator=d,
                    sigma_mode=sigma_mode,
                    type_mode="random-monotone-capacity",
                )
                grid = [F(i, d) for i in range(d + 1)]
                for sigma in mg._sigmas(params, mg._space_for(n)):
                    expected = [
                        t
                        for t in product(grid, repeat=1 << sigma.n_atoms)
                        if SetFunction(sigma, t).monotone
                    ]
                    assert mg._monotone_values(grid, 1 << sigma.n_atoms) == expected
                    if len(expected) ** sigma.n_atoms <= mg.MAX_GRID:
                        got = [sf.table for sf in mg._capacity_grid(sigma, params)]
                        assert got == expected, (n, d, sigma)

    def test_oversized_monotone_capacity_family_is_refused_before_any_table_is_built(
        self, monkeypatch
    ):
        built = []
        set_function = mg.SetFunction

        def counting_set_function(*args, **kwargs):
            built.append(args)
            return set_function(*args, **kwargs)

        monkeypatch.setattr(mg, "SetFunction", counting_set_function)
        params = GenParams(
            n_states=3,
            weight_denominator=3,
            type_mode="random-monotone-capacity",
            poss_mode="arbitrary-nonempty",
            budget=5,
        )
        # 887 monotone tables per atom on the 1/3 grid, 887^3 mappings
        with pytest.raises(ResourceLimit, match=f"^{887 ** 3} type mappings per algebra"):
            search_counterexample("prop-1", params)
        assert built == []
