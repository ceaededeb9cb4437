"""Exhaustive and randomized model generation, and the counterexample search."""

import os
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import islice, product

import pytest

import emck.axioms as axioms
import emck.modelgen as mg
import emck.multiagent as multiagent
import emck.operators as operators
import emck.reports as reports_module
import emck.theorems as theorems
from emck import (
    AssumptionViolated,
    EpistemicModel,
    GenParams,
    InvariantError,
    Prior,
    ResourceLimit,
    SetFunction,
    SigmaAlgebra,
    TooManyAtoms,
    TypeMapping,
    enumerate_models,
    is_regular,
    kripke_properties,
    partitions,
    random_interactive_model,
    random_model,
    search_counterexample,
)
from emck.dslio import serialize_model
from emck.fixtures import as_interactive
from emck.modelgen import REQUIRE_FLAGS, satisfies_require

from helpers import declare_broken_claim, family_split, naive_random_search


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

    @pytest.mark.parametrize("mode", ["enumerate", "random"])
    def test_a_negative_budget_is_refused_and_zero_visits_nothing(self, mode):
        with pytest.raises(ValueError, match="^budget must be at least 0$"):
            search_counterexample("theorem-main", GenParams(budget=-1), mode=mode)
        with pytest.raises(ValueError, match="^budget must be at least 0$"):
            replace(GenParams(), budget=-1)
        result = search_counterexample("theorem-main", GenParams(budget=0), mode=mode)
        assert (result.found, result.models_checked, result.hypothesis_skips) == (False, 0, 0)


class TestBuildingBlocks:
    def test_weight_counts_are_compositions(self):
        got = list(mg._weight_counts(2, 2))
        assert got == [(0, 2), (1, 1), (2, 0)]

    def test_positive_weight_counts_drop_zeros(self):
        got = list(mg._weight_counts(2, 2, positive=True))
        assert got == [(1, 1)]

    def test_weight_count_counts(self):
        # compositions of d into n nonnegative parts: C(d + n - 1, n - 1)
        assert len(list(mg._weight_counts(3, 4))) == 15
        assert len(list(mg._weight_counts(1, 6))) == 1
        # positive compositions: C(d - 1, n - 1)
        assert len(list(mg._weight_counts(3, 6, positive=True))) == 10

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
        tables = {m.types.per_state for m in models}
        assert len(tables) == 9  # 3 weight splits per state, squared

    def test_stream_is_deterministic(self):
        params = GenParams(
            n_states=2, weight_denominator=2, poss_mode="arbitrary-nonempty"
        )
        a = [(m.prior, m.poss.cells, m.types.per_state) for m in enumerate_models(params)]
        b = [(m.prior, m.poss.cells, m.types.per_state) for m in enumerate_models(params)]
        assert a == b

    def test_stream_is_duplicate_free(self):
        params = GenParams(
            n_states=2, weight_denominator=2, poss_mode="arbitrary-nonempty",
            type_mode="random-additive",
        )
        seen = set()
        for m in enumerate_models(params):
            key = (m.prior, m.poss.cells, m.types.per_state)
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
            assert all(n > 0 for n in m.prior.int_weights[1])
            assert satisfies_require(m, ("partition", "full-support"))

    def test_full_support_param_restricts_priors(self):
        base = GenParams(n_states=2, weight_denominator=2)
        strict = GenParams(n_states=2, weight_denominator=2, full_support=True)
        assert {m.prior.int_weights for m in enumerate_models(strict)} == {(2, (1, 1))}
        assert len({m.prior.int_weights for m in enumerate_models(base)}) == 3


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
        assert a.prior == b.prior
        assert a.poss.cells == b.poss.cells
        assert a.types.per_state == b.types.per_state
        c = random_model(params, seed=124)
        different = (
            a.prior != c.prior
            or a.poss.cells != c.poss.cells
            or a.types.per_state != c.types.per_state
        )
        assert different

    def test_unconstrained_capacities_can_be_non_monotone(self):
        params = GenParams(
            n_states=2, weight_denominator=2, type_mode="random-capacity"
        )
        hit = False
        for seed in range(40):
            m = random_model(params, seed=seed)
            if any(not sf.monotone for sf in m.types.per_state):
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
                assert sf.monotone

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

    def test_integer_draws_are_randranges(self):
        """``_below`` draws what ``Random.randrange`` draws and leaves the
        rng in the same state."""
        for n in range(1, 18):
            for seed in range(200):
                ours, stdlib = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    assert mg._below(ours, n) == stdlib.randrange(n)
                    assert ours.getstate() == stdlib.getstate()

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


PINNED_DRAWS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "random_draws.txt"
)
PINNED_FAMILIES = [
    (sigma_mode, type_mode, poss_mode, full_support)
    for sigma_mode in mg.SIGMA_MODES
    for type_mode in mg.TYPE_MODES
    for poss_mode in mg.POSS_MODES
    for full_support in (False, True)
]


def _pinned_section(sigma_mode, type_mode, poss_mode, full_support) -> str:
    """The serialized draws of one family: ``random_model`` and a two-agent
    ``random_interactive_model`` at seeds 1 and 2, each as written (a Bayes
    draw as a ``bayes`` declaration) and with its types expanded when that
    differs.  Regenerate ``random_draws.txt`` by joining every section of
    ``PINNED_FAMILIES`` in order."""
    params = GenParams(
        n_states=3, weight_denominator=4, sigma_mode=sigma_mode, type_mode=type_mode,
        poss_mode=poss_mode, full_support=full_support,
    )
    head = f"## {sigma_mode} {type_mode} {poss_mode} full_support={full_support}"
    parts = [head]
    for seed in (1, 2):
        for label, imodel in (
            ("model", as_interactive(random_model(params, seed))),
            ("interactive", random_interactive_model(replace(params, n_agents=2), seed)),
        ):
            text = serialize_model(imodel)
            expanded = serialize_model(imodel, expand_types=True)
            parts.append(f"# {label} seed={seed}\n{text}")
            if expanded != text:
                parts.append(f"# {label} seed={seed} expanded\n{expanded}")
    return "\n".join(parts)


class TestSeedStability:
    """Every seed keeps drawing the same model: the serialized draws of every
    sigma, type, poss and support mode are pinned in ``golden/random_draws.txt``."""

    @pytest.fixture(scope="class")
    def sections(self):
        with open(PINNED_DRAWS, encoding="utf-8") as fh:
            text = fh.read()
        return {s.split("\n", 1)[0]: "## " + s for s in text.split("## ")[1:]}

    @pytest.mark.parametrize(
        "family", PINNED_FAMILIES, ids=["-".join(map(str, f)) for f in PINNED_FAMILIES]
    )
    def test_the_draws_match_the_pinned_text(self, sections, family):
        got = _pinned_section(*family)
        assert sections[got.split("\n", 1)[0][3:]] == got + "\n"


# The random searches of ``TestRandomSearchOracle``: every non-Bayes type
# mode, both sigma modes, n = 2 and 3, each with four require sets, and one
# two-agent capacity family.
ORACLE_REQUIRES = [
    ("one-intersection",),
    ("monotone-types",),
    ("probability-types",),
    ("one-intersection", "regular"),
]
ORACLE_FAMILIES = [
    GenParams(
        n_states=n,
        weight_denominator=3,
        sigma_mode=sigma_mode,
        type_mode=type_mode,
        poss_mode=mg.POSS_MODES[(n + i) % 3],
        require=require,
        seed=1000 * n + 10 * i,
        budget=60,
    )
    for n in (2, 3)
    for sigma_mode in mg.SIGMA_MODES
    for i, type_mode in enumerate(mg.TYPE_MODES[1:])
    for require in ORACLE_REQUIRES
] + [
    GenParams(
        n_states=2,
        weight_denominator=2,
        type_mode="random-monotone-capacity",
        poss_mode="reflexive",
        require=("one-intersection",),
        n_agents=2,
        budget=60,
    )
]


class TestRandomSearchOracle:
    """A random search equals ``helpers.naive_random_search``, which keeps
    the whole draws of ``random_model`` that pass ``require``: the same
    result, the same kept seeds, and the rejection cap at the same draw,
    though the search stops a draw at its first table outside a type-local
    flag of ``require``."""

    @staticmethod
    def _search(monkeypatch, claim, params):
        """``search_counterexample``'s outcome (its ``SearchResult``, or
        the ``ResourceLimit`` message), the seeds of the draws its loop
        was given, and the number of draws it made."""
        # every draw is kept alive, so no two draws share an id
        draws, kept = [], []
        seed_of = {}
        draw, model_search = mg._draw, mg._model_search

        def recording_draw(params, seed, *rest):
            draws.append(draw(params, seed, *rest))
            seed_of[id(draws[-1])] = seed
            return draws[-1]

        def recording_search(name, models):
            return model_search(name, (kept.append(seed_of[id(m)]) or m for m in models))

        monkeypatch.setattr(mg, "_draw", recording_draw)
        monkeypatch.setattr(mg, "_model_search", recording_search)
        try:
            outcome = search_counterexample(claim, params, "random")
        except ResourceLimit as exc:
            outcome = str(exc)
        finally:
            monkeypatch.undo()
        return outcome, kept, len(draws)

    @pytest.mark.parametrize(
        "params",
        ORACLE_FAMILIES,
        ids=lambda p: "-".join(
            (f"n{p.n_states}", p.sigma_mode, p.type_mode, f"{p.n_agents}agents", *p.require)
        ),
    )
    def test_the_search_is_the_naive_search(self, monkeypatch, params):
        claim = "prop-1" if params.n_agents == 1 else "cor-ta-common"
        ours = self._search(monkeypatch, claim, params)
        assert ours == naive_random_search(claim, params)
        assert ours[2] >= 60

    @pytest.mark.parametrize(
        "require, message",
        [
            ((), "rejected 1000 consecutive draws outside the full-support family"),
            (("regular",), "require filter rejected 1000 consecutive draws"),
        ],
    )
    def test_the_rejection_cap_names_what_rejected_the_draws(
        self, monkeypatch, require, message
    ):
        """One atom per state on the 1/1 grid puts almost every
        random-partition algebra outside the full-support family.  With no
        ``require`` those are the only rejected draws, and the message
        names them instead of the filter."""
        params = GenParams(
            n_states=12,
            weight_denominator=1,
            sigma_mode="random-partition",
            full_support=True,
            require=require,
            budget=5,
            seed=5,
        )
        ours = self._search(monkeypatch, "prop-2", params)
        assert ours == (message, [], 1000)
        assert ours == naive_random_search("prop-2", params)

    def test_the_counterexample_is_the_naive_searchs(self, monkeypatch):
        """A search that finds a counterexample returns the naive search's
        model and report, at the same counts and kept seeds."""
        claim = declare_broken_claim(monkeypatch)
        params = replace(ORACLE_FAMILIES[3], budget=5)
        expected = naive_random_search(claim, params)
        assert expected[0].found
        assert self._search(monkeypatch, claim, params) == expected


class TestSharedAlgebra:
    """The family's powerset algebra is built once per (n, atom cap) and
    shared by every draw and stream of that n; a draw keeps no other
    component across calls."""

    PARAMS = GenParams(n_states=3, weight_denominator=4, type_mode="random-capacity")

    def test_draws_at_one_n_hold_one_algebra(self):
        interactive = replace(self.PARAMS, n_agents=2, type_mode="bayes")
        first = random_model(self.PARAMS, 1)
        draws = (
            random_model(self.PARAMS, 2),
            random_model(replace(self.PARAMS, type_mode="bayes"), 3),
            random_interactive_model(interactive, 1),
            random_interactive_model(interactive, 2),
            next(enumerate_models(replace(self.PARAMS, type_mode="random-additive"))),
        )
        assert all(m.sigma is first.sigma for m in draws)
        assert first.prior is not draws[0].prior
        assert first.types is not draws[0].types

    def test_a_draw_at_another_n_holds_another_algebra(self):
        three = random_model(self.PARAMS, 1).sigma
        two = random_model(replace(self.PARAMS, n_states=2), 1).sigma
        assert two is not three and two.n_atoms == 2

    def test_random_partition_draws_share_only_the_space(self):
        params = replace(self.PARAMS, sigma_mode="random-partition")
        a, b = (random_model(params, seed).sigma for seed in (1, 2))
        assert a is not b and a.space is b.space

    def test_a_lowered_atom_cap_refuses_after_a_draw_at_the_same_n(self, monkeypatch):
        """A cap lowered after the algebra has listed its events refuses as
        it does on a fresh algebra: the Bayes draw, the event list of a
        capacity draw and the stream all raise, and the default cap then
        serves the first algebra again."""
        monkeypatch.delenv("EMCK_MAX_ATOMS", raising=False)
        bayes = replace(self.PARAMS, type_mode="bayes", poss_mode="arbitrary-nonempty")
        stream = replace(self.PARAMS, type_mode="random-additive", poss_mode="arbitrary-nonempty")
        before = random_model(bayes, 1)
        assert len(random_model(self.PARAMS, 1).sigma.events()) == 8
        next(enumerate_models(stream))
        monkeypatch.setenv("EMCK_MAX_ATOMS", "2")
        message = r"^3 atoms exceed the enumeration cap 2 \(override with EMCK_MAX_ATOMS\)$"
        with pytest.raises(TooManyAtoms, match=message):
            random_model(bayes, 1)
        with pytest.raises(TooManyAtoms, match=message):
            random_model(self.PARAMS, 1).sigma.events()
        with pytest.raises(TooManyAtoms, match=message):
            next(enumerate_models(stream))
        monkeypatch.delenv("EMCK_MAX_ATOMS")
        assert random_model(bayes, 1).sigma is before.sigma


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

    @pytest.mark.parametrize(
        "poss_mode, claim, split",
        [
            ("arbitrary-nonempty", "theorem-main", (181_440, 263_088)),
            ("arbitrary-nonempty", "theorem-main-product", (444_528, 0)),
            ("reflexive", "theorem-main", (41_472, 41_472)),
        ],
    )
    def test_main_claims_hold_on_the_three_state_half_grid(self, poss_mode, claim, split):
        # 6 priors x 6^3 additive type vectors x 7^3 (arbitrary nonempty)
        # or 4^3 (reflexive) correspondences
        params = GenParams(
            n_states=3,
            weight_denominator=2,
            type_mode="random-additive",
            poss_mode=poss_mode,
        )
        result = search_counterexample(claim, params)
        assert not result.found
        assert (result.models_checked, result.hypothesis_skips) == split

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

    @staticmethod
    def _counted_draws(monkeypatch) -> list:
        """The (seed, draw) of every draw a search makes, each through
        ``modelgen._draw``, the one draw function of every random stream;
        a draw past the consecutive-rejection cap raises."""
        draws = []
        draw = mg._draw

        def counting_draw(params, seed, *rest):
            if len(draws) == 1000:
                raise AssertionError("drew past the consecutive-rejection cap")
            draws.append((seed, draw(params, seed, *rest)))
            return draws[-1][1]

        monkeypatch.setattr(mg, "_draw", counting_draw)
        return draws

    def test_require_filter_gives_up_after_1000_consecutive_rejections(self, monkeypatch):
        # additive types almost never come out of this capacity family, so
        # every draw is rejected; the cap must not grow with the budget
        draws = self._counted_draws(monkeypatch)
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

    def test_a_draw_stopped_at_a_table_counts_toward_the_rejection_cap(self, monkeypatch):
        """With a type-local flag in ``require``, every draw of a family
        where no table passes it stops at a table and gives no model, and
        1000 such draws end the search as 1000 rejected models do."""
        draws = self._counted_draws(monkeypatch)
        params = GenParams(
            n_states=2,
            weight_denominator=6,
            type_mode="random-capacity",
            poss_mode="arbitrary-nonempty",
            require=("probability-types",),
            budget=60,
            seed=5,
        )
        with pytest.raises(ResourceLimit, match="rejected 1000 consecutive draws"):
            search_counterexample("prop-1", params, mode="random")
        assert [seed for seed, _ in draws] == list(range(5, 1005))
        assert {model for _, model in draws} == {None}

    def test_a_draw_outside_a_full_support_family_is_a_rejected_draw(self, monkeypatch):
        """A random-partition algebra with more atoms than the denominator
        of a full-support family carries no prior of the family: its draw
        gives no model, and the search draws on; such draws count toward
        the cap as rejected models do."""
        draws = self._counted_draws(monkeypatch)
        params = GenParams(
            n_states=3,
            weight_denominator=2,
            sigma_mode="random-partition",
            full_support=True,
            budget=20,
        )
        result = search_counterexample("prop-2", params, mode="random")
        assert (result.found, result.models_checked) == (False, 20)
        atoms = {
            seed: mg._random_sigma(params, random.Random(seed)).n_atoms for seed, _ in draws
        }
        assert [seed for seed, model in draws if model is None] == [
            seed for seed, n in atoms.items() if n == 3
        ] == [5, 12, 13, 20, 21]
        draws.clear()
        # one atom per state on the 1/1 grid: almost every algebra is outside
        many = replace(params, n_states=12, weight_denominator=1, budget=5, seed=5)
        with pytest.raises(ResourceLimit, match="rejected 1000 consecutive draws"):
            search_counterexample("prop-2", many, mode="random")
        assert [seed for seed, _ in draws] == list(range(5, 1005))
        assert {model for _, model in draws} == {None}

    def test_oversized_capacity_family_is_refused_before_any_table_is_built(
        self, monkeypatch
    ):
        built = []
        assign = mg.SetFunction._assign

        def counting_assign(sf, *args):
            built.append(args)
            return assign(sf, *args)

        monkeypatch.setattr(mg.SetFunction, "_assign", counting_assign)
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

            build.from_ints = build  # the integer constructor refuses too
            return build

        for name in ("Prior", "PossibilityCorrespondence", "SetFunction", "TypeMapping"):
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
                    fields = dict(
                        n_states=n,
                        weight_denominator=d,
                        sigma_mode=sigma_mode,
                        type_mode=type_mode,
                        poss_mode=poss_mode,
                        full_support=full_support,
                    )
                    if _empty(n, d, sigma_mode, full_support):
                        with pytest.raises(ValueError, match="denominator too small"):
                            GenParams(**fields)
                        continue
                    params = GenParams(**fields)
                    for sigma in mg._sigmas(params, mg._space_for(n)):
                        k = sigma.n_atoms
                        lists = {
                            "priors per algebra": lambda: list(
                                mg._weight_counts(k, d, full_support)
                            ),
                            "possibility correspondences per algebra": lambda: mg._poss_list(
                                sigma, mg._atom_cells(params, sigma)
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

    def test_harness_flags_a_deliberately_broken_claim(self, monkeypatch):
        """Self-test: a claim whose kernel rejects regular partition models is
        caught immediately, proving the loop inspects real verdicts."""
        name = declare_broken_claim(monkeypatch)
        params = GenParams(n_states=2, weight_denominator=2)
        result = search_counterexample(name, params)
        assert result.found
        assert result.model is not None
        assert result.report is not None
        assert result.report.status == "falsified"
        assert is_regular(result.model).passed

    def test_found_results_report_the_first_stream_index(self, monkeypatch):
        name = declare_broken_claim(monkeypatch)
        params = GenParams(n_states=2, weight_denominator=2)
        first = next(iter(enumerate_models(params)))
        result = search_counterexample(name, params)
        assert result.models_checked == 1
        assert result.model.prior == first.prior
        assert result.model.poss.cells == first.poss.cells


SINGLE_CLAIMS = [name for name, claim in mg.CLAIMS.items() if claim.kind == "single"]
INTERACTIVE_CLAIMS = [name for name, claim in mg.CLAIMS.items() if claim.kind == "interactive"]


def _report_status_of(claim, model):
    """The status of ``claim``'s report on ``model``, AssumptionViolated
    counted as hypothesis-not-met.  Where the claim takes a diagnostic, the
    diagnostic report, which never raises, has that status too."""
    verifier = mg.CLAIMS[claim]
    try:
        status = verifier.report(model).status
    except AssumptionViolated:
        status = "hypothesis-not-met"
    if verifier.diagnostic:
        assert verifier.report(model, diagnostic=True).status == status, (claim, model)
    return status


def _status_of(claim, model):
    """The search's reading of ``claim`` on ``model``: hypothesis-not-met
    where a kernel that the claim names in ``hypotheses`` fails, and its
    status, which never raises, everywhere else."""
    if not satisfies_require(model, mg.CLAIMS[claim].hypotheses):
        return "hypothesis-not-met"
    return mg.CLAIMS[claim].status(model)


PROP1_SHARED = ("finite-algebra", "monotone-types", "one-intersection")

# Every claim's parts: each part's asserting conditions and the condition
# under which it asserts only the forward implication.
PART_CONDITIONS = {
    "theorem-main": ([("positive-cells",)], [None]),
    "theorem-main-product": ([()], ["null-cell"]),
    "prop-1": ([PROP1_SHARED, (*PROP1_SHARED, "t-omega-equals-1")], [None, None]),
    "prop-2": ([(), ()], [None, None]),
    "prop-3": ([("regular",)], [None]),
    "cor-main": ([("discrete",), ("discrete", "regular")], [None, None]),
    "cor-unaware": ([("discrete", "regular")], [None]),
    "cor-regular": (
        [
            ("positive-cells",),
            ("probability-types", "invariance", "entailment", "self-evidence"),
            ("p-equals-bracket", "probability-types", "positive-cells"),
        ],
        [None, None, None],
    ),
    "cor-ta": ([("regular",)], [None]),
    "cor-ck": ([("discrete", "regular")], [None]),
    "cor-ta-common": ([("regular",)], [None]),
}

# The two-agent draws of the interactive part tests: non-regular ones occur.
TWO_AGENT_DRAWS = GenParams(
    n_states=3, weight_denominator=2, type_mode="random-additive", poss_mode="reflexive",
    n_agents=2,
)


def _empty(n, d, sigma_mode, full_support):
    """Whether the family of n states on the 1/d grid has no model: no
    full-support prior on its powerset exists.  ``GenParams`` refuses it."""
    return full_support and sigma_mode == "powerset" and d < n


def _status_families():
    """Every nonempty n <= 2 family; the unconstrained capacity grid has 3^4
    tables per atom on 1/2 weights (787,000 models at n=2, minutes of
    reports), so it runs on the 1/1 grid only."""
    for sigma_mode, type_mode, poss_mode in product(mg.SIGMA_MODES, mg.TYPE_MODES, mg.POSS_MODES):
        for n in (1, 2):
            for d in (1,) if type_mode == "random-capacity" else (1, 2):
                for full_support in (False, True):
                    if _empty(n, d, sigma_mode, full_support):
                        continue
                    yield GenParams(
                        n_states=n,
                        weight_denominator=d,
                        sigma_mode=sigma_mode,
                        type_mode=type_mode,
                        poss_mode=poss_mode,
                        full_support=full_support,
                    )


def _distinct_small_models():
    """Each distinct model of the ``_status_families`` once: the families
    overlap (a full-support family is part of its family, a partition is
    reflexive, and the random-partition algebras at n=2 include the
    powerset)."""
    built = set()
    for params in _status_families():
        for model in enumerate_models(params):
            key = (
                model.sigma.atoms,
                model.prior.int_table,
                model.types.int_tables,
                model.poss.cells,
            )
            if key not in built:
                built.add(key)
                yield model


class TestClaimStatus:
    """Every claim's status equals its report's status, and builds no
    witness where the claim holds; the search asks it, and builds the report
    of its counterexample only."""

    def test_every_status_is_its_reports_status_on_every_small_family(self):
        seen = Counter()
        regular_null = nonregular_null = 0
        for model in _distinct_small_models():
            for claim in SINGLE_CLAIMS:
                status = _status_of(claim, model)
                assert status == _report_status_of(claim, model), (claim, model)
                seen[claim, status] += 1
            if model.has_null_cells:
                if model.regular:
                    regular_null += 1
                else:
                    nonregular_null += 1
        # the forward-only rule of theorem-main-product is exercised on both
        # sides of its premise (theorem-main skips every null-cell model)
        assert regular_null > 0 and nonregular_null > 0
        for claim in SINGLE_CLAIMS:
            assert seen[claim, "verified"] > 0, claim
            assert seen[claim, "falsified"] == 0, claim
            has_hypotheses = bool(mg.CLAIMS[claim].hypotheses)
            assert (seen[claim, "hypothesis-not-met"] > 0) == has_hypotheses, claim

    def test_every_interactive_status_is_its_reports_status_on_seeded_draws(self):
        seen = Counter()
        for n_states, n_agents, (type_mode, poss_mode, d) in product(
            (1, 2, 3), (2, 3), [("bayes", "partition", 6), ("random-additive", "reflexive", 2)]
        ):
            params = GenParams(
                n_states=n_states,
                weight_denominator=d,
                type_mode=type_mode,
                poss_mode=poss_mode,
                n_agents=n_agents,
            )
            for seed in range(40):
                imodel = random_interactive_model(params, seed)
                for claim in INTERACTIVE_CLAIMS:
                    status = _status_of(claim, imodel)
                    assert status == _report_status_of(claim, imodel), (claim, params, seed)
                    seen[claim, status] += 1
        for claim in INTERACTIVE_CLAIMS:
            assert seen[claim, "verified"] > 0 and seen[claim, "hypothesis-not-met"] > 0, claim
            assert seen[claim, "falsified"] == 0, claim

    @pytest.mark.parametrize(
        "claim, module, kernel, broken",
        [
            ("prop-1", theorems, "_inclusion_sweep", lambda sweep: lambda model, mode: (
                (model.types.int_tables[0], 0, 0) if mode == "b1-neg" else sweep(model, mode)
            )),
            ("prop-2", theorems, "_inclusion_sweep", lambda sweep: lambda model, mode: (
                (model.types.int_tables[0], 0, 0) if mode == "k-pos" else sweep(model, mode)
            )),
            ("cor-main", theorems, "_bracket_equality_violation", lambda _: lambda model: 0),
            ("cor-ck", multiagent, "_operator_law_hits", lambda laws: lambda sigma, op: (
                *laws(sigma, op)[:2], (0, 0)
            )),
        ],
        ids=["prop-1", "prop-2", "cor-main", "cor-ck"],
    )
    def test_a_broken_kernel_falsifies_the_status_and_the_report_alike(
        self, monkeypatch, claim, module, kernel, broken
    ):
        monkeypatch.setattr(module, kernel, broken(getattr(module, kernel)))
        if mg.CLAIMS[claim].kind == "single":
            models = enumerate_models(GenParams(
                n_states=2,
                weight_denominator=2,
                type_mode="random-additive",
                poss_mode="arbitrary-nonempty",
                full_support=True,
            ))
        else:
            params = GenParams(n_states=3, weight_denominator=6, n_agents=2)
            models = (random_interactive_model(params, seed) for seed in range(20))
        seen = Counter()
        for model in models:
            status = _status_of(claim, model)
            assert status == _report_status_of(claim, model), model
            seen[status] += 1
        assert seen["falsified"] > 0 and seen["verified"] + seen["hypothesis-not-met"] > 0, seen

    def test_every_claim_holds_its_declared_parts(self):
        assert list(PART_CONDITIONS) == list(mg.CLAIMS)
        for name, claim in mg.CLAIMS.items():
            assert claim.parts is theorems._PARTS[name], name

    @pytest.mark.parametrize("claim", list(PART_CONDITIONS))
    def test_a_part_declared_status_is_its_reports_on_every_value_of_its_kernels(
        self, monkeypatch, claim
    ):
        """No model falsifies these claims, so each status is compared with
        its report on every assignment of the kernels that its parts read
        (asserting conditions, forward-only condition, both sides and every
        conclusion), on a model with positive cells and on one with a null
        cell, or on two two-agent draws.  A kernel fails with its own hit on
        the model where it has one, else with a hit it finds on another
        model of the same space, so that the report can name the witness;
        the agreement kernel's report reads the model at its hit, so prop-3
        runs on draws where that kernel fails.  Status and report agree
        outside the hypotheses too, where a verifier that raises counts as
        hypothesis-not-met.  Each part asserts its equivalence under the
        conditions the statement gives it."""
        asserted, forward_only = PART_CONDITIONS[claim]
        parts = theorems._PARTS[claim]
        assert [part.asserted for part in parts] == asserted
        assert [part.forward_only for part in parts] == forward_only
        names = sorted(
            {n for part in parts for n in (*part.asserted, *part.lhs, *part.rhs, part.forward_only)}
            - {None}
        )
        if mg.CLAIMS[claim].kind == "interactive":
            kernels = multiagent._INTERACTIVE_KERNELS
            pool = [
                random_interactive_model(
                    replace(TWO_AGENT_DRAWS, poss_mode=poss_mode, type_mode=type_mode), seed
                )
                for poss_mode in ("reflexive", "arbitrary-nonempty")
                for type_mode in ("random-additive", "random-capacity")
                for seed in range(60)
            ]
            models = [m for m in pool if kernels["agreement"](m) is not None][:2]
        else:
            kernels = theorems._KERNELS
            family = list(enumerate_models(GenParams(
                n_states=2, weight_denominator=2, type_mode="random-additive",
                poss_mode="reflexive",
            )))
            pool = family + list(enumerate_models(GenParams(
                n_states=2, weight_denominator=1, type_mode="random-capacity",
                poss_mode="arbitrary-nonempty",
            )))
            models = [
                next(m for m in family if not m.has_null_cells),
                next(m for m in family if m.has_null_cells),
            ]
        assert len(models) == 2
        def failing_hit(name, model):
            """The kernel's hit on ``model``, else on the pool.  A kernel that
            fails nowhere there (finite-algebra, or C's Positive
            Introspection, which its transitive closure makes hold) gets the
            event-sweep hit (event 0, state 0)."""
            hits = (kernels[name](m) for m in (model, *pool))
            return next((hit for hit in hits if hit is not None), (0, 0))

        failing = [{name: failing_hit(name, model) for name in names} for model in models]
        seen = Counter()
        for model, fails in zip(models, failing):
            for values in product((False, True), repeat=len(names)):
                for name, value in zip(names, values):
                    hit = None if value else fails[name]
                    monkeypatch.setitem(kernels, name, lambda model, hit=hit: hit)
                status = mg.CLAIMS[claim].status(model)
                assert status == _report_status_of(claim, model), dict(zip(names, values))
                seen[status] += 1
        assert seen["verified"] and seen["falsified"], seen
        assert bool(seen["hypothesis-not-met"]) == bool(mg.CLAIMS[claim].hypotheses), seen

    @pytest.mark.parametrize("claim", ["prop-1", "prop-2", "cor-regular"])
    def test_a_nested_part_report_holds_the_status_of_its_part(self, monkeypatch, claim):
        """Each nested part report stores the rule's verdict for its part
        alone, on every assignment of the kernels that the claim's parts
        read.  A kernel fails with its own hit on the model where it has
        one, else with one it finds on another model of the same space."""
        parts = theorems._PARTS[claim]
        names = sorted({n for part in parts for n in (*part.asserted, *part.lhs, *part.rhs)})
        kernels = theorems._KERNELS
        family = list(enumerate_models(GenParams(
            n_states=2, weight_denominator=2, type_mode="random-additive", poss_mode="reflexive",
        )))
        pool = family + list(enumerate_models(GenParams(
            n_states=2, weight_denominator=1, type_mode="random-capacity",
            poss_mode="arbitrary-nonempty",
        )))
        model = next(m for m in family if not m.has_null_cells)
        fails = {
            name: next((hit for hit in map(kernels[name], pool) if hit is not None), (0, 0))
            for name in names
        }
        fails.update((name, hit) for name in names if (hit := kernels[name](model)) is not None)
        seen = Counter()
        for values in product((False, True), repeat=len(names)):
            for name, value in zip(names, values):
                monkeypatch.setitem(kernels, name, lambda m, hit=None if value else fails[name]: hit)
            holds = dict(zip(names, values)).__getitem__
            for nested in mg.CLAIMS[claim].report(model).parts:
                (part,) = (part for part in parts if part.name == nested.claim)
                assert nested.status == theorems._parts_status((part,), holds), (
                    part.name, dict(zip(names, values))
                )
                seen[nested.status] += 1
        assert seen["verified"] and seen["falsified"], seen
        assert bool(seen["hypothesis-not-met"]) == any(part.asserted for part in parts), seen

    def test_a_report_asks_each_kernel_at_most_once(self, monkeypatch):
        """verify_prop1, verify_prop2 and verify_cor_regular read every verdict
        and witness from one set of hits, so each asks each kernel at most
        once per model, on every distinct model of the n <= 2 families; among them
        are prop-2 models whose rhs fails, whose witness it reads from the
        same hit."""
        calls = Counter()
        for name, kernel in list(theorems._KERNELS.items()):
            monkeypatch.setitem(
                theorems._KERNELS,
                name,
                lambda model, name=name, kernel=kernel: calls.update([name]) or kernel(model),
            )
        verifiers = (theorems.verify_prop1, theorems.verify_prop2, theorems.verify_cor_regular)
        rhs_failed = 0
        for model in _distinct_small_models():
            for verifier in verifiers:
                calls.clear()
                report = verifier(model)
                assert calls and max(calls.values()) == 1, (verifier, calls)
                if verifier is theorems.verify_prop2:
                    rhs_failed += not all(part.rhs for part in report.parts)
        assert rhs_failed > 0

    def test_a_search_builds_no_report_until_it_finds_a_counterexample(self, monkeypatch):
        """A search that finds nothing builds no witness: an exhaustive one
        of a single-agent claim on the 1/1 capacity grid and the 1/2
        additive grid, or a random one of an interactive claim.  It calls no
        claim's ``report``, and theorem-main's status never builds
        ``_theorem_main_report``."""
        reports = []
        witnesses = []
        build = theorems._theorem_main_report
        monkeypatch.setattr(
            theorems,
            "_theorem_main_report",
            lambda model, claim: reports.append(claim) or build(model, claim),
        )
        for name, claim in mg.CLAIMS.items():
            report = claim.report
            counting = lambda model, name=name, report=report, **kw: (
                reports.append(name) or report(model, **kw)
            )
            monkeypatch.setitem(mg.CLAIMS, name, replace(claim, report=counting))
        for module in (reports_module, axioms, theorems, multiagent):
            build = module._witness_at
            monkeypatch.setattr(
                module,
                "_witness_at",
                lambda *args, build=build, **kw: witnesses.append(args) or build(*args, **kw),
            )
        families = [
            GenParams(
                n_states=2,
                weight_denominator=1,
                type_mode="random-capacity",
                poss_mode="arbitrary-nonempty",
            ),
            GenParams(
                n_states=2,
                weight_denominator=2,
                type_mode="random-additive",
                poss_mode="arbitrary-nonempty",
            ),
        ]
        draws = [
            GenParams(n_states=3, weight_denominator=6, n_agents=2, budget=100),
            replace(families[1], n_states=3, poss_mode="reflexive", n_agents=2, budget=100),
        ]
        for name, claim in mg.CLAIMS.items():
            if claim.kind == "single":
                results = [search_counterexample(name, params) for params in families]
            else:
                results = [search_counterexample(name, params, "random") for params in draws]
            assert not any(result.found for result in results), name
            assert sum(result.models_checked for result in results) > 0, name
        assert reports == []
        assert witnesses == []

    def test_every_declared_hypothesis_is_a_require_flag_and_a_reported_one(self):
        """A claim names ``REQUIRE_FLAGS`` kernels, and its report carries
        every name its claim declares: exactly the ``REQUIRE_FLAGS`` names
        among the report's hypotheses, since the part rule asks no kernel
        that the claim declares."""
        single = GenParams(n_states=2, weight_denominator=2, full_support=True)
        interactive = GenParams(n_states=2, weight_denominator=6, n_agents=2, full_support=True)
        for name, claim in mg.CLAIMS.items():
            assert set(claim.hypotheses) <= set(REQUIRE_FLAGS), name
            if claim.kind == "single":
                models = enumerate_models(single)
            else:
                models = (random_interactive_model(interactive, seed) for seed in range(40))
            model = next(m for m in models if satisfies_require(m, claim.hypotheses))
            report = claim.report(model)
            reported = {h.name for h in report.hypotheses}
            assert set(claim.hypotheses) <= reported, (name, reported)
            assert report.status != "hypothesis-not-met", name
            assert set(claim.hypotheses) == reported & set(REQUIRE_FLAGS), name

    @pytest.mark.parametrize("name", [name for name, c in mg.CLAIMS.items() if c.hypotheses])
    def test_a_claim_missing_a_hypothesis_stops_the_search(self, monkeypatch, name):
        """A model outside a claim's hypotheses that its declaration misses
        is never counted: its status there is hypothesis-not-met, which
        makes the search raise RuntimeError, whether the claim's verifier
        raises outside its hypotheses or reports them.  The single-agent
        family is searched model by model (partition mode has no block
        count); each family holds models outside every hypothesis."""
        claim = replace(mg.CLAIMS[name], hypotheses=())
        monkeypatch.setitem(mg.CLAIMS, name, claim)
        if claim.kind == "interactive":
            params, mode = replace(TWO_AGENT_DRAWS, budget=40), "random"
        else:
            params, mode = GenParams(
                n_states=2, weight_denominator=1, sigma_mode="random-partition",
                type_mode="random-capacity", poss_mode="partition",
            ), "enumerate"
        with pytest.raises(RuntimeError, match="inside its declared hypotheses"):
            search_counterexample(name, params, mode)

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
        monkeypatch.setattr(theorems, "_almost_reverse_mask", lambda prior, types, cells: 1)
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


def _families():
    """Every nonempty n <= 2 family the block search serves, and the n = 3
    grid on 1/1 weights with additive types."""
    for sigma_mode, type_mode, poss_mode, n in product(
        mg.SIGMA_MODES,
        ("random-additive", "random-capacity", "random-monotone-capacity"),
        ("reflexive", "arbitrary-nonempty"),
        (1, 2),
    ):
        for d in (1,) if type_mode == "random-capacity" else (1, 2):
            for full_support in (False, True):
                if _empty(n, d, sigma_mode, full_support):
                    continue
                yield GenParams(
                    n_states=n,
                    weight_denominator=d,
                    sigma_mode=sigma_mode,
                    type_mode=type_mode,
                    poss_mode=poss_mode,
                    full_support=full_support,
                )
    for sigma_mode, poss_mode, full_support in product(
        mg.SIGMA_MODES, ("reflexive", "arbitrary-nonempty"), (False, True)
    ):
        if _empty(3, 1, sigma_mode, full_support):
            continue
        yield GenParams(
            n_states=3,
            weight_denominator=1,
            sigma_mode=sigma_mode,
            type_mode="random-additive",
            poss_mode=poss_mode,
            full_support=full_support,
        )


def _per_model(claim, params):
    """The search as the per-model loop runs it over the whole stream."""
    return mg._model_search(claim, islice(enumerate_models(params), params.budget))


def _break_at(monkeypatch, state, cell):
    """Make condition (iii) fail at ``state`` whenever its cell is ``cell``."""
    kernel = theorems._almost_reverse_mask

    def broken(prior, types, cells):
        return kernel(prior, types, cells) | (cells[state] == cell) << state

    monkeypatch.setattr(theorems, "_almost_reverse_mask", broken)


def _counting_models(monkeypatch):
    """The list of models ``mg.EpistemicModel`` builds from now on."""
    built = []
    model = mg.EpistemicModel

    def counting(*args):
        built.append(args)
        return model(*args)

    monkeypatch.setattr(mg, "EpistemicModel", counting)
    return built


class TestBlockSearch:
    """An exhaustive search of a claim with a block count over a family of
    per-atom cells counts (prior, types) blocks; its result must be the
    per-model loop's, counterexample and report included."""

    CLAIMS = ("theorem-main", "theorem-main-product")

    def test_blocks_give_the_per_model_result_on_every_small_family(self):
        """The counts are also the arithmetic ones of ``family_split``; the
        product form has no hypothesis, so it checks every model."""
        for params in _families():
            checked, skipped = family_split(params)
            splits = {"theorem-main": (checked, skipped), "theorem-main-product": (checked + skipped, 0)}
            for claim in self.CLAIMS:
                result = search_counterexample(claim, params)
                assert not result.found, (claim, params)
                assert result == _per_model(claim, params), (claim, params)
                assert (result.models_checked, result.hypothesis_skips) == splits[claim]

    def test_the_arithmetic_split_of_the_n4_half_grid(self):
        """c01's shape at n = 4 on the 1/2 grid, 5,062,500,000 models: the
        split that ``search_counterexample("theorem-main", ...)`` returns
        for it, in about 15 s, too long for this suite."""
        params = GenParams(
            n_states=4,
            weight_denominator=2,
            type_mode="random-additive",
            poss_mode="arbitrary-nonempty",
        )
        assert family_split(params) == (1_408_000_000, 3_654_500_000)

    def test_a_sweep_of_a_holding_family_builds_no_model(self, monkeypatch):
        built = _counting_models(monkeypatch)
        params = GenParams(
            n_states=3,
            weight_denominator=1,
            type_mode="random-additive",
            poss_mode="arbitrary-nonempty",
        )
        assert family_split(params) == (5_184, 22_599)
        for claim, split in zip(self.CLAIMS, [(5_184, 22_599), (27_783, 0)]):
            result = search_counterexample(claim, params)
            assert not result.found
            assert (result.models_checked, result.hypothesis_skips) == split
        assert built == []

    def test_a_broken_kernel_is_found_by_replaying_its_block(self, monkeypatch):
        """Condition (iii) broken at the first state whenever its cell is
        Omega: the first block holding a regular model with that cell is
        replayed, and its first counterexample, report and counts are the
        per-model loop's."""
        _break_at(monkeypatch, 0, 0b11)
        found = {claim: 0 for claim in self.CLAIMS}
        for params in _families():
            if params.n_states != 2:
                continue
            for claim in self.CLAIMS:
                built = _counting_models(monkeypatch)
                result = search_counterexample(claim, params)
                monkeypatch.setattr(mg, "EpistemicModel", EpistemicModel)
                assert result == _per_model(claim, params), (claim, params)
                if result.found:
                    found[claim] += 1
                    # one block is replayed: at most its 9 correspondences
                    assert 0 < len(built) <= 9, (claim, params)
                    assert result.report.status == "falsified"
                else:
                    assert built == [], (claim, params)
        assert all(count > 0 for count in found.values()), found

    @pytest.mark.parametrize("broken", [False, True])
    @pytest.mark.parametrize(
        "type_mode, poss_mode", [
            ("random-additive", "arbitrary-nonempty"),
            ("random-additive", "partition"),
            ("bayes", "arbitrary-nonempty"),
        ]
    )
    def test_every_budget_gives_the_per_model_result(
        self, monkeypatch, broken, type_mode, poss_mode
    ):
        """Every budget up to past the family's size, so budgets end inside
        blocks, at their edges, at the end of an algebra and of the family.
        The counted family is the one-atom algebra's single model, then
        3 priors x 9 type mappings, each a block of 9 correspondences; the
        partition and Bayes families expand every block."""
        if broken:
            _break_at(monkeypatch, 1, 0b11)
        params = GenParams(
            n_states=2,
            weight_denominator=2,
            sigma_mode="random-partition",
            type_mode=type_mode,
            poss_mode=poss_mode,
        )
        size = sum(1 for _ in enumerate_models(params))
        if poss_mode == "arbitrary-nonempty" and type_mode != "bayes":
            assert size == 1 + 3 * 9 * 9
        built = _counting_models(monkeypatch)
        for claim in self.CLAIMS:
            # a budget of 0 builds nothing
            nothing = search_counterexample(claim, replace(params, budget=0))
            assert nothing == mg.SearchResult(claim, False, 0, 0)
        assert built == []
        for claim in self.CLAIMS:
            found = []
            for budget in range(0, size + 2):
                budgeted = replace(params, budget=budget)
                result = search_counterexample(claim, budgeted)
                assert result == _per_model(claim, budgeted), (claim, budget)
                assert result.found or result.models_checked + result.hypothesis_skips == min(
                    budget, size
                )
                found.append(result.found)
            assert any(found) == broken
            # a budget that ends before the first counterexample finds none
            assert found[0] is False

    @pytest.mark.parametrize(
        "params, split, refused", [
            # as in TestSearch, with the one-atom algebra's 1,681 blocks of
            # one correspondence each (its one cell is Omega); the
            # powerset's capacity tables would be refused if its components
            # were built
            (
                GenParams(
                    n_states=2,
                    weight_denominator=40,
                    sigma_mode="random-partition",
                    type_mode="random-capacity",
                    poss_mode="arbitrary-nonempty",
                    budget=1681,
                ),
                (1681, 0),
                "capacity tables per state",
            ),
            # an expanded block: the one-atom algebra's one Bayes model,
            # then the powerset's 2,000,001 priors would be refused
            (
                GenParams(
                    n_states=2,
                    weight_denominator=2_000_000,
                    sigma_mode="random-partition",
                    type_mode="bayes",
                    poss_mode="partition",
                    budget=1,
                ),
                (1, 0),
                "priors per algebra",
            ),
        ],
        ids=["counted", "expanded"],
    )
    def test_a_budget_that_ends_an_algebra_builds_nothing_of_the_next(
        self, params, split, refused
    ):
        for claim in self.CLAIMS:
            result = search_counterexample(claim, params)
            assert not result.found
            assert (result.models_checked, result.hypothesis_skips) == split
        with pytest.raises(ResourceLimit, match=refused):
            search_counterexample("theorem-main", replace(params, budget=params.budget + 1))

    def test_the_searches_a_block_cannot_count_run_model_by_model(self, monkeypatch):
        """A holding family that the block count decides builds no model;
        every other search builds one model per model it walks, the ones a
        ``require`` filter drops included."""
        built = _counting_models(monkeypatch)
        base = GenParams(
            n_states=2,
            weight_denominator=2,
            type_mode="random-additive",
            poss_mode="arbitrary-nonempty",
        )
        result = search_counterexample("theorem-main", base)
        assert (result.found, result.models_checked + result.hypothesis_skips) == (False, 243)
        assert built == []
        for params, claim, mode in [
            (replace(base, poss_mode="partition"), "theorem-main", "enumerate"),
            (replace(base, type_mode="bayes"), "theorem-main", "enumerate"),
            (replace(base, require=("regular",)), "theorem-main", "enumerate"),
            (base, "prop-2", "enumerate"),
            (replace(base, budget=20), "theorem-main", "random"),
        ]:
            built.clear()
            result = search_counterexample(claim, params, mode)
            visited = result.models_checked + result.hypothesis_skips
            assert not result.found and visited > 0, (params, claim, mode)
            if params.require:
                # 3 priors x 9 type mappings x 9 correspondences, filtered
                assert visited < len(built) == 243, (params, claim, mode)
            else:
                assert len(built) == visited, (params, claim, mode)

    @pytest.mark.parametrize("budget", [None, 9, 3])
    def test_a_block_count_that_its_models_contradict_raises(self, monkeypatch, budget):
        """The kernels count a model of the first block as falsified, but none
        of its models is: once the per-model loop has visited the whole block, the
        search raises instead of ending early.  A budget that cuts the block
        short ends the search as the per-model loop does."""
        params = GenParams(
            n_states=2,
            weight_denominator=1,
            type_mode="random-additive",
            poss_mode="arbitrary-nonempty",
            budget=budget,
        )
        claim = mg.CLAIMS["theorem-main"]
        blocks = []

        def first_block_falsified(prior, types, per_atom):
            counts = claim.block(prior, types, per_atom)
            blocks.append(prior)
            if len(blocks) == 1:
                counts["verified"] -= 1
                counts["falsified"] = counts.get("falsified", 0) + 1
            return counts

        monkeypatch.setitem(
            mg.CLAIMS, "theorem-main", replace(claim, block=first_block_falsified)
        )
        if budget == 3:
            result = search_counterexample("theorem-main", params)
            assert result == _per_model("theorem-main", params)
            assert (result.found, result.models_checked + result.hypothesis_skips) == (False, 3)
        else:
            # the first block is 9 correspondences; the family is (32, 40)
            with pytest.raises(RuntimeError, match="^internal inconsistency: "):
                search_counterexample("theorem-main", params)
        assert len(blocks) == 1


class TestBlockKernels:
    """The block count decides the product identity as one equality of
    integer tables, and the per-state kernels that read no prior once per
    (type mapping, cell); each against the kernel or oracle it stands for."""

    EXHAUSTIVE_ADDITIVE = GenParams(
        n_states=3,
        weight_denominator=1,
        type_mode="random-additive",
        poss_mode="arbitrary-nonempty",
    )

    def test_the_equality_product_mask_is_the_per_event_oracle(self):
        """On every model of every n <= 2 family and of the n = 3 additive
        family on 1/1 weights: the states of ``_product_misses``, which
        compares t(omega, E) mu(P(omega)) with mu(E & P(omega)) event by
        event, are the states whose type is not mu(. | P(omega)) where
        that cell is positive."""
        seen = Counter()
        for params in (*_status_families(), self.EXHAUSTIVE_ADDITIVE):
            for model in enumerate_models(params):
                prior, types, cells = model.prior, model.types, model.poss.cells
                oracle = 0
                for _, i in theorems._product_misses(prior, types, cells):
                    oracle |= 1 << i
                assert theorems._product_mask(prior, types, cells) == oracle, model
                seen[model.has_null_cells, oracle != 0] += 1
        # null and positive cells, holding and failing states all occur
        assert len(seen) == 4 and min(seen.values()) > 500, seen

    def test_each_cached_mask_is_its_kernel_on_the_constant_correspondence(self):
        """After every block of each family is counted, each type mapping
        has reused its masks across the priors and each prior its null-cell
        masks across the type mappings; each kept mask equals its kernel on
        a fresh component, and each kept mu(. | C) equals the one built on
        a fresh prior."""
        kept = 0
        for params in (*_families(), self.EXHAUSTIVE_ADDITIVE):
            components = []
            for prior, types, per_atom, _ in mg._blocks(params):
                if types is None or per_atom is None:
                    continue
                mg.CLAIMS["theorem-main"].block(prior, types, per_atom)
                components.append((prior, types, {c for cells in per_atom for c in cells}))
            for prior, types, cells in components:
                assert set(types.cell_masks) == cells
                fresh = TypeMapping(types.sigma, types.per_state)
                for cell, masks in types.cell_masks.items():
                    constant = (cell,) * len(types.per_state)
                    assert masks == (
                        axioms._regular_mask(fresh, constant),
                        axioms._containment_mask(fresh, constant, 2),
                    ), (params, cell)
                    kept += 1
                fresh_prior = Prior.from_ints(prior.sigma, *prior.int_weights)
                assert set(prior.cell_masks) == cells
                for cell, null in prior.cell_masks.items():
                    constant = (cell,) * len(types.per_state)
                    assert null == operators._null_cell_mask(fresh_prior, constant)
                for cell, conditional in prior.conditionals.items():
                    assert conditional == theorems._conditional(fresh_prior, cell)
        assert kept > 10_000

    @pytest.mark.parametrize("name", ["theorem-main", "theorem-main-product"])
    def test_the_status_table_is_the_part_rule_on_all_16_inputs(self, name):
        """The table a claim's block count reads, built once with the claim,
        holds at entry ``flags | whole << 3`` the status that the part rule
        gives the three cell flags and the whole-model verdict."""
        claim = mg.CLAIMS[name]
        parts = theorems._PARTS[name]
        statuses = claim.block.keywords["statuses"]
        assert len(statuses) == 16
        for positive, cells_regular, conditions, whole in product((False, True), repeat=4):
            holds = {
                "positive-cells": positive,
                "null-cell": not positive,
                "entailment": cells_regular,
                "self-evidence": cells_regular,
                "probability-types": whole,
                "invariance": whole,
                "product-identity": conditions,
                "bracket-containment": conditions,
                "almost-sure-reverse-containment": conditions,
            }.__getitem__
            if all(map(holds, claim.hypotheses)):
                expected = theorems._parts_status(parts, holds)
            else:
                expected = "hypothesis-not-met"
            index = positive | cells_regular << 1 | conditions << 2 | whole << 3
            assert statuses[index] == expected, (name, index)
        assert {"verified", "falsified"} <= set(statuses)


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
                        got = [
                            tuple(map(sf.value, sigma.events()))
                            for sf in mg._capacity_grid(sigma, params)
                        ]
                        assert got == expected, (n, d, sigma)

    def test_oversized_monotone_capacity_family_is_refused_before_any_table_is_built(
        self, monkeypatch
    ):
        built = []
        assign = mg.SetFunction._assign

        def counting_assign(sf, *args):
            built.append(args)
            return assign(sf, *args)

        monkeypatch.setattr(mg.SetFunction, "_assign", counting_assign)
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
