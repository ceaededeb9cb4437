"""Randomized property tests over generated models.

Each property draws a model from a seeded family and checks a law that must
hold for every model of that family — operator algebra, oracle agreement,
step-function structure of thresholds, serialization identity, and the
never-falsified status of the verified claims.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from emck import (
    AssumptionViolated,
    DuplicateState,
    GenParams,
    HypothesisNotMet,
    InteractiveModel,
    InvalidStateName,
    ModelDoc,
    PossibilityCorrespondence,
    Prior,
    SetFunction,
    TypeMapping,
    bayes_type_from_poss,
    common_p_belief,
    common_qualitative,
    eval_in_doc,
    kripke_properties,
    make_space,
    mutual_p_belief,
    mutual_qualitative,
    p_belief,
    parse_model,
    qualitative_belief,
    random_interactive_model,
    random_model,
    serialize_doc,
    serialize_model,
    set_function_from_atom_weights,
    sigma_from_atoms,
    sigma_powerset,
    verify_cor_regular,
    verify_cor_unaware,
    verify_prop2,
    verify_theorem_main,
)
from emck.beliefs import bracket, down_set, up_set
from emck.fixtures import as_interactive, three_state_partition
from helpers import (
    members,
    naive_b,
    naive_bracket,
    naive_down,
    naive_k,
    naive_up,
)

F = Fraction

settings.register_profile("emck-properties", deadline=None, max_examples=60)
settings.load_profile("emck-properties")

# bayes entries need full support: the finest partition has no positive-cell
# prior on a grid coarser than the state count, and the draw would exhaust
# its retries
PARAM_GRID = (
    GenParams(n_states=2, weight_denominator=3, full_support=True),
    GenParams(n_states=3, weight_denominator=3, full_support=True),
    GenParams(
        n_states=3,
        weight_denominator=4,
        poss_mode="reflexive",
        type_mode="random-additive",
    ),
    GenParams(
        n_states=4,
        weight_denominator=2,
        poss_mode="arbitrary-nonempty",
        type_mode="random-capacity",
    ),
    GenParams(
        n_states=3,
        weight_denominator=3,
        poss_mode="arbitrary-nonempty",
        type_mode="random-monotone-capacity",
    ),
    GenParams(
        n_states=3,
        weight_denominator=3,
        sigma_mode="random-partition",
        poss_mode="arbitrary-nonempty",
        type_mode="random-capacity",
    ),
)

REGULAR_PARAMS = (
    GenParams(n_states=2, weight_denominator=4, full_support=True),
    GenParams(n_states=3, weight_denominator=6, full_support=True),
    GenParams(n_states=4, weight_denominator=4, full_support=True),
)

models = st.builds(
    random_model, st.sampled_from(PARAM_GRID), seed=st.integers(0, 10**6)
)
regular_models = st.builds(
    random_model, st.sampled_from(REGULAR_PARAMS), seed=st.integers(0, 10**6)
)
imodels = st.builds(
    random_interactive_model,
    st.sampled_from(
        (
            GenParams(n_states=3, weight_denominator=4, n_agents=2, full_support=True),
            GenParams(n_states=3, weight_denominator=3, n_agents=3, poss_mode="reflexive"),
        )
    ),
    seed=st.integers(0, 10**6),
)
combo_picker = st.integers(0, 10**9)
thresholds = st.sampled_from(
    [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]
)


def pick_event(sigma, picker: int):
    masks = sigma.event_masks
    return sigma.event_from_mask(masks[picker % len(masks)])


class TestKnowledge:
    @given(models, combo_picker)
    def test_matches_the_naive_oracle(self, model, picker):
        event = pick_event(model.sigma, picker)
        assert members(qualitative_belief(model, event)) == naive_k(model, members(event))

    @given(models, combo_picker, combo_picker)
    def test_monotone_and_conjunctive(self, model, pa, pb):
        e = pick_event(model.sigma, pa)
        f = pick_event(model.sigma, pb)
        ke = qualitative_belief(model, e)
        kf = qualitative_belief(model, f)
        if e.is_subset(f):
            assert ke.is_subset(kf)
        both = qualitative_belief(model, e.intersect(f))
        assert both == ke.intersect(kf)

    @given(models)
    def test_necessitation_and_self_support(self, model):
        sigma = model.sigma
        assert qualitative_belief(model, sigma.full_event) == sigma.full_event
        for i, name in enumerate(sigma.space.states):
            cell = sigma.event_from_mask(model.poss.cells[i])
            assert name in qualitative_belief(model, cell)


class TestPBelief:
    @given(models, combo_picker, thresholds)
    def test_matches_the_naive_oracle(self, model, picker, p):
        event = pick_event(model.sigma, picker)
        assert members(p_belief(model, p, event)) == naive_b(model, p, event)

    @given(models, combo_picker, thresholds, thresholds)
    def test_antitone_in_the_threshold(self, model, picker, p, q):
        event = pick_event(model.sigma, picker)
        lo, hi = min(p, q), max(p, q)
        assert p_belief(model, hi, event).is_subset(p_belief(model, lo, event))

    @given(models, combo_picker, thresholds)
    def test_step_function_in_the_critical_thresholds(self, model, picker, p):
        event = pick_event(model.sigma, picker)
        cuts = model.types.thresholds
        if p > 0:
            step = min((c for c in cuts if c >= p), default=None)
            assume(step is not None)
            assert p_belief(model, p, event) == p_belief(model, step, event)

    @given(models, combo_picker)
    def test_zero_threshold_is_trivial(self, model, picker):
        event = pick_event(model.sigma, picker)
        assert p_belief(model, F(0), event) == model.sigma.full_event


class TestTypeOrderSets:
    @given(models)
    def test_order_sets_match_the_naive_oracle(self, model):
        for name in model.sigma.space.states:
            assert members(up_set(model.types, name)) == naive_up(model, name)
            assert members(down_set(model.types, name)) == naive_down(model, name)
            assert members(bracket(model.types, name)) == naive_bracket(model, name)

    @given(models)
    def test_bracket_cells_partition_the_space(self, model):
        space = model.sigma.space
        seen = set()
        for name in space.states:
            cell = members(bracket(model.types, name))
            assert name in cell
            for other in cell:
                assert members(bracket(model.types, other)) == cell
            seen |= cell
        assert seen == set(space.states)

    @given(models)
    def test_bracket_is_the_meet_of_up_and_down(self, model):
        for name in model.sigma.space.states:
            up = up_set(model.types, name)
            down = down_set(model.types, name)
            assert up.intersect(down) == bracket(model.types, name)


class TestClaimsNeverFalsified:
    @given(regular_models)
    def test_bayes_full_support_models_verify_the_main_claim(self, model):
        report = verify_theorem_main(model)
        assert report.status == "verified"
        assert report.lhs is True and report.rhs is True

    @given(models)
    def test_belief_characterization_claim_is_never_falsified(self, model):
        report = verify_prop2(model)
        assert not report.falsified
        assert report.status == "verified"

    @given(models)
    def test_regularity_corollary_is_never_falsified(self, model):
        try:
            report = verify_cor_regular(model)
        except (AssumptionViolated, HypothesisNotMet):
            return
        assert not report.falsified

    @given(models)
    def test_main_claim_is_never_falsified_outside_hypotheses_too(self, model):
        try:
            report = verify_theorem_main(model)
        except AssumptionViolated:
            return
        assert not report.falsified


class TestKripkeBridge:
    @given(models)
    def test_relational_and_operator_verdicts_agree(self, model):
        report = kripke_properties(model)
        sigma = model.sigma
        cells = model.poss.cells
        n = len(sigma.space)
        reflexive = all(cells[i] >> i & 1 for i in range(n))
        transitive = all(
            not (cells[i] >> j & 1) or (cells[j] | cells[i]) == cells[i]
            for i in range(n)
            for j in range(n)
        )
        euclidean = all(
            not (cells[i] >> j & 1) or (cells[i] | cells[j]) == cells[j]
            for i in range(n)
            for j in range(n)
        )
        verdicts = {c.name: c.passed for c in report.children}
        assert verdicts["reflexive"] == reflexive
        assert verdicts["transitive"] == transitive
        assert verdicts["euclidean"] == euclidean
        # the witness events in each direction are the cells P(omega), which
        # are measurable by construction, so the frame correspondences hold
        # on coarse algebras too
        assert verdicts["truth-axiom"] == reflexive
        assert verdicts["positive-introspection"] == transitive
        assert verdicts["negative-introspection"] == euclidean
        assert report.passed == model.poss.is_partition


    @given(models)
    def test_unawareness_is_the_negative_introspection_failure_of_k(self, model):
        unaware = verify_cor_unaware(model, diagnostic=True)
        children = {c.name: c for c in kripke_properties(model).children}
        introspection = children["negative-introspection"]
        assert unaware.passed == introspection.passed
        assert [(w.state, w.event) for w in unaware.witnesses] == [
            (w.state, w.event) for w in introspection.witnesses
        ]


class TestEventAlgebra:
    @given(models, combo_picker, combo_picker)
    def test_de_morgan_laws(self, model, pa, pb):
        e = pick_event(model.sigma, pa)
        f = pick_event(model.sigma, pb)
        assert e.union(f).complement() == e.complement().intersect(f.complement())
        assert e.intersect(f).complement() == e.complement().union(f.complement())
        assert e.complement().complement() == e

    @given(models, combo_picker, combo_picker)
    def test_set_operations_agree_with_python_sets(self, model, pa, pb):
        e = pick_event(model.sigma, pa)
        f = pick_event(model.sigma, pb)
        assert members(e.union(f)) == members(e) | members(f)
        assert members(e.intersect(f)) == members(e) & members(f)
        assert members(e.complement()) == set(model.sigma.space.states) - members(e)


class TestInteractive:
    @given(imodels, combo_picker)
    def test_common_belief_lies_below_mutual_belief(self, imodel, picker):
        event = pick_event(imodel.sigma, picker)
        assert common_qualitative(imodel, event).is_subset(
            mutual_qualitative(imodel, event)
        )
        for p in (F(1, 2), F(1)):
            assert common_p_belief(imodel, p, event).is_subset(
                mutual_p_belief(imodel, p, event)
            )

    @given(imodels, combo_picker, thresholds, thresholds)
    def test_common_p_belief_antitone(self, imodel, picker, p, q):
        event = pick_event(imodel.sigma, picker)
        lo, hi = min(p, q), max(p, q)
        assert common_p_belief(imodel, hi, event).is_subset(
            common_p_belief(imodel, lo, event)
        )

    @given(imodels, combo_picker)
    def test_common_qualitative_is_a_fixed_point(self, imodel, picker):
        event = pick_event(imodel.sigma, picker)
        c = common_qualitative(imodel, event)
        assert mutual_qualitative(imodel, c).intersect(c) == c
        assert common_qualitative(imodel, c) == c


class TestSerializationProperty:
    @given(models)
    @settings(deadline=None, max_examples=60)
    def test_single_agent_round_trip(self, model):
        imodel = as_interactive(model, "a1")
        doc = parse_model(serialize_model(imodel))
        assert doc.imodel == imodel

    @given(imodels)
    @settings(deadline=None, max_examples=40)
    def test_interactive_round_trip(self, imodel):
        doc = parse_model(serialize_model(imodel))
        assert doc.imodel == imodel
        assert serialize_model(doc.imodel) == serialize_model(imodel)

    @given(st.text(max_size=4), st.text(max_size=4))
    @settings(deadline=None, max_examples=200)
    def test_every_accepted_agent_and_event_name_round_trips(self, agent, event):
        try:
            imodel = as_interactive(three_state_partition(), agent)
            doc = ModelDoc(imodel, ((event, imodel.event(["2", "3"])),), ("bayes",))
        except InvalidStateName:
            assume(False)
        parsed = parse_model(serialize_doc(doc))
        assert parsed == doc
        # a name free of the expression grammar's own characters is an
        # expression name too
        if not set(agent + event) & set("~&|()[],"):
            model = imodel.agent_models[0]
            expected = qualitative_belief(model, imodel.event(["2", "3"]).complement())
            assert eval_in_doc(parsed, f"K[{agent}](~{event})") == expected

    @given(
        st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3, unique=True),
        st.sampled_from(("bayes", "additive", "capacity")),
        st.booleans(),
    )
    @settings(deadline=None, max_examples=200)
    def test_every_accepted_state_name_round_trips(self, names, decl, coarse):
        try:
            space = make_space(names)
        except (InvalidStateName, DuplicateState):
            assume(False)
        if coarse and len(names) > 1:
            sigma = sigma_from_atoms(space, [names[:2], *([n] for n in names[2:])])
        else:
            sigma = sigma_powerset(space)
        k = sigma.n_atoms
        atom_of = sigma.atom_index_of_state
        prior = Prior(sigma, (F(1, k),) * k)
        poss = PossibilityCorrespondence(sigma, tuple(sigma.atoms[j] for j in atom_of))
        if decl == "bayes":
            types = bayes_type_from_poss(sigma, prior, poss)
        elif decl == "additive":  # point mass on the state's own atom
            types = TypeMapping(sigma, tuple(
                set_function_from_atom_weights(sigma, tuple(F(int(i == j)) for i in range(k)))
                for j in atom_of
            ))
        else:  # unanimity: 1 on the whole space, 0 elsewhere
            full = (1 << k) - 1
            unanimity = SetFunction(sigma, tuple(F(int(c == full)) for c in range(full + 1)))
            types = TypeMapping(sigma, (unanimity,) * len(names))
        imodel = InteractiveModel(sigma, prior, ("alice",), (poss,), (types,))
        text = serialize_model(imodel, type_decls=(decl,))
        doc = parse_model(text)
        assert doc.imodel == imodel
        assert doc.type_decls == (decl,)
