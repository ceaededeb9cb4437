"""Model-document parsing/serialization and the operator-expression language.

Round trips are exact: parse(serialize(doc)) must reproduce the document
structurally (same algebra, rationals, cells, tables, named events), and
serialize(parse(text)) must be a fixpoint at the text level.  Expression
evaluation is differential-tested against the operator functions it
delegates to.
"""

from __future__ import annotations

import json
import random
import string
from fractions import Fraction

import pytest

from emck import (
    ConditioningOnNull,
    GenParams,
    IncompleteCapacity,
    InteractiveModel,
    InvalidStateName,
    InvariantError,
    NotMeasurable,
    ParseError,
    PossibilityCorrespondence,
    Prior,
    PriorNotNormalized,
    RationalOutOfRange,
    SetFunction,
    TypeMapping,
    common_p_belief,
    common_qualitative,
    doc_to_dict,
    eval_expr,
    eval_in_doc,
    make_space,
    p_belief,
    parse_expr,
    parse_model,
    qualitative_belief,
    random_interactive_model,
    random_model,
    serialize_doc,
    serialize_model,
    set_function_from_atom_weights,
    sigma_powerset,
)
from emck.dslio import (
    AndExpr,
    LiteralExpr,
    ModalExpr,
    ModelDoc,
    NameExpr,
    NotExpr,
    OrExpr,
    infer_type_decl,
)
from emck.errors import CapacityParseError, PriorParseError
from emck.fixtures import (
    as_interactive,
    null_state_slack,
    three_state_partition,
    two_agent_partitions,
    two_state_capacity,
)

W1_TEXT = (
    "states: 1 2 3\n"
    "sigma: powerset\n"
    "prior: 1=1/2 2=1/4 3=1/4\n"
    "agent alice:\n"
    "  poss: 1 -> {1}; 2 -> {2 3}; 3 -> {2 3}\n"
    "  type: bayes\n"
)

W1_EXPANDED = (
    "states: 1 2 3\n"
    "sigma: powerset\n"
    "prior: 1=1/2 2=1/4 3=1/4\n"
    "agent alice:\n"
    "  poss: 1 -> {1}; 2 -> {2 3}; 3 -> {2 3}\n"
    "  type: additive\n"
    "  1: 1=1 2=0 3=0\n"
    "  2: 1=0 2=1/2 3=1/2\n"
    "  3: 1=0 2=1/2 3=1/2\n"
)

CAPACITY_TEXT = (
    "states: a b\n"
    "sigma: powerset\n"
    "prior: a=1/2 b=1/2\n"
    "agent agent:\n"
    "  poss: a -> {a b}; b -> {a b}\n"
    "  type: capacity\n"
    "  a: {}=0 {a}=0 {b}=0 {a b}=1\n"
    "  b: {}=0 {a}=0 {b}=1 {a b}=1\n"
)

COARSE_TEXT = (
    "states: 1 2 3\n"
    "sigma: atoms {1} {2 3}\n"
    "prior: 1=1/2 2=1/2\n"
    "agent a:\n"
    "  poss: 1 -> {1}; 2 -> {2 3}; 3 -> {2 3}\n"
    "  type: additive\n"
    "  1: 1=1 2=0\n"
    "  2: 1=1/4 2=3/4\n"
    "  3: 1=1/4 2=3/4\n"
)

ONE_STATE_HEAD = "states: 1\nsigma: powerset\nprior: 1=1\nagent a:\n"
ONE_STATE_BAYES = ONE_STATE_HEAD + "  poss: 1 -> {1}\n  type: bayes\n"


def fixture_imodels():
    return [
        as_interactive(three_state_partition(), "alice"),
        as_interactive(null_state_slack(), "a"),
        as_interactive(two_state_capacity(), "agent"),
        two_agent_partitions(),
    ]


class TestRoundTrip:
    def test_fixture_serializations_parse_back_to_the_same_model(self):
        for imodel in fixture_imodels():
            text = serialize_model(imodel)
            doc = parse_model(text)
            assert doc.imodel == imodel
            assert serialize_doc(doc) == text

    @pytest.mark.parametrize("decl", ["additive", "capacity"])
    @pytest.mark.parametrize("n_states", [1, 2, 3])
    @pytest.mark.parametrize("keyword", ["states", "sigma", "prior", "poss", "type"])
    def test_a_state_named_after_a_section_keyword_round_trips(
        self, keyword, n_states, decl
    ):
        # the agent's table then has a row "KEYWORD: ..." after that section
        space = make_space((keyword, "b", "c")[:n_states])
        sigma = sigma_powerset(space)
        if decl == "additive":  # point mass at the state itself
            rows = [
                set_function_from_atom_weights(
                    sigma, tuple(Fraction(int(j == i)) for j in range(n_states))
                )
                for i in range(n_states)
            ]
        else:  # unanimity: 1 on the whole space, 0 elsewhere
            full = space.full_mask
            rows = [SetFunction(sigma, tuple(Fraction(int(c == full)) for c in range(full + 1)))]
            rows *= n_states
        imodel = InteractiveModel(
            sigma,
            Prior(sigma, (Fraction(1, n_states),) * n_states),
            ("alice",),
            (PossibilityCorrespondence(sigma, (space.full_mask,) * n_states),),
            (TypeMapping(sigma, tuple(rows)),),
        )
        text = serialize_model(imodel, type_decls=(decl,))
        doc = parse_model(text)
        assert doc.imodel == imodel
        assert doc.type_decls == (decl,)
        assert serialize_doc(doc) == text

    def test_w1_canonical_text_is_frozen(self):
        imodel = as_interactive(three_state_partition(), "alice")
        assert serialize_model(imodel) == W1_TEXT

    def test_capacity_fixture_canonical_text_is_frozen(self):
        imodel = as_interactive(two_state_capacity(), "agent")
        assert serialize_model(imodel) == CAPACITY_TEXT

    def test_messy_whitespace_and_comments_normalize_to_canonical(self):
        messy = (
            "# epistemic example, partition information\n"
            "states: 1 2 3\n"
            "\n"
            "sigma:   powerset\n"
            "prior:  1=2/4   2=1/4 3=1/4   # weights reduce on output\n"
            "agent alice:    # one agent\n"
            "    poss:  1 -> {1};  2 -> {2 3}; 3 -> {2 3}\n"
            "    type: bayes\n"
        )
        doc = parse_model(messy)
        assert serialize_doc(doc) == W1_TEXT
        assert doc == parse_model(W1_TEXT)

    def test_coarse_algebra_additive_document_round_trips(self):
        doc = parse_model(COARSE_TEXT)
        assert serialize_doc(doc) == COARSE_TEXT
        assert doc.imodel.sigma.n_atoms == 2
        reparsed = parse_model(serialize_doc(doc))
        assert reparsed == doc

    def test_named_events_survive_the_round_trip(self):
        text = W1_TEXT + "event E = {2 3}\nevent All = {1 2 3}\n"
        doc = parse_model(text)
        assert serialize_doc(doc) == text
        assert doc.events["E"].members == ("2", "3")
        assert doc.events["All"].members == ("1", "2", "3")

    def test_generated_models_round_trip(self):
        cases = []
        for seed in range(15):
            cases.append(
                random_model(
                    GenParams(n_states=3, weight_denominator=4), seed=seed
                )
            )
            cases.append(
                random_model(
                    GenParams(
                        n_states=3,
                        weight_denominator=3,
                        type_mode="random-capacity",
                        poss_mode="arbitrary-nonempty",
                        sigma_mode="random-partition",
                    ),
                    seed=seed,
                )
            )
            cases.append(
                random_model(
                    GenParams(
                        n_states=4,
                        weight_denominator=2,
                        type_mode="random-additive",
                        poss_mode="reflexive",
                    ),
                    seed=seed,
                )
            )
        for model in cases:
            imodel = as_interactive(model, "a1")
            text = serialize_model(imodel)
            doc = parse_model(text)
            assert doc.imodel == imodel
            assert serialize_doc(doc) == text

    def test_generated_interactive_models_round_trip(self):
        params = GenParams(
            n_states=3, weight_denominator=3, n_agents=3, poss_mode="reflexive"
        )
        for seed in range(10):
            imodel = random_interactive_model(params, seed=seed)
            text = serialize_model(imodel)
            doc = parse_model(text)
            assert doc.imodel == imodel
            assert serialize_doc(doc) == text


class TestParseModel:
    def test_bayes_declaration_derives_types_from_prior_and_cells(self):
        doc = parse_model(W1_TEXT)
        model = doc.model
        t2 = model.types.per_state[1]
        assert t2.table[0b010] == Fraction(1, 2)  # value at {2}
        assert t2.table[0b110] == 1  # value at {2,3}
        assert model.types.per_state[0].table[0b001] == 1  # t(1, {1})
        assert model == three_state_partition()

    def test_type_declarations_are_recorded_per_agent(self):
        doc = parse_model(W1_TEXT)
        assert doc.type_decls == ("bayes",)
        assert parse_model(CAPACITY_TEXT).type_decls == ("capacity",)
        assert parse_model(W1_EXPANDED).type_decls == ("additive",)

    def test_source_locations_are_recorded(self):
        doc = parse_model(W1_TEXT + "event E = {2 3}\n")
        assert doc.location("states") == 1
        assert doc.location("sigma") == 2
        assert doc.location("prior") == 3
        assert doc.location("agent alice") == 4
        assert doc.location("poss alice") == 5
        assert doc.location("type alice") == 6
        assert doc.location("event E") == 7
        assert doc.location("agent bob") is None

    def test_single_agent_model_accessor(self):
        doc = parse_model(W1_TEXT)
        assert doc.model is doc.imodel.agent_models[0]
        two = parse_model(serialize_model(two_agent_partitions()))
        with pytest.raises(InvariantError):
            two.model

    def test_prior_keyed_by_any_member_of_a_coarse_atom(self):
        variant = COARSE_TEXT.replace("prior: 1=1/2 2=1/2", "prior: 3=1/2 1=1/2")
        doc = parse_model(variant)
        assert doc.imodel.prior.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_zero_agent_document_is_rejected_as_a_model_error(self):
        with pytest.raises(InvariantError, match="at least one agent"):
            parse_model("states: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/2\n")

    def test_bayes_on_a_null_cell_is_rejected(self):
        text = (
            "states: 1 2\n"
            "sigma: powerset\n"
            "prior: 1=1 2=0\n"
            "agent a:\n"
            "  poss: 1 -> {1}; 2 -> {2}\n"
            "  type: bayes\n"
        )
        with pytest.raises(ConditioningOnNull):
            parse_model(text)

    def test_non_measurable_named_event_is_a_measurability_error(self):
        text = COARSE_TEXT + "event E = {2}\n"
        with pytest.raises(NotMeasurable, match="event E"):
            parse_model(text)

    def test_non_measurable_cell_is_a_measurability_error(self):
        text = COARSE_TEXT.replace("poss: 1 -> {1}; 2 -> {2 3}", "poss: 1 -> {1}; 2 -> {2}")
        with pytest.raises(NotMeasurable, match="agent 'a'"):
            parse_model(text)

    @pytest.mark.parametrize(
        "text, exc, line, fragment",
        [
            (
                "states: 1 2\nstates: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/2\n",
                ParseError,
                2,
                "duplicate states",
            ),
            (
                "states: 1\nsigma: powerset\nsigma: powerset\nprior: 1=1\n",
                ParseError,
                3,
                "duplicate sigma",
            ),
            (
                "states: 1\nsigma: powerset\nprior: 1=1\nprior: 1=1\n",
                ParseError,
                4,
                "duplicate prior",
            ),
            (
                "states: 1 2\nsigma: powerset\nprior: 1=0.5 2=1/2\n"
                "agent a:\n  poss: 1 -> {1}; 2 -> {2}\n  type: bayes\n",
                ParseError,
                3,
                "decimal notation",
            ),
            (
                "states: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/2\n"
                "agent a:\n  poss: 1 -> {1}; 2 -> {2 9}\n  type: bayes\n",
                ParseError,
                5,
                "unknown state '9'",
            ),
            (
                "states: 1\nsigma: powerset\nprior: 1=1\npossibly nonsense\n",
                ParseError,
                4,
                "unrecognized line",
            ),
            (
                "states: 1\nsigma: powerset\nprior: 1=1\n"
                "agent a:\n  poss: 1 -> {1}\n  type: bayes\n"
                "agent a:\n  poss: 1 -> {1}\n  type: bayes\n",
                ParseError,
                7,
                "duplicate agent 'a'",
            ),
            (
                "states: 1\nsigma: powerset\nprior: 1=1\n"
                "agent a:\n  poss: 1 -> {1}\n  type: frequentist\n",
                ParseError,
                6,
                "unknown type mode",
            ),
            (
                "states: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/2\n"
                "agent a:\n  poss: 1 -> {1}; 2 -> {2}\n  type: bayes\n  1: 1=1 2=0\n",
                ParseError,
                7,
                "takes no table rows",
            ),
            (
                "states: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/2\n"
                "agent a:\n  poss: 1 -> {1}\n  type: bayes\n",
                ParseError,
                5,
                "no cell for state '2'",
            ),
            (
                "states: 1\nsigma: powerset\nprior: 1=1\n"
                "agent a:\n  poss: 1 -> {1}; 1 -> {1}\n  type: bayes\n",
                ParseError,
                5,
                "duplicate cell",
            ),
            (
                "states: 1\nsigma: powerset\nprior: 1=1\n"
                "agent a:\n  poss: 1 -> {1}\n  type: capacity\n  1: {}=0 {1}=3/2\n",
                ParseError,
                7,
                "outside [0, 1]",
            ),
            (
                "states: 1 2 3\nsigma: atoms {1} {2 3}\nprior: 1=1/2 2=1/2\n"
                "agent a:\n  poss: 1 -> {1}; 2 -> {2 3}; 3 -> {2 3}\n"
                "  type: capacity\n"
                "  1: {}=0 {1}=1 {2}=0 {2 3}=0 {1 2 3}=1\n"
                "  2: {}=0 {1}=1 {2 3}=0 {1 2 3}=1\n"
                "  3: {}=0 {1}=1 {2 3}=0 {1 2 3}=1\n",
                CapacityParseError,
                7,
                "{2} is not an event of sigma",
            ),
            (
                "states: 1\nsigma: atoms {1} {1}\nprior: 1=1\n",
                ParseError,
                2,
                "",
            ),
            (
                ONE_STATE_HEAD + "  poss: 1 -> {1}\n  poss: 1 -> {1}\n  type: bayes\n",
                ParseError,
                6,
                "duplicate poss in agent 'a'",
            ),
            (
                ONE_STATE_HEAD + "  poss: 1 -> {1}\n  type: bayes\n  type: bayes\n",
                ParseError,
                7,
                "duplicate type in agent 'a'",
            ),
            (
                ONE_STATE_BAYES + "event E = {1}\nevent E = {1}\n",
                ParseError,
                8,
                "duplicate event 'E'",
            ),
            (
                "states: 1\nsigma: powerset\nprior: 1=1\n  poss: 1 -> {1}\n",
                ParseError,
                4,
                "poss: outside an agent block",
            ),
            (
                "states: 1\nsigma: powerset\nprior: 1=1\ntype: bayes\n",
                ParseError,
                4,
                "type: outside an agent block",
            ),
            (
                "# no names\nstates:\nsigma: powerset\n",
                ParseError,
                2,
                "states: needs at least one name",
            ),
            (
                ONE_STATE_HEAD + "  type: bayes\n",
                ParseError,
                4,
                "agent 'a': missing poss",
            ),
            (
                ONE_STATE_HEAD + "  poss: 1 -> {1}\n",
                ParseError,
                4,
                "agent 'a': missing type",
            ),
            (
                ONE_STATE_HEAD + "  poss: 1 -> {1}\n  type: additive\n  1: 1=1\n  1: 1=1\n",
                ParseError,
                8,
                "duplicate additive row for state '1'",
            ),
            (
                ONE_STATE_HEAD + "  poss: 1 -> {1}\n  type: capacity\n  1: {}=0 {1}=1 {1}=1\n",
                ParseError,
                7,
                "duplicate capacity entry for state '1', event {1}",
            ),
            (
                "states: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/2\n"
                "agent a:\n  poss: 1 -> {1}; 2 -> {2}\n"
                "  type: capacity\n  1: {}=0 {1}=1 {2}=0 {1 2}=1\n",
                CapacityParseError,
                6,
                "agent 'a': no capacity rows for state '2'",
            ),
            (
                "states: 1\nsigma: powerset\nprior: 1\n",
                ParseError,
                3,
                "expected name=value, got '1'",
            ),
            (
                ONE_STATE_HEAD + "  poss: 1 -> {1}\n  type: capacity\n  1: {}=0 {1}=1 junk\n",
                ParseError,
                7,
                "expected '{...}=p/q' entries, got 'junk'",
            ),
            (
                "states: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/2\n"
                "agent a:\n  poss: 1 -> {1}; 2 -> {2}\n"
                "  type: additive\n  1: 1=1\n  2: 1=0 2=1\n",
                CapacityParseError,
                7,
                "agent 'a', state '1': no weight for the atom of '2'",
            ),
            (
                "states: 1 2\nsigma: powerset\nprior: 1=1\n",
                PriorParseError,
                3,
                "no prior weight for the atom of '2'",
            ),
            (
                "states: 1\nsigma: everything\nprior: 1=1\n",
                ParseError,
                2,
                "sigma must be 'powerset' or 'atoms {...} ...', got 'everything'",
            ),
            (
                ONE_STATE_HEAD + "  poss: 1 {1}\n  type: bayes\n",
                ParseError,
                5,
                "expected 'state -> {...}', got '1 {1}'",
            ),
            (
                ONE_STATE_HEAD + "  poss: 1 -> {1}\n  type: additive\n  1: 1=1 1=0\n",
                CapacityParseError,
                7,
                "agent 'a', state '1': atom containing '1' given two weights",
            ),
            (
                "# two states\nstates: a:b c\nsigma: powerset\n",
                ParseError,
                2,
                "state name 'a:b' contains whitespace or one of #:;={}",
            ),
            (
                "states: c a=b\nsigma: powerset\n",
                ParseError,
                1,
                "state name 'a=b' contains whitespace or one of #:;={}",
            ),
            (
                ONE_STATE_HEAD.replace("agent a:", "agent a b:"),
                ParseError,
                4,
                "agent name 'a b' contains whitespace or one of #:;={}",
            ),
            (
                ONE_STATE_HEAD.replace("agent a:", "agent a;b:"),
                ParseError,
                4,
                "agent name 'a;b' contains whitespace or one of #:;={}",
            ),
            (
                ONE_STATE_HEAD + "  poss: 1 -> {1}\n  type: bayes\nevent a b = {1}\n",
                ParseError,
                7,
                "event name 'a b' contains whitespace or one of #:;={}",
            ),
            (
                ONE_STATE_HEAD + "  poss: 1 -> {1}\n  type: bayes\nevent {E} = {1}\n",
                ParseError,
                7,
                "event name '{E}' contains whitespace or one of #:;={}",
            ),
        ],
    )
    def test_errors_carry_type_line_and_message(self, text, exc, line, fragment):
        with pytest.raises(exc) as err:
            parse_model(text)
        assert err.value.line == line
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "cells, row_3, message",
        [
            (
                "1 -> {1}; 2 -> {2 3}; 3 -> {2 3}",
                "{}=0 {1}=1 {2 3}=0 {1 2 3}=1",
                "type mapping not measurable: t(., E) not constant on atom at 2",
            ),
            (
                "1 -> {1}; 2 -> {2 3}; 3 -> {1 2 3}",
                "{}=0 {1}=0 {2 3}=1 {1 2 3}=1",
                "possibility correspondence not measurable at event ('2', '3')",
            ),
        ],
    )
    def test_model_measurability_errors_name_the_first_violation(self, cells, row_3, message):
        text = (
            "states: 1 2 3\nsigma: atoms {1} {2 3}\nprior: 1=1/2 2=1/2\n"
            f"agent a:\n  poss: {cells}\n  type: capacity\n"
            "  1: {}=0 {1}=1 {2 3}=0 {1 2 3}=1\n"
            "  2: {}=0 {1}=0 {2 3}=1 {1 2 3}=1\n"
            f"  3: {row_3}\n"
        )
        with pytest.raises(NotMeasurable) as err:
            parse_model(text)
        assert str(err.value) == message

    def test_missing_sections_are_reported_without_a_line(self):
        for text, fragment in [
            ("sigma: powerset\nprior: 1=1\n", "missing states"),
            ("states: 1\nprior: 1=1\n", "missing sigma"),
            ("states: 1\nsigma: powerset\n", "missing prior"),
        ]:
            with pytest.raises(ParseError, match=fragment) as err:
                parse_model(text)
            assert err.value.line is None

    def test_unnormalized_prior_is_both_parse_and_normalization_error(self):
        text = (
            "states: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/3\n"
            "agent a:\n  poss: 1 -> {1}; 2 -> {2}\n  type: bayes\n"
        )
        with pytest.raises(PriorParseError) as err:
            parse_model(text)
        assert isinstance(err.value, ParseError)
        assert isinstance(err.value, PriorNotNormalized)
        assert err.value.line == 3
        assert "5/6" in str(err.value)

    def test_prior_weight_given_twice_for_one_atom(self):
        text = COARSE_TEXT.replace("prior: 1=1/2 2=1/2", "prior: 1=1/2 2=1/4 3=1/4")
        with pytest.raises(PriorParseError, match="given two weights") as err:
            parse_model(text)
        assert err.value.line == 3

    def test_missing_capacity_entry_is_both_parse_and_coverage_error(self):
        text = (
            "states: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/2\n"
            "agent a:\n  poss: 1 -> {1 2}; 2 -> {1 2}\n  type: capacity\n"
            "  1: {}=0 {1}=0 {2}=0\n"
            "  2: {}=0 {1}=0 {2}=0 {1 2}=1\n"
        )
        with pytest.raises(CapacityParseError) as err:
            parse_model(text)
        assert isinstance(err.value, ParseError)
        assert isinstance(err.value, IncompleteCapacity)
        assert "no entry for event {1 2}" in str(err.value)

    def test_missing_additive_row_is_a_coverage_error(self):
        text = (
            "states: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/2\n"
            "agent a:\n  poss: 1 -> {1}; 2 -> {2}\n  type: additive\n  1: 1=1 2=0\n"
        )
        with pytest.raises(CapacityParseError, match="no additive row for state '2'"):
            parse_model(text)


REFUSED_NAMES = pytest.mark.parametrize(
    "name",
    ["", "a b", "a\tb", "a\nb", "a\u00a0b", "a#b", "a:b", "a;b", "a=b", "{a", "a}"],
    ids=["empty", "space", "tab", "newline", "nbsp", "hash", "colon", "semicolon", "equals",
         "open-brace", "close-brace"],
)


def _refusal(kind: str, name: str) -> str:
    if not name:
        return f"{kind} names must be nonempty strings, got ''"
    return f"{kind} name {name!r} contains whitespace or one of #:;={{}}"


class TestNames:
    """Agent and event names follow the state-name rule: the text has no
    quoting, so a name it cannot carry is refused where it is made."""

    @REFUSED_NAMES
    def test_agent_names_the_model_text_cannot_carry_are_rejected(self, name):
        with pytest.raises(InvalidStateName) as exc:
            as_interactive(three_state_partition(), name)
        assert str(exc.value) == _refusal("agent", name)

    @REFUSED_NAMES
    def test_event_names_the_model_text_cannot_carry_are_rejected(self, name):
        imodel = as_interactive(three_state_partition())
        with pytest.raises(InvalidStateName) as exc:
            ModelDoc(imodel, ((name, imodel.sigma.full_event),), ("bayes",))
        assert str(exc.value) == _refusal("event", name)

    def test_duplicate_event_names_rejected(self):
        imodel = as_interactive(three_state_partition())
        events = (("E", imodel.event(["1"])), ("E", imodel.event(["2", "3"])))
        with pytest.raises(InvariantError) as exc:
            ModelDoc(imodel, events, ("bayes",))
        assert str(exc.value) == "event names must be unique"


class TestSerialize:
    def test_expand_types_replaces_bayes_with_explicit_tables(self):
        doc = parse_model(W1_TEXT)
        assert serialize_doc(doc, expand_types=True) == W1_EXPANDED

    def test_expanded_text_is_its_own_fixpoint_and_same_model(self):
        doc = parse_model(W1_TEXT)
        expanded = parse_model(serialize_doc(doc, expand_types=True))
        assert expanded.imodel == doc.imodel
        assert expanded.type_decls == ("additive",)
        assert serialize_doc(expanded) == W1_EXPANDED

    def test_type_declaration_inference_prefers_the_most_specific_form(self):
        w1 = three_state_partition()
        assert infer_type_decl(w1.sigma, w1.prior, w1.poss, w1.types) == "bayes"
        w4 = two_state_capacity()
        assert infer_type_decl(w4.sigma, w4.prior, w4.poss, w4.types) == "capacity"
        w2 = null_state_slack()
        # the dirac types happen to match the bayes derivation here
        assert infer_type_decl(w2.sigma, w2.prior, w2.poss, w2.types) == "bayes"
        doc = parse_model(COARSE_TEXT)
        m = doc.model
        assert infer_type_decl(m.sigma, m.prior, m.poss, m.types) == "additive"

    def test_singletons_summing_past_one_make_a_capacity(self):
        # t({1}) + t({2}) = 2: no additive row reproduces the table, and
        # building its subset sums would leave [0, 1]
        doc = parse_model(
            "states: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/2\nagent a:\n"
            "  poss: 1 -> {1 2}; 2 -> {1 2}\n  type: capacity\n"
            "  1: {}=0 {1}=1 {2}=1 {1 2}=1\n  2: {}=0 {1}=1 {2}=1 {1 2}=1\n"
        )
        m = doc.model
        assert infer_type_decl(m.sigma, m.prior, m.poss, m.types) == "capacity"
        assert serialize_doc(parse_model(serialize_model(doc.imodel))) == serialize_doc(doc)

    def test_doc_to_dict_is_json_ready(self):
        doc = parse_model(W1_TEXT + "event E = {2 3}\n")
        data = doc_to_dict(doc)
        dumped = json.loads(json.dumps(data))
        assert dumped == data
        assert data["states"] == ["1", "2", "3"]
        assert data["sigma"] == "powerset"
        assert data["prior"] == {"1": "1/2", "2": "1/4", "3": "1/4"}
        assert data["agents"][0]["name"] == "alice"
        assert data["agents"][0]["type"] == "bayes"
        assert "tables" not in data["agents"][0]
        assert data["agents"][0]["poss"]["2"] == ["2", "3"]
        assert data["events"] == {"E": ["2", "3"]}

    def test_doc_to_dict_expand_types_includes_tables(self):
        doc = parse_model(W1_TEXT)
        data = doc_to_dict(doc, expand_types=True)
        tables = data["agents"][0]["tables"]
        assert tables["2"]["{2}"] == "1/2"
        assert tables["1"]["{1}"] == "1"
        assert tables["2"]["{2 3}"] == "1"

    def test_coarse_sigma_appears_as_atom_lists_in_dict(self):
        doc = parse_model(COARSE_TEXT)
        data = doc_to_dict(doc)
        assert data["sigma"] == [["1"], ["2", "3"]]


class TestExpressionGrammar:
    def test_precedence_not_tighter_than_and_tighter_than_or(self):
        expr = parse_expr("~{1} & {2} | {3}")
        assert expr == OrExpr(
            AndExpr(NotExpr(LiteralExpr(("1",))), LiteralExpr(("2",))),
            LiteralExpr(("3",)),
        )

    def test_parentheses_override_precedence(self):
        expr = parse_expr("~({1} & ({2} | {3}))")
        assert expr == NotExpr(
            AndExpr(
                LiteralExpr(("1",)),
                OrExpr(LiteralExpr(("2",)), LiteralExpr(("3",))),
            )
        )

    def test_modal_operator_forms(self):
        assert parse_expr("K[alice]({2 3})") == ModalExpr(
            "K", LiteralExpr(("2", "3")), agent="alice"
        )
        assert parse_expr("B[alice,1/2](E)") == ModalExpr(
            "B", NameExpr("E"), agent="alice", p=Fraction(1, 2)
        )
        assert parse_expr("C(E)") == ModalExpr("C", NameExpr("E"))
        assert parse_expr("Cp[1](E)") == ModalExpr("Cp", NameExpr("E"), p=Fraction(1))

    def test_modal_operators_nest(self):
        expr = parse_expr("K[alice](B[bob,2/3]({1} | {2}))")
        assert expr == ModalExpr(
            "K",
            ModalExpr(
                "B",
                OrExpr(LiteralExpr(("1",)), LiteralExpr(("2",))),
                agent="bob",
                p=Fraction(2, 3),
            ),
            agent="alice",
        )

    def test_belief_threshold_outside_unit_interval_is_rejected(self):
        with pytest.raises(RationalOutOfRange):
            parse_expr("B[alice,3/2](E)")
        with pytest.raises(RationalOutOfRange):
            parse_expr("Cp[2](E)")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("{1} &", "unexpected end"),
            ("( {1}", "unexpected end"),
            ("K[alice]", "unexpected end"),
            ("{1} {2}", "trailing input"),
            ("{1} # {2}", "unexpected character '#'"),
            ("{1} @ {2}", "trailing input '@'"),
            ("B[alice]({1})", "expected ','"),
        ],
    )
    def test_expression_errors_carry_a_column(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert fragment in str(err.value)
        assert err.value.col is not None

    @pytest.mark.parametrize(
        "text, message, col",
        [
            ("B[a,x]({1})", "bad rational 'x': Invalid literal for Fraction: 'x' (col 5)", 5),
            (
                "Cp[1.5]({1})",
                "bad rational '1.5': decimal notation is not accepted: '1.5' (col 4)",
                4,
            ),
        ],
    )
    def test_a_bad_threshold_is_reported_at_its_column(self, text, message, col):
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert str(err.value) == message
        assert (err.value.line, err.value.col) == (None, col)


class TestEvalExpr:
    def test_knowledge_matches_the_operator_on_every_event(self):
        for imodel, name in [
            (as_interactive(three_state_partition(), "alice"), "alice"),
            (as_interactive(null_state_slack(), "a"), "a"),
            (as_interactive(two_state_capacity(), "agent"), "agent"),
        ]:
            model = imodel.agent_models[0]
            for event in imodel.sigma.events():
                literal = "{" + " ".join(event.members) + "}"
                assert eval_expr(imodel, f"K[{name}]({literal})") == (
                    qualitative_belief(model, event)
                )
                for p in ("0", "1/2", "1"):
                    assert eval_expr(imodel, f"B[{name},{p}]({literal})") == (
                        p_belief(model, Fraction(p), event)
                    )
                assert eval_expr(imodel, f"~{literal}") == event.complement()

    def test_common_operators_match_on_every_event(self):
        imodel = two_agent_partitions()
        for event in imodel.sigma.events():
            literal = "{" + " ".join(event.members) + "}"
            assert eval_expr(imodel, f"C({literal})") == common_qualitative(
                imodel, event
            )
            for p in (Fraction(1, 3), Fraction(1)):
                assert eval_expr(imodel, f"Cp[{p}]({literal})") == common_p_belief(
                    imodel, p, event
                )

    def test_set_connectives_compose(self):
        imodel = as_interactive(three_state_partition(), "alice")
        sigma = imodel.sigma
        assert eval_expr(imodel, "{1} | {2 3}") == sigma.full_event
        assert eval_expr(imodel, "{1} & {2 3}") == sigma.empty_event
        assert eval_expr(imodel, "~{1} & {2 3}") == sigma.event_from_mask(0b110)
        assert (
            eval_expr(imodel, "K[alice]({2 3}) | K[alice]({1})") == sigma.full_event
        )

    def test_composite_example_on_the_agreement_fixture(self):
        doc = parse_model(serialize_model(two_agent_partitions()) + "event E = {1}\n")
        result = eval_in_doc(doc, "~B[alice,1/2](E) & Cp[1](E)")
        direct = (
            p_belief(doc.imodel.agent_model("alice"), Fraction(1, 2), doc.events["E"])
            .complement()
            .intersect(common_p_belief(doc.imodel, Fraction(1), doc.events["E"]))
        )
        assert result == direct
        assert result.is_empty

    def test_named_events_resolve_inside_documents(self):
        doc = parse_model(W1_TEXT + "event E = {2 3}\n")
        assert eval_in_doc(doc, "K[alice](E)").members == ("2", "3")
        assert eval_in_doc(doc, "~E").members == ("1",)

    def test_every_name_the_text_carries_is_an_expression_name(self):
        imodel = as_interactive(three_state_partition(), "a@b")
        doc = ModelDoc(imodel, (("a+b", imodel.event(["2", "3"])),), ("bayes",))
        doc = parse_model(serialize_doc(doc))
        assert eval_in_doc(doc, "a+b").members == ("2", "3")
        assert eval_in_doc(doc, "K[a@b](~a+b)").members == ("1",)

    def test_string_and_ast_arguments_agree(self):
        imodel = as_interactive(three_state_partition(), "alice")
        text = "K[alice]({2 3}) | ~{1}"
        assert eval_expr(imodel, text) == eval_expr(imodel, parse_expr(text))

    def test_unknown_references_are_parse_errors(self):
        doc = parse_model(W1_TEXT + "event E = {2 3}\n")
        with pytest.raises(ParseError, match="unknown agent 'carol'"):
            eval_in_doc(doc, "K[carol](E)")
        with pytest.raises(ParseError, match="unknown event name 'F'"):
            eval_in_doc(doc, "K[alice](F)")
        with pytest.raises(ParseError, match="unknown state '9'"):
            eval_in_doc(doc, "K[alice]({9})")

    def test_event_from_another_algebra_is_rejected(self):
        imodel = as_interactive(three_state_partition(), "alice")
        other = null_state_slack()
        foreign = other.sigma.event_from_mask(0b01)
        with pytest.raises(ParseError, match="different algebra"):
            eval_expr(imodel, "X", names={"X": foreign})


class TestFuzz:
    def test_random_text_never_escapes_the_parse_error_contract(self):
        rng = random.Random(20240817)
        alphabet = string.printable
        for _ in range(3000):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 160))
            )
            try:
                parse_model(text)
            except ParseError as exc:
                assert str(exc)
            # any successful parse of random noise would be suspicious but
            # is not impossible; no other exception type is acceptable

    def test_mutated_documents_fail_with_located_errors_only(self):
        rng = random.Random(97)
        base = W1_TEXT + "event E = {2 3}\n"
        tokens = base.split(" ")
        junk = ["}", "{", "->", ";", "=", "1/0", "0.5", "q", ":", ""]
        for _ in range(1500):
            mutated = tokens[:]
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.choice(junk)
            try:
                parse_model(" ".join(mutated))
            except ParseError:
                pass
            except (ConditioningOnNull, NotMeasurable, InvariantError):
                # structurally valid text can still describe a broken model
                pass

    def test_random_expressions_raise_only_expression_errors(self):
        rng = random.Random(5150)
        pieces = [
            "{1}", "{2 3}", "E", "~", "&", "|", "(", ")", "K[alice]",
            "B[alice,1/2]", "B[alice,3/2]", "Cp[1]", "C", "[", "]", ",", "@",
        ]
        for _ in range(2000):
            text = " ".join(
                rng.choice(pieces) for _ in range(rng.randrange(1, 8))
            )
            try:
                parse_expr(text)
            except (ParseError, RationalOutOfRange):
                pass
