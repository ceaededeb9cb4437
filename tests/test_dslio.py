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
import re
import string
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    bayes_type_from_poss,
    common_p_belief,
    common_qualitative,
    doc_to_dict,
    eval_expr,
    eval_in_doc,
    format_rational,
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
from emck import dslio
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
from emck.reports import _format_ratio, _read_ratio, parse_rational
from helpers import fraction_oracle_model, fraction_rational

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
        assert t2.value(model.event(["2"])) == Fraction(1, 2)
        assert t2.value(model.event(["2", "3"])) == 1
        assert model.t("1", model.event(["1"])) == 1
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
        assert doc.imodel.prior.int_weights == (2, (1, 1))

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


TWO_STATE_CAPACITY_HEAD = (
    "states: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/2\n"
    "agent a:\n  poss: 1 -> {1 2}; 2 -> {1 2}\n  type: capacity\n"
)


class TestTokensReadOnce:
    """The reader resolves each distinct capacity literal body and each
    distinct rational token once per document; a faulty token is never
    kept, so it raises where it first occurs, as it did when every entry
    was read on its own."""

    def test_each_distinct_body_and_rational_is_read_once(self, monkeypatch):
        params = GenParams(
            n_states=4, weight_denominator=3, type_mode="random-capacity", poss_mode="reflexive"
        )
        text = serialize_model(as_interactive(random_model(params, 1)))
        lines = text.splitlines()
        rows = [line for line in lines if re.match(r"  \d: \{", line)]
        entries = [e for row in rows for e in re.findall(r"\{([^{}]*)\}=(\S+)", row)]
        priors = re.findall(r"=(\S+)", lines[2])
        poss_bodies = re.findall(r"-> \{([^{}]*)\}", lines[4])
        assert len(entries) == 4 * 16
        assert len({v for _, v in entries}) < 16  # values repeat across the rows
        bodies, tokens = [], []
        members_mask, read_ratio = dslio._members_mask, dslio._read_ratio

        def counting_mask(space, body, line):
            bodies.append(body)
            return members_mask(space, body, line)

        def counting_ratio(token):
            tokens.append(token)
            return read_ratio(token)

        monkeypatch.setattr(dslio, "_members_mask", counting_mask)
        monkeypatch.setattr(dslio, "_read_ratio", counting_ratio)
        doc = parse_model(text)
        assert sorted(tokens) == sorted({*priors, *(v for _, v in entries)})
        # the cells are read as masks, on their own
        assert sorted(bodies) == sorted([*poss_bodies, *{b for b, _ in entries}])
        assert serialize_doc(doc) == text

    @pytest.mark.parametrize(
        "rows, exc, line, message",
        [
            (
                "  1: {}=0 {1}=0 {2}=0 {1 9}=1\n  2: {}=0 {1}=0 {2}=1 {1 9}=1\n",
                ParseError,
                7,
                "unknown state '9' (line 7)",
            ),
            (
                "  1: {}=0 {1}=x {2}=0 {1 2}=1\n  2: {}=0 {1}=x {2}=1 {1 2}=1\n",
                ParseError,
                7,
                "bad rational 'x': Invalid literal for Fraction: 'x' (line 7)",
            ),
            (
                "  1: {}=0 {1}=0 {2}=0 {1 2}=1\n  2: {}=0 {1 2}=1 {2}=1 {2 1}=1\n",
                ParseError,
                8,
                "duplicate capacity entry for state '2', event {2 1} (line 8)",
            ),
            (
                "  1: {}=0 {1}=0 {2}=0 {2 1}=1/1 {1 2}=1\n",
                ParseError,
                7,
                "duplicate capacity entry for state '1', event {1 2} (line 7)",
            ),
        ],
        ids=["unknown-state", "bad-rational", "reordered-duplicate", "duplicate-in-a-row"],
    )
    def test_a_repeated_fault_raises_at_its_first_line(self, rows, exc, line, message):
        with pytest.raises(exc) as err:
            parse_model(TWO_STATE_CAPACITY_HEAD + rows)
        assert (type(err.value), err.value.line, str(err.value)) == (exc, line, message)

    def test_a_bad_prior_rational_raises_on_the_prior_line(self):
        """The prior line and the rows share the tokens read: a token bad
        in the prior is not kept for the rows."""
        text = TWO_STATE_CAPACITY_HEAD.replace("1=1/2 2=1/2", "1=1/2 2=q") + "  1: {}=q\n"
        with pytest.raises(ParseError) as err:
            parse_model(text)
        assert (err.value.line, str(err.value)) == (
            3, "bad rational 'q': Invalid literal for Fraction: 'q' (line 3)"
        )

    def test_a_state_named_like_a_rational_keeps_both_readings(self):
        """A literal body and a rational token with the same text are read
        apart: ``{1/2}=1/2`` is the event of state ``1/2`` at value 1/2."""
        text = (
            "states: 1/2 b\nsigma: powerset\nprior: 1/2=1/2 b=1/2\n"
            "agent a:\n  poss: 1/2 -> {1/2 b}; b -> {1/2 b}\n  type: capacity\n"
            "  1/2: {}=0 {1/2}=1/2 {b}=0 {1/2 b}=1\n  b: {}=0 {1/2}=0 {b}=1/2 {1/2 b}=1\n"
        )
        doc = parse_model(text)
        assert doc.imodel.types[0].per_state[0].int_table == (2, (0, 1, 0, 2))
        assert serialize_doc(doc) == text


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
    @pytest.mark.parametrize("sigma_mode", ["powerset", "random-partition"])
    @pytest.mark.parametrize("type_mode", ["bayes", "random-additive", "random-capacity"])
    def test_the_printed_tables_are_the_accessor_values(self, sigma_mode, type_mode):
        """The serializer prints the integer tables; each printed value is
        the ``Fraction`` that ``Prior.measure_of`` or ``t`` returns."""
        params = GenParams(
            n_states=3, weight_denominator=6, sigma_mode=sigma_mode, type_mode=type_mode
        )
        for seed in range(20):
            model = random_model(params, seed)
            sigma = model.sigma
            payload = doc_to_dict(parse_model(serialize_model(as_interactive(model, "a"))), True)
            assert payload["prior"] == {
                sigma.space.names_of(atom)[0]: format_rational(model.prior.measure_mask(atom))
                for atom in sigma.atoms
            }
            assert payload["agents"][0]["tables"] == {
                s: {
                    "{" + " ".join(e.members) + "}": format_rational(model.t(s, e))
                    for e in sigma.events()
                }
                for s in sigma.space.states
            }

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_an_integer_entry_prints_as_its_fraction(self, data):
        """The printers format an entry n of an integer table (D, ints)
        without building its ``Fraction``: the text is that of n / D, also
        when (n, D) is not in lowest terms."""
        d = data.draw(st.integers(1, 1000))
        n = data.draw(st.integers(0, d))
        scale = data.draw(st.integers(1, 6))
        assert _format_ratio(n, d) == format_rational(Fraction(n, d))
        assert _format_ratio(n * scale, d * scale) == format_rational(Fraction(n, d))

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

    def test_bayes_is_inferred_exactly_when_the_types_equal_the_bayes_types(self):
        """The null-cell and product-identity kernels decide ``bayes`` as the
        comparison with ``bayes_type_from_poss`` does, on seeded draws of
        every family and on the Bayes types of other priors and of the total
        correspondence."""

        def by_comparison(m, types):
            try:
                if types == bayes_type_from_poss(m.sigma, m.prior, m.poss):
                    return "bayes"
            except ConditioningOnNull:
                pass
            return "additive" if all(sf.additive for sf in types.per_state) else "capacity"

        seen = set()
        for sigma_mode in ("powerset", "random-partition"):
            for type_mode in ("bayes", "random-additive", "random-capacity"):
                for poss_mode in ("partition", "reflexive", "arbitrary-nonempty"):
                    params = GenParams(
                        n_states=3, weight_denominator=4, sigma_mode=sigma_mode,
                        type_mode=type_mode, poss_mode=poss_mode,
                    )
                    for seed in range(12):
                        m = random_model(params, seed)
                        k = m.sigma.n_atoms
                        total = PossibilityCorrespondence(
                            m.sigma, (m.space.full_mask,) * len(m.space)
                        )
                        candidates = [m.types]
                        for prior, poss in (
                            (Prior.from_ints(m.sigma, k, (1,) * k), m.poss),
                            (Prior.from_ints(m.sigma, k * (k + 1) // 2, range(1, k + 1)), m.poss),
                            (m.prior, total),
                        ):
                            try:
                                candidates.append(bayes_type_from_poss(m.sigma, prior, poss))
                            except ConditioningOnNull:
                                pass
                        for types in candidates:
                            decl = infer_type_decl(m.sigma, m.prior, m.poss, types)
                            assert decl == by_comparison(m, types), (params, seed)
                            seen.add(decl)
        assert seen == {"bayes", "additive", "capacity"}

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

# pieces of rational tokens: signs, ``_`` groups, leading zeros, padding,
# non-ASCII decimal digits (Arabic-Indic, Devanagari, fullwidth), decimals,
# exponents, zero denominators and junk (a superscript two is a digit to
# ``str.isdigit`` but not a decimal digit)
TOKEN_PIECES = [
    "", " ", "\t", "\u00a0", "+", "-", "0", "00", "007", "1", "12", "1_0", "_", "__",
    "/", "/0", "/4", "/0_0", "\u0663", "\u096d", "\uff10", "\uff17", ".", ".5",
    "e", "E", "e3", "x", "\u00b2", "//", "1/", "-0",
]


# ``Fraction(str)`` reads "_" between digits since Python 3.11 and spaces
# around "/" since 3.12, so the interpreters that the package supports read
# a token alike unless it is one of the widest grammar's and not one of the
# narrowest's
_NARROWEST = re.compile(r"[-+]?\d+(?:/\d+)?")
_WIDEST = re.compile(r"[-+]?\d+(?:_\d+)*(?:\s*/\s*\d+(?:_\d+)*)?")


def _read_alike_by_every_interpreter(token):
    text = token.strip()
    return _NARROWEST.fullmatch(text) is not None or _WIDEST.fullmatch(text) is None


# (token, Python 3.11's reading) for tokens that another supported
# interpreter reads otherwise, and for their neighbours that every one refuses
_READ_APART = [
    ("1_0", ("ok", Fraction(10))),
    ("1_0/20", ("ok", Fraction(1, 2))),
    ("+0_5/1_0", ("ok", Fraction(1, 2))),
    ("-1_2/4", ("ok", Fraction(-3))),
    ("\t1_0\u00a0", ("ok", Fraction(10))),
    ("\u0663_\u096d", ("ok", Fraction(37))),
    ("1_0/0", ("ZeroDivisionError", "Fraction(10, 0)")),
    ("1/0_0", ("ZeroDivisionError", "Fraction(1, 0)")),
    ("1 /2", ("ValueError", "Invalid literal for Fraction: '1 /2'")),
    ("1/ 2", ("ValueError", "Invalid literal for Fraction: '1/ 2'")),
    ("1\u00a0/\u00a04", ("ValueError", "Invalid literal for Fraction: '1\\xa0/\\xa04'")),
    ("1_0 / 2_0", ("ValueError", "Invalid literal for Fraction: '1_0 / 2_0'")),
]
_REFUSED_BY_EVERY = [
    ("1__0", ("ValueError", "Invalid literal for Fraction: '1__0'")),
    ("_1", ("ValueError", "Invalid literal for Fraction: '_1'")),
    ("1_", ("ValueError", "Invalid literal for Fraction: '1_'")),
    ("1_/2", ("ValueError", "Invalid literal for Fraction: '1_/2'")),
]


def _outcome(read, token):
    """("ok", value) or (exception type, message) of ``read(token)``."""
    try:
        return "ok", Fraction(read(token))
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def _assert_read_as(token, expected):
    """The reader and ``parse_rational`` read ``token`` as ``expected``,
    with a positive denominator."""
    assert _outcome(lambda t: Fraction(*_read_ratio(t)), token) == expected
    assert _outcome(parse_rational, token) == expected
    if expected[0] == "ok":
        assert _read_ratio(token)[1] > 0


class TestIntegerReader:
    @settings(max_examples=1500, deadline=None)
    @given(
        st.lists(st.sampled_from(TOKEN_PIECES), max_size=6)
        .map("".join)
        .filter(_read_alike_by_every_interpreter)
    )
    def test_the_reader_accepts_and_rejects_what_fraction_does(self, token):
        _assert_read_as(token, _outcome(fraction_rational, token))

    @pytest.mark.parametrize(
        "token, expected, alike",
        [(token, expected, False) for token, expected in _READ_APART]
        + [(token, expected, True) for token, expected in _REFUSED_BY_EVERY],
    )
    def test_underscores_and_spaced_slashes_read_as_python_3_11_reads_them(
        self, token, expected, alike
    ):
        """The grammar is Python 3.11's ``Fraction(str)``: "_" between
        digits, no space around "/"."""
        _assert_read_as(token, expected)
        assert _read_alike_by_every_interpreter(token) == alike
        if sys.version_info[:2] == (3, 11):
            assert _outcome(fraction_rational, token) == expected

    @pytest.mark.parametrize(
        "text, canonical",
        [
            (
                "states: 1 2 3\n"
                "sigma: powerset\n"
                "prior: 1=2/4 2=+1/4 3=1_0/40\n"
                "agent a:\n"
                "  poss: 1 -> {1}; 2 -> {2 3}; 3 -> {2 3}\n"
                "  type: additive\n"
                "  1: 1=007/7 2=0/5 3=-0\n"
                "  3: 3=1_0/20 2=0_5/10 1=00\n"
                "  2: 1=0 2=2/4 3=+3/6\n",
                "states: 1 2 3\n"
                "sigma: powerset\n"
                "prior: 1=1/2 2=1/4 3=1/4\n"
                "agent a:\n"
                "  poss: 1 -> {1}; 2 -> {2 3}; 3 -> {2 3}\n"
                "  type: additive\n"
                "  1: 1=1 2=0 3=0\n"
                "  2: 1=0 2=1/2 3=1/2\n"
                "  3: 1=0 2=1/2 3=1/2\n",
            ),
            (
                "states: 1 2 3\n"
                "sigma: atoms {2 3} {1}\n"
                "prior: 3=2/4 1=+1/2\n"
                "agent a:\n"
                "  poss: 1 -> {1}; 2 -> {2 3}; 3 -> {2 3}\n"
                "  type: capacity\n"
                "  1: {1 2 3}=4/4 {2 3}=0/5 {1}=007/7 {}=0\n"
                "  3: {3 2}=1_0/10 {}=-0 {1}=0/3 {1 2 3}=+1\n"
                "  2: {1}=0 {} =0 {1 2 3}=2/2 {2 3}=3/3\n",
                "states: 1 2 3\n"
                "sigma: atoms {1} {2 3}\n"
                "prior: 1=1/2 2=1/2\n"
                "agent a:\n"
                "  poss: 1 -> {1}; 2 -> {2 3}; 3 -> {2 3}\n"
                "  type: capacity\n"
                "  1: {}=0 {1}=1 {2 3}=0 {1 2 3}=1\n"
                "  2: {}=0 {1}=0 {2 3}=1 {1 2 3}=1\n"
                "  3: {}=0 {1}=0 {2 3}=1 {1 2 3}=1\n",
            ),
            (
                "states: a b c d\n"
                "sigma: atoms {a b} {c} {d}\n"
                "prior: b=3/6 c=+2/8 d=1_0/40\n"
                "agent x:\n"
                "  poss: a -> {a b}; b -> {a b}; c -> {c d}; d -> {c d}\n"
                "  type: bayes\n"
                "agent y:\n"
                "  poss: a -> {a b c d}; b -> {a b c d}; c -> {c}; d -> {d}\n"
                "  type: additive\n"
                "  a: a=1/3 c=2/6 d=003/9\n"
                "  b: b=2/6 c=1_2/36 d=+1/3\n"
                "  c: a=0/1 c=4/4 d=0\n"
                "  d: a=0 c=0 d=06/6\n"
                "event E = {d c}\n",
                "states: a b c d\n"
                "sigma: atoms {a b} {c} {d}\n"
                "prior: a=1/2 c=1/4 d=1/4\n"
                "agent x:\n"
                "  poss: a -> {a b}; b -> {a b}; c -> {c d}; d -> {c d}\n"
                "  type: bayes\n"
                "agent y:\n"
                "  poss: a -> {a b c d}; b -> {a b c d}; c -> {c}; d -> {d}\n"
                "  type: additive\n"
                "  a: a=1/3 c=1/3 d=1/3\n"
                "  b: a=1/3 c=1/3 d=1/3\n"
                "  c: a=0 c=1 d=0\n"
                "  d: a=0 c=0 d=1\n"
                "event E = {c d}\n",
            ),
        ],
        ids=["additive", "capacity-coarse", "two-agents-coarse"],
    )
    def test_a_non_canonical_document_reads_as_its_fraction_oracle(self, text, canonical):
        doc = parse_model(text)
        oracle = fraction_oracle_model(text)
        assert doc.imodel == oracle
        assert doc.imodel.prior.int_weights == oracle.prior.int_weights
        for types, expected in zip(doc.imodel.types, oracle.types):
            assert [sf.int_table for sf in types.per_state] == [
                sf.int_table for sf in expected.per_state
            ]
        assert serialize_doc(doc) == canonical
        assert parse_model(canonical).imodel == oracle

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            (
                "prior: 1=2/4 2=2/4 3=1/4\n" + "AGENT  type: bayes\n",
                PriorParseError,
                "prior weights sum to 5/4, not 1 (line 3)",
            ),
            (
                "prior: 1=-1/4 2=2/4 3=3/4\n" + "AGENT  type: bayes\n",
                PriorParseError,
                "prior weights must be nonnegative (line 3)",
            ),
            (
                "prior: 1=1/0 2=1/2 3=1/2\n" + "AGENT  type: bayes\n",
                ParseError,
                "bad rational '1/0': Fraction(1, 0) (line 3)",
            ),
            (
                "prior: 1=1/2 2=x 3=1/2\n" + "AGENT  type: bayes\n",
                ParseError,
                "bad rational 'x': Invalid literal for Fraction: 'x' (line 3)",
            ),
            (
                "prior: 1=1e0 2=0 3=0\n" + "AGENT  type: bayes\n",
                ParseError,
                "bad rational '1e0': decimal notation is not accepted: '1e0' (line 3)",
            ),
            (
                "prior: 1=2/4 2=+1/4 3=1_0/40\nAGENT  type: additive\n"
                "  1: 1=1 2=0 3=0\n  2: 1=2/2 2=-2/4 3=1/2\n  3: 1=1 2=-2/4 3=1/2\n",
                ParseError,
                "agent 'a', state '2': set-function value -1/2 outside [0, 1] (line 6)",
            ),
            (
                "prior: 1=2/4 2=+1/4 3=1_0/40\nAGENT  type: additive\n"
                "  1: 1=1 2=0 3=0\n  2: 1=3/4 2=2/4 3=0\n  3: 1=3/4 2=2/4 3=0\n",
                ParseError,
                "agent 'a', state '2': set-function value 5/4 outside [0, 1] (line 6)",
            ),
            (
                "prior: 1=1/2 2=2/4 3=0\nAGENT  type: capacity\n"
                "  1: {}=0 {1}=1 {2}=0 {3}=0 {1 2}=1 {1 3}=1 {2 3}=0 {1 2 3}=1\n"
                "  2: {1 2 3}=2/2 {2}=6/4 {1}=0/5 {}=0 {3}=0 {1 2}=1 {1 3}=0 {2 3}=1\n",
                ParseError,
                "set-function value 3/2 outside [0, 1] (line 8)",
            ),
        ],
        ids=[
            "prior-sum", "prior-negative", "zero-denominator", "junk", "exponent",
            "additive-negative", "additive-above-one", "capacity-above-one",
        ],
    )
    def test_a_bad_entry_keeps_its_message(self, rows, error, message):
        agent = "agent a:\n  poss: 1 -> {1}; 2 -> {2 3}; 3 -> {2 3}\n"
        text = "states: 1 2 3\nsigma: powerset\n" + rows.replace("AGENT", agent)
        with pytest.raises(error) as info:
            parse_model(text)
        assert str(info.value) == message


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
