"""Command-line interface: exit-code contract, text and JSON output.

Exit codes under test: 0 pass, 1 check failed / claim falsified, 2 parse
error, 3 model invariant violated, 4 theorem hypothesis unmet, 5 resource
limit, 64 usage.
Output strings asserted verbatim here are part of the stable surface.
"""

from __future__ import annotations

import argparse
import json
import os

import pytest

from emck import modelgen as mg
from emck import cli
from emck.dslio import serialize_model
from emck.fixtures import (
    as_interactive,
    null_state_slack,
    three_state_partition,
    two_agent_partitions,
    two_state_capacity,
)
from helpers import declare_broken_claim, run_cli, write_model

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

SWAPPED_DIRAC = (
    "states: a b\n"
    "sigma: powerset\n"
    "prior: a=1/2 b=1/2\n"
    "agent x:\n"
    "  poss: a -> {a}; b -> {b}\n"
    "  type: additive\n"
    "  a: a=0 b=1\n"
    "  b: a=1 b=0\n"
)

ATOM_CAP_ERROR = (
    "resource limit: 17 atoms exceed the enumeration cap 16 (override with EMCK_MAX_ATOMS)\n"
)


@pytest.fixture
def w1(tmp_path):
    return write_model(tmp_path, "w1.emod", as_interactive(three_state_partition(), "alice"))


@pytest.fixture
def w2(tmp_path):
    return write_model(tmp_path, "w2.emod", as_interactive(null_state_slack(), "a"))


@pytest.fixture
def w4(tmp_path):
    return write_model(tmp_path, "w4.emod", as_interactive(two_state_capacity(), "agent"))


@pytest.fixture
def iw1(tmp_path):
    text = serialize_model(two_agent_partitions()) + "event E = {1}\n"
    return write_model(tmp_path, "iw1.emod", text)


class TestValidate:
    def test_valid_file_summary_line(self, w1):
        code, out, err = run_cli("validate", w1)
        assert code == 0
        assert out == "ok: 3 states, 3 atoms, 1 agent(s), 0 named event(s)\n"
        assert err == ""

    def test_named_events_counted(self, iw1):
        code, out, _ = run_cli("validate", iw1)
        assert code == 0
        assert out == "ok: 3 states, 3 atoms, 2 agent(s), 1 named event(s)\n"

    def test_unnormalized_prior_exits_2_with_location(self, tmp_path):
        path = write_model(
            tmp_path,
            "bad.emod",
            "states: 1 2\nsigma: powerset\nprior: 1=1/2 2=1/3\n"
            "agent a:\n  poss: 1 -> {1}; 2 -> {2}\n  type: bayes\n",
        )
        code, out, err = run_cli("validate", path)
        assert code == 2
        assert "parse error" in err
        assert "5/6" in err and "(line 3)" in err

    def test_cell_outside_algebra_exits_3_with_witness(self, tmp_path):
        path = write_model(
            tmp_path,
            "cell.emod",
            "states: 1 2 3\nsigma: atoms {1} {2 3}\nprior: 1=1/2 2=1/2\n"
            "agent a:\n  poss: 1 -> {1}; 2 -> {2}; 3 -> {2 3}\n  type: bayes\n",
        )
        code, _, err = run_cli("validate", path)
        assert code == 3
        assert "invalid model" in err
        assert "P(2)" in err and "not in Sigma" in err

    def test_bayes_on_null_cell_exits_3(self, tmp_path):
        path = write_model(
            tmp_path,
            "null.emod",
            "states: 1 2\nsigma: powerset\nprior: 1=1 2=0\n"
            "agent a:\n  poss: 1 -> {1}; 2 -> {2}\n  type: bayes\n",
        )
        code, _, err = run_cli("validate", path)
        assert code == 3
        assert "mu(P(2)) = 0" in err

    def test_missing_file_is_a_parse_error(self, tmp_path):
        code, _, err = run_cli("validate", str(tmp_path / "absent.emod"))
        assert code == 2
        assert "cannot read" in err

    def test_json_output_mirrors_the_document(self, w1):
        code, out, _ = run_cli("validate", w1, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["doc"]["states"] == ["1", "2", "3"]
        assert payload["doc"]["prior"] == {"1": "1/2", "2": "1/4", "3": "1/4"}
        assert payload["doc"]["agents"][0]["name"] == "alice"

    def test_a_valid_model_over_the_atom_cap_exits_5(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EMCK_MAX_ATOMS", raising=False)
        names = [f"s{i}" for i in range(17)]
        text = (
            f"states: {' '.join(names)}\n"
            "sigma: powerset\n"
            f"prior: {' '.join(f'{n}=1/17' for n in names)}\n"
            "agent a:\n"
            f"  poss: {'; '.join(f'{n} -> {{{n}}}' for n in names)}\n"
            "  type: bayes\n"
        )
        code, out, err = run_cli("validate", write_model(tmp_path, "s17.emod", text))
        assert (code, out) == (5, "")
        assert err == ATOM_CAP_ERROR


class TestCheck:
    def test_all_axioms_pass_on_the_partition_fixture(self, w1):
        code, out, err = run_cli("check", w1)
        assert code == 0
        assert err == ""
        assert "[alice] regular: pass" in out
        assert "FAIL" not in out

    def test_kripke_failure_names_the_euclidean_witness(self, w2):
        code, out, _ = run_cli("check", w2, "--axioms", "kripke")
        assert code == 1
        assert "[a] kripke: FAIL" in out
        assert "not euclidean at (b,a)" in out
        assert "euclidean: FAIL" in out
        assert "negative-introspection: FAIL" in out
        assert "truth-axiom: pass" in out
        assert "transitive: pass" in out

    def test_unknown_axiom_is_a_usage_error_listing_known_names(self, w1):
        code, _, err = run_cli("check", w1, "--axioms", "nonsense")
        assert code == 64
        assert "unknown axiom name(s): nonsense" in err
        for name in (
            "probability-types",
            "invariance",
            "entailment",
            "self-evidence",
            "down-containment",
            "certainty",
            "certainty-almost-sure",
            "positive-certainty",
            "down-certainty",
            "introspection",
            "regular",
            "kripke",
        ):
            assert name in err

    def test_unknown_agent_is_a_usage_error(self, w1):
        code, _, err = run_cli("check", w1, "--agent", "bob")
        assert code == 64
        assert "unknown agent 'bob'" in err

    def test_agent_selection_limits_the_report(self, iw1):
        code, out, _ = run_cli("check", iw1, "--agent", "bob", "--axioms", "regular")
        assert code == 0
        assert "[bob] regular: pass" in out
        assert "[alice]" not in out

    def test_axiom_list_runs_only_the_named_checks(self, w1):
        code, out, _ = run_cli("check", w1, "--axioms", "invariance,entailment")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert lines == [
            "[alice] invariance: pass  [all 8 events]",
            "[alice] entailment: pass  [all 3 states]",
        ]

    def test_json_report_aggregates_per_agent_results(self, iw1):
        code, out, _ = run_cli("check", iw1, "--axioms", "regular", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert [r["agent"] for r in payload["results"]] == ["alice", "bob"]
        assert all(r["check"]["passed"] for r in payload["results"])


class TestVerify:
    def test_theorem_main_verified_on_the_partition_fixture(self, w1):
        code, out, err = run_cli("verify", w1, "--claim", "theorem-main")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "theorem-main: verified  (lhs=true rhs=true equivalent=true)"
        assert lines[1] == "  hypotheses: positive-cells=true"

    def test_unmet_hypothesis_exits_4(self, w2):
        code, out, err = run_cli("verify", w2, "--claim", "cor-main")
        assert code == 4
        assert out == ""
        assert "hypothesis not met" in err
        assert "not discrete" in err

    def test_diagnostic_mode_reports_conclusions_but_keeps_exit_4(self, w2):
        code, out, _ = run_cli("verify", w2, "--claim", "cor-main", "--diagnostic")
        assert code == 4
        assert "cor-main: hypothesis-not-met" in out
        assert "hypotheses: discrete=false" in out
        # the conclusions are nested as checks, as where they are asserted
        assert "\n  k-equals-b1: FAIL  [all 4 events]\n" in out
        assert "\n  strong-b1-conjunction: pass  [reduced to 2 states (monotone types)]\n" in out
        assert "note: conclusion" not in out

    def test_part_two_both_sides_false_still_verifies(self, w4):
        code, out, _ = run_cli("verify", w4, "--claim", "prop-1")
        assert code == 0
        assert "prop-1: verified" in out
        assert (
            "prop-1-part-2: verified  (lhs=false rhs=false equivalent=true)" in out
        )
        assert "witness: state=a event={b} p=1" in out

    def test_diagnostic_claim_outside_its_hypotheses_exits_4(self, tmp_path):
        path = write_model(tmp_path, "swapped.emod", SWAPPED_DIRAC)
        code, out, _ = run_cli(
            "verify", path, "--claim", "cor-ta", "--diagnostic"
        )
        assert code == 4
        assert out.startswith("cor-ta: hypothesis-not-met\n  hypotheses: regular=false\n")
        assert "  b1-truth-mu: FAIL  [all 4 events]\n" in out
        assert "witness: event={a} mu(b1(E) minus E) > 0" in out
        code4, _, err = run_cli("verify", path, "--claim", "cor-ta")
        assert code4 == 4
        assert "requires a regular model" in err

    def test_interactive_claims_run_on_multi_agent_documents(self, iw1):
        code, out, _ = run_cli("verify", iw1, "--claim", "cor-ck")
        assert code == 0
        assert "cor-ck: verified" in out
        assert "hypotheses: discrete=true regular=true" in out
        code, out, _ = run_cli("verify", iw1, "--claim", "prop-3")
        assert code == 0
        assert out == (
            "prop-3: verified\n"
            "  hypotheses: regular=true\n"
            "  agreement-sweep: pass  [40 (threshold, event) pairs]\n"
        )

    def test_single_agent_claim_on_multi_agent_doc_requires_agent_flag(self, iw1):
        code, _, err = run_cli("verify", iw1, "--claim", "theorem-main")
        assert code == 64
        assert "--agent is required" in err
        code, out, _ = run_cli(
            "verify", iw1, "--claim", "theorem-main", "--agent", "bob"
        )
        assert code == 0
        assert "theorem-main: verified" in out

    def test_unknown_claim_is_a_usage_error(self, w1):
        code, _, err = run_cli("verify", w1, "--claim", "bogus")
        assert code == 64
        assert "invalid choice" in err

    @pytest.mark.parametrize("command", ["verify", "search"])
    def test_claim_choices_are_the_registered_claims(self, command):
        subcommands = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        claim = next(
            a for a in subcommands.choices[command]._actions if a.dest == "claim"
        )
        assert claim.choices == tuple(mg.CLAIMS)

    def test_json_report_round_trips(self, w1):
        code, out, _ = run_cli(
            "verify", w1, "--claim", "theorem-main", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["claim"] == "theorem-main"
        assert payload["status"] == "verified"
        assert payload["lhs"] is True and payload["rhs"] is True


class TestEval:
    def test_knowledge_expression_prints_the_event(self, w1):
        code, out, err = run_cli("eval", w1, "--expr", "K[alice]({2 3})")
        assert (code, out, err) == (0, "{2,3}\n", "")

    def test_membership_query(self, w1):
        code, out, _ = run_cli("eval", w1, "--expr", "K[alice]({2 3})", "--at", "2")
        assert code == 0
        assert out == "{2,3}\n2: true\n"
        code, out, _ = run_cli("eval", w1, "--expr", "K[alice]({2 3})", "--at", "1")
        assert out == "{2,3}\n1: false\n"

    def test_common_belief_expression_on_the_agreement_fixture(self, iw1):
        code, out, _ = run_cli("eval", iw1, "--expr", "Cp[1](E)")
        assert (code, out) == (0, "{}\n")
        code, out, _ = run_cli("eval", iw1, "--expr", "C({1 2 3})")
        assert (code, out) == (0, "{1,2,3}\n")

    def test_malformed_expression_exits_2(self, w1):
        code, _, err = run_cli("eval", w1, "--expr", "K[alice](")
        assert code == 2
        assert "parse error" in err

    def test_an_expression_error_names_its_column(self, w1):
        code, out, err = run_cli("eval", w1, "--expr", "{1} @ {2}")
        assert (code, out, err) == (2, "", "parse error: trailing input '@' (col 5)\n")

    def test_threshold_out_of_range_exits_2(self, w1):
        code, _, err = run_cli("eval", w1, "--expr", "B[alice,3/2]({1})")
        assert code == 2
        assert "outside [0, 1]" in err

    def test_unknown_at_state_exits_2(self, w1):
        code, _, err = run_cli("eval", w1, "--expr", "{1}", "--at", "9")
        assert code == 2
        assert "unknown state '9'" in err

    def test_json_payload(self, w1):
        code, out, _ = run_cli(
            "eval", w1, "--expr", "K[alice]({2 3})", "--at", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"event": ["2", "3"], "at": "1", "member": False}


class TestCanonical:
    def test_bayes_from_poss_expand_types_writes_explicit_tables(self, w1):
        code, out, err = run_cli(
            "canonical", w1, "--mode", "bayes-from-poss", "--expand-types"
        )
        assert (code, err) == (0, "")
        assert out == W1_EXPANDED

    def test_poss_from_type_recovers_the_partition(self, tmp_path):
        # total-ignorance cells, but the types identify the partition
        path = write_model(
            tmp_path,
            "typeonly.emod",
            "states: 1 2 3\nsigma: powerset\nprior: 1=1/2 2=1/4 3=1/4\n"
            "agent alice:\n"
            "  poss: 1 -> {1 2 3}; 2 -> {1 2 3}; 3 -> {1 2 3}\n"
            "  type: additive\n"
            "  1: 1=1 2=0 3=0\n"
            "  2: 1=0 2=1/2 3=1/2\n"
            "  3: 1=0 2=1/2 3=1/2\n",
        )
        code, out, _ = run_cli("canonical", path, "--mode", "poss-from-type")
        assert code == 0
        assert "poss: 1 -> {1}; 2 -> {2 3}; 3 -> {2 3}" in out

    def test_out_flag_writes_a_file_that_validates(self, w1, tmp_path):
        target = str(tmp_path / "canon.emod")
        code, out, _ = run_cli(
            "canonical", w1, "--mode", "bayes-from-poss", "--expand-types",
            "--out", target,
        )
        assert code == 0
        assert out == ""
        assert open(target).read() == W1_EXPANDED
        code, out, _ = run_cli("validate", target)
        assert code == 0

    def test_expanded_tables_of_a_state_named_poss_validate(self, tmp_path):
        # the expanded table has a row "poss: poss=1 b=0" after the poss line
        path = write_model(
            tmp_path,
            "kw.emod",
            "states: poss b\nsigma: powerset\nprior: poss=1/2 b=1/2\n"
            "agent alice:\n  poss: poss -> {poss}; b -> {b}\n  type: bayes\n",
        )
        target = str(tmp_path / "kw2.emod")
        code, out, err = run_cli(
            "canonical", path, "--mode", "bayes-from-poss", "--expand-types",
            "--out", target,
        )
        assert (code, out, err) == (0, "", "")
        assert "  poss: poss=1 b=0\n" in open(target).read()
        code, _, err = run_cli("validate", target)
        assert (code, err) == (0, "")

    def test_null_cell_in_bayes_mode_exits_3(self, tmp_path):
        # the document parses (explicit tables), but the rewrite conditions
        # on a cell of measure zero
        path = write_model(
            tmp_path,
            "null.emod",
            "states: 1 2\nsigma: powerset\nprior: 1=1 2=0\n"
            "agent a:\n  poss: 1 -> {1}; 2 -> {2}\n"
            "  type: additive\n  1: 1=1 2=0\n  2: 1=0 2=1\n",
        )
        code, _, err = run_cli("canonical", path, "--mode", "bayes-from-poss")
        assert code == 3
        assert "mu(P(2)) = 0" in err


class TestSearch:
    def test_exhaustive_theorem_main_not_found_with_frozen_counts(self):
        code, out, err = run_cli(
            "search", "--claim", "theorem-main", "--states", "2",
            "--denominator", "2", "--type-mode", "random-additive",
        )
        assert (code, err) == (0, "")
        assert out == "NotFound after 153 models checked (90 outside hypotheses)\n"

    def test_random_search_is_not_found_and_reports_the_budget(self):
        code, out, _ = run_cli(
            "search", "--claim", "prop-2", "--states", "2", "--mode", "random",
            "--seed", "7", "--budget", "300", "--type-mode", "random-capacity",
        )
        assert code == 0
        assert out == "NotFound after 300 models checked (0 outside hypotheses)\n"

    def test_an_empty_full_support_family_is_a_usage_error_in_either_mode(self):
        # no full-support prior on the powerset of 3 states lies on the 1/2 grid
        argv = (
            "search", "--claim", "prop-1", "--states", "3", "--denominator", "2",
            "--full-support", "--type-mode", "random-additive",
        )
        for mode in ((), ("--mode", "random", "--budget", "5")):
            code, out, err = run_cli(*argv, *mode)
            assert (code, out) == (64, "")
            assert err == (
                "usage error: denominator too small for a full-support prior on the powerset\n"
            )

    def test_a_random_partition_full_support_family_is_searched_in_either_mode(self):
        # its 3-atom algebras carry no prior of the family; the others do
        argv = (
            "search", "--claim", "prop-2", "--states", "3", "--denominator", "2",
            "--full-support", "--sigma-mode", "random-partition",
        )
        assert run_cli(*argv) == (
            0, "NotFound after 244 models checked (0 outside hypotheses)\n", ""
        )
        assert run_cli(*argv, "--mode", "random", "--budget", "5") == (
            0, "NotFound after 5 models checked (0 outside hypotheses)\n", ""
        )

    def test_budget_zero_is_a_usage_error(self):
        code, _, err = run_cli("search", "--claim", "theorem-main", "--budget", "0")
        assert code == 64
        assert "must be a positive integer" in err

    def test_random_mode_without_budget_is_a_usage_error(self):
        code, _, err = run_cli(
            "search", "--claim", "prop-2", "--mode", "random", "--seed", "7"
        )
        assert code == 64
        assert "random search needs a budget" in err

    def test_oversized_exhaustive_family_exits_5_before_building_it(self):
        # 6,561 capacity tables per atom give 6,561^3 type mappings; the
        # family is refused up front, whatever the budget
        code, out, err = run_cli(
            "search", "--claim", "prop-1", "--states", "3", "--denominator", "2",
            "--type-mode", "random-capacity", "--budget", "5",
        )
        assert (code, out) == (5, "")
        assert err == (
            "resource limit: 282429536481 type mappings per algebra; "
            "shrink the grid or use random search\n"
        )

    def test_more_atoms_than_the_cap_exit_5(self, monkeypatch):
        monkeypatch.delenv("EMCK_MAX_ATOMS", raising=False)
        code, out, err = run_cli(
            "search", "--claim", "theorem-main", "--states", "17", "--mode", "random",
            "--budget", "1", "--type-mode", "bayes", "--poss-mode", "partition",
        )
        assert (code, out) == (5, "")
        assert err == ATOM_CAP_ERROR

    def test_unknown_require_flag_is_a_usage_error(self):
        code, _, err = run_cli(
            "search", "--claim", "theorem-main", "--require", "shiny"
        )
        assert code == 64
        assert "unknown require flag(s): shiny" in err

    def test_json_output_carries_the_counts(self):
        code, out, _ = run_cli(
            "search", "--claim", "theorem-main", "--states", "2",
            "--denominator", "2", "--type-mode", "random-additive",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "claim": "theorem-main",
            "found": False,
            "models_checked": 153,
            "hypothesis_skips": 90,
        }

    def test_found_counterexample_exits_1_and_serializes_the_model(
        self, monkeypatch, tmp_path
    ):
        declare_broken_claim(monkeypatch)
        target = str(tmp_path / "found.emod")
        code, out, _ = run_cli(
            "search", "--claim", "broken-selftest", "--states", "2",
            "--denominator", "2", "--out", target,
        )
        assert code == 1
        # the first regular model in this stream is the fifth
        assert out.startswith(
            "Found counterexample after 5 models checked (0 outside hypotheses)"
        )
        assert "broken-selftest: falsified" in out
        written = open(target).read()
        assert written.startswith("states: 1 2\n")
        vcode, _, _ = run_cli("validate", target)
        assert vcode == 0


class TestUsageAndDeterminism:
    def test_no_arguments_is_a_usage_error(self):
        code, _, err = run_cli()
        assert code == 64
        assert "required: command" in err

    def test_unknown_subcommand_is_a_usage_error(self):
        code, _, err = run_cli("frobnicate")
        assert code == 64
        assert "invalid choice" in err

    def test_repeated_runs_are_byte_identical(self, w1, w2, iw1):
        commands = [
            ("validate", w1),
            ("check", w2, "--axioms", "kripke"),
            ("verify", w1, "--claim", "theorem-main"),
            ("verify", iw1, "--claim", "prop-3"),
            ("eval", iw1, "--expr", "~B[alice,1/2](E) & Cp[1](E)"),
            (
                "search", "--claim", "prop-2", "--states", "2", "--mode",
                "random", "--seed", "11", "--budget", "150",
                "--type-mode", "random-capacity",
            ),
            ("validate", w1, "--format", "json"),
        ]
        for argv in commands:
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first == second


# Models for the golden-output tests below.  Each one fails its checks with a
# first witness whose position tells the kernels apart: the type witness of an
# almost-sure truth child sits at an earlier event than the prior witness (its
# slack is mu-null), the common-operator type witness comes from the second
# agent, and self-evidence and down-containment fail at different state pairs.
ROTATED_DIRAC = (
    "states: a b c\n"
    "sigma: powerset\n"
    "prior: a=1/2 b=1/2 c=0\n"
    "agent x:\n"
    "  poss: a -> {c}; b -> {c}; c -> {a}\n"
    "  type: additive\n"
    "  a: a=0 b=0 c=1\n"
    "  b: a=0 b=0 c=1\n"
    "  c: a=1 b=0 c=0\n"
)

TWO_AGENT_NULL_SLACK = (
    "states: a b c\n"
    "sigma: powerset\n"
    "prior: a=1/2 b=1/2 c=0\n"
    "agent x:\n"
    "  poss: a -> {a}; b -> {c}; c -> {a}\n"
    "  type: additive\n"
    "  a: a=1 b=0 c=0\n"
    "  b: a=1 b=0 c=0\n"
    "  c: a=1 b=0 c=0\n"
    "agent y:\n"
    "  poss: a -> {a}; b -> {a c}; c -> {a}\n"
    "  type: additive\n"
    "  a: a=1 b=0 c=0\n"
    "  b: a=1/2 b=0 c=1/2\n"
    "  c: a=1 b=0 c=0\n"
)


def _witness(state=None, event=None, other_state=None, note=""):
    return {
        "state": state,
        "event": event,
        "threshold": None,
        "other_state": other_state,
        "note": note,
    }


def _check(name, witness, scope):
    return {
        "name": name,
        "passed": witness is None,
        "witnesses": [] if witness is None else [witness],
        "scope": scope,
        "children": [],
    }


def _claim(name, unmet, checks):
    """The JSON of the report of the claim ``name`` outside its hypotheses:
    each condition of ``unmet`` fails, and ``checks`` are nested."""
    return {
        "claim": name,
        "lhs": None,
        "rhs": None,
        "equivalent": None,
        "hypotheses": [{"name": h, "holds": False} for h in unmet],
        "witnesses": [],
        "parts": [],
        "checks": checks,
        "notes": [],
        "status": "hypothesis-not-met",
    }


class TestGoldenOutput:
    """Whole-output pins for the reports built from shared helpers."""

    def test_cor_ta_diagnostic_text(self, tmp_path):
        path = write_model(tmp_path, "rot.emod", ROTATED_DIRAC)
        code, out, err = run_cli("verify", path, "--claim", "cor-ta", "--diagnostic")
        assert code == 4
        assert err == ""
        assert out == (
            "cor-ta: hypothesis-not-met\n"
            "  hypotheses: regular=false\n"
            "  b1-truth-mu: FAIL  [all 8 events]\n"
            "    witness: event={c} mu(b1(E) minus E) > 0\n"
            "  b1-truth-types: FAIL  [all 8 events x 3 states]\n"
            "    witness: state=a event={a} t(omega, b1(E) minus E) > 0\n"
            "  k-truth-mu: FAIL  [all 8 events]\n"
            "    witness: event={c} mu(k(E) minus E) > 0\n"
            "  k-truth-types: FAIL  [all 8 events x 3 states]\n"
            "    witness: state=a event={a} t(omega, k(E) minus E) > 0\n"
        )

    def test_cor_ta_diagnostic_json(self, tmp_path):
        path = write_model(tmp_path, "rot.emod", ROTATED_DIRAC)
        code, out, _ = run_cli(
            "verify", path, "--claim", "cor-ta", "--diagnostic", "--format", "json"
        )
        assert code == 4
        checks = []
        for op in ("b1", "k"):
            checks.append(
                _check(
                    f"{op}-truth-mu",
                    _witness(event=["c"], note=f"mu({op}(E) minus E) > 0"),
                    "all 8 events",
                )
            )
            checks.append(
                _check(
                    f"{op}-truth-types",
                    _witness("a", ["a"], note=f"t(omega, {op}(E) minus E) > 0"),
                    "all 8 events x 3 states",
                )
            )
        assert out == json.dumps(_claim("cor-ta", ["regular"], checks), indent=2) + "\n"

    def test_cor_ta_common_diagnostic_text(self, tmp_path):
        path = write_model(tmp_path, "two.emod", TWO_AGENT_NULL_SLACK)
        code, out, err = run_cli(
            "verify", path, "--claim", "cor-ta-common", "--diagnostic"
        )
        assert code == 4
        assert err == ""
        assert out == (
            "cor-ta-common: hypothesis-not-met\n"
            "  hypotheses: regular=false\n"
            "  c-truth-mu: FAIL  [all 8 events]\n"
            "    witness: event={a,c} mu(c(E) minus E) > 0\n"
            "  c-truth-types: FAIL  [all 8 events x 2 agents x 3 states]\n"
            "    witness: state=b event={a} t_y(omega, c(E) minus E) > 0\n"
            "  c1-truth-mu: FAIL  [all 8 events]\n"
            "    witness: event={a,c} mu(c1(E) minus E) > 0\n"
            "  c1-truth-types: FAIL  [all 8 events x 2 agents x 3 states]\n"
            "    witness: state=b event={a} t_y(omega, c1(E) minus E) > 0\n"
        )

    def test_cor_ta_common_diagnostic_json(self, tmp_path):
        path = write_model(tmp_path, "two.emod", TWO_AGENT_NULL_SLACK)
        code, out, _ = run_cli(
            "verify", path, "--claim", "cor-ta-common", "--diagnostic",
            "--format", "json",
        )
        assert code == 4
        checks = []
        for op in ("c", "c1"):
            checks.append(
                _check(
                    f"{op}-truth-mu",
                    _witness(event=["a", "c"], note=f"mu({op}(E) minus E) > 0"),
                    "all 8 events",
                )
            )
            checks.append(
                _check(
                    f"{op}-truth-types",
                    _witness("b", ["a"], note=f"t_y(omega, {op}(E) minus E) > 0"),
                    "all 8 events x 2 agents x 3 states",
                )
            )
        expected = _claim("cor-ta-common", ["regular"], checks)
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_order_set_containment_checks_text(self, w4):
        code, out, err = run_cli(
            "check", w4, "--axioms", "self-evidence,down-containment"
        )
        assert code == 1
        assert err == ""
        assert out == (
            "[agent] self-evidence: FAIL  [all 2^2 state pairs]\n"
            "  witness: state=b other=a"
            " t(omega, .) <= t(omega', .) fails for omega' in P(omega)\n"
            "[agent] down-containment: FAIL  [all 2^2 state pairs]\n"
            "  witness: state=a other=b"
            " t(omega', .) <= t(omega, .) fails for omega' in P(omega)\n"
        )

    def test_order_set_containment_checks_json(self, w4):
        code, out, _ = run_cli(
            "check", w4, "--axioms", "self-evidence,down-containment",
            "--format", "json",
        )
        assert code == 1
        expected = {
            "ok": False,
            "results": [
                {
                    "agent": "agent",
                    "check": _check(
                        "self-evidence",
                        _witness(
                            "b",
                            other_state="a",
                            note="t(omega, .) <= t(omega', .) fails for omega' in P(omega)",
                        ),
                        "all 2^2 state pairs",
                    ),
                },
                {
                    "agent": "agent",
                    "check": _check(
                        "down-containment",
                        _witness(
                            "a",
                            other_state="b",
                            note="t(omega', .) <= t(omega, .) fails for omega' in P(omega)",
                        ),
                        "all 2^2 state pairs",
                    ),
                },
            ],
        }
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_order_set_claims_text(self, w4):
        code, out, _ = run_cli("verify", w4, "--claim", "prop-2")
        assert code == 0
        assert out == (
            "prop-2: verified\n"
            "  prop-2-part-1: verified  (lhs=false rhs=false equivalent=true)\n"
            "    witness: state=b other=a omega' in P(omega) without t(omega,.) <= t(omega',.)\n"
            "    witness: state=b event={b} p=1\n"
            "  prop-2-part-2: verified  (lhs=false rhs=false equivalent=true)\n"
            "    witness: state=a other=b omega' in P(omega) without t(omega',.) <= t(omega,.)\n"
            "    witness: state=a event={b} p=1\n"
        )
        code, out, _ = run_cli("verify", w4, "--claim", "theorem-main-product")
        assert code == 0
        assert out == (
            "theorem-main-product: verified  (lhs=false rhs=false equivalent=true)\n"
            "  note: regularity: probability-types=false invariance=false"
            " entailment=true self-evidence=false\n"
            "  note: conditions: product-identity=false bracket-containment=false"
            " almost-sure-reverse-containment=true\n"
            "  note: mu(omega : bracket(omega) subset of P(omega)) = 1\n"
        )


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (model file stem, expected-output label, argv after the model path, exit code)
GOLDEN_CASES = (
    ("capacity_all_fail", "check-all", ("check", "--axioms", "all"), 1),
    ("reflexive_atoms", "check-all", ("check", "--axioms", "all"), 1),
    ("monotone_capacity", "cor-main", ("verify", "--claim", "cor-main", "--diagnostic"), 4),
    ("capacity_pair", "cor-main", ("verify", "--claim", "cor-main", "--diagnostic"), 4),
    ("unaware_atoms", "cor-unaware", ("verify", "--claim", "cor-unaware", "--diagnostic"), 4),
    ("two_agents_no_ck", "cor-ck", ("verify", "--claim", "cor-ck"), 4),
    ("prop1_witnesses", "prop-1", ("verify", "--claim", "prop-1"), 0),
    ("capacity_all_fail", "theorem-main", ("verify", "--claim", "theorem-main"), 0),
    ("capacity_all_fail", "prop-2", ("verify", "--claim", "prop-2"), 0),
    (
        "monotone_capacity",
        "theorem-main-product",
        ("verify", "--claim", "theorem-main-product"),
        0,
    ),
    ("reflexive_atoms", "cor-regular", ("verify", "--claim", "cor-regular"), 4),
    ("reflexive_atoms", "cor-ta", ("verify", "--claim", "cor-ta", "--diagnostic"), 4),
    (
        "two_agents_no_ck",
        "cor-ta-common",
        ("verify", "--claim", "cor-ta-common", "--diagnostic"),
        4,
    ),
    ("two_agent_partitions", "prop-3", ("verify", "--claim", "prop-3"), 0),
)


class TestGoldenFiles:
    """Whole-output pins kept as files under tests/golden.

    Each model fails (or, for prop-1, carries witnesses for) the checks whose
    report builders share the witness constructor: every single-violation
    axiom, both strong-b1-conjunction branches, support-identity, the
    unawareness sweep, the common-knowledge checks and the prop-1 witnesses.
    Every claim that ``emck verify`` accepts has a pinned output: among
    them a forward-only theorem-main-product report and a cor-regular
    report outside its hypotheses with nested parts.
    """

    def test_every_claim_has_a_golden_case(self):
        """A claim cannot be added without a pinned output of its report."""
        pinned = {
            argv[argv.index("--claim") + 1] for _, _, argv, _ in GOLDEN_CASES if "--claim" in argv
        }
        assert [name for name in mg.CLAIMS if name not in pinned] == []

    @pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize(
        "stem, label, argv, code", GOLDEN_CASES, ids=[f"{c[0]}-{c[1]}" for c in GOLDEN_CASES]
    )
    def test_output_matches_the_golden_file(self, stem, label, argv, code, fmt, ext):
        path = os.path.join(GOLDEN, f"{stem}.emod")
        got_code, out, err = run_cli(argv[0], path, *argv[1:], "--format", fmt)
        with open(os.path.join(GOLDEN, f"{stem}.{label}.{ext}"), encoding="utf-8") as fh:
            expected = fh.read()
        assert (got_code, err) == (code, "")
        assert out == expected
