"""Command-line interface: validate and check model files, verify theorem
claims, evaluate operator expressions, rewrite models canonically, and search
model families for counterexamples.

Exit codes are a stable contract: 0 pass, 1 check failed or claim falsified,
2 parse error, 3 model invariant violated, 4 theorem hypothesis unmet,
5 resource limit (a family, sweep or model too large to enumerate), 64 usage error.
Output for fixed inputs and flags is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import replace
from typing import Callable

from .axioms import (
    check_certainty,
    check_down_certainty,
    check_down_containment,
    check_entailment,
    check_invariance,
    check_p_introspection,
    check_positive_certainty,
    check_self_evidence,
    check_types_are_measures,
    is_regular,
    kripke_properties,
)
from .dslio import (
    ModelDoc,
    doc_to_dict,
    eval_in_doc,
    parse_model,
    serialize_doc,
    serialize_model,
)
from .errors import (
    AssumptionViolated,
    EmckError,
    ParseError,
    RationalOutOfRange,
    ResourceLimit,
)
from .fixtures import as_interactive
from .modelgen import (
    CLAIMS,
    POSS_MODES,
    REQUIRE_FLAGS,
    SIGMA_MODES,
    TYPE_MODES,
    GenParams,
    search_counterexample,
)
from .operators import EpistemicModel
from .reports import CheckReport, VerificationReport, format_rational
from .theorems import bayes_type_from_poss, poss_from_type

USAGE_EXIT = 64

AXIOM_CHECKS: dict[str, Callable[[EpistemicModel], CheckReport]] = {
    "probability-types": check_types_are_measures,
    "invariance": check_invariance,
    "entailment": check_entailment,
    "self-evidence": check_self_evidence,
    "down-containment": check_down_containment,
    "certainty": check_certainty,
    "certainty-almost-sure": lambda m: check_certainty(m, almost_surely=True),
    "positive-certainty": check_positive_certainty,
    "down-certainty": check_down_certainty,
    "introspection": check_p_introspection,
    "regular": is_regular,
    "kripke": kripke_properties,
}


class _Parser(argparse.ArgumentParser):
    """argparse maps its own errors to exit 2; the contract reserves 2 for
    parse errors, so usage problems exit with 64 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# ---------------------------------------------------------------------------
# rendering

_BOOL = {True: "true", False: "false", None: "-"}


def _fmt_witness(w) -> str:
    parts = []
    if w.state is not None:
        parts.append(f"state={w.state}")
    if w.other_state is not None:
        parts.append(f"other={w.other_state}")
    if w.event is not None:
        parts.append("event={" + ",".join(w.event) + "}")
    if w.threshold is not None:
        parts.append(f"p={format_rational(w.threshold)}")
    if w.note:
        parts.append(w.note)
    return " ".join(parts) if parts else "(no detail)"


def _render_check(r: CheckReport, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    line = f"{pad}{r.name}: {'pass' if r.passed else 'FAIL'}"
    if r.scope:
        line += f"  [{r.scope}]"
    out.append(line)
    for w in r.witnesses:
        out.append(f"{pad}  witness: {_fmt_witness(w)}")
    for c in r.children:
        _render_check(c, indent + 1, out)


def _render_verification(r: VerificationReport, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    head = f"{pad}{r.claim}: {r.status}"
    if r.lhs is not None or r.rhs is not None or r.equivalent is not None:
        head += (
            f"  (lhs={_BOOL[r.lhs]} rhs={_BOOL[r.rhs]}"
            f" equivalent={_BOOL[r.equivalent]})"
        )
    out.append(head)
    if r.hypotheses:
        out.append(
            f"{pad}  hypotheses: "
            + " ".join(f"{h.name}={_BOOL[h.holds]}" for h in r.hypotheses)
        )
    for n in r.notes:
        out.append(f"{pad}  note: {n}")
    for w in r.witnesses:
        out.append(f"{pad}  witness: {_fmt_witness(w)}")
    for p in r.parts:
        _render_verification(p, indent + 1, out)
    for c in r.checks:
        _render_check(c, indent + 1, out)


def _print_report(report, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json())
        return
    lines: list[str] = []
    if isinstance(report, VerificationReport):
        _render_verification(report, 0, lines)
    else:
        _render_check(report, 0, lines)
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# commands


def _load_doc(path: str) -> ModelDoc:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_model(text)


def cmd_validate(args) -> int:
    doc = _load_doc(args.file)
    if args.format == "json":
        print(json.dumps({"ok": True, "doc": doc_to_dict(doc)}, indent=2))
    else:
        im = doc.imodel
        print(
            f"ok: {len(im.space)} states, {im.sigma.n_atoms} atoms, "
            f"{len(im.agents)} agent(s), {len(doc.named_events)} named event(s)"
        )
    return 0


def cmd_check(args) -> int:
    doc = _load_doc(args.file)
    imodel = doc.imodel
    if args.axioms == "all":
        names = list(AXIOM_CHECKS)
    else:
        names = [s.strip() for s in args.axioms.split(",") if s.strip()]
        unknown = [n for n in names if n not in AXIOM_CHECKS]
        if unknown:
            print(
                f"unknown axiom name(s): {', '.join(unknown)}; "
                f"known: {', '.join(AXIOM_CHECKS)}",
                file=sys.stderr,
            )
            return USAGE_EXIT
        if not names:
            print("no axioms named", file=sys.stderr)
            return USAGE_EXIT
    if args.agent == "all":
        agent_names = imodel.agents
    elif args.agent in imodel.agents:
        agent_names = (args.agent,)
    else:
        print(f"unknown agent {args.agent!r}", file=sys.stderr)
        return USAGE_EXIT
    results = []
    all_pass = True
    for agent in agent_names:
        model = imodel.agent_model(agent)
        for name in names:
            rep = AXIOM_CHECKS[name](model)
            all_pass = all_pass and rep.passed
            results.append((agent, rep))
    if args.format == "json":
        payload = {
            "ok": all_pass,
            "results": [
                {"agent": agent, "check": rep.to_dict()} for agent, rep in results
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        lines: list[str] = []
        for agent, rep in results:
            _render_check(replace(rep, name=f"[{agent}] {rep.name}"), 0, lines)
        print("\n".join(lines))
    return 0 if all_pass else 1


def _pick_agent_model(doc: ModelDoc, agent: str | None) -> EpistemicModel | None:
    imodel = doc.imodel
    if agent is not None:
        if agent not in imodel.agents:
            print(f"unknown agent {agent!r}", file=sys.stderr)
            return None
        return imodel.agent_model(agent)
    if len(imodel.agents) == 1:
        return imodel.agent_models[0]
    print(
        "--agent is required for single-agent claims on multi-agent documents",
        file=sys.stderr,
    )
    return None


def cmd_verify(args) -> int:
    doc = _load_doc(args.file)
    kind, verifier = CLAIMS[args.claim]
    if kind == "interactive":
        model = doc.imodel
    else:
        model = _pick_agent_model(doc, args.agent)
        if model is None:
            return USAGE_EXIT
    if "diagnostic" in inspect.signature(verifier).parameters:
        report = verifier(model, diagnostic=args.diagnostic)
    else:
        report = verifier(model)
    _print_report(report, args.format)
    if isinstance(report, CheckReport):
        return 0 if report.passed else 1
    return {"verified": 0, "falsified": 1, "hypothesis-not-met": 4}[report.status]


def cmd_eval(args) -> int:
    doc = _load_doc(args.file)
    event = eval_in_doc(doc, args.expr)
    member = None
    if args.at is not None:
        if args.at not in doc.imodel.space.index:
            raise ParseError(f"unknown state {args.at!r}")
        member = args.at in event
    if args.format == "json":
        payload = {"event": list(event.members)}
        if args.at is not None:
            payload["at"] = args.at
            payload["member"] = member
        print(json.dumps(payload, indent=2))
    else:
        print(repr(event))
        if args.at is not None:
            print(f"{args.at}: {_BOOL[member]}")
    return 0


def cmd_canonical(args) -> int:
    doc = _load_doc(args.file)
    im = doc.imodel
    if args.mode == "bayes-from-poss":
        types = tuple(
            bayes_type_from_poss(im.sigma, im.prior, poss) for poss in im.posses
        )
        new_im = replace(im, types=types)
        decls = tuple("bayes" for _ in im.agents)
    else:  # poss-from-type
        posses = tuple(poss_from_type(im.sigma, im.prior, t) for t in im.types)
        new_im = replace(im, posses=posses)
        decls = doc.type_decls
    new_doc = ModelDoc(new_im, doc.named_events, decls)
    text = serialize_doc(new_doc, expand_types=args.expand_types)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif args.format == "json":
        print(
            json.dumps(doc_to_dict(new_doc, expand_types=args.expand_types), indent=2)
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_search(args) -> int:
    require = tuple(s.strip() for s in (args.require or "").split(",") if s.strip())
    unknown = [f for f in require if f not in REQUIRE_FLAGS]
    if unknown:
        print(
            f"unknown require flag(s): {', '.join(unknown)}; "
            f"known: {', '.join(REQUIRE_FLAGS)}",
            file=sys.stderr,
        )
        return USAGE_EXIT
    params = GenParams(
        n_states=args.states,
        weight_denominator=args.denominator,
        sigma_mode=args.sigma_mode,
        type_mode=args.type_mode,
        poss_mode=args.poss_mode,
        require=require,
        seed=args.seed,
        budget=args.budget,
        full_support=args.full_support,
        n_agents=args.agents,
    )
    mode = "enumerate" if args.mode == "exhaustive" else "random"
    try:
        result = search_counterexample(args.claim, params, mode=mode)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    model_text = None
    if result.found:
        model = result.model
        if isinstance(model, EpistemicModel):
            model = as_interactive(model, "agent")
        model_text = serialize_model(model)
    if args.format == "json":
        payload = {
            "claim": result.claim,
            "found": result.found,
            "models_checked": result.models_checked,
            "hypothesis_skips": result.hypothesis_skips,
        }
        if result.found:
            payload["report"] = result.report.to_dict()
            payload["model"] = model_text
        print(json.dumps(payload, indent=2))
    else:
        if not result.found:
            print(
                f"NotFound after {result.models_checked} models checked "
                f"({result.hypothesis_skips} outside hypotheses)"
            )
        else:
            print(
                f"Found counterexample after {result.models_checked} models "
                f"checked ({result.hypothesis_skips} outside hypotheses)"
            )
            _print_report(result.report, "text")
            if not args.out:
                sys.stdout.write(model_text)
    if result.found and args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(model_text)
    return 1 if result.found else 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="emck",
        description="Exact checking of finite epistemic models: knowledge and "
        "p-belief operators, consistency axioms, and the theorems tying them "
        "to Bayesian conditioning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    p = sub.add_parser("validate", parents=[common], help="parse and structurally check a model file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", parents=[common], help="run consistency axioms")
    p.add_argument("file")
    p.add_argument(
        "--axioms",
        default="all",
        help="comma-separated axiom names, or 'all' "
        f"(known: {', '.join(AXIOM_CHECKS)})",
    )
    p.add_argument("--agent", default="all", help="agent name, or 'all'")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", parents=[common], help="verify a theorem claim")
    p.add_argument("file")
    p.add_argument("--claim", required=True, choices=tuple(CLAIMS))
    p.add_argument("--agent", default=None, help="agent for single-agent claims")
    p.add_argument(
        "--diagnostic",
        action="store_true",
        help="report conclusion checks even when claim preconditions fail",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", parents=[common], help="evaluate an operator expression")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.add_argument("--at", default=None, help="also report membership of this state")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("canonical", parents=[common], help="rewrite a model canonically")
    p.add_argument("file")
    p.add_argument(
        "--mode", required=True, choices=("bayes-from-poss", "poss-from-type")
    )
    p.add_argument("--out", default=None, help="write the document here instead of stdout")
    p.add_argument(
        "--expand-types",
        action="store_true",
        help="emit explicit additive tables instead of 'type: bayes'",
    )
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("search", parents=[common], help="search a model family for counterexamples")
    p.add_argument("--claim", required=True, choices=tuple(CLAIMS))
    p.add_argument("--states", type=_positive_int, default=2)
    p.add_argument("--agents", type=_positive_int, default=1)
    p.add_argument("--denominator", type=_positive_int, default=2)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--sigma-mode", choices=SIGMA_MODES, default="powerset")
    p.add_argument("--type-mode", choices=TYPE_MODES, default="random-additive")
    p.add_argument("--poss-mode", choices=POSS_MODES, default="arbitrary-nonempty")
    p.add_argument("--full-support", action="store_true")
    p.add_argument("--require", default="", help="comma-separated require flags")
    p.add_argument("--out", default=None, help="write a found model here")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except AssumptionViolated as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 4
    except RationalOutOfRange as exc:
        # only expression thresholds reach here unwrapped
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 5
    except EmckError as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
