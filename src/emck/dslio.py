"""Text format for model documents and the operator-expression language.

A model document (conventionally a ``.emod`` file) is line-oriented:

    # comment
    states: 1 2 3
    sigma: powerset              (or: sigma: atoms {1 2} {3})
    prior: 1=1/2 2=1/4 3=1/4
    agent alice:
      poss: 1 -> {1}; 2 -> {2 3}; 3 -> {2 3}
      type: bayes                (or: additive / capacity, with table rows)
    event E = {2 3}

Rationals are written ``p/q`` or as integers; decimals are rejected.  After
``type: additive`` each state gets a row ``s: a=1/2 b=1/2`` with one weight
per atom, keyed by any member state of the atom.  After ``type: capacity``
each state gets rows of ``{s ...}=p/q`` entries covering every event of the
algebra.  ``type: bayes`` derives the types from the prior and the cells at
load time and requires every cell to have positive measure.  A state may be
named after a section keyword (``states``, ``sigma``, ``prior``, ``poss``,
``type``): under an ``additive`` or ``capacity`` type, a line headed by that
keyword once its section is already given is the state's table row.  The
format has no quoting, so a state, agent or event name holds no whitespace
and none of ``#:;={}`` (:func:`~emck.events.check_name` refuses such names).

Syntax and name-resolution problems raise :class:`ParseError` with a source
location; structural model problems (a cell outside the algebra, zero
agents) surface as the model types' own errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Mapping

from .beliefs import Prior, SetFunction, TypeMapping, as_threshold, set_function_from_atom_weights
from .caching import cached_property
from .errors import (
    AlgebraMismatch,
    CapacityParseError,
    ConditioningOnNull,
    InvariantError,
    NotMeasurable,
    ParseError,
    PriorNotNormalized,
    PriorParseError,
    RationalOutOfRange,
)
from .events import (
    Event,
    SigmaAlgebra,
    StateSpace,
    check_name,
    make_space,
    sigma_from_atoms,
    sigma_powerset,
)
from .multiagent import InteractiveModel, common_p_belief, common_qualitative
from .operators import EpistemicModel, PossibilityCorrespondence, p_belief, qualitative_belief
from .reports import format_rational, parse_rational
from .theorems import bayes_type_from_poss

TYPE_DECLS = ("bayes", "additive", "capacity")

# ``type:`` takes exactly one token; any other ``type:`` line is a table row
_SECTION_RE = re.compile(r"(states|sigma|prior|poss|type(?=:\s*\S+$)):\s*(.*)")
_AGENT_RE = re.compile(r"agent\s+(\S.*?)\s*:")
_EVENT_RE = re.compile(r"event\s+(\S.*?)\s*=\s*\{([^{}]*)\}")
_PAYLOAD_RE = re.compile(r"(\S+?)\s*:\s*(.*)")
_ATOMS_RE = re.compile(r"atoms((?:\s*\{[^{}]*\})+)\s*")
_BRACE_RE = re.compile(r"\{([^{}]*)\}")
_POSS_ENTRY_RE = re.compile(r"(\S+?)\s*->\s*\{([^{}]*)\}\s*")
_KV_RE = re.compile(r"(\S+?)=(\S+)")
_CAP_ENTRY_RE = re.compile(r"\{([^{}]*)\}\s*=\s*(\S+)")


def _rational(token: str, line: int | None, col: int | None = None) -> Fraction:
    try:
        return parse_rational(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {token!r}: {exc}", line, col) from exc


def _state_index(space: StateSpace, name: str, line: int) -> int:
    try:
        return space.index[name]
    except KeyError:
        raise ParseError(f"unknown state {name!r}", line) from None


def _members_mask(space: StateSpace, body: str, line: int) -> int:
    mask = 0
    for name in body.split():
        mask |= 1 << _state_index(space, name, line)
    return mask


@dataclass(frozen=True)
class ModelDoc:
    """A parsed model document: the model, its named events, and the type
    declarations each agent block used (needed for a faithful round trip).
    Event names are distinct and pass :func:`~emck.events.check_name`.

    ``locations`` maps section keys ("prior", "agent alice", "event E", ...)
    to 1-based source lines; it is excluded from structural equality.
    """

    imodel: InteractiveModel
    named_events: tuple[tuple[str, Event], ...] = ()
    type_decls: tuple[str, ...] = ()
    locations: tuple[tuple[str, int], ...] = field(default=(), compare=False)

    def __post_init__(self):
        if len(self.type_decls) != len(self.imodel.agents):
            raise InvariantError("one type declaration per agent required")
        for decl in self.type_decls:
            if decl not in TYPE_DECLS:
                raise InvariantError(f"unknown type declaration {decl!r}")
        names = [name for name, _ in self.named_events]
        for name in names:
            check_name(name, "event")
        if len(set(names)) != len(names):
            raise InvariantError("event names must be unique")

    @cached_property
    def events(self) -> dict[str, Event]:
        return dict(self.named_events)

    @property
    def model(self) -> EpistemicModel:
        """The sole agent's model; defined only for single-agent documents."""
        if len(self.imodel.agents) != 1:
            raise InvariantError(
                f"document has {len(self.imodel.agents)} agents; name one"
            )
        return self.imodel.agent_models[0]

    def location(self, key: str) -> int | None:
        for k, line in self.locations:
            if k == key:
                return line
        return None


def parse_model(text: str) -> ModelDoc:
    """Parse document text.  Raises ParseError (with source line) for syntax,
    name-resolution, normalization, and table-coverage problems; model-level
    invariant violations propagate from the component constructors."""
    space: StateSpace | None = None
    # every section by its location key ("states", "poss alice", "event E",
    # ...): its text and line, in source order
    sections: dict[str, tuple[str, int]] = {}
    rows: dict[str, list[tuple[str, str, int]]] = {}  # each agent's table rows
    agent: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        decl = sections.get(f"type {agent}", ("",))[0]
        if m := _SECTION_RE.fullmatch(line):
            kind, body = m.groups()
            key, what = kind, f"{kind} section"
            if kind in ("poss", "type"):
                if agent is None:
                    raise ParseError(f"{kind}: outside an agent block", line_no)
                key, what = f"{kind} {agent}", f"{kind} in agent {agent!r}"
            if (
                key in sections
                and decl in ("additive", "capacity")
                and space is not None
                and kind in space.index
            ):
                # a state named like the section keys a row of the agent's table
                rows[agent].append((kind, body, line_no))
                continue
        elif m := _AGENT_RE.fullmatch(line):
            name = body = m.group(1)
            kind, key, what = "agent", f"agent {name}", f"agent {name!r}"
        elif m := _EVENT_RE.fullmatch(line):
            name, body = m.groups()
            kind, key, what = "event", f"event {name}", f"event {name!r}"
        elif (m := _PAYLOAD_RE.fullmatch(line)) and decl:
            if decl == "bayes":
                raise ParseError("type: bayes takes no table rows", line_no)
            rows[agent].append((m.group(1), m.group(2), line_no))
            continue
        else:
            raise ParseError(f"unrecognized line: {line!r}", line_no)
        if key in sections:
            raise ParseError(f"duplicate {what}", line_no)
        if kind == "states" and not body:
            raise ParseError("states: needs at least one name", line_no)
        if kind == "type" and body not in TYPE_DECLS:
            raise ParseError(
                f"unknown type mode {body!r}; expected one of {TYPE_DECLS}", line_no
            )
        try:
            if kind == "states":
                space = make_space(body.split())
            elif kind in ("agent", "event"):
                check_name(name, kind)
        except InvariantError as exc:
            raise ParseError(str(exc), line_no) from exc
        if kind == "agent":
            agent = body
            rows[agent] = []
        sections[key] = (body, line_no)

    for kind in ("states", "sigma", "prior"):
        if kind not in sections:
            raise ParseError(f"missing {kind} section")
    sigma = _resolve_sigma(space, *sections["sigma"])
    prior = _resolve_prior(sigma, *sections["prior"])
    names = tuple(rows)
    posses = tuple(_resolve_poss(sigma, sections, name) for name in names)
    types = tuple(
        _resolve_types(sigma, prior, poss, sections, name, rows[name])
        for poss, name in zip(posses, names)
    )
    decls = tuple(sections[f"type {name}"][0] for name in names)

    named_events = []
    for key, (body, line_no) in sections.items():
        kind, _, name = key.partition(" ")
        if kind == "event":
            mask = _members_mask(space, body, line_no)
            try:
                named_events.append((name, sigma.event_from_mask(mask)))
            except NotMeasurable as exc:
                raise NotMeasurable(f"event {name}: {exc} (line {line_no})") from exc

    imodel = InteractiveModel(sigma, prior, names, posses, types)
    locations = tuple((key, line_no) for key, (_, line_no) in sections.items())
    return ModelDoc(imodel, tuple(named_events), decls, locations)


def _agent_section(
    sections: Mapping[str, tuple[str, int]], kind: str, agent: str
) -> tuple[str, int]:
    key = f"{kind} {agent}"
    if key not in sections:
        raise ParseError(f"agent {agent!r}: missing {kind}", sections[f"agent {agent}"][1])
    return sections[key]


def _resolve_sigma(space: StateSpace, rest: str, line: int) -> SigmaAlgebra:
    if rest == "powerset":
        return sigma_powerset(space)
    m = _ATOMS_RE.fullmatch(rest)
    if not m:
        raise ParseError(
            f"sigma must be 'powerset' or 'atoms {{...}} ...', got {rest!r}", line
        )
    blocks = [body.split() for body in _BRACE_RE.findall(m.group(1))]
    for blk in blocks:
        for name in blk:
            _state_index(space, name, line)
    try:
        return sigma_from_atoms(space, blocks)
    except InvariantError as exc:
        raise ParseError(str(exc), line) from exc


def _atom_weights(
    sigma: SigmaAlgebra,
    rest: str,
    line: int,
    error: type[ParseError],
    prefix: str,
    noun: str,
) -> tuple[Fraction, ...]:
    """One weight per atom from ``key=value`` entries keyed by any member
    state: a ``prior:`` line, or a row of an ``additive`` table."""
    per_atom: dict[int, Fraction] = {}
    for token in rest.split():
        m = _KV_RE.fullmatch(token)
        if not m:
            raise ParseError(f"expected name=value, got {token!r}", line)
        key, value = m.groups()
        j = sigma.atom_index_of_state[_state_index(sigma.space, key, line)]
        if j in per_atom:
            raise error(f"{prefix}atom containing {key!r} given two weights", line)
        per_atom[j] = _rational(value, line)
    missing = [j for j in range(sigma.n_atoms) if j not in per_atom]
    if missing:
        name = sigma.space.names_of(sigma.atoms[missing[0]])[0]
        raise error(f"{prefix}no {noun} for the atom of {name!r}", line)
    return tuple(per_atom[j] for j in range(sigma.n_atoms))


def _resolve_prior(sigma: SigmaAlgebra, rest: str, line: int) -> Prior:
    weights = _atom_weights(sigma, rest, line, PriorParseError, "", "prior weight")
    try:
        return Prior(sigma, weights)
    except PriorNotNormalized as exc:
        raise PriorParseError(str(exc), line) from exc


def _resolve_poss(
    sigma: SigmaAlgebra, sections: Mapping[str, tuple[str, int]], agent: str
) -> PossibilityCorrespondence:
    rest, line = _agent_section(sections, "poss", agent)
    space = sigma.space
    cells: dict[int, int] = {}
    for segment in rest.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        m = _POSS_ENTRY_RE.fullmatch(segment)
        if not m:
            raise ParseError(f"expected 'state -> {{...}}', got {segment!r}", line)
        i = _state_index(space, m.group(1), line)
        if i in cells:
            raise ParseError(f"duplicate cell for state {m.group(1)!r}", line)
        cells[i] = _members_mask(space, m.group(2), line)
    for i, name in enumerate(space.states):
        if i not in cells:
            raise ParseError(f"agent {agent!r}: no cell for state {name!r}", line)
    try:
        return PossibilityCorrespondence(
            sigma, tuple(cells[i] for i in range(len(space)))
        )
    except NotMeasurable as exc:
        raise NotMeasurable(f"agent {agent!r}: {exc} (line {line})") from exc


def _resolve_types(
    sigma: SigmaAlgebra,
    prior: Prior,
    poss: PossibilityCorrespondence,
    sections: Mapping[str, tuple[str, int]],
    agent: str,
    rows: list[tuple[str, str, int]],
) -> TypeMapping:
    decl, type_line = _agent_section(sections, "type", agent)
    space = sigma.space
    if decl == "bayes":
        return bayes_type_from_poss(sigma, prior, poss)
    if decl == "additive":
        weights: dict[int, tuple[Fraction, ...]] = {}
        for token, rest, line_no in rows:
            i = _state_index(space, token, line_no)
            if i in weights:
                raise ParseError(
                    f"duplicate additive row for state {token!r}", line_no
                )
            weights[i] = _atom_weights(
                sigma, rest, line_no, CapacityParseError,
                f"agent {agent!r}, state {token!r}: ", "weight",
            )
        per_state = []
        for i, name in enumerate(space.states):
            if i not in weights:
                raise CapacityParseError(
                    f"agent {agent!r}: no additive row for state {name!r}", type_line
                )
            per_state.append(
                _build_set_function(
                    set_function_from_atom_weights, sigma, weights[i], type_line,
                    f"agent {agent!r}, state {name!r}: ",
                )
            )
        return TypeMapping(sigma, tuple(per_state))
    # capacity
    tables: dict[int, dict[int, tuple[Fraction, int]]] = {}
    for token, rest, line_no in rows:
        i = _state_index(space, token, line_no)
        entries = tables.setdefault(i, {})
        tail = _CAP_ENTRY_RE.sub("", rest).strip()
        if tail:
            raise ParseError(
                f"expected '{{...}}=p/q' entries, got {tail!r}", line_no
            )
        for m in _CAP_ENTRY_RE.finditer(rest):
            mask = _members_mask(space, m.group(1), line_no)
            try:
                combo = sigma.combo_index(mask)
            except NotMeasurable as exc:
                raise CapacityParseError(
                    f"{{{m.group(1).strip()}}} is not an event of sigma", line_no
                ) from exc
            if combo in entries:
                raise ParseError(
                    f"duplicate capacity entry for state {token!r}, "
                    f"event {{{m.group(1).strip()}}}",
                    line_no,
                )
            entries[combo] = (_rational(m.group(2), line_no), line_no)
    per_state = []
    for i, name in enumerate(space.states):
        entries = tables.get(i)
        if entries is None:
            raise CapacityParseError(
                f"agent {agent!r}: no capacity rows for state {name!r}", type_line
            )
        table = []
        for combo in range(1 << sigma.n_atoms):
            if combo not in entries:
                literal = _event_literal(sigma, sigma.event_masks[combo])
                raise CapacityParseError(
                    f"agent {agent!r}, state {name!r}: no entry for "
                    f"event {literal}",
                    type_line,
                )
            table.append(entries[combo][0])
        last_line = max(line for _, line in entries.values())
        per_state.append(_build_set_function(SetFunction, sigma, tuple(table), last_line))
    return TypeMapping(sigma, tuple(per_state))


def _build_set_function(
    make: Callable[[SigmaAlgebra, Any], SetFunction],
    sigma: SigmaAlgebra,
    values,
    line: int,
    prefix: str = "",
) -> SetFunction:
    try:
        return make(sigma, values)
    except RationalOutOfRange as exc:
        raise ParseError(f"{prefix}{exc}", line) from exc

# ---------------------------------------------------------------------------
# serialization


def _event_literal(sigma: SigmaAlgebra, mask: int) -> str:
    return "{" + " ".join(sigma.space.names_of(mask)) + "}"


def _atom_key(sigma: SigmaAlgebra, j: int) -> str:
    return sigma.space.names_of(sigma.atoms[j])[0]


def infer_type_decl(
    sigma: SigmaAlgebra,
    prior: Prior,
    poss: PossibilityCorrespondence,
    types: TypeMapping,
) -> str:
    """Most specific declaration that reproduces ``types`` exactly.

    An ``additive`` row lists the singleton values, so it reproduces exactly
    the tables that are the subset sums of their singletons."""
    try:
        if types == bayes_type_from_poss(sigma, prior, poss):
            return "bayes"
    except ConditioningOnNull:
        pass
    return "additive" if all(sf.additive for sf in types.per_state) else "capacity"


def serialize_model(
    imodel: InteractiveModel,
    *,
    named_events: tuple[tuple[str, Event], ...] = (),
    type_decls: tuple[str, ...] | None = None,
    expand_types: bool = False,
) -> str:
    """Canonical document text for the model: declaration order preserved,
    rationals reduced, single-space separators.  Bit-exact round trip through
    :func:`parse_model`.  With ``expand_types`` a ``bayes`` declaration is
    replaced by the equivalent explicit additive tables."""
    sigma = imodel.sigma
    space = sigma.space
    lines = [f"states: {' '.join(space.states)}"]
    if sigma.is_powerset:
        lines.append("sigma: powerset")
    else:
        lines.append(
            "sigma: atoms " + " ".join(_event_literal(sigma, a) for a in sigma.atoms)
        )
    lines.append(
        "prior: "
        + " ".join(
            f"{_atom_key(sigma, j)}={format_rational(w)}"
            for j, w in enumerate(imodel.prior.weights)
        )
    )
    if type_decls is None:
        decls = tuple(
            infer_type_decl(sigma, imodel.prior, poss, types)
            for poss, types in zip(imodel.posses, imodel.types)
        )
    else:
        decls = type_decls
    for name, poss, types, decl in zip(
        imodel.agents, imodel.posses, imodel.types, decls
    ):
        lines.append(f"agent {name}:")
        lines.append(
            "  poss: "
            + "; ".join(
                f"{s} -> {_event_literal(sigma, poss.cells[i])}"
                for i, s in enumerate(space.states)
            )
        )
        if decl == "bayes" and expand_types:
            decl = "additive"
        if decl == "bayes":
            lines.append("  type: bayes")
            continue
        lines.append(f"  type: {decl}")
        for i, s in enumerate(space.states):
            sf = types.per_state[i]
            if decl == "additive":
                entries = " ".join(
                    f"{_atom_key(sigma, j)}={format_rational(sf.table[1 << j])}"
                    for j in range(sigma.n_atoms)
                )
            else:
                entries = " ".join(
                    f"{_event_literal(sigma, sigma.event_masks[c])}"
                    f"={format_rational(v)}"
                    for c, v in enumerate(sf.table)
                )
            lines.append(f"  {s}: {entries}")
    for name, ev in named_events:
        lines.append(f"event {name} = {_event_literal(sigma, ev.mask)}")
    return "\n".join(lines) + "\n"


def serialize_doc(doc: ModelDoc, expand_types: bool = False) -> str:
    return serialize_model(
        doc.imodel,
        named_events=doc.named_events,
        type_decls=doc.type_decls,
        expand_types=expand_types,
    )


def doc_to_dict(doc: ModelDoc, expand_types: bool = False) -> dict[str, Any]:
    """JSON-ready mirror of the document structure (rationals as strings)."""
    imodel = doc.imodel
    sigma = imodel.sigma
    space = sigma.space
    agents = []
    for name, poss, types, decl in zip(
        imodel.agents, imodel.posses, imodel.types, doc.type_decls
    ):
        entry: dict[str, Any] = {
            "name": name,
            "poss": {
                s: list(space.names_of(poss.cells[i]))
                for i, s in enumerate(space.states)
            },
            "type": decl,
        }
        if decl != "bayes" or expand_types:
            entry["tables"] = {
                s: {
                    _event_literal(sigma, sigma.event_masks[c]): format_rational(v)
                    for c, v in enumerate(types.per_state[i].table)
                }
                for i, s in enumerate(space.states)
            }
        agents.append(entry)
    return {
        "states": list(space.states),
        "sigma": "powerset"
        if sigma.is_powerset
        else [list(space.names_of(a)) for a in sigma.atoms],
        "prior": {
            _atom_key(sigma, j): format_rational(w)
            for j, w in enumerate(imodel.prior.weights)
        },
        "agents": agents,
        "events": {n: list(e.members) for n, e in doc.named_events},
    }


# ---------------------------------------------------------------------------
# operator expressions


@dataclass(frozen=True)
class Expr:
    """Base class of expression AST nodes."""


@dataclass(frozen=True)
class NameExpr(Expr):
    name: str


@dataclass(frozen=True)
class LiteralExpr(Expr):
    states: tuple[str, ...]


@dataclass(frozen=True)
class NotExpr(Expr):
    arg: Expr


@dataclass(frozen=True)
class AndExpr(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class OrExpr(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class ModalExpr(Expr):
    op: str  # "K" | "B" | "C" | "Cp"
    arg: Expr
    agent: str | None = None
    p: Fraction | None = None


# a name is any run of the characters that ``check_name`` allows and the
# grammar does not use
_EXPR_TOKEN_RE = re.compile(r"\s*(?:(\{[^{}]*\})|([^\s#:;={}~&|()\[\],]+)|([~&|()\[\],]))")


def _tokenize_expr(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(
                    f"unexpected character {text[pos:].strip()[0]!r} in expression",
                    col=pos + 1,
                )
            break
        if m.group(1) is not None:
            tokens.append(("literal", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("sym", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize_expr(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", col=len(self.text) + 1)
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, got {tok[1]!r}", col=tok[2] + 1)

    def parse(self) -> Expr:
        expr = self.or_expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", col=tok[2] + 1)
        return expr

    def or_expr(self) -> Expr:
        expr = self.and_expr()
        while (tok := self.peek()) and tok[1] == "|":
            self.next()
            expr = OrExpr(expr, self.and_expr())
        return expr

    def and_expr(self) -> Expr:
        expr = self.not_expr()
        while (tok := self.peek()) and tok[1] == "&":
            self.next()
            expr = AndExpr(expr, self.not_expr())
        return expr

    def not_expr(self) -> Expr:
        tok = self.peek()
        if tok and tok[1] == "~":
            self.next()
            return NotExpr(self.not_expr())
        return self.primary()

    def primary(self) -> Expr:
        tok = self.next()
        kind, value, pos = tok
        if kind == "literal":
            return LiteralExpr(tuple(value[1:-1].split()))
        if kind == "sym" and value == "(":
            expr = self.or_expr()
            self.expect(")")
            return expr
        if kind != "name":
            raise ParseError(f"unexpected token {value!r}", col=pos + 1)
        nxt = self.peek()
        if value in ("K", "B", "Cp") and nxt and nxt[1] == "[":
            return self.modal_brackets(value)
        if value == "C" and nxt and nxt[1] == "(":
            self.next()
            arg = self.or_expr()
            self.expect(")")
            return ModalExpr("C", arg)
        return NameExpr(value)

    def modal_brackets(self, op: str) -> Expr:
        self.expect("[")
        agent = None
        p = None
        if op in ("K", "B"):
            agent = self.next()[1]
        if op == "B":
            self.expect(",")
        if op in ("B", "Cp"):
            tok = self.next()
            p = as_threshold(_rational(tok[1], None, col=tok[2] + 1))
        self.expect("]")
        self.expect("(")
        arg = self.or_expr()
        self.expect(")")
        return ModalExpr(op, arg, agent=agent, p=p)


def parse_expr(text: str) -> Expr:
    """Parse an operator expression.  Precedence: ~ binds tighter than &,
    which binds tighter than |; modal operators apply like functions."""
    return _ExprParser(text).parse()


def eval_expr(
    imodel: InteractiveModel,
    expr: Expr | str,
    names: Mapping[str, Event] | None = None,
) -> Event:
    """Evaluate an expression to an event of the model's algebra.  ``names``
    resolves bare identifiers (a document's named events)."""
    if isinstance(expr, str):
        expr = parse_expr(expr)
    names = names or {}
    sigma = imodel.sigma

    def ev(node: Expr) -> Event:
        if isinstance(node, NameExpr):
            if node.name not in names:
                raise ParseError(f"unknown event name {node.name!r}")
            event = names[node.name]
            try:
                sigma.check_same(event.sigma, f"event {node.name!r} belongs to a different algebra")
            except AlgebraMismatch as exc:
                raise ParseError(str(exc)) from None
            return event
        if isinstance(node, LiteralExpr):
            mask = 0
            for name in node.states:
                if name not in sigma.space.index:
                    raise ParseError(f"unknown state {name!r}")
                mask |= 1 << sigma.space.index[name]
            return sigma.event_from_mask(mask)
        if isinstance(node, NotExpr):
            return ev(node.arg).complement()
        if isinstance(node, AndExpr):
            return ev(node.left).intersect(ev(node.right))
        if isinstance(node, OrExpr):
            return ev(node.left).union(ev(node.right))
        if not isinstance(node, ModalExpr):
            raise RuntimeError(
                f"internal inconsistency: unknown expression node {type(node).__name__}"
            )
        arg = ev(node.arg)
        if node.op == "C":
            return common_qualitative(imodel, arg)
        if node.op == "Cp":
            return common_p_belief(imodel, node.p, arg)
        try:
            agent = imodel.agent_model(node.agent)
        except KeyError:
            raise ParseError(f"unknown agent {node.agent!r}") from None
        if node.op == "K":
            return qualitative_belief(agent, arg)
        return p_belief(agent, node.p, arg)

    return ev(expr)


def eval_in_doc(doc: ModelDoc, expr: Expr | str) -> Event:
    return eval_expr(doc.imodel, expr, doc.events)
