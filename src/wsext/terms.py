"""Terms over a signature: s-expression parsing, printing, substitution.

The term text format is minimal: a term is either a variable name, a
0-ary operation name, or ``(op t1 ... tk)`` with whitespace-separated
subterms.  There is no infix syntax and no escaping; symbols are runs of
non-whitespace, non-parenthesis ASCII characters.

Terms are syntax only: their values are tabulated by the one term kernel,
``algebra._factored``, each subterm over the axes of its own variables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import ArityMismatch, TermSyntaxError, UnboundVariable, UnknownSymbol
from .report import Record

if TYPE_CHECKING:  # pragma: no cover
    from .algebra import Signature


class Term:
    """Abstract syntax tree node; concrete nodes are Var and App."""

    __slots__ = ()


class Var(Term, Record):
    name: str


class App(Term, Record):
    op: str
    args: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    return set().union(*(term_vars(a) for a in t.args)) if t.args else set()


def substitute(t: Term, env: Mapping[str, Term]) -> Term:
    """t with every variable named in env replaced by its term, all at
    once: the substituted terms are not themselves substituted into."""
    if isinstance(t, Var):
        return env.get(t.name, t)
    return App(t.op, tuple(substitute(a, env) for a in t.args))


def format_term(t: Term) -> str:
    """Render a term back to its text form (0-ary ops print bare)."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.op
    return "(" + " ".join([t.op] + [format_term(a) for a in t.args]) + ")"


# -- parsing -------------------------------------------------------------------

_DELIMS = "()"

# Parenthesis nesting allowed in term text.  Printing, substitution and the
# equation kernels recurse once or twice per level, so the cap keeps every
# parsed term well inside the interpreter's recursion limit.
MAX_TERM_DEPTH = 200


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens are ('(' | ')' | 'sym', text, offset)."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DELIMS:
            tokens.append((c, c, i))
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in _DELIMS:
            j += 1
        tokens.append(("sym", text[i:j], i))
        i = j
    return tokens


def require_distinct_vars(vars: Sequence[str]) -> None:
    """A variable list declares each name once; TermSyntaxError otherwise."""
    var_list = list(vars)
    if len(set(var_list)) != len(var_list):
        raise TermSyntaxError(f"duplicate variable names in {var_list}", 0)


def require_declared_vars(vars: Sequence[str], terms: Sequence[Term], noun: str) -> None:
    """The variable list declares each name once (TermSyntaxError) and
    every variable of the terms (UnboundVariable, naming the noun)."""
    require_distinct_vars(vars)
    undeclared = set().union(*map(term_vars, terms)) - set(vars)
    if undeclared:
        raise UnboundVariable(f"{noun} uses undeclared variables {sorted(undeclared)}")


def parse_term(text: str, sig: "Signature", vars: Sequence[str]) -> Term:
    """Parse s-expression term text against a signature and variable list.

    Variables shadow nothing: a declared variable whose name collides with
    an operation symbol is rejected up front.  Applications nested more than
    MAX_TERM_DEPTH deep are a TermSyntaxError.
    """
    var_list = list(vars)
    require_distinct_vars(var_list)
    for v in var_list:
        if sig.has_op(v):
            raise TermSyntaxError(
                f"variable {v!r} collides with an operation symbol", 0)
    var_set = set(var_list)
    tokens = _tokenize(text)
    if not tokens:
        raise TermSyntaxError("empty term", 0)

    pos = 0

    def parse(depth: int) -> Term:
        nonlocal pos
        if pos >= len(tokens):
            raise TermSyntaxError("unexpected end of input", len(text))
        kind, val, off = tokens[pos]
        pos += 1
        if kind == ")":
            raise TermSyntaxError("unexpected ')'", off)
        if kind == "sym":
            if val in var_set:
                return Var(val)
            if sig.has_op(val):
                if sig.arity(val) != 0:
                    raise ArityMismatch(
                        f"operation {val!r} has arity {sig.arity(val)}; "
                        "apply it with parentheses")
                return App(val, ())
            raise UnknownSymbol(f"symbol {val!r} is neither a variable nor an operation")
        # kind == "(" : an application
        if depth >= MAX_TERM_DEPTH:
            raise TermSyntaxError(f"term nested more than {MAX_TERM_DEPTH} levels deep", off)
        if pos >= len(tokens):
            raise TermSyntaxError("unterminated '('", off)
        hkind, hval, hoff = tokens[pos]
        if hkind != "sym":
            raise TermSyntaxError("expected an operation name after '('", hoff)
        if not sig.has_op(hval):
            raise UnknownSymbol(f"{hval!r} is not an operation of the signature")
        pos += 1
        args = []
        while True:
            if pos >= len(tokens):
                raise TermSyntaxError("unterminated '('", off)
            if tokens[pos][0] == ")":
                pos += 1
                break
            args.append(parse(depth + 1))
        if len(args) != sig.arity(hval):
            raise ArityMismatch(
                f"operation {hval!r} expects {sig.arity(hval)} arguments, got {len(args)}")
        return App(hval, tuple(args))

    result = parse(0)
    if pos != len(tokens):
        raise TermSyntaxError("trailing input after term", tokens[pos][2])
    return result


# -- term specs ----------------------------------------------------------------

class TermSpec(Record):
    """A term together with its ordered argument variables.

    The variable order fixes the argument order of the induced operation,
    which a bare Term cannot express.
    """

    vars: tuple[str, ...]
    term: Term

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        require_declared_vars(self.vars, (self.term,), "term")

    @property
    def arity(self) -> int:
        return len(self.vars)


def operation_term(name: str, arity: int) -> TermSpec:
    """The basic operation ``name`` as a term over its own variables,
    ``(name v0 .. v{arity-1})``, so an operation's table is a term's."""
    vars_ = tuple(f"v{i}" for i in range(arity))
    return TermSpec(vars_, App(name, tuple(map(Var, vars_))))


class ThetaSpec(TermSpec):
    """Witness term: arity n+1 with the last variable distinguished.

    Admissibility (plugging the algebra's zero into the first n variables
    acts as the identity in the last) is a per-algebra property checked by
    algebra.check_theta_admissible, not assumed here.
    """

    def __post_init__(self):
        super().__post_init__()
        if len(self.vars) < 2:
            raise ArityMismatch("witness term needs at least 2 variables (n >= 1)")

    @property
    def n(self) -> int:
        return len(self.vars) - 1


def theta_to_obj(theta: ThetaSpec) -> dict:
    """A witness term as a document."""
    return {"vars": list(theta.vars), "term": format_term(theta.term)}
