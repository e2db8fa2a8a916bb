"""Command line interface.

Commands: check, canonicalize, gamma-check, pullback, product-check,
morphism-check.  Exit codes are part of the machine contract:

  0   success (check: valid extension with at least one witness)
  1   the analysed property fails (no witness / condition failure /
      obstruction found)
  2   validation failure (extension or morphism laws broken)
  64  file, parse, or usage errors, and every other toolkit error,
      InternalCheckFailed included (one error: line on stderr)
  70  internal error: an exception that is not a toolkit error, or a
      failed write to stdout (one line on stderr, no traceback)

Plain output is line oriented and stable across runs and worker counts;
--json emits a versioned document instead.

One writer: each command returns its exit code, its --json payload and
its plain lines, and ``main`` alone writes, once per run.  A --json run
that exits 0, 1 or 2 prints exactly one document with ``schema`` and
``command`` keys; an early exit carries ``error``, or ``valid`` and
``validation``.  Exits 64 and 70 print nothing on stdout; their message
goes to stderr.  No other code in the package writes to stdout or stderr.

``main`` flushes what it writes, so a failed write to stdout is exit 70
whatever the buffering, and returns the exit code to its caller.  ``run``,
the process entry point, ends the process with ``os._exit(main())`` and
skips interpreter teardown; a program that embeds the CLI calls ``main``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import os
import sys
from pathlib import Path
from types import ModuleType
from typing import Optional

from . import extension as ext
from .algebra import DEFAULT_BUDGET, FnTable, ambient_space, is_homomorphism
from .errors import FileFormatError, IotaNotInY, SectionNotHomomorphism, ToolkitError
from .serialize import (
    _load_json,
    algebra_from_obj,
    canonical_to_obj,
    dump_json,
    extension_to_obj,
    gamma_from_obj,
    hom_from_obj,
    load_extension,
    morphism_from_obj,
    theta_from_obj,
    to_text,
)
from .terms import ThetaSpec, format_term, theta_to_obj


def _lazy(name: str) -> ModuleType:
    """The package module ``name``, registered in ``sys.modules`` but
    executed only on its first attribute access (``LazyLoader``), so each
    command compiles only the optional layers it runs.  A module already
    imported is returned as it is."""
    qualified = f"{__package__}.{name}"
    module = sys.modules.get(qualified)
    if module is None:
        spec = importlib.util.find_spec(qualified)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[qualified] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


can = _lazy("canonical")
gb = _lazy("gammabuild")
tr = _lazy("transport")

JSON_SCHEMA = "wsext.report/1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; we reserve 2 for
    validation failures, so remap them to 64."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        file.write(message)  # argparse drops a failed write; main exits 70
        file.flush()


def _non_negative(text: str) -> int:
    """argparse type for counts: a usage error (exit 64) below zero."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _resolve_theta(args, signature) -> ThetaSpec:
    """Inline --theta-vars/--theta-term wins over --theta FILE."""
    if args.theta_vars or args.theta_term:
        if args.theta_vars is None or args.theta_term is None:
            raise FileFormatError("--theta-vars and --theta-term must be given together")
        vars_ = [v.strip() for v in args.theta_vars.split(",") if v.strip()]
        return theta_from_obj({"vars": vars_, "term": args.theta_term}, signature)
    if args.theta:
        return theta_from_obj(args.theta, signature)
    raise FileFormatError("a witness term is required (--theta or --theta-vars/--theta-term)")


# (exit code, --json payload, plain lines); main adds the schema and command keys
Outcome = tuple[int, dict, list[str]]


def _failure(code: int, message: str) -> Outcome:
    """An early exit: plain mode prints the message, --json carries it as "error"."""
    return code, {"error": message}, [message]


def _indented(rep) -> list[str]:
    return ["  " + ln for ln in rep.render().splitlines()]


def _load_and_validate(args) -> tuple:
    """The front half of check, canonicalize and pullback: the extension
    file with its witness and axioms, theta, and the validation report."""
    e, file_witness, axioms = load_extension(args.extension)
    theta = _resolve_theta(args, e.A.signature)
    return e, file_witness, axioms, theta, ext.validate_split_extension(e)


def _invalid(rep) -> Outcome:
    """The early exit of canonicalize and pullback on an invalid extension."""
    return (EXIT_INVALID, {"valid": False, "validation": rep.to_json()},
            ["validation: FAIL"] + _indented(rep))


def _witness(e, theta, file_witness, index: Optional[int], budget: int) -> tuple:
    """(witness or None, witnesses found): the file's witness when no index
    is asked for and its arity fits theta, else the index-th enumerated
    witness (the first when index is None)."""
    if index is None and file_witness is not None and file_witness.n == theta.n:
        return file_witness, 1
    index = index or 0
    found = ext.find_witnesses(e, theta, limit=index + 1, budget=budget)
    return (found[index] if len(found) > index else None), len(found)


# -- check -----------------------------------------------------------------------

def cmd_check(args) -> Outcome:
    e, file_witness, _, theta, rep = _load_and_validate(args)
    n = theta.n
    ambient = ambient_space(e, n).size

    payload = {
        "valid": rep.ok,
        "validation": rep.to_json(),
        "theta": theta_to_obj(theta),
        "n": n,
        "sizes": {
            "X": e.X.size, "A": e.A.size, "B": e.B.size,
            "X_times_B": e.X.size * e.B.size,
            "ambient": ambient,
        },
    }
    lines = [
        f"extension: {args.extension}",
        f"theta: {format_term(theta.term)} over ({', '.join(theta.vars)})",
        f"validation: {'PASS' if rep.ok else 'FAIL'}",
    ]
    if not rep.ok:
        lines += _indented(rep)
        payload["witness_count"] = 0
        payload["witnesses"] = []
        return EXIT_INVALID, payload, lines

    normalize = not args.no_normalize
    count = ext.count_witnesses(e, theta, normalize=normalize, budget=args.budget)
    witnesses = ext.find_witnesses(e, theta, normalize=normalize,
                                   limit=args.limit, budget=args.budget)
    schreier = ext.is_schreier(e, theta)
    payload.update({
        "normalized": normalize,
        "limit": args.limit,
        "witness_count": count,
        "witnesses": [[list(q.values) for q in w.q] for w in witnesses],
        "schreier": schreier,
        "file_witness_present": file_witness is not None,
    })
    lines += [
        f"|X| = {e.X.size}, |A| = {e.A.size}, |B| = {e.B.size}",
        f"|X x B| = {e.X.size * e.B.size}",
        f"|X^n x B| = {ambient} (n = {n})",
        f"schreier: {'true' if schreier else 'false'}",
        f"witnesses: {count}{' (normalized)' if normalize else ''}"
        f" (showing up to {args.limit})",
    ]
    for i, w in enumerate(witnesses):
        qs = "; ".join(f"q{j + 1} = {list(q.values)}" for j, q in enumerate(w.q))
        lines.append(f"witness[{i}]: {qs}")
    return (EXIT_OK if count > 0 else EXIT_NEGATIVE), payload, lines


# -- canonicalize -----------------------------------------------------------------

def cmd_canonicalize(args) -> Outcome:
    e, file_witness, axioms, theta, rep = _load_and_validate(args)
    if not rep.ok:
        return _invalid(rep)
    witness, found = _witness(e, theta, file_witness, args.witness_index, args.budget)
    if witness is None:
        return _failure(EXIT_NEGATIVE,
                        f"no witness at index {args.witness_index or 0} (found {found})")

    c = can.build_canonical(e, theta, witness, budget=args.budget)
    verification = can.verify_isomorphism(e, c, witness)
    if args.out:
        dump_json(canonical_to_obj(c, axioms=axioms, verification=verification), args.out)

    core = [en for en in verification.entries if en.name != "section_transport"]
    core_ok = all(en.ok for en in core)
    payload = {
        "carrier_size": len(c.Y),
        "Y": [list(t) for t in c.Y],
        "verification": verification.to_json(),
        "out": args.out,
    }
    lines = [
        f"canonical carrier: {len(c.Y)} tuples",
        *(f"  Y[{i}] = {list(t)}" for i, t in enumerate(c.Y)),
        "verification:",
        *("  " + ln for ln in verification.render().splitlines()),
    ]
    if args.out:
        lines.append(f"wrote {args.out}")
    # the section entry records whether this witness gives the zero-tuple
    # section; the isomorphism itself is the core contract
    return (EXIT_OK if core_ok else EXIT_INVALID), payload, lines


# -- gamma-check --------------------------------------------------------------------

def cmd_gamma_check(args) -> Outcome:
    g = gamma_from_obj(_load_json(Path(args.gamma)), Path(args.gamma).parent)
    # the carrier size and the rebuild reuse the conditions' memo
    rep = gb.check_conditions(g, budget=args.budget)
    _, carrier = gb._checked(g, args.budget)
    payload = {"conditions": rep.to_json(), "carrier_size": len(carrier.Y)}
    lines = ["conditions:"] + _indented(rep)
    code = EXIT_OK if rep.ok else EXIT_NEGATIVE
    if rep.ok and args.rebuild:
        try:
            e2, w2 = gb.build_extension_from_gamma(g, budget=args.budget)
        except (IotaNotInY, SectionNotHomomorphism) as exc:
            payload["rebuild"] = {"ok": False, "error": str(exc)}
            lines.append(f"rebuild: FAIL [{exc}]")
            code = EXIT_NEGATIVE
        else:
            dump_json(extension_to_obj(e2, witness=w2, axioms=g.axioms), args.rebuild)
            payload["rebuild"] = {"ok": True, "out": args.rebuild}
            lines.append(f"rebuild: wrote {args.rebuild}")
    return code, payload, lines


# -- pullback ------------------------------------------------------------------------

def cmd_pullback(args) -> Outcome:
    e, file_witness, axioms, theta, rep = _load_and_validate(args)
    B_prime, f_values = hom_from_obj(args.hom)
    if not rep.ok:
        return _invalid(rep)
    f = FnTable(e.B.size, tuple(f_values))
    res = is_homomorphism(f, B_prime, e.B)
    if not res:
        return _failure(EXIT_INVALID, f"f is not a homomorphism: {res.counterexample}")
    witness, _ = _witness(e, theta, file_witness, None, args.budget)
    if witness is None:
        return _failure(EXIT_NEGATIVE, "no witness for the source extension")

    e2, w2 = tr.pullback_extension(e, theta, B_prime, f, witness, budget=args.budget)
    doc = extension_to_obj(e2, witness=w2, axioms=axioms)
    if args.out:
        dump_json(doc, args.out)
    payload = {
        "middle_size": e2.A.size,
        "witness": [list(q.values) for q in w2.q],
        "out": args.out,
    }
    lines = [
        f"pullback middle algebra: {e2.A.size} elements",
        *(f"q{j + 1}' = {list(q.values)}" for j, q in enumerate(w2.q)),
    ]
    if args.out:
        lines.append(f"wrote {args.out}")
    return EXIT_OK, payload, lines


# -- product-check ----------------------------------------------------------------------

def cmd_product_check(args) -> Outcome:
    X = algebra_from_obj(args.algebra)
    theta = _resolve_theta(args, X.signature)
    res = tr.product_extension_check(X, theta, budget=args.budget)
    payload = {
        "ok": res.ok,
        "q": None if res.q is None else [list(q.values) for q in res.q],
        "obstruction": res.obstruction,
    }
    if res.ok:
        lines = (["product extensions admit witnesses"]
                 + [f"q{j + 1} = {list(q.values)}" for j, q in enumerate(res.q)])
    else:
        lines = [f"obstruction: element {res.obstruction} is not reachable as theta(ys, 0)"]
    return (EXIT_OK if res.ok else EXIT_NEGATIVE), payload, lines


# -- morphism-check ----------------------------------------------------------------------

def cmd_morphism_check(args) -> Outcome:
    m = morphism_from_obj(args.morphism)
    val = tr.validate_morphism(m)
    payload = {"valid": val.ok, "validation": val.to_json()}
    lines = ["morphism validation:"] + _indented(val)
    if not val.ok:
        return EXIT_INVALID, payload, lines
    surj = tr.check_morphism_surjectivity(m)
    payload["surjectivity"] = surj.to_json()
    lines += ["surjectivity:"] + _indented(surj)
    return (EXIT_OK if surj.ok else EXIT_NEGATIVE), payload, lines


# -- entry point ---------------------------------------------------------------------------

def _arg(*flags: str, **options) -> tuple:
    return flags, options


_COMMON = [  # every command's arguments end with these
    _arg("--theta", metavar="FILE", help="witness term file"),
    _arg("--theta-vars", metavar="CSV",
         help="inline variable list, e.g. x1,x2,y (overrides --theta)"),
    _arg("--theta-term", metavar="SEXPR", help="inline term text, e.g. '(+ x1 (+ y x2))'"),
    _arg("--budget", type=_non_negative, default=DEFAULT_BUDGET,
         help="search node budget (default %(default)s)"),
    _arg("--workers", type=_non_negative, default=1,
         help="accepted for compatibility; has no effect"),
    _arg("--json", action="store_true", help="machine-readable output"),
]

# name -> (help, handler name, its own arguments)
_COMMANDS = {
    "check": ("validate an extension and search witnesses", "cmd_check", [
        _arg("extension"),
        _arg("--no-normalize", action="store_true",
             help="do not pin q_i(0) = 0 during the search"),
        _arg("--limit", type=_non_negative, default=10,
             help="witnesses to materialize (default %(default)s)")]),
    "canonicalize": ("write the canonical tuple form", "cmd_canonicalize", [
        _arg("extension"),
        _arg("-o", "--out", help="output file"),
        _arg("--witness-index", type=_non_negative, default=None,
             help="use the i-th enumerated witness instead of the file's")]),
    "gamma-check": ("validate action data (four conditions)", "cmd_gamma_check", [
        _arg("gamma"),
        _arg("--rebuild", metavar="OUT", help="also rebuild the extension and write it here")]),
    "pullback": ("pull an extension back along a homomorphism", "cmd_pullback", [
        _arg("extension"),
        _arg("hom", help="JSON file with B_prime and the value array f"),
        _arg("-o", "--out", help="output extension file")]),
    "product-check": ("test the product-extension condition on an algebra",
                      "cmd_product_check", [_arg("algebra")]),
    "morphism-check": ("validate a morphism of extensions", "cmd_morphism_check",
                       [_arg("morphism")]),
}


def build_parser(command: Optional[str] = None) -> _Parser:
    """Every command's parser, each with its arguments unless ``command`` names another."""
    # --help shows the contract above, not how the module writes it
    parser = _Parser(prog="wsext", description=__doc__.partition("\n\nOne writer:")[0],
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=globals()[handler])
        if command in (None, name):
            for flags, options in arguments + _COMMON:
                p.add_argument(*flags, **options)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
        code, payload, lines = args.fn(args)
        sys.stdout.write(to_text({"schema": JSON_SCHEMA, "command": args.command, **payload})
                         if args.json else "\n".join(lines) + "\n")
        sys.stdout.flush()  # a failed write is exit 70 here, not at teardown
        return code
    except ToolkitError as exc:
        code, message = EXIT_USAGE, f"error: {exc}"
    except Exception as exc:  # a bug, not a verdict on the input: never exit 1
        code, message = EXIT_SOFTWARE, f"internal error: {type(exc).__name__}: {exc}"
        if isinstance(exc, OSError):  # a failed write: the rest goes to devnull, not teardown
            with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
    # one stderr line, even when the message holds a file name with a newline
    print(message.replace("\n", " "), file=sys.stderr, flush=True)
    return code


def run() -> None:
    """The process entry point: ``main``, then ``os._exit`` with its code,
    skipping interpreter teardown.  argparse's --help and usage errors
    raise ``SystemExit`` and leave the normal way."""
    os._exit(main())


if __name__ == "__main__":
    run()
