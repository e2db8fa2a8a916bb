"""Strict JSON file formats for algebras, extensions, witness terms,
action data, and morphisms.

All formats reject unknown keys.  Elements are integers everywhere; the
optional ``element_names`` list on algebra files is documentation only.
Nested algebra/action tables are row-major and arity-deep (arity 0 is a
bare value).  Sub-objects may be inlined or given as a path relative to
the referencing file.  Emitted documents use a fixed key order so that a
byte-level comparison of two runs is meaningful.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence, Union

from .algebra import Equation, FiniteAlgebra, FnTable, Signature, make_algebra
from .ambient import ActionTable, LeafRows, TupleSpace
from .errors import FileFormatError
from .extension import SplitExtension, Witness
from .report import Report
from .terms import ThetaSpec, format_term, parse_term

if TYPE_CHECKING:
    from .canonical import CanonicalExtension
    from .gammabuild import GammaData
    from .transport import ExtensionMorphism

Source = Union[str, Path, dict]


def _check_keys(obj: dict, required: Sequence[str], optional: Sequence[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{what}: expected an object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise FileFormatError(f"{what}: missing keys {missing}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise FileFormatError(f"{what}: unknown keys {unknown}")


def _load_json(path: Path) -> Any:
    """The document in a file, read line by line; equal row lines decode to
    one shared list (_decode_shared_rows), so the document is read-only.
    Only a file not UTF-8 or in doubt is read again, for json's message."""
    try:
        try:
            with open(path) as lines:
                doc = _decode_shared_rows(lines)
        except UnicodeDecodeError:
            doc = None  # read_text names the bad byte by its place in the file
        if doc is not None:
            return doc
        text = path.read_text()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the name
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply") from exc


# A line that holds one whole array and no string, such as a leaf row of
# dump_json's layout: (indent, array text, the rest of the line).
_ROW_LINE = re.compile(r'([ \t]*)(\[[^"]*\])([ \t]*,?[ \t\r]*\n?)')
# the key of the object that stands for a shared row in the skeleton text
_ROW_REF = "\u0000row"


def _decode_shared_rows(lines: Iterable[str]) -> Any:
    """The document with each distinct row text decoded once, or None only
    when anything is in doubt (the caller then decodes the whole text, so
    every error is json.loads' own).  A text with no row line is its own
    skeleton.

    A row line holds exactly one JSON array and no string (_ROW_LINE).
    JSON strings cannot span lines, so such an array is outside every
    string, and swapping it for an object that references its decoded
    value leaves a skeleton text that parses exactly when the text does,
    to the same document.  Other arrays are decoded in place.
    """
    rows: list = []
    row_ids: dict[str, int] = {}

    def reference(line: str) -> Optional[str]:
        match = _ROW_LINE.fullmatch(line)
        if match is None:
            return None
        indent, row, tail = match.groups()
        if row not in row_ids:
            try:
                rows.append(json.loads(row))
            except (ValueError, RecursionError):
                return None
            row_ids[row] = len(rows) - 1
        return f"{indent}{{{json.dumps(_ROW_REF)}: {row_ids[row]}}}{tail}"

    refs: dict[str, Optional[str]] = {}  # each distinct line -> its reference
    skeleton: list[str] = []
    made = 0
    for line in lines:
        if line not in refs:
            refs[line] = reference(line)
        ref = refs[line]
        skeleton.append(line if ref is None else ref)
        made += ref is not None

    def resolve(obj: dict) -> Any:
        nonlocal made
        if _ROW_REF not in obj:
            return obj
        made -= 1
        return rows[obj[_ROW_REF]]

    try:
        doc = json.loads("".join(skeleton), object_hook=resolve)
    except (ValueError, RecursionError, LookupError, TypeError):
        return None
    # a document object keyed like a reference shows as one reference too many
    return doc if made == 0 else None


def _resolve(obj: Source, base_dir: Optional[Path], what: str) -> tuple[Any, Optional[Path]]:
    """Inline dicts pass through; strings/paths load JSON relative to base_dir."""
    if isinstance(obj, dict):
        return obj, base_dir
    if not isinstance(obj, (str, Path)):
        raise FileFormatError(f"{what}: expected an object or a file name, "
                              f"got {type(obj).__name__}")
    path = Path(obj) if base_dir is None else base_dir / obj
    return _load_json(path), path.parent


def _ints(values: Any, what: str, size: Optional[int] = None) -> Sequence[int]:
    """``values``, if each is an exact int (not bool or float), in one test,
    and with ``size`` given, a list of that length."""
    if size is not None and not (isinstance(values, list) and len(values) == size):
        raise FileFormatError(f"{what}: expected a list of length {size}")
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise FileFormatError(f"{what}: expected an integer, got {bad!r}")
    return values


def _int(value: Any, what: str) -> int:
    return _ints([value], what)[0]


def _str(value: Any, what: str) -> str:
    """``value``, if it is a string (a name or term text is never coerced)."""
    if not isinstance(value, str):
        raise FileFormatError(f"{what}: expected a string, got {value!r}")
    return value


def _require_lists(level: Sequence, size: int, what: str) -> None:
    # canonical_to_obj's documents hold their rows as _Rows
    if not (set(map(type, level)) <= {list, _Row} and set(map(len, level)) <= {size}):
        raise FileFormatError(f"{what}: expected a list of length {size}")


def _flatten_table(nested: Any, size: int, arity: int, what: str) -> list:
    """Row-major flatten of an arity-deep nested array over {0..size-1},
    one nesting level per pass; the leaves are not inspected."""
    level = [nested]
    for _ in range(arity):
        _require_lists(level, size, what)
        level = list(chain.from_iterable(level))
    return level


def _nest_table(flat: Sequence, size: int, arity: int) -> Any:
    """Inverse of _flatten_table: cut the flat list into rows of ``size``,
    arity - 1 times."""
    if arity == 0:
        return flat[0]
    nested = list(flat)
    for _ in range(arity - 1):
        nested = [nested[i:i + size] for i in range(0, len(nested), size)]
    return nested


# -- algebra files --------------------------------------------------------------

def algebra_from_obj(obj: Source, base_dir: Optional[Path] = None) -> FiniteAlgebra:
    obj, _ = _resolve(obj, base_dir, "algebra")
    _check_keys(obj, ["signature", "size", "tables"], ["element_names"], "algebra")
    sig_obj = obj["signature"]
    _check_keys(sig_obj, ["ops", "constant"], [], "signature")
    if not isinstance(sig_obj["ops"], list):
        raise FileFormatError("signature ops: expected a list")
    ops = []
    for op in sig_obj["ops"]:
        _check_keys(op, ["name", "arity"], [], "operation")
        ops.append((_str(op["name"], "operation name"), _int(op["arity"], "arity")))
    sig = Signature(tuple(ops), _str(sig_obj["constant"], "signature constant"))
    size = _int(obj["size"], "size")
    if size < 1:
        raise FileFormatError(f"size: expected a positive integer, got {size}")
    if not isinstance(obj["tables"], dict):
        raise FileFormatError("tables: expected an object")
    tables = {}
    for name, arity in sig.ops:
        if name not in obj["tables"]:
            raise FileFormatError(f"tables: missing table for {name!r}")
        flat = _flatten_table(obj["tables"][name], size, arity, f"table {name!r}")
        tables[name] = tuple(_ints(flat, f"table {name!r} entry"))
    extra = sorted(set(obj["tables"]) - {n for n, _ in sig.ops})
    if extra:
        raise FileFormatError(f"tables: unknown operations {extra}")
    names = obj.get("element_names")
    if names is not None:
        if (not isinstance(names, list) or len(names) != size
                or not all(isinstance(s, str) for s in names)):
            raise FileFormatError("element_names: expected a list of size strings")
    return make_algebra(sig, size, tables)


def algebra_to_obj(A: FiniteAlgebra, element_names: Optional[Sequence[str]] = None) -> dict:
    obj = {
        "signature": {
            "ops": [{"name": n, "arity": a} for n, a in A.signature.ops],
            "constant": A.signature.constant_name,
        },
        "size": A.size,
        "tables": {n: _nest_table(A.tables[n], A.size, a) for n, a in A.signature.ops},
    }
    if element_names is not None:
        obj["element_names"] = list(element_names)
    return obj


# -- function arrays -------------------------------------------------------------

def _fn_from_list(values: Any, dom: int, cod: int, what: str) -> FnTable:
    return FnTable(dom, cod, tuple(_ints(values, what, dom)))


# -- witness terms ----------------------------------------------------------------

def theta_from_obj(obj: Source, sig: Signature, base_dir: Optional[Path] = None) -> ThetaSpec:
    obj, _ = _resolve(obj, base_dir, "theta")
    _check_keys(obj, ["vars", "term"], [], "theta")
    vars_ = obj["vars"]
    if not isinstance(vars_, list) or not all(isinstance(v, str) for v in vars_):
        raise FileFormatError("theta vars: expected a list of strings")
    term = parse_term(_str(obj["term"], "theta term"), sig, vars_)
    return ThetaSpec(tuple(vars_), term)


def theta_to_obj(theta: ThetaSpec) -> dict:
    return {"vars": list(theta.vars), "term": format_term(theta.term)}


# -- equations ---------------------------------------------------------------------

def equations_from_obj(items: Any, sig: Signature) -> tuple[Equation, ...]:
    if not isinstance(items, list):
        raise FileFormatError("axioms: expected a list")
    out = []
    for item in items:
        _check_keys(item, ["vars", "lhs", "rhs"], [], "axiom")
        vars_ = item["vars"]
        if not isinstance(vars_, list) or not all(isinstance(v, str) for v in vars_):
            raise FileFormatError("axiom vars: expected a list of strings")
        lhs = parse_term(_str(item["lhs"], "axiom lhs"), sig, vars_)
        rhs = parse_term(_str(item["rhs"], "axiom rhs"), sig, vars_)
        out.append(Equation(tuple(vars_), lhs, rhs))
    return tuple(out)


def equations_to_obj(axioms: Sequence[Equation]) -> list:
    return [{"vars": list(ax.vars), "lhs": format_term(ax.lhs),
             "rhs": format_term(ax.rhs)} for ax in axioms]


# -- extension files -----------------------------------------------------------------

def extension_from_obj(
    obj: Source, base_dir: Optional[Path] = None
) -> tuple[SplitExtension, Optional[Witness], tuple[Equation, ...]]:
    obj, base_dir = _resolve(obj, base_dir, "extension")
    _check_keys(obj, ["X", "A", "B", "k", "p", "s"], ["witness", "axioms"], "extension")
    X = algebra_from_obj(obj["X"], base_dir)
    A = algebra_from_obj(obj["A"], base_dir)
    B = algebra_from_obj(obj["B"], base_dir)
    k = _fn_from_list(obj["k"], X.size, A.size, "k")
    p = _fn_from_list(obj["p"], A.size, B.size, "p")
    s = _fn_from_list(obj["s"], B.size, A.size, "s")
    ext = SplitExtension(X, A, B, k, p, s)
    witness = None
    if "witness" in obj:
        wobj = obj["witness"]
        _check_keys(wobj, ["n", "q"], [], "witness")
        n = _int(wobj["n"], "witness n")
        qs = wobj["q"]
        if not isinstance(qs, list) or len(qs) != n:
            raise FileFormatError(f"witness q: expected {n} arrays")
        witness = Witness(n, tuple(_fn_from_list(q, A.size, X.size, "witness q")
                                   for q in qs))
    axioms = equations_from_obj(obj.get("axioms", []), X.signature)
    return ext, witness, axioms


def load_extension(path: Union[str, Path]):
    """Kept, as is the CLI's gamma_from_obj(_load_json(..)), for the spans
    of perfbench/traced.py: serialize.ext_decode holds its json_parse, and
    serialize.gamma_decode does not."""
    return extension_from_obj(path)


def extension_to_obj(
    e: SplitExtension,
    witness: Optional[Witness] = None,
    axioms: Sequence[Equation] = (),
) -> dict:
    obj = {
        "X": algebra_to_obj(e.X),
        "A": algebra_to_obj(e.A),
        "B": algebra_to_obj(e.B),
        "k": list(e.k.values),
        "p": list(e.p.values),
        "s": list(e.s.values),
    }
    if witness is not None:
        obj["witness"] = {"n": witness.n, "q": [list(q.values) for q in witness.q]}
    if axioms:
        obj["axioms"] = equations_to_obj(axioms)
    return obj


# -- action data files -----------------------------------------------------------------

CANONICAL_SCHEMA = "wsext.canonical/1"

_GAMMA_EXTRAS = ["schema", "n", "Y", "ops_Y", "k_prime", "pi_B", "iota_B",
                 "gamma_id", "verification"]


def gamma_from_obj(obj: Source, base_dir: Optional[Path] = None) -> GammaData:
    """Action data from a document, which is read, never changed.  Only the
    JSON structure is checked here, level by level down to the leaf rows
    (the innermost lists of entries), then once per distinct row object (a
    document from _load_json shares each distinct row text).  The rows go
    to GammaData as LeafRows, which checks the tables themselves.

    Of the extras that canonical_to_obj writes, ``schema`` and ``n`` are
    checked against the data when present; the others are not read."""
    from .gammabuild import GammaData

    obj, base_dir = _resolve(obj, base_dir, "gamma data")
    _check_keys(obj, ["X", "B", "theta", "gamma"], ["axioms"] + _GAMMA_EXTRAS, "gamma data")
    if "schema" in obj and obj["schema"] != CANONICAL_SCHEMA:
        raise FileFormatError(
            f"schema: expected {CANONICAL_SCHEMA!r}, got {obj['schema']!r}")
    X = algebra_from_obj(obj["X"], base_dir)
    B = algebra_from_obj(obj["B"], base_dir)
    theta = theta_from_obj(obj["theta"], X.signature, base_dir)
    if "n" in obj and _int(obj["n"], "n") != theta.n:
        raise FileFormatError(f"n: {obj['n']} but theta has {theta.n} kernel arguments")
    ambient = TupleSpace(X.size, theta.n, B.size).size
    if not isinstance(obj["gamma"], dict):
        raise FileFormatError("gamma: expected an object")
    gamma = dict(obj["gamma"])
    for name, arity in X.signature.ops:
        if name in gamma:
            what = f"gamma {name!r}"
            # a nullary table is one bare entry: one row of one entry
            table = LeafRows(_flatten_table(gamma[name], ambient, arity - 1, what) if arity
                             else [[gamma[name]]])
            distinct = table.rows.values()
            if arity:
                _require_lists(distinct, ambient, what)
            if not set(map(type, chain.from_iterable(distinct))) <= {list}:
                raise FileFormatError(f"{what}: entries must be lists of {theta.n} integers")
            gamma[name] = table
    axioms = equations_from_obj(obj.get("axioms", []), X.signature)
    return GammaData(X, B, theta, gamma, axioms)


def canonical_to_obj(
    c: CanonicalExtension,
    axioms: Sequence[Equation] = (),
    verification: Optional[Report] = None,
) -> dict:
    """Canonical form as a document that gamma_from_obj can read back;
    ops_Y, k_prime, pi_B and iota_B are the tables of its extension.

    In the gamma tables and gamma_id equal n-tuples are one list, and each
    distinct row of a table is one _Row of those, so a table costs one list
    per distinct row, not one per entry.  The document is equal to one with
    no sharing, but it is read-only: a change shows at every place the list
    occurs, and not in the text dump_json writes.
    """
    ambient, ext = c.space.size, c.extension
    entries: dict[tuple[int, ...], list[int]] = {}

    def leaf(row: Sequence[tuple[int, ...]]) -> _Row:
        for t in set(row).difference(entries):
            entries[t] = list(t)
        shared = _Row(map(entries.__getitem__, row))
        shared.text = json.dumps(shared)
        return shared

    def nested(table: ActionTable, arity: int) -> Any:
        leaves = {key: leaf(row) for key, row in table.rows.items()}
        rows = list(map(leaves.__getitem__, table.prefixes))
        return rows[0][0] if arity == 0 else _nest_table(rows, ambient, arity - 1)

    obj = {
        "schema": CANONICAL_SCHEMA,
        "X": algebra_to_obj(c.X),
        "B": algebra_to_obj(c.B),
        "n": c.n,
        "theta": theta_to_obj(c.theta),
        "Y": [list(t) for t in c.Y],
        "ops_Y": {name: _nest_table(ext.A.tables[name], len(c.Y), arity)
                  for name, arity in c.X.signature.ops},
        "k_prime": list(ext.k.values),
        "pi_B": list(ext.p.values),
        "iota_B": list(ext.s.values),
        "gamma": {name: nested(c.gamma[name], arity)
                  for name, arity in c.X.signature.ops},
        "gamma_id": leaf(c.gamma_id),
        "axioms": equations_to_obj(axioms),
    }
    if verification is not None:
        obj["verification"] = verification.to_json()
    return obj


# -- morphism files ------------------------------------------------------------------

def morphism_from_obj(obj: Source, base_dir: Optional[Path] = None) -> ExtensionMorphism:
    from .transport import ExtensionMorphism

    obj, base_dir = _resolve(obj, base_dir, "morphism")
    _check_keys(obj, ["source", "target", "f", "g", "h"], [], "morphism")
    source, _, _ = extension_from_obj(obj["source"], base_dir)
    target, _, _ = extension_from_obj(obj["target"], base_dir)
    f = _fn_from_list(obj["f"], source.X.size, target.X.size, "f")
    g = _fn_from_list(obj["g"], source.A.size, target.A.size, "g")
    h = _fn_from_list(obj["h"], source.B.size, target.B.size, "h")
    return ExtensionMorphism(source, target, f, g, h)


# -- homomorphism files (pullback input) ----------------------------------------------

def hom_from_obj(obj: Source, base_dir: Optional[Path] = None) -> tuple[FiniteAlgebra, list[int]]:
    """A homomorphism file: the domain algebra plus a value array into the
    target (whose size is only known to the caller)."""
    obj, base_dir = _resolve(obj, base_dir, "homomorphism")
    _check_keys(obj, ["B_prime", "f"], [], "homomorphism")
    B_prime = algebra_from_obj(obj["B_prime"], base_dir)
    return B_prime, list(_ints(obj["f"], "f", B_prime.size))


class _Row(list):
    """A leaf row held at many places, with its JSON text encoded once."""

    __slots__ = ("text",)


def _write(obj: Any, pad: str, out: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``out``: dicts, lists of dicts and
    lists of lists of containers are laid out as by ``indent=2``; any other
    list is a leaf row (one gamma row, one algebra table row, Y) written on
    one line, a _Row as its text.  The layout is decided from the first
    element, so the Python-level work is per row."""
    if isinstance(obj, dict) and obj:
        items, brackets = [(json.dumps(k) + ": ", v) for k, v in obj.items()], "{}"
    elif (isinstance(obj, list) and obj
          and (isinstance(obj[0], dict)
               or (isinstance(obj[0], list) and obj[0]
                   and isinstance(obj[0][0], (list, dict))))):
        items, brackets = [("", v) for v in obj], "[]"
    else:
        out.append(obj.text if type(obj) is _Row else json.dumps(obj))
        return
    inner, separator = pad + "  ", brackets[0] + "\n"
    for key, value in items:
        out.append(separator + inner + key)
        _write(value, inner, out)
        separator = ",\n"
    out.append("\n" + pad + brackets[1])


def dump_json(obj: Any, path: Union[str, Path]) -> None:
    """Write a document with one leaf row per line (see _write), piece by
    piece: the text of a row shared at many places is held once."""
    out: list[str] = []
    _write(obj, "", out)
    out.append("\n")
    try:
        with open(path, "w") as f:
            f.writelines(out)
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc


def to_text(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"
