"""The document writer: the JSON documents the toolkit emits (algebras,
extensions, canonical forms) and their layout.  ``serialize`` loads it on
first use, through ``canonical_to_obj``, ``extension_to_obj`` and
``dump_json``, so ``check`` and a plain ``gamma-check`` never compile it.  Emitted documents use a fixed key order so
that a byte-level comparison of two runs is meaningful.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

from .algebra import Equation, FiniteAlgebra
from .errors import FileFormatError
from .extension import SplitExtension, Witness
from .report import Report
from .terms import format_term, theta_to_obj

if TYPE_CHECKING:
    from .ambient import ActionTable
    from .canonical import CanonicalExtension


class _Row(list):
    """A leaf row held at many places, with its JSON text encoded once."""

    __slots__ = ("text",)


def _nest_table(flat: Sequence, size: int, arity: int) -> Any:
    """Inverse of serialize._flatten_table: cut the flat list into rows of ``size``,
    arity - 1 times."""
    if arity == 0:
        return flat[0]
    nested = list(flat)
    for _ in range(arity - 1):
        nested = [nested[i:i + size] for i in range(0, len(nested), size)]
    return nested


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


def equations_to_obj(axioms: Sequence[Equation]) -> list:
    return [{"vars": list(ax.vars), "lhs": format_term(ax.lhs),
             "rhs": format_term(ax.rhs)} for ax in axioms]


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
    from .ambient import CANONICAL_SCHEMA

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


