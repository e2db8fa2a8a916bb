"""Seeded generators for the benchmark's split-extension families.

Two families, both built from closed-form tables:

  product   Z_m -> Z_m x Z_m -> Z_m over the signature {+, 0}, witness
            term x1 + y + x2 (n = 2).  Normalized witnesses number
            m^(m^2 - 1); the extension is not Schreier.
  dihedral  Z_m -> D_m -> Z_2 over the group signature {*, inv, e}, witness
            term x * y (n = 1), with the five group axioms.  The witness is
            unique and the extension is Schreier.

The seed relabels the non-zero elements of X, A and B by a random
permutation and carries every table and map along, so the structure (and
every closed-form answer) is the same for every seed while table layouts
differ.  Labels are only permuted among labels of the same number of
decimal digits, which keeps the input files and the files the toolkit
writes from them the same size in bytes for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

PRODUCT_SIG = {"ops": [{"name": "+", "arity": 2}, {"name": "0", "arity": 0}],
               "constant": "0"}
GROUP_SIG = {"ops": [{"name": "*", "arity": 2}, {"name": "inv", "arity": 1},
                     {"name": "e", "arity": 0}],
             "constant": "e"}
GROUP_AXIOMS = [
    {"vars": ["x", "y", "z"], "lhs": "(* (* x y) z)", "rhs": "(* x (* y z))"},
    {"vars": ["x"], "lhs": "(* e x)", "rhs": "x"},
    {"vars": ["x"], "lhs": "(* x e)", "rhs": "x"},
    {"vars": ["x"], "lhs": "(* x (inv x))", "rhs": "e"},
    {"vars": ["x"], "lhs": "(* (inv x) x)", "rhs": "e"},
]


@dataclass(frozen=True)
class Family:
    """A generated extension as JSON-ready objects plus its closed forms.

    ``feasible_hits`` is the sum over a in A of |T(a)| before normalization:
    every a of the product has m decompositions x1 + x2 = x, every a of
    D_m has one.
    """

    ext: dict
    theta: dict
    witness_count: int
    schreier: bool
    feasible_hits: int

    @property
    def sizes(self) -> tuple[int, int, int]:
        return self.ext["X"]["size"], self.ext["A"]["size"], self.ext["B"]["size"]

    @property
    def n(self) -> int:
        return len(self.theta["vars"]) - 1

    def counts(self) -> dict:
        """Closed-form work counts of the toolkit's exhaustive phases."""
        x, a, b = self.sizes
        arities = [op["arity"] for op in self.ext["X"]["signature"]["ops"]]
        ambient = x ** self.n * b
        gamma_entries = sum(ambient ** ar for ar in arities)
        evals = a * x ** self.n
        return {
            "carrier_size": a,
            "feasible_evals": evals,
            "feasible_hits": self.feasible_hits,
            "feasible_hit_ratio": self.feasible_hits / evals,
            "gamma_entries": gamma_entries,
            "gamma_on_Y_ratio": sum(a ** ar for ar in arities) / gamma_entries,
            "axiom_cases": sum(a ** len(ax["vars"]) for ax in self.ext.get("axioms", [])),
        }

    def write(self, directory: Path) -> int:
        """Write ext.json and theta.json; returns the bytes written."""
        directory.mkdir(parents=True, exist_ok=True)
        total = 0
        for name, obj in (("ext.json", self.ext), ("theta.json", self.theta)):
            text = json.dumps(obj, separators=(",", ":"))
            (directory / name).write_text(text)
            total += len(text)
        return total


def _digit_class_perm(size: int, rng: random.Random) -> list[int]:
    """A permutation of 0..size-1 fixing 0 and each decimal-length class."""
    perm = [0] * size
    lo = 1
    while lo < size:
        hi = min(size, lo * 10)
        block = list(range(lo, hi))
        rng.shuffle(block)
        perm[lo:hi] = block
        lo = hi
    return perm


def _relabel_algebra(sig: dict, size: int, tables: dict, perm: list[int]) -> dict:
    """Algebra object with element i renamed perm[i]; tables are flat inputs."""
    out = {}
    for op in sig["ops"]:
        name, arity = op["name"], op["arity"]
        flat = tables[name]
        new = [0] * (size ** arity)
        for i, args in enumerate(product(range(size), repeat=arity)):
            idx = 0
            for x in args:
                idx = idx * size + perm[x]
            new[idx] = perm[flat[i]]
        out[name] = _nest(new, size, arity)
    return {"signature": sig, "size": size, "tables": out}


def _nest(flat: list[int], size: int, arity: int):
    if arity == 0:
        return flat[0]
    if arity == 1:
        return flat
    step = size ** (arity - 1)
    return [_nest(flat[i * step:(i + 1) * step], size, arity - 1) for i in range(size)]


def _assemble(sig, algebras, k, p, s, perms, axioms=None) -> dict:
    """Relabel X, A, B and carry k, p, s along (f'(px) = pf(x))."""
    (X, A, B), (px, pa, pb) = algebras, perms
    ext = {
        "X": _relabel_algebra(sig, *X, px),
        "A": _relabel_algebra(sig, *A, pa),
        "B": _relabel_algebra(sig, *B, pb),
    }
    for name, f, dom_perm, cod_perm in (("k", k, px, pa), ("p", p, pa, pb),
                                        ("s", s, pb, pa)):
        new = [0] * len(f)
        for i, v in enumerate(f):
            new[dom_perm[i]] = cod_perm[v]
        ext[name] = new
    if axioms:
        ext["axioms"] = axioms
    return ext


def product_family(m: int, seed: int) -> Family:
    """Z_m -> Z_m x Z_m -> Z_m; element (x, b) of the middle is x * m + b."""
    rng = random.Random(seed)
    zm = (m, {"+": [(u + v) % m for u in range(m) for v in range(m)], "0": [0]})
    a_size = m * m
    add_a = [((u // m + v // m) % m) * m + (u % m + v % m) % m
             for u in range(a_size) for v in range(a_size)]
    A = (a_size, {"+": add_a, "0": [0]})
    k = [x * m for x in range(m)]
    p = [a % m for a in range(a_size)]
    s = list(range(m))
    perms = (_digit_class_perm(m, rng), _digit_class_perm(a_size, rng),
             _digit_class_perm(m, rng))
    ext = _assemble(PRODUCT_SIG, (zm, A, zm), k, p, s, perms)
    theta = {"vars": ["x1", "x2", "y"], "term": "(+ x1 (+ y x2))"}
    return Family(ext, theta, m ** (m * m - 1), False, m ** 3)


def dihedral_family(m: int, seed: int) -> Family:
    """Z_m -> D_m -> Z_2; r^i s^j is element j * m + i of the middle."""
    rng = random.Random(seed)
    X = (m, {"*": [(u + v) % m for u in range(m) for v in range(m)],
             "inv": [(-u) % m for u in range(m)], "e": [0]})
    B = (2, {"*": [(u + v) % 2 for u in range(2) for v in range(2)],
             "inv": [0, 1], "e": [0]})
    a_size = 2 * m

    def mul(u: int, v: int) -> int:
        (j, i), (j2, i2) = divmod(u, m), divmod(v, m)
        return ((j + j2) % 2) * m + (i + (i2 if j == 0 else -i2)) % m

    def inv(u: int) -> int:
        j, i = divmod(u, m)
        return u if j else (-i) % m

    A = (a_size, {"*": [mul(u, v) for u in range(a_size) for v in range(a_size)],
                  "inv": [inv(u) for u in range(a_size)], "e": [0]})
    k = list(range(m))
    p = [a // m for a in range(a_size)]
    s = [0, m]
    perms = (_digit_class_perm(m, rng), _digit_class_perm(a_size, rng),
             _digit_class_perm(2, rng))
    ext = _assemble(GROUP_SIG, (X, A, B), k, p, s, perms, GROUP_AXIOMS)
    theta = {"vars": ["x", "y"], "term": "(* x y)"}
    return Family(ext, theta, 1, True, 2 * m)


FAMILIES = {"product": product_family, "dihedral": dihedral_family}
