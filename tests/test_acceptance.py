"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
without ``-s`` the per-criterion verdicts still appear as test outcomes.
"""

import json
import sys
import time
from contextlib import contextmanager

import pytest

from wsext import (
    build_canonical,
    build_extension_from_gamma,
    check_conditions,
    extract_gamma,
    find_witnesses,
    is_schreier,
    parse_term,
    product_extension_check,
    psi,
    semiabelian_witness,
    sigma_tau_decompose,
    trivial_algebra,
    validate_split_extension,
    validate_witness,
    verify_isomorphism,
)
from wsext import enumerate_homomorphisms, membership_by_term, pullback_extension
from wsext.canonical import membership_by_gamma_id
from wsext.errors import IotaNotInY
from wsext.fixtures import fixture_path
from wsext.terms import TermSpec, ThetaSpec

from conftest import EXTENSION_NAMES, assert_rebuilds, load_fixture, run_cli
from oracles import brute_force_witnesses, witness_key


@contextmanager
def criterion(name):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL", file=sys.stderr)
        raise
    elapsed = time.monotonic() - started
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)", file=sys.stderr)


EXAMPLE = str(fixture_path("example_monoid"))
THETA_XZY = str(fixture_path("theta_monoid_xzy"))
THETA_SUM = str(fixture_path("theta_monoid_sum"))


def test_criterion_1_example_reproduction():
    with criterion("1 example-reproduction"):
        started = time.monotonic()
        res = run_cli("check", EXAMPLE, "--theta", THETA_XZY, "--json")
        elapsed = time.monotonic() - started
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert [[0, 0, 0, 0, 1], [0, 1, 0, 1, 0]] in payload["witnesses"]
        assert payload["sizes"]["A"] == 5
        assert payload["sizes"]["X_times_B"] == 4
        assert payload["sizes"]["A"] > payload["sizes"]["X_times_B"]
        text = run_cli("check", EXAMPLE, "--theta", THETA_XZY)
        assert "|A| = 5" in text.stdout and "|X x B| = 4" in text.stdout
        assert elapsed < 1.0, f"check took {elapsed:.2f}s"


def test_criterion_2_strictness():
    with criterion("2 strictness"):
        started = time.monotonic()
        res = run_cli("check", EXAMPLE, "--theta", THETA_SUM)
        elapsed = time.monotonic() - started
        assert res.returncode == 1
        assert "witnesses: 0" in res.stdout
        assert elapsed < 1.0, f"check took {elapsed:.2f}s"


def test_criterion_3_canonical_roundtrip():
    with criterion("3 canonical-roundtrip"):
        started = time.monotonic()
        for name in EXTENSION_NAMES:
            e, _, axioms, theta = load_fixture(name)
            zero_tuple = (e.X.zero,) * theta.n
            full_roundtrips = 0
            witnesses = find_witnesses(e, theta, limit=100)
            assert witnesses
            for w in witnesses:
                c = build_canonical(e, theta, w)
                rep = verify_isomorphism(e, c, w)
                core = [en for en in rep.entries if en.name != "section_transport"]
                assert all(en.ok for en in core), (name, rep.render())

                # the three carrier definitions coincide
                image = sorted(set(psi(e, w).values))
                assert image == membership_by_gamma_id(c)
                assert image == membership_by_term(c)

                # transported q_i are the coordinate projections
                assert rep.entry("witness_projections").ok

                g = extract_gamma(c, axioms)
                assert check_conditions(g).ok
                compatible = all(w.values_at(e.s(b)) == zero_tuple
                                 for b in range(e.B.size))
                if compatible:
                    assert_rebuilds(e, theta, w, axioms)
                    full_roundtrips += 1
                else:
                    # documented boundary: the zero-tuple section misses
                    # the carrier, so reconstruction must refuse
                    with pytest.raises(IotaNotInY):
                        build_extension_from_gamma(g)
            assert full_roundtrips > 0, name
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"roundtrips took {elapsed:.2f}s"


def test_criterion_4_semiabelian_coverage():
    with criterion("4 semiabelian-coverage"):
        for name in ("klein_four", "s3"):
            e, _, _, theta = load_fixture(name)
            sig = e.A.signature
            alpha = TermSpec(("x", "y"),
                             parse_term("(* x (inv y))", sig, ["x", "y"]))
            w = semiabelian_witness(e, theta, [alpha])
            assert validate_witness(e, theta, w)
            keys = [witness_key(x) for x in find_witnesses(e, theta)]
            assert witness_key(w) in keys

        e, _, _, theta = load_fixture("heyting_chain")
        assert not is_schreier(e, theta)
        # q_1(w) = w => s(p(w)), read back through the kernel inclusion
        k_preimage = {e.k(x): x for x in range(e.X.size)}
        derived_q1 = tuple(
            k_preimage[e.A.op("imp", (a, e.s(e.p(a))))] for a in range(e.A.size))
        sharing = [w for w in find_witnesses(e, theta)
                   if w.q[0].values == derived_q1]
        assert len(sharing) >= 2
        seen = {witness_key(w) for w in sharing}
        assert len(seen) == len(sharing)


def test_criterion_5_pullback_stability():
    with criterion("5 pullback-stability"):
        started = time.monotonic()
        for name in EXTENSION_NAMES:
            e, w, _, theta = load_fixture(name)
            assert w is not None
            homs = []
            for B_prime in (e.B, e.X, trivial_algebra(e.B.signature)):
                for f in enumerate_homomorphisms(B_prime, e.B):
                    homs.append((B_prime, f))
            assert homs
            for B_prime, f in homs[:50]:
                ext2, w2 = pullback_extension(e, theta, B_prime, f, w)
                assert validate_split_extension(ext2).ok
                assert validate_witness(ext2, theta, w2)
                # transported values really are q'_i(a, b') = q_i(a)
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"pullbacks took {elapsed:.2f}s"


def test_criterion_6_product_magma_boundary():
    with criterion("6 product-magma-boundary"):
        for name in EXTENSION_NAMES:
            e, _, _, theta = load_fixture(name)
            assert product_extension_check(e.X, theta).ok, name

        from wsext.serialize import algebra_from_obj
        M = algebra_from_obj(fixture_path("left_unital_magma"))
        theta = ThetaSpec(("x", "y"),
                          parse_term("(* x y)", M.signature, ["x", "y"]))
        res = product_extension_check(M, theta)
        assert not res.ok
        assert res.obstruction == 1


def test_criterion_7_sigma_tau_decomposition():
    with criterion("7 sigma-tau-decomposition"):
        e, w, _, theta = load_fixture("example_monoid")
        ambient = e.X.size ** theta.n * e.B.size
        assert ambient * ambient == 64
        dec = sigma_tau_decompose(e, theta, w)
        assert dec.report.entry("decomposition_identity").ok


def test_criterion_8_oracle_equivalence():
    with criterion("8 oracle-equivalence"):
        for name in EXTENSION_NAMES:
            e, _, _, theta = load_fixture(name)
            assert e.X.size ** (theta.n * e.A.size) <= 10 ** 6
            for normalized in (True, False):
                fast = find_witnesses(e, theta, normalize=normalized)
                slow = brute_force_witnesses(e, theta, normalized)
                assert len(fast) == len(slow), name
                assert (sorted(witness_key(x) for x in fast)
                        == sorted(witness_key(x) for x in slow)), name


DETERMINISM_COMMANDS = (
    ("check", EXAMPLE, "--theta", THETA_XZY),
    ("check", EXAMPLE, "--theta", THETA_SUM),
    ("check", str(fixture_path("heyting_chain")),
     "--theta", str(fixture_path("theta_heyting")), "--no-normalize"),
    ("check", str(fixture_path("s3")), "--theta", str(fixture_path("theta_group")),
     "--json"),
    ("product-check", str(fixture_path("left_unital_magma")),
     "--theta-vars", "x,y", "--theta-term", "(* x y)"),
)


def _battery(workers):
    chunks = []
    for cmd in DETERMINISM_COMMANDS:
        res = run_cli(*cmd, "--workers", str(workers))
        chunks.append(f"$ {' '.join(cmd)}\n{res.returncode}\n{res.stdout}")
    return "".join(chunks)


def test_criterion_9_determinism(tmp_path):
    with criterion("9 determinism"):
        first = _battery(1)
        second = _battery(1)
        threaded = _battery(4)
        assert first == second == threaded

        out1 = tmp_path / "c1.json"
        out2 = tmp_path / "c2.json"
        for out in (out1, out2):
            res = run_cli("canonicalize", EXAMPLE, "--theta", THETA_XZY,
                          "-o", str(out))
            assert res.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
