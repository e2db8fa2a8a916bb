import json
import tracemalloc

import pytest

from wsext import (
    ThetaSpec,
    build_canonical,
    find_witnesses,
    gammabuild,
    parse_term,
)
from wsext import serialize as S
from wsext.ambient import ActionTable
from wsext.cli import main
from wsext.errors import FileFormatError
from wsext.fixtures import fixture_path
from wsext.serialize import (
    algebra_from_obj,
    canonical_to_obj,
    extension_from_obj,
    dump_json,
    extension_to_obj,
    gamma_from_obj,
    hom_from_obj,
    load_extension,
    theta_from_obj,
    to_text,
)
from wsext.writer import algebra_to_obj

from conftest import MSIG, cyclic, load_fixture, product_extension, run_cli


def n2_obj():
    return {
        "signature": {"ops": [{"name": "+", "arity": 2}, {"name": "0", "arity": 0}],
                      "constant": "0"},
        "size": 2,
        "tables": {"+": [[0, 1], [1, 1]], "0": 0},
    }


def test_algebra_roundtrip():
    A = algebra_from_obj(n2_obj())
    assert A.size == 2 and A.zero == 0
    assert algebra_from_obj(algebra_to_obj(A)).tables == A.tables


def test_algebra_rejects_unknown_keys():
    obj = n2_obj()
    obj["extra"] = 1
    with pytest.raises(FileFormatError):
        algebra_from_obj(obj)


def test_algebra_rejects_bad_element_names():
    obj = n2_obj()
    obj["element_names"] = ["only-one"]
    with pytest.raises(FileFormatError):
        algebra_from_obj(obj)


def test_algebra_rejects_non_integer_entries():
    obj = n2_obj()
    obj["tables"]["+"] = [[0, 1], [1, True]]
    with pytest.raises(FileFormatError):
        algebra_from_obj(obj)


def _cells(array: list) -> list:
    """The entries of a nested integer array in order, as (list, index)."""
    if array and isinstance(array[0], list):
        return [cell for row in array for cell in _cells(row)]
    return [(array, j) for j in range(len(array))]


def _hom_doc(ext: dict) -> tuple[dict, list]:
    doc = {"B_prime": ext["A"], "f": [0] * ext["A"]["size"]}
    return doc, doc["f"]


# an integer array of a file, built from the example extension document:
# (the document and the array in it, its reader, the name its errors carry)
INT_ARRAYS = {
    "algebra table": (lambda ext: (ext["A"], ext["A"]["tables"]["+"]),
                      algebra_from_obj, "table '+' entry"),
    "function array": (lambda ext: (ext, ext["p"]), extension_from_obj, "p"),
    "hom file f": (_hom_doc, hom_from_obj, "f"),
}


@pytest.mark.parametrize("bad", [True, 1.5, "1"], ids=repr)
@pytest.mark.parametrize("place", [0, "middle", -1])
@pytest.mark.parametrize("array", sorted(INT_ARRAYS))
def test_a_non_integer_entry_is_named_where_it_stands(array, place, bad):
    document, read, what = INT_ARRAYS[array]
    doc, entries = document(json.loads(fixture_path("example_monoid").read_text()))
    cells = _cells(entries)
    at = len(cells) // 2 if place == "middle" else place
    row, j = cells[at]
    row[j] = bad
    if at != -1:  # a later bad entry is not the one named
        row, j = cells[-1]
        row[j] = []
    with pytest.raises(FileFormatError) as raised:
        read(doc)
    assert type(raised.value) is FileFormatError
    assert str(raised.value) == f"{what}: expected an integer, got {bad!r}"


def _example() -> dict:
    return json.loads(fixture_path("example_monoid").read_text())


def _theta_doc(ext: dict) -> tuple[dict, dict]:
    doc = json.loads(fixture_path("theta_monoid_xzy").read_text())
    return doc, doc


def _read_theta(doc: dict) -> ThetaSpec:
    return theta_from_obj(doc, algebra_from_obj(_example()["A"]).signature)


# a name or term text of a file, built from the example extension document
# or the witness term file: (the document and the object holding the field,
# the field's key, its reader); each error carries the field's name
STR_FIELDS = {
    "operation name": (lambda ext: (ext["A"], ext["A"]["signature"]["ops"][1]), "name",
                       algebra_from_obj),
    "signature constant": (lambda ext: (ext["A"], ext["A"]["signature"]), "constant",
                           algebra_from_obj),
    "theta term": (_theta_doc, "term", _read_theta),
    "axiom lhs": (lambda ext: (ext, ext["axioms"][1]), "lhs", extension_from_obj),
    "axiom rhs": (lambda ext: (ext, ext["axioms"][1]), "rhs", extension_from_obj),
}


@pytest.mark.parametrize("bad", [0, True, None, ["0"]], ids=repr)
@pytest.mark.parametrize("field", sorted(STR_FIELDS))
def test_a_name_or_term_that_is_not_a_string_is_named(field, bad):
    # 0 and ["0"] are not read as the constant "0", nor True as "True"
    document, key, read = STR_FIELDS[field]
    doc, holder = document(_example())
    holder[key] = bad
    with pytest.raises(FileFormatError) as raised:
        read(doc)
    assert type(raised.value) is FileFormatError
    assert str(raised.value) == f"{field}: expected a string, got {bad!r}"


def test_check_refuses_an_integer_constant(tmp_path):
    # the constant operation named 0 in every algebra, not "0"
    doc = _example()
    for alg in ("X", "A", "B"):
        sig = doc[alg]["signature"]
        sig["ops"][1]["name"] = sig["constant"] = 0
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(doc))
    res = run_cli("check", str(path), "--theta", str(fixture_path("theta_monoid_xzy")))
    assert res.returncode == 64
    assert res.stdout == ""
    assert res.stderr == "error: operation name: expected a string, got 0\n"


@pytest.mark.parametrize("size", [0, -1])
def test_a_size_below_one_is_named(size):
    obj = n2_obj()
    obj["size"] = size
    with pytest.raises(FileFormatError) as raised:
        algebra_from_obj(obj)
    assert str(raised.value) == f"size: expected a positive integer, got {size}"


def test_algebra_rejects_ragged_tables():
    obj = n2_obj()
    obj["tables"]["+"] = [[0, 1, 1], [1]]
    with pytest.raises(FileFormatError):
        algebra_from_obj(obj)


def test_extension_roundtrip_with_witness():
    e, w, axioms, theta = load_fixture("example_monoid")
    obj = extension_to_obj(e, witness=w, axioms=axioms)
    e2, w2, axioms2 = extension_from_obj(obj)
    assert e2.A.tables == e.A.tables
    assert [q.values for q in w2.q] == [q.values for q in w.q]
    assert len(axioms2) == len(axioms)


def test_extension_rejects_unknown_keys():
    e, w, axioms, theta = load_fixture("example_monoid")
    obj = extension_to_obj(e)
    obj["comment"] = "hi"
    with pytest.raises(FileFormatError):
        extension_from_obj(obj)


def test_extension_with_algebra_paths(tmp_path):
    alg = json.loads(fixture_path("n2").read_text())
    (tmp_path / "n2.json").write_text(json.dumps(alg))
    e, w, axioms, theta = load_fixture("n2_product")
    obj = extension_to_obj(e, witness=w)
    obj["X"] = "n2.json"
    obj["B"] = "n2.json"
    (tmp_path / "ext.json").write_text(json.dumps(obj))
    e2, w2, _ = load_extension(tmp_path / "ext.json")
    assert e2.X.tables == e.X.tables


def test_theta_file_parses():
    obj = json.loads(fixture_path("theta_monoid_xzy").read_text())
    e, _, _, _ = load_fixture("example_monoid")
    theta = theta_from_obj(obj, e.A.signature)
    assert theta.n == 2 and theta.vars == ("x1", "x2", "y")


def test_canonical_document_is_gamma_readable():
    e, w, axioms, theta = load_fixture("example_monoid")
    c = build_canonical(e, theta, w)
    doc = canonical_to_obj(c, axioms=axioms)
    g = gamma_from_obj(doc)
    assert g.gamma == c.gamma
    assert g.theta.vars == theta.vars


def test_emitted_documents_are_stable():
    e, w, axioms, theta = load_fixture("example_monoid")
    one = to_text(extension_to_obj(e, witness=w, axioms=axioms))
    two = to_text(extension_to_obj(e, witness=w, axioms=axioms))
    assert one == two
    # loading and re-dumping is byte-identical too
    e2, w2, axioms2 = extension_from_obj(json.loads(one))
    assert to_text(extension_to_obj(e2, witness=w2, axioms=axioms2)) == one


def test_fixture_files_reload_byte_identically():
    for name in ("example_monoid", "klein_four", "s3", "n2_product"):
        raw = fixture_path(name).read_text()
        e, w, axioms = load_extension(fixture_path(name))
        assert to_text(extension_to_obj(e, witness=w, axioms=axioms)) == raw


def test_malformed_json_reports_file_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(FileFormatError):
        algebra_from_obj(bad)


PRODUCT_THETA = ThetaSpec(("x1", "x2", "y"), parse_term("(+ x1 (+ y x2))", MSIG, ["x1", "x2", "y"]))


def product_family_files(tmp_path, m: int):
    """ext.json and theta.json of the product family Z_m -> Z_m x Z_m -> Z_m
    with x1 + y + x2, so n = 2 and |X^n x B| = m^3."""
    ext, theta = tmp_path / "ext.json", tmp_path / "theta.json"
    dump_json(extension_to_obj(product_extension(cyclic(m, MSIG), cyclic(m, MSIG))), ext)
    theta.write_text(json.dumps({"vars": ["x1", "x2", "y"], "term": "(+ x1 (+ y x2))"}))
    return ext, theta


def test_the_canonical_form_and_its_document_hold_no_flat_table():
    """At m = 10 the + table has 10^6 entries, so one flat table of them
    takes 8 MB of pointers; the canonical form and its document hold the
    table's 1000 leaf rows as references to 10 distinct rows of 1000
    entries."""
    e = product_extension(cyclic(10, MSIG), cyclic(10, MSIG))
    w = find_witnesses(e, PRODUCT_THETA, limit=1)[0]
    tracemalloc.start()
    try:
        c = build_canonical(e, PRODUCT_THETA, w)
        doc = canonical_to_obj(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(c.gamma["+"]) == 10 ** 6 and len(c.gamma["+"].distinct()) == 10
    assert len(doc["gamma"]["+"]) == 1000 and len(set(map(id, doc["gamma"]["+"]))) == 10
    assert peak < 10 ** 6 * 8


def test_action_data_is_decoded_and_checked_once_per_distinct_row(
        tmp_path, monkeypatch, capsys):
    m = 5
    ext, theta = product_family_files(tmp_path, m)
    canon = tmp_path / "canon.json"
    assert main(["canonicalize", str(ext), "--theta", str(theta), "-o", str(canon)]) == 0
    capsys.readouterr()
    row_texts = {json.dumps(row) for row in json.loads(canon.read_text())["gamma"]["+"]}

    given = {}
    real = gammabuild.GammaData
    monkeypatch.setattr(gammabuild, "GammaData", lambda X, B, theta, gamma, axioms:
                        given.update(gamma) or real(X, B, theta, gamma, axioms))
    checks = []
    check_entry = gammabuild._check_entry
    monkeypatch.setattr(gammabuild, "_check_entry",
                        lambda *args: checks.append(args) or check_entry(*args))
    g = gamma_from_obj(S._load_json(canon), canon.parent)

    # the + table reaches GammaData as its m^3 leaf rows, one object per
    # distinct row text
    rows = given["+"]
    assert isinstance(rows, ActionTable) and len(rows.rows) == m ** 3
    assert len(rows.distinct()) == len(row_texts) < m ** 3
    # each distinct entry of each table is checked once, and stored as one
    # shared tuple in the distinct rows of the table given
    distinct_entries = sum(len(set(table)) for table in g.gamma.values())
    assert len(checks) == distinct_entries
    for table in g.gamma.values():
        assert len(set(map(id, table))) == len(set(table))
    assert len(g.gamma["+"].distinct()) == len(row_texts)


@pytest.mark.parametrize("placed", [
    json.dumps({S._ROW_REF: 0}),
    '{"\\u0000row": 1}',
    json.dumps({S._ROW_REF: 0, "a": 1}),
    json.dumps({S._ROW_REF: "x"}),
    json.dumps({S._ROW_REF: 10 ** 6}),
])
def test_reader_reads_a_document_object_spelled_like_its_row_reference(tmp_path, placed):
    e, w, axioms, theta = load_fixture("example_monoid")
    doc = json.loads(json.dumps(canonical_to_obj(build_canonical(e, theta, w), axioms)))
    doc["gamma"]["+"][4] = "placeholder"
    path = tmp_path / "canon.json"
    dump_json(doc, path)
    text = path.read_text().replace('"placeholder"', placed)
    path.write_text(text)
    assert S._load_json(path) == json.loads(text)
