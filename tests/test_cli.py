"""Command-line interface: verbs, JSON round trips, exit codes, determinism."""

import contextlib
import copy
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import helpers
from helpers import tate_triple, unchecked_hom

import mhslab
from mhslab import cli, corpus
from mhslab import linalg as la
from mhslab import loci as lo
from mhslab import mhs as mh
from mhslab import serialize as se
from mhslab import triples as tr
from mhslab import unipotent as un
from mhslab.errors import NotAnMhsError, ParseError
from mhslab.field import Q, QI, GaussRat, I, parse_qi
from mhslab.linalg import Subspace


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(se.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


@pytest.fixture
def kummer_file(tmp_path):
    return write(tmp_path, "kummer.json", se.mhs_to_json(corpus.kummer_mhs(I)))


@pytest.fixture
def pencil_file(tmp_path):
    mu = corpus.kummer_triple()
    alpha = corpus.kummer_tpoint(GaussRat(0))
    low, high = tr.truncate(mu, -2)
    a_low, a_high = tr.truncate_point(mu, -2, alpha)
    pencil = lo.Pencil(mu, -2, tr.spoint(low, a_low), tr.spoint(high, a_high),
                       la.mat(QI, [[0], [1]]), la.mat(QI, [[1], [0]]))
    return write(tmp_path, "pencil.json", se.pencil_to_json(pencil))


# -- serialization round trips ---------------------------------------------------

def test_mhs_json_round_trip():
    for m in [corpus.kummer_mhs(I), corpus.two_weight_mhs(), mh.tate_twist(2)]:
        assert se.mhs_from_json(json.loads(se.dumps(se.mhs_to_json(m)))) == m


def test_triple_and_point_json_round_trip():
    mu = corpus.tate3_triple()
    assert se.triple_from_json(json.loads(se.dumps(se.triple_to_json(mu)))) == mu
    alpha = tr.sample_point(mu, "rt", 5)
    assert se.tpoint_from_json(
        json.loads(se.dumps(se.tpoint_to_json(alpha)))) == alpha


# -- verbs ------------------------------------------------------------------------

def test_validate_ok(capsys, kummer_file):
    code, doc = run(capsys, ["validate", kummer_file])
    assert code == 0 and doc["valid"] and doc["problems"] == []
    assert doc["run"]["verb"] == "validate" and kummer_file in doc["run"]["inputs"]


def test_validate_invalid_structure(capsys, tmp_path):
    bad = mh.make_mhs(1, {0: Subspace.full(Q, 1)}, {1: Subspace.full(QI, 1)})
    path = write(tmp_path, "bad.json", se.mhs_to_json(bad))
    code, doc = run(capsys, ["validate", path])
    assert code == 3 and not doc["valid"] and doc["problems"]


def test_io_and_schema_errors(capsys, tmp_path, pencil_file):
    assert cli.main(["validate", str(tmp_path / "missing.json")]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["validate", str(garbled)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"dim": 1}')
    assert cli.main(["validate", str(wrong)]) == 2
    # A ragged matrix is a schema error, not a mathematical rejection.
    ragged = {"dim": 2, "W": {"0": [["1", "0"], ["1"]]},
              "F": {"0": [["1", "0"], ["0", "1"]]}}
    assert cli.main(["validate", write(tmp_path, "ragged.json", ragged)]) == 2
    # JSON booleans are not integers, although Python's bool is an int.
    one = {"0": [["1"]]}
    assert cli.main(["validate", write(tmp_path, "s.json", {
        "dim": True, "W": one, "F": one})]) == 2
    for dim, weight in [(True, 0), (1, False)]:
        mu = write(tmp_path, "mu.json", {"dim": dim, "W": one, "graded": [
            {"weight": weight, "F": one}]})
        assert cli.main(["experiment", "--triple", mu, "--samples", "0"]) == 2
    # Two graded entries of one weight do not match the jumps of W.
    mu = write(tmp_path, "mu.json", {"dim": 1, "W": one, "graded": [
        {"weight": 0, "F": one}, {"weight": 0, "F": {"1": [["1"]]}}]})
    assert cli.main(["experiment", "--triple", mu, "--samples", "0"]) == 2
    with open(pencil_file) as fh:
        doc = json.load(fh)
    doc["p"] = True
    assert cli.main(["fiber", write(tmp_path, "pen.json", doc),
                     "--t", "i"]) == 2
    assert cli.main(["locus", pencil_file, "--vector", '["1", "0"]',
                     "--construction", '["WSUB", true, "SELF"]']) == 2
    # QUOT rows follow the matrix schema: lists of scalar strings.
    for rows in [None, [[None, "0"]], 5, [[0.5, "0"]], [[True, "0"]],
                 [["1"]]]:
        assert cli.main(["locus", pencil_file, "--vector", '["1", "0"]',
                         "--construction",
                         json.dumps(["QUOT", rows, "SELF"])]) == 2
    # A non-string scalar is named as such.
    for rows, shown in [([[True]], "True"), ([[1]], "1"), ([[None]], "None")]:
        path = write(tmp_path, "scalar.json",
                     {"dim": 1, "W": one, "F": {"0": rows}})
        capsys.readouterr()
        assert cli.main(["validate", path]) == 2
        assert capsys.readouterr().err == (
            f"error: F[0]: expected a scalar string, got {shown}\n")
    # A scalar with more digits than int() converts is a parse error.
    capsys.readouterr()
    assert cli.main(["validate", write(tmp_path, "long.json", {
        "dim": 1, "W": {"0": [["1" * 5000]]}, "F": one})]) == 2
    assert capsys.readouterr().err.startswith("error: W[0]: scalar 1")
    # An --out path that cannot be written is an I/O error.
    kummer = write(tmp_path, "k.json", se.mhs_to_json(corpus.kummer_mhs(I)))
    capsys.readouterr()
    assert cli.main(["validate", kummer, "--out",
                     str(tmp_path / "no" / "such" / "x.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text", ["1/0", "1/0i", "2-3/0i"])
def test_zero_denominator_is_a_parse_error(capsys, tmp_path, text):
    with pytest.raises(ParseError):
        parse_qi(text)
    doc = se.mhs_to_json(corpus.kummer_mhs(I))
    doc["F"]["0"] = [[text, "1"]]
    assert cli.main(["validate", write(tmp_path, "bad.json", doc)]) == 2
    capsys.readouterr()


def test_functors_output_reparses(capsys, kummer_file):
    code, doc = run(capsys, ["functors", kummer_file])
    assert code == 0
    m = corpus.kummer_mhs(I)
    assert se.mhs_from_json(doc["dual"]) == mh.dual(m)
    assert se.mhs_from_json(doc["tensor_square"]) == mh.tensor(m, m)
    assert se.mhs_from_json(doc["end"]) == mh.hom(m, m)


def test_hodge_classes_and_split(capsys, kummer_file):
    code, doc = run(capsys, ["hodge-classes", kummer_file])
    assert code == 0 and doc["dim"] == 0
    code, doc = run(capsys, ["split", kummer_file])
    assert code == 0 and set(doc["bigrading"]) == {"-1,-1", "0,0"}
    a = se.matrix_from_json(QI, doc["splitting"])
    assert la.invert(QI, a) is not None


def _corpus_structures():
    """The valid structures of the corpus: its Tate, Kummer, CM and
    two-weight structures, and sampled members of each of its triples."""
    out = [corpus.tate_mhs(k) for k in (-2, 0, 3)]
    out += [corpus.kummer_mhs(z) for z in (GaussRat(0), GaussRat(Fraction(1, 2)),
                                           I, GaussRat(1, 1))]
    out += [corpus.cm_piece(-1), corpus.cm_piece(-3), corpus.two_weight_mhs()]
    for mu in (corpus.kummer_triple(), corpus.tate3_triple(),
               corpus.tate_cm_triple(), corpus.two_weight_triple()):
        out += [tr.build_mhs(mu, tr.sample_point(mu, s, 10)) for s in range(2)]
        out.append(tr.build_mhs(mu, tr.sample_rational_point(mu, "split", 10)))
    assert all(mh.is_valid(m) for m in out)
    return out


def test_split_bytes_match_the_table_bigrading(capsys, tmp_path, monkeypatch):
    """split prints the same bytes as with the bigrading read off the whole
    table of F^p . W_n (helpers.table_bigrading), on every corpus
    structure."""
    for m in _corpus_structures():
        path = write(tmp_path, "m.json", se.mhs_to_json(m))
        assert cli.main(["split", path]) == 0
        out = capsys.readouterr().out
        with monkeypatch.context() as patched:
            patched.setattr(mh, "deligne_bigrading", helpers.table_bigrading)
            assert cli.main(["split", path]) == 0
        assert capsys.readouterr().out == out


def test_build_and_sections_round_trip(capsys, tmp_path):
    mu_file = write(tmp_path, "mu.json", se.triple_to_json(corpus.tate3_triple()))
    alpha = tr.sample_point(corpus.tate3_triple(), "cli", 5)
    pt_file = write(tmp_path, "pt.json", se.tpoint_to_json(alpha))
    code, doc = run(capsys, ["build", "--triple", mu_file, "--point", pt_file])
    assert code == 0
    built = se.mhs_from_json({k: doc[k] for k in ("dim", "W", "F")})
    assert built == tr.build_mhs(corpus.tate3_triple(), alpha)
    m_file = write(tmp_path, "m.json", se.mhs_to_json(built))
    code, doc = run(capsys, ["sections", "--triple", mu_file, m_file])
    assert code == 0
    beta = se.tpoint_from_json({"sections": doc["sections"]})
    assert tr.build_mhs(corpus.tate3_triple(), beta) == built


def test_zero_dimensional_structure_splits_sections_and_lifts(capsys, tmp_path):
    zero = mh.zero_mhs()
    m_file = write(tmp_path, "m.json", se.mhs_to_json(zero))
    mu_file = write(tmp_path, "mu.json", se.triple_to_json(tr.triple_of(zero)))
    lift_file = write(tmp_path, "lift.json", {"structure": se.mhs_to_json(zero),
                                              "graded_rows": []})
    code, doc = run(capsys, ["split", m_file])
    assert code == 0 and doc["splitting"] == [] and doc["bigrading"] == {}
    code, doc = run(capsys, ["sections", "--triple", mu_file, m_file])
    assert code == 0 and doc["sections"] == {}
    code, doc = run(capsys, ["lift", lift_file])
    assert code == 0 and doc["liftable"] and doc["lift"] == []
    # The regime gate frames the empty structure and passes it.
    assert cli.main(["up", m_file, "--p", "0"]) == 3
    assert capsys.readouterr().err == (
        "error: weight cut 0 leaves nothing on one side\n")
    code, doc = run(capsys, ["u-large", m_file])
    assert code == 0 and doc["large"] is True and doc["per_p"] == []


def test_lift_of_a_graded_line_that_is_no_subobject_exits_3(capsys, tmp_path):
    """On the Kummer structure the graded line spanned by (1, 1) mixes the
    weights -2 and 0, so it is no subobject of Gr^W M: the verb exits 3
    with one error line naming the graded structure, and no traceback."""
    lift_file = write(tmp_path, "lift.json",
                      {"structure": se.mhs_to_json(corpus.kummer_mhs(I)),
                       "graded_rows": [["1", "1"]]})
    assert cli.main(["lift", lift_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the subspace (x) Q(i) is not the sum of its intersections "
        "with the I^{p,q} of Gr^W M\n")


def test_truncate_verb(capsys, tmp_path):
    mu_file = write(tmp_path, "mu.json", se.triple_to_json(corpus.tate3_triple()))
    code, doc = run(capsys, ["truncate", "--triple", mu_file, "--p", "-2"])
    assert code == 0
    low = se.triple_from_json(doc["low"])
    high = se.triple_from_json(doc["high"])
    assert low.dim == 2 and high.dim == 1


def test_fiber_verb(capsys, pencil_file):
    code, doc = run(capsys, ["fiber", pencil_file, "--t", "i"])
    assert code == 0 and doc["fiber_dim"] == 1
    mu = corpus.kummer_triple()
    s = se.spoint_from_json(mu, doc["point"])
    assert tr.mhs_of_spoint(s) == corpus.kummer_mhs(I)


def test_fiber_and_truncate_point_check_the_triple_where_it_enters(
        capsys, tmp_path, pencil_file, monkeypatch):
    """fiber_dim, truncate and truncate_point take a checked triple: the
    truncate verb checks its triple file and Pencil.check a pencil's, and
    reading a file does not check it."""
    calls = []
    problems = tr.triple_problems
    monkeypatch.setattr(tr, "triple_problems",
                        lambda mu: calls.append(mu) or problems(mu))
    assert cli.main(["fiber", pencil_file, "--t", "i"]) == 0
    assert len(calls) == 1
    mu = corpus.tate3_triple()
    mu_file = write(tmp_path, "mu.json", se.triple_to_json(mu))
    point_file = write(tmp_path, "pt.json",
                       se.tpoint_to_json(tr.sample_point(mu, "pt", 5)))
    calls.clear()
    assert cli.main(["truncate", "--triple", mu_file, "--p", "-2",
                     "--point", point_file]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_an_impure_graded_piece_is_a_mathematical_rejection(
        capsys, tmp_path, pencil_file):
    """A triple file parses when it has one graded entry per jump of W;
    whether the entries are pure is judged by the verb, which exits 3."""
    mu = corpus.tate3_triple()
    bad = tr.Triple(mu.dim, mu.W, ((-6, mh.tate_twist(1)),) + mu.graded[1:])
    alpha = tr.sample_point(mu, "pt", 5)
    bad_file = write(tmp_path, "bad.json", se.triple_to_json(bad))
    point = write(tmp_path, "pt.json", se.tpoint_to_json(alpha))
    structure = write(tmp_path, "m.json",
                      se.mhs_to_json(tr.build_mhs(mu, alpha)))
    with open(pencil_file) as fh:
        doc = json.load(fh)
    doc["triple"]["graded"][0]["F"] = {"0": [["1"]]}  # Q(0) at weight -2
    bad_pencil = write(tmp_path, "pen.json", doc)
    for argv, weight in [
            (["build", "--triple", bad_file, "--point", point], -6),
            (["sections", "--triple", bad_file, structure], -6),
            (["truncate", "--triple", bad_file, "--p", "-2"], -6),
            (["experiment", "--triple", bad_file, "--samples", "1"], -6),
            (["fiber", bad_pencil, "--t", "i"], -2),
            (["locus", bad_pencil, "--vector", '["1","0","0","1"]',
              "--construction", '["HOM","SELF","SELF"]'], -2)]:
        assert cli.main(argv) == 3, argv
        assert (f"graded piece at weight {weight} is not a pure structure"
                in capsys.readouterr().err), argv
    # A weight graded twice, or not at all, is still a schema error.
    doc = se.triple_to_json(mu)
    for graded, problem in [(doc["graded"] + doc["graded"][:1],
                             "weight -6 is graded twice"),
                            (doc["graded"][1:], "is not graded")]:
        path = write(tmp_path, "mu.json", dict(doc, graded=graded))
        for argv in (["build", "--triple", path, "--point", point],
                     ["experiment", "--triple", path, "--samples", "1"]):
            assert cli.main(argv) == 2, argv
            assert problem in capsys.readouterr().err, argv


def test_a_w_that_is_not_increasing_is_rejected_before_its_graded_entries(
        capsys, tmp_path, pencil_file):
    """W_-2 = <e1>, W_-1 = <e2>, W_0 = Q^2 has no graded piece at -1, yet
    the file grades -1: every verb that reads the triple exits 3 naming
    W, not 2 for a weight that is not a jump."""
    doc = {"dim": 2,
           "W": {"-2": [["1", "0"]], "-1": [["0", "1"]],
                 "0": [["1", "0"], ["0", "1"]]},
           "graded": [{"weight": -2, "F": {"-1": [["1"]]}},
                      {"weight": -1, "F": {"0": [["1"]]}}]}
    bad = write(tmp_path, "bad.json", doc)
    mu = corpus.tate3_triple()
    alpha = tr.sample_point(mu, "pt", 5)
    point = write(tmp_path, "pt.json", se.tpoint_to_json(alpha))
    structure = write(tmp_path, "m.json",
                      se.mhs_to_json(tr.build_mhs(mu, alpha)))
    with open(pencil_file) as fh:
        pencil = dict(json.load(fh), triple=doc)
    bad_pencil = write(tmp_path, "pen.json", pencil)
    for argv in (["build", "--triple", bad, "--point", point],
                 ["sections", "--triple", bad, structure],
                 ["truncate", "--triple", bad, "--p", "-2"],
                 ["experiment", "--triple", bad, "--samples", "1"],
                 ["fiber", bad_pencil, "--t", "i"],
                 ["locus", bad_pencil, "--vector", '["1","0","0","1"]',
                  "--construction", '["HOM","SELF","SELF"]']):
        assert cli.main(argv) == 3, argv
        assert capsys.readouterr().err == (
            "error: W is not increasing at weight -1\n"), argv


@pytest.fixture
def off_triple_pencil_file(tmp_path):
    """A pencil on two_weight_triple cut at -1 whose x has F^0 spanned by
    (1, 2i), where the triple's weight -1 piece has (1, i): x is a mixed
    Hodge structure, but not a point of the truncated triple."""
    mu = corpus.two_weight_triple()
    low, high = tr.truncate(mu, -1)
    x = tr.SPoint(low, mh.HodgeFiltration.of(2, {
        -1: Subspace.full(QI, 2),
        0: Subspace.span(QI, 2, [(GaussRat(1), GaussRat(0, 2))])}))
    alpha = tr.sample_point(mu, "s", 5)
    _, a_high = tr.truncate_point(mu, -1, alpha)
    pencil = lo.Pencil(mu, -1, x, tr.spoint(high, a_high), alpha.section(0),
                       la.mat(QI, [[1, 0], [0, 0], [0, 0], [0, 0]]))
    return write(tmp_path, "off.json", se.pencil_to_json(pencil))


def test_fiber_and_locus_reject_a_pencil_off_its_truncated_triple(
        capsys, off_triple_pencil_file):
    assert cli.main(["fiber", off_triple_pencil_file, "--t", "i"]) == 3
    assert "x is not a point of its truncated triple" in capsys.readouterr().err
    identity = json.dumps([str(int(i % 5 == 0)) for i in range(16)])
    assert cli.main(["locus", off_triple_pencil_file, "--vector", identity,
                     "--construction", '["HOM","SELF","SELF"]']) == 3
    assert "x is not a point of its truncated triple" in capsys.readouterr().err


NESTED = "error: input is nested too deeply\n"


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, pencil_file):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert cli.main(["validate", str(deep)]) == 2
    assert capsys.readouterr().err == NESTED
    assert cli.main(["locus", pencil_file, "--vector", '["1","0"]',
                     "--construction", "[" * 100_000]) == 2
    assert capsys.readouterr().err == NESTED


def test_a_construction_too_deep_to_derive_is_an_input_error(pencil_file):
    """990 nested duals decode and pass the term check, then overflow the
    recursion of derive; 950 run.  The depths are those of a fresh
    interpreter, so the verb runs in one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mhslab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def locus(depth):
        term = '["DUAL",' * depth + '"SELF"' + "]" * depth
        return subprocess.run(
            [sys.executable, "-m", "mhslab.cli", "locus", pencil_file,
             "--vector", '["1","0"]', "--construction", term],
            env=env, capture_output=True, text=True, timeout=300)

    deep = locus(990)
    assert (deep.returncode, deep.stderr) == (2, NESTED)
    assert locus(950).returncode == 0


@pytest.mark.parametrize("dpsi, problem", [
    ([["1"], ["0"], ["2"]], "cannot multiply 2-col by 3-row"),
    ([["1", "5"], ["0", "7"]], "direction does not take values in the "
                               "weight subspace"),
    ([["0"], ["0"]], "direction is zero")])
def test_fiber_rejects_malformed_pencils(capsys, tmp_path, pencil_file,
                                         dpsi, problem):
    with open(pencil_file) as fh:
        doc = json.load(fh)
    doc["dpsi"] = dpsi
    assert cli.main(["fiber", write(tmp_path, "pen.json", doc),
                     "--t", "i"]) == 3
    assert problem in capsys.readouterr().err
    assert cli.main(["locus", write(tmp_path, "pen.json", doc), "--vector",
                     '["1","0","0","1"]', "--construction",
                     '["HOM","SELF","SELF"]']) == 3
    capsys.readouterr()


def test_lift_verb(capsys, tmp_path):
    for z, liftable in [(GaussRat(Fraction(1, 2)), True), (I, False)]:
        path = write(tmp_path, "lift.json",
                     {"structure": se.mhs_to_json(corpus.kummer_mhs(z)),
                      "graded_rows": [["0", "1"]]})
        code, doc = run(capsys, ["lift", path])
        assert code == 0 and doc["liftable"] == liftable
        if liftable:
            assert doc["lift"] == [["1", "2"]]


def test_locus_verb(capsys, pencil_file):
    code, doc = run(capsys, ["locus", pencil_file,
                             "--vector", '["0","0","0","1"]',
                             "--construction", '["HOM","SELF","SELF"]'])
    assert code == 0 and doc["kind"] == "AFFINE_SUBSET"
    assert doc["constraints"] and doc["constraints"][0][1] == "0"
    code, doc = run(capsys, ["locus", pencil_file,
                             "--vector", '["1","0","0","1"]',
                             "--construction", '["HOM","SELF","SELF"]'])
    assert code == 0 and doc["kind"] == "ALL"
    assert cli.main(["locus", pencil_file, "--vector", "[1,",
                     "--construction", '"SELF"']) == 2
    assert cli.main(["locus", pencil_file, "--vector", '["1/0", "0"]',
                     "--construction", '"SELF"']) == 2
    capsys.readouterr()
    # Only a JSON array of rational strings is a vector: a string is not
    # read character by character, and no bool, float or exponent passes.
    for vector, message in [('"1001"', "expected rows"),
                            ("[true,false,false,true]", "expected a scalar string"),
                            ("[0.5,0,0,1]", "expected a scalar string"),
                            ('["1/2","0","0","1e3"]', "malformed scalar"),
                            ('["1","0","0",1]', "expected a scalar string")]:
        assert cli.main(["locus", pencil_file, "--vector", vector,
                         "--construction", '["HOM","SELF","SELF"]']) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("construction", [
    '["QUOT",[["1","0"],["0","1"]],"SELF"]', '["WSUB",-9,"SELF"]',
    '["HOM",["QUOT",[["1","0"],["0","1"]],"SELF"],"SELF"]'])
def test_locus_of_a_zero_derived_space_is_all(capsys, pencil_file,
                                              construction):
    """A quotient by everything and a weight step below every weight derive
    the zero structure, with the 0 x 0 action, and the empty vector is a
    Hodge class at every t, as at each single member."""
    code, doc = run(capsys, ["locus", pencil_file, "--vector", "[]",
                             "--construction", construction])
    assert code == 0 and doc["kind"] == "ALL" and doc["constraints"] == []
    with open(pencil_file) as fh:
        member = lo.pencil_member(se.pencil_from_json(json.load(fh)),
                                  GaussRat(1, 2))
    assert lo.eval_construction(json.loads(construction), member).dim == 0


def test_up_and_u_large_verbs(capsys, kummer_file, tmp_path):
    code, doc = run(capsys, ["up", kummer_file, "--p", "-2"])
    assert code == 0 and doc["large"] and doc["regime"] == "TATE_EXACT"
    code, doc = run(capsys, ["u-large", kummer_file])
    assert code == 0 and doc["large"] and doc["per_p"] == [
        {"p": -2, "large": True, "dim": 1}]
    # Outside the graded-Tate regime: exit code 4.
    path = write(tmp_path, "tw.json", se.mhs_to_json(corpus.two_weight_mhs()))
    assert cli.main(["u-large", path]) == 4
    capsys.readouterr()


def test_two_weight_members_split_at_zero_so_exit_4_is_no_gap(capsys,
                                                               tmp_path):
    """At the cut -1 of the two-weight triple H has weight -1, dimension 4
    and dim F^0 H = 2, so H_Q (+) F^0 H is all of H as a Q-space and
    every class dies modulo the zero subobject: u_p = 0 at every member.
    up and u-large still exit 4 there, since H is not graded-Tate; that
    exit is not a gap in what they report."""
    mu = corpus.two_weight_triple()
    for seed in "abcde":
        m = tr.build_mhs(mu, tr.sample_point(mu, seed, 10))
        h = unchecked_hom(m, m.W.at(-1))
        assert (h.dim, h.F.at(0).dim, h.W.jumps) == (4, 2, (-1,))
        assert un.splits_mod(m, -1, Subspace.zero(Q, 4))
        path = write(tmp_path, f"tw_{seed}.json", se.mhs_to_json(m))
        assert cli.main(["up", path, "--p", "-1"]) == 4
        assert cli.main(["u-large", path]) == 4
    assert "not Tate" in capsys.readouterr().err


@pytest.mark.parametrize("triple, weight", [
    (corpus.tate_cm_triple, -3), (corpus.two_weight_triple, -1)])
def test_experiment_outside_the_regime_exits_4(capsys, tmp_path, triple,
                                               weight):
    """Each member is checked, and the controls run with no samples, so a
    triple outside the regime is refused also at --samples 0."""
    mu_file = write(tmp_path, "mu.json", se.triple_to_json(triple()))
    for samples in ("0", "2"):
        assert cli.main(["experiment", "--triple", mu_file,
                         "--samples", samples]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: the graded piece of weight {weight} is not Tate "
            f"(the structure must be graded-Tate)\n")


def test_degenerate_cut_is_a_math_error(capsys, kummer_file):
    assert cli.main(["up", kummer_file, "--p", "5"]) == 3
    capsys.readouterr()


def test_mt_bound_verb_and_guard(capsys, kummer_file, monkeypatch):
    code, doc = run(capsys, ["mt-bound", kummer_file, "--degree", "2"])
    assert code == 0 and doc["dim"] >= 1
    monkeypatch.setenv("MHSLAB_TENSOR_GUARD", "10")
    assert cli.main(["mt-bound", kummer_file, "--degree", "4"]) == 5
    capsys.readouterr()


@pytest.mark.parametrize("make, degree", [
    (lambda: corpus.kummer_mhs(I), "15000"),
    (lambda: mh.tate_twist(1), "1000")], ids=["kummer", "tate"])
def test_mt_bound_guard_refuses_any_degree_at_once(capsys, tmp_path,
                                                   monkeypatch, make, degree):
    # n^d has thousands of digits on Kummer, and is 1 on Q(1); both are
    # refused from the total of the powers before any power, or the
    # integer bases it is formed from, is built.
    path = write(tmp_path, "m.json", se.mhs_to_json(make()))
    products = []
    for name in ("_products", "_int_basis"):
        monkeypatch.setattr(mh, name, lambda *args, build=getattr(mh, name):
                            products.append(args) or build(*args))
    assert cli.main(["mt-bound", path, "--degree", degree]) == 5
    out, err = capsys.readouterr()
    assert not products and out == ""
    assert err.startswith("error: tensor powers of degree at most ")
    assert err.count("\n") == 1 and len(err) < 200


def test_up_guards_the_hom_of_its_cut(capsys, tmp_path, monkeypatch):
    # u_p forms no Hom structure, but its vectors and projectors live in
    # Hom(M/W_pM, W_pM), whose dimension is held to the ceiling.
    mu = corpus.tate3_triple()
    m = tr.build_mhs(mu, tr.sample_point(mu, "guard", 5))
    path = write(tmp_path, "m.json", se.mhs_to_json(m))
    for p in m.W.jumps[:-1]:
        wp = m.W.at(p)
        h_dim = wp.dim * (m.dim - wp.dim)
        monkeypatch.setenv("MHSLAB_TENSOR_GUARD", str(h_dim - 1))
        assert cli.main(["up", path, "--p", str(p)]) == 5
        assert capsys.readouterr().err.startswith(
            f"error: tensor space of dimension {h_dim} exceeds")
        monkeypatch.setenv("MHSLAB_TENSOR_GUARD", str(h_dim))
        assert cli.main(["up", path, "--p", str(p)]) == 0
        capsys.readouterr()


def test_functors_and_locus_guard(capsys, kummer_file, pencil_file,
                                  monkeypatch):
    # The tensor square and End of Kummer have dimension 4.
    monkeypatch.setenv("MHSLAB_TENSOR_GUARD", "3")
    products = []
    build = mh._products
    monkeypatch.setattr(mh, "_products",
                        lambda *args: products.append(args) or build(*args))
    assert cli.main(["functors", kummer_file]) == 5
    assert not products  # refused before any product was formed
    assert cli.main(["locus", pencil_file, "--vector", '["1","0","0","1"]',
                     "--construction", '["HOM","SELF","SELF"]']) == 5
    assert capsys.readouterr().err.startswith("error: tensor space of "
                                              "dimension 4 exceeds")
    monkeypatch.setenv("MHSLAB_TENSOR_GUARD", "4")
    assert cli.main(["functors", kummer_file]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [("--degree", "0"), ("--degree", "-1"),
                                         ("--height", "0"), ("--height", "-3")])
def test_numeric_arguments_below_one_are_usage_errors(capsys, kummer_file,
                                                      flag, value):
    argv = (["mt-bound", kummer_file] if flag == "--degree"
            else ["experiment", "--samples", "0"])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [flag, value])
    assert exc.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


def test_experiment_deterministic_bytes(capsys, tmp_path):
    mu_file = write(tmp_path, "mu.json", se.triple_to_json(corpus.tate3_triple()))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.main(["experiment", "--triple", mu_file, "--samples", "3",
                         "--seed", "7", "--height", "10", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["n_samples"] == 3 and len(doc["degenerate"]) == 3
    capsys.readouterr()


def test_experiment_on_equal_weight_gaps(capsys, tmp_path):
    # Q(0) + Q(1) + Q(2) has equal weight gaps and is graded-Tate.
    mu_file = write(tmp_path, "mu.json",
                    se.triple_to_json(tate_triple((-4, -2, 0))))
    code, doc = run(capsys, ["experiment", "--triple", mu_file,
                             "--samples", "2"])
    assert code == 0 and doc["n_samples"] == 2
    assert {d["p"] for d in doc["per_p"]} == {-4, -2}
    assert len(doc["degenerate"]) == 3
    assert all(control["failing_p"] for control in doc["degenerate"])


def test_experiment_defaults_to_tate3_and_rejects_negative_samples(capsys):
    code, doc = run(capsys, ["experiment", "--samples", "0"])
    assert code == 0 and doc["run"]["inputs"] == {}
    assert [c["failing_p"] for c in doc["degenerate"]] == [[-6, -2]] * 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "--samples", "-5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_experiment_verb_checks_its_triple_once(capsys, tmp_path, monkeypatch):
    mu = corpus.tate3_triple()
    assert tr.triple_problems(mu) == []  # the verb's default triple
    mu_file = write(tmp_path, "mu.json", se.triple_to_json(mu))
    validated = []
    validate = mh.validate_mhs
    monkeypatch.setattr(mh, "validate_mhs",
                        lambda m: validated.append(m) or validate(m))
    assert cli.main(["experiment", "--triple", mu_file, "--samples", "2",
                     "--seed", "1"]) == 0
    capsys.readouterr()
    # The 3 graded pieces of the triple, checked once by the experiment
    # (reading the file only parses it); no member, side of a cut or u_p
    # is validated.
    assert len(validated) == 3
    # A Python caller's triple is still checked.
    bad = tr.Triple(mu.dim, mu.W, ((-6, mh.tate_twist(1)),) + mu.graded[1:])
    with pytest.raises(NotAnMhsError):
        un.genericity_experiment(bad, 1, "x", 10)


def test_main_reuses_one_parser_with_the_output_of_a_fresh_one(
        capsys, monkeypatch, kummer_file, pencil_file):
    argvs = [["validate", kummer_file], ["up", kummer_file, "--p", "-2"],
             ["up", kummer_file], ["up", kummer_file, "--p", "5"], ["nope"],
             [], ["u-large", kummer_file],
             ["mt-bound", kummer_file, "--degree", "0"],
             ["experiment", "--samples", "x"], ["split", "--help"],
             ["fiber", pencil_file, "--t", "i"], ["up", "--p", "-2"],
             ["locus", pencil_file, "--vector", "[1,", "--construction", "[]"],
             ["experiment", "--samples", "1", "--seed", "s"],
             ["validate", kummer_file, "--out"]]

    def outcomes():
        out = []
        for argv in argvs:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    assert cli._parser() is cli._parser()
    reused = outcomes()
    assert {code for code, _, _ in reused} >= {0, 3, ("exit", 0), ("exit", 2)}
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outcomes() == reused


def test_cli_import_does_not_load_sympy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mhslab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    subprocess.run([sys.executable, "-c", "import mhslab.cli, sys; "
                    "assert 'sympy' not in sys.modules"],
                   env=env, check=True, timeout=60)


def test_out_flag_writes_file(capsys, kummer_file, tmp_path):
    target = tmp_path / "result.json"
    code = cli.main(["validate", kummer_file, "--out", str(target)])
    assert code == 0 and json.loads(target.read_text())["valid"]
    assert capsys.readouterr().out == ""


# -- fuzzing ----------------------------------------------------------------------

_RATIONAL = ["0", "1", "-1", "2", "1/2"]
_GAUSSIAN = _RATIONAL + ["i", "-i", "1+i", "2-1/3i"]
_BAD = ["1/0", "x", "", "1.5", "i/0", 1, 0.5, None, True, []]


@st.composite
def structure_docs(draw):
    """Structure documents of dimension 0-3, mostly well formed, with
    malformed scalars, ragged rows, wrong dimensions and odd keys.  The
    well-formed choice comes first in each list, so it is the common one."""
    dim = draw(st.integers(0, 3))

    def rows(good):
        scalars = st.sampled_from(good * 8 + _BAD)
        width = draw(st.sampled_from([dim] * 12 + [dim + 1, max(dim - 1, 0)]))
        out = [[draw(scalars) for _ in range(width)]
               for _ in range(draw(st.integers(0, dim + 1)))]
        if out and draw(st.sampled_from([False] * 9 + [True])):
            out[-1] = out[-1][:-1]  # ragged
        return out

    def filtration(good):
        keys = draw(st.lists(st.sampled_from(
            ["0", "-1", "1", "-2", "2"] * 4 + ["x", "1.5", ""]),
            min_size=0, max_size=3, unique=True))
        return {k: rows(good) for k in keys}

    doc = {"dim": draw(st.sampled_from([dim] * 16 + [-1, "2", None, True])),
           "W": filtration(_RATIONAL), "F": filtration(_GAUSSIAN)}
    odd = draw(st.sampled_from([None] * 8 + ["extra", "drop"]))
    if odd == "extra":
        doc["extra"] = 1
    elif odd == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


FUZZ_VERBS = [["validate"], ["functors"], ["split"], ["u-large"],
              ["up", "--p", "-2"], ["mt-bound", "--degree", "2"]]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(structure_docs())
def test_fuzzed_structures_get_a_documented_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for verb in FUZZ_VERBS:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([verb[0], path] + verb[1:])
            assert code in {0, 2, 3, 4, 5}, (verb, doc)


@functools.lru_cache(maxsize=None)
def _documents():
    """Valid triple, point, structure and pencil documents (the pencil cut
    at -2), with the identity of End as a locus vector, for the Kummer
    triple and the three-step Tate triple."""
    out = []
    for mu, alpha, base, direction in [
            (corpus.kummer_triple(), corpus.kummer_tpoint(I),
             [[0], [1]], [[1], [0]]),
            (corpus.tate3_triple(), tr.sample_point(corpus.tate3_triple(),
                                                     "fuzz", 5),
             [[0], [0], [1]], [[1], [0], [0]])]:
        low, high = tr.truncate(mu, -2)
        a_low, a_high = tr.truncate_point(mu, -2, alpha)
        pencil = lo.Pencil(mu, -2, tr.spoint(low, a_low),
                           tr.spoint(high, a_high),
                           la.mat(QI, base), la.mat(QI, direction))
        out.append({"triple": se.triple_to_json(mu),
                    "point": se.tpoint_to_json(alpha),
                    "structure": se.mhs_to_json(tr.build_mhs(mu, alpha)),
                    "pencil": se.pencil_to_json(pencil),
                    "identity": json.dumps([
                        "1" if i == j else "0"
                        for i in range(mu.dim) for j in range(mu.dim)])})
    return tuple(out)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _leaf(doc, path):
    for key in path:
        doc = doc[key]
    return not isinstance(doc, (dict, list))


_SWAPS = ["0", "1", "-1", "i", "1/2", "2-i"] * 4 + [
    "x", "1/0", "", 0, 1, -3, True, None, [], {}, [["1"]], [["1", "0"]]]


@st.composite
def mutated_documents(draw):
    """One family's documents with one to three mutations applied to one
    of them: a node replaced by another value, an integer moved, a list
    entry dropped or repeated, or a key dropped or added.  Swapping a
    scalar for a well-formed scalar string comes first in each choice, so
    it is the common case."""
    docs = copy.deepcopy(draw(st.sampled_from(_documents())))
    target = draw(st.sampled_from(["triple", "point", "structure",
                                   "pencil"]))
    for _ in range(draw(st.sampled_from([1] * 4 + [2, 3]))):
        paths = list(_paths(docs[target]))[1:]
        if draw(st.sampled_from([True] * 3 + [False])):
            paths = [p for p in paths if _leaf(docs[target], p)] or paths
        if not paths:
            break  # every key was dropped
        path = draw(st.sampled_from(paths))
        parent = docs[target]
        for key in path[:-1]:
            parent = parent[key]
        node, last = parent[path[-1]], path[-1]
        kind = draw(st.sampled_from(["swap"] * 4 + ["shift", "drop",
                                                    "repeat", "key"]))
        if kind == "shift" and type(node) is int:
            parent[last] = node + draw(st.sampled_from([-4, -1, 1, 2]))
        elif kind == "drop":
            del parent[last]
        elif kind == "repeat" and isinstance(parent, list):
            parent.insert(last, copy.deepcopy(node))
        elif kind == "key" and isinstance(node, dict):
            node["extra"] = copy.deepcopy(draw(st.sampled_from(_SWAPS)))
        else:
            parent[last] = copy.deepcopy(draw(st.sampled_from(_SWAPS)))
    return target, docs


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mutated_documents())
def test_fuzzed_triples_points_and_pencils_get_a_documented_exit_code(case):
    target, docs = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name in ("triple", "point", "structure", "pencil"):
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(docs[name], fh)
        verbs = {
            "triple": [["build", "--triple", paths["triple"],
                        "--point", paths["point"]],
                       ["sections", "--triple", paths["triple"],
                        paths["structure"]],
                       ["truncate", "--triple", paths["triple"], "--p", "-2",
                        "--point", paths["point"]]],
            "point": [["build", "--triple", paths["triple"],
                       "--point", paths["point"]],
                      ["truncate", "--triple", paths["triple"], "--p", "-6",
                       "--point", paths["point"]]],
            "structure": [["sections", "--triple", paths["triple"],
                           paths["structure"]]],
            "pencil": [["fiber", paths["pencil"], "--t", "1/2+i"],
                       ["locus", paths["pencil"], "--vector", docs["identity"],
                        "--construction", '["HOM","SELF","SELF"]']],
        }[target]
        for argv in verbs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in {0, 2, 3, 4, 5}, (argv, docs[target])
