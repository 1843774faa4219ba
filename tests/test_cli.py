"""Command-line interface: verbs, JSON round trips, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from helpers import tate_triple

import mhslab
from mhslab import cli, corpus
from mhslab import linalg as la
from mhslab import loci as lo
from mhslab import mhs as mh
from mhslab import serialize as se
from mhslab import triples as tr
from mhslab.errors import ParseError
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


def test_degenerate_cut_is_a_math_error(capsys, kummer_file):
    assert cli.main(["up", kummer_file, "--p", "5"]) == 3
    capsys.readouterr()


def test_mt_bound_verb_and_guard(capsys, kummer_file, monkeypatch):
    code, doc = run(capsys, ["mt-bound", kummer_file, "--degree", "2"])
    assert code == 0 and doc["dim"] >= 1
    monkeypatch.setenv("MHSLAB_TENSOR_GUARD", "10")
    assert cli.main(["mt-bound", kummer_file, "--degree", "4"]) == 5
    capsys.readouterr()


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
