"""JSON (de)serialization for structures, triples, points, and pencils.

Scalars serialize as strings ("a/b", "a/b+c/di"); matrices as row-major
arrays of such strings; filtrations as maps from the index to a basis of
the step.  Emission is deterministic: keys are sorted and bases are
canonical, so equal values serialize to identical bytes.  Readers only
parse: what they return is checked where it enters the library
(mhs.check_valid, triples.check_triple and check_tpoint, Pencil.check).
The one exception is the W of a triple, which triple_from_json checks
before it reads the graded entries against its jumps.
"""

from __future__ import annotations

import json
from typing import Dict, List

from . import mhs as mh
from . import triples as tr
from .errors import NotAnMhsError, ParseError
from .field import Q, QI, format_q, format_qi, parse_q, parse_qi
from .linalg import Matrix, Subspace, mat
from .mhs import MixedHodgeStructure
from .triples import Pencil, SPoint, TPoint, Triple


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


# -- matrices -----------------------------------------------------------------

def matrix_to_json(field: str, a: Matrix) -> List[List[str]]:
    fmt = format_q if field == Q else format_qi
    return [[fmt(x) for x in row] for row in a]


def matrix_from_json(field: str, data, what: str = "matrix") -> Matrix:
    _require(isinstance(data, list) and
             all(isinstance(r, list) for r in data), f"{what}: expected rows")
    _require(all(len(r) == len(data[0]) for r in data),
             f"{what}: rows of unequal length")
    bad = [x for row in data for x in row if not isinstance(x, str)]
    if bad:
        raise ParseError(f"{what}: expected a scalar string, got {bad[0]!r}")
    parse = parse_q if field == Q else parse_qi
    try:
        rows = [[parse(x) for x in row] for row in data]
    except ParseError as exc:
        raise ParseError(f"{what}: {exc}") from exc
    return mat(field, rows)


def subspace_to_json(s: Subspace) -> List[List[str]]:
    return matrix_to_json(s.field, s.basis)


def subspace_from_json(field: str, ambient: int, data,
                       what: str = "subspace") -> Subspace:
    rows = matrix_from_json(field, data, what)
    if rows and len(rows[0]) != ambient:
        raise ParseError(f"{what}: rows of length {len(rows[0])}, "
                         f"expected {ambient}")
    return Subspace.span(field, ambient, rows)


# -- filtrations and structures -----------------------------------------------

def _filtration_to_json(steps) -> Dict[str, List[List[str]]]:
    return {str(n): subspace_to_json(s) for n, s in steps}


def _filtration_from_json(field: str, dim: int, data, what: str):
    """W (field Q) or F (field Q(i)) from a map of indices to bases."""
    _require(isinstance(data, dict), f"{what}: expected an object")
    out = {}
    for key, rows in data.items():
        try:
            n = int(key)
        except ValueError:
            raise ParseError(f"{what}: non-integer index {key!r}")
        out[n] = subspace_from_json(field, dim, rows, f"{what}[{key}]")
    cls = mh.WeightFiltration if field == Q else mh.HodgeFiltration
    return cls.of(dim, out)


def mhs_to_json(m: MixedHodgeStructure) -> dict:
    return {"dim": m.dim,
            "W": _filtration_to_json(m.W.steps),
            "F": _filtration_to_json(m.F.steps)}


def mhs_from_json(data) -> MixedHodgeStructure:
    _require(isinstance(data, dict), "structure: expected an object")
    _require(set(data) == {"dim", "W", "F"},
             "structure: expected keys dim, W, F")
    dim = data["dim"]
    _require(type(dim) is int and dim >= 0, "structure: bad dim")
    return MixedHodgeStructure(
        dim, _filtration_from_json(Q, dim, data["W"], "W"),
        _filtration_from_json(QI, dim, data["F"], "F"))


# -- triples and points -------------------------------------------------------

def triple_to_json(mu: Triple) -> dict:
    return {"dim": mu.dim,
            "W": _filtration_to_json(mu.W.steps),
            "graded": [{"weight": n, "F": _filtration_to_json(g.F.steps)}
                       for n, g in mu.graded]}


def triple_from_json(data) -> Triple:
    """One graded entry per jump of W; check_triple judges the entries."""
    _require(isinstance(data, dict), "triple: expected an object")
    _require(set(data) == {"dim", "W", "graded"},
             "triple: expected keys dim, W, graded")
    dim = data["dim"]
    _require(type(dim) is int and dim >= 0, "triple: bad dim")
    w = _filtration_from_json(Q, dim, data["W"], "W")
    # The graded entries are read against the jumps of W, so a W that is
    # not a filtration is rejected first, as check_triple would.
    if w.problems():
        raise NotAnMhsError(w.problems())
    pieces = mh.graded_pieces(w)
    dims = {p.weight: p.dim for p in pieces}
    _require(isinstance(data["graded"], list), "triple: graded must be a list")
    graded = {}
    for entry in data["graded"]:
        _require(isinstance(entry, dict) and set(entry) == {"weight", "F"},
                 "triple: graded entries need keys weight, F")
        n = entry["weight"]
        _require(type(n) is int and n in dims,
                 f"triple: weight {n!r} is not a jump of W")
        _require(n not in graded, f"triple: weight {n} is graded twice")
        g = dims[n]
        graded[n] = MixedHodgeStructure(
            g, mh.WeightFiltration.of(g, {n: Subspace.full(Q, g)}),
            _filtration_from_json(QI, g, entry["F"], f"graded[{n}].F"))
    _require(len(graded) == len(dims), "triple: a jump of W is not graded")
    return Triple(dim, w, tuple(sorted(graded.items())))


def tpoint_to_json(alpha: TPoint) -> dict:
    return {"sections": {str(n): matrix_to_json(QI, a)
                         for n, a in alpha.sections}}


def tpoint_from_json(data) -> TPoint:
    _require(isinstance(data, dict) and set(data) == {"sections"},
             "point: expected key sections")
    _require(isinstance(data["sections"], dict), "point: sections must map "
             "weights to matrices")
    secs = []
    for key, rows in data["sections"].items():
        try:
            n = int(key)
        except ValueError:
            raise ParseError(f"point: non-integer weight {key!r}")
        secs.append((n, matrix_from_json(QI, rows, f"sections[{key}]")))
    return TPoint(tuple(sorted(secs)))


def spoint_to_json(s: SPoint) -> dict:
    return {"F": _filtration_to_json(s.F.steps)}


def spoint_from_json(mu: Triple, data) -> SPoint:
    _require(isinstance(data, dict) and set(data) == {"F"},
             "fiber point: expected key F")
    return SPoint(mu, _filtration_from_json(QI, mu.dim, data["F"], "F"))


def pencil_to_json(pencil: Pencil) -> dict:
    return {"triple": triple_to_json(pencil.triple),
            "p": pencil.p,
            "x": spoint_to_json(pencil.x),
            "y": spoint_to_json(pencil.y),
            "psi0": matrix_to_json(QI, pencil.psi0),
            "dpsi": matrix_to_json(QI, pencil.dpsi)}


def pencil_from_json(data) -> Pencil:
    _require(isinstance(data, dict) and
             set(data) == {"triple", "p", "x", "y", "psi0", "dpsi"},
             "pencil: expected keys triple, p, x, y, psi0, dpsi")
    mu = triple_from_json(data["triple"])
    p = data["p"]
    _require(type(p) is int, "pencil: p must be an integer")
    low, high = tr.truncate(mu, p)
    return Pencil(mu, p,
                  spoint_from_json(low, data["x"]),
                  spoint_from_json(high, data["y"]),
                  matrix_from_json(QI, data["psi0"], "psi0"),
                  matrix_from_json(QI, data["dpsi"], "dpsi"))
