"""Exact linear algebra: canonical forms, lattice identities, rationality."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhslab import linalg as la
from mhslab.errors import DimensionMismatchError, ParseError
from mhslab.field import (GaussRat, I, Q, QI, format_q, format_qi, parse_q,
                          parse_qi)
from mhslab.linalg import Subspace

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=8)


def gauss(draw_re, draw_im):
    return st.builds(GaussRat, draw_re, draw_im)


def rows_strategy(field, dim):
    elem = fractions if field == Q else gauss(fractions, fractions)
    return st.lists(st.tuples(*([elem] * dim)), min_size=0, max_size=4)


# -- canonical form -----------------------------------------------------------

def test_rref_examples():
    assert la.rref(Q, [[2, 0], [0, 3]]).basis == ((1, 0), (0, 1))
    assert la.rref(Q, [[1, 1], [2, 2]]).basis == ((1, 1),)
    assert la.rref(Q, [], ambient_dim=3).dim == 0


def test_ragged_rejected():
    with pytest.raises(DimensionMismatchError):
        la.rref(Q, [[1, 2], [1, 2, 3]])


@settings(max_examples=60)
@given(rows_strategy(Q, 3))
def test_rref_idempotent(rows):
    s = la.rref(Q, rows, ambient_dim=3)
    assert la.rref(Q, s.basis, ambient_dim=3) == s


@settings(max_examples=60)
@given(rows_strategy(QI, 3), rows_strategy(QI, 3))
def test_grassmann_identity(rows_u, rows_v):
    u = la.rref(QI, rows_u, ambient_dim=3)
    v = la.rref(QI, rows_v, ambient_dim=3)
    assert la.add(u, v).dim + la.intersect(u, v).dim == u.dim + v.dim


def test_lattice_examples():
    e1 = Subspace.span(Q, 2, [(1, 0)])
    e2 = Subspace.span(Q, 2, [(0, 1)])
    diag = Subspace.span(Q, 2, [(1, 1)])
    assert la.intersect(diag, e1).dim == 0
    assert la.add(e1, e2).is_full()
    proj = la.mat(Q, [[1, 0], [0, 0]])
    assert la.preimage(proj, e1).is_full()


# -- rational structure -------------------------------------------------------

def test_rational_part_examples():
    u = Subspace.span(QI, 2, [(GaussRat(1), I), (GaussRat(1), -I)])
    assert la.rational_part(u).is_full()
    v = Subspace.span(QI, 2, [(GaussRat(1), I)])
    assert la.rational_part(v).dim == 0
    w = Subspace.span(QI, 2, [(GaussRat(1), GaussRat(0))])
    assert la.rational_part(w).basis == ((Fraction(1), Fraction(0)),)


def test_is_defined_over_q():
    assert la.is_defined_over_q(
        Subspace.span(QI, 2, [(GaussRat(1), I), (GaussRat(1), -I)]))
    assert not la.is_defined_over_q(Subspace.span(QI, 2, [(GaussRat(1), I)]))
    assert la.is_defined_over_q(Subspace.zero(QI, 2))


@settings(max_examples=40)
@given(rows_strategy(QI, 3))
def test_rational_part_is_largest(rows):
    u = la.rref(QI, rows, ambient_dim=3)
    r = la.rational_part(u)
    assert u.contains_subspace(r.to_qi())
    # Maximality: adding any rational vector of u to r changes nothing.
    for v in u.basis:
        if all(x.is_rational() for x in v):
            assert r.contains(tuple(x.re for x in v))


@settings(max_examples=40)
@given(rows_strategy(Q, 3))
def test_rational_extension_round_trip(rows):
    b = la.rref(Q, rows, ambient_dim=3)
    assert la.rational_part(b.to_qi()) == b


# -- solving ------------------------------------------------------------------

def test_solve_and_invert():
    a = la.mat(Q, [[1, 2], [3, 5]])
    x = la.solve(Q, a, (1, 0))
    assert la.mat_vec(a, x) == (1, 0)
    inv = la.invert(Q, a)
    assert la.mat_mul(a, inv) == la.identity(Q, 2)
    assert la.solve(Q, la.mat(Q, [[1, 1], [1, 1]]), (0, 1)) is None


def test_quotient_map_kernel():
    u = Subspace.span(Q, 3, [(1, 0, 2)])
    p = la.quotient_map(u)
    assert la.kernel(Q, p, 3) == u
    assert la.image(Q, la.transpose(p), 3).dim == 2


# -- fraction-free elimination against exact division -------------------------

def division_rref(rows):
    """Reference: Gauss-Jordan elimination by exact division in the field.

    The elimination `linalg._rref` ran before it went fraction-free; it
    reduces the list `rows` in place."""
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    basis = tuple(tuple(row) for row in rows[:r])
    return basis, tuple(pivots)


def by_division(fn, *args):
    """fn(*args) with every row reduction done by `division_rref`."""
    with mock.patch.object(la, "_rref", lambda rows, field:
                           division_rref([list(r) for r in rows])):
        return fn(*args)


ENTRY_TYPE = {Q: Fraction, QI: GaussRat}

# Small entries make dependencies likely; the large ones have denominators
# up to 10^6 and numerators above 2^64 in lowest terms.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.builds(Fraction, st.integers(2**84, 2**90) | st.integers(-2**90, -2**84),
              st.integers(1, 10**6)))


def scalars(field):
    return rationals if field == Q else st.builds(GaussRat, rationals, rationals)


@st.composite
def matrices(draw, field):
    """Up to 8 x 10, tall or wide, with zero, repeated and dependent rows."""
    short, long = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    nrows, ncols = (long, short) if draw(st.booleans()) else (short, long)
    elem = scalars(field)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(
            ["new", "new", "zero", "repeat", "combination"] if rows else ["new", "zero"]))
        if kind == "new":
            rows.append(draw(st.lists(elem, min_size=ncols, max_size=ncols)))
        elif kind == "zero":
            rows.append([ENTRY_TYPE[field](0)] * ncols)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            x, y, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(elem)
            rows.append([u + c * v for u, v in zip(x, y)])
    return field, rows


fields_and_matrices = st.sampled_from([Q, QI]).flatmap(matrices)


def assert_same(got, want, field):
    """Equal values, and every scalar of the field's own type."""
    assert got == want
    rows = got.basis if isinstance(got, Subspace) else got
    assert all(type(x) is ENTRY_TYPE[field] for row in rows for x in row)


def test_rref_of_nothing():
    assert la._rref([], Q) == ((), ())
    assert la._rref([[], []], QI) == ((), ())


@settings(max_examples=120, deadline=None)
@given(fields_and_matrices)
def test_rref_matches_division(case):
    field, rows = case
    before = [list(r) for r in rows]
    basis, pivots = la._rref(rows, field)
    assert rows == before
    want_basis, want_pivots = division_rref(before)
    assert_same(basis, want_basis, field)
    assert pivots == want_pivots


@settings(max_examples=60, deadline=None)
@given(fields_and_matrices, st.data())
def test_kernel_solve_rational_part_match_division(case, data):
    field, rows = case
    a = la.mat(field, rows)
    n = len(a[0])
    assert_same(la.kernel(field, a, n), by_division(la.kernel, field, a, n), field)
    solvable = la.mat_vec(a, (ENTRY_TYPE[field](1),) * n)
    drawn = data.draw(st.lists(scalars(field), min_size=len(a), max_size=len(a)))
    for b in [solvable, drawn]:
        x = la.solve(field, a, b)
        want = by_division(la.solve, field, a, b)
        if x is None:
            assert want is None and b is drawn
        else:
            assert_same([x], [want], field)
            assert la.mat_vec(a, x) == tuple(b)
    u = Subspace.span(field, n, a).to_qi()
    assert_same(la.rational_part(u), by_division(la.rational_part, u), Q)


# -- scalar serialization -----------------------------------------------------

@pytest.mark.parametrize("text", ["1/2+1/3i", "-i", "3", "1/2-1/3i", "-2/7",
                                  "i", "0", "5i", "-1+i"])
def test_scalar_round_trip(text):
    assert format_qi(parse_qi(text)) == text


def test_scalar_parse_errors():
    for bad in ["", "1+1", "ii", "1/2/3", "x", "1+2i+3i"]:
        with pytest.raises(ParseError):
            parse_qi(bad)
    with pytest.raises(ParseError):
        parse_q("1+2i")


@settings(max_examples=60)
@given(fractions, fractions)
def test_format_parse_inverse(re, im):
    g = GaussRat(re, im)
    assert parse_qi(format_qi(g)) == g
    assert parse_q(format_q(re)) == re
