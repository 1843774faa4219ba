"""Exact linear algebra: canonical forms, lattice identities, rationality."""

import copy
import pickle
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import kron_vec
from mhslab import corpus
from mhslab import linalg as la
from mhslab import triples as tr
from mhslab import unipotent as un
from mhslab.errors import DimensionMismatchError, ParseError
from mhslab.field import (FieldError, GaussRat, I, Q, QI, as_scalar,
                          format_q, format_qi, one, parse_q, parse_qi, zero)
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


def test_mat_add_rejects_different_shapes():
    a = la.identity(Q, 2)
    assert la.mat_add(a, a) == la.mat_scale(2, a)
    for b in [la.zeros(Q, 3, 2), la.zeros(Q, 2, 1), la.zeros(Q, 1, 2), ()]:
        with pytest.raises(DimensionMismatchError):
            la.mat_add(a, b)
        with pytest.raises(DimensionMismatchError):
            la.mat_add(b, a)


def _sparse(elem):
    """Vectors of length 0-4, about half of their entries zero."""
    return st.lists(st.one_of(st.just(0), elem), max_size=4)


def _from_ints(field, row):
    """The scalars of an integer row in the layout of la.int_rows."""
    if field == Q:
        return tuple(Fraction(x) for x in row)
    return tuple(GaussRat(x, y) for x, y in zip(row[::2], row[1::2]))


@settings(max_examples=60, derandomize=True)
@given(st.sampled_from([Q, QI]), st.data())
def test_kron_vec_matches_the_multiplying_oracle(field, data):
    """la.int_kron of the integer rows of u and v is their scalar kron
    product, and spans what kron_vec(u, v) spans."""
    elem = fractions if field == Q else gauss(fractions, fractions)
    u, v = (tuple(la.mat(field, [data.draw(_sparse(elem))])[0])
            for _ in range(2))
    ru, rv = la.int_rows(field, [u, v])
    out = la.int_kron(field, ru, rv)
    assert all(type(x) is int for x in out)
    assert _from_ints(field, out) == kron_vec(_from_ints(field, ru),
                                              _from_ints(field, rv))
    n = len(u) * len(v)
    assert (Subspace.span_ints(field, n, [out])
            == Subspace.span(field, n, [kron_vec(u, v)]))


def _elem(field, height=fractions):
    return height if field == Q else gauss(height, height)


# Rationals of large height: numerators and denominators up to 10^30.
tall = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**30))


def _types(out):
    return [[type(x) for x in row] for row in out]


def _check_products(a, b, v):
    for got, want in ((la.mat_mul(a, b), helpers.mat_mul(a, b)),
                      (la.kron_mat(a, b), helpers.kron_mat(a, b))):
        assert got == want
        assert _types(got) == _types(want)
    out = la.mat_vec(a, v)
    assert out == helpers.mat_vec(a, v)
    assert [type(x) for x in out] == [type(x) for x in helpers.mat_vec(a, v)]


def _check_reduce(s, v):
    """The same coordinates, of the same types, as the oracle, or None, or
    the same error for a vector outside the field."""
    try:
        want = helpers.reduce(s, v)
    except FieldError:
        with pytest.raises(FieldError):
            s.reduce(v)
        return
    got = s.reduce(v)
    assert got == want
    if want is not None:
        assert [type(x) for x in got] == [type(x) for x in want]


@settings(max_examples=150, derandomize=True)
@given(st.sampled_from([(Q, Q), (Q, QI), (QI, Q), (QI, QI)]),
       st.sampled_from(["sparse", "dense", "tall"]), st.data())
def test_mat_mul_and_mat_vec_match_the_multiplying_oracles(fields, kind, data):
    """mat_mul, mat_vec, kron_mat and Subspace.reduce against the oracles
    that form every product: sparse matrices of every shape up to 3 x 3,
    empty ones included, dense ones up to 6 x 6, and dense ones of large
    height.  reduce takes the span of the rows of a, its rows and a
    combination of them as members, a drawn vector, and the combination
    with 1 added to one entry, which leaves the subspace when that entry
    is off the pivots."""
    fa, fb = fields
    size = st.integers(0, 3 if kind == "sparse" else 6)
    m, k, n = data.draw(size), data.draw(size), data.draw(size)

    def vec(field, length):
        elem = _elem(field, tall if kind == "tall" else fractions)
        if kind == "sparse":
            elem = st.one_of(st.just(0), elem)
        return data.draw(st.lists(elem, min_size=length, max_size=length))

    a = la.mat(fa, [vec(fa, k) for _ in range(m)])
    b = la.mat(fb, [vec(fb, n) for _ in range(k)])
    v = la.mat(fb, [vec(fb, k)])[0]
    _check_products(a, b, v)
    s = Subspace.span(fa, k, a)
    combination = helpers.mat_vec(la.transpose(a), la.mat(fa, [vec(fa, m)])[0])
    for w in a + ((combination,) if a else ()) + (v,):
        _check_reduce(s, w)
    for j in range(k):  # moved off the subspace in column j alone, if at all
        _check_reduce(s, tuple(x + (i == j) for i, x in enumerate(
            combination if a else v)))


@pytest.mark.parametrize("fa, fb", [(Q, Q), (Q, QI), (QI, QI)])
def test_products_with_zero_rows_and_columns_keep_the_field(fa, fb):
    """A product whose every term is zero still has the field of the
    product: a rational matrix times a zero Q(i) vector gives GaussRats,
    and a matrix with no columns times the empty vector, which holds no
    GaussRat, gives the zero of Q.  A b with no rows is checked against
    the columns of a like any other."""
    a = la.mat(fa, [[0, 0, 0], [1, 0, 2], [0, 0, 0]])
    b = la.mat(fb, [[0, 3], [0, 0], [0, -1]])
    for v in (la.mat(fb, [[0, 0, 0]])[0], la.mat(fb, [[0, 5, 0]])[0]):
        _check_products(a, b, v)
        _check_products(la.zeros(fa, 2, 3), b, v)
    assert all(type(x) is type(b[0][0]) for row in la.mat_mul(a, b) for x in row)
    for a, b, v in [((), b, ()), (((), ()), (), ()), (a, ((), (), ()), v)]:
        _check_products(a, b, v)
    assert [type(x) for x in la.mat_vec(((), ()), ())] == [Fraction, Fraction]
    row = la.mat(fa, [[1, 2]])
    for b in ((), la.mat(fb, [[1]])):
        for mat_mul in (la.mat_mul, helpers.mat_mul):
            with pytest.raises(DimensionMismatchError, match="2-col by"):
                mat_mul(row, b)


gauss_operands = st.one_of(gauss(fractions, fractions),
                           gauss(fractions, st.just(0)),
                           gauss(st.integers(-9, 9), st.integers(-9, 9)),
                           fractions, st.integers(-9, 9))


@settings(max_examples=200, derandomize=True)
@given(gauss_operands.filter(lambda x: isinstance(x, GaussRat)),
       gauss_operands)
def test_gauss_rat_mul_matches_the_four_product_formula(x, y):
    """Real and non-real factors, both orders, int and Fraction operands."""
    c = y if isinstance(y, GaussRat) else GaussRat(y)
    re, im = x.re * c.re - x.im * c.im, x.re * c.im + x.im * c.re
    for out in (x, c, x * y, y * x):
        assert type(out) is GaussRat
        assert type(out.re) is Fraction and type(out.im) is Fraction
    assert x * y == y * x == GaussRat(re, im)


def test_as_scalar_returns_a_scalar_of_its_field_as_it_is():
    """Subspace.span coerces every entry, so a scalar already of the field
    is not built again; others are converted or rejected."""
    f, g = Fraction(-3, 4), GaussRat(1, 2)
    assert as_scalar(Q, f) is f and as_scalar(QI, g) is g
    for x in (3, True, GaussRat(Fraction(3, 1))):
        assert type(as_scalar(Q, x)) is Fraction and as_scalar(Q, x) == x
    assert as_scalar(QI, f) == GaussRat(f)
    with pytest.raises(FieldError):
        as_scalar(Q, g)


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


# -- rational structure -------------------------------------------------------

def test_rational_part_examples():
    u = Subspace.span(QI, 2, [(GaussRat(1), I), (GaussRat(1), -I)])
    assert la.rational_part(u).is_full()
    v = Subspace.span(QI, 2, [(GaussRat(1), I)])
    assert la.rational_part(v).dim == 0
    w = Subspace.span(QI, 2, [(GaussRat(1), GaussRat(0))])
    assert la.rational_part(w).basis == ((Fraction(1), Fraction(0)),)


def _defined_over_q(u):
    """u is defined over Q exactly when its rational part has its dimension."""
    return la.rational_part(u).dim == u.dim


def test_is_defined_over_q():
    cases = [(Subspace.span(QI, 2, [(GaussRat(1), I), (GaussRat(1), -I)]), True),
             (Subspace.span(QI, 2, [(GaussRat(1), I)]), False),
             (Subspace.zero(QI, 2), True)]
    for u, defined in cases:
        assert _defined_over_q(u) == helpers.has_real_echelon_basis(u) == defined


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


@st.composite
def complex_subspaces(draw):
    """Q(i) spans of rational rows, complex rows with their conjugates and
    a lone complex row, so that the rational part is often neither zero
    nor all of u, and is not always spanned by rows of u's basis.  Zero
    columns are added and the columns permuted, so that u's pivots are
    not always its first columns."""
    n, pad = draw(st.integers(3, 5)), draw(st.integers(0, 2))
    complex_rows = st.tuples(*[gauss(fractions, fractions)] * n).filter(
        lambda v: any(x.im for x in v))
    rows = [[GaussRat(x) for x in v] for v in draw(
        st.lists(st.tuples(*[fractions] * n), max_size=2))]
    for v in draw(st.lists(complex_rows, max_size=1)):
        rows += [list(v), [x.conj() for x in v]]
    rows.append(list(draw(complex_rows)))
    perm = draw(st.permutations(range(n + pad)))
    return Subspace.span(QI, n + pad, [[(row + [GaussRat(0)] * pad)[j]
                                        for j in perm] for row in rows])


def _no_kernel(*args):
    raise AssertionError("rational_part took a kernel")


@settings(max_examples=150, deadline=None)
@given(complex_subspaces())
def test_rational_part_matches_the_solving_oracle(u):
    """One elimination of the restricted rows of u (none when u is full)
    and no kernel give what the 2k-unknown solve and the kernel of Im
    parts give."""
    want, defined = helpers.rational_part(u), helpers.is_defined_over_q(u)
    assert helpers.kernel_rational_part(u) == want
    eliminations, eliminate = [], la._eliminate
    with mock.patch.object(la, "kernel", _no_kernel), \
            mock.patch.object(la, "_eliminate", lambda m: eliminations.append(1)
                              or eliminate(m)):
        got = la.rational_part(u)
    assert len(eliminations) == (0 if u.is_full() else 1)
    assert got == want and got.pivots == want.pivots
    assert all(type(x) is Fraction for row in got.basis for x in row)
    assert helpers.has_real_echelon_basis(u) == defined


def _edge_subspaces(rng):
    """Q(i) subspaces of ambient dimension 0 to 4: zero, full, defined
    over Q, and spans of random rows with small real and imaginary parts,
    some of them rational or conjugate pairs."""
    def entry():
        return GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                        rng.choice([0, 0, Fraction(rng.randint(-3, 3), 2)]))
    for n in range(5):
        yield Subspace.zero(QI, n)
        yield Subspace.full(QI, n)
        for _ in range(12):
            rows = [[entry() for _ in range(n)]
                    for _ in range(rng.randint(1, n + 1))]
            yield Subspace.span(QI, n, rows)
            yield Subspace.span(QI, n, rows + [[x.conj() for x in v]
                                               for v in rows])
            yield Subspace.span(Q, n, [[x.re for x in v] for v in rows]).to_qi()


def test_rational_part_matches_the_kernel_oracle_at_the_edges():
    """Against the kernel of Im parts and the 2k-unknown solve, on zero,
    full and rational subspaces and in ambient dimension 0."""
    rng = random.Random("edges")
    seen = set()
    for u in _edge_subspaces(rng):
        got = la.rational_part(u)
        assert got == helpers.kernel_rational_part(u) == helpers.rational_part(u)
        assert all(type(x) is Fraction for row in got.basis for x in row)
        assert helpers.has_real_echelon_basis(u) == (got.dim == u.dim)
        seen.add((u.ambient_dim, u.is_zero(), u.is_full(), got.dim == u.dim))
    assert (0, True, True, True) in seen
    assert {(3, False, False, True), (3, False, False, False)} <= seen


def test_rational_part_ints_at_the_edges():
    """No rows give zero, as many independent rows as the dimension give
    everything with no elimination, and real rows give the span of their
    real parts; the rows handed in are not changed."""
    rng = random.Random("rational-part-ints")
    for n in range(5):
        assert la.rational_part_ints(n, []) == Subspace.zero(Q, n)
        full = la.int_rows(QI, [[GaussRat(x, rng.randint(-2, 2)) for x in v]
                                for v in helpers.random_invertible(rng, n)])
        assert Subspace.span_ints(QI, n, [list(r) for r in full]).is_full()
        with mock.patch.object(la, "_eliminate", side_effect=AssertionError):
            assert la.rational_part_ints(n, full) == Subspace.full(Q, n)
        for k in range(n):
            real = [[x for y in row for x in (int(y), 0)]
                    for row in helpers.random_invertible(rng, n)[:k]]
            before = [list(r) for r in real]
            got = la.rational_part_ints(n, real)
            assert real == before
            assert got == Subspace.span(Q, n, [r[::2] for r in real])
            assert got == helpers.kernel_rational_part(
                Subspace.span_ints(QI, n, before))


def _random_int_rows(rng, nrows, ncols, units=False):
    """Random integer rows, about a third of them zero and the rest
    sparse; with units, every nonzero entry is 1 or -1."""
    def entry():
        if rng.random() < 0.6:
            return 0
        return rng.choice([1, -1]) if units else rng.randint(-9, 9)
    return [[0] * ncols if rng.random() < 0.3 else [entry() for _ in range(ncols)]
            for _ in range(nrows)]


def _bound_inputs():
    """Every integer matrix the degree-3 bound eliminates on a member of
    the three-step Tate triple (up to 44 x 54) and on a CM member."""
    mu, cm = corpus.tate3_triple(), corpus.tate_cm_triple()
    inputs, eliminate = [], la._eliminate
    with mock.patch.object(la, "_eliminate", lambda m: inputs.append(
            [list(r) for r in m]) or eliminate(m)):
        for m in (tr.build_mhs(mu, tr.sample_point(mu, "4242.0", 10)),
                  tr.build_mhs(cm, tr.sample_point(cm, "0", 10))):
            un.mt_lie_upper_bound(m, 3)
    return inputs


def _eliminate_inputs():
    rng = random.Random("eliminate")
    for nrows, ncols in [(1, 1), (3, 5), (8, 8), (12, 7), (44, 54), (102, 9)]:
        yield _random_int_rows(rng, nrows, ncols)
        yield _random_int_rows(rng, nrows, ncols, units=True)
        yield la._restricted(_random_int_rows(rng, nrows, 2 * ncols))
    yield [[0, 0], [0, 0]]
    yield from _bound_inputs()


def test_support_update_matches_the_dense_one_step_for_step():
    """la._eliminate, which subtracts b * prow only on the support of the
    pivot row and scales a row only when a != 1, makes the same rows in
    the same order as the dense update of helpers.dense_eliminate, the
    same pivots and the same echelon rows, and changes no row it is
    handed: on random rows with zero rows, on rows with unit pivots, on
    restricted Q(i) rows and on every input of the degree-3 bound."""
    shapes = set()
    for m in _eliminate_inputs():
        shapes.add((len(m), len(m[0])))
        steps, primitive = {}, la._primitive
        for name, fn in (("sparse", la._eliminate),
                         ("dense", helpers.dense_eliminate)):
            rows = [list(r) for r in m]
            handed, made = list(rows), []
            with mock.patch.object(la, "_primitive", lambda row: made.append(
                    primitive(row)) or made[-1]):
                pivots = fn(rows)
            assert handed == m  # the same row objects, none changed
            steps[name] = made, pivots, rows
        assert steps["sparse"] == steps["dense"]
    assert {(44, 54), (102, 9), (20, 54)} <= shapes


def test_smallest_pivot_matches_the_first_nonzero_one():
    """la._eliminate, which pivots each column on the first remaining row
    of smallest absolute entry, gives the pivots of the first-nonzero
    rule of helpers.first_nonzero_eliminate and the same echelon rows
    once each row is divided by its pivot: the reduced echelon form is
    unique.  On every input of the support-update test."""
    def reduced(fn, m):
        rows = [list(r) for r in m]
        pivots = fn(rows)
        return pivots, [[Fraction(x, row[c]) for x in row]
                        for row, c in zip(rows, pivots)]
    count = 0
    for m in _eliminate_inputs():
        assert reduced(la._eliminate, m) == reduced(
            helpers.first_nonzero_eliminate, m)
        count += 1
    assert count > 20


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), rows_strategy(QI, n))))
def test_rational_hull_is_the_span_of_the_parts(case):
    """rational_hull(rows) (x) Q(i) holds every row, it is the Q-span of
    their real and imaginary parts, and it is the rational part of its
    own extension."""
    n, rows = case
    hull = la.rational_hull(n, rows)
    assert hull == Subspace.span(Q, n, [[x.re for x in v] for v in rows]
                                 + [[x.im for x in v] for v in rows])
    assert all(hull.to_qi().contains(v) for v in rows)
    assert la.rational_part(hull.to_qi()) == hull


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
    assert la.invert(Q, ()) == () and la.invert(QI, ()) == ()
    with pytest.raises(DimensionMismatchError):
        la.invert(Q, la.mat(Q, [[1, 0]]))


def test_solves_reject_a_right_hand_side_with_other_rows():
    for field in (Q, QI):
        a = la.identity(field, 2)
        assert la.solve(field, a, (5, 0)) == (5, 0)
        for b in [(5,), (5, 0, 1)]:
            with pytest.raises(DimensionMismatchError):
                la.solve(field, a, b)
        for b in [la.identity(field, 3), ((1,),)]:
            with pytest.raises(DimensionMismatchError):
                la.solve_matrix(field, a, b)
        with pytest.raises(DimensionMismatchError):
            la.solve_matrix(field, (), ((1,),))


def test_quotient_map_kernel():
    u = Subspace.span(Q, 3, [(1, 0, 2)])
    p = la.quotient_map(u)
    assert la.kernel(Q, p, 3) == u
    assert la.image(Q, la.transpose(p), 3).dim == 2


def test_split_quotient_matches_the_hand_rolled_section():
    """split_quotient(u) is quotient_map(u) with the section solve_matrix
    gives for the identity, the form its callers built by hand; proj .
    section is the identity.  Zero, full, coordinate and random
    subspaces over Q."""
    rng = random.Random("split")
    cases = [Subspace.zero(Q, 3), Subspace.full(Q, 3), Subspace.zero(Q, 1),
             Subspace.span(Q, 3, [(0, 1, 0)]),
             Subspace.span(Q, 4, [(1, 0, 0, 0), (0, 0, 1, 0)])]
    for _ in range(30):
        n = rng.randint(1, 6)
        cases.append(Subspace.span(Q, n, [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(rng.randint(0, n))]))
    assert any(0 < u.dim < u.ambient_dim and u.pivots != tuple(range(u.dim))
               for u in cases)
    for u in cases:
        proj, section = la.split_quotient(u)
        assert proj == la.quotient_map(u)
        k = len(proj)
        assert section == la.solve_matrix(Q, proj, la.identity(Q, k))
        if k:
            assert la.mat_mul(proj, section) == la.identity(Q, k)
        else:
            assert section == ()


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
    """fn(*args) with every row reduction done by `division_rref`: those
    of scalar rows (`_rref`) and those of integer rows, such as the
    tensor products of adapted bases (`_int_rref`)."""
    with mock.patch.object(la, "_rref", lambda rows, field:
                           division_rref([list(r) for r in rows])), \
            mock.patch.object(la, "_int_rref", lambda m, field: division_rref(
                [list(_from_ints(field, r)) for r in m])):
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
    # Every pivot entry is the one shared 1 of the field.
    assert all(row[p] is one(field) for row, p in zip(basis, pivots))


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


def _big(rng):
    """A rational with an 84-90-bit numerator and a denominator up to 10^6."""
    return Fraction(rng.choice([1, -1]) * rng.randint(2**84, 2**90),
                    rng.randint(1, 10**6))


@pytest.mark.parametrize("nrows, ncols", [(8, 10), (10, 8)])
def test_dense_gaussian_rows_with_large_entries_match_division(nrows, ncols):
    rng = random.Random(f"dense:{nrows}x{ncols}")
    rows = [[GaussRat(_big(rng), _big(rng)) for _ in range(ncols)]
            for _ in range(nrows)]
    basis, pivots = la._rref(rows, QI)
    assert len(pivots) == min(nrows, ncols)
    assert (basis, pivots) == division_rref([list(r) for r in rows])


@pytest.fixture
def capped_rows(monkeypatch):
    """Fail a reduction once a primitive row holds an entry of more than
    2,000 bits.  The gcd of a row's integer components cannot remove a
    common Gaussian factor such as 2 + i, so elimination on Gaussian
    integers that divides only by it lets such factors pile up."""
    primitive = la._primitive

    def bounded(row):
        out = primitive(row)
        bits = max(abs(x) for x in out).bit_length()
        if bits > 2000:
            raise AssertionError(f"a {bits}-bit entry in a primitive row")
        return out
    monkeypatch.setattr(la, "_primitive", bounded)
    return monkeypatch


def test_rows_sharing_gaussian_factors_match_division(capped_rows):
    # Each row is (2+i)^k times a small row, 10 <= k <= 20; an integer
    # gcd cannot remove that factor.  Two more rows are dependent.
    rng = random.Random("two-plus-i")
    rows = []
    for _ in range(10):
        f = GaussRat(1)
        for _ in range(rng.randint(10, 20)):
            f = f * GaussRat(2, 1)
        rows.append([f * GaussRat(rng.randint(-3, 3), rng.randint(-3, 3))
                     for _ in range(12)])
    for x, y in [(rows[0], rows[3]), (rows[5], rows[9])]:
        rows.append([GaussRat(2, -1) * a + b for a, b in zip(x, y)])
    basis, pivots = la._rref(rows, QI)
    capped_rows.undo()
    assert len(pivots) == 10
    assert (basis, pivots) == division_rref([list(r) for r in rows])


def test_degree3_bound_on_a_cm_member_keeps_entries_bounded(capped_rows):
    # On this member of Q(3) + E(-3) + Q(0) the bound eliminates integer
    # matrices of up to 108 x 128: the restricted rows of 54 products
    # spanning F^0 of a power of dimension 64.
    mu = corpus.tate_cm_triple()
    m = tr.build_mhs(mu, tr.sample_point(mu, "0", 10))
    g3 = un.mt_lie_upper_bound(m, 3)
    capped_rows.undo()
    assert g3.dim == 5
    assert g3 == by_division(un.mt_lie_upper_bound, m, 3)


# -- kernels from quotient_map rows, solves from one reduction ---------------

def _same_entries(got, want):
    """Equal entry for entry and type for type; None and () compare as is."""
    assert got == want
    if got:
        assert _types(got) == _types(want)


def _check_against_oracles(field, a, n, bs):
    """The kernel, annihilator, equations and every solve of a against the
    free-column and column-by-column oracles in helpers."""
    _same_entries(la.kernel(field, a, n).basis, helpers.kernel(field, a, n).basis)
    u = Subspace.span(field, n, a)
    assert la.annihilator(u) == helpers.annihilator(u)
    assert la.annihilator(u).basis == helpers.equations(u)
    assert la.kernel(field, la.quotient_map(u), n) == u
    for b in bs:
        x = la.solve_matrix(field, a, b)
        _same_entries(x, helpers.solve_matrix(field, a, b))
        if x:
            assert la.mat_mul(a, x) == tuple(b)
        for col in la.transpose(b):
            y = la.solve(field, a, col)
            assert y == helpers.solve(field, a, col)
            if y:
                assert [type(v) for v in y] == [type(v) for v in
                                                helpers.solve(field, a, col)]
    if a and len(a) == n:
        want = helpers.solve_matrix(field, a, la.identity(field, n))
        if want is None:
            with pytest.raises(DimensionMismatchError):
                la.invert(field, a)
        else:
            _same_entries(la.invert(field, a), want)


@settings(max_examples=80, deadline=None)
@given(fields_and_matrices, st.integers(0, 3), st.data())
def test_kernel_and_solves_match_the_oracles(case, k, data):
    """Rank-deficient and full-rank matrices, with a consistent, a drawn
    (mostly inconsistent), a zero and a zero-column right-hand side."""
    field, rows = case
    a = la.mat(field, rows)
    m, n = len(a), len(a[0])
    x = la.mat(field, [data.draw(st.lists(scalars(field), min_size=k, max_size=k))
                       for _ in range(n)])
    drawn = la.mat(field, [data.draw(st.lists(scalars(field), min_size=k,
                                              max_size=k)) for _ in range(m)])
    bs = [la.mat_mul(a, x) if k else ((),) * m, drawn, la.zeros(field, m, k),
          ((),) * m]
    _check_against_oracles(field, a, n, bs)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Q, QI]).flatmap(
    lambda f: st.tuples(st.just(f), rows_strategy(f, 4), rows_strategy(f, 4))))
def test_intersect_matches_the_equations_oracle(case):
    field, rows_u, rows_v = case
    u, v = (la.rref(field, rows, ambient_dim=4) for rows in (rows_u, rows_v))
    for x, y in [(u, v), (u, Subspace.full(field, 4)), (Subspace.zero(field, 4), v)]:
        got = la.intersect(x, y)
        assert got == helpers.intersect(x, y)
        assert all(type(e) is ENTRY_TYPE[field] for row in got.basis for e in row)


@pytest.mark.parametrize("field", [Q, QI])
def test_empty_zero_and_full_rank_systems_match_the_oracles(field):
    rank2 = la.mat(field, [[1, 2, 3], [2, 4, 7], [1, 2, 4]])
    cases = [(la.zeros(field, 2, 3), 3), (la.identity(field, 3), 3),
             (la.mat(field, [[2, 1], [1, 1]]), 2), (rank2, 3)]
    for a, n in cases:
        m = len(a)
        _check_against_oracles(field, a, n, [
            la.zeros(field, m, 2), la.identity(field, m), ((),) * m, (),
            la.mat(field, [[1, 0]] + [[0, 0]] * (m - 1))])
    # The empty system: a and b with no rows.
    for b in [(), ((), ())]:
        assert la.solve_matrix(field, (), b) == helpers.solve_matrix(field, (), b) == ()
    assert la.solve(field, (), ()) == helpers.solve(field, (), ()) == ()
    assert la.kernel(field, (), 3) == helpers.kernel(field, (), 3) == Subspace.full(field, 3)
    for kernel in (la.kernel, helpers.kernel):
        with pytest.raises(DimensionMismatchError):
            kernel(field, ())
    assert la.invert(field, ()) == ()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([Q, QI]).flatmap(
    lambda f: st.tuples(st.just(f), rows_strategy(f, 4))))
def test_add_and_intersect_skip_the_reduction_for_a_zero_or_full_operand(case):
    """With a zero or full operand, add and intersect return an operand
    with no reduction, equal to what the skipped reduction gives."""
    field, rows = case
    u = la.rref(field, rows, ambient_dim=4)
    for t in (Subspace.zero(field, 4), Subspace.full(field, 4)):
        for x, y in [(u, t), (t, u)]:
            with mock.patch.object(la, "_rref", side_effect=AssertionError):
                got = la.add(x, y), la.intersect(x, y)
            assert got == (
                Subspace.span(field, 4, x.basis + y.basis),
                la.kernel(field, la.quotient_map(x) + la.quotient_map(y), 4))


def _count_rref(monkeypatch):
    calls = []
    rref = la._rref
    monkeypatch.setattr(la, "_rref",
                        lambda rows, field: calls.append(1) or rref(rows, field))
    return calls


def test_intersect_invert_and_solve_matrix_reduce_once_or_twice(monkeypatch):
    """intersect of two proper subspaces reduces their stacked equations
    and then those of the result; invert and solve_matrix reduce [a | b]
    once."""
    u = Subspace.span(QI, 4, [(1, 2, 0, 1), (0, 1, 1, 0)])
    v = Subspace.span(QI, 4, [(1, 0, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)])
    a = la.mat(Q, [[1, 2, 0], [3, 5, 1], [0, 1, 4]])
    calls = _count_rref(monkeypatch)
    la.intersect(u, v)
    assert len(calls) == 2
    for run in (lambda: la.invert(Q, a),
                lambda: la.solve_matrix(Q, a, la.mat(Q, [[1, 0], [0, 1], [2, 2]]))):
        calls.clear()
        run()
        assert len(calls) == 1


@pytest.mark.parametrize("field", [Q, QI])
def test_zero_one_identity_and_full_and_zero_subspaces_are_shared(field):
    """Values that hold no scalar of their own are one object each: the
    ints 0 and 1 coerce to the field's zero and one, every identity of
    one size is the same tuple, and every span that is zero or full is
    the shared Subspace.zero or Subspace.full of its ambient space."""
    assert as_scalar(field, 0) is zero(field)
    assert as_scalar(field, 1) is one(field)
    assert as_scalar(field, 2) == 2 and as_scalar(field, 2) is not one(field)
    assert la.mat(field, [[1, 0], [0, 1]]) == la.identity(field, 2)
    assert la.identity(field, 3) is la.identity(field, 3)
    full, nought = Subspace.full(field, 3), Subspace.zero(field, 3)
    assert Subspace.full(field, 3) is full and Subspace.zero(field, 3) is nought
    assert Subspace.span(field, 3, [[2, 1, 0], [0, 3, 1], [1, 0, 5]]) is full
    assert Subspace.span(field, 3, [[0, 0, 0]]) is nought
    assert Subspace.span(field, 3, []) is nought
    assert Subspace.span_ints(field, 3, la.int_rows(
        field, [[2, 1, 0], [0, 3, 1], [1, 0, 5]])) is full
    assert Subspace.span_ints(field, 3, []) is nought
    part = Subspace.span(field, 3, [[2, 1, 0]])
    assert part not in (full, nought) and part.dim == 1
    assert Subspace.full(field, 2) is not full
    # Every unit row the kernels build is the row of the shared identity.
    results = [
        (field, Subspace.span(field, 3, [[2, 1, 0], [0, 0, 5]]).basis),
        (field, Subspace.span_ints(field, 3, la.int_rows(
            field, [[0, 3, 0], [1, 1, 1]])).basis),
        (Q, la.rational_part_ints(3, la.int_rows(
            QI, [[1, 0, I], [0, 2, 0]])).basis),
        (field, la.kron_mat(la.mat(field, [[1, 0], [0, 2], [1, 1]]),
                            la.mat(field, [[0, 1], [1, 0]]))),
    ]
    units = 0
    for f, rows in results:
        for row in rows:
            support = [k for k, x in enumerate(row) if x]
            if len(support) == 1 and row[support[0]] == 1:
                assert row is la.identity(f, len(row))[support[0]]
                units += 1
    assert units == 5
    # A unit row is built alone, in O(n): it builds no identity.
    before = la.identity.cache_info()
    row = la._vector(False, [0] * 150 + [3] + [0] * 49, 3)
    assert la.identity.cache_info() == before
    assert row is la.unit_row(Q, 200, 150) is la.identity(Q, 200)[150]
    # Over Q(i) the integer row [0, d] of one entry is i, not 1.
    i_row = la.kron_mat(((I,),), la.mat(field, [[1, 0]]))[0]
    assert i_row == (I, zero(QI)) and i_row is not la.identity(QI, 2)[0]
    assert la._vector(True, [0, 5], 5) == (I,)


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


@pytest.mark.parametrize("g", [GaussRat(1, 2), GaussRat(Fraction(-3, 7)),
                               GaussRat(0), I])
def test_gauss_rat_pickles_and_deep_copies(g):
    for back in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert type(back) is GaussRat
        assert back == g and hash(back) == hash(g)
